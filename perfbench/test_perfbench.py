"""The benchmark's own tests: corrupted outputs must fail the run.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each test drives a scaled-down copy of a workload (small documents, a
sub-second window), then damages what the program produced — stored
ciphertext, the search catalog, the wire — and expects the output
checks to say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pace import REFERENCE_S, Pace  # noqa: E402
from repro.net.http import HttpRequest, HttpResponse  # noqa: E402
from repro.net.transport import WireExchange  # noqa: E402
from repro.services.catalog import CatalogStore  # noqa: E402
from tracing import Tracer, install  # noqa: E402


class SmallEdit(workloads.EditLarge):
    DOC_CHARS = 3_000
    COUNT_PREFIX = 12


class SmallWorkspace(workloads.WorkspaceCold):
    DOC_SIZES = (600, 1_200)
    DOCS = 6
    CREATE_CHARS = 800
    COUNT_PREFIX = 10


class SmallFleet(workloads.FleetSocket):
    SESSIONS = 4
    DOC_CHARS = 300


def _run(cls, seconds=0.4, tracer=None):
    workload = cls(7)
    workload.setup()
    workload.recorder = workload.run(seconds, tracer)
    return workload


def test_clean_runs_pass_every_check():
    for cls in (SmallEdit, SmallWorkspace):
        workload = _run(cls)
        assert workload.check() == []
        assert workload.recorder.failed == 0
        assert workload.recorder.attempted > 1


def test_damaged_ciphertext_fails_the_run():
    workload = _run(SmallEdit)
    stored = workload.server.store.get(workload.DOC_ID)
    content = stored.content
    middle = len(content) // 2
    flipped = "A" if content[middle] != "A" else "B"
    stored.content = content[:middle] + flipped + content[middle + 1:]
    assert any("does not decrypt" in p for p in workload.check())


def test_wiped_search_catalog_fails_the_run():
    workload = _run(SmallWorkspace)
    workload.server.catalog = CatalogStore()
    problems = workload.check()
    assert any("catalog lists" in p for p in problems)
    assert any(p.startswith("search ") for p in problems)


def test_plaintext_on_the_wire_fails_the_run():
    workload = _run(SmallEdit)
    leak = HttpRequest("POST", "http://docs.google.com/Doc?docID=x",
                       body=f"docContents={workload.sentinels[0]}")
    workload.tap(WireExchange(request=leak,
                              response=HttpResponse(status=200, body=""),
                              sent_at=0.0))
    assert any("plaintext sentinel" in p for p in workload.check())


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    original = SmallEdit.check

    def corrupted(self):
        self.model += "!"  # what the user typed no longer matches
        return original(self)

    monkeypatch.setattr(SmallEdit, "check", corrupted)
    monkeypatch.setitem(workloads.WORKLOADS, "edit-large", SmallEdit)
    code = run.main(["--workload", "edit-large", "--seed", "3",
                     "--seconds", "0.3", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_trace_closes_and_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with install(tracer):
            workload = _run(SmallWorkspace, seconds=1.0, tracer=tracer)
        assert workload.check() == []
        assert tracer.roots > 0
        assert tracer.closure_error() < run.CLOSURE_TOLERANCE
        assert tracer.self_ms("services.catalog") > 0
        assert tracer.self_ms("extension.indexer") > 0
        assert workload.prefix_ops == SmallWorkspace.COUNT_PREFIX
        counts.append(workload.prefix_counts)
    assert counts[0] == counts[1]
    # the wrappers are gone once the block exits
    from repro.encoding import formenc
    assert not hasattr(formenc.parse_form, "__wrapped__")


def test_fleet_server_is_fresh_and_stopped():
    workload = SmallFleet(5)
    try:
        workload.setup()
        workload.recorder = workload.run(0.5)
        assert workload.check() == []
        assert workload.recorder.failed == 0
        assert workload.server_peak_rss_mb > 0
    finally:
        workload.close()
    assert workload.proc.poll() is not None


def test_scaling_changes_times_and_rates_only():
    raw = {"save_p50_ms": (10.0, "ms", 5), "setup_s": (2.0, "s", 3),
           "saves_per_s": (50.0, "saves/s", 5),
           "wire_bytes_per_op": (900.0, "bytes", 5)}
    out = run.scaled(raw, 0.5)
    assert out["save_p50_ms"][0] == 5.0
    assert out["setup_s"][0] == 1.0
    assert out["saves_per_s"][0] == 100.0
    assert out["wire_bytes_per_op"] == raw["wire_bytes_per_op"]



def test_pace_probes_at_most_once_an_interval():
    pace = Pace(interval_s=3600)
    pace.force()
    pace.tick()
    assert len(pace.samples) == 1 and pace.samples[0] > 0
    assert pace.time_scale() == REFERENCE_S / pace.samples[0]
    workload = _run(SmallEdit, seconds=0.5)
    assert len(workload.pace.samples) > 1  # probed through the window
    assert 0 < workload.pace.wall_s < 0.5


def test_stratified_median_is_the_geometric_mean_of_class_medians():
    recorder = workloads.Recorder()
    recorder.time("open", lambda: None, stratum=2_000)
    assert list(recorder.strata) == [("open", 2_000)]
    recorder.samples["open"] = [0.001, 0.003, 0.002, 0.016, 0.016]
    recorder.samples["save"] = [0.5]
    recorder.strata = {("open", 2_000): [0, 1, 2], ("open", 32_000): [3, 4],
                       ("save", 2_000): [0]}
    assert recorder.p50("open") == pytest.approx((0.002 * 0.016) ** 0.5)
    plain = workloads.Recorder()
    plain.samples["open"] = [0.001, 0.005, 0.003]
    assert plain.p50("open") == 0.003
