"""One end-to-end benchmark of the private editing stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload edit-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with every other operation of each kind under per-layer
spans and reports per-layer self time and counters per operation.  A
human-readable table goes to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is
0 only when every output check passed and no operation failed.

Times and rates are scaled to a reference host speed measured by a
probe interleaved with the run (``perfbench/pace.py``); the table
prints the raw wall-time figures beside them.

See ``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is predicted to move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from pace import REFERENCE_S, Pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: closure tolerance: layer self times + unattributed vs root time
CLOSURE_TOLERANCE = 0.01
#: the layer each workload's traced run is predicted to be dominated by
PREDICTED_DOMINANT = {
    "edit-large": "extension.on_response",
    "workspace-cold": "encoding.form",
    "fleet-socket": "net.transport",
}


def _ms(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of seconds, in ms."""
    from repro.bench.load import percentile

    return percentile(values, q) * 1000


def end_to_end(workload, recorder, setup_s: list[float],
               window_s: float) -> dict:
    """Every end-to-end metric: ``name -> (value, unit, samples)``, from
    set-up times and a window length in the same seconds as the
    recorder's samples (wall or reference seconds)."""
    samples = recorder.samples
    window = workload.window_counts
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "save_p50_ms": (recorder.p50("save") * 1000, "ms",
                        len(samples["save"])),
        "save_p99_ms": (_ms(samples["save"], 0.99), "ms",
                        len(samples["save"])),
        "saves_per_s": (len(samples["save"]) / window_s, "saves/s",
                        len(samples["save"])),
        "ops_per_s": (recorder.attempted / window_s, "ops/s",
                      recorder.attempted),
        "open_p50_ms": (recorder.p50("open") * 1000, "ms",
                        len(samples["open"])),
        "wire_bytes_per_op": (window["net.wire_bytes"] / recorder.attempted,
                              "bytes", recorder.attempted),
        "stored_bytes_per_char": (
            workload.stored_chars / workload.plain_chars, "chars/char",
            workload.plain_chars),
        "client_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            1),
    }


def reported_only(workload, recorder, create_scale: float = 1.0) -> dict:
    """Metrics printed in the table but not bounded by ``BENCHMARK.json``
    (they exist on one workload only, or can be 0)."""
    samples = recorder.samples
    out = {
        "open_p90_ms": (_ms(samples["open"], 0.9), "ms", len(samples["open"])),
        "create_p50_ms": (
            statistics.median(workload.creates) * 1000 * create_scale, "ms",
            len(workload.creates)),
        "failed_ratio": (recorder.failed / recorder.attempted, "failed/op",
                         recorder.attempted),
    }
    if samples["search"]:
        out["search_p50_ms"] = (_ms(samples["search"], 0.5), "ms",
                                len(samples["search"]))
        out["search_p90_ms"] = (_ms(samples["search"], 0.9), "ms",
                                len(samples["search"]))
    if workload.server_peak_rss_mb is not None:
        out["server_peak_rss_mb"] = (workload.server_peak_rss_mb, "MB", 1)
    return out


def per_layer(workload, recorder, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, plus its problems (closure)."""
    from tracing import LAYERS
    from workloads import COUNTERS

    ops = recorder.traced_ops
    metrics = {f"{layer}_ms": (tracer.self_ms(layer) / ops, "ms/op", ops)
               for layer in LAYERS}
    metrics["unattributed_ms"] = (tracer.unattributed_ms / ops, "ms/op", ops)
    metrics["trace.root_ms"] = (tracer.root_ms / ops, "ms/op", ops)
    metrics["encoding.form_calls"] = (
        tracer.calls("encoding.form") / ops, "calls/op", ops)
    if workload.prefix_ops:  # the first COUNT_PREFIX operations
        counts, base = workload.prefix_counts, workload.prefix_ops
    else:
        counts, base = workload.window_counts, recorder.attempted
    for name, report in COUNTERS.items():
        metrics[report] = (counts[name] / base, "count/op", base)
    metrics["trace.ops"] = (ops, "count", ops)
    metrics["trace.closure_error"] = (tracer.closure_error(), "ratio", ops)
    overhead_ms, untraced_ms = _overhead(recorder)
    metrics["trace.overhead_ms"] = (overhead_ms, "ms/op", ops)
    metrics["trace.overhead_pct"] = (
        100 * overhead_ms / untraced_ms if untraced_ms else 0.0, "%", ops)
    problems = []
    if tracer.closure_error() > CLOSURE_TOLERANCE:
        problems.append(f"trace does not close: layer self times + "
                        f"unattributed differ from root time by "
                        f"{tracer.closure_error():.2%} (> "
                        f"{CLOSURE_TOLERANCE:.0%})")
    return metrics, problems


def _overhead(recorder) -> tuple[float, float]:
    """Traced minus untraced time per traced operation, compared step
    kind by step kind on medians (the two halves need not hold the same
    mix, and a session's first save is a full save in either half)."""
    extra = base = 0.0
    for kind, traced in recorder.traced.items():
        untraced = recorder.untraced.get(kind)
        if not untraced:
            continue
        median_untraced = statistics.median(untraced)
        extra += len(traced) * (statistics.median(traced) - median_untraced)
        base += len(traced) * median_untraced
    ops = max(1, recorder.traced_ops)
    return extra / ops * 1000, base / ops * 1000


def scaled(metrics: dict, scale: float) -> dict:
    """Times multiplied and rates divided by ``scale`` (see pace.py);
    other metrics unchanged."""
    out = {}
    for name, (value, unit, n) in metrics.items():
        if unit in ("s", "ms", "ms/op"):
            value *= scale
        elif unit.endswith("/s"):
            value /= scale
        out[name] = (value, unit, n)
    return out


def _table(title: str, metrics: dict, raw: dict | None = None) -> None:
    print(title)
    for name, (value, unit, n) in metrics.items():
        measured = "" if raw is None or raw[name][0] == value else \
            f" (raw {raw[name][0]:.4f})"
        print(f"  {name:<32} {value:>14.4f} {unit:<10} n={n}{measured}")


def _pace_line(phase: str, pace) -> None:
    print(f"pace {phase}: probe median {pace.median_s() * 1000:.4f} ms over "
          f"{len(pace.samples)} probes (reference {REFERENCE_S * 1000:g} "
          f"ms), time scale {pace.time_scale():.4f}")


def _dominant(workload_name: str, tracer, ops: int) -> None:
    """The layer with the most time, by self and by inclusive time,
    against the prediction for this workload."""
    from tracing import LAYERS

    predicted = PREDICTED_DOMINANT[workload_name]
    print("layer                          self ms/op  inclusive ms/op")
    for layer in LAYERS:
        print(f"  {layer:<28} {tracer.self_ms(layer) / ops:>10.3f} "
              f"{tracer.inclusive_ms(layer) / ops:>16.3f}")
    root = tracer.root_ms or 1.0
    top = max(LAYERS, key=tracer.self_ms)
    verdict = "agrees" if top == predicted else "DISAGREES"
    print(f"dominant layer by self time: {top} "
          f"({tracer.self_ms(top) / root:.0%} of root time; predicted "
          f"{predicted}: {verdict})")
    print(f"predicted layer {predicted}: self "
          f"{tracer.self_ms(predicted) / root:.0%}, inclusive "
          f"{tracer.inclusive_ms(predicted) / root:.0%} of root time")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up the workload's ``SETUPS`` times, run the last set-up for
    ``seconds``, check it and print the tables; returns the result
    object."""
    from tracing import Tracer, install
    from workloads import WORKLOADS

    setup_s: list[float] = []
    setup_spans: list[tuple[float, float, float]] = []
    creates: list[float] = []
    setup_pace, window_pace = Pace(), Pace()
    workload = None
    try:
        for _ in range(WORKLOADS[name].SETUPS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload = WORKLOADS[name](seed)
            workload.pace = setup_pace
            setup_pace.force()
            probing = setup_pace.wall_s
            start = time.perf_counter()
            workload.setup()
            end = time.perf_counter()
            probed = setup_pace.wall_s - probing
            setup_s.append(end - start - probed)
            setup_spans.append((start, end, probed))
            setup_pace.force()
            creates += workload.creates
        workload.creates = creates
        workload.pace = window_pace
        if trace:
            tracer = Tracer()
            with install(tracer):
                recorder = workload.run(seconds, tracer)
        else:
            tracer = None
            recorder = workload.run(seconds)
        problems = workload.check()
    finally:
        if workload is not None:
            workload.close()
    problems += recorder.errors
    scale = window_pace.time_scale()
    if trace:
        raw, closure = per_layer(workload, recorder, tracer)
        metrics = scaled(raw, scale)
        problems += closure
        _table(f"{name} seed={seed} traced ops={recorder.traced_ops}",
               metrics, raw)
        _dominant(name, tracer, max(1, recorder.traced_ops))
    else:
        raw = end_to_end(workload, recorder, setup_s, workload.elapsed_s)
        unbounded = reported_only(workload, recorder)
        recorder.rescale(window_pace)
        setup_reference = [
            (end - start) * setup_pace.mean_scale(start, end)
            - probed * setup_pace.time_scale()
            for start, end, probed in setup_spans]
        metrics = end_to_end(workload, recorder, setup_reference,
                             workload.reference_s)
        _table(f"{name} seed={seed} window={workload.elapsed_s:.2f}s",
               metrics, raw)
        _table("reported, not bounded",
               reported_only(workload, recorder, scale), unbounded)
        _pace_line("set-up", setup_pace)
    _pace_line("window", window_pace)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems and recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PREDICTED_DOMINANT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # One CPU for the whole run; fleet-socket's server process inherits
    # it.  Left to float over a shared host's vCPUs, fleet-socket's
    # client/server pair swung up to 2x in throughput between runs with
    # where the scheduler put it (IQR/median 0.49 over ten seeds, against
    # 0.05-0.09 pinned, on a 2-vCPU VM); its closed loop keeps one side
    # busy at a time, so sharing a core costs little.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
