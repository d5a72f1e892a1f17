"""`make metrics-smoke`: one micro-benchmark with the metrics sidecar.

Runs a single end-to-end private-editing exchange (encrypt, one
incremental edit through the mediated channel, decrypt), writes the
metrics sidecar to ``benchmarks/results/metrics-smoke.json``, validates
it against the ``repro.obs/v1`` schema, and sanity-checks that the
load-bearing counters actually moved.  Exit code 0 means the
observability pipeline — instrumentation, registry, JSON export,
schema — is intact; it is wired into the default ``make test`` path.
"""

from __future__ import annotations

import pathlib
import sys

from repro.core import KeyMaterial, create_document, load_document
from repro.crypto.random import DeterministicRandomSource
from repro.extension import PrivateEditingSession
from repro.obs import default_registry
from repro.obs.export import load_sidecar, validate_metrics, write_sidecar

SIDECAR = pathlib.Path(__file__).parent / "results" / "metrics-smoke.json"

#: counters that must be populated after the workload below
REQUIRED_NONZERO = (
    "crypto.aes.calls",
    "crypto.aes.encrypt_calls",
    "doc.blocks_reencrypted",
    "doc.deltas",
    "index.node_visits",
    "net.exchanges",
    "client.coalesce.bursts",
)


def _workload() -> None:
    """A small but full-stack workload touching every instrumented layer."""
    keys = KeyMaterial.from_password("smoke", salt=b"smokesalt1")
    rng = DeterministicRandomSource(7)
    doc = create_document("the quick brown fox jumps over the lazy dog " * 40,
                          key_material=keys, scheme="rpc", rng=rng)
    doc.insert(10, "metrics ")
    doc.delete(0, 4)
    assert load_document(doc.wire(), key_material=keys).text == doc.text

    session = PrivateEditingSession("smoke-doc", "smoke-password",
                                    scheme="rpc")
    session.open()
    session.type_text(0, "observability smoke test")
    session.save()
    session.type_text(0, "one more delta: ")
    session.save()


def main() -> int:
    """Run the workload, write + validate the sidecar; 0 on success."""
    _workload()

    SIDECAR.parent.mkdir(exist_ok=True)
    write_sidecar(str(SIDECAR))
    sidecar = load_sidecar(str(SIDECAR))  # re-reads and validates
    validate_metrics(sidecar)

    missing = [name for name in REQUIRED_NONZERO
               if not sidecar["counters"].get(name)]
    if missing:
        print(f"metrics-smoke: FAILED — counters never moved: {missing}",
              file=sys.stderr)
        return 1

    # Direction-split parity: every AES block is exactly one encrypt or
    # one decrypt, per-block and bulk calls alike, so the split counters
    # must sum to the total no matter how blocks were grouped into calls.
    counters = sidecar["counters"]
    total = counters.get("crypto.aes.calls", 0)
    split = (counters.get("crypto.aes.encrypt_calls", 0)
             + counters.get("crypto.aes.decrypt_calls", 0))
    if total != split:
        print(f"metrics-smoke: FAILED — crypto.aes.calls={total} but "
              f"encrypt_calls+decrypt_calls={split}; the direction split "
              f"leaked calls on one path", file=sys.stderr)
        return 1

    registered = len(default_registry().names())
    print(f"metrics-smoke: ok — {registered} instruments, sidecar at "
          f"{SIDECAR} is valid {sidecar['schema']}; "
          + " ".join(f"{n}={sidecar['counters'][n]}"
                     for n in REQUIRED_NONZERO))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
