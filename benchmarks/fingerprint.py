"""Fingerprints of the perfbench operations: for every operation of the
`siciak`, `hull` and `identity` workloads (perfbench/workloads.py, loaded
read-only) at the given seeds, one line

    <workload> <seed> <label> <sha256>

where the hash is that of json.dumps(result, sort_keys=True) for a
search's result: EnvelopeEstimate.to_json() (upper, witness, lower,
lower_candidate, gap, trace, settings), HullCertificate.to_json(), or
hull_test's failure report; for an `identity-check` call it is that of
its exit code and its artifact's bytes (the artifact's config leaves out
the output path).  Two library trees that print the same lines give
byte-identical outputs.

Run from a source checkout:

    PYTHONPATH=src python benchmarks/fingerprint.py --seeds 1 2 3 [--labels C1-in ...]

and with PYTHONPATH pointing at another tree's src for the other side of
a comparison (the workloads file is always this checkout's).
"""
import argparse
import functools
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("siciak", "hull", "identity")


@functools.cache
def load_workloads():
    """perfbench/workloads.py as a module, without running perfbench."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def digest(result) -> str:
    """SHA-256 of the sorted-key JSON of a result (its to_json() if it has
    one)."""
    doc = result.to_json() if hasattr(result, "to_json") else result
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def artifact_digest(code: int, path: Path) -> str:
    """SHA-256 of a CLI call's exit code and the bytes of its artifact
    (none if it wrote none)."""
    text = path.read_bytes() if path.exists() else b""
    return hashlib.sha256(f"exit {code}\n".encode() + text).hexdigest()


def fingerprints(workload: str, seed: int, labels=None):
    """(label, digest) of each operation of one round of the workload at
    the seed, or of those whose label is in labels."""
    cls = load_workloads().WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        w = cls(seed, Path(tmp))
        for op in w.round:
            if labels is None or op.label in labels:
                result = w.run(op)
                if workload == "identity":  # (exit code, stdout)
                    yield op.label, artifact_digest(result[0], op.inputs["path"])
                else:
                    yield op.label, digest(result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--labels", nargs="+", default=None,
                    help="only the operations with these labels")
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        for seed in args.seeds:
            for label, h in fingerprints(workload, seed, args.labels):
                print(workload, seed, label, h, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
