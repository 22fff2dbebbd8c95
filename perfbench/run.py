"""End-to-end benchmark of discenv.

    python3 perfbench/run.py --workload siciak --seed 1 --seconds 30 --trace 0

Run from a source checkout (the library is imported from its src/).  Each
workload runs in its own process (worker.py) with the BLAS/OpenMP pools
pinned to one thread and the numpy kernel backend.  Set-up is measured
in separate processes before and after the timed one, scaled to a
nominal host speed like the round times (see worker.py), and the upper
quartile of the samples is reported.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it records the machine, the reference-loop rates and the
rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import NOMINAL_RATE, THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("siciak", "hull", "identity")
# set-up-only processes before and after the timed one; with the timed
# process's own set-up that is seven samples, of which the upper quartile
# is reported: like ops_per_s, it follows the host's baseline speed
SETUPS_AROUND = 3
TIME_LIMIT = 170.0  # seconds; a run that would take longer is abandoned


class WorkerFailed(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # the numpy kernels, even where the compiled extension has been built
    env["DISCENV_PURE_PYTHON"] = "1"
    # cached bytecode, as an installed library has: only the first set-up
    # in a fresh checkout compiles the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in 1..60")
    if not (ROOT / "src" / "discenv" / "__init__.py").is_file():
        print(f"no discenv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    try:
        # the traced run reports no set-up time, so it sets up once
        around = 0 if args.trace else SETUPS_AROUND
        samples = [spawn(args, deadline, True) for _ in range(around)]
        res = spawn(args, deadline, False)
        samples.append(res)
        samples += [spawn(args, deadline, True) for _ in range(around)]
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    # each set-up at the nominal host speed, from the reference rate its
    # process measured just after set-up
    setups = [r["setup_s"] * r["setup_ref"] / NOMINAL_RATE for r in samples]
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.quantiles(setups, n=4)[2],
                              "unit": "s"}
    info = res["info"]
    info["setup_s_samples"] = [r["setup_s"] for r in samples]
    info["setup_s_scaled"] = setups
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
