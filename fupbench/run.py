"""Benchmark entry point: one workload, one seed, untraced or traced.

    python3 fupbench/run.py --workload fup-ladder --seed 1 --seconds 25 --trace 0

Each run starts fresh interpreters with BLAS and OpenMP pinned to one thread:
several that only set up (their median is ``setup_s``) and one that measures
whole rounds of the workload.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fup-ladder", "porosity-certify", "lab-session")
SETUP_ONLY_RUNS = 6          # plus the measuring run: setup_s is a median of seven
DEADLINE_S = 170.0
# One BLAS/OpenMP thread: on two cores the default OpenBLAS pool makes the
# first dense SVD of a 128x128 support take 0.84 s instead of 0.004 s.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def _spawn(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} worker for {args.workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        res = _spawn(args, "trace", deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
        res = _spawn(args, "run", deadline)
        setups.append(res["setup_s"])
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
        }
        print(f"rounds={res['rounds']} ops_per_round={res['ops_per_round']} "
              f"raw_wall_s={res['raw_wall_s']:.6g} "
              f"threads={json.dumps(res['threads'], sort_keys=True)}")
    for line in res["unexpected"]:
        print(f"CHECK FAILED {line}")
    correct = not res["unexpected"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
