"""One workload run in a fresh interpreter; prints one JSON line.

Modes: ``setup`` stops at the first timed operation and reports the set-up
time; ``run`` measures the untraced rounds; ``trace`` runs untraced rounds
and then traced rounds, and reports the per-layer metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from engine import run_rounds, summarize
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# per-layer values a workload measures on the outputs rather than on spans
WORKLOAD_STATS = {"fup_numerics.dense_gap_max": "ratio", "lab_cli.output_bytes": "byte"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    args = ap.parse_args()

    import fuplab.lab_cli  # noqa: F401  -- imports all six layers

    if Path(fuplab.__file__).resolve().parent != ROOT / "src" / "fuplab":
        raise SystemExit(f"fuplab imported from {fuplab.__file__}, not from this checkout")

    from wl_fup import FupLadder
    from wl_porosity import PorosityCertify
    from wl_session import LabSession

    workloads = {"fup-ladder": FupLadder, "porosity-certify": PorosityCertify,
                 "lab-session": LabSession}
    out_dir = ROOT / ".fupbench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads[args.workload](args.seed, str(out_dir))
        np.fft.fft(np.ones(64))
        np.linalg.svd(np.ones((16, 16)) + 0j)
        result = {"setup_s": time.monotonic() - args.spawned_at,
                  "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
        if args.mode == "run":
            result.update(summarize(run_rounds(wl.ops, args.seconds)))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif args.mode == "trace":
            result.update(_traced(wl, args.seconds))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _traced(wl, seconds: float) -> dict:
    warm = run_rounds(wl.ops, 0.0)   # references, caches, first-touch memory
    plain = run_rounds(wl.ops, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl.ops, seconds / 2)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, len(traced))
    for name, unit in WORKLOAD_STATS.items():
        layers[name] = (float(wl.stats.get(name, 0)), unit)
    layers["process.cpu_s"] = (statistics.mean(r.cpu_s for r in traced), "s")
    layers["process.tracing_overhead"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain),
        "ratio")
    everything = warm + plain + traced
    return {
        "layers": layers,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "unexpected": [u for r in everything for u in r.unexpected],
    }


if __name__ == "__main__":
    sys.exit(main())
