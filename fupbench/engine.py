"""Operations, rounds and their bookkeeping.

An operation is one timed call from the benchmark into fuplab, followed by an
untimed check of its output.  A round is a workload's fixed list of
operations; every run attempts whole rounds, so the share of failed
operations is the same in every run.

The shared machine's speed drifts by tens of percent within minutes, because
of load from outside this process.  Each latency is therefore scaled to a
nominal machine speed: a fixed calibration kernel (NumPy and plain Python, no
fuplab code) is timed between consecutive operations, and an operation's
latency is multiplied by CAL_NOMINAL_S over the mean of the two samples
around it.  Each sample is the fastest of three back-to-back timings, so one
preempted timing does not shrink the operation around it.  A change to fuplab
moves these times as it moves the raw ones.  The raw times are reported too.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from scipy.special import betainc

from checks import KnownFault

CAL_NOMINAL_S = 3.5e-4        # typical calibration kernel time on the reference box
_CAL_X = np.random.default_rng(0).standard_normal(4096) + 0j


def _cal_kernel() -> None:
    np.fft.fft(_CAL_X)
    np.sort(_CAL_X.real)
    acc = 0
    for i in range(3000):
        acc += i * i


def calibration_sample(repeats: int = 3) -> float:
    """Fastest of `repeats` timings of the fixed calibration kernel, caches warm."""
    _cal_kernel()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _cal_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None] | None = None
    kept_fault: bool = False     # fails today because of a named program fault;
                                 # a check may instead raise KnownFault


@dataclass
class RoundResult:
    wall_s: float = 0.0          # at nominal machine speed
    raw_wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)


def run_round(ops: Iterable[Op]) -> RoundResult:
    """Time each call, then check its output; a failure never stops the round."""
    res = RoundResult()
    cal = calibration_sample()
    for op in ops:
        res.attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = op.call()
            err = None
        except Exception as exc:        # a traceback from the program is a failed operation
            out, err = None, exc
        raw = time.perf_counter() - t0
        res.cpu_s += time.process_time() - c0
        cal_after = calibration_sample()
        dt = raw * 2.0 * CAL_NOMINAL_S / (cal + cal_after)
        cal = cal_after
        res.raw_wall_s += raw
        res.wall_s += dt
        if err is None and op.check is not None:
            try:
                op.check(out)
            except Exception as exc:    # CheckFailed, or a malformed output
                err = exc
        # An answer wrong only by a named fault is counted as failed, but its
        # latency is kept: mending the fault must not move op_p50 by itself.
        known = isinstance(err, KnownFault)
        if err is None or known:
            res.latencies.append(dt)
        if err is not None:
            res.failed += 1
            if not (op.kept_fault or known):
                res.unexpected.append(f"{op.name}: {type(err).__name__}: {err}")
    return res


def run_rounds(ops_fn: Callable[[], Iterable[Op]], seconds: float) -> list[RoundResult]:
    """Whole rounds while the next one, as long as the last took in the
    program, fits in `seconds` (the first round also builds the references)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_round(ops_fn()))
        if time.perf_counter() - start + results[-1].raw_wall_s > seconds:
            return results


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted mean of the order statistics.  The
    sample median picks one value; when the latencies have a gap at the
    middle, as fup-ladder's do between about 14 and 20 ms, it jumps across
    the gap from run to run.  This estimate moves smoothly instead.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    a = (x.size + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(x.size + 1) / x.size))
    return float(weights @ x)


def summarize(results: list[RoundResult]) -> dict:
    lat = [x for r in results for x in r.latencies]
    return {
        "rounds": len(results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "unexpected": [u for r in results for u in r.unexpected],
        "wall_s": statistics.median(r.wall_s for r in results),
        "raw_wall_s": statistics.median(r.raw_wall_s for r in results),
        "op_p50_ms": 1000.0 * harrell_davis_median(lat) if lat else float("nan"),
        "ops_per_round": results[0].attempted,
    }
