"""fup-ladder: one-point decay experiments along four ladders, then beta fits.

fup_numerics does nearly all of the work here (FFT applies, power iteration,
dense cross-checks, kernel builds); porosity and lab_cli almost none.
"""

from __future__ import annotations

import numpy as np

from fuplab import fup_numerics as fn

import checks as C
from engine import Op

CANTOR_K = range(1, 13)          # N = 3^1 .. 3^12, the last point takes seconds
PRODUCT_K = range(1, 7)          # n = 2 up to N = 3^6
# rho = 0.9 thickened, 3^4 .. 3^10.  N = 27 is left out: its power iteration
# hits maxiter = 10 N before converging on some seeds, so it fails only now and then.
RHO_K = range(4, 11)
RHO_FAULT_K = (4, 5)             # masked_norm stops short of the dense norm here
LOG_K = range(3, 9)              # circle grids J = 4*3^3 .. 4*3^8
LOG_W = (0.125, 1.0, 8.0)
LOG_RHO, LOG_RHO_K = 0.7, range(3, 8)


class FupLadder:
    def __init__(self, seed: int, out_dir: str):
        self.power_seed = int(np.random.default_rng(seed).integers(1 << 30))
        self.refs: dict = {}
        self.stats = {"fup_numerics.dense_gap_max": 0.0}
        self.norms: dict[str, dict] = {}

    # -- references ------------------------------------------------------

    def _fourier_ref(self, family: str, k: int) -> float:
        key = (family, k)
        if key not in self.refs:
            N = 3 ** k
            cells = C.cantor_indices(k)
            if family == "product":
                mask = (cells[:, None] & cells[None, :]).reshape(-1)
                self.refs[key] = C.fourier_norm_2d(mask, mask, N)
            else:
                if family == "rho":
                    cells = C.dilate(cells, int(round(N ** (1.0 - 0.9))))
                self.refs[key] = C.fourier_norm_1d(cells, cells, N)
        return self.refs[key]

    # -- operations ------------------------------------------------------

    def _point(self, family: str, k: int, cfg: fn.FupConfig, kept_fault: bool = False) -> Op:
        def check(out):
            rows, _fits, ok = out
            C.require(ok, f"{family} k={k}: fup_experiment reports failed sanity")
            norm = float(rows[0]["norm"])
            self.norms.setdefault(family, {})[k] = (rows[0]["h"], norm)
            if cfg.core == "log_phase":
                J = cfg.ladder[0]
                bound = C.arc_frobenius_bound(J, cfg.rho)
                C.require(norm <= bound * (1 + 1e-12),
                          f"{family} k={k}: norm {norm:.12g} above Frobenius bound {bound:.12g}")
                C.check_log_phase_norms({(J, cfg.w_list[0], cfg.rho): norm})
            else:
                gap = C.check_norm(norm, self._fourier_ref(family, k), f"{family} k={k}")
                self.stats["fup_numerics.dense_gap_max"] = max(
                    self.stats["fup_numerics.dense_gap_max"], gap)

        return Op(f"{family}:{cfg.ladder[0]}", lambda: fn.fup_experiment(cfg), check,
                  kept_fault)

    def _fit(self, family: str) -> Op:
        samples = [v for _, v in sorted(self.norms.get(family, {}).items())]

        def check(fit):
            C.check_fit(fit.beta, samples, family)
            pts = self.norms[family]
            if family == "cantor":
                C.check_cantor_ladder({k: v for k, (_h, v) in pts.items()})
            if family == "product":
                C.check_tensor({3 ** k: v for k, (_h, v) in self.norms["cantor"].items()},
                               {3 ** k: v for k, (_h, v) in pts.items()})

        return Op(f"beta_fit:{family}", lambda: fn.beta_fit(samples), check)

    def ops(self):
        """The round: every ladder point, each fit after its ladder."""
        self.norms = {}
        s = self.power_seed
        yield from (self._point("cantor", k, fn.FupConfig(
            core="fourier", n=1, ladder=(3 ** k,), lower_bound_mode=True, seed=s))
            for k in CANTOR_K)
        yield self._fit("cantor")
        yield from (self._point("product", k, fn.FupConfig(
            core="fourier", n=2, ladder=(3 ** k,), seed=s)) for k in PRODUCT_K)
        yield self._fit("product")
        for k in RHO_K:
            fault = k in RHO_FAULT_K
            # the kept faults run on fixed inputs, so they fail the same way on every seed
            yield self._point("rho", k, fn.FupConfig(
                core="fourier", n=1, ladder=(3 ** k,), rho=0.9, seed=0 if fault else s),
                kept_fault=fault)
        yield self._fit("rho")
        # Log-phase points fail today on the arc-mask fault, so they too run on
        # fixed inputs (power seed 0).
        for w in LOG_W:
            yield from (self._point(f"log:w={w}", k, fn.FupConfig(
                core="log_phase", n=1, ladder=(4 * 3 ** k,), w_list=(w,), seed=0))
                for k in LOG_K)
            yield self._fit(f"log:w={w}")
        yield from (self._point("log:rho", k, fn.FupConfig(
            core="log_phase", n=1, ladder=(4 * 3 ** k,), w_list=(1.0,), rho=LOG_RHO, seed=0))
            for k in LOG_RHO_K)
        yield self._fit("log:rho")
