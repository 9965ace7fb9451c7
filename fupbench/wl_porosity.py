"""porosity-certify: a seeded, shortened form of the lemma-verifier gate.

porosity does nearly all of the work (distance field, windowed maximum
filters, per-direction segment gathers); fup_numerics only rasterizes the
sphere charts.
"""

from __future__ import annotations

import math

import numpy as np

from fuplab import fup_numerics as fn
from fuplab import porosity as po

import checks as C
from engine import Op

BAND = dict(base=3, kept=(0, 2), depth=4, arc=(0.1, 0.35))
SPHERE_M = (128, 512, 2048)
CHARTS = 8
# more bisections on the 1-D set, so the median operation is a bisection
X1_WINDOWS = (0.4, 0.5, 0.6, 0.7)


def _set(base: int, kept, depth: int, n: int):
    x = po.cantor_generate(po.CantorSpec.uniform(base, kept, depth, n), n)
    cells = C.cantor_indices(depth, base, kept)
    want = cells if n == 1 else cells[:, None] & cells[None, :]
    C.require(np.array_equal(x.mask, want), f"cantor_generate base={base} depth={depth} n={n}")
    return x


class PorosityCertify:
    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.x1 = _set(3, (0, 2), 6, 1)          # m = 729
        self.x2 = _set(4, (0, 3), 3, 2)          # m = 64
        self.x2f = _set(4, (0, 3), 4, 2)         # m = 256
        self.nu_line_f = float(rng.uniform(0.195, 0.2))
        self.nu_refute = float(rng.uniform(0.85, 0.95))
        self.affine = [(float(rng.uniform(1 / 3, 1.0)), rng.uniform(0.0, 0.25, 1)) for _ in range(4)]
        self.affine2 = [(float(rng.uniform(0.8, 1.0)), rng.uniform(0.0, 0.1, 2)) for _ in range(2)]
        self.nbh = [float(rng.uniform(0.1, 0.45)) for _ in range(4)]
        self.nbh2 = float(rng.uniform(0.3, 0.32))
        self.sin_amp = [float(rng.uniform(0.002, 0.006)) for _ in range(4)]
        self.theta = [float(rng.uniform(-0.3, 0.3)) for _ in range(2)]
        self.lemma_seed = int(rng.integers(1 << 30))
        self.sphere_nu = float(rng.uniform(0.08, 0.12))
        self.band = C.cantor_indices(BAND["depth"], BAND["base"], BAND["kept"])
        self.atlas = fn.SphereAtlas.for_circle(CHARTS)
        self._probed: dict = {}
        self.stats: dict = {}
        self.nu: dict = {}

    # -- checks ------------------------------------------------------------

    def _probe(self, label, mask, nu, a0, a1, kind, directions=8, extra_slack=0.0):
        key = (label, nu, a0, a1, kind, directions)
        if key not in self._probed:
            rng = np.random.default_rng([self.seed, len(self._probed)])
            probes = 24 if mask.ndim == 1 else 12
            C.probe_certified(mask, nu, a0, a1, kind, rng, probes, directions, extra_slack)
            self._probed[key] = True

    def _check_report(self, label, mask, rep, directions=8, extra_slack=0.0):
        """CERTIFIED survives probes; COUNTEREXAMPLE ships a witness that re-verifies."""
        if rep.verdict is po.Verdict.CERTIFIED:
            self._probe(label, mask, rep.nu, rep.alpha0, rep.alpha1, rep.kind, directions,
                        extra_slack)
        elif rep.verdict is po.Verdict.COUNTEREXAMPLE:
            w = rep.witness
            C.require(w is not None, f"{label}: counterexample without a witness")
            center = w.center if rep.kind == "ball" else w.midpoint
            direction = None if rep.kind == "ball" else tuple(w.direction)
            key = (label, rep.nu, rep.kind, tuple(center), w.scale, direction)
            if key not in self._probed:
                C.verify_witness(mask, rep.nu, rep.kind, center, w.scale, direction)
                self._probed[key] = True

    # -- operations --------------------------------------------------------

    def _bisect(self, label, x, a0, a1, kind, directions=8, iters=20) -> Op:
        def check(nu):
            C.require(nu > 0, f"{label}: no certified nu")
            self._probe(label, x.mask, nu, a0, a1, kind, directions)
            self.nu[label] = nu

        return Op(f"max_certified_nu:{label}",
                  lambda: po.max_certified_nu(x, a0, a1, kind, directions, iters), check)

    def _decide(self, label, x, nu, a0, a1, kind, directions=8, expect=None) -> Op:
        def check(rep):
            if expect is not None:
                C.require(rep.verdict is expect, f"{label}: verdict {rep.verdict.value}")
            self._check_report(label, x.mask, rep, directions)

        if kind == "ball":
            return Op(f"ball:{label}", lambda: po.ball_porosity_check(x, nu, a0, a1), check)
        return Op(f"line:{label}", lambda: po.line_porosity_check(x, nu, a0, a1, directions),
                  check)

    def _lemma(self, label, call) -> Op:
        def check(out):
            C.require(out.holds, f"{label}: lemma verifier does not hold "
                      f"(nu_source={out.nu_source:.6g}, asserted={out.nu_asserted:.6g})")
        return Op(f"lemma:{label}", call, check)

    def _sphere(self, m: int, kind: str) -> Op:
        lo, hi = BAND["arc"]
        band = self.band
        nu = self.sphere_nu
        s_max = math.tan(self.atlas.radius)

        def oracle(y):
            ang = (np.arctan2(y[:, 1], y[:, 0]) / (2 * np.pi)) % 1.0
            inside = (ang >= lo) & (ang < hi)
            frac = np.clip((ang - lo) / (hi - lo), 0.0, 1.0 - 1e-12)
            return inside & band[(frac * band.size).astype(int)]

        def check(out):
            verdict, reports = out
            worst = po.Verdict.CERTIFIED
            for k, rep in enumerate(reports):
                if rep.verdict is po.Verdict.COUNTEREXAMPLE:
                    worst = po.Verdict.COUNTEREXAMPLE
                elif rep.verdict is po.Verdict.INCONCLUSIVE and worst is po.Verdict.CERTIFIED:
                    worst = po.Verdict.INCONCLUSIVE
                raster = C.chart_raster(CHARTS, k, m, band, lo, hi, self.atlas.radius)
                # the exact raster may mark one boundary cell more than the sampled one
                if rep.verdict is po.Verdict.CERTIFIED:
                    self._probe(f"sphere{m}:{k}", raster, rep.nu, rep.alpha0, rep.alpha1,
                                kind, extra_slack=1.0 / m)
            C.require(verdict is worst, f"sphere m={m}: aggregate {verdict.value} is not "
                      f"the worst chart verdict {worst.value}")
            C.require(len(reports) == CHARTS, f"sphere m={m}: {len(reports)} chart reports")
            C.require(abs(reports[0].alpha0 - 0.45 / (2 * s_max)) <= 1e-12,
                      f"sphere m={m}: scale conversion")

        return Op(f"sphere:{kind}:{m}", lambda: fn.sphere_porosity_check(
            oracle, nu, 0.45, 0.9, self.atlas, m=m, kind=kind), check)

    def ops(self):
        x1, x2, x2f = self.x1, self.x2, self.x2f
        yield self._bisect("x1-ball", x1, 1 / 3, 1.0, "ball")
        yield self._bisect("x1-line", x1, 1 / 3, 1.0, "line")
        for a0 in X1_WINDOWS:
            yield self._bisect(f"x1-ball-{a0:.2f}", x1, a0, 1.0, "ball")
            yield self._bisect(f"x1-line-{a0:.2f}", x1, a0, 1.0, "line")
        yield self._bisect("x2-ball", x2, 0.8, 1.0, "ball", 6)
        yield self._bisect("x2-line", x2, 0.8, 1.0, "line", 6)
        yield self._bisect("x2f-ball", x2f, 0.8, 1.0, "ball", 6)
        yield self._decide("x2f-line", x2f, self.nu_line_f, 1.0, 1.0, "line", 6,
                           expect=po.Verdict.CERTIFIED)
        yield self._decide("x1-refute", x1, self.nu_refute, 1 / 3, 1.0, "ball",
                           expect=po.Verdict.COUNTEREXAMPLE)
        yield self._decide("x2-refute", x2, self.nu_refute, 0.8, 1.0, "line", 6,
                           expect=po.Verdict.COUNTEREXAMPLE)
        yield self._decide("x2f-refute", x2f, self.nu_refute, 0.8, 1.0, "ball",
                           expect=po.Verdict.COUNTEREXAMPLE)

        nu = self.nu
        for i, (lam, y) in enumerate(self.affine):
            kind = ("ball", "line")[i % 2]
            yield self._lemma(f"affine-{kind}-1d", lambda lam=lam, y=y, kind=kind:
                              po.verify_affine_lemma(x1, lam, y, 1 / 3, 1.0, kind,
                                                     nu=nu[f"x1-{kind}"]))
        for i, (lam, y) in enumerate(self.affine2):
            kind = ("ball", "line")[i % 2]
            yield self._lemma(f"affine-{kind}-2d", lambda lam=lam, y=y, kind=kind:
                              po.verify_affine_lemma(x2, lam, y, 0.8, 1.0, kind, directions=6,
                                                     nu=nu[f"x2-{kind}"]))
        for i, frac in enumerate(self.nbh):
            kind = ("ball", "line")[i % 2]
            yield self._lemma(f"neighborhood-{kind}-1d", lambda frac=frac, kind=kind:
                              po.verify_neighborhood_lemma(
                                  x1, max(x1.delta, frac * nu[f"x1-{kind}"]), 1 / 3, 1.0, kind,
                                  slack_cells=6.0 if kind == "line" else 4.0,
                                  nu=nu[f"x1-{kind}"]))
        yield self._lemma("neighborhood-line-2d", lambda: po.verify_neighborhood_lemma(
            x2f, max(x2f.delta, self.nbh2 * self.nu_line_f), 1.0, 1.0, "line",
            directions=6, nu=self.nu_line_f))
        rng = np.random.default_rng(self.lemma_seed)
        for a in self.sin_amp:
            yield self._lemma("bilipschitz-line-1d", lambda a=a: self._sin_lemma(a, rng))
        for theta in self.theta:
            yield self._lemma("bilipschitz-ball-2d", lambda theta=theta: self._rot_lemma(theta, rng))
        for m in SPHERE_M:
            yield self._sphere(m, "ball")
            yield self._sphere(m, "line")

    def _sin_lemma(self, a, rng):
        fwd = lambda p: p + a * np.sin(2 * np.pi * p)

        def inv(q):
            p = q.copy()
            for _ in range(40):
                p = q - a * np.sin(2 * np.pi * p)
            return p

        c1 = po.estimate_bilipschitz_constant(fwd, 1, rng)
        c2 = po.estimate_second_derivative_bound(inv, 1, rng, samples=40)
        a1 = min(0.9, 0.9 * self.nu["x1-line"] / max(c1 * c2, 1e-9))
        return po.verify_bilipschitz_lemma(self.x1, fwd, c1, 1 / 3, a1, "line", c2=c2,
                                           slack_cells=6.0)

    def _rot_lemma(self, theta, rng):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        fwd = lambda p: (p - 0.5) @ rot.T + 0.5
        c1 = po.estimate_bilipschitz_constant(fwd, 2, rng, samples=1000)
        return po.verify_bilipschitz_lemma(self.x2, fwd, c1, 0.8, 1.0, "ball", directions=6)
