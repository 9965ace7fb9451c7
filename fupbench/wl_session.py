"""lab-session: many small calls, most of them CLI commands run in-process.

Every README command goes through lab_cli.main, plus a manifest re-run, the
CLI inputs that break the exit-code contract today, and the library checks of
acceptance criteria 2-6 (no CLI command reaches stable_unstable).  The per-call
cost of lab_cli (argparse, CSV, manifests, hashing) dominates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from fuplab import lab_cli
from fuplab import lorentz_core as lc
from fuplab import stable_unstable as su
from fuplab import word_combinatorics as wc
from fuplab import fup_numerics as fn

import checks as C
from engine import Op

SESSIONS = 8                     # sessions per round, each on its own seed
FUP_LADDER = (27, 81, 243, 729, 2187, 6561)
FIO_W, FIO_LADDER = (0.125, 1.0, 8.0), (108, 324, 972, 2916)

# Inputs that break the CLI contract today (exit 1 with a one-line message is due).
KEPT_FAULTS = (
    ("flow-trace", "--generator", "Q9"),
    ("algebra-verify", "--n-min", "0"),
    ("hessian-check", "--pairs", "0"),
    ("flow-trace", "--steps", "0"),
    ("fio-sphere", "--ladder", "108", "324"),
    ("words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "200", "--j-max", "1024"),
)


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def _floats(rows):
    return [[float(v) for v in r] for r in rows]


def _footer_betas(path: str) -> list[float]:
    with open(path) as fh:
        return [float(tok.split("=", 1)[1]) for line in fh if line.startswith("# fit")
                for tok in line.split() if tok.startswith("beta=")]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


class LabSession:
    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.inputs = os.path.join(out_dir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(1, 1 << 30, SESSIONS)]
        # block lengths near 2000: the cost of an exact tail sum grows fast with T0
        self.count_args = [(int(rng.integers(1990, 2010)), Fraction(1, 4)),
                           (int(rng.integers(1990, 2010)), Fraction(2, 5))]
        self.refs: dict = {}
        self.stats = {"lab_cli.output_bytes": 0}
        self._round = 0
        self._write_inputs()

    def _write_inputs(self) -> None:
        specs = {
            "cantor.json": {"cantor": {"base": 3, "kept_digits": [0, 2], "depth": 6, "dims": 1}},
            "band.json": {"band": {"base": 3, "kept_digits": [0, 2], "depth": 4,
                                   "arc": [0.1, 0.35]}},
            "fup.json": {"core": "fourier", "n": 1, "ladder": list(FUP_LADDER),
                         "lower_bound_mode": True},
        }
        for name, spec in specs.items():
            with open(os.path.join(self.inputs, name), "w") as fh:
                json.dump(spec, fh)
        for s in self.seeds:
            g = lc.random_group_element(np.random.default_rng(s), 2 + s % 3)
            lc.write_group_element(g, os.path.join(self.inputs, f"g{s}.txt"))

    # -- CLI operations ----------------------------------------------------

    def _cli(self, tag: str, argv, check, kept_fault: bool = False) -> Op:
        out = os.path.join(self.round_dir, tag)

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = lab_cli.main(["--out", out] + list(argv))
            return rc, buf.getvalue(), out

        def checked(res):
            check(*res)
            self.stats["lab_cli.output_bytes"] += _dir_bytes(out)

        return Op(f"cli:{argv[2] if argv[0] == '--seed' else argv[0]}", call, checked, kept_fault)

    def _expect(self, code: int):
        def check(rc, text, out):
            C.require(rc == code, f"exit code {rc}, expected {code}: {text.strip()[-200:]}")
        return check

    def _fup_ref(self, N: int) -> float:
        if N not in self.refs:
            cells = C.cantor_indices(round(math.log(N, 3)))
            self.refs[N] = C.fourier_norm_1d(cells, cells, N)
        return self.refs[N]

    def _session(self, s: int):
        i = self.inputs
        sd = ["--seed", str(s)]
        tag = f"s{s}"

        def algebra(rc, text, out):
            self._expect(0)(rc, text, out)
            lines = text.strip().splitlines()
            C.require(len(lines) == 9 and all(" pass" in ln for ln in lines),
                      f"algebra-verify: {text.strip()[-200:]}")

        def sign_flip(rc, text, out):
            self._expect(2)(rc, text, out)
            C.require("commutator-table FAIL" in text, "sign flip not reported")

        def flow(rc, text, out):
            self._expect(0)(rc, text, out)
            rows = _floats(_csv_rows(os.path.join(out, "flow_trace.csv")))
            C.require(len(rows) == 41, f"flow-trace wrote {len(rows)} rows")
            C.check_flow_rows(rows, 2)

        def decompose(rc, text, out):
            self._expect(0)(rc, text, out)
            g = C.read_lorentz(os.path.join(i, f"g{s}.txt"))
            k, a, b = (C.read_lorentz(os.path.join(out, f"factor_{t}.txt")) for t in "kab")
            err = float(np.abs(k @ a @ b - g).max())
            C.require(err <= 1e-10, f"group-decompose factors reconstruct to {err:.3g}")

        def porosity(kind):
            def check(rc, text, out):
                self._expect(0)(rc, text, out)
                with open(os.path.join(out, "porosity_report.txt")) as fh:
                    C.require("overall=certified-porous" in fh.read(), "report verdict")
                key = ("porosity-check", kind)
                if key not in self.refs:
                    C.probe_certified(C.cantor_indices(6), 0.08, 0.111, 1.0, kind,
                                      np.random.default_rng(s), 24)
                    self.refs[key] = True
            return check

        def sphere(rc, text, out):
            self._expect(0)(rc, text, out)
            with open(os.path.join(out, "sphere_porosity.txt")) as fh:
                C.require(fh.readline().startswith("aggregate=certified-porous"),
                          "sphere aggregate")

        def fup_scan(rc, text, out):
            self._expect(0)(rc, text, out)
            path = os.path.join(out, "fup_scan.csv")
            rows = _csv_rows(path)
            C.require([int(r[2]) for r in rows] == list(FUP_LADDER), "fup-scan ladder")
            samples = [(float(r[3]), float(r[5])) for r in rows]
            for (_h, norm), N in zip(samples, FUP_LADDER):
                C.check_norm(norm, self._fup_ref(N), f"fup-scan N={N}")
            betas = _footer_betas(path)
            C.require(len(betas) == 1, "fup-scan fit footer")
            C.check_fit(betas[0], samples, "fup-scan")
            self._manifest = os.path.join(out, "fup_scan.manifest.json")
            self._scan_csv = path

        def rerun(rc_out):
            rc, out = rc_out
            C.require(rc == 0, f"rerun_manifest exit code {rc}")
            with open(self._scan_csv, "rb") as a, open(os.path.join(out, "fup_scan.csv"), "rb") as b:
                C.require(a.read() == b.read(), "manifest re-run is not byte-identical")
            self.stats["lab_cli.output_bytes"] += _dir_bytes(out)

        def fio(rc, text, out):
            self._expect(0)(rc, text, out)
            path = os.path.join(out, "fio_sphere.csv")
            norms = {}
            for r in _csv_rows(path):
                J, w, norm = int(r[2]), float(r[5]), float(r[6])
                C.require(norm <= C.arc_frobenius_bound(J, None) * (1 + 1e-12),
                          f"fio-sphere J={J} norm")
                norms[(J, w, None)] = norm
            C.require(sorted({J for J, _, _ in norms}) == list(FIO_LADDER)
                      and len(norms) == len(FIO_LADDER) * len(FIO_W), "fio-sphere rows")
            betas = _footer_betas(path)
            C.require(len(betas) == len(FIO_W) and all(b > 0 for b in betas),
                      f"fio-sphere betas {betas}")
            C.check_log_phase_norms(norms)

        def words(j_min):
            def check(rc, text, out):
                self._expect(0)(rc, text, out)
                C.check_word_rows(_csv_rows(os.path.join(out, "words_count.csv")),
                                  0.04, 0.9, j_min)
            return check

        def hessian(pairs):
            def check(rc, text, out):
                self._expect(0)(rc, text, out)
                C.check_hessian_rows(_floats(_csv_rows(os.path.join(out, "hessian_check.csv"))),
                                     pairs)
            return check

        def one_line_usage_error(rc, text, out):
            lines = [ln for ln in text.splitlines() if ln.strip()]
            C.require(rc == 1 and len(lines) == 1,
                      f"exit code {rc} with {len(lines)} lines of output")

        yield self._cli(f"{tag}-alg", sd + ["algebra-verify", "--n-min", "2", "--n-max", "4"],
                        algebra)
        yield self._cli(f"{tag}-flip", sd + ["algebra-verify", "--n-min", "2", "--n-max", "2",
                                             "--inject-sign-flip"], sign_flip)
        yield self._cli(f"{tag}-flow", sd + ["flow-trace", "--n", "2", "--generator", "U1+",
                                             "--t0", "0", "--t1", "2", "--steps", "41"], flow)
        for mode in ("kan+", "kan-"):
            yield self._cli(f"{tag}-{mode}", sd + ["group-decompose", "--input",
                                                   os.path.join(i, f"g{s}.txt"), "--mode", mode],
                            decompose)
        for kind in ("ball", "line"):
            yield self._cli(f"{tag}-por-{kind}", sd + [
                "porosity-check", "--set", os.path.join(i, "cantor.json"), "--nu", "0.08",
                "--alpha0", "0.111", "--alpha1", "1.0", "--mode", kind], porosity(kind))
        yield self._cli(f"{tag}-sphere", sd + [
            "sphere-porosity", "--set", os.path.join(i, "band.json"), "--nu", "0.1",
            "--alpha0", "0.45", "--alpha1", "0.9"], sphere)
        yield self._cli(f"{tag}-fup", sd + ["fup-scan", "--config", os.path.join(i, "fup.json")],
                        fup_scan)
        rerun_out = os.path.join(self.round_dir, f"{tag}-rerun")

        def rerun_call():
            with contextlib.redirect_stdout(io.StringIO()):
                return lab_cli.rerun_manifest(self._manifest, rerun_out), rerun_out

        yield Op("rerun_manifest", rerun_call, rerun)
        # fails today on the arc-mask fault, so it runs on fixed inputs (seed 0)
        yield self._cli(f"{tag}-fio", ["--seed", "0", "fio-sphere", "--w", *map(str, FIO_W),
                                            "--ladder", *map(str, FIO_LADDER)], fio)
        for j_min, j_max in ((40, 60), (200, 1023)):
            yield self._cli(f"{tag}-words{j_min}", sd + [
                "words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", str(j_min),
                "--j-max", str(j_max)], words(j_min))
        for n, pairs in ((2, 100), (1, 50)):
            yield self._cli(f"{tag}-hess{n}", sd + ["hessian-check", "--n", str(n),
                                                    "--pairs", str(pairs)], hessian(pairs))
        for k, argv in enumerate(KEPT_FAULTS):
            yield self._cli(f"{tag}-fault{k}", list(argv), one_line_usage_error, kept_fault=True)

        yield from self._library_ops(s)

    # -- library operations (acceptance criteria 2-6 and exact counts) ------

    def _library_ops(self, s: int):
        rng = np.random.default_rng(s)
        x_gen = np.zeros((5, 5))
        x_gen[0, 1] = x_gen[1, 0] = 1.0

        def flows():
            out = []
            for _ in range(10):
                g = lc.random_group_element(rng, 3)
                t = float(rng.uniform(-5.0, 5.0))
                out.append((g.matrix, t, lc.geodesic_flow(g.matrix[:, 0], g.matrix[:, 1], t)))
            horo = []
            for _ in range(5):
                i = int(rng.integers(1, 4))
                a, t = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-3.0, 3.0))
                for sign, kind in ((1, "U+"), (-1, "U-")):
                    u = lc.generator(kind, i, n=3)
                    lhs = lc.exp_flow(u, a) @ lc.exp_flow(lc.generator("X", n=3), -t)
                    horo.append((u.matrix, a, t, sign, lhs.matrix))
            return out, horo

        def check_flows(res):
            out, horo = res
            for g, t, (x, xi) in out:
                gt = g @ expm(t * x_gen)
                C.require(max(np.abs(x - gt[:, 0]).max(), np.abs(xi - gt[:, 1]).max()) <= 1e-9,
                          "geodesic flow differs from the frame flow")
            for u, a, t, sign, lhs in horo:
                rhs = expm(-t * x_gen) @ expm(a * math.exp(sign * t) * u)
                C.require(np.abs(lhs - rhs).max() <= 1e-8, "horocyclic commutation fails")

        def rates():
            out = []
            for _ in range(20):
                p = su.random_phase_point(rng, int(rng.integers(1, 4)))
                t = float(rng.uniform(0.0, 3.0))
                vu = su.stable_unstable_basis(p, "unstable")[0]
                vs = su.stable_unstable_basis(p, "stable")[-1]
                out.append((t, su.expansion_rate(p, vu, t), su.expansion_rate(p, vs, t)))
            return out

        def check_rates(out):
            for t, ru, rs in out:
                C.require(abs(ru / math.exp(t) - 1) <= 1e-6 and abs(rs * math.exp(t) - 1) <= 1e-6,
                          f"expansion rates {ru:.12g}, {rs:.12g} at t={t:.6g}")

        def decompositions():
            out = []
            for _ in range(20):
                g = lc.random_group_element(rng, int(rng.integers(1, 5)))
                fac = lc.kan_decompose(g, 1 if rng.random() < 0.5 else -1)
                out.append((g.matrix, [fac.k.matrix, fac.a.matrix, fac.b.matrix]))
            for _ in range(10):
                n = int(rng.integers(3, 5))
                l = int(rng.integers(2, n))
                inner = lc.random_group_element(rng, l - 1)
                q, _ = np.linalg.qr(rng.standard_normal((n - l + 1, n - l + 1)))
                if np.linalg.det(q) < 0:
                    q[:, 0] = -q[:, 0]
                kmat = np.eye(n + 2)
                kmat[l + 1:, l + 1:] = q
                g = lc.embed_standard_subgroup(inner.matrix, l, n) @ lc.GroupElement(kmat, n)
                w, k, _kind = lc.normalizer_decompose(g, l)
                out.append((g.matrix, [w.matrix, k.matrix]))
            return out

        def check_decompositions(out):
            for g, factors in out:
                prod = factors[0]
                for f in factors[1:]:
                    prod = prod @ f
                C.require(np.abs(prod - g).max() <= 1e-10, "factors do not reconstruct g")

        def charts():
            p = su.random_phase_point(rng, 2)
            res = [su.symplectic_exactness_check(sign, p, 1e-4) for sign in (1, -1)]
            fol = [su.foliation_straightening_check(sign, p) for sign in (1, -1)]
            shifts = []
            for sign in (1, -1):
                th0 = su.kappa(p, sign).theta
                for t in (0.5, 1.0, 2.0):
                    w = p.energy
                    c, sh = math.cosh(t), math.sinh(t)
                    q = su.PhasePoint(p.x * c + p.xi / w * sh, w * (p.x * sh + p.xi / w * c))
                    shifts.append(su.kappa(q, sign).theta - (th0 - t))
            return res, fol, shifts

        def check_charts(out):
            res, fol, shifts = out
            C.require(max(res) <= 1e-5, f"symplectic residual {max(res):.3g}")
            C.require(max(fol) <= 1e-6, f"foliation residual {max(fol):.3g}")
            C.require(max(abs(v) for v in shifts) <= 1e-8, "kappa time shift")

        def hessians():
            out = []
            while len(out) < 20:
                n = 1 + len(out) % 2
                a = rng.standard_normal(n + 1)
                a /= np.linalg.norm(a)
                b = rng.standard_normal(n + 1)
                b /= np.linalg.norm(b)
                if np.linalg.norm(a - b) < 0.1:
                    continue
                w = float(rng.uniform(0.25, 4.0))
                phi = lambda u, v, w=w: 2 * w * math.log(float(np.linalg.norm(u - v))) \
                    - w * math.log(4.0)
                out.append((n, w, float(np.linalg.norm(a - b)),
                            fn.mixed_hessian_det(phi, a, b, 1e-5)))
            return out

        def check_hessians(out):
            for n, w, r, fd in out:
                want = C.hessian_closed_form(n, w, r)
                C.require(abs(fd - want) <= 1e-4 * abs(want), "mixed Hessian determinant")

        yield Op("criterion2:flows", flows, check_flows)
        yield Op("criterion3:rates", rates, check_rates)
        yield Op("criterion4:decompositions", decompositions, check_decompositions)
        yield Op("criterion5:charts", charts, check_charts)
        yield Op("criterion6:hessians", hessians, check_hessians)
        for t0, alpha in self.count_args:
            def check_count(got, t0=t0, alpha=alpha):
                key = ("count", t0, alpha)
                if key not in self.refs:
                    self.refs[key] = C.block_count(t0, alpha)
                C.require(got == self.refs[key], f"count_uncontrolled({t0}, {alpha}) differs")
                C.check_block_bound(got, t0, alpha)
            yield Op("count_uncontrolled", lambda t0=t0, alpha=alpha:
                     wc.count_uncontrolled(t0, alpha), check_count)

    def ops(self):
        shutil.rmtree(os.path.join(self.out_dir, f"round{self._round}"), ignore_errors=True)
        self._round += 1
        self.stats["lab_cli.output_bytes"] = 0
        self.round_dir = os.path.join(self.out_dir, f"round{self._round}")
        for s in self.seeds:
            yield from self._session(s)
