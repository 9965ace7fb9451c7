"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Each criterion pins its tolerances and its runtime budget.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from fuplab.lorentz_core import (
    GroupElement,
    bracket,
    conjugation_normalizer_member,
    embed_standard_subgroup,
    generator,
    geodesic_flow,
    kan_decompose,
    ku_member,
    ku_member_by_conjugation,
    normalizer_decompose,
    normalizer_member,
    parse_label,
    random_group_element,
)
from fuplab.stable_unstable import (
    expansion_rate,
    foliation_residual,
    foliation_straightening_check,
    kappa,
    phase_flow,
    random_phase_point,
    stable_unstable_basis,
    symplectic_exactness_check,
)
from fuplab.porosity import (
    CantorSpec,
    Verdict,
    cantor_generate,
    estimate_bilipschitz_constant,
    estimate_second_derivative_bound,
    line_porosity_check,
    max_certified_nu,
    verify_affine_lemma,
    verify_bilipschitz_lemma,
    verify_neighborhood_lemma,
)
from fuplab.fup_numerics import (
    FupConfig,
    MaskedOperator,
    fup_experiment,
    log_phase_hessian_factors,
    masked_norm,
    mixed_hessian_det,
    semiclassical_dft,
)
from fuplab.word_combinatorics import bound_check, count_uncontrolled, split_XY
from fuplab.lab_cli import main as cli_main, rerun_manifest


def report(num, name, elapsed, budget=None):
    line = f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s"
    if budget is not None:
        line += f" < {budget:.0f}s"
    print(line + ")")


def frame_table_cases(n):
    X = generator("X", n=n, dtype=object)
    U = {(i, s): generator("U" + s, i, n=n, dtype=object)
         for i in range(1, n + 1) for s in "+-"}
    R = {(i, j): generator("R", i + 1, j + 1, n=n, dtype=object)
         for i in range(1, n + 1) for j in range(1, n + 1) if i < j}
    zero = np.zeros((n + 2, n + 2), dtype=object)

    def r_signed(i, j):
        return R[(i, j)].matrix * 1 if i < j else -(R[(j, i)].matrix * 1)

    cases = []
    for i in range(1, n + 1):
        cases.append((X, U[(i, "+")], U[(i, "+")].matrix * 1))
        cases.append((X, U[(i, "-")], -(U[(i, "-")].matrix * 1)))
        cases.append((U[(i, "+")], U[(i, "-")], 2 * X.matrix))
        for j in range(1, n + 1):
            if i != j:
                cases.append((U[(i, "+")], U[(j, "+")], zero))
                cases.append((U[(i, "-")], U[(j, "-")], zero))
                cases.append((U[(i, "+")], U[(j, "-")], 2 * r_signed(i, j)))
    for (i, j), rij in R.items():
        cases.append((rij, X, zero))
        for k in range(1, n + 1):
            for s in "+-":
                expected = zero
                if j == k:
                    expected = U[(i, s)].matrix * 1
                elif i == k:
                    expected = -(U[(j, s)].matrix * 1)
                cases.append((rij, U[(k, s)], expected))
    return cases


def test_criterion_1_commutator_table():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for y, z, expected in frame_table_cases(n):
            got = bracket(y, z).matrix
            assert np.array_equal(got, expected), (n, y.label, z.label)
            yf, zf = parse_label(y.label, n), parse_label(z.label, n)
            fl = bracket(yf, zf).matrix
            assert np.max(np.abs(fl - expected.astype(np.float64))) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "commutator table", elapsed, 1)


def test_criterion_2_flow_compatibility():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    x_gen = generator("X", n=3)
    for _ in range(500):
        g = random_group_element(rng, 3)
        t = float(rng.uniform(-5.0, 5.0))
        gt = g.matrix @ expm(t * x_gen.matrix)
        x, xi = geodesic_flow(g.matrix[:, 0], g.matrix[:, 1], t)
        assert np.max(np.abs(x - gt[:, 0])) <= 1e-9
        assert np.max(np.abs(xi - gt[:, 1])) <= 1e-9
    for _ in range(200):
        n = 3
        i = int(rng.integers(1, n + 1))
        s = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(-3.0, 3.0))
        for sign, kind in ((1, "U+"), (-1, "U-")):
            u = generator(kind, i, n=n)
            lhs = expm(s * u.matrix) @ expm(-t * x_gen.matrix)
            rhs = expm(-t * x_gen.matrix) @ expm(s * math.exp(sign * t) * u.matrix)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "flow compatibility and horocyclic commutation", elapsed, 5)


def test_criterion_3_expansion_rates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = random_phase_point(rng, n)
        t = float(rng.uniform(0.0, 3.0))
        vu = stable_unstable_basis(p, "unstable")[0]
        vs = stable_unstable_basis(p, "stable")[-1]
        assert abs(expansion_rate(p, vu, t) / math.exp(t) - 1.0) <= 1e-6
        assert abs(expansion_rate(p, vs, t) * math.exp(t) - 1.0) <= 1e-6
    report(3, "stable/unstable expansion rates", time.perf_counter() - t0)


def test_criterion_4_decompositions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        g = random_group_element(rng, n)
        sign = 1 if rng.random() < 0.5 else -1
        fac = kan_decompose(g, sign)
        assert np.max(np.abs(fac.product().matrix - g.matrix)) <= 1e-10

    disagreements = 0
    for trial in range(500):
        n = int(rng.integers(3, 5))
        l = int(rng.integers(2, n))
        if trial % 2 == 0:
            inner = random_group_element(rng, l - 1)
            w = embed_standard_subgroup(inner.matrix, l, n)
            kmat = np.eye(n + 2)
            q, _ = np.linalg.qr(rng.standard_normal((n - l + 1, n - l + 1)))
            det_flip = rng.random() < 0.5
            if (np.linalg.det(q) < 0) != det_flip:
                q[:, 0] = -q[:, 0]
            if det_flip:
                flip = np.eye(n + 2)
                flip[l, l] = -1.0
                kmat[l + 1:, l + 1:] = q
                g = w @ GroupElement(flip, n) @ GroupElement(kmat, n)
            else:
                kmat[l + 1:, l + 1:] = q
                g = w @ GroupElement(kmat, n)
            member = True
        else:
            g = random_group_element(rng, n)
            member = normalizer_member(g, l)
        assert normalizer_member(g, l) == member or not trial % 2 == 0
        if normalizer_member(g, l) != conjugation_normalizer_member(g, l, rng):
            disagreements += 1
        if normalizer_member(g, l):
            w, k, kind = normalizer_decompose(g, l)
            assert np.max(np.abs((w @ k).matrix - g.matrix)) <= 1e-10
    assert disagreements == 0

    for _ in range(100):
        n = 3
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        m = np.eye(n + 2)
        m[2:, 2:] = q
        g = GroupElement(m, n)
        assert ku_member(g) == ku_member_by_conjugation(g)
    report(4, "KAN and normalizer decompositions", time.perf_counter() - t0)


def test_criterion_5_chart_geometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    for n in (1, 2, 3):
        for _ in (0, 1):
            p = random_phase_point(rng, n)
            for sign in (1, -1):
                assert symplectic_exactness_check(sign, p, 1e-4) <= 1e-5

    for _ in range(10):
        p = random_phase_point(rng, 2)
        assert foliation_straightening_check(1, p) <= 1e-6
        assert foliation_straightening_check(-1, p) <= 1e-6
        for v in stable_unstable_basis(p, "stable"):
            assert foliation_residual(1, p, v) > 0.1
        for v in stable_unstable_basis(p, "unstable"):
            assert foliation_residual(-1, p, v) > 0.1

    for _ in range(20):
        p = random_phase_point(rng, 2)
        for sign in (1, -1):
            th0 = kappa(p, sign).theta
            for t in (0.5, 1.0, 2.0):
                assert abs(kappa(phase_flow(p, t), sign).theta - (th0 - t)) <= 1e-8
    report(5, "chart maps: symplectic, straightening, time shift",
           time.perf_counter() - t0)


def test_criterion_6_mixed_hessian():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    margin = math.inf
    for n in (1, 2):
        checked = 0
        while checked < 100:
            a = rng.standard_normal(n + 1)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(n + 1)
            b /= np.linalg.norm(b)
            if np.linalg.norm(a - b) < 0.1:
                continue
            w = float(rng.uniform(0.25, 4.0))
            phi = lambda u, v: 2 * w * math.log(float(np.linalg.norm(u - v))) \
                - w * math.log(4.0)
            fd = mixed_hessian_det(phi, a, b, 1e-5)
            _, _, sym = log_phase_hessian_factors(w, a, b)
            assert abs(fd - sym) <= 1e-4 * abs(sym)
            margin = min(margin, abs(sym))
            checked += 1
    print(f"  nonvanishing margin: min |det| = {margin:.6g}")
    report(6, "mixed Hessian determinant vs symbolic product",
           time.perf_counter() - t0)


def test_criterion_7_fup_sanity_and_decay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    # unitarity cap and single-column exactness
    core = semiclassical_dft(243, 1)
    full = np.flatnonzero(np.ones(243, dtype=bool))
    assert masked_norm(MaskedOperator(core, full, full)).value <= 1.0 + 1e-10
    left = np.zeros(243, dtype=bool)
    left[rng.choice(243, 31, replace=False)] = True
    single = np.zeros(243, dtype=bool)
    single[7] = True
    got = masked_norm(MaskedOperator(core, np.flatnonzero(left), np.flatnonzero(single))).value
    assert abs(got - math.sqrt(31 / 243)) <= 1e-12

    # Lanczos vs dense for feasible sizes (checked internally too)
    support = np.flatnonzero(cantor_generate(CantorSpec.uniform(3, (0, 2), 5, 1), 1).mask)
    op = MaskedOperator(semiclassical_dft(243, 1), support, support)
    info = masked_norm(op)
    assert info.dense_value is not None
    assert abs(info.value - info.dense_value) <= 1e-10 * info.dense_value

    # the ladder: N = 3^k, k = 3..8, n = 1
    cfg = FupConfig(core="fourier", n=1, ladder=tuple(3 ** k for k in range(3, 9)),
                    lower_bound_mode=True)
    rows, fits, ok = fup_experiment(cfg)
    assert ok
    norms = [r["norm"] for r in rows]
    assert all(v <= 1.0 + 1e-10 for v in norms)
    assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))
    assert fits[None].beta > 0

    # the deep ladder N = 3^k, k = 9..14, runs on the pruned DFT within 10 s.
    # 3^15 and up are refused by cantor_generate's grid budget: the masks are
    # still ambient arrays, even though the norm never touches the ambient grid.
    t_deep = time.perf_counter()
    deep = FupConfig(core="fourier", n=1, ladder=tuple(3 ** k for k in range(9, 15)),
                     lower_bound_mode=True)
    deep_rows, deep_fits, deep_ok = fup_experiment(deep)
    assert time.perf_counter() - t_deep < 10.0
    assert deep_ok
    r = {round(math.log(row["N"], 3)): row["norm"] for row in rows + deep_rows}
    assert sorted(r) == list(range(3, 15))
    # single-column lower bound sqrt(2^k / 3^k) and the unitarity cap
    assert all((2 / 3) ** (k / 2) <= v <= 1.0 for k, v in r.items())
    # submultiplicativity of the discrete Cantor norms (Dyatlov-Jin)
    assert all(r[a + b] <= r[a] * r[b] for a in r for b in r if a + b in r)
    assert deep_fits[None].beta > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, f"masked transform sanity and decay (beta={fits[None].beta:.4f})",
           elapsed, 120)


def test_criterion_8_log_phase_sphere_decay():
    t0 = time.perf_counter()
    cfg = FupConfig(core="log_phase", n=1, ladder=(108, 324, 972, 2916),
                    w_list=(0.125, 1.0, 8.0))
    rows, fits, ok = fup_experiment(cfg)
    assert ok
    assert max(r["N"] for r in rows) <= 4096
    for w in (0.125, 1.0, 8.0):
        assert fits[w].beta > 0, f"no decay at w={w}"
    betas = {w: round(fits[w].beta, 4) for w in fits}
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, f"log-phase sphere kernel decay {betas}", elapsed, 300)


# ---------------------------------------------------------------------------
# criterion 9: the six lemma verifiers, 200 randomized trials each


def _sin_map(a):
    fwd = lambda p: p + a * np.sin(2 * np.pi * p)
    inv = lambda q: _sin_inverse(q, a)
    return fwd, inv


def _sin_inverse(q, a):
    p = q.copy()
    for _ in range(40):
        p = q - a * np.sin(2 * np.pi * p)
    return p


def _rotation_about_center(theta):
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    center = np.array([0.5, 0.5])

    def fwd(p):
        return (p - center) @ rot.T + center

    return fwd


def test_criterion_9_lemma_verifiers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    trials_per_variant = 200
    n2_trials = {"affine": 20, "neighborhood-ball": 20, "neighborhood-line": 12,
                 "bilipschitz-ball": 20, "bilipschitz-line": 12}

    x1 = cantor_generate(CantorSpec.uniform(3, (0, 2), 6, 1), 1)
    x2 = cantor_generate(CantorSpec.uniform(4, (0, 3), 3, 2), 2)      # m = 64
    x2f = cantor_generate(CantorSpec.uniform(4, (0, 3), 4, 2), 2)     # m = 256
    nu1 = {k: max_certified_nu(x1, 1 / 3, 1.0, k) for k in ("ball", "line")}
    nu2 = {k: max_certified_nu(x2, 0.8, 1.0, k, directions=6) for k in ("ball", "line")}
    nu2f_line = max_certified_nu(x2f, 1.0, 1.0, "line", directions=6, iters=6)
    violations = {}

    # affine: ball and line
    for kind in ("ball", "line"):
        bad = 0
        for k in range(trials_per_variant):
            if k < trials_per_variant - n2_trials["affine"]:
                lam = float(rng.uniform(1 / 3, 1.0))
                y = rng.uniform(0.0, 0.25, 1)
                out = verify_affine_lemma(x1, lam, y, 1 / 3, 1.0, kind,
                                          nu=nu1[kind])
            else:
                lam = float(rng.uniform(0.8, 1.0))
                y = rng.uniform(0.0, 0.1, 2)
                out = verify_affine_lemma(x2, lam, y, 0.8, 1.0, kind, directions=6,
                                          nu=nu2[kind])
            bad += (not out.holds)
        violations[f"affine-{kind}"] = bad

    # neighborhood: ball and line
    for kind in ("ball", "line"):
        bad = 0
        n2 = n2_trials[f"neighborhood-{kind}"]
        for k in range(trials_per_variant):
            if k < trials_per_variant - n2:
                a2 = float(rng.uniform(x1.delta, 0.45 * nu1[kind]))
                slack = 6.0 if kind == "line" else 4.0
                out = verify_neighborhood_lemma(x1, a2, 1 / 3, 1.0, kind,
                                                slack_cells=slack, nu=nu1[kind])
            elif kind == "ball":
                a2 = float(rng.uniform(x2.delta, 0.4 * nu2[kind]))
                out = verify_neighborhood_lemma(x2, a2, 0.8, 1.0, kind, directions=6,
                                                slack_cells=2.0, nu=nu2[kind])
            else:
                a2 = float(rng.uniform(x2f.delta, 0.4 * nu2f_line))
                out = verify_neighborhood_lemma(x2f, a2, 1.0, 1.0, kind, directions=6,
                                                nu=nu2f_line)
            bad += (not out.holds)
        violations[f"neighborhood-{kind}"] = bad

    # bi-Lipschitz: ball and line
    for kind in ("ball", "line"):
        bad = 0
        n2 = n2_trials[f"bilipschitz-{kind}"]
        for k in range(trials_per_variant):
            if k < trials_per_variant - n2:
                a = float(rng.uniform(0.004, 0.04) if kind == "ball"
                          else rng.uniform(0.002, 0.006))
                fwd, inv = _sin_map(a)
                c1 = estimate_bilipschitz_constant(fwd, 1, rng)
                if kind == "ball":
                    out = verify_bilipschitz_lemma(x1, fwd, c1, 1 / 3, 0.9, kind)
                else:
                    c2 = estimate_second_derivative_bound(inv, 1, rng, samples=40)
                    cap = nu1["line"] / max(c1 * c2, 1e-9)   # alpha1 <= nu/(C1 C2 n)
                    a1 = min(0.9, 0.9 * cap)
                    assert a1 > 1 / 3, "scale cap collapsed; shrink the amplitude"
                    out = verify_bilipschitz_lemma(x1, fwd, c1, 1 / 3, a1, kind,
                                                   c2=c2, slack_cells=6.0)
            else:
                theta = float(rng.uniform(-0.3, 0.3))
                fwd = _rotation_about_center(theta)
                c1 = estimate_bilipschitz_constant(fwd, 2, rng, samples=1000)
                if kind == "ball":
                    out = verify_bilipschitz_lemma(x2, fwd, c1, 0.8, 1.0, kind,
                                                   directions=6)
                else:
                    # certify the rotated image at a conservative hypothesis
                    # level first, then assert the pullback at that level
                    from fuplab.porosity import bilipschitz_image
                    nu_hyp = 0.85 * nu2f_line
                    img = bilipschitz_image(x2f, fwd, c1)
                    hyp = line_porosity_check(img, nu_hyp, 1.0, 1.0, 6)
                    assert hyp.verdict is Verdict.CERTIFIED, "hypothesis not established"
                    out = verify_bilipschitz_lemma(x2f, fwd, c1, 1.0, 1.0, kind,
                                                   directions=6, nu=nu_hyp)
            bad += (not out.holds)
        violations[f"bilipschitz-{kind}"] = bad

    assert all(v == 0 for v in violations.values()), violations
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(9, f"porosity lemma verifiers, zero violations {violations}",
           elapsed, 120)


def test_criterion_10_word_counting():
    t0 = time.perf_counter()
    # single block: formula against exhaustive enumeration up to T0 = 16
    for t0_len in range(1, 17):
        for alpha in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
            brute = sum(1 for w in product("12", repeat=t0_len)
                        if Fraction("".join(w).count("1"), t0_len) <= alpha)
            assert count_uncontrolled(t0_len, alpha) == brute

    # full uncontrolled set via partial enumeration up to T0 = 3
    for t0_len in (1, 2, 3):
        alpha = Fraction(3, 10)
        xs, ys = split_XY(t0_len, alpha)
        assert xs.size == count_uncontrolled(t0_len, alpha) ** 8
        assert xs.size + ys.size == 2 ** (8 * t0_len)

    # headline ladder: ratio falls below the bound by the end
    rows = bound_check(0.9, Fraction(4, 100), [2.0 ** (-j) for j in range(40, 61)])
    target = 4 * math.sqrt(0.04) + 0.1
    assert rows[-1]["ratio"] <= target
    # that ladder has floor(alpha T0) = 0, so every count is 1 and every ratio
    # 0; this one (T0 = 32..63) has counts above 1 and the bound can fail
    rows = bound_check(0.9, Fraction(4, 100), [2.0 ** (-j) for j in range(200, 401)])
    assert any(r["count"] > 1 and r["ratio"] > 0 for r in rows)
    assert all(r["within"] for r in rows)
    assert rows[-1]["ratio"] <= target
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, "word counting, formula vs enumeration", elapsed, 10)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"core": "fourier", "n": 1, "ladder": [27, 81, 243], "seed": 11}))
    first = tmp_path / "first"
    assert cli_main(["--out", str(first), "fup-scan", "--config", str(cfg_path)]) == 0
    second = tmp_path / "second"
    assert rerun_manifest(str(first / "fup_scan.manifest.json"), str(second)) == 0
    assert (first / "fup_scan.csv").read_bytes() == (second / "fup_scan.csv").read_bytes()

    for d in ("w1", "w2"):
        assert cli_main(["--out", str(tmp_path / d), "--seed", "5", "words-count",
                         "--alpha", "0.04", "--rho", "0.9",
                         "--j-min", "40", "--j-max", "55"]) == 0
    assert (tmp_path / "w1" / "words_count.csv").read_bytes() == \
        (tmp_path / "w2" / "words_count.csv").read_bytes()
    report(11, "manifest re-runs reproduce outputs byte-for-byte",
           time.perf_counter() - t0)
