import math

import numpy as np
import pytest
import scipy.sparse.linalg

from fuplab.fup_numerics import (
    DecayFit,
    FourierCore,
    FupConfig,
    MaskedOperator,
    SphereAtlas,
    beta_fit,
    chordal_cutoff,
    circle_grid,
    dense_norm,
    fup_experiment,
    general_phase_fio,
    log_phase_hessian_factors,
    log_phase_kernel,
    log_phase_masked_operator,
    masked_norm,
    mixed_hessian_det,
    resample_mask,
    semiclassical_dft,
    smooth_step,
    sphere2_grid,
    sphere_porosity_check,
    thicken_mask,
    _arc_cantor_mask,
    _log_phase_fd_dets,
)
from fuplab import fup_numerics
from fuplab.fup_numerics import _PrunedDft
from fuplab.porosity import BoxSet, CantorSpec, Verdict, cantor_generate


def cantor_mask(depth, n=1):
    return cantor_generate(CantorSpec.uniform(3, (0, 2), depth, n), n).mask.reshape(-1)


class TestSemiclassicalDft:
    def test_smallest_dft_matrix(self):
        core = semiclassical_dft(2, 1)
        sub = core.submatrix(np.array([0, 1]), np.array([0, 1]))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.max(np.abs(sub - expected)) < 1e-15

    def test_unitarity_on_random_vectors(self):
        core = semiclassical_dft(1024, 1)
        rng = np.random.default_rng(60)
        for _ in range(100):
            u = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
            assert abs(np.linalg.norm(core.apply(u)) - np.linalg.norm(u)) < 1e-12

    def test_fourth_power_is_identity(self):
        core = semiclassical_dft(256, 1)
        rng = np.random.default_rng(61)
        u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        w = u.copy()
        for _ in range(4):
            w = core.apply(w)
        assert np.max(np.abs(w - u)) < 1e-10

    def test_adjoint_is_inverse(self):
        core = semiclassical_dft(81, 2)
        rng = np.random.default_rng(62)
        u = rng.standard_normal(81**2) + 1j * rng.standard_normal(81**2)
        assert np.max(np.abs(core.adjoint(core.apply(u)) - u)) < 1e-12

    def test_rough_sizes_rejected(self):
        with pytest.raises(ValueError):
            semiclassical_dft(77, 1)

    def test_submatrix_matches_apply(self):
        core = semiclassical_dft(27, 1)
        rows = np.array([1, 5, 20])
        cols = np.array([0, 13])
        sub = core.submatrix(rows, cols)
        for jj, c in enumerate(cols):
            e = np.zeros(27, dtype=complex)
            e[c] = 1.0
            assert np.max(np.abs(core.apply(e)[rows] - sub[:, jj])) < 1e-14


class TestMaskedOperator:
    @pytest.mark.parametrize("support", [
        np.ones(27, dtype=bool),                  # a boolean mask
        np.arange(27)[::-1],                      # not increasing
        np.r_[0, np.arange(26)],                  # a duplicate index
        np.arange(1, 28),                         # an index past the grid
        np.arange(-1, 26),                        # a negative index
        np.arange(27.0),                          # not integers
        list(range(27)),                          # not an array
    ], ids=["mask", "unsorted", "duplicate", "past-end", "negative", "float", "list"])
    def test_supports_are_increasing_indices_on_the_grid(self, support):
        core = semiclassical_dft(27, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            MaskedOperator(core, support, np.arange(27))
        with pytest.raises(ValueError, match="strictly increasing"):
            MaskedOperator(core, np.arange(27), support)


class TestMaskedNorm:
    def test_full_masks_give_unitarity(self):
        core = semiclassical_dft(243, 1)
        full = np.flatnonzero(np.ones(243, dtype=bool))
        info = masked_norm(MaskedOperator(core, full, full))
        assert abs(info.value - 1.0) <= 1e-10

    def test_single_column_exact_value(self):
        core = semiclassical_dft(256, 1)
        rng = np.random.default_rng(63)
        left = np.zeros(256, dtype=bool)
        left[rng.choice(256, 40, replace=False)] = True
        right = np.zeros(256, dtype=bool)
        right[17] = True
        info = masked_norm(MaskedOperator(core, np.flatnonzero(left), np.flatnonzero(right)))
        assert abs(info.value - math.sqrt(40 / 256)) <= 1e-12

    def test_lanczos_matches_dense_oracle(self):
        # independent oracle: full dense DFT matrix, masked and factorized
        N = 243
        core = semiclassical_dft(N, 1)
        mask = cantor_mask(5)
        info = masked_norm(MaskedOperator(core, np.flatnonzero(mask), np.flatnonzero(mask)))
        dense = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / math.sqrt(N)
        dense[~mask, :] = 0.0
        dense[:, ~mask] = 0.0
        oracle = np.linalg.svd(dense, compute_uv=False)[0]
        assert abs(info.value - oracle) <= 1e-12

    def test_cantor_and_thickened_norms_match_dense_to_1e_12(self):
        for k in range(3, 8):
            N = 3 ** k
            core = semiclassical_dft(N, 1)
            mask = cantor_mask(k)
            for m in (mask, thicken_mask(mask, round(N ** 0.1), 1)):
                op = MaskedOperator(core, np.flatnonzero(m), np.flatnonzero(m))
                info = masked_norm(op, seed=k)
                dense = dense_norm(op)
                assert info.converged
                assert abs(info.value - dense) <= 1e-12 * dense, (k, int(m.sum()))

    def test_no_convergence_is_reported_not_raised(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.empty(0), np.empty(0))

        monkeypatch.setattr(scipy.sparse.linalg, "svds", stalled)
        mask = cantor_mask(3)
        support = np.flatnonzero(mask)
        info = masked_norm(MaskedOperator(semiclassical_dft(27, 1), support, support))
        assert not info.converged and math.isnan(info.value) and info.dense_value is None
        rows, fits, ok = fup_experiment(FupConfig(core="fourier", n=1, ladder=(27,)))
        assert not ok and rows[0]["converged"] is False

    def test_empty_mask_gives_zero(self):
        core = semiclassical_dft(27, 1)
        none = np.flatnonzero(np.zeros(27, dtype=bool))
        full = np.flatnonzero(np.ones(27, dtype=bool))
        assert masked_norm(MaskedOperator(core, none, full)).value == 0.0

    def test_mask_monotonicity(self):
        core = semiclassical_dft(81, 1)
        rng = np.random.default_rng(64)
        for _ in range(10):
            small = rng.random(81) < 0.3
            grow = small | (rng.random(81) < 0.2)
            right = rng.random(81) < 0.5
            a = masked_norm(MaskedOperator(core, np.flatnonzero(small),
                                           np.flatnonzero(right))).value
            b = masked_norm(MaskedOperator(core, np.flatnonzero(grow),
                                           np.flatnonzero(right))).value
            assert b >= a - 1e-10

    def test_adjoint_consistency(self):
        core = semiclassical_dft(64, 1)
        rng = np.random.default_rng(65)
        left = rng.random(64) < 0.4
        right = rng.random(64) < 0.4
        rows, cols = np.flatnonzero(left), np.flatnonzero(right)
        matvec, rmatvec = core.restricted(rows, cols)
        u = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
        v = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        assert abs(np.vdot(v, matvec(u)) - np.vdot(rmatvec(v), u)) < 1e-10


def digit_support(p, digit_sets):
    """Increasing indices sum_j d_j p^j with d_j in digit_sets[j] (digit 0 the units)."""
    values = np.zeros(1, dtype=np.int64)
    for j, digits in enumerate(digit_sets):
        values = (np.asarray(digits)[:, None] * p ** j + values[None, :]).reshape(-1)
    return np.sort(values)


def product_support(N, axes):
    """Increasing flat indices of the product of per-axis index sets on the N^n grid."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sort(np.ravel_multi_index([g.reshape(-1) for g in grids], (N,) * len(axes)))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def assert_plan_matches_submatrix(core, rows, cols, rng):
    plan = _PrunedDft.build(core, rows, cols)
    assert plan is not None
    sub = core.submatrix(rows, cols)
    x = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
    y = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    assert rel_err(plan.apply(x), sub @ x) <= 1e-12
    assert rel_err(plan.adjoint(y), sub.conj().T @ y) <= 1e-12


def random_digit_sets(rng, p, k):
    return [np.sort(rng.choice(p, int(rng.integers(1, p + 1)), replace=False))
            for _ in range(k)]


def tuple_support(p, n, level_sets):
    """Increasing flat indices of the cells of the (p^k)^n grid whose base-p digit
    tuple at level j lies in level_sets[j] (level 0 the units)."""
    coords = np.zeros((1, n), dtype=np.int64)
    for j, tuples in enumerate(level_sets):
        coords = (np.asarray(tuples)[:, None, :] * p ** j + coords[None]).reshape(-1, n)
    return np.sort(np.ravel_multi_index(coords.T, (p ** len(level_sets),) * n))


def corner(p, n):
    """The origin and (p-1) e_i on every axis: no product of per-axis digit sets."""
    return np.vstack([np.zeros((1, n), dtype=np.int64), (p - 1) * np.eye(n, dtype=np.int64)])


def diagonal(p, n):
    return np.repeat(np.arange(p)[:, None], n, axis=1)


def random_tuple_sets(rng, p, n, k, first):
    """``first`` at level 0, then random nonempty sets of tuples in {0..p-1}^n."""
    cube = np.stack(np.unravel_index(np.arange(p ** n), (p,) * n), axis=1)
    return [first] + [cube[np.sort(rng.choice(p ** n, int(rng.integers(1, p ** n + 1)),
                                              replace=False))] for _ in range(k - 1)]


# (p, n, k_max) of the joint-digit cases, bases 2, 3 and 5 in two and three
# dimensions; every grid has at most 1024 cells, so dense blocks stay small
JOINT_CASES = ((2, 2, 5), (3, 2, 3), (5, 2, 2), (2, 3, 3), (3, 3, 2), (5, 3, 1))


class TestPrunedDft:
    """The pruned map, built directly (no cost rule), against independent oracles."""

    def test_cantor_set_matches_submatrix(self):
        rng = np.random.default_rng(70)
        for k in range(1, 9):
            rows = np.flatnonzero(cantor_mask(k))
            assert_plan_matches_submatrix(FourierCore(3 ** k, 1), rows, rows, rng)

    def test_two_dimensional_product_matches_submatrix(self):
        rng = np.random.default_rng(71)
        for k in range(1, 6):
            rows = np.flatnonzero(cantor_mask(k, 2))
            assert_plan_matches_submatrix(FourierCore(3 ** k, 2), rows, rows, rng)

    def test_unequal_digit_sets_on_the_two_sides(self):
        rng = np.random.default_rng(72)
        for k in range(1, 9):
            rows = digit_support(3, [(1,)] * k)
            cols = digit_support(3, [(0, 2)] * k)
            assert_plan_matches_submatrix(FourierCore(3 ** k, 1), rows, cols, rng)
            rows = digit_support(3, random_digit_sets(rng, 3, k))
            cols = digit_support(3, random_digit_sets(rng, 3, k))
            assert_plan_matches_submatrix(FourierCore(3 ** k, 1), rows, cols, rng)
        for k in range(1, 5):
            N = 3 ** k
            rows = product_support(N, [digit_support(3, random_digit_sets(rng, 3, k))
                                       for _ in range(2)])
            cols = product_support(N, [digit_support(3, random_digit_sets(rng, 3, k))
                                       for _ in range(2)])
            assert_plan_matches_submatrix(FourierCore(N, 2), rows, cols, rng)

    def test_base_two_and_base_five(self):
        rng = np.random.default_rng(73)
        for k in range(1, 9):
            for _ in range(3):
                rows = digit_support(2, random_digit_sets(rng, 2, k))
                cols = digit_support(2, random_digit_sets(rng, 2, k))
                assert_plan_matches_submatrix(FourierCore(2 ** k, 1), rows, cols, rng)
        for k in range(1, 4):
            rows = digit_support(5, random_digit_sets(rng, 5, k))
            cols = digit_support(5, random_digit_sets(rng, 5, k))
            assert_plan_matches_submatrix(FourierCore(5 ** k, 1), rows, cols, rng)

    def test_matches_masked_fft_up_to_3_to_the_10(self):
        rng = np.random.default_rng(74)
        for k in range(1, 11):
            N = 3 ** k
            rows = np.flatnonzero(cantor_mask(k))
            plan = _PrunedDft.build(FourierCore(N, 1), rows, rows)
            x = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
            u = np.zeros(N, dtype=complex)
            u[rows] = x
            assert rel_err(plan.apply(x), np.fft.fft(u)[rows] / math.sqrt(N)) <= 1e-12
            assert rel_err(plan.adjoint(x), np.fft.ifft(u)[rows] * math.sqrt(N)) <= 1e-12

    def test_lanczos_on_the_pruned_map_matches_dense(self, monkeypatch):
        # an unbounded FFT cost makes every digit-product support take the pruned map
        monkeypatch.setattr(fup_numerics, "_fft_work", lambda size: math.inf)

        def no_fft(self, u):
            raise AssertionError("the pruned map must not call the ambient FFT")

        monkeypatch.setattr(FourierCore, "apply", no_fft)
        monkeypatch.setattr(FourierCore, "adjoint", no_fft)
        for k in range(3, 8):
            rows = np.flatnonzero(cantor_mask(k))
            op = MaskedOperator(FourierCore(3 ** k, 1), rows, rows)
            info = masked_norm(op, seed=k)
            assert info.converged
            dense = dense_norm(op)
            assert abs(info.value - dense) <= 1e-12 * dense, k

    def test_pruned_and_fft_norms_agree(self, monkeypatch):
        pruned = {}
        for n, k in ((1, 9), (1, 10), (2, 5)):
            rows = np.flatnonzero(cantor_mask(k, n))
            op = MaskedOperator(FourierCore(3 ** k, n), rows, rows)
            pruned[n, k] = masked_norm(op, seed=3)
        monkeypatch.setattr(fup_numerics, "_fft_work", lambda size: 0.0)
        for (n, k), fast in pruned.items():
            rows = np.flatnonzero(cantor_mask(k, n))
            op = MaskedOperator(FourierCore(3 ** k, n), rows, rows)
            slow = masked_norm(op, seed=3)
            assert abs(fast.value - slow.value) <= 1e-12 * slow.value
            assert fast.iters == slow.iters

    def test_cost_rule_keeps_small_points_on_the_fft(self, monkeypatch):
        calls = []
        fft = FourierCore.apply
        monkeypatch.setattr(FourierCore, "apply", lambda self, u: calls.append(1) or fft(self, u))
        for n, k, expect_fft in ((1, 8, True), (1, 9, False), (2, 3, True), (2, 4, False)):
            rows = np.flatnonzero(cantor_mask(k, n))
            matvec, _ = FourierCore(3 ** k, n).restricted(rows, rows)
            calls.clear()
            matvec(np.ones(rows.size, dtype=complex))
            assert bool(calls) is expect_fft, (n, k)

    def test_non_product_supports_decline(self):
        k = 6
        N = 3 ** k
        core = FourierCore(N, 1)
        cantor = cantor_mask(k)
        thick = np.flatnonzero(thicken_mask(cantor, round(N ** 0.1), 1))
        box = np.flatnonzero(resample_mask(BoxSet.from_boxes([([0.1], [0.4])], N, 1), N))
        rows = np.flatnonzero(cantor)
        assert _PrunedDft.build(core, thick, thick) is None
        assert _PrunedDft.build(core, box, box) is None
        assert _PrunedDft.build(core, rows, box) is None
        assert _PrunedDft.build(core, rows[::-1], rows) is None
        assert _PrunedDft.build(core, rows, rows) is not None
        # N = 6^3 is no prime power, even on a full digit product
        full = np.arange(216)
        assert _PrunedDft.build(FourierCore(216, 1), full, full) is None
        # in 2-D the cells (0, 0) and (4, 4) of the 9 x 9 grid have level tuples
        # {(0, 0), (1, 1)} at both levels, whose product holds four cells
        pair = np.array([0, 40])
        assert _PrunedDft.build(FourierCore(9, 2), pair, pair) is None

    def test_joint_digit_sets_match_submatrix(self):
        # non-product tuple sets, unequal on the two sides
        rng = np.random.default_rng(76)
        for p, n, k_max in JOINT_CASES:
            for k in range(1, k_max + 1):
                rows = tuple_support(p, n, random_tuple_sets(rng, p, n, k, corner(p, n)))
                cols = tuple_support(p, n, random_tuple_sets(rng, p, n, k, diagonal(p, n)))
                assert_plan_matches_submatrix(FourierCore(p ** k, n), rows, cols, rng)

    def test_joint_digit_sets_match_masked_fftn_up_to_3_to_the_5_squared(self):
        rng = np.random.default_rng(77)
        for k in range(1, 6):
            N = 3 ** k
            rows = tuple_support(3, 2, [corner(3, 2)] * k)
            cols = tuple_support(3, 2, [diagonal(3, 2)[:2]] + [corner(3, 2)] * (k - 1))
            plan = _PrunedDft.build(FourierCore(N, 2), rows, cols)
            assert plan is not None
            x = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
            y = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
            u = np.zeros(N * N, dtype=complex)
            u[cols] = x
            want = np.fft.fftn(u.reshape(N, N)).reshape(-1)[rows] / N
            assert rel_err(plan.apply(x), want) <= 1e-12, k
            v = np.zeros(N * N, dtype=complex)
            v[rows] = y
            want = np.fft.ifftn(v.reshape(N, N)).reshape(-1)[cols] * N
            assert rel_err(plan.adjoint(y), want) <= 1e-12, k

    def test_lanczos_on_joint_digit_sets_matches_dense(self, monkeypatch):
        monkeypatch.setattr(fup_numerics, "_fft_work", lambda size: math.inf)

        def no_fft(self, u):
            raise AssertionError("the pruned map must not call the ambient FFT")

        monkeypatch.setattr(FourierCore, "apply", no_fft)
        monkeypatch.setattr(FourierCore, "adjoint", no_fft)
        rng = np.random.default_rng(78)
        for p, n, k in JOINT_CASES:
            rows = tuple_support(p, n, random_tuple_sets(rng, p, n, k, corner(p, n)))
            cols = tuple_support(p, n, [diagonal(p, n)] * k)
            op = MaskedOperator(FourierCore(p ** k, n), rows, cols)
            info = masked_norm(op, seed=k)
            assert info.converged and info.iters > 0
            dense = dense_norm(op)
            assert abs(info.value - dense) <= 1e-12 * dense, (p, n, k)


class TestArcCantorMask:
    def test_arcs_are_exact_cantor_sets(self):
        cfg = FupConfig(core="log_phase")
        for k in range(3, 10):
            J = 4 * 3 ** k
            grid = circle_grid(J)
            for lo, hi in (cfg.arc_minus, cfg.arc_plus):
                first = round(lo * J)
                expect = np.zeros(J, dtype=bool)
                expect[first:first + 3 ** k] = cantor_mask(k)
                got = _arc_cantor_mask(cfg, (lo, hi), grid)
                assert np.array_equal(got, expect), (k, lo)
                assert got.sum() == 2 ** k


class TestResampleMask:
    def test_identity(self):
        x = cantor_generate(CantorSpec.uniform(3, (0, 2), 3, 1), 1)
        assert np.array_equal(resample_mask(x, 27), x.mask)

    def test_refine_and_coarsen(self):
        x = cantor_generate(CantorSpec.uniform(3, (0, 2), 2, 1), 1)
        fine = resample_mask(x, 27)
        assert fine.sum() == 3 * x.occupied_count
        coarse = resample_mask(x, 3)
        assert np.array_equal(coarse, np.array([True, False, True]))

    def test_non_divisible_against_overlap_oracle(self):
        # target cell j overlaps source cell a on an axis when a/m < (j+1)/N and
        # (a+1)/m > j/N; divisible and non-divisible (n, m, N) share one rule
        rng = np.random.default_rng(75)
        sets = [cantor_generate(CantorSpec.uniform(3, (0, 2), 3, 1), 1)]
        sets += [BoxSet(n, m, rng.random((m,) * n) < 0.3)
                 for n, m in ((1, 10), (1, 12), (2, 6), (2, 9), (3, 4))]
        for x in sets:
            m, n = x.m, x.n
            for N in sorted({1, 2, 3, 5, 7, m // 2 or 1, m, 2 * m, 3 * m + 1}):
                out = resample_mask(x, N)
                occ = np.argwhere(x.mask)[None, :, :]
                cells = np.argwhere(np.ones((N,) * n, dtype=bool))[:, None, :]
                overlap = (occ * N < (cells + 1) * m) & ((occ + 1) * N > cells * m)
                assert np.array_equal(out, overlap.all(axis=2).any(axis=1)), (n, m, N)


class TestBetaFit:
    def test_exact_power_law(self):
        hs = [2.0 ** (-k) for k in range(4, 10)]
        fit = beta_fit([(h, h ** 0.5) for h in hs])
        assert abs(fit.beta - 0.5) < 1e-12
        assert fit.residual < 1e-12

    def test_constant_norms(self):
        hs = [2.0 ** (-k) for k in range(4, 9)]
        fit = beta_fit([(h, 0.37) for h in hs])
        assert abs(fit.beta) < 1e-12

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            beta_fit([(0.1, 0.5), (0.05, 0.4), (0.025, 0.3)])

    def test_nonpositive_norms_rejected(self):
        with pytest.raises(ValueError):
            beta_fit([(0.1, 0.5), (0.05, 0.0), (0.025, 0.3), (0.0125, 0.2)])


class TestGeneralPhaseFio:
    def test_linear_phase_recovers_dft(self):
        N = 27
        h = 1.0 / N
        phi = lambda x, y: -2.0 * np.pi * np.sum(x * y, axis=-1)
        amp = lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        core = general_phase_fio(phi, amp, N, 1, h)
        dft = semiclassical_dft(N, 1)
        full = np.arange(N)
        assert np.max(np.abs(core.matrix - dft.submatrix(full, full))) < 1e-8

    def test_zero_amplitude_gives_zero_operator(self):
        phi = lambda x, y: np.sum(x * y, axis=-1)
        amp = lambda x, y: np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        core = general_phase_fio(phi, amp, 9, 1, 1.0 / 9)
        assert np.max(np.abs(core.matrix)) == 0.0

    def test_adjoint_consistency(self):
        phi = lambda x, y: -2.0 * np.pi * np.sum(x * y, axis=-1) + 0.3 * np.sum(y * y, axis=-1)
        amp = lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        core = general_phase_fio(phi, amp, 16, 1, 1.0 / 16)
        rng = np.random.default_rng(66)
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert abs(np.vdot(v, core.apply(u)) - np.vdot(core.adjoint(v), u)) < 1e-10


class TestLogPhaseKernel:
    def test_zero_cutoff_zero_operator(self):
        grid = circle_grid(32)
        chi = lambda y, yp: np.zeros(np.broadcast_shapes(y.shape[:-1], yp.shape[:-1]))
        core = log_phase_kernel(1.0, 1 / 32, chi, grid)
        assert np.max(np.abs(core.matrix)) == 0.0

    def test_magnitude_independent_of_w(self):
        grid = circle_grid(64)
        chi = chordal_cutoff(0.4, 0.3)
        h = 1 / 64
        mags = [np.abs(log_phase_kernel(w, h, chi, grid).matrix) for w in (1 / 8, 1.0, 8.0)]
        assert np.max(np.abs(mags[0] - mags[1])) < 1e-14
        assert np.max(np.abs(mags[1] - mags[2])) < 1e-14
        expected = (2 * np.pi * h) ** (-0.5) \
            * chi(grid.points[:, None, :], grid.points[None, :, :]) * grid.weights[None, :]
        assert np.max(np.abs(mags[1] - expected)) < 1e-14

    def test_cutoff_must_vanish_near_diagonal(self):
        grid = circle_grid(32)
        chi = lambda y, yp: np.ones(np.broadcast_shapes(y.shape[:-1], yp.shape[:-1]))
        with pytest.raises(ValueError):
            log_phase_kernel(1.0, 1 / 32, chi, grid)

    def test_masked_operator_matches_full_kernel(self):
        grid = circle_grid(96)
        chi = chordal_cutoff(0.4, 0.3)
        rng = np.random.default_rng(67)
        left = rng.random(96) < 0.3
        right = rng.random(96) < 0.3
        full = log_phase_kernel(2.0, 0.05, chi, grid)
        rows, cols = np.flatnonzero(left), np.flatnonzero(right)
        op_full = MaskedOperator(full, rows, cols)
        op_sub = log_phase_masked_operator(2.0, 0.05, chi, grid, rows, cols)
        assert abs(dense_norm(op_full) - dense_norm(op_sub)) < 1e-12

    def test_submatrix_core_answers_only_its_own_supports(self):
        grid = circle_grid(96)
        rows, cols = np.arange(0, 96, 3), np.arange(1, 96, 4)
        core = log_phase_masked_operator(2.0, 0.05, chordal_cutoff(0.4, 0.3), grid,
                                         rows, cols).core
        assert core.submatrix(rows.copy(), cols.copy()) is core.block
        others = [(rows[1:], cols), (rows, cols[:-1]), (cols, rows), (rows, rows),
                  (np.arange(96), np.arange(96))]
        for r, c in others:
            with pytest.raises(ValueError, match="own supports"):
                core.submatrix(r, c)

    def test_kernel_vanishing_on_the_arcs_gives_norm_zero(self):
        cfg = FupConfig(core="log_phase", n=1, ladder=(108,), chi_gap=2.0)
        rows, fits, ok = fup_experiment(cfg)
        assert ok and rows[0]["converged"] and rows[0]["norm"] == 0.0

    def test_decay_for_every_energy(self):
        cfg = FupConfig(core="log_phase", n=1, ladder=(108, 324, 972, 2916),
                        w_list=(1 / 8, 1.0, 8.0))
        rows, fits, ok = fup_experiment(cfg)
        assert ok
        for w in (1 / 8, 1.0, 8.0):
            assert fits[w].beta > 0


class TestSmoothStep:
    def test_endpoints(self):
        assert smooth_step(np.array([-1.0]))[0] == 0.0
        assert smooth_step(np.array([2.0]))[0] == 1.0

    def test_monotone(self):
        t = np.linspace(-0.5, 1.5, 101)
        s = smooth_step(t)
        assert np.all(np.diff(s) >= -1e-15)


class TestMixedHessian:
    def test_linear_phase_constant_determinant(self):
        phi = lambda y, yp: -2.0 * np.pi * float(np.dot(y, yp))
        for pts in ((np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                    (np.array([0.3, -0.4, 1.1]), np.array([1.0, 0.2, 0.0]))):
            d = mixed_hessian_det(phi, pts[0], pts[1], 1e-4)
            m = pts[0].shape[0]
            assert abs(d - (-2.0 * np.pi) ** m) < 1e-6 * (2 * np.pi) ** m

    def test_antipodal_circle_value(self):
        w = 1.0
        phi = lambda y, yp: 2 * w * math.log(np.linalg.norm(y - yp)) - w * math.log(4.0)
        fd = mixed_hessian_det(phi, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1e-5)
        _, struct, sym = log_phase_hessian_factors(w, np.array([1.0, 0.0]),
                                                   np.array([-1.0, 0.0]))
        assert np.max(np.abs(struct - np.array([[2.0, 0.0], [0.0, -2.0]]))) < 1e-14
        assert abs(sym - (-0.25)) < 1e-14
        assert abs(fd - sym) <= 1e-4 * abs(sym)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fd_matches_symbolic_on_random_pairs(self, n):
        rng = np.random.default_rng(68)
        checked = 0
        while checked < 100:
            a = rng.standard_normal(n + 1)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(n + 1)
            b /= np.linalg.norm(b)
            if np.linalg.norm(a - b) < 0.1:
                continue
            w = float(rng.uniform(0.25, 4.0))
            phi = lambda u, v: 2 * w * math.log(np.linalg.norm(u - v)) - w * math.log(4.0)
            fd = mixed_hessian_det(phi, a, b, 1e-5)
            _, _, sym = log_phase_hessian_factors(w, a, b)
            assert abs(fd - sym) <= 1e-4 * abs(sym)
            assert abs(sym) > 0
            checked += 1

    def test_matrix_determinant_lemma_identity(self):
        rng = np.random.default_rng(69)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            v = rng.standard_normal(m)
            lam = float(rng.uniform(0.5, 3.0))
            b = -lam * np.eye(m)
            direct = np.linalg.det(np.outer(v, v) + b)
            mdl = (1.0 + v @ np.linalg.inv(b) @ v) * np.linalg.det(b)
            assert abs(direct - mdl) <= 1e-10 * max(1.0, abs(direct))

    def test_coincident_points_rejected(self):
        phi = lambda y, yp: float(np.dot(y, yp))
        with pytest.raises(ValueError):
            mixed_hessian_det(phi, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    @staticmethod
    def per_entry_det(phi, y, yprime, fd_step):
        """The former per-entry loop of mixed_hessian_det, kept as its reference."""
        m = y.shape[0]
        hess = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                ei = np.zeros(m)
                ej = np.zeros(m)
                ei[i] = fd_step
                ej[j] = fd_step
                hess[i, j] = (phi(y + ei, yprime + ej) - phi(y + ei, yprime - ej)
                              - phi(y - ei, yprime + ej) + phi(y - ei, yprime - ej)) \
                    / (4.0 * fd_step * fd_step)
        return float(np.linalg.det(hess))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_shared_stencil_equals_the_per_entry_loop(self, m):
        rng = np.random.default_rng(m)
        phases = [lambda u, v: math.sin(float(u @ v)) + float(u[0]) * float(v[-1]) ** 2,
                  lambda u, v: 1.7 * math.log(float(np.linalg.norm(u - v))) - 0.2]
        for _ in range(20):
            y, yp = rng.standard_normal((2, m))
            y[0] = -0.0                      # a signed zero the +-0.0 displacements keep
            for phi in phases:
                for step in (1e-5, 1e-3, 0.25):
                    assert mixed_hessian_det(phi, y, yp, step) == \
                        self.per_entry_det(phi, y, yp, step)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stacked_log_phase_equals_the_scalar_lambda(self, m):
        rng = np.random.default_rng(70 + m)
        y, yp = rng.standard_normal((2, 25, m))
        w = rng.uniform(0.01, 300.0, 25)
        for step in (1e-5, 1e-3):
            got = _log_phase_fd_dets(w, y, yp, step)
            for p in range(25):
                phi = lambda u, v, w=float(w[p]): \
                    2 * w * math.log(float(np.linalg.norm(u - v))) - w * math.log(4.0)
                assert got[p] == mixed_hessian_det(phi, y[p], yp[p], step)

    def test_stencil_refusals_are_shared(self):
        y = np.array([[1.0, 0.0], [0.6, 0.8]])
        with pytest.raises(ValueError, match="distinct points"):
            _log_phase_fd_dets(np.ones(2), y, np.array([[0.0, 1.0], [0.6, 0.8]]), 1e-5)
        for fn in (lambda s: mixed_hessian_det(lambda u, v: 0.0, y[0], y[1], s),
                   lambda s: _log_phase_fd_dets(np.ones(2), y, y[::-1], s)):
            with pytest.raises(ValueError, match=r"fd_step 1e-300 squared underflows to zero"):
                fn(1e-300)


class TestSphereAtlas:
    def test_circle_roundtrip_and_coverage(self):
        atlas = SphereAtlas.for_circle(8)
        rng = np.random.default_rng(70)
        th = rng.uniform(0, 2 * np.pi, 500)
        pts = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert atlas.covers(pts)
        y = np.array([math.cos(0.31), math.sin(0.31)])
        s = atlas.project(0, y)
        assert np.max(np.abs(atlas.unproject(0, s) - y)) < 1e-12

    def test_sphere2_roundtrip_and_coverage(self):
        atlas = SphereAtlas.for_sphere2()
        rng = np.random.default_rng(71)
        pts = rng.standard_normal((2000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert atlas.covers(pts)
        y = atlas.unproject(7, np.array([0.2, -0.1]))
        assert np.max(np.abs(atlas.unproject(7, atlas.project(7, y)) - y)) < 1e-12

    def test_chart_center_maps_to_origin(self):
        atlas = SphereAtlas.for_sphere2()
        assert np.max(np.abs(atlas.project(5, atlas.centers[5]))) < 1e-14

    def test_great_circles_map_to_lines(self):
        atlas = SphereAtlas.for_sphere2()
        k = 11
        c = atlas.centers[k]
        u = atlas.frames[k][0] * 0.6 + atlas.frames[k][1] * 0.8
        ss = []
        for t in (-0.3, 0.04, 0.27):
            y = math.cos(t) * c + math.sin(t) * u
            ss.append(atlas.project(k, y))
        v1, v2 = ss[1] - ss[0], ss[2] - ss[0]
        assert abs(v1[0] * v2[1] - v1[1] * v2[0]) < 1e-10

    def test_bilipschitz_bounds(self):
        rng = np.random.default_rng(72)
        for atlas, k in ((SphereAtlas.for_circle(8), 0), (SphereAtlas.for_sphere2(), 3)):
            c2 = atlas.measured_bilipschitz(k, rng)
            assert c2 <= 2.0
            # plane distances dominate sphere distances on the chart
            s_max = math.tan(atlas.radius)
            a = rng.uniform(-s_max / 2, s_max / 2, size=(200, atlas.n))
            b = rng.uniform(-s_max / 2, s_max / 2, size=(200, atlas.n))
            ya, yb = atlas.unproject(k, a), atlas.unproject(k, b)
            ang = np.arccos(np.clip(np.sum(ya * yb, axis=1), -1, 1))
            assert np.all(ang <= np.linalg.norm(a - b, axis=1) + 1e-12)

    def test_single_point_matches_a_batch_holding_it(self):
        rng = np.random.default_rng(73)
        for atlas, k in ((SphereAtlas.for_circle(8), 2), (SphereAtlas.for_sphere2(), 7)):
            s = rng.uniform(-0.4, 0.4, size=(5, atlas.n))
            y = atlas.unproject(k, s)
            for i in range(5):
                assert np.max(np.abs(atlas.unproject(k, s[i]) - y[i])) <= 1e-15
                assert np.max(np.abs(atlas.project(k, y[i]) - atlas.project(k, y)[i])) <= 1e-15
            assert atlas.project(k, y[0]).shape == (atlas.n,)
            assert atlas.unproject(k, s[0]).shape == (atlas.n + 1,)

    def test_point_outside_chart_rejected(self):
        atlas = SphereAtlas.for_circle(8)
        with pytest.raises(ValueError):
            atlas.project(0, -atlas.centers[0])


class TestSpherePorosity:
    def test_empty_certified(self):
        atlas = SphereAtlas.for_circle(8)
        empty = lambda y: np.zeros(y.shape[0], dtype=bool)
        verdict, reports = sphere_porosity_check(empty, 0.3, 0.3, 0.8, atlas, m=64)
        assert verdict is Verdict.CERTIFIED
        assert len(reports) == atlas.chart_count

    def test_full_counterexample(self):
        atlas = SphereAtlas.for_circle(8)
        full = lambda y: np.ones(y.shape[0], dtype=bool)
        verdict, _ = sphere_porosity_check(full, 0.2, 0.3, 0.8, atlas, m=128)
        assert verdict is Verdict.COUNTEREXAMPLE

    def test_cantor_band_consistent_across_charts(self):
        # a porous arc of angles (kept away from the wrap point, where the
        # glued copies would genuinely lose porosity): no chart may refute it
        atlas = SphereAtlas.for_circle(8)
        base = cantor_generate(CantorSpec.uniform(3, (0, 2), 4, 1), 1)
        lo, hi = 0.1, 0.35

        def oracle(y):
            ang = (np.arctan2(y[:, 1], y[:, 0]) / (2 * np.pi)) % 1.0
            inside = (ang >= lo) & (ang < hi)
            frac = np.clip((ang - lo) / (hi - lo), 0.0, 1.0 - 1e-12)
            idx = (frac * base.m).astype(int)
            return inside & base.mask[idx]

        verdict, reports = sphere_porosity_check(oracle, 0.1, 0.45, 0.9, atlas, m=128,
                                                 kind="ball")
        assert verdict in (Verdict.CERTIFIED, Verdict.INCONCLUSIVE)
        assert all(r.verdict is not Verdict.COUNTEREXAMPLE for r in reports)


class TestThickenMask:
    def test_zero_radius_is_identity(self):
        m = cantor_mask(3)
        assert np.array_equal(thicken_mask(m, 0, 1), m)

    def test_radius_one_dilates_neighbors(self):
        mask = np.zeros(27, dtype=bool)
        mask[13] = True
        out = thicken_mask(mask, 1, 1)
        assert set(np.flatnonzero(out)) == {12, 13, 14}


class TestFupExperiment:
    def test_full_masks_flat_ladder(self):
        full = BoxSet.full(1, 3)
        cfg = FupConfig(core="fourier", n=1, ladder=(27, 81, 243, 729),
                        set_minus=full, set_plus=full)
        rows, fits, ok = fup_experiment(cfg)
        assert ok
        assert all(abs(r["norm"] - 1.0) <= 1e-10 for r in rows)
        assert abs(fits[None].beta) < 1e-8

    def test_cantor_ladder_decays_monotonically(self):
        cfg = FupConfig(core="fourier", n=1, ladder=(27, 81, 243, 729, 2187),
                        lower_bound_mode=True)
        rows, fits, ok = fup_experiment(cfg)
        assert ok
        norms = [r["norm"] for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))
        assert fits[None].beta > 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            FupConfig(core="nonsense").validate()
        with pytest.raises(ValueError):
            FupConfig(rho=1.5).validate()

    def test_thickened_point_at_27_is_ok_on_a_seed_that_once_stalled(self):
        cfg = FupConfig(core="fourier", n=1, ladder=(27,), rho=0.9, seed=143667987)
        rows, fits, ok = fup_experiment(cfg)
        assert ok and rows[0]["converged"]

    def test_two_dimensional_grid(self):
        cfg = FupConfig(core="fourier", n=2, ladder=(9, 27))
        rows, fits, ok = fup_experiment(cfg)
        assert ok
        assert rows[0]["norm"] <= 1 + 1e-10


class TestSphere2Porosity:
    def test_great_circle_cantor_band_consistent_across_charts(self):
        # line verdicts agree across the (overlapping) charts that see the band
        atlas = SphereAtlas.for_sphere2()
        base = cantor_generate(CantorSpec.uniform(3, (0, 2), 3, 1), 1)

        def oracle(y):
            theta = (np.arctan2(y[:, 1], y[:, 0]) / (2 * np.pi)) % 1.0
            inside = (np.abs(y[:, 2]) <= 0.05) & (theta >= 0.1) & (theta < 0.35)
            frac = np.clip((theta - 0.1) / 0.25, 0.0, 1.0 - 1e-12)
            idx = (frac * base.m).astype(int)
            return inside & base.mask[idx]

        verdict, reports = sphere_porosity_check(oracle, 0.08, 0.85, 1.0, atlas,
                                                 m=128, kind="line", directions=6)
        assert verdict is Verdict.CERTIFIED
        assert all(r.verdict is Verdict.CERTIFIED for r in reports)

    def test_full_sphere_refuted(self):
        atlas = SphereAtlas.for_sphere2()
        full = lambda y: np.ones(y.shape[0], dtype=bool)
        verdict, _ = sphere_porosity_check(full, 0.2, 0.85, 1.0, atlas, m=128,
                                           kind="ball")
        assert verdict is Verdict.COUNTEREXAMPLE


class TestConfigValidation:
    def test_log_phase_requires_circle_grids(self):
        with pytest.raises(ValueError):
            FupConfig(core="log_phase", n=2).validate()

    @pytest.mark.parametrize("cfg", [
        FupConfig(ladder=(0, 3, 9, 27)),
        FupConfig(core="log_phase", ladder=(0, 1, 2, 3)),
        FupConfig(ladder=(2, 4)),
        FupConfig(cantor_base=5, ladder=(25, 27)),
        FupConfig(cantor_base=1, ladder=(1, 1)),
    ])
    def test_ladder_values_that_no_family_can_take(self, cfg):
        with pytest.raises(ValueError, match="ladder values"):
            cfg.validate()

    def test_explicit_sets_and_log_phase_take_any_ladder_from_2(self):
        box = BoxSet.from_boxes([((0.0,), (1.0,))], 8, 1)
        FupConfig(ladder=(2, 4, 10), set_minus=box, set_plus=box).validate()
        FupConfig(core="log_phase", ladder=(2, 100)).validate()

    @pytest.mark.parametrize("ladder", [(108, 324, 972, 2916),
                                        tuple(4 * 3 ** k for k in range(3, 9))])
    def test_energies_of_the_log_phase_ladders_are_resolved(self, ladder):
        FupConfig(core="log_phase", ladder=ladder, w_list=(1 / 8, 1.0, 8.0)).validate()

    def test_energy_whose_phase_rounding_exceeds_a_microradian(self):
        # (2w/h) log(2/chi_gap) 2^-52 crosses 1e-6 rad between these two energies at J = 2916
        limit = 1e-6 / (2 * 2916 * math.log(2 / 0.4) * 2.0 ** -52)
        FupConfig(core="log_phase", ladder=(108, 2916), w_list=(0.99 * limit,)).validate()
        with pytest.raises(ValueError, match="rounds the log phase"):
            FupConfig(core="log_phase", ladder=(108, 2916), w_list=(1.01 * limit,)).validate()

    def test_explicit_set_of_another_dimension(self):
        s = BoxSet.from_boxes([((0.1,), (0.4,))], 27, 1)
        with pytest.raises(ValueError, match="set_minus has n = 1, but the config has n = 2"):
            fup_experiment(FupConfig(core="fourier", n=2, ladder=(27,), set_minus=s, set_plus=s))

    @pytest.mark.parametrize("core, field, value", [
        ("log_phase", "set_minus", BoxSet.from_boxes([((0.1,), (0.4,))], 27, 1)),
        ("log_phase", "set_plus", BoxSet.from_boxes([((0.1,), (0.4,))], 27, 1)),
        ("log_phase", "lower_bound_mode", True),
        ("fourier", "w_list", (0.5, 2.0)),
        ("fourier", "chi_gap", 0.2),
        ("fourier", "chi_width", 0.1),
        ("fourier", "arc_minus", (0.25, 0.5)),
        ("fourier", "arc_plus", (0.25, 0.5)),
    ])
    def test_field_that_the_core_never_reads(self, core, field, value):
        with pytest.raises(ValueError, match=f"the {core} core does not read {field}"):
            fup_experiment(FupConfig(core=core, n=1, ladder=(27,), **{field: value}))
