import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from fuplab.fup_numerics import (
    DecayFit,
    FourierCore,
    FupConfig,
    KernelCore,
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
    _log_phase_operator,
    _log_phase_fd_dets,
)
from fuplab import fup_numerics, porosity
from fuplab.fup_numerics import _PrunedDft
from fuplab.porosity import BoxSet, CantorSpec, Verdict, cantor_generate


def cantor_mask(depth, n=1):
    return cantor_generate(CantorSpec.uniform(3, (0, 2), depth, n), n).mask.reshape(-1)


def prime_power(N):
    """(p, k) with N = p^k and p prime, or None, by trial division: the rule that
    _smallest_root replaced, kept as its reference on prime powers."""
    if N < 2:
        return None
    p = next((d for d in range(2, math.isqrt(N) + 1) if N % d == 0), N)
    k, m = 0, N
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


class TestSmallestRoot:
    def test_prime_powers_keep_their_prime_and_exponent(self):
        for N in range(2, 10 ** 5):
            pk = prime_power(N)
            if pk is not None:
                assert fup_numerics._smallest_root(N) == pk, N

    @pytest.mark.parametrize("N, root", [
        (216, (6, 3)), (4 ** 5, (2, 10)), (60, (60, 1)), (10 ** 18, (10, 18)),
        (3 ** 39, (3, 39)), (2 ** 62, (2, 62)), ((2 ** 31 - 1) ** 2, (2 ** 31 - 1, 2)),
    ])
    def test_composite_roots_and_the_int64_range(self, N, root):
        assert fup_numerics._smallest_root(N) == root


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

    def test_rough_sizes_are_grids(self):
        # N = 77 = 7 * 11, a size that once was refused; its Gram products are
        # spectral convolutions, complex and real
        core = semiclassical_dft(77, 1)
        rng = np.random.default_rng(63)
        a, b = np.flatnonzero(rng.random(77) < 0.5), np.flatnonzero(rng.random(77) < 0.2)
        mirror = np.arange(10, 41)          # its own mirror image about 25: a real Gram
        for rows, cols in ((a, b), (b, a), (mirror, b), (b, mirror)):
            assert _PrunedDft.build(core, rows, cols,
                                    budget=fup_numerics._fft_work(core.size)) is None
            product, dtype = core.gram(rows, cols)
            assert (dtype is float) == (rows is mirror or cols is mirror)
            gram = core.gram_matrix(rows, cols)
            g = rng.standard_normal(gram.shape[0])
            if dtype is complex:
                g = g + 1j * rng.standard_normal(gram.shape[0])
            assert np.max(np.abs(product(g) - gram @ g)) < 1e-13

    def test_submatrix_matches_apply(self):
        core = semiclassical_dft(27, 1)
        rows = np.array([1, 5, 20])
        cols = np.array([0, 13])
        sub = core.submatrix(rows, cols)
        for jj, c in enumerate(cols):
            e = np.zeros(27, dtype=complex)
            e[c] = 1.0
            assert np.max(np.abs(core.apply(e)[rows] - sub[:, jj])) < 1e-14


class TestFourierCoreTransforms:
    @pytest.mark.parametrize("n, sizes", [(1, (2, 3, 27, 60, 243, 1024, 3 ** 9)),
                                          (2, (2, 9, 27, 60, 64, 81)), (3, (3, 9, 16))])
    def test_apply_and_adjoint_are_numpy_fftn(self, n, sizes):
        rng = np.random.default_rng(59)
        for N in sizes:
            core = FourierCore(N, n)
            u = rng.standard_normal(N ** n) + 1j * rng.standard_normal(N ** n)
            grid = u.reshape((N,) * n)
            for got, want in ((core.apply(u), np.fft.fftn(grid) * N ** (-n / 2)),
                              (core.adjoint(u), np.fft.ifftn(grid) * N ** (n / 2))):
                want = want.reshape(-1)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (n, N)

    def test_spectral_gram_gives_the_dense_gram_on_every_call(self):
        # at N = 60 the cost rule keeps the FFT, so every product scatters into one
        # reused buffer
        core = FourierCore(60, 1)
        rng = np.random.default_rng(58)
        a, b = np.flatnonzero(rng.random(60) < 0.5), np.flatnonzero(rng.random(60) < 0.3)
        side = min(a.size, b.size)
        for rows, cols in ((a, b), (b, a)):
            product, dtype = core.gram(rows, cols)
            assert dtype is complex
            gram = core.gram_matrix(rows, cols)
            for _ in range(3):
                g = rng.standard_normal(side) + 1j * rng.standard_normal(side)
                assert np.max(np.abs(product(g) - gram @ g)) < 1e-13


class TestDenseNorm:
    @pytest.mark.parametrize("kind", ["random", "rank-one", "zero"])
    def test_agrees_with_the_largest_singular_value(self, kind):
        rng = np.random.default_rng(57)
        a, b = (rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40)))
        matrix = {"random": rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)),
                  "rank-one": np.outer(a, b.conj()), "zero": np.zeros((40, 40), complex)}[kind]
        core = KernelCore(matrix)
        shapes = {"tall": (np.arange(40), np.arange(3, 40, 7)),
                  "wide": (np.arange(0, 40, 9), np.arange(40)),
                  "square": (np.arange(40), np.arange(40)), "single": (np.array([5]), np.arange(40))}
        for name, (rows, cols) in shapes.items():
            want = np.linalg.svd(matrix[np.ix_(rows, cols)], compute_uv=False)[0]
            got = dense_norm(MaskedOperator(core, rows, cols))
            assert abs(got - want) <= 1e-13 * want, (kind, name)


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

    def test_no_convergence_is_reported_not_raised(self):
        # at rho = 0.7 and N = 2187 the top of the Gram spectrum is a near-continuum
        # just under 1, and Lanczos reaches its cap: the value is a Ritz lower bound
        op = fup_numerics._grid_operator(FupConfig(rho=0.7), 2187)
        info = masked_norm(op)
        assert not info.converged and math.isfinite(info.value)
        assert info.iters == 2 * fup_numerics._M_MAX
        assert info.value <= dense_norm(op) * (1 + 1e-12)
        assert info.dense_value == dense_norm(op)
        rows, fits, ok = fup_experiment(FupConfig(rho=0.7, ladder=(2187,)))
        assert not ok and rows[0]["converged"] is False

    @pytest.mark.parametrize("N", [243, 729])
    def test_a_clustered_top_of_the_spectrum_converges(self, N):
        # 43 and 15 eigenvalues of these Grams lie within 1e-12 of the top
        op = fup_numerics._grid_operator(FupConfig(rho=0.7), N)
        info = masked_norm(op)
        assert info.converged
        assert abs(info.value - dense_norm(op)) <= 1e-13 * dense_norm(op)

    def test_an_unconverged_value_is_checked_against_the_dense_value(self, monkeypatch):
        op = fup_numerics._grid_operator(FupConfig(), 729)
        monkeypatch.setattr(fup_numerics, "_M_MAX", 8)
        info = masked_norm(op)
        assert not info.converged and info.value <= info.dense_value
        exact = FourierCore.gram

        def doubled(core, rows, cols):
            product, dtype = exact(core, rows, cols)
            return (lambda g: 2.0 * product(g)), dtype
        monkeypatch.setattr(FourierCore, "gram", doubled)
        with pytest.raises(ArithmeticError, match="converged=False"):
            masked_norm(op)

    def test_a_vanishing_operator_stops_at_the_first_step(self):
        info = masked_norm(MaskedOperator(KernelCore(np.zeros((40, 40), complex)),
                                          np.arange(40), np.arange(40)))
        assert info.value == 0.0 and info.converged and info.iters == 2

    def test_the_cantor_norm_at_3_12_is_pinned(self):
        # the value before the Ritz-value stop rule replaced ARPACK; a run cut
        # after 8 steps misses it by more than 1e-14
        op = fup_numerics._grid_operator(FupConfig(), 3 ** 12)
        want = float.fromhex("0x1.6033dbf796aeap-2")
        assert abs(masked_norm(op).value - want) <= 1e-14 * want

    def test_the_top_ritz_value_meets_the_dense_check_at_rho_09(self):
        # the second Ritz value lies far below the top of this spectrum
        op = fup_numerics._grid_operator(FupConfig(rho=0.9), 2187)
        info = masked_norm(op)
        assert info.converged and info.dense_value is not None
        assert abs(info.value - info.dense_value) <= 1e-13 * info.dense_value

    @pytest.mark.parametrize("cfg, iters", [
        (FupConfig(ladder=(3 ** 10,)), 82),
        (FupConfig(ladder=(3 ** 12,)), 82),
        (FupConfig(rho=0.9, ladder=(3 ** 7,)), 182),
        (FupConfig(rho=0.9, ladder=(3 ** 10,)), 142),
        (FupConfig(core="log_phase", ladder=(4 * 3 ** 8,), w_list=(8.0,)), 142),
    ], ids=["cantor-3^10", "cantor-3^12", "rho-3^7", "rho-3^10", "log-w8-26244"])
    def test_no_more_products_than_arpack_took(self, cfg, iters):
        # the iters that ARPACK's eigsh(k=1, tol=0) took on these points
        rows, fits, ok = fup_experiment(cfg)
        assert ok and rows[0]["iters"] <= iters

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

    def test_gram_is_self_adjoint(self):
        core = semiclassical_dft(64, 1)
        rng = np.random.default_rng(65)
        left = rng.random(64) < 0.4
        right = rng.random(64) < 0.4
        a, b = np.flatnonzero(left), np.flatnonzero(right)
        for rows, cols in ((a, b), (b, a)):
            product, _ = core.gram(rows, cols)
            side = min(rows.size, cols.size)
            x = rng.standard_normal(side) + 1j * rng.standard_normal(side)
            y = rng.standard_normal(side) + 1j * rng.standard_normal(side)
            assert abs(np.vdot(product(x), y) - np.vdot(x, product(y))) < 1e-10


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


def forbid_ambient_fft(monkeypatch):
    """Make every scipy.fft transform that FourierCore reaches raise, so a product
    that touches the ambient grid fails (FourierCore imports them at call time)."""
    import scipy.fft

    def no_fft(*args, **kwargs):
        raise AssertionError("the pruned map must not call the ambient FFT")

    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, no_fft)


def assert_plan_matches_submatrix(core, rows, cols, rng, tol=1e-12):
    plan = _PrunedDft.build(core, rows, cols)
    assert plan is not None
    sub = core.submatrix(rows, cols)
    x = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
    y = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    assert rel_err(plan.apply(x), sub @ x) <= tol
    assert rel_err(plan.adjoint(y), sub.conj().T @ y) <= tol


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

    @pytest.mark.parametrize("p", [6, 7, 10, 12])
    def test_bases_6_7_10_and_12_match_submatrix(self, p):
        # radix p itself, composite or a prime that was no grid; digit sets of at
        # most 3 digits keep the dense blocks small
        rng = np.random.default_rng(80 + p)

        def digits(k):
            return [np.sort(rng.choice(p, int(rng.integers(1, 4)), replace=False))
                    for _ in range(k)]

        for n, k_max in ((1, 4), (2, 3)):
            for k in range(1, k_max + 1):
                N = p ** k
                rows, cols = (product_support(N, [digit_support(p, digits(k)) for _ in range(n)])
                              for _ in range(2))
                for a, b in ((rows, cols), (cols, rows)):
                    assert_plan_matches_submatrix(FourierCore(N, n), a, b, rng, tol=1e-13)
                    assert len(_PrunedDft.build(FourierCore(N, n), a, b).forward) == k

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
        forbid_ambient_fft(monkeypatch)
        for k in range(3, 8):
            rows = np.flatnonzero(cantor_mask(k))
            op = MaskedOperator(FourierCore(3 ** k, 1), rows, rows)
            info = masked_norm(op, seed=k)
            assert info.converged
            dense = dense_norm(op)
            assert abs(info.value - dense) <= 1e-12 * dense, k

    def test_pruned_and_fft_norms_agree(self, monkeypatch):
        pruned = {}
        with monkeypatch.context() as patch:
            forbid_ambient_fft(patch)
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

    def test_cost_rule_keeps_small_points_on_the_fft(self):
        for n, k, expect_fft in ((1, 8, True), (1, 9, False), (2, 3, True), (2, 4, False)):
            rows = np.flatnonzero(cantor_mask(k, n))
            core = FourierCore(3 ** k, n)
            plan = _PrunedDft.build(core, rows, rows, budget=fup_numerics._fft_work(core.size))
            assert (plan is None) is expect_fft, (n, k)

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
        # N = 6^3 takes radix 6, so the full grid is a digit product
        full = np.arange(216)
        assert _PrunedDft.build(FourierCore(216, 1), full, full) is not None
        # in 2-D the cells (0, 0) and (4, 4) of the 9 x 9 grid have level tuples
        # {(0, 0), (1, 1)} at both levels, whose product holds four cells
        pair = np.array([0, 40])
        assert _PrunedDft.build(FourierCore(9, 2), pair, pair) is None

    @pytest.mark.parametrize("N", [60000, 1000003])
    def test_a_block_past_the_cap_declines(self, N):
        # N is no perfect power, so a plan is one dense |rows| x |cols| block:
        # under the cost rule it is taken up to 2^18 entries, past them the
        # FFT is
        core = FourierCore(N, 1)
        rng = np.random.default_rng(N % 1000)
        for side, planned in ((512, True), (513, False), (11000, False)):
            box = np.arange(100, 100 + side)
            plan = _PrunedDft.build(core, box, box, budget=fup_numerics._fft_work(N))
            assert (plan is not None) is planned, side
        box = np.arange(100, 612)
        assert_plan_matches_submatrix(core, box, box, rng)

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
        forbid_ambient_fft(monkeypatch)
        rng = np.random.default_rng(78)
        for p, n, k in JOINT_CASES:
            rows = tuple_support(p, n, random_tuple_sets(rng, p, n, k, corner(p, n)))
            cols = tuple_support(p, n, [diagonal(p, n)] * k)
            op = MaskedOperator(FourierCore(p ** k, n), rows, cols)
            info = masked_norm(op, seed=k)
            assert info.converged and info.iters > 0
            dense = dense_norm(op)
            assert abs(info.value - dense) <= 1e-12 * dense, (p, n, k)


def gram_oracle(core, rows, cols, g):
    """D* G (D g) from the block A = submatrix(rows, cols): G = A^H A on cols
    when |rows| >= |cols|, else A A^H on rows, and D = e(+-<c, x>/N) on that
    side with c the mirror centre of the other support, 2c = lo + hi per axis."""
    N, shape = core.N, (core.N,) * core.n
    side, other, sign = (cols, rows, 1) if rows.size >= cols.size else (rows, cols, -1)
    at = np.stack(np.unravel_index(other, shape), axis=1)
    centre = (at.min(axis=0) + at.max(axis=0)) // 2
    d = np.exp(sign * 2j * np.pi * ((np.stack(np.unravel_index(side, shape), axis=1) @ centre)
                                    % N) / N)
    block = core.submatrix(rows, cols)
    gram = block.conj().T @ block if sign > 0 else block @ block.conj().T
    return d.conj() * (gram @ (d * g))


def symmetric_pairs():
    """(label, core, rows, cols) whose smaller side's partner is mirror-symmetric
    about an integer point: Cantor sets, rho = 0.9 thickenings and products,
    in 1-D and 2-D, in both orientations."""
    pairs = []
    for n, k in ((1, 5), (1, 9), (2, 3), (2, 4)):
        N = 3 ** k
        cantor = cantor_mask(k, n)
        thick = thicken_mask(cantor, round(N ** 0.1), n)
        c, t = np.flatnonzero(cantor), np.flatnonzero(thick)
        pairs += [(f"cantor n={n} k={k}", FourierCore(N, n), c, c),
                  (f"cantor/thick n={n} k={k}", FourierCore(N, n), c, t)]
    N = 27
    axes = [digit_support(3, [(0, 2), (1,), (0, 1, 2)]), digit_support(3, [(0, 2)] * 3)]
    wide = product_support(N, axes)
    pairs += [("product 2-D", FourierCore(N, 2), wide, product_support(N, axes[::-1])),
              ("product/cantor 2-D", FourierCore(N, 2), np.flatnonzero(cantor_mask(3, 2)), wide)]
    return pairs + [(label + " transposed", core, cols, rows)
                    for label, core, rows, cols in pairs if rows.size != cols.size]


class TestGram:
    """The real Gram operator of mirror-symmetric Fourier supports."""

    @pytest.mark.parametrize("path", ["pruned", "fft"])
    def test_real_gram_is_the_phased_gram_of_the_block(self, monkeypatch, path):
        monkeypatch.setattr(fup_numerics, "_fft_work",
                            lambda size: math.inf if path == "pruned" else 0.0)
        rng = np.random.default_rng(80)
        for label, core, rows, cols in symmetric_pairs():
            with monkeypatch.context() as patch:
                if path == "pruned" and "thick" not in label:     # thickenings have no plan
                    forbid_ambient_fft(patch)
                product, dtype = core.gram(rows, cols)
                g = rng.standard_normal(min(rows.size, cols.size))
                got = product(g)
            assert dtype is float, label
            want = gram_oracle(core, rows, cols, g)
            assert got.dtype == np.float64 and got.shape == g.shape, label
            assert np.max(np.abs(want.imag)) <= 1e-13 * np.max(np.abs(want)), label
            assert rel_err(got, want.real) <= 1e-13, label

    @pytest.mark.parametrize("p, k, digits", [(4, 2, (0, 3)), (4, 3, (0, 3)), (5, 3, (0, 1, 3)),
                                              (5, 3, (0, 1, 4))])
    def test_half_integer_centres_and_asymmetric_sets_stay_complex(self, p, k, digits):
        # base 4 {0, 3}: the centre (N - 1)/2 is a half-integer; base 5 {0, 1, 3}
        # and {0, 1, 4} (whose extremes have an even sum) are no mirror images
        support = digit_support(p, [digits] * k)
        op = MaskedOperator(FourierCore(p ** k, 1), support, support)
        assert op.core.gram(support, support)[1] is complex
        dense = dense_norm(op)
        for seed in range(3):
            info = masked_norm(op, seed=seed)
            assert info.converged and abs(info.value - dense) <= 1e-12 * dense, seed

    def test_symmetric_families_match_dense_over_forty_seeds(self):
        families = []
        for n, k in ((1, 6), (2, 3)):
            N = 3 ** k
            cantor = cantor_mask(k, n)
            thick = thicken_mask(cantor, round(N ** 0.1), n)
            families += [(FourierCore(N, n), np.flatnonzero(m), np.flatnonzero(m))
                         for m in (cantor, thick)]
        for core, rows, cols in families:
            assert core.gram(rows, cols)[1] is float
            dense = dense_norm(MaskedOperator(core, rows, cols))
            for seed in range(40):
                info = masked_norm(MaskedOperator(core, rows, cols), seed=seed)
                assert info.converged, (core, seed)
                assert abs(info.value - dense) <= 1e-12 * dense, (core, seed)

    @pytest.mark.parametrize("k", [9, 10])
    def test_unequal_supports_above_the_dense_limit(self, monkeypatch, k):
        # masked_norm cross-checks nothing at these sizes, so dense_norm is called
        # here; both orientations, on the pruned plan (digit products only) and
        # on the real FFT
        N = 3 ** k
        core = FourierCore(N, 1)
        assert core.size > fup_numerics._DENSE_LIMIT
        cantor = np.flatnonzero(cantor_mask(k))
        pairs = {"digits": (cantor, digit_support(3, [(0, 1, 2)] * 2 + [(0, 2)] * (k - 2))),
                 "thickened": (cantor, np.flatnonzero(thicken_mask(cantor_mask(k), 1, 1)))}
        for name, (small, large) in pairs.items():
            # the DFT matrix is symmetric, so both orientations have this norm
            dense = dense_norm(MaskedOperator(core, small, large))
            for path in ("pruned", "fft"):
                with monkeypatch.context() as patch:
                    patch.setattr(fup_numerics, "_fft_work",
                                  lambda size: math.inf if path == "pruned" else 0.0)
                    if path == "pruned" and name == "digits":
                        forbid_ambient_fft(patch)
                    for rows, cols in ((small, large), (large, small)):
                        assert core.gram(rows, cols)[1] is float
                        info = masked_norm(MaskedOperator(core, rows, cols), seed=k)
                        assert info.converged and info.dense_value is None
                        assert abs(info.value - dense) <= 1e-12 * dense, (name, path, rows.size)


def exp_block(core, rows, cols):
    """The DFT block from np.exp of every phase, the reference for the table."""
    shape = (core.N,) * core.n
    a = np.stack(np.unravel_index(rows, shape), axis=1)
    b = np.stack(np.unravel_index(cols, shape), axis=1)
    return np.exp(-2j * np.pi * ((a @ b.T) % core.N) / core.N) * core.N ** (-core.n / 2)


def exp_gram(core, rows, cols):
    """The complex Gram matrix of exp_block on the smaller side: B B* on rows
    when |rows| <= |cols|, else B* B on cols."""
    block = exp_block(core, rows, cols)
    return block @ block.conj().T if rows.size <= cols.size else block.conj().T @ block


def exp_dense_norm(core, rows, cols):
    """The dense norm of exp_gram by LAPACK's subset driver."""
    gram = exp_gram(core, rows, cols)
    top = scipy.linalg.eigh(gram, eigvals_only=True, subset_by_index=[gram.shape[0] - 1] * 2)[0]
    return math.sqrt(max(float(top), 0.0))


def dense_pairs():
    """symmetric_pairs (both orientations) plus full masks, whose real Gram
    matrix is the identity."""
    pairs = symmetric_pairs()
    for N, n in ((27, 1), (81, 1), (9, 2)):
        full = np.arange(N ** n)
        pairs.append((f"full {N}^{n}", FourierCore(N, n), full, full))
    return pairs


class TestGramMatrix:
    """The dense Gram matrix of the cross-check, against the block of np.exp."""

    @pytest.mark.parametrize("N, n", [(27, 1), (2187, 1), (3125, 1), (4096, 1), (27, 2),
                                      (64, 2), (9, 3), (16, 3)])
    def test_table_built_submatrix_is_the_exp_formula_bit_for_bit(self, N, n):
        rng = np.random.default_rng(N + n)
        core = FourierCore(N, n)
        for count in (1, 7, min(core.size, 300)):
            rows = np.sort(rng.choice(core.size, count, replace=False))
            cols = np.sort(rng.choice(core.size, min(core.size, 250), replace=False))
            assert np.array_equal(core.submatrix(rows, cols), exp_block(core, rows, cols))

    def test_real_gram_matrix_is_the_phased_gram_of_the_block(self):
        for label, core, rows, cols in dense_pairs():
            t, s, sign = (rows, cols, -1) if rows.size <= cols.size else (cols, rows, 1)
            shape = (core.N,) * core.n
            centre = fup_numerics._mirror_centre(s, shape)
            assert centre is not None, label
            k = core.gram_matrix(rows, cols)
            assert k.dtype == np.float64 and k.shape == (t.size, t.size), label
            phase = (np.stack(np.unravel_index(t, shape), axis=1) @ centre) % core.N
            d = np.exp(sign * 2j * np.pi * phase / core.N)
            want = d.conj()[:, None] * exp_gram(core, rows, cols) * d[None, :]
            assert np.max(np.abs(want.imag)) <= 1e-13, label
            assert np.max(np.abs(k - want.real)) <= 1e-13, label
            if label.startswith("full"):
                assert np.max(np.abs(k - np.eye(t.size))) <= 1e-13, label
                assert abs(dense_norm(MaskedOperator(core, rows, cols)) - 1.0) <= 1e-14, label

    @pytest.mark.parametrize("p, k, digits", [(4, 2, (0, 3)), (4, 3, (0, 3)), (4, 5, (0, 3)),
                                              (5, 3, (0, 1, 3)), (5, 4, (0, 1, 3))])
    def test_half_integer_centres_and_asymmetric_sets_take_the_complex_gram(self, p, k, digits):
        support = digit_support(p, [digits] * k)
        wider = digit_support(p, [digits] * (k - 1) + [range(p)])
        core = FourierCore(p ** k, 1)
        for rows, cols in ((support, support), (support, wider), (wider, support)):
            assert np.iscomplexobj(core.gram_matrix(rows, cols))
            assert dense_norm(MaskedOperator(core, rows, cols)) == exp_dense_norm(core, rows, cols)


    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_sides_below_3_take_the_complex_gram(self, k):
        # there dense_norm gives the norm that masked_norm returns, no cross-check
        core = FourierCore(3 ** k, 1)
        cantor = np.flatnonzero(cantor_mask(k))
        for rows, cols in ((cantor, cantor[:1]), (cantor, cantor[-1:]), (cantor[-2:], cantor),
                           (cantor[:2], cantor[:2])):
            assert np.iscomplexobj(core.gram_matrix(rows, cols))
            value = dense_norm(MaskedOperator(core, rows, cols))
            assert value == exp_dense_norm(core, rows, cols)
            assert masked_norm(MaskedOperator(core, rows, cols)).value == value


def gram_with_a_shifted_spectrum(core, rows, cols):
    """FourierCore.gram's real FFT product with its spectrum moved by one cell."""
    from scipy.fft import irfftn, rfftn
    t, s = (cols, rows) if rows.size >= cols.size else (rows, cols)
    shape = (core.N,) * core.n
    centre = fup_numerics._mirror_centre(s, shape)
    spectrum = np.zeros(shape, dtype=bool)
    spectrum[tuple((np.stack(np.unravel_index(s, shape)) - centre[:, None] + 1) % core.N)] = True
    half = spectrum[..., :core.N // 2 + 1].astype(np.float64)

    def product(g):
        u = np.zeros(core.size)
        u[t] = g
        return irfftn(rfftn(u.reshape(shape)) * half, s=shape).reshape(-1)[t]
    return product, float


def gram_matrix_without_sin_rows(core, rows, cols):
    """FourierCore.gram_matrix's real K from the cos rows of M alone."""
    t, s = (rows, cols) if rows.size <= cols.size else (cols, rows)
    shape = (core.N,) * core.n
    centre = fup_numerics._mirror_centre(s, shape)
    a = np.stack(np.unravel_index(s, shape), axis=1) - centre
    x = np.stack(np.unravel_index(t, shape), axis=1)
    m = np.cos(2 * np.pi * ((a @ x.T) % core.N) / core.N) * core.N ** (-core.n / 2)
    return m.T @ m


def gram_matrix_without_a_conjugate(core, rows, cols):
    """The complex Gram matrix of the block with B^T in place of B*."""
    block = core.submatrix(rows, cols)
    return block @ block.T if rows.size <= cols.size else block.T @ block


class TestCrossCheckFails:
    """Each route's cross-check raises on a broken copy of the other's Gram."""

    @pytest.mark.parametrize("base, kept, N, method, broken", [
        (3, (0, 2), 729, "gram", gram_with_a_shifted_spectrum),
        (3, (0, 2), 2187, "gram_matrix", gram_matrix_without_sin_rows),
        (5, (0, 1, 3), 625, "gram_matrix", gram_matrix_without_a_conjugate),
    ], ids=["shifted-spectrum", "no-sin-rows", "no-conjugate"])
    def test_a_broken_gram_raises_at_a_thickened_point(self, monkeypatch, base, kept, N, method,
                                                      broken):
        cfg = FupConfig(core="fourier", n=1, ladder=(N,), cantor_base=base, cantor_kept=kept,
                        rho=0.9)
        op = fup_numerics._grid_operator(cfg, N)
        assert op.size <= fup_numerics._DENSE_LIMIT
        real = fup_numerics._mirror_centre(op.cols, (N,)) is not None
        assert real == (base == 3)
        info = masked_norm(op)
        assert info.converged and info.dense_value is not None
        monkeypatch.setattr(FourierCore, method, broken)
        with pytest.raises(ArithmeticError, match="disagrees with dense norm"):
            masked_norm(op)


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

    @pytest.mark.parametrize("base, kept", [(3, (0, 2)), (4, (0, 3)), (5, (0, 1, 2, 3)),
                                            (7, (0, 3, 6))])
    def test_kept_bound_holds_the_thickened_support(self, base, kept):
        # the budget's count bound is never below the nodes the run keeps
        for J in sorted({4 * base ** k for k in range(1, 6)} | {97, 1000, 4096}):
            for rho in (None, 0.5, 0.7, 1.0):
                for arc in ((0.0, 0.25), (0.5, 0.75), (0.1, 0.9), (0.0, 1.0), (0.33, 0.34)):
                    cfg = FupConfig(core="log_phase", cantor_base=base, cantor_kept=kept,
                                    ladder=(J,), rho=rho)
                    mask = _arc_cantor_mask(cfg, arc, circle_grid(J))
                    if rho is not None:
                        mask = thicken_mask(mask, fup_numerics._thickening_nodes(rho, J), 1)
                    bound = fup_numerics._arc_kept_bound(cfg, arc, J)
                    assert mask.sum() <= bound, (J, rho, arc)


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

    @pytest.mark.parametrize("hs", [[1 / 27] * 4, [1 / 27, 1 / 27, 1 / 81, 1 / 243, 1 / 243]])
    def test_fewer_than_four_distinct_scales_rejected(self, hs):
        with pytest.raises(ValueError, match="4 distinct h"):
            beta_fit([(h, 0.5 + k) for k, h in enumerate(hs)])

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
        core = log_phase_kernel(1.0, 1 / 32, np.zeros_like, grid)
        assert np.max(np.abs(core.matrix)) == 0.0

    def test_magnitude_independent_of_w(self):
        grid = circle_grid(64)
        chi = chordal_cutoff(0.4, 0.3)
        h = 1 / 64
        mags = [np.abs(log_phase_kernel(w, h, chi, grid).matrix) for w in (1 / 8, 1.0, 8.0)]
        assert np.max(np.abs(mags[0] - mags[1])) < 1e-14
        assert np.max(np.abs(mags[1] - mags[2])) < 1e-14
        d = np.linalg.norm(grid.points[:, None, :] - grid.points[None, :, :], axis=-1)
        expected = (2 * np.pi * h) ** (-0.5) * chi(d) * grid.weights[None, :]
        assert np.max(np.abs(mags[1] - expected)) < 1e-14

    def test_cutoff_must_vanish_near_diagonal(self):
        grid = circle_grid(32)
        with pytest.raises(ValueError):
            log_phase_kernel(1.0, 1 / 32, np.ones_like, grid)

    @pytest.mark.parametrize("k", range(3, 7))
    @pytest.mark.parametrize("rho", [None, 0.7])
    def test_circle_block_is_the_pairwise_chord_block(self, k, rho):
        # The moduli agree to 1e-12.  The phase (2w/h) log(d/2) turns a chord
        # that differs by a few ulps (the pairwise norm against the row's
        # 2 |sin|) into a phase difference up to 2w/h times that: allow 8 ulps.
        J = 4 * 3 ** k
        pairwise = dataclasses.replace(circle_grid(J), chords=None)
        for w in (1 / 8, 1.0, 8.0):
            op = _log_phase_operator(FupConfig(core="log_phase", ladder=(J,), w_list=(w,),
                                               rho=rho), w, J)
            want = log_phase_masked_operator(w, 1 / J, chordal_cutoff(0.4, 0.3), pairwise,
                                             op.rows, op.cols).core.block
            got = op.core.block
            assert np.array_equal(got == 0, want == 0)
            assert np.all(np.abs(np.abs(got) - np.abs(want)) <= 1e-12 * np.abs(want)), (J, w)
            phase_ulps = 8 * 2.0 ** -52 * 2 * w * J
            assert np.all(np.abs(got - want) <= (1e-12 + phase_ulps) * np.abs(want)), (J, w)

    def test_the_diagonal_check_reads_only_the_pairs_of_the_block(self):
        # a cutoff that is 1 at chords below 0.3 (index gaps up to 4), the diagonal included
        chi = lambda d: (d < 0.3).astype(float)
        grid = circle_grid(96)
        for g in (grid, dataclasses.replace(grid, chords=None)):
            with pytest.raises(ValueError, match="near the diagonal"):
                log_phase_masked_operator(1.0, 1 / 96, chi, g, np.arange(0, 10), np.arange(9, 20))
            block = log_phase_masked_operator(1.0, 1 / 96, chi, g, np.arange(0, 10),
                                              np.arange(10, 20)).core.block
            assert np.count_nonzero(block) == 1 + 2 + 3 + 4

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
        # chords are at most 2, so this cutoff vanishes on every pair; validate
        # refuses it in a config, and the operator built from it has norm 0
        cfg = FupConfig(core="log_phase", n=1, ladder=(108,), chi_gap=2.0)
        info = masked_norm(_log_phase_operator(cfg, 1.0, 108))
        assert info.converged and info.value == 0.0

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

    @pytest.mark.parametrize("w", [1e300, 1e-300, math.inf])
    def test_determinant_outside_the_float_range_raises(self, w):
        with pytest.raises(ValueError, match="outside the float range"):
            log_phase_hessian_factors(w, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

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


def mask_route_support(cfg, N):
    """The Cantor side of ladder point N made through an ambient mask: per axis
    a Kronecker power of the kept digits, across the axes their outer product,
    thickened when cfg.rho is set, then flattened to indices."""
    keep = np.zeros(cfg.cantor_base, dtype=bool)
    keep[list(cfg.cantor_kept)] = True
    axis = keep
    for _ in range(round(math.log(N, cfg.cantor_base)) - 1):
        axis = (axis[:, None] & keep[None, :]).reshape(-1)
    mask = axis
    for _ in range(cfg.n - 1):
        mask = mask[..., None] & axis
    mask = mask.reshape(-1)
    if cfg.rho is not None:
        mask = thicken_mask(mask, int(round(N ** (1.0 - cfg.rho))), cfg.n)
    return np.flatnonzero(mask)


class TestLadderSupports:
    @pytest.mark.parametrize("cfg, ladder", [
        (FupConfig(), [3 ** k for k in range(1, 13)]),
        (FupConfig(n=2), [3 ** k for k in range(1, 7)]),
        (FupConfig(rho=0.9), [3 ** k for k in range(2, 11)]),
        (FupConfig(cantor_base=5, cantor_kept=(0, 2, 4)), [5 ** k for k in range(1, 7)]),
        (FupConfig(cantor_base=5, cantor_kept=(0, 2, 4), n=2), [5, 25, 125]),
    ], ids=["cantor", "product", "rho", "base-5", "base-5-product"])
    def test_supports_are_those_of_the_mask_route(self, cfg, ladder):
        for N in ladder:
            op = fup_numerics._grid_operator(cfg, N)
            want = mask_route_support(cfg, N)
            for got in (op.rows, op.cols):
                assert got.dtype == want.dtype and np.array_equal(got, want), N

    def test_an_unthickened_point_builds_no_cantor_mask(self, monkeypatch):
        def no_mask(*args, **kwargs):
            raise AssertionError("an unthickened ladder point must not build a Cantor mask")

        monkeypatch.setattr(porosity, "cantor_generate", no_mask)
        monkeypatch.setattr(fup_numerics, "cantor_generate", no_mask)
        for cfg in (FupConfig(ladder=(27, 81, 243, 729), lower_bound_mode=True),
                    FupConfig(n=2, ladder=(9, 27, 81))):
            rows, _, ok = fup_experiment(cfg)
            assert ok and len(rows) == len(cfg.ladder)


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
        FupConfig(ladder=(27, 27, 27, 27)),             # a decay fit needs distinct scales
        FupConfig(core="log_phase", ladder=(27, 81, 243, 81)),
    ])
    def test_ladder_values_that_no_family_can_take(self, cfg):
        with pytest.raises(ValueError, match="ladder values"):
            cfg.validate()

    @pytest.mark.parametrize("cfg, message", [
        (FupConfig(cantor_base=2, ladder=(2, 4, 8, 16)), "base must be >= 3"),
        (FupConfig(cantor_kept=(0, 1, 2), ladder=(3, 9, 27, 81)),
         "kept digits must be a proper nonempty subset"),
        (FupConfig(core="log_phase", cantor_base=2, ladder=(108, 324)), "base must be >= 3"),
        (FupConfig(ladder=(27, 81), cantor_base=2, set_minus=BoxSet.full(1, 27)),
         "base must be >= 3"),                                   # set_plus still reads it
    ])
    def test_cantor_family_that_the_run_would_refuse(self, cfg, message):
        # refused by validate itself, not at the first ladder point
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("cfg, message", [
        (FupConfig(ladder=(3 ** 19,)), "the Cantor family's support and level blocks take 524288"),
        (FupConfig(n=2, ladder=(3 ** 10,)), "the Cantor family's support"),
        (FupConfig(cantor_base=601, cantor_kept=tuple(range(600)), ladder=(601,)),
         "the Cantor family's support"),                        # one level block of 600^2
        (FupConfig(cantor_kept=(2,), ladder=(3 ** 20,)), "DFT phases overflow int64 in 1-D"),
        (FupConfig(cantor_kept=(2,), n=3, ladder=(3 ** 14,)), "overflow int64 in 3-D"),
        (FupConfig(cantor_base=4, cantor_kept=(0, 3), ladder=(4 ** 12,)), "a raster of"),
        (FupConfig(n=2, ladder=(3 ** 8,), rho=0.9), r"a raster of 6561\^2 cells"),
        (FupConfig(core="log_phase", ladder=(4 * 3 ** 14,)),
         "a circle grid of 19131876 nodes is over the budget"),
        (FupConfig(core="log_phase", cantor_base=5, cantor_kept=(0, 1, 2, 3),
                   ladder=(4 * 5 ** 7,)),                     # a grid of 312500 nodes
         "a kernel block of up to 16384 x 16384 entries"),
        (FupConfig(core="log_phase", ladder=(4 * 3 ** 12,), rho=0.5), "a kernel block"),
    ])
    def test_ladder_point_past_a_budget(self, cfg, message):
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("cfg", [
        FupConfig(ladder=(3 ** 18,)),
        FupConfig(n=2, ladder=(3 ** 9,)),
        FupConfig(cantor_kept=(2,), ladder=(3 ** 19,)),
        FupConfig(cantor_base=6, cantor_kept=(0, 5), ladder=(6 ** 8,)),
        FupConfig(cantor_base=6, cantor_kept=(0, 5), ladder=(6 ** 10,)),
        FupConfig(ladder=(3 ** 14,), rho=0.9),
        FupConfig(core="log_phase", ladder=(4 * 3 ** 13,)),
        # thickened by 7 nodes, 1024 kept nodes an arc overlap to about 5250
        FupConfig(core="log_phase", ladder=(4 * 3 ** 10,), rho=0.7),
    ])
    def test_ladder_point_within_the_budgets(self, cfg):
        cfg.validate()

    def test_cantor_family_is_not_checked_when_both_sets_are_explicit(self):
        box = BoxSet.full(1, 8)
        FupConfig(ladder=(2, 4), cantor_base=2, set_minus=box, set_plus=box).validate()

    @pytest.mark.parametrize("arc", [(0.5, 0.5), (0.9, 0.2), (-0.1, 0.5), (0.5, 1.5),
                                     (0.1, math.nan), (0.1, math.inf), (0.1,)])
    @pytest.mark.parametrize("field", ["arc_minus", "arc_plus"])
    def test_log_phase_arc_that_is_not_an_arc(self, field, arc):
        with pytest.raises(ValueError, match=f"{field} must be two numbers 0 <= lo < hi <= 1"):
            FupConfig(core="log_phase", ladder=(108, 324), **{field: arc}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("chi_width", -0.3, "chi_width must be a finite number > 0"),
        ("chi_width", 0.0, "chi_width must be a finite number > 0"),
        ("chi_width", math.inf, "chi_width must be a finite number > 0"),
        ("chi_width", math.nan, "chi_width must be a finite number > 0"),
        ("chi_gap", 2.5, r"chi_gap must lie in \[0, 2\)"),
        ("chi_gap", 2.0, r"chi_gap must lie in \[0, 2\)"),
        ("chi_gap", -0.1, r"chi_gap must lie in \[0, 2\)"),
        ("chi_gap", math.nan, r"chi_gap must lie in \[0, 2\)"),
    ])
    def test_log_phase_cutoff_that_vanishes_everywhere_or_divides_by_zero(self, field, value,
                                                                          message):
        # chords are at most 2; such cutoffs used to give zero norms and "sanity pass"
        with pytest.raises(ValueError, match=message):
            FupConfig(core="log_phase", ladder=(108, 324), **{field: value}).validate()

    def test_log_phase_arcs_may_span_the_circle(self):
        FupConfig(core="log_phase", ladder=(108, 324), arc_minus=(0.0, 1.0)).validate()

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
