import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fuplab.lorentz_core import (
    _certify,
    _exp_closed,
    _exp_rotation,
    _frame_flows,
    _frame_word_draws,
    _frame_words,
    _normalizer_blocks,
    DecompositionError,
    GroupElement,
    LieAlgebraElement,
    LorentzError,
    NormalizerKind,
    bracket,
    conjugation_normalizer_member,
    embed_standard_subgroup,
    exp_flow,
    frame_basis,
    generator,
    geodesic_flow,
    horospherical_element,
    is_group_element,
    kan_decompose,
    ku_member,
    ku_member_by_conjugation,
    minkowski_inner,
    minkowski_matrix,
    normalizer_decompose,
    normalizer_member,
    parse_label,
    random_group_element,
    read_group_element,
    standard_subgroup_member,
    write_group_element,
)


def e(i, n):
    v = np.zeros(n + 2)
    v[i] = 1.0
    return v


class TestMinkowskiInner:
    def test_timelike_basis_vector(self):
        assert minkowski_inner(e(0, 2), e(0, 2)) == -1.0

    def test_spacelike_basis_vector(self):
        assert minkowski_inner(e(1, 2), e(1, 2)) == 1.0

    def test_off_diagonal(self):
        assert minkowski_inner(e(0, 2), e(1, 2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(LorentzError):
            minkowski_inner(np.zeros(4), np.zeros(5))


def same_bits(a, b):
    """Equal arrays whose entries also agree in the sign of every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestStackedFlows:
    """The stacked fills, the frame words, geodesic_flow and minkowski_inner give
    each row the float that the per-element call gives."""

    TIMES = [0.0, -0.0, 0.37, -2.5, 4.9, -0.8, 1e-300, 3.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_each_closed_form_row_equals_exp_flow(self, n):
        labels = [y.label for y in frame_basis(n)] + [f"A{k}" for k in range(2, n + 2)]
        for label in labels:
            y = parse_label(label, n)
            stack = _exp_closed(label, n, self.TIMES)
            assert stack.shape == (len(self.TIMES), n + 2, n + 2)
            for row, t in zip(stack, self.TIMES):
                assert same_bits(row, exp_flow(y, t).matrix), (label, t)

    def test_boost_and_rotation_rows_take_math_transcendentals(self):
        # numpy's cosh and sinh differ from math's in the last bit at some times
        n = 3
        t = [float(v) for v in np.random.default_rng(5).uniform(-6.0, 6.0, 400)]
        boosts, rotations = _exp_closed("A3", n, t), _exp_closed("R24", n, t)
        for r, tr in enumerate(t):
            want = np.eye(n + 2)
            want[0, 0] = want[3, 3] = math.cosh(tr)
            want[0, 3] = want[3, 0] = math.sinh(tr)
            assert same_bits(boosts[r], want), tr
            want = np.eye(n + 2)
            want[2, 2] = want[4, 4] = math.cos(tr)
            want[2, 4], want[4, 2] = math.sin(tr), -math.sin(tr)
            assert same_bits(rotations[r], want), tr

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_frame_flows_and_words_equal_the_per_factor_products(self, n):
        rng = np.random.default_rng(n)
        draws = [_frame_word_draws(rng, n) for _ in range(40)]
        picks = np.array([p for p, _ in draws])
        times = np.array([t for _, t in draws])
        basis = frame_basis(n)
        flows = _frame_flows(n, picks[:, 0], times[:, 0])
        words = _frame_words(n, picks, times)
        for r, (p, t) in enumerate(draws):
            assert same_bits(flows[r], exp_flow(basis[p[0]], t[0]).matrix)
            g = GroupElement.identity(n)          # the product as random_frame_word took it
            for k, tk in zip(p, t):
                g = g @ exp_flow(basis[k], tk)
            assert same_bits(words[r], g.matrix)

    def test_random_frame_word_takes_its_draws_in_order(self):
        for n in (1, 3):
            got, want = np.random.default_rng(n), np.random.default_rng(n)
            g = random_group_element(got, n)
            basis = frame_basis(n)
            ref = GroupElement.identity(n)
            for _ in range(5):
                y = basis[int(want.integers(len(basis)))]
                ref = ref @ exp_flow(y, float(want.uniform(-0.8, 0.8)))
            assert same_bits(g.matrix, ref.matrix)
            assert got.integers(1 << 62) == want.integers(1 << 62)

    def test_geodesic_flow_and_minkowski_inner_rows_equal_single_calls(self):
        rng = np.random.default_rng(12)
        frames = np.array([random_group_element(rng, 3).matrix for _ in range(30)])
        x, xi = frames[:, :, 0], frames[:, :, 1]
        t = [float(v) for v in rng.uniform(-5.0, 5.0, 30)]
        y, eta = geodesic_flow(x, xi, t)
        for r in range(30):
            y1, eta1 = geodesic_flow(x[r], xi[r], t[r])
            assert same_bits(y[r], y1) and same_bits(eta[r], eta1)
            c, s = math.cosh(t[r]), math.sinh(t[r])
            assert same_bits(y1, x[r] * c + xi[r] * s) and same_bits(eta1, x[r] * s + xi[r] * c)
        u, v = rng.standard_normal((2, 4, 5, 6))
        pairs = minkowski_inner(u, v)
        assert pairs.shape == (4, 5)
        assert all(pairs[a, b] == minkowski_inner(u[a, b], v[a, b])
                   for a in range(4) for b in range(5))

    def test_stacked_geodesic_flow_refuses_the_first_bad_phase_point(self):
        x = np.array([e(0, 2)] * 3)
        xi = np.array([e(1, 2), 3.0 * e(1, 2), 2.0 * e(1, 2)])
        with pytest.raises(LorentzError) as single:
            geodesic_flow(x[1], xi[1], 0.5)
        with pytest.raises(LorentzError) as stacked:
            geodesic_flow(x, xi, [0.5, 0.5, 0.5])
        assert str(stacked.value) == str(single.value) == \
            "not a unit phase point (residual 8.000e+00)"

    def test_stacked_time_overflow_raises_the_exp_flow_text(self):
        n = 2
        for label, bad in (("X", 800.0), ("A3", -720.5), ("U1+", 1e200), ("U2-", -2e160)):
            y = parse_label(label, n)
            with pytest.raises(LorentzError) as single:
                exp_flow(y, bad)
            with pytest.raises(LorentzError) as stacked:
                _exp_closed(label, n, [0.3, bad, 2.0 * bad])
            assert str(stacked.value) == str(single.value), label
            assert "overflows" in str(single.value)
        basis = [y.label for y in frame_basis(n)]
        picks = np.array([basis.index("U1-"), basis.index("X"), basis.index("U1-")])
        with pytest.raises(LorentzError) as stacked:
            _frame_flows(n, picks, np.array([0.5, 1.0, -1e300]))
        with pytest.raises(LorentzError) as single:
            exp_flow(parse_label("U1-", n), -1e300)
        assert str(stacked.value) == str(single.value)


class TestStackedCertification:
    def test_first_corrupted_frame_raises_its_own_certify_text(self):
        rng = np.random.default_rng(21)
        stack = np.array([random_group_element(rng, 3).matrix for _ in range(6)])
        assert _certify(stack) is stack
        stack[2, 1, 3] += 1e-6                # breaks the form
        stack[4] = -stack[4]                  # flips the time orientation
        with pytest.raises(LorentzError) as single:
            GroupElement.certify(stack[2])
        with pytest.raises(LorentzError) as stacked:
            _certify(stack)
        assert str(stacked.value) == str(single.value)
        assert str(single.value).startswith("matrix is not in SO0(1,n+1): form residual")
        with pytest.raises(LorentzError) as single:
            GroupElement.certify(stack[4])
        with pytest.raises(LorentzError) as stacked:
            _certify(stack[3:])
        assert str(stacked.value) == str(single.value)

    def test_frame_with_a_nan_entry_is_refused(self):
        m = np.eye(4)
        m[2, 3] = np.nan
        with pytest.raises(LorentzError, match="form residual nan"):
            GroupElement.certify(m)
        assert not is_group_element(m)

    def test_frame_whose_form_check_overflows_is_refused_without_a_warning(self):
        big = exp_flow(generator("X", n=2), 700.0).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LorentzError, match="form residual inf"):
                GroupElement.certify(big)
            assert not is_group_element(big)


class TestGroupPredicate:
    def test_identity(self):
        assert is_group_element(np.eye(4))

    def test_time_reversal_rejected(self):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert not is_group_element(m)

    def test_boost_exponential(self):
        m = exp_flow(generator("X", n=2), 1.0).matrix
        j = minkowski_matrix(2)
        assert np.max(np.abs(m.T @ j @ m - j)) < 1e-12
        assert is_group_element(m)


class TestGenerators:
    def test_x_matrix(self):
        x = generator("X", n=2).matrix
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(x, expected)

    def test_uplus_is_minus_a_minus_r(self):
        n = 2
        u1 = generator("U+", 1, n=n).matrix
        a2 = generator("A", 2, n=n).matrix
        r12 = generator("R", 1, 2, n=n).matrix
        assert np.array_equal(u1, -a2 - r12)

    def test_uminus_is_minus_a_plus_r(self):
        n = 3
        u2 = generator("U-", 2, n=n).matrix
        a3 = generator("A", 3, n=n).matrix
        r13 = generator("R", 1, 3, n=n).matrix
        assert np.array_equal(u2, -a3 + r13)

    def test_rotation_two_entries(self):
        r = generator("R", 2, 3, n=2).matrix
        assert np.count_nonzero(r) == 2
        assert r[2, 3] == 1.0 and r[3, 2] == -1.0
        assert np.array_equal(r, -r.T)

    def test_infinitesimal_isometry_invariant(self):
        for el in frame_basis(3):
            assert el.residual() == 0.0

    def test_index_range_errors(self):
        with pytest.raises(LorentzError):
            generator("U+", 3, n=2)
        with pytest.raises(LorentzError):
            generator("A", 1, n=2)
        with pytest.raises(LorentzError):
            generator("R", 3, 2, n=3)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 10])
    def test_every_label_and_comma_form_names_its_generator(self, n):
        planes = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
        gens = (frame_basis(n) + [generator("A", k, n=n) for k in range(2, n + 2)]
                + [generator("R", i, j, n=n) for i, j in planes])
        assert ("R2,10" in [y.label for y in gens]) == (n >= 9)
        for y in gens:
            again = parse_label(y.label, n)
            assert np.array_equal(again.matrix, y.matrix) and again.label == y.label, y.label
        for i, j in planes:
            again = parse_label(f"R{i},{j}", n)
            assert np.array_equal(again.matrix, generator("R", i, j, n=n).matrix), (i, j)

    @pytest.mark.parametrize("label", ["Rx", "Ux+", "R2", "A", "U+", "X1", "R-12", ""])
    def test_a_label_of_no_generator_is_refused(self, label):
        text = re.escape(f"bad generator label {label!r}")
        with pytest.raises(LorentzError, match=text):
            parse_label(label, 2)
        with pytest.raises(LorentzError, match=text):
            exp_flow(LieAlgebraElement(np.zeros((4, 4)), 2, label), 0.5)

    def test_bracket_is_unlabelled(self):
        y, z = generator("X", n=2), generator("U+", 1, n=2)
        assert bracket(y, z).label is None
        assert np.array_equal(exp_flow(bracket(y, z), 0.3).matrix,
                              expm(0.3 * (y.matrix @ z.matrix - z.matrix @ y.matrix)))

    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_frame_basis_is_a_fresh_list_of_frozen_elements(self, dtype):
        first = frame_basis(3, dtype)
        labels = [el.label for el in first]
        matrices = [el.matrix.copy() for el in first]
        assert all(not el.matrix.flags.writeable for el in first)
        first.reverse()
        first.append(generator("A", 2, n=3, dtype=dtype))
        first[0] = None
        second = frame_basis(3, dtype)
        assert second is not first
        assert [el.label for el in second] == labels == ["X", "R23", "R24", "R34", "U1+",
                                                         "U2+", "U3+", "U1-", "U2-", "U3-"]
        assert all(np.array_equal(el.matrix, m) for el, m in zip(second, matrices))


def commutator_table_cases(n):
    """Expected bracket values on the labeled frame, as (Y, Z, expected) triples."""
    X = generator("X", n=n, dtype=object)
    U = {(i, s): generator("U" + s, i, n=n, dtype=object)
         for i in range(1, n + 1) for s in "+-"}
    R = {(i, j): generator("R", i + 1, j + 1, n=n, dtype=object)
         for i in range(1, n + 1) for j in range(1, n + 1) if i < j}

    def r_signed(i, j):
        if i < j:
            return R[(i, j)].matrix * 1
        return -(R[(j, i)].matrix * 1)

    zero = np.zeros((n + 2, n + 2), dtype=object)
    cases = []
    for i in range(1, n + 1):
        cases.append((X, U[(i, "+")], U[(i, "+")].matrix * 1))
        cases.append((X, U[(i, "-")], -(U[(i, "-")].matrix * 1)))
        cases.append((U[(i, "+")], U[(i, "-")], 2 * X.matrix))
        for j in range(1, n + 1):
            if i == j:
                continue
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


class TestCommutatorTable:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_integer_arithmetic(self, n):
        for y, z, expected in commutator_table_cases(n):
            got = bracket(y, z).matrix
            assert np.array_equal(got, expected), (y.label, z.label)
            assert got.dtype == object and all(type(v) is int for v in got.flat), \
                (y.label, z.label)
        assert all(el.residual() == 0 for el in frame_basis(n, dtype=object))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_floating_point(self, n):
        for y, z, expected in commutator_table_cases(n):
            yf = parse_label(y.label, n)
            zf = parse_label(z.label, n)
            got = bracket(yf, zf).matrix
            assert np.max(np.abs(got - expected.astype(np.float64))) <= 1e-12

    def test_degenerate_n1_has_empty_rotation_sector(self):
        basis = frame_basis(1)
        labels = [b.label for b in basis]
        assert labels == ["X", "U1+", "U1-"]


class TestExpFlow:
    def test_zero_time_is_identity(self):
        g = exp_flow(generator("X", n=3), 0.0)
        assert np.array_equal(g.matrix, np.eye(5))

    def test_boost_closed_form(self):
        t = 0.73
        g = exp_flow(generator("X", n=2), t).matrix
        expected = np.eye(4)
        expected[0, 0] = expected[1, 1] = math.cosh(t)
        expected[0, 1] = expected[1, 0] = math.sinh(t)
        assert np.max(np.abs(g - expected)) < 1e-15

    @pytest.mark.parametrize("label", ["X", "A3", "R23", "U1+", "U2-"])
    def test_closed_forms_match_generic_expm(self, label):
        n = 3
        y = parse_label(label, n)
        for t in (-1.4, 0.3, 2.0):
            direct = exp_flow(y, t).matrix
            generic = expm(t * y.matrix)
            assert np.max(np.abs(direct - generic)) < 1e-12

    def test_horospherical_nilpotent_series(self):
        # oracle: I + sU + s^2 U^2 / 2 assembled from the raw generator,
        # with the cubic term vanishing identically
        n = 3
        s = 0.642
        for kind in ("U+", "U-"):
            u = generator(kind, 1, n=n).matrix
            assert np.max(np.abs(u @ u @ u)) == 0.0
            series = np.eye(n + 2) + s * u + (s * s / 2.0) * (u @ u)
            got = exp_flow(generator(kind, 1, n=n), s).matrix
            assert np.max(np.abs(got - series)) < 1e-15

    def test_horospherical_structural_pattern(self):
        # first 3x3 block carries entries +-s and 1 +- s^2/2; the rest is identity
        n = 2
        s = 0.5
        m = exp_flow(generator("U+", 1, n=n), s).matrix
        flat = {round(x, 12) for x in np.abs(m[:3, :3]).flatten()}
        assert {abs(s), s * s / 2} <= flat
        assert np.allclose(m[3:, 3:], np.eye(n - 1))
        assert np.allclose(m[:3, 3:], 0) and np.allclose(m[3:, :3], 0)

    def test_multi_direction_horospherical_matches_expm(self):
        n = 3
        rng = np.random.default_rng(7)
        v = rng.standard_normal(n)
        for sign in (1, -1):
            combo = sum(v[i] * generator("U" + ("+" if sign > 0 else "-"), i + 1, n=n).matrix
                        for i in range(n))
            assert np.max(np.abs(horospherical_element(v, sign, n).matrix - expm(combo))) < 1e-12

    def test_nonfinite_time_rejected(self):
        with pytest.raises(LorentzError):
            exp_flow(generator("X", n=2), float("nan"))

    @pytest.mark.parametrize("n", [2, 3, 9, 11])
    def test_rotation_labels_flow_in_the_plane_that_parse_label_gives(self, n):
        gens = [generator("R", i, j, n=n) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
        # from n = 9 on, a plane with an index of 10 or more is labelled R{i},{j}
        assert ("R2,10" in [y.label for y in gens]) == (n >= 9)
        for y in gens:
            idx = np.nonzero(parse_label(y.label, n).matrix)
            i, j = int(idx[0][0]), int(idx[1][0])
            for t in (0.0, -0.0, 0.41, -2.7, 1e6):
                assert np.array_equal(exp_flow(y, t).matrix, _exp_rotation(n, i, j, [t])[0]), \
                    (y.label, t)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_horocycle_labels_match_the_one_hot_horospherical_element(self, n):
        for i in range(1, n + 1):
            for sign, kind in ((1, "U+"), (-1, "U-")):
                y = generator(kind, i, n=n)
                for t in (0.0, -0.0, 0.37, -2.5, 1e100, -1.3e154):
                    v = np.zeros(n)
                    v[i - 1] = t
                    got = exp_flow(y, t).matrix
                    want = horospherical_element(v, sign, n).matrix
                    assert np.array_equal(got, want), (kind, i, t)
                    # the signs of the zero entries agree as well
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (kind, i, t)
                v = np.zeros(n)
                v[i - 1] = -1e200
                with pytest.raises(LorentzError) as want_exc:
                    horospherical_element(v, sign, n)
                with pytest.raises(LorentzError) as got_exc:
                    exp_flow(y, -1e200)
                assert str(got_exc.value) == str(want_exc.value)

    @pytest.mark.parametrize("label", ["U0+", "U3-", "U-1+"])
    def test_horocycle_label_outside_the_dimension_is_refused(self, label):
        # generator() never makes such a label; a hand-made one must not wrap around
        y = LieAlgebraElement(np.zeros((4, 4)), 2, label)
        with pytest.raises(LorentzError, match="U_i needs 1 <= i <= n"):
            exp_flow(y, 0.5)

    @pytest.mark.parametrize("m", [generator("R", 2, 3, n=2).matrix,
                                   2.0 * generator("X", n=2).matrix],
                             ids=["R23", "2X"])
    def test_a_label_that_names_another_matrix_is_refused(self, m):
        # an X label on the R23 matrix used to flow to the X boost
        with pytest.raises(LorentzError, match="generator label 'X' names another matrix"):
            exp_flow(LieAlgebraElement(m, 2, "X"), 1.0)

    def test_the_unlabelled_rotation_matrix_flows_to_the_rotation(self):
        y = generator("R", 2, 3, n=2)
        got = exp_flow(LieAlgebraElement(y.matrix, 2), 1.0).matrix
        assert got[0, 0] == 1.0 and got[1, 1] == 1.0
        assert np.max(np.abs(got - exp_flow(y, 1.0).matrix)) < 1e-15

    @pytest.mark.parametrize("label, n", [("A0", 2), ("A1", 2), ("A4", 2), ("A3", 1)])
    def test_boost_label_outside_the_dimension_is_refused_as_generator_does(self, label, n):
        # a hand-made A0 used to flow to a non-group matrix, A1 to the X boost,
        # and A4 at n = 2 to an IndexError
        y = LieAlgebraElement(np.zeros((n + 2, n + 2)), n, label)
        with pytest.raises(LorentzError) as want:
            generator("A", int(label[1:]), n=n)
        with pytest.raises(LorentzError) as got:
            exp_flow(y, 0.5)
        assert str(got.value) == str(want.value)


class TestGeodesicFlow:
    def test_identity_at_zero(self):
        x, xi = geodesic_flow(e(0, 2), e(1, 2), 0.0)
        assert np.array_equal(x, e(0, 2)) and np.array_equal(xi, e(1, 2))

    def test_closed_form_at_basepoint(self):
        x, xi = geodesic_flow(e(0, 2), e(1, 2), 1.0)
        assert abs(x[0] - math.cosh(1)) < 1e-15 and abs(x[1] - math.sinh(1)) < 1e-15
        assert abs(xi[0] - math.sinh(1)) < 1e-15 and abs(xi[1] - math.cosh(1)) < 1e-15

    def test_group_law_on_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_group_element(rng, 3)
            x, xi = g.matrix[:, 0], g.matrix[:, 1]
            s, t = rng.uniform(-2, 2, size=2)
            one = geodesic_flow(*geodesic_flow(x, xi, s), t)
            two = geodesic_flow(x, xi, s + t)
            assert np.max(np.abs(one[0] - two[0])) < 1e-10
            assert np.max(np.abs(one[1] - two[1])) < 1e-10

    def test_constraints_preserved(self):
        rng = np.random.default_rng(4)
        g = random_group_element(rng, 2)
        x, xi = geodesic_flow(g.matrix[:, 0], g.matrix[:, 1], 2.5)
        assert abs(minkowski_inner(x, x) + 1) < 1e-10
        assert abs(minkowski_inner(xi, xi) - 1) < 1e-10
        assert abs(minkowski_inner(x, xi)) < 1e-10

    def test_flow_matches_group_action(self):
        rng = np.random.default_rng(5)
        X = generator("X", n=3)
        for _ in range(20):
            g = random_group_element(rng, 3)
            t = float(rng.uniform(-5, 5))
            gt = g @ exp_flow(X, t)
            x, xi = geodesic_flow(g.matrix[:, 0], g.matrix[:, 1], t)
            assert np.max(np.abs(x - gt.matrix[:, 0])) < 1e-9
            assert np.max(np.abs(xi - gt.matrix[:, 1])) < 1e-9

    def test_bad_input_rejected(self):
        with pytest.raises(LorentzError):
            geodesic_flow(e(0, 2), 2.0 * e(1, 2), 1.0)


class TestHorocyclicCommutation:
    def test_flow_conjugation_scales_parameter(self):
        # e^{sU} e^{-tX} = e^{-tX} e^{s e^{+-t} U} as group elements
        rng = np.random.default_rng(11)
        n = 3
        X = generator("X", n=n)
        for _ in range(25):
            i = int(rng.integers(1, n + 1))
            s = float(rng.uniform(-1, 1))
            t = float(rng.uniform(-3, 3))
            for sign, kind in ((1, "U+"), (-1, "U-")):
                u = generator(kind, i, n=n)
                lhs = exp_flow(u, s) @ exp_flow(X, -t)
                rhs = exp_flow(X, -t) @ exp_flow(u, s * math.exp(sign * t))
                assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-8


class TestKanDecompose:
    def test_identity(self):
        g = GroupElement.identity(3)
        f = kan_decompose(g, +1)
        assert np.allclose(f.k.matrix, np.eye(5))
        assert np.allclose(f.a.matrix, np.eye(5))
        assert np.allclose(f.b.matrix, np.eye(5))

    def test_a_element_factors_through_a(self):
        g = exp_flow(generator("X", n=2), 0.9)
        for sign in (1, -1):
            f = kan_decompose(g, sign)
            assert abs(f.t - 0.9) < 1e-12
            assert np.max(np.abs(f.v)) < 1e-12
            assert np.max(np.abs(f.k.matrix - np.eye(4))) < 1e-12

    def test_horospherical_element_factors_through_n(self):
        n = 3
        v = np.array([0.3, -0.7, 1.1])
        for sign in (1, -1):
            g = horospherical_element(v, sign, n)
            f = kan_decompose(g, sign)
            assert abs(f.t) < 1e-12
            assert np.max(np.abs(f.v - v)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_on_random_elements(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            g = random_group_element(rng, n)
            for sign in (1, -1):
                f = kan_decompose(g, sign)
                err = np.max(np.abs(f.product().matrix - g.matrix))
                assert err < 1e-10
                # factor shapes: k fixes e0, a is a pure boost, b horospherical
                assert np.max(np.abs(f.k.matrix[:, 0] - e(0, n))) < 1e-9
                assert abs(f.a.matrix[0, 0] - math.cosh(f.t)) < 1e-12


class TestStandardSubgroup:
    def test_boost_lives_in_every_wl(self):
        g = exp_flow(generator("X", n=4), 1.3)
        for l in range(2, 6):
            assert standard_subgroup_member(g, l)

    def test_u2_exceeds_w2(self):
        g = exp_flow(generator("U+", 2, n=3), 0.5)
        assert not standard_subgroup_member(g, 2)

    def test_block_embedded_element(self):
        rng = np.random.default_rng(8)
        inner = random_group_element(rng, 1)       # SO0(1,2)
        g = embed_standard_subgroup(inner.matrix, 2, 4)
        assert standard_subgroup_member(g, 2)
        assert not standard_subgroup_member(exp_flow(generator("A", 4, n=4), 0.4), 2)


class TestNormalizer:
    def test_wl_normalizes_itself(self):
        rng = np.random.default_rng(9)
        inner = random_group_element(rng, 2)
        g = embed_standard_subgroup(inner.matrix, 3, 4)
        assert normalizer_member(g, 3)

    def test_trailing_rotation_block(self):
        n, l = 4, 2
        theta = 0.6
        g = exp_flow(generator("R", 4, 5, n=n), theta)
        assert normalizer_member(g, l)

    def test_horospherical_reaching_past_block_fails(self):
        n, l = 3, 2
        g = exp_flow(generator("U+", 3, n=n), 0.8)   # touches row/column l+2
        assert not normalizer_member(g, l)
        rng = np.random.default_rng(10)
        assert not conjugation_normalizer_member(g, l, rng)

    def test_block_and_conjugation_agree(self):
        rng = np.random.default_rng(12)
        n, l = 4, 2
        candidates = []
        for _ in range(20):
            inner = random_group_element(rng, l - 1)
            w = embed_standard_subgroup(inner.matrix, l, n)
            kmat = np.eye(n + 2)
            q, _ = np.linalg.qr(rng.standard_normal((n - l + 1, n - l + 1)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            kmat[l + 1:, l + 1:] = q
            candidates.append(w @ GroupElement(kmat, n))
            candidates.append(random_group_element(rng, n))
        for g in candidates:
            assert normalizer_member(g, l) == conjugation_normalizer_member(g, l, rng)


class TestNormalizerDecompose:
    def test_wl_element_is_its_own_factor(self):
        rng = np.random.default_rng(13)
        inner = random_group_element(rng, 1)
        g = embed_standard_subgroup(inner.matrix, 2, 3)
        w, k, kind = normalizer_decompose(g, 2)
        assert kind is NormalizerKind.CENTRALIZING
        assert np.max(np.abs(w.matrix - g.matrix)) < 1e-12
        assert np.max(np.abs(k.matrix - np.eye(5))) < 1e-12

    def test_pure_rotation_block(self):
        n, l = 4, 2
        g = exp_flow(generator("R", 4, 5, n=n), 1.1)
        w, k, kind = normalizer_decompose(g, l)
        assert kind is NormalizerKind.CENTRALIZING
        assert np.max(np.abs(w.matrix - np.eye(n + 2))) < 1e-12
        assert np.max(np.abs(k.matrix - g.matrix)) < 1e-12

    def test_flipped_case_reconstructs(self):
        rng = np.random.default_rng(14)
        n, l = 4, 2
        inner = random_group_element(rng, l - 1)
        w0 = embed_standard_subgroup(inner.matrix, l, n)
        kmat = np.eye(n + 2)
        kmat[l, l] = -1.0
        k0 = np.eye(n - l + 1)
        k0[0, 0] = -1.0              # det -1 trailing block
        kmat[l + 1:, l + 1:] = k0
        g = w0 @ GroupElement(kmat, n)
        w, k, kind = normalizer_decompose(g, l)
        assert kind is NormalizerKind.FLIPPED
        assert np.max(np.abs((w @ k).matrix - g.matrix)) < 1e-10
        assert standard_subgroup_member(w, l)

    def test_centralizing_factor_commutes_with_wl(self):
        rng = np.random.default_rng(15)
        n, l = 4, 3
        kmat = np.eye(n + 2)
        q, _ = np.linalg.qr(rng.standard_normal((n - l + 1, n - l + 1)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        kmat[l + 1:, l + 1:] = q
        g = GroupElement(kmat, n)
        w, k, kind = normalizer_decompose(g, l)
        assert kind is NormalizerKind.CENTRALIZING
        for _ in range(20):
            inner = random_group_element(rng, l - 1)
            wl = embed_standard_subgroup(inner.matrix, l, n)
            comm = k @ wl @ k.inverse()
            assert np.max(np.abs(comm.matrix - wl.matrix)) < 1e-10

    def test_non_member_rejected(self):
        g = exp_flow(generator("U+", 3, n=3), 0.7)
        with pytest.raises(DecompositionError):
            normalizer_decompose(g, 2)

    @pytest.mark.parametrize("l", [0, 1, 5, 9])
    def test_subgroup_index_outside_2_to_n_plus_1_rejected(self, l):
        g = GroupElement.identity(3)
        with pytest.raises(LorentzError, match=r"2 <= l <= n\+1"):
            normalizer_decompose(g, l)
        normalizer_decompose(g, 4)


class TestKuMember:
    def test_identity(self):
        assert ku_member(GroupElement.identity(3))

    def test_mixing_rotation_fails(self):
        g = exp_flow(generator("R", 2, 3, n=3), 0.4)
        assert not ku_member(g)
        assert not ku_member_by_conjugation(g)

    def test_block_form_with_flip(self):
        n = 3
        m = np.eye(n + 2)
        m[2, 2] = -1.0
        q = np.eye(n - 1)
        q[0, 0] = -1.0               # restore det = +1 overall
        m[3:, 3:] = q
        g = GroupElement(m, n)
        assert ku_member(g)
        assert ku_member_by_conjugation(g)

    def test_predicate_matches_conjugation_on_samples(self):
        rng = np.random.default_rng(16)
        n = 3
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            m = np.eye(n + 2)
            m[2:, 2:] = q
            g = GroupElement(m, n)
            assert ku_member(g) == ku_member_by_conjugation(g)


def _parent_standard_subgroup_member(m, l, tol):
    # the per-block formulas that the shared block split replaced
    n = m.shape[0] - 2
    k = l + 1
    if k < n + 2:
        if float(np.max(np.abs(m[k:, k:] - np.eye(n + 2 - k)))) > tol:
            return False
        if float(np.max(np.abs(m[k:, :k]))) > tol:
            return False
        if float(np.max(np.abs(m[:k, k:]))) > tol:
            return False
    block = m[:k, :k]
    jl = minkowski_matrix(l - 1)
    form = float(np.max(np.abs(block.T @ jl @ block - jl)))
    det = abs(float(np.linalg.det(block)) - 1.0)
    return bool(form <= tol and det <= tol and block[0, 0] > 0)


def _parent_normalizer_blocks(m, l, tol):
    k = l + 1
    if m[k:, :k].size and float(np.max(np.abs(m[k:, :k]))) > tol:
        return None
    if m[:k, k:].size and float(np.max(np.abs(m[:k, k:]))) > tol:
        return None
    top = m[:k, :k]
    bot = m[k:, k:]
    jl = minkowski_matrix(l - 1)
    if float(np.max(np.abs(top.T @ jl @ top - jl))) > tol:
        return None
    if top[0, 0] <= 0:
        return None
    if bot.size and float(np.max(np.abs(bot.T @ bot - np.eye(bot.shape[0])))) > tol:
        return None
    dt = float(np.linalg.det(top))
    db = float(np.linalg.det(bot)) if bot.size else 1.0
    if abs(dt * db - 1.0) > max(tol, 1e-8):
        return None
    return top, bot, dt, db


def _parent_ku_member(m, tol=1e-10):
    n = m.shape[0] - 2
    e = np.eye(n + 2)
    for row in (m[:, 0] - e[:, 0], m[:, 1] - e[:, 1], m[0, :] - e[0, :], m[1, :] - e[1, :]):
        if float(np.max(np.abs(row))) > tol:
            return False
    b = m[2:, 2:]
    if float(np.max(np.abs(b.T @ b - np.eye(n)))) > tol:
        return False
    if n == 1:
        return abs(b[0, 0] - 1.0) <= tol
    if abs(abs(b[0, 0]) - 1.0) > tol:
        return False
    if np.max(np.abs(b[0, 1:])) > tol or np.max(np.abs(b[1:, 0])) > tol:
        return False
    eps = 1.0 if b[0, 0] > 0 else -1.0
    return abs(eps * float(np.linalg.det(b[1:, 1:])) - 1.0) <= 1e-8


def _orthogonal(rng, size, det):
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    if np.linalg.det(q) * det < 0:
        q[:, 0] = -q[:, 0]
    return q


def _block_members(n, rng):
    """W_l, normalizer and K_U elements of SO0(1, n+1), as matrices."""
    out = []
    for l in range(2, n + 2):
        w = embed_standard_subgroup(random_group_element(rng, l - 1).matrix, l, n).matrix
        out.append(w)
        for det in (1.0, -1.0):
            k = np.eye(n + 2)
            k[l + 1:, l + 1:] = _orthogonal(rng, n - l + 1, det) if l <= n else np.eye(0)
            if det < 0:
                k[l, l] = -1.0
            out.append(w @ k)
    for eps in (1.0, -1.0):
        k = np.eye(n + 2)
        k[2, 2] = eps
        k[3:, 3:] = _orthogonal(rng, n - 1, eps) if n > 1 else np.eye(0)
        out.append(k)
    return out


class TestBlockPredicateParity:
    """The block predicates decide as the per-block formulas they replaced did, on
    members and on copies with one entry moved just inside or outside tol; copies
    scaled by 1 + 0.4 tol (form inside tol, det outside it, inside 1e-8); copies
    with the time orientation reversed; and copies turned by 3e-6 rad in a spatial
    plane (inside tol of the identity but for the two entries of the turn).  A copy
    with one NaN entry, which the per-block formulas took as within tol, is refused."""

    TOL = 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_predicates_keep_every_boolean(self, n):
        rng = np.random.default_rng(40 + n)
        decided = set()
        reverse = np.diag([-1.0, -1.0] + [1.0] * n)
        turns = [expm(3e-6 * generator("R", i, j, n=n).matrix)
                 for i in range(1, n + 2) for j in range(i + 1, n + 2)]
        for m in _block_members(n, rng):
            for c in [m, m * (1.0 + 0.4 * self.TOL), m @ reverse] + [m @ t for t in turns]:
                self.check(c, n, decided)
            for i, j in np.ndindex(m.shape):
                for shift in (0.5 * self.TOL, 2.0 * self.TOL):
                    c = m.copy()
                    c[i, j] += shift
                    self.check(c, n, decided)
                c = m.copy()
                c[i, j] = np.nan
                self.refused(c, n)
        # each predicate said both yes and no
        assert decided == {(p, b) for p in "WNK" for b in (False, True)}

    def test_a_nan_entry_is_refused(self):
        m = np.eye(5)
        m[4, 0] = np.nan
        g = GroupElement(m, 3)
        assert not standard_subgroup_member(g, 2)
        assert not normalizer_member(g, 2)
        m = np.eye(5)
        m[3, 3] = np.nan
        with pytest.raises(DecompositionError, match="not in the normalizer"):
            normalizer_decompose(GroupElement(m, 3), 2)

    def refused(self, m, n):
        g = GroupElement(m, n)
        for l in range(2, n + 2):
            assert not standard_subgroup_member(g, l)
            assert _normalizer_blocks(g, l, self.TOL) is None
            if l <= n:
                assert not normalizer_member(g, l)
        assert not ku_member(g)

    def check(self, m, n, decided):
        g = GroupElement(m, n)
        for l in range(2, n + 2):
            got = standard_subgroup_member(g, l)
            assert got == _parent_standard_subgroup_member(m, l, self.TOL)
            want = _parent_normalizer_blocks(m, l, self.TOL)
            blocks = _normalizer_blocks(g, l, self.TOL)
            assert (blocks is None) == (want is None)
            if want is not None:
                assert np.array_equal(blocks[2:], want[2:], equal_nan=True)
            if l <= n:
                assert normalizer_member(g, l) == (want is not None)
            decided.update({("W", got), ("N", want is not None)})
        got = ku_member(g)
        assert got == _parent_ku_member(m)
        decided.add(("K", got))


class TestClosure:
    def test_products_and_inverses_recertify(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            for _ in range(25):
                g = random_group_element(rng, n)
                h = random_group_element(rng, n)
                assert is_group_element((g @ h).matrix, 10 * 1e-10)
                assert is_group_element(g.inverse().matrix, 10 * 1e-10)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        g = random_group_element(rng, 3)
        path = str(tmp_path / "g.txt")
        write_group_element(g, path)
        back = read_group_element(path)
        assert np.max(np.abs(back.matrix - g.matrix)) < 1e-15

    def test_header_format(self, tmp_path):
        path = tmp_path / "g.txt"
        write_group_element(GroupElement.identity(2), str(path))
        assert path.read_text().splitlines()[0] == "lorentz n=2"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("not a header\n")
        with pytest.raises(LorentzError):
            read_group_element(str(path))


class TestDimensionBounds:
    def test_upper_dimension_bound(self):
        rng = np.random.default_rng(19)
        g = random_group_element(rng, 16)
        for sign in (1, -1):
            f = kan_decompose(g, sign)
            assert np.max(np.abs(f.product().matrix - g.matrix)) < 1e-10
        assert len(frame_basis(16)) == 1 + 16 * 15 // 2 + 32

    def test_composite_generator_uses_generic_exponential(self):
        y = parse_label("X", 4)
        z = parse_label("U2+", 4)
        combo = type(y)(0.3 * y.matrix + 0.5 * z.matrix, 4)
        g = exp_flow(combo, 0.7)
        assert np.max(np.abs(g.matrix - expm(0.7 * combo.matrix))) < 1e-12
        assert is_group_element(g.matrix, 1e-9)
