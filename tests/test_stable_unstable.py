import math

import numpy as np
import pytest

from fuplab.lorentz_core import LorentzError, exp_flow, generator, minkowski_inner
from fuplab.stable_unstable import (
    KappaPoint,
    PhasePoint,
    TangentPair,
    ball_chart_to_phase,
    ball_to_hyperboloid,
    boundary_map,
    expansion_rate,
    fd_jacobian,
    flow_tangent,
    foliation_residual,
    foliation_straightening_check,
    geodesic_tangent,
    half_stereographic,
    hyperboloid_to_ball,
    kappa,
    phase_flow,
    phase_to_ball_chart,
    poisson_kernel,
    random_phase_point,
    stable_unstable_basis,
    symplectic_exactness_check,
    symplectic_residual,
)


def e(i, n):
    v = np.zeros(n + 2)
    v[i] = 1.0
    return v


def basepoint(n):
    return PhasePoint(e(0, n), e(1, n))


class TestBallModel:
    def test_basepoint_maps_to_center(self):
        assert np.array_equal(hyperboloid_to_ball(e(0, 3)), np.zeros(4))

    def test_boost_maps_to_tanh_half(self):
        x = np.array([math.cosh(1.0), math.sinh(1.0), 0.0, 0.0])
        b = hyperboloid_to_ball(x)
        assert abs(b[0] - math.tanh(0.5)) < 1e-14
        assert np.max(np.abs(b[1:])) == 0.0

    def test_round_trip_on_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = random_phase_point(rng, 2)
            b = hyperboloid_to_ball(p.x)
            assert np.max(np.abs(ball_to_hyperboloid(b) - p.x)) < 1e-12

    def test_rejects_non_hyperboloid_input(self):
        with pytest.raises(LorentzError):
            hyperboloid_to_ball(e(1, 2))


class TestBoundaryMap:
    def test_forward_endpoint_at_basepoint(self):
        y = boundary_map(basepoint(2), +1)
        assert np.max(np.abs(y - np.array([1.0, 0.0, 0.0]))) < 1e-14

    def test_backward_endpoint_at_basepoint(self):
        y = boundary_map(basepoint(2), -1)
        assert np.max(np.abs(y + np.array([1.0, 0.0, 0.0]))) < 1e-14

    def test_against_long_time_flow(self):
        # independent oracle: flow far, project to the ball, normalize
        # (projection written out by hand: the on-sheet check would trip on
        # the float noise of cosh(30)-sized coordinates)
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = random_phase_point(rng, 3)
            for sign in (1, -1):
                far = phase_flow(p, sign * 30.0)
                chord = far.x[1:] / (1.0 + far.x[0])
                approx = chord / np.linalg.norm(chord)
                assert np.max(np.abs(boundary_map(p, sign) - approx)) < 1e-8

    def test_flow_invariance(self):
        rng = np.random.default_rng(23)
        p = random_phase_point(rng, 2)
        for t in (-2.0, 1.0, 3.0):
            q = phase_flow(p, t)
            for sign in (1, -1):
                assert np.max(np.abs(boundary_map(q, sign) - boundary_map(p, sign))) < 1e-8

    def test_scaling_invariance(self):
        rng = np.random.default_rng(24)
        p = random_phase_point(rng, 2)
        for lam in (0.25, 2.0, 4.0):
            q = PhasePoint(p.x, lam * p.xi)
            for sign in (1, -1):
                assert np.max(np.abs(boundary_map(q, sign) - boundary_map(p, sign))) < 1e-12

    def test_endpoints_always_distinct(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            p = random_phase_point(rng, 2)
            gap = np.linalg.norm(boundary_map(p, 1) - boundary_map(p, -1))
            assert gap > 1e-3


class TestStableUnstableBasis:
    def test_basepoint_basis_spans_trailing_coordinates(self):
        n = 3
        basis = stable_unstable_basis(basepoint(n), "stable")
        assert len(basis) == n
        for v in basis:
            assert np.max(np.abs(v.v_x[:2])) < 1e-12        # no e0, e1 component
            assert np.max(np.abs(v.v_x + v.v_xi)) < 1e-12   # stable pairs (v, -v)

    def test_tangent_pair_invariants(self):
        rng = np.random.default_rng(26)
        p = random_phase_point(rng, 3)
        for which in ("stable", "unstable"):
            for v in stable_unstable_basis(p, which):
                assert v.constraint_residual(p) < 1e-10

    def test_stable_meets_unstable_trivially(self):
        rng = np.random.default_rng(27)
        p = random_phase_point(rng, 2)
        n = p.n
        vecs = [np.concatenate([v.v_x, v.v_xi])
                for v in stable_unstable_basis(p, "stable") + stable_unstable_basis(p, "unstable")]
        gram = np.array(vecs) @ np.array(vecs).T
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 2 * n

    @pytest.mark.parametrize("which,rate", [("stable", -1.0), ("unstable", 1.0)])
    def test_flow_invariance_of_spans(self, which, rate):
        rng = np.random.default_rng(28)
        p = random_phase_point(rng, 3)
        t = 1.0
        q = phase_flow(p, t)
        flowed = [flow_tangent(v, t) for v in stable_unstable_basis(p, which)]
        target = stable_unstable_basis(q, which)

        def orthonormal(pairs):
            m = np.array([np.concatenate([v.v_x, v.v_xi]) for v in pairs]).T
            qmat, _ = np.linalg.qr(m)
            return qmat

        q1 = orthonormal(flowed)
        q2 = orthonormal(target)
        sv = np.linalg.svd(q1.T @ q2, compute_uv=False)
        assert np.min(sv) > 1.0 - 1e-8   # principal angles ~ 0

    def test_full_tangent_decomposition_has_full_rank(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_phase_point(rng, 2)
            n = p.n
            vecs = [np.concatenate([p.xi, p.x])]            # flow direction
            vecs.append(np.concatenate([np.zeros(n + 2), p.xi]))  # radial direction
            for which in ("stable", "unstable"):
                vecs += [np.concatenate([v.v_x, v.v_xi])
                         for v in stable_unstable_basis(p, which)]
            gram = np.array(vecs) @ np.array(vecs).T
            assert abs(np.linalg.det(gram)) > 1e-6


class TestExpansionRate:
    def test_unit_rate_at_time_zero(self):
        p = basepoint(2)
        v = stable_unstable_basis(p, "unstable")[0]
        assert abs(expansion_rate(p, v, 0.0) - 1.0) < 1e-12

    def test_unstable_expands_exponentially(self):
        p = basepoint(3)
        v = stable_unstable_basis(p, "unstable")[0]
        assert abs(expansion_rate(p, v, 1.0) / math.e - 1.0) < 1e-6

    def test_stable_contracts_exponentially(self):
        p = basepoint(3)
        v = stable_unstable_basis(p, "stable")[0]
        assert abs(expansion_rate(p, v, 1.0) * math.e - 1.0) < 1e-6

    def test_random_points_and_times(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            p = random_phase_point(rng, 2)
            t = float(rng.uniform(0.0, 3.0))
            vu = stable_unstable_basis(p, "unstable")[0]
            vs = stable_unstable_basis(p, "stable")[1]
            assert abs(expansion_rate(p, vu, t) / math.exp(t) - 1.0) < 1e-6
            assert abs(expansion_rate(p, vs, t) * math.exp(t) - 1.0) < 1e-6

    def test_mixed_vector_rejected(self):
        p = basepoint(2)
        vu = stable_unstable_basis(p, "unstable")[0]
        vs = stable_unstable_basis(p, "stable")[1]
        mixed = TangentPair(vu.v_x + vs.v_x, vu.v_xi + vs.v_xi)
        with pytest.raises(LorentzError):
            expansion_rate(p, mixed, 1.0)


class TestPoissonKernel:
    def test_center_value_is_one(self):
        for y in (np.array([1.0, 0.0]), np.array([0.0, -1.0])):
            assert poisson_kernel(np.zeros(2), y) == 1.0

    def test_radial_approach_value(self):
        y = np.array([1.0, 0.0, 0.0])
        assert abs(poisson_kernel(0.9 * y, y) - 19.0) < 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.uniform(-0.6, 0.6, size=3)
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            assert poisson_kernel(x, y) > 0


class TestHalfStereographic:
    def test_orthogonal_inputs_pass_through(self):
        y = np.array([1.0, 0.0, 0.0])
        yp = np.array([0.0, 1.0, 0.0])
        assert np.max(np.abs(half_stereographic(y, yp) - yp)) < 1e-15

    def test_antipode_maps_to_zero(self):
        y = np.array([0.0, 0.0, 1.0])
        assert np.max(np.abs(half_stereographic(y, -y))) == 0.0

    def test_output_orthogonal_to_basepoint(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            yp = rng.standard_normal(3)
            yp /= np.linalg.norm(yp)
            if abs(1.0 - y @ yp) < 1e-6:
                continue
            g = half_stereographic(y, yp)
            assert abs(y @ g) < 1e-12

    def test_pole_rejected(self):
        y = np.array([0.0, 1.0])
        with pytest.raises(LorentzError):
            half_stereographic(y, y)


class TestKappa:
    def test_basepoint_chart_values(self):
        kp = kappa(basepoint(2), +1)
        assert kp.w == 1.0
        assert np.max(np.abs(kp.y - np.array([-1.0, 0.0, 0.0]))) < 1e-14
        assert abs(kp.theta) < 1e-14
        assert np.max(np.abs(kp.eta)) < 1e-14
        kp.validate()

    def test_energy_slot_tracks_scaling(self):
        n = 2
        p = PhasePoint(e(0, n), 2.0 * e(1, n))
        for sign in (1, -1):
            assert abs(kappa(p, sign).w - 2.0) < 1e-14

    def test_theta_translation_law(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_phase_point(rng, 2)
            for sign in (1, -1):
                th0 = kappa(p, sign).theta
                for t in (0.5, 1.0, 2.0):
                    th = kappa(phase_flow(p, t), sign).theta
                    assert abs(th - (th0 - t)) < 1e-8

    def test_chart_point_invariants(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            p = random_phase_point(rng, 3)
            for sign in (1, -1):
                kappa(p, sign).validate(1e-10)

    def test_injective_on_separated_points(self):
        rng = np.random.default_rng(35)
        pts = [random_phase_point(rng, 2) for _ in range(40)]
        for sign in (1, -1):
            images = [kappa(p, sign).as_array() for p in pts]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    sep = np.linalg.norm(np.concatenate([pts[i].x - pts[j].x,
                                                         pts[i].xi - pts[j].xi]))
                    if sep >= 1e-3:
                        assert np.linalg.norm(images[i] - images[j]) >= 1e-6


class TestSymplecticCheck:
    def test_identity_map_sanity(self):
        # the residual machinery itself, applied to the identity on T*R^3
        jac = fd_jacobian(lambda z: z.copy(), np.zeros(6), 1e-4)
        assert symplectic_residual(jac) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_basepoint_residual(self, sign):
        assert symplectic_exactness_check(sign, basepoint(2), 1e-4) <= 1e-5

    def test_random_points_up_to_n3(self):
        rng = np.random.default_rng(37)
        for n in (1, 2, 3):
            for _ in range(5):
                p = random_phase_point(rng, n)
                assert symplectic_exactness_check(1, p, 1e-4) <= 1e-5

    def test_scaled_energy_keeps_residual(self):
        p = basepoint(2)
        q = PhasePoint(p.x, 2.0 * p.xi)
        assert symplectic_exactness_check(1, q, 1e-4) <= 1e-5

    def test_step_out_of_range_rejected(self):
        with pytest.raises(LorentzError):
            symplectic_exactness_check(1, basepoint(2), 1e-2)


class TestFoliationStraightening:
    def test_flow_direction_freezes_w_and_y(self):
        p = basepoint(2)
        r = foliation_residual(1, p, geodesic_tangent(p))
        assert r <= 1e-8

    @pytest.mark.parametrize("sign,which", [(1, "unstable"), (-1, "stable")])
    def test_matching_foliation_is_straightened(self, sign, which):
        rng = np.random.default_rng(38)
        for _ in range(10):
            p = random_phase_point(rng, 2)
            assert foliation_straightening_check(sign, p) <= 1e-6

    def test_control_case_is_not_straightened(self):
        p = basepoint(2)
        for v in stable_unstable_basis(p, "stable"):
            assert foliation_residual(1, p, v) > 0.1

    def test_flow_matches_group_action_on_frames(self):
        # the chart is built from flows; sanity-check the frame projection used
        g = exp_flow(generator("X", n=2), 0.7)
        p = PhasePoint(g.matrix[:, 0], g.matrix[:, 1])
        q = phase_flow(basepoint(2), 0.7)
        assert np.max(np.abs(p.x - q.x)) < 1e-12
        assert np.max(np.abs(p.xi - q.xi)) < 1e-12


class TestPhaseFlowHomogeneity:
    def test_scaling_commutes_with_flow(self):
        rng = np.random.default_rng(39)
        p = random_phase_point(rng, 2)
        lam = 3.0
        a = phase_flow(PhasePoint(p.x, lam * p.xi), 1.2)
        b = phase_flow(p, 1.2)
        assert np.max(np.abs(a.x - b.x)) < 1e-12
        assert np.max(np.abs(a.xi - lam * b.xi)) < 1e-12


class TestValidationPaths:
    def test_phase_point_create_rejects_bad_inputs(self):
        with pytest.raises(LorentzError):
            PhasePoint.create(e(1, 2), e(0, 2))          # x not on the sheet
        with pytest.raises(LorentzError):
            PhasePoint.create(e(0, 2), e(0, 2))          # xi not orthogonal
        x = e(0, 2)
        with pytest.raises(LorentzError):
            PhasePoint.create(x, np.zeros(4))            # zero energy

    def test_boundary_map_rejects_zero_energy(self):
        p = PhasePoint(e(0, 2), 1e-16 * e(1, 2))
        with pytest.raises(LorentzError):
            boundary_map(p, 1)

    def test_poisson_kernel_rejects_exterior_points(self):
        with pytest.raises(LorentzError):
            poisson_kernel(np.array([1.2, 0.0]), np.array([1.0, 0.0]))


class TestFrameBundleCorrespondence:
    def test_horocyclic_generators_push_to_matching_bundles(self):
        # the pushforward of each U_i^+ through the frame projection is a
        # stable pair (v, -v); each U_i^- gives an unstable pair (v, v)
        rng = np.random.default_rng(54)
        from fuplab.lorentz_core import generator, random_group_element

        for _ in range(10):
            n = int(rng.integers(2, 4))
            g = random_group_element(rng, n)
            p = PhasePoint(g.matrix[:, 0], g.matrix[:, 1])
            for kind, pair_sign in (("U+", -1.0), ("U-", 1.0)):
                for i in range(1, n + 1):
                    u = generator(kind, i, n=n).matrix
                    v = TangentPair(g.matrix @ u[:, 0], g.matrix @ u[:, 1])
                    assert np.max(np.abs(v.v_xi - pair_sign * v.v_x)) < 1e-12
                    assert v.constraint_residual(p) < 1e-10

    def test_horocyclic_flows_fix_one_endpoint(self):
        # forward endpoint under U+, backward endpoint under U-; the opposite
        # endpoint must move
        rng = np.random.default_rng(55)
        from fuplab.lorentz_core import exp_flow, generator, random_group_element

        g = random_group_element(rng, 3)
        p0 = PhasePoint(g.matrix[:, 0], g.matrix[:, 1])
        for kind, sign in (("U+", 1), ("U-", -1)):
            u = generator(kind, 1, n=3)
            for s in (0.3, 1.0):
                gs = g @ exp_flow(u, s)
                ps = PhasePoint(gs.matrix[:, 0], gs.matrix[:, 1])
                fixed = np.max(np.abs(boundary_map(ps, sign) - boundary_map(p0, sign)))
                moved = np.max(np.abs(boundary_map(ps, -sign) - boundary_map(p0, -sign)))
                assert fixed < 1e-10
                assert moved > 1e-3
