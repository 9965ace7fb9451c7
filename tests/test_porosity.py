import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuplab.porosity import (
    BallWitness,
    BoxSet,
    CantorSpec,
    LineWitness,
    PorosityReport,
    ResolutionError,
    Verdict,
    affine_image,
    ball_porosity_check,
    bilipschitz_image,
    cantor_generate,
    direction_set,
    estimate_bilipschitz_constant,
    estimate_second_derivative_bound,
    line_porosity_check,
    max_certified_nu,
    neighborhood,
    scale_ladder,
    verify_affine_lemma,
    verify_bilipschitz_lemma,
    verify_neighborhood_lemma,
)
from fuplab import porosity
from fuplab.porosity import _distance_field, _segment_min, _segment_offsets, _witness_holds


def cantor1(depth=6):
    return cantor_generate(CantorSpec.uniform(3, (0, 2), depth, 1), 1)


def dust2(depth=3):
    return cantor_generate(CantorSpec.uniform(4, (0, 3), depth, 2), 2)


# ---------------------------------------------------------------------------
# brute-force oracle: direct distance computation, no transform machinery


def true_distance(points, x: BoxSet):
    lo = np.argwhere(x.mask) * x.delta
    hi = lo + x.delta
    if lo.shape[0] == 0:
        return np.full(points.shape[0], np.inf)
    gap = np.maximum(lo[None, :, :] - points[:, None, :], points[:, None, :] - hi[None, :, :])
    np.maximum(gap, 0.0, out=gap)
    return np.sqrt((gap**2).sum(axis=2)).min(axis=1)


def ball_certificate_bruteforce(x: BoxSet, nu: float, r: float, centers: np.ndarray) -> bool:
    """Every ball of diameter r centered in ``centers`` holds a nu*r-clear point."""
    for c in centers:
        axes = [np.arange(ci - r / 2, ci + r / 2 + x.delta / 4, x.delta / 2) for ci in c]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, x.n)
        pts = pts[np.linalg.norm(pts - c, axis=1) <= r / 2]
        if true_distance(pts, x).max() < nu * r:
            return False
    return True


class TestCantorGenerate:
    def test_depth_one_intervals(self):
        x = cantor_generate(CantorSpec.uniform(3, (0, 2), 1, 1), 1)
        assert x.m == 3
        assert list(x.mask) == [True, False, True]

    def test_depth_two_intervals(self):
        x = cantor_generate(CantorSpec.uniform(3, (0, 2), 2, 1), 1)
        assert x.occupied_count == 4
        assert set(np.flatnonzero(x.mask)) == {0, 2, 6, 8}

    def test_full_digit_set_rejected(self):
        with pytest.raises(ValueError):
            CantorSpec.uniform(3, (0, 1, 2), 1, 1)

    def test_product_structure_in_2d(self):
        x = dust2(2)
        one = cantor_generate(CantorSpec.uniform(4, (0, 3), 2, 1), 1)
        assert np.array_equal(x.mask, np.outer(one.mask, one.mask))


class TestScaleLadder:
    def test_ratio_and_endpoints(self):
        rs = scale_ladder(0.1, 1.0)
        assert abs(rs[0] - 0.1) < 1e-15 and abs(rs[-1] - 1.0) < 1e-12
        assert np.all(np.diff(np.log(rs)) <= 0.5 * math.log(2.0) + 1e-9)

    def test_single_scale(self):
        rs = scale_ladder(0.3, 0.3)
        assert len(rs) == 1

    @pytest.mark.parametrize("alpha0", [0.0, -1.0])
    def test_scale_range_is_checked_before_the_resolution(self, alpha0):
        x = cantor1(4)
        for decide in (lambda: ball_porosity_check(x, 0.1, alpha0, 1.0),
                       lambda: line_porosity_check(x, 0.1, alpha0, 1.0),
                       lambda: max_certified_nu(x, alpha0, 1.0),
                       lambda: max_certified_nu(x, alpha0, 1.0, "line")):
            with pytest.raises(ValueError, match="0 < alpha0 <= alpha1"):
                decide()


class TestBallPorosityCheck:
    def test_empty_set_certified(self):
        rep = ball_porosity_check(BoxSet.empty(1, 81), 0.9, 0.1, 1.0)
        assert rep.verdict is Verdict.CERTIFIED

    def test_full_cube_counterexample_at_every_scale(self):
        rep = ball_porosity_check(BoxSet.full(1, 243), 0.2, 0.1, 0.9)
        assert rep.verdict is Verdict.COUNTEREXAMPLE
        assert all(v is Verdict.COUNTEREXAMPLE for v in rep.per_scale)
        assert _witness_holds(BoxSet.full(1, 243), 0.2, rep.witness)

    def test_cantor_certified_at_positive_nu(self):
        x = cantor1(6)
        nu_star = max_certified_nu(x, 1 / 9, 1.0, "ball")
        assert nu_star > 0.05
        rep = ball_porosity_check(x, nu_star, 1 / 9, 1.0)
        assert rep.verdict is Verdict.CERTIFIED
        assert np.all(rep.margins >= 1.0)

    def test_certificate_against_bruteforce(self):
        # independent oracle at a sampled scale: every ball position on a fine
        # lattice must hold a clear point at the certified nu
        x = cantor_generate(CantorSpec.uniform(3, (0, 2), 5, 1), 1)
        nu_star = max_certified_nu(x, 1 / 3, 1.0, "ball")
        assert nu_star > 0
        for r in (1 / 3, 1.0):
            centers = np.linspace(-0.1, 1.1, 49)[:, None]
            assert ball_certificate_bruteforce(x, nu_star, r, centers)

    def test_counterexample_against_bruteforce(self):
        x = BoxSet.full(1, 81)
        rep = ball_porosity_check(x, 0.3, 0.2, 0.8)
        w = rep.witness
        pts = np.linspace(w.center[0] - w.scale / 2, w.center[0] + w.scale / 2, 101)[:, None]
        assert np.all(true_distance(pts, x) < 0.3 * w.scale)

    def test_resolution_precondition(self):
        with pytest.raises(ResolutionError):
            ball_porosity_check(cantor1(2), 0.01, 0.05, 1.0)

    def test_monotone_under_inclusion(self):
        # a certificate for the superset transfers to any subset
        rng = np.random.default_rng(41)
        sup = cantor1(5)
        for _ in range(40):
            keep = rng.random(sup.mask.shape) < 0.6
            sub = BoxSet(1, sup.m, sup.mask & keep)
            nu = float(rng.uniform(0.06, 0.12))
            rep_sup = ball_porosity_check(sup, nu, 1 / 3, 1.0)
            if rep_sup.verdict is Verdict.CERTIFIED:
                assert ball_porosity_check(sub, nu, 1 / 3, 1.0).verdict is Verdict.CERTIFIED

    def test_subrange_consistency(self):
        x = cantor1(6)
        nu = max_certified_nu(x, 1 / 9, 1.0, "ball")
        assert ball_porosity_check(x, nu, 1 / 9, 1.0).verdict is Verdict.CERTIFIED
        assert ball_porosity_check(x, nu, 1 / 3, 1.0).verdict is Verdict.CERTIFIED
        assert ball_porosity_check(x, nu, 1 / 9, 1 / 3).verdict is Verdict.CERTIFIED


class TestLinePorosityCheck:
    def test_empty_set_certified(self):
        rep = line_porosity_check(BoxSet.empty(2, 27), 0.5, 0.3, 1.0)
        assert rep.verdict is Verdict.CERTIFIED

    def test_slab_fails_on_lines_but_not_on_balls(self):
        m = 243
        mask = np.zeros((m, m), dtype=bool)
        mask[m // 2, :] = True
        slab = BoxSet(2, m, mask)
        line_rep = line_porosity_check(slab, 0.1, 0.2, 0.5, directions=8)
        assert line_rep.verdict is Verdict.COUNTEREXAMPLE
        assert _witness_holds(slab, 0.1, line_rep.witness)
        # the witness runs along the slab
        assert abs(line_rep.witness.direction[1]) > 0.99
        ball_rep = ball_porosity_check(slab, 0.22, 0.2, 0.5)
        assert ball_rep.verdict is Verdict.CERTIFIED

    def test_dust_certified_on_lines(self):
        x = dust2(3)
        nu_star = max_certified_nu(x, 0.5, 1.0, "line", directions=6)
        assert nu_star > 0.05
        rep = line_porosity_check(x, nu_star, 0.5, 1.0, directions=6)
        assert rep.verdict is Verdict.CERTIFIED
        assert rep.directions == 6

    def test_line_certificate_against_bruteforce(self):
        # check certified segments directly: max true distance along each
        # sampled segment reaches nu*r
        x = dust2(3)
        nu = max_certified_nu(x, 0.5, 1.0, "line", directions=6)
        r = 0.75
        rng = np.random.default_rng(42)
        for u in direction_set(2, 6):
            for _ in range(20):
                mid = rng.uniform(-0.05, 1.05, size=2)
                ts = np.linspace(-r / 2, r / 2, 160)
                pts = mid[None, :] + ts[:, None] * u[None, :]
                assert true_distance(pts, x).max() >= nu * r

    def test_one_dimensional_line_equals_interval_check(self):
        x = cantor1(5)
        rep = line_porosity_check(x, 0.08, 1 / 3, 1.0)
        assert rep.directions == 1
        assert rep.verdict is Verdict.CERTIFIED


class TestDistanceField:
    @pytest.mark.parametrize("n,m", [(1, 81), (2, 64), (3, 9)])
    def test_slabs_equal_whole_field_transform(self, n, m):
        from scipy import ndimage

        rng = np.random.default_rng(n)
        for density in (0.002, 0.05, 0.5):
            mask = rng.random((m,) * n) < density
            mask.flat[0] = True
            # a pad of 2 gives 324 and 49 cells a side in 2-D and 3-D: several slabs
            f = _distance_field(BoxSet(n, m, mask), 2.0)
            pad = 2 * m + 2
            occ = np.zeros((m + 2 * pad,) * n, dtype=bool)
            occ[(slice(pad, pad + m),) * n] = mask
            assert np.array_equal(f.dist, ndimage.distance_transform_edt(~occ, sampling=1.0 / m))


class TestSegmentMaxGather:
    @staticmethod
    def full_gather(dist, anchors, offsets):
        # every anchor's full segment max, through flat indices
        strides = np.cumprod((1,) + dist.shape[:0:-1])[::-1]
        flat = dist.ravel()
        base = anchors @ strides
        out = np.full(anchors.shape[0], -np.inf)
        for off in offsets @ strides:
            np.maximum(out, flat[base + off], out=out)
        return out

    @staticmethod
    def reference(dist, anchors, offsets):
        # one plain lookup per anchor and offset
        out = np.full(anchors.shape[0], -np.inf)
        for i, a in enumerate(anchors):
            for off in offsets:
                out[i] = max(out[i], dist[tuple(a + off)])
        return out

    @staticmethod
    def case(rng, n, levels=None):
        side = int(rng.integers(20, 40))
        dist = rng.random((side,) * n)
        if levels is not None:
            dist = np.floor(dist * levels)
        u = rng.normal(size=n)
        offsets = _segment_offsets(u / np.linalg.norm(u), float(rng.uniform(0.1, 0.4)), 1 / 32)
        lo = -offsets.min(axis=0)
        hi = side - 1 - offsets.max(axis=0)
        anchors = rng.integers(lo, hi + 1, size=(60, n))
        return dist, anchors, offsets

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_gather_equals_per_offset_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            dist, anchors, offsets = self.case(rng, n)
            assert len(offsets) > 1
            segmax = self.full_gather(dist, anchors, offsets)
            assert np.array_equal(segmax, self.reference(dist, anchors, offsets))
            assert _segment_min(dist, anchors, offsets) == (segmax.min(), np.argmin(segmax))

    @pytest.mark.parametrize("n", [2, 3])
    def test_offsets_run_coarse_to_fine(self, n):
        # the gather order is a permutation of the distinct cells on the
        # segment: both ends, then every 2^k-th place along it for decreasing k
        rng = np.random.default_rng(30 + n)
        for _ in range(10):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            r = float(rng.uniform(0.1, 0.4))
            offsets = _segment_offsets(u, r, 1 / 32)
            ts = np.arange(-r / 2, r / 2 + 1 / 64, 1 / 32)
            cells = np.unique(np.round(np.outer(ts, u) * 32).astype(np.int64), axis=0)
            assert len(offsets) == len(cells)
            assert np.array_equal(np.unique(offsets, axis=0), cells)
            place = np.argsort(np.argsort(offsets @ u))
            assert set(place[:2]) == {0, len(offsets) - 1}
            assert np.all(np.diff(place[2:] & -place[2:]) <= 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tied_minima_keep_the_first_argmin(self, n):
        # a field of three levels ties many segment maxima; pruning on a strict
        # inequality keeps every tie, so the first argmin is the full gather's
        rng = np.random.default_rng(20 + n)
        seen_late_tie = 0
        for _ in range(40):
            dist, anchors, offsets = self.case(rng, n, levels=3)
            segmax = self.full_gather(dist, anchors, offsets)
            ties = np.flatnonzero(segmax == segmax.min())
            seen_late_tie += ties.size > 1
            assert _segment_min(dist, anchors, offsets) == (segmax.min(), ties[0])
        assert seen_late_tie >= 10

    @pytest.mark.parametrize("n", [2, 3])
    def test_anchor_outside_the_padded_field_raises(self, n):
        rng = np.random.default_rng(10 + n)
        dist, anchors, offsets = self.case(rng, n)
        for axis in range(n):
            # one cell past the last and before the first position a segment may reach
            for past in (dist.shape[axis] - offsets[:, axis].max(),
                         -offsets[:, axis].min() - 1):
                pushed = anchors.copy()
                pushed[0, axis] = past
                with pytest.raises(ResolutionError):
                    _segment_min(dist, pushed, offsets)


class TestFromBoxes:
    def test_cells_meeting_the_open_boxes(self):
        # off grid lines, a cell meets a closed box exactly when it meets its interior
        rng = np.random.default_rng(49)
        for n, m in ((1, 40), (2, 12), (3, 6)):
            lo = rng.uniform(-0.2, 1.0, size=(5, n))
            hi = lo + rng.uniform(0.0, 0.5, size=(5, n))
            got = BoxSet.from_boxes(list(zip(lo, hi)), m, n).mask
            cells = np.argwhere(np.ones((m,) * n, dtype=bool))[:, None, :]
            meets = ((cells < hi * m) & (cells + 1 > lo * m)).all(axis=2).any(axis=1)
            assert np.array_equal(got.reshape(-1), meets), (n, m)

    def test_no_boxes_give_the_empty_set(self):
        assert BoxSet.from_boxes([], 9, 2).occupied_count == 0

    @pytest.mark.parametrize("m, n", [(0, 1), (-3, 1), (27, 0)])
    def test_grid_needs_a_cell_and_an_axis(self, m, n):
        with pytest.raises(ValueError, match="at least 1"):
            BoxSet.from_boxes([], m, n)

    @pytest.mark.parametrize("boxes", [
        [([0.1], [0.4])],                # corners of one coordinate in 2-D
        [([0.1, 0.1], [0.4])],           # corners of unequal lengths
        [([0.1, 0.1, 0.1], [0.4, 0.4, 0.4])],
        [(0.1, 0.4)],                    # scalar corners
        [([0.1, math.nan], [0.4, 0.4])],
        [([0.1, 0.1], [0.4, math.inf])],
    ], ids=["short", "ragged", "long", "scalar", "nan", "inf"])
    def test_corners_need_dims_finite_coordinates(self, boxes):
        with pytest.raises(ValueError, match="two finite corners of 2 coordinates"):
            BoxSet.from_boxes(boxes, 27, 2)


class TestAffineImage:
    def test_identity(self):
        x = cantor1(5)
        img = affine_image(x, 1.0, np.zeros(1))
        assert np.array_equal(img.mask, x.mask)

    def test_third_scale_is_coarsened_self(self):
        x = cantor1(6)
        img = affine_image(x, 1 / 3, np.zeros(1))
        coarse = cantor_generate(CantorSpec.uniform(3, (0, 2), 5, 1), 1)
        assert np.array_equal(img.mask[:243], coarse.mask)
        assert not img.mask[243:].any()

    def test_translation_off_cube_clips(self):
        x = cantor1(3)
        img = affine_image(x, 1.0, np.array([2.0]))
        assert img.occupied_count == 0

    def test_lemma_holds_on_random_trials(self):
        rng = np.random.default_rng(43)
        x = cantor1(6)
        for _ in range(10):
            lam = float(rng.uniform(1 / 3, 1.0))
            y = rng.uniform(0.0, 0.3, size=1)
            out = verify_affine_lemma(x, lam, y, 1 / 3, 1.0, "ball")
            assert out.holds


class TestNeighborhood:
    def test_single_cell_dilation(self):
        m = 27
        mask = np.zeros(m, dtype=bool)
        mask[13] = True
        x = BoxSet(1, m, mask)
        nb = neighborhood(x, x.delta)
        assert set(np.flatnonzero(nb.mask)) == {12, 13, 14}

    def test_empty_stays_empty(self):
        nb = neighborhood(BoxSet.empty(1, 27), 0.1)
        assert nb.occupied_count == 0
        assert ball_porosity_check(nb, 0.5, 0.3, 1.0).verdict is Verdict.CERTIFIED

    def test_radius_below_pitch_rejected(self):
        with pytest.raises(ResolutionError):
            neighborhood(cantor1(3), 1e-4)

    def test_lemma_holds_on_random_trials(self):
        rng = np.random.default_rng(44)
        x = cantor1(6)
        nu = max_certified_nu(x, 1 / 3, 1.0, "ball")
        for _ in range(10):
            a2 = float(rng.uniform(x.delta, 0.45 * nu))
            out = verify_neighborhood_lemma(x, a2, 1 / 3, 1.0, "ball")
            assert out.holds

    @given(st.integers(min_value=1, max_value=2))
    @settings(max_examples=10, deadline=None)
    def test_dilation_contains_source(self, steps):
        x = cantor1(4)
        nb = neighborhood(x, steps * x.delta)
        assert np.all(nb.mask[x.mask])


class TestBilipschitz:
    def test_identity_map_keeps_constants(self):
        x = cantor1(5)
        img = bilipschitz_image(x, lambda p: p, c1=1.0)
        assert np.all(img.mask[x.mask])     # raster covers the source

    def test_axis_scaling_map_verifies_at_quarter_nu(self):
        # diag(2, 1/2) with C1 = 2: porosity of the image pulls back at nu/4
        base = dust2(4)
        x = affine_image(base, 0.5, np.zeros(2))
        mat = np.array([2.0, 0.5])
        out = verify_bilipschitz_lemma(x, lambda p: p * mat[None, :], 2.0, 0.5, 0.5, "ball")
        assert out.holds
        assert abs(out.nu_asserted - (out.nu_source / 4.0 - 4.0 * x.delta / (2.0 * 0.5))) < 1e-12

    def test_smooth_perturbation_constants_estimated(self):
        rng = np.random.default_rng(45)
        fwd = lambda p: p + 0.05 * np.sin(2 * np.pi * p)
        c1 = estimate_bilipschitz_constant(fwd, 1, rng)
        assert 1.2 < c1 < 1.6          # 1 + 0.05*2*pi = 1.314 plus slack
        x = cantor1(6)
        out = verify_bilipschitz_lemma(x, fwd, c1, 1 / 3, 0.9, "ball")
        assert out.holds

    def test_line_version_enforces_scale_cap(self):
        x = dust2(3)
        fwd = lambda p: p + 0.05 * np.sin(2 * np.pi * p)
        rng = np.random.default_rng(46)
        c1 = estimate_bilipschitz_constant(fwd, 2, rng)
        inv_est = estimate_second_derivative_bound(
            lambda q: q - 0.05 * np.sin(2 * np.pi * q), 2, rng)
        cap_breaker = 10.0
        with pytest.raises(ValueError):
            verify_bilipschitz_lemma(x, fwd, c1, 0.5, 1.0, "line",
                                     c2=cap_breaker * max(inv_est, 1.0))


class TestPorosityKind:
    """A kind other than "ball" or "line" is refused, not read as "line"."""

    def test_max_certified_nu(self):
        with pytest.raises(ValueError, match="kind"):
            max_certified_nu(cantor1(6), 1 / 3, 1.0, "Ball")

    def test_lemma_verifiers(self):
        x = cantor1(5)
        with pytest.raises(ValueError, match="kind"):
            verify_affine_lemma(x, 0.5, np.zeros(1), 1 / 3, 1.0, "Ball")
        with pytest.raises(ValueError, match="kind"):
            verify_neighborhood_lemma(x, 0.001, 1 / 3, 1.0, "Ball")
        with pytest.raises(ValueError, match="kind"):
            verify_bilipschitz_lemma(x, lambda p: p, 1.0, 1 / 3, 1.0, "Ball")
        # a given nu skips the bisection, so the kind reaches the final check
        with pytest.raises(ValueError, match="kind"):
            verify_affine_lemma(x, 0.5, np.zeros(1), 1 / 3, 1.0, "Ball", nu=0.1)

    def test_private_dispatch(self):
        from fuplab.porosity import _checked
        with pytest.raises(ValueError, match="kind"):
            _checked(cantor1(5), 0.1, 1 / 3, 1.0, "Ball", 8)

    def test_sphere_charts(self):
        from fuplab.fup_numerics import SphereAtlas, sphere_porosity_check
        empty = lambda y: np.zeros(y.shape[0], dtype=bool)
        with pytest.raises(ValueError, match="kind"):
            sphere_porosity_check(empty, 0.1, 0.45, 0.9, SphereAtlas.for_circle(8),
                                  m=64, kind="Ball")


class TestReports:
    def test_text_has_one_row_per_scale(self):
        x = cantor1(5)
        rep = ball_porosity_check(x, 0.08, 1 / 3, 1.0)
        text = rep.to_text()
        assert text.count("scale=") == len(rep.scales)
        assert "overall=" in text
        assert rep.verdict is Verdict.CERTIFIED and "verified" not in text

    def test_witness_line_in_text(self):
        rep = ball_porosity_check(BoxSet.full(1, 81), 0.3, 0.2, 0.8)
        assert "witness ball" in rep.to_text()
        assert rep.to_text().endswith("\nwitness verified\n")


class TestWitnessRecheck:
    """ball_porosity_check and line_porosity_check re-check every witness they
    return; max_certified_nu reads verdicts only and skips the re-check."""

    @pytest.mark.parametrize("kind", ["ball", "line"])
    def test_shifted_witness_is_caught(self, kind, monkeypatch):
        # 4 cells toward 0 is the smallest shift that fails here; shifts of up
        # to 3 cells either way still re-verify.  No 1-cell shift can fail:
        # the refuting slack is at least one cell and distance is 1-Lipschitz.
        x = cantor1(6)
        decide = ball_porosity_check if kind == "ball" else line_porosity_check
        rep = decide(x, 0.18, 1 / 3, 1.0)
        assert rep.verdict is Verdict.COUNTEREXAMPLE and "witness verified" in rep.to_text()
        shift = -4 * x.delta
        if kind == "ball":
            class Shifted(BallWitness):
                def __init__(self, center, scale):
                    super().__init__(center + shift, scale)
            monkeypatch.setattr(porosity, "BallWitness", Shifted)
        else:
            class Shifted(LineWitness):
                def __init__(self, midpoint, direction, scale):
                    super().__init__(midpoint + shift, direction, scale)
            monkeypatch.setattr(porosity, "LineWitness", Shifted)
        with pytest.raises(ArithmeticError, match="does not re-verify"):
            decide(x, 0.18, 1 / 3, 1.0)

    def test_recheck_matches_the_bruteforce_distance(self):
        # probes near a cell center pass without the exact box distance; that
        # shortcut must not change the answer
        x, nu = cantor1(6), 0.18
        w = ball_porosity_check(x, nu, 1 / 3, 1.0).witness
        r = w.scale
        answers = []
        for k in range(-6, 7):
            c = w.center + k * x.delta
            pts = np.arange(c[0] - r / 2, c[0] + r / 2 + x.delta / 4, x.delta / 2)[:, None]
            want = bool(np.all(true_distance(pts[np.abs(pts[:, 0] - c[0]) <= r / 2], x) < nu * r))
            assert _witness_holds(x, nu, BallWitness(c, r)) is want, k
            answers.append(want)
        assert True in answers and False in answers

    def test_bisection_skips_the_recheck(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a bisection step ran the witness re-check")

        monkeypatch.setattr(porosity, "_witness_holds", fail)
        with pytest.raises(AssertionError, match="re-check"):
            ball_porosity_check(cantor1(6), 0.9, 1 / 3, 1.0)
        # the golden value of tests/porosity_golden.json (case x1-ball)
        assert max_certified_nu(cantor1(6), 1 / 3, 1.0, "ball") == float.fromhex(
            "0x1.24038e38e38e4p-3")


class TestResolutionAndRangeGuards:
    def test_cantor_resolution_overflow(self):
        with pytest.raises(ResolutionError):
            cantor_generate(CantorSpec.uniform(3, (0, 2), 15, 1), 1)

    def test_direction_count_floor(self):
        with pytest.raises(ValueError):
            direction_set(2, 3)

    def test_scale_range_validation(self):
        with pytest.raises(ValueError):
            scale_ladder(0.5, 0.2)
