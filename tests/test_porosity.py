import inspect
import itertools
import math
import time

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
from fuplab.porosity import (
    _Decider,
    _distance_field,
    _Field,
    _segment_min,
    _segment_offsets,
    _WindowMax,
    _require_grid_budget,
    _witness_holds,
)


def cantor1(depth=6):
    return cantor_generate(CantorSpec.uniform(3, (0, 2), depth, 1), 1)


def dust2(depth=3):
    return cantor_generate(CantorSpec.uniform(4, (0, 3), depth, 2), 2)


def thirds2(depth=3):
    # m = 27: cell centers are not dyadic, so their rounding shows
    return cantor_generate(CantorSpec.uniform(3, (0, 2), depth, 2), 2)


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


def witness_probes(x: BoxSet, w) -> np.ndarray:
    """The probes of the definition: the witness ball's grid at pitch delta/2
    inside the ball, or the segment at pitch delta/4."""
    r = w.scale
    if isinstance(w, BallWitness):
        axes = [np.arange(c - r / 2, c + r / 2 + x.delta / 4, x.delta / 2) for c in w.center]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, x.n)
        return pts[np.linalg.norm(pts - w.center, axis=1) <= r / 2]
    ts = np.arange(-r / 2, r / 2 + x.delta / 8, x.delta / 4)
    return w.midpoint + ts[:, None] * w.direction


def ball_certificate_bruteforce(x: BoxSet, nu: float, r: float, centers: np.ndarray) -> bool:
    """Every ball of diameter r centered in ``centers`` holds a nu*r-clear point."""
    for c in centers:
        if true_distance(witness_probes(x, BallWitness(c, r)), x).max() < nu * r:
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_spec_without_axes_rejected(self, n):
        with pytest.raises(ValueError, match="at least one axis"):
            CantorSpec.uniform(3, (0, 2), 2, n)

    def test_product_structure_in_2d(self):
        x = dust2(2)
        one = cantor_generate(CantorSpec.uniform(4, (0, 3), 2, 1), 1)
        assert np.array_equal(x.mask, np.outer(one.mask, one.mask))

    @staticmethod
    def enumerated_cells(spec: CantorSpec) -> list[int]:
        """Every kept cell, one digit string per axis at a time, in row-major order."""
        m = spec.base ** spec.depth
        axes = [[sum(d * spec.base ** (spec.depth - 1 - j) for j, d in enumerate(string))
                 for string in itertools.product(axis_digits, repeat=spec.depth)]
                for axis_digits in spec.digits]
        return sorted({sum(c * m ** (len(axes) - 1 - a) for a, c in enumerate(point))
                       for point in itertools.product(*axes)})

    @pytest.mark.parametrize("spec", [
        CantorSpec.uniform(3, (0, 2), 4, 1),
        CantorSpec.uniform(5, (1, 3, 4), 3, 1),
        CantorSpec(3, ((2, 0, 2),), 3),                     # unsorted, repeated digits
        CantorSpec(4, ((0, 3), (1,)), 3),
        CantorSpec(5, ((4, 1), (0, 2, 3)), 2),
        CantorSpec.uniform(3, (0, 2), 2, 3),
        CantorSpec(3, ((1,), (0, 2), (2, 1)), 2),
    ])
    def test_cells_are_the_enumerated_digit_strings(self, spec):
        cells = spec.cells()
        assert cells.dtype == np.int64
        assert cells.tolist() == self.enumerated_cells(spec)
        x = cantor_generate(spec, len(spec.digits))
        assert np.array_equal(np.flatnonzero(x.mask), cells)

    def test_cells_past_int64_are_refused(self):
        CantorSpec.uniform(3, (1,), 39, 1).cells()                # 3^39 < 2^63
        with pytest.raises(ValueError, match="overflow int64"):
            CantorSpec.uniform(3, (1,), 20, 2).cells()            # 3^40 > 2^63


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
            # a pad of 2m + 2 gives 324 and 49 cells a side in 2-D and 3-D: several slabs
            pad = 2 * m + 2
            f = _distance_field(BoxSet(n, m, mask), pad)
            occ = np.zeros((m + 2 * pad,) * n, dtype=bool)
            occ[(slice(pad, pad + m),) * n] = mask
            assert np.array_equal(f.dist, ndimage.distance_transform_edt(~occ, sampling=1.0 / m))

    @pytest.mark.parametrize("n,base,depth", [(1, 3, 5), (2, 4, 3), (3, 3, 2)])
    def test_padding_leaves_distances_unchanged(self, n, base, depth):
        # a decider pads its field only as far as its queries read, so the
        # distances it reads must be those of any wider padding, bit for bit
        rng = np.random.default_rng(60 + n)
        cantor = cantor_generate(CantorSpec.uniform(base, (0, base - 1), depth, n), n)
        m = cantor.m
        corner = np.zeros((m,) * n, dtype=bool)
        corner.flat[-1] = True
        sets = [cantor, BoxSet(n, m, corner)] + [
            BoxSet(n, m, rng.random((m,) * n) < density) for density in (0.01, 0.2, 0.6)]
        for x in sets:
            assert x.occupied_count > 0
            wide = _distance_field(x, m)
            for pad in (0, 1, 3, 7):
                f = _distance_field(x, pad)
                cut = wide.pad - pad
                shared = wide.dist[(slice(cut, cut + f.dist.shape[0]),) * n]
                assert np.array_equal(f.dist.view(np.uint64), shared.view(np.uint64)), pad


class TestWindowMax:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_windows_equal_a_bruteforce_max_inside_the_field(self, n, w):
        # the window at i covers i - w//2 .. i + (w-1)//2, as in
        # ndimage.maximum_filter; a box of positions whose windows reach past
        # the field is refused, at either edge
        rng = np.random.default_rng(10 * n + w)
        side = 15
        f = _Field(rng.random((side,) * n), 3, 0.1, n)
        lo, hi = np.full(n, w // 2), np.full(n, side - 1 - (w - 1) // 2)
        wm = _WindowMax.build(f, w, lo, hi)
        assert np.array_equal(wm.start, lo) and wm.crop.shape == (hi[0] - lo[0] + 1,) * n
        for pos in itertools.product(range(lo[0], hi[0] + 1), repeat=n):
            window = f.dist[tuple(slice(p - w // 2, p + (w - 1) // 2 + 1) for p in pos)]
            assert window.size == w**n
            assert wm.crop[tuple(p - lo[0] for p in pos)] == window.max()
        step = np.eye(n, dtype=int)
        for a in range(n):
            for box in ((lo - step[a], hi), (lo, hi + step[a])):
                with pytest.raises(ResolutionError):
                    _WindowMax.build(f, w, *box)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_box_keeps_the_values_and_the_first_argmin_of_the_whole_field(self, n):
        # every window over a cropped box has the value of a filter over the
        # whole field; ties in a field of few levels pin the raster order
        from scipy import ndimage

        rng = np.random.default_rng(70 + n)
        for _ in range(10):
            side = int(rng.integers(12, 20))
            f = _Field(np.floor(rng.random((side,) * n) * 4), 2, 0.1, n)
            w = int(rng.integers(1, 6))
            lo = rng.integers(w // 2, side // 2, n)
            hi = lo + rng.integers(0, side // 2 - (w - 1) // 2, n)
            full = ndimage.maximum_filter(f.dist, size=w, mode="constant", cval=-np.inf)
            box = full[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
            wm = _WindowMax.build(f, w, lo, hi)
            assert np.array_equal(wm.crop, box)
            pos = np.array(np.unravel_index(np.argmin(box), box.shape))
            assert wm.argmin(f)[0] == box.min()
            assert np.array_equal(wm.argmin(f)[1], f.center(pos + lo))


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
    def test_a_bound_at_or_above_the_minimum_changes_nothing(self, n):
        # a bound equal to the minimum prunes every anchor above it at the
        # first chunk, and keeps the tied ones
        rng = np.random.default_rng(40 + n)
        for levels in (None, 3):
            for _ in range(10):
                dist, anchors, offsets = self.case(rng, n, levels)
                want = _segment_min(dist, anchors, offsets)
                for bound in (want[0], want[0] + 0.5, np.inf):
                    assert _segment_min(dist, anchors, offsets, bound) == want

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


def reference_bisection(x, a0, a1, kind, directions, iters=20):
    """The bisection of ``max_certified_nu`` with every query on a fresh
    decider built for nu_max = 1: no sizing, no reused segment minima."""
    def certified(nu):
        rep = _Decider(x, a0, a1, kind, directions, 1.0).decide(nu)
        return rep.verdict is Verdict.CERTIFIED

    lo, hi = 4.0 * x.delta / a0, 1.0
    if lo > 1.0 or not certified(lo):
        return 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo


def whole_field_report(x, nu, a0, a1, kind, directions):
    """A decision by the whole-field build: the distance field padded by
    a1*(1 + nu) + 6*delta*sqrt(n), every windowed max filtered over the
    whole field, minima over the window positions that cover the cube
    fattened by r/2 + nu*r + 2*delta, and every anchor's full segment max."""
    from scipy import ndimage

    n, d = x.n, x.delta
    sq = math.sqrt(n)
    if kind == "ball":
        dirs, cert_slack, ce_slack = None, d * max(1.0, sq / 2.0), d * sq
    else:
        dirs = direction_set(n, directions if n > 1 else 1)
        cert_slack, ce_slack = 2.0 * d * sq, d * sq + d / 2.0
    pad = int(math.ceil((a1 * (1.0 + nu) + 6 * d * sq) / d)) + 2
    occ = np.zeros((x.m + 2 * pad,) * n, dtype=bool)
    occ[(slice(pad, pad + x.m),) * n] = x.mask
    dist = ndimage.distance_transform_edt(~occ, sampling=d)

    origin = -pad * d

    def region(reach, wlo, whi):
        lo = max(wlo, int(math.floor((-reach - origin) / d)) - 1)
        hi = min(dist.shape[0] - 1 - whi, int(math.ceil((1.0 + reach - origin) / d)) + 1)
        return lo, hi

    def center(idx):
        return (np.array(idx) - pad + 0.5) * d

    rs = scale_ladder(a0, a1)
    margins, verdicts, witness = np.zeros(len(rs)), [], None
    for k, r in enumerate(rs):
        reach = r / 2.0 + nu * r + 2 * d
        found = None
        if dirs is None or n == 1:
            def window_min(w):
                full = ndimage.maximum_filter(dist, size=w, mode="constant", cval=-np.inf)
                lo, hi = region(reach, w // 2, (w - 1) // 2)
                box = full[(slice(lo, hi + 1),) * n]
                pos = np.unravel_index(np.argmin(box), box.shape)
                return float(box[pos]), center(np.array(pos) + lo)

            if kind == "ball":
                w_cert = int(math.floor((r - d * sq) / (sq * d)))
                w_ce = int(math.ceil((r + d * sq) / d))
            else:
                w_cert, w_ce = max(1, int(math.floor(r / d))), int(math.ceil(r / d)) + 1
            m_cert = window_min(w_cert)[0] if w_cert >= 1 else -np.inf
            margins[k] = (m_cert - cert_slack) / (nu * r)
            verdict = Verdict.INCONCLUSIVE
            if m_cert >= nu * r + cert_slack:
                verdict = Verdict.CERTIFIED
            else:
                m_ce, c = window_min(w_ce)
                if m_ce < nu * r - ce_slack:
                    verdict = Verdict.COUNTEREXAMPLE
                    found = (BallWitness(c, float(r)) if dirs is None
                             else LineWitness(c, dirs[0].copy(), float(r)))
        else:
            lo, hi = region(reach, 0, 0)
            low_cut = nu * r + cert_slack
            anchors = np.argwhere(dist[(slice(lo, hi + 1),) * n] < low_cut) + lo
            worst, verdict = np.inf, Verdict.CERTIFIED
            for u in dirs:
                segmax = np.full(len(anchors), -np.inf)
                for off in _segment_offsets(u, r, d):
                    np.maximum(segmax, dist[tuple((anchors + off).T)], out=segmax)
                i = int(np.argmin(segmax))
                worst = min(worst, segmax[i])
                if segmax[i] < low_cut:
                    if segmax[i] < nu * r - ce_slack:
                        verdict = Verdict.COUNTEREXAMPLE
                        found = found or LineWitness(center(anchors[i]), u.copy(), float(r))
                    elif verdict is Verdict.CERTIFIED:
                        verdict = Verdict.INCONCLUSIVE
            margins[k] = (worst - cert_slack) / (nu * r)
        verdicts.append(verdict)
        witness = witness or found
    return PorosityReport(kind, nu, a0, a1, rs.copy(), margins, verdicts,
                          porosity._combine(verdicts), witness,
                          directions=None if dirs is None else len(dirs))


def mutant(monkeypatch, name, old, new):
    """Replace porosity.<name> by a copy whose source has ``old`` put as ``new``."""
    src = inspect.getsource(getattr(porosity, name))
    assert src.count(old) == 1
    scope = dict(vars(porosity))
    exec(compile(src.replace(old, new), f"<mutant {name}>", "exec"), scope)
    monkeypatch.setattr(porosity, name, scope[name])


def scattered2(m=48, seed=11):
    return BoxSet(2, m, np.random.default_rng(seed).random((m, m)) < 0.02)


def two_dots(m=64):
    """Two cells about 0.3 apart along the first axis.  A segment of length
    0.6 along that axis, from an anchor at distance d <= 0.15 toward the other
    cell, has max clearance about 0.3 - d, so the segment minimum falls as nu
    admits anchors farther from the set."""
    mask = np.zeros((m, m), dtype=bool)
    mask[[int(0.35 * m), int(0.65 * m)], m // 2] = True
    return BoxSet(2, m, mask)


def dust3(depth=2):
    return cantor_generate(CantorSpec.uniform(4, (0, 3), depth, 3), 3)


class TestBisectionWork:
    """A bisection builds one decider for nu up to 1 and reuses segment
    minima across queries; its result must not move."""

    CASES = [
        (cantor1, 1 / 3, 1.0, "ball", 8),
        (cantor1, 0.6, 1.0, "line", 8),
        (dust2, 0.8, 1.0, "ball", 6),
        (dust2, 0.8, 1.0, "line", 6),
        (dust2, 0.5, 1.0, "line", 6),
        (dust2, 0.8, 1.0, "line", 12),
        (two_dots, 0.6, 0.6, "line", 6),
        (two_dots, 0.6, 0.6, "ball", 6),
        (dust3, 0.5, 1.0, "line", 8),      # not certified at the floor: 0
    ]
    # line sets in n >= 2 for decisions in random order, with the top of the
    # nu range drawn from
    ORDERED = [(dust2, 0.8, 1.0, 6, 1.0), (two_dots, 0.6, 0.6, 6, 0.3),
               (scattered2, 0.5, 1.0, 6, 1.0), (dust3, 0.5, 0.6, 8, 1.0)]

    @pytest.mark.parametrize("make, a0, a1, kind, dirs", CASES)
    def test_bisection_equals_the_reference(self, make, a0, a1, kind, dirs):
        x = make()
        got = max_certified_nu(x, a0, a1, kind, dirs)
        assert got.hex() == reference_bisection(x, a0, a1, kind, dirs).hex()
        assert (got > 0) is (make is not dust3)

    @staticmethod
    def builds(monkeypatch):
        built = []
        init = _Decider.__init__

        def spy(self, x, alpha0, alpha1, kind, directions, nu_max):
            built.append(nu_max)
            init(self, x, alpha0, alpha1, kind, directions, nu_max)

        monkeypatch.setattr(_Decider, "__init__", spy)
        return built

    def test_one_build_for_one(self, monkeypatch):
        built = self.builds(monkeypatch)
        x = dust2()
        assert max_certified_nu(x, 0.8, 1.0, "line", 6) < 0.5
        assert built == [1.0]

    @pytest.mark.parametrize("n, kind", [(1, "ball"), (2, "line")])
    def test_a_certified_first_midpoint_builds_no_second_decider(self, monkeypatch, n, kind):
        built = self.builds(monkeypatch)
        x = BoxSet.empty(n, 32)
        got = max_certified_nu(x, 0.5, 1.0, kind, 6)
        assert built == [1.0]
        assert got.hex() == reference_bisection(x, 0.5, 1.0, kind, 6).hex()
        assert got == 1.0 - (1.0 - 0.25) / 2**20

    @staticmethod
    def order_disagreements(seed=5, count=12):
        """Decisions on one decider, in random order, that differ from those
        of fresh deciders: in text from one built for 1, in verdict and
        margins from one built for that nu alone."""
        rng = np.random.default_rng(seed)
        bad = 0
        for make, a0, a1, dirs, nu_hi in TestBisectionWork.ORDERED:
            x = make()
            shared = _Decider(x, a0, a1, "line", dirs, 1.0)
            for nu in rng.uniform(4.0 * x.delta / a0, nu_hi, count).tolist():
                got = shared.decide(nu)
                fresh = _Decider(x, a0, a1, "line", dirs, 1.0).decide(nu)
                alone = _Decider(x, a0, a1, "line", dirs, nu).decide(nu)
                bad += (got.to_text() != fresh.to_text() or got.verdict is not alone.verdict
                        or not np.array_equal(got.margins, alone.margins))
        return bad

    def test_decisions_in_random_order_equal_fresh_ones(self):
        assert self.order_disagreements() == 0

    @pytest.mark.parametrize("make, a0, kind, dirs, count", [
        (cantor1, 1 / 3, "ball", 8, 30), (cantor1, 1 / 3, "line", 8, 30),
        (thirds2, 0.5, "ball", 6, 30), (thirds2, 0.5, "line", 6, 30)])
    def test_a_build_for_one_reports_what_a_build_for_nu_does(self, make, a0, kind, dirs,
                                                              count):
        # witnesses sit at cell centers counted from the unit cube, so the
        # padding of the field, which grows with nu_max, cannot move them
        x = make()
        rng = np.random.default_rng(11)
        witnessed = 0
        for nu in rng.uniform(4.0 * x.delta / a0, 1.0, count).tolist():
            wide = _Decider(x, a0, 1.0, kind, dirs, 1.0).decide(nu)
            alone = _Decider(x, a0, 1.0, kind, dirs, nu).decide(nu)
            assert wide.to_text() == alone.to_text(), nu
            if wide.witness is not None:
                witnessed += 1
                c = wide.witness.center if kind == "ball" else wide.witness.midpoint
                cell = np.round(c / x.delta - 0.5)
                assert np.array_equal(c, (cell + 0.5) * x.delta), nu
        assert witnessed >= count // 3

    def test_reusing_a_minimum_found_at_a_smaller_nu_is_caught(self, monkeypatch):
        # a smaller nu has fewer anchors, so its minimum only bounds a larger nu's
        mutant(monkeypatch, "_recall", "if q >= nu and is_anchor", "if q <= nu and is_anchor")
        assert self.order_disagreements() > 0

    def test_pruning_ties_is_caught(self, monkeypatch):
        # a reused bound often equals the minimum; dropping the anchors that
        # tie it loses the minimum, or every anchor
        mutant(monkeypatch, "_segment_min", "keep = part <= bound", "keep = part < bound")
        try:
            assert self.order_disagreements() > 0
        except ValueError:      # np.argmin over no live anchor
            pass


def lone(n, m, cell):
    mask = np.zeros((m,) * n, dtype=bool)
    mask[cell] = True
    return BoxSet(n, m, mask)


class TestTrimmedBuild:
    """A decider reads the distance field only around the set's bounding box;
    its reports must be those of the whole-field build, bit for bit."""

    @staticmethod
    def cases():
        """(set, alpha0, alpha1) in 1-D to 3-D: random sets, lone cells far
        from the cube's center, and in 1-D and 2-D alpha1 = 2.5 alpha0 next
        to alpha1 = alpha0 (3-D keeps the whole-field build small)."""
        rng = np.random.default_rng(90)
        out = []
        for n, m, stretches in ((1, 96, (1.0, 2.5)), (2, 24, (1.0, 2.5)), (3, 12, (1.0,))):
            sets = []
            for density in (0.03, 0.3):
                mask = rng.random((m,) * n) < density
                mask[tuple(rng.integers(0, m, n))] = True
                sets.append(BoxSet(n, m, mask))
            sets += [lone(n, m, (0,) * n), lone(n, m, (m - 1,) * n),
                     lone(n, m, tuple(rng.integers(0, m, n)))]
            for x in sets:
                a0 = float(rng.uniform(5 * x.delta, 0.5))
                out += [(x, a0, k * a0) for k in stretches]
        return out

    @classmethod
    def disagreements(cls, per_case=3):
        """Reports at random nu, from one decider built for 1 and from one
        built for that nu, that differ from the whole-field build in text or
        in a margin's bits; and the verdicts the whole-field build gave."""
        rng = np.random.default_rng(91)
        bad, verdicts = 0, set()
        for x, a0, a1 in cls.cases():
            for kind in ("ball", "line"):
                shared = porosity._Decider(x, a0, a1, kind, 6, 1.0)
                for nu in rng.uniform(4.0 * x.delta / a0, 1.0, per_case).tolist():
                    want = whole_field_report(x, nu, a0, a1, kind, 6)
                    verdicts.add(want.verdict)
                    alone = porosity._Decider(x, a0, a1, kind, 6, nu)
                    for got in (shared.decide(nu), alone.decide(nu)):
                        bad += (got.to_text() != want.to_text()
                                or list(map(float.hex, got.margins))
                                != list(map(float.hex, want.margins)))
        return bad, verdicts

    def test_reports_equal_the_whole_field_build(self):
        bad, verdicts = self.disagreements()
        assert bad == 0
        assert verdicts == set(Verdict)

    def test_a_box_one_cell_short_of_the_set_is_caught(self, monkeypatch):
        # the first cell of the set's box on an axis often holds the minimum,
        # always for a lone cell
        mutant(monkeypatch, "_set_box", "lo.append(int(rows[0]))",
               "lo.append(int(rows[0]) + 1)")
        assert self.disagreements()[0] > 0


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


def structuring_element_dilation(x: BoxSet, radius: float) -> np.ndarray:
    """The neighborhood by its definition: dilation by every offset d whose
    closed-cell gap, (max(|d_i| - 1, 0) delta)_i, is below the radius."""
    from scipy import ndimage

    k = int(math.ceil(radius / x.delta)) + 1
    grids = np.meshgrid(*([np.arange(-k, k + 1)] * x.n), indexing="ij")
    gap = sum((np.maximum(np.abs(g) - 1, 0).astype(np.float64) * x.delta) ** 2 for g in grids)
    se = np.sqrt(gap) < radius - 1e-12 * x.delta
    return ndimage.binary_dilation(x.mask, structure=se)


class TestNeighborhood:
    @pytest.mark.parametrize("n, depth", [(1, 4), (2, 3), (3, 2)])
    def test_equals_the_structuring_element_dilation(self, n, depth):
        rng = np.random.default_rng(50 + n)
        cantor = cantor_generate(CantorSpec.uniform(3, (0, 2), depth, n), n)
        m = cantor.m
        scattered = BoxSet(n, m, rng.random((m,) * n) < 0.04)
        for x in (cantor, scattered):
            d = x.delta
            # exact multiples of the pitch and exact gaps sqrt(j) cells sit on
            # the strict threshold
            radii = ([k * d for k in range(1, 7)] + [math.sqrt(j) * d for j in (2, 3, 5, 8, 13)]
                     + list(rng.uniform(d, 6 * d, 4)))
            for a2 in radii:
                assert np.array_equal(neighborhood(x, a2).mask,
                                      structuring_element_dilation(x, a2)), (n, a2)

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


class TestBlockedRecheck:
    """The re-check settles a block of probes by one nearest-cell query; its
    answer must be that of every probe's exact distance, at every nu."""

    # (set, kind, nu, alpha0, alpha1): decisions that return a witness
    DECISIONS = [(cantor1, "ball", 0.18, 1 / 3, 1.0), (dust2, "ball", 0.5, 0.8, 1.0),
                 (thirds2, "ball", 0.5, 0.5, 1.0), (dust2, "line", 0.5, 0.8, 1.0),
                 (dust3, "ball", 0.6, 0.5, 1.0)]
    SHIFTS = (0, 2, -3)      # cells, on every axis

    @staticmethod
    def flip(worst: float, r: float) -> tuple[float, float]:
        """Adjacent nu_lo < nu_hi where the brute-force answer, worst < nu*r,
        turns from false to true, found by bisecting on that answer."""
        lo, hi = 0.0, 1.0
        while not worst < hi * r:
            lo, hi = hi, 2.0 * hi
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if worst < mid * r else (mid, hi)
        return lo, hi

    @classmethod
    def disagreements(cls):
        """(case, nu) where the re-check differs from the brute-force answer,
        over every decision's witness and shift, at the decision's nu and on
        both sides of the flip."""
        bad = []
        for make, kind, nu, a0, a1 in cls.DECISIONS:
            x = make()
            rep = _Decider(x, a0, a1, kind, 6, nu).decide(nu)
            assert rep.verdict is Verdict.COUNTEREXAMPLE
            w = rep.witness
            for shift in cls.SHIFTS:
                if kind == "ball":
                    ws = BallWitness(w.center + shift * x.delta, w.scale)
                else:
                    ws = LineWitness(w.midpoint + shift * x.delta, w.direction, w.scale)
                pts = witness_probes(x, ws)
                worst = max(true_distance(pts[s:s + 4096], x).max()
                            for s in range(0, len(pts), 4096))
                for q in (nu, *cls.flip(worst, ws.scale)):
                    if porosity._witness_holds(x, q, ws) is not bool(worst < q * ws.scale):
                        bad.append((make.__name__, kind, shift, q))
        return bad

    def test_equals_the_bruteforce_definition_check(self):
        assert self.disagreements() == []

    def test_equals_the_bruteforce_one_probe_row_at_a_time(self, monkeypatch):
        # a slab of 1 probe builds the unsettled probes one first-axis row at a time
        monkeypatch.setattr(porosity, "_RECHECK_SLAB", 1)
        assert self.disagreements() == []

    def test_a_halved_block_radius_is_caught(self, monkeypatch):
        # a sweep of nu misses it; at the flip the worst probe's block settles
        old = "np.linalg.norm(last - first, axis=1) / 2.0"
        mutant(monkeypatch, "_witness_holds", old, old.replace("2.0", "4.0"))
        assert self.disagreements() != []

    @pytest.mark.parametrize("make, alpha0", [
        (lambda: cantor_generate(CantorSpec.uniform(4, (0, 3), 4, 2), 2), 0.8),
        (lambda: cantor_generate(CantorSpec.uniform(3, (0, 2), 4, 3), 3), 1.0)],
        ids=["dust-256^2", "dust-81^3"])
    def test_a_settled_witness_queries_one_point_per_block(self, monkeypatch, make, alpha0):
        import scipy.spatial

        queried = []

        class Counting(scipy.spatial.cKDTree):
            def query(self, pts, *args, **kwargs):
                queried.append(len(pts))
                return super().query(pts, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Counting)
        x = make()
        w = ball_porosity_check(x, 0.9, alpha0, 1.0).witness
        blocks = math.prod(
            math.ceil(len(np.arange(c - w.scale / 2, c + w.scale / 2 + x.delta / 4, x.delta / 2))
                      / porosity._RECHECK_BLOCK) for c in w.center)
        assert 0 < sum(queried) <= blocks


class TestRecheckExactStage:
    """The re-check's last stage measures a probe only against the cells whose
    centres lie within nu*R + delta sqrt(n)/2 of it; its answer must be that
    of every probe's exact distance to every cell."""

    @staticmethod
    def all_near(points, x, bound):
        from scipy.spatial import cKDTree

        boxes = x.occupied_boxes()
        return porosity._all_near(points, x, cKDTree(boxes[0] + x.delta / 2), boxes, bound)

    @staticmethod
    def box_distance(points, x):
        """Distance to every cell's box as the re-check forms it (corners from
        ``occupied_boxes``, whose upper corners round unlike ``true_distance``'s)."""
        lo, hi = x.occupied_boxes()
        gap = np.maximum(lo[None, :, :] - points[:, None, :], points[:, None, :] - hi[None, :, :])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        return np.sqrt(gap.sum(axis=2)).min(axis=1)

    def test_a_failing_recheck_on_the_81_cubed_dust_is_quick(self):
        # measured against every occupied cell this took 50 s and 285 MB at nu = 0.1
        x = cantor_generate(CantorSpec.uniform(3, (0, 2), 4, 3), 3)
        w = ball_porosity_check(x, 0.9, 1.0, 1.0).witness
        start = time.perf_counter()
        assert [_witness_holds(x, nu, w) for nu in (0.1, 0.2, 0.3)] == [False, False, True]
        assert time.perf_counter() - start < 2.0

    def test_a_witness_with_one_far_probe_fails(self):
        # cells [0, 40/64) occupied; of the probes 0.25, 0.25 + 1/128, ..., 0.75
        # only 0.75 lies 1/8 from the set, the next 1/8 - 1/128
        mask = np.zeros(64, dtype=bool)
        mask[:40] = True
        x = BoxSet(1, 64, mask)
        w = BallWitness(np.array([0.5]), 0.5)
        dist = true_distance(witness_probes(x, w), x)
        assert np.count_nonzero(dist >= 0.12) == 1 and dist.max() == 0.125
        assert not _witness_holds(x, 0.24, w)
        assert _witness_holds(x, 0.26, w)

    def test_a_probe_decided_by_its_box_distance(self):
        # one cell [0, 1/16)^2; a probe right of it at mid-height lies a from the
        # box and 1/32 + a from the centre, which the stage must not mistake for it
        mask = np.zeros((16, 16), dtype=bool)
        mask[0, 0] = True
        x = BoxSet(2, 16, mask)
        a, delta = 0.1, 1 / 16
        p = np.array([[delta + a, delta / 2]])
        assert self.box_distance(p, x)[0] == pytest.approx(a, rel=1e-15)
        assert self.all_near(p, x, a + 0.01)                       # centre farther than bound
        assert not self.all_near(p, x, a - 0.1 * delta)           # centre within reach
        assert not self.all_near(p, x, a - delta)                  # no centre within reach

    @pytest.mark.parametrize("pairs", [1 << 20, 7])
    def test_equals_the_bruteforce_at_the_flip(self, monkeypatch, pairs):
        # 7 pairs a chunk splits the points into chunks of one to a few points
        monkeypatch.setattr(porosity, "_RECHECK_PAIRS", pairs)
        rng = np.random.default_rng(93)
        for n, m, fill in ((1, 200, 0.05), (2, 24, 0.1), (2, 64, 0.3), (3, 10, 0.1)):
            x = BoxSet(n, m, rng.random((m,) * n) < fill)
            pts = rng.random((500, n))
            worst = self.box_distance(pts, x).max()
            assert not self.all_near(pts, x, worst), (n, m)
            assert self.all_near(pts, x, np.nextafter(worst, np.inf)), (n, m)


class TestResolutionAndRangeGuards:
    def test_cantor_resolution_overflow(self):
        with pytest.raises(ResolutionError):
            cantor_generate(CantorSpec.uniform(3, (0, 2), 15, 1), 1)

    @pytest.mark.parametrize("m, n, refused", [
        (10**7, 1, False), (10**7 + 1, 1, True),        # cells per axis
        (11585, 2, False), (11586, 2, True),            # 16 bytes a cell in 2 GiB
        (475, 3, False), (476, 3, True),                # 20 bytes a cell in 2 GiB
    ])
    def test_grid_budget_edge(self, m, n, refused):
        if refused:
            with pytest.raises(ResolutionError, match=f"a mask of {m} cells per axis in {n}-D"):
                _require_grid_budget(m, n)
        else:
            _require_grid_budget(m, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_raster_over_budget_is_refused_before_it_is_allocated(self, n):
        # 10^12 cells in all; the raster alone would take 931 GiB
        m = round(10 ** (12 / n))
        with pytest.raises(ResolutionError, match="overflows the grid budget"):
            BoxSet.from_boxes([((0.1,) * n, (0.2,) * n)], m, n)

    def test_direction_count_floor(self):
        with pytest.raises(ValueError):
            direction_set(2, 3)

    def test_scale_range_validation(self):
        with pytest.raises(ValueError):
            scale_ladder(0.5, 0.2)

    @staticmethod
    def no_field(monkeypatch):
        """Make building a distance field raise, so that a refusal that comes
        too late cannot exhaust memory."""
        class Built(Exception):
            pass

        def fail(*args):
            raise Built

        monkeypatch.setattr(porosity, "_distance_field", fail)
        return Built

    @pytest.mark.parametrize("make, kind, nu, alpha0, alpha1", [
        (lambda: cantor_generate(CantorSpec.uniform(3, (0, 2), 4, 4), 4), "ball", 0.5, 1.0, 1.0),
        (cantor1, "ball", 0.5, 1 / 3, 1e300),
        (cantor1, "line", 0.5, 1 / 3, 1e308),      # alpha1/delta overflows to inf
        (dust2, "line", 0.5, 0.8, 1e300),
    ], ids=["4d-cantor", "1d-ball-huge-scale", "1d-line-scale-past-floats", "2d-line"])
    def test_a_field_over_budget_is_refused_before_it_is_built(self, monkeypatch, make, kind,
                                                                 nu, alpha0, alpha1):
        self.no_field(monkeypatch)
        decide = ball_porosity_check if kind == "ball" else line_porosity_check
        with pytest.raises(ResolutionError, match="GiB budget"):
            decide(make(), nu, alpha0, alpha1)

    def test_the_largest_field_in_use_fits(self, monkeypatch):
        # a line bisection over [1/3, 1] on the 81^3 dust pads to 339^3 cells,
        # about 0.78 GB with the feature transform
        built = self.no_field(monkeypatch)
        with pytest.raises(built):
            _Decider(cantor_generate(CantorSpec.uniform(3, (0, 2), 4, 3), 3), 1 / 3, 1.0,
                     "line", 8, 1.0)
