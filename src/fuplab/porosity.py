r"""Porous subsets of the unit cube: representations, deciders, verifiers.

A Cantor spec answers its cells from its digits; a bit mask over [0,1]^n
(cell occupied iff it meets the set) is built only where a grid is the point,
as for the two deciders, which probe porosity at a ladder of scales:

* on balls: every ball of diameter R in the scale range contains a point
  whose nu*R-ball misses the set;
* on lines: every segment of length R contains such a point.

Decisions about a rasterized set are only meaningful up to resolution, so
verdicts are three-valued.  ``COUNTEREXAMPLE`` is always sound: before
``ball_porosity_check`` or ``line_porosity_check`` returns one, it re-checks
the witness against the definition by direct distance computation, and raises
``ArithmeticError`` if the witness fails.  ``max_certified_nu`` reads only
verdicts and prints no witness, so its bisection steps skip the re-check.
``CERTIFIED`` is sound for balls up to the explicit slack folded into the
thresholds, and for lines additionally up to the sampled direction set, whose
size is recorded in the report.

The transformation lemmas (affine images, neighborhoods, bi-Lipschitz images)
are implemented as raster constructors plus paired verifiers, so each lemma
becomes a falsifiable property of the checker itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "Verdict",
    "CantorSpec",
    "BoxSet",
    "PorosityReport",
    "BallWitness",
    "LineWitness",
    "ResolutionError",
    "cantor_generate",
    "ball_porosity_check",
    "line_porosity_check",
    "max_certified_nu",
    "scale_ladder",
    "direction_set",
    "affine_image",
    "neighborhood",
    "bilipschitz_image",
    "estimate_bilipschitz_constant",
    "estimate_second_derivative_bound",
    "verify_affine_lemma",
    "verify_neighborhood_lemma",
    "verify_bilipschitz_lemma",
]


class ResolutionError(ValueError):
    """Grid resolution too coarse for the requested scales."""


class Verdict(enum.Enum):
    CERTIFIED = "certified-porous"
    COUNTEREXAMPLE = "counterexample-found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CantorSpec:
    """Self-similar test family: keep ``digits[axis]`` base-``base`` digits."""

    base: int
    digits: tuple[tuple[int, ...], ...]
    depth: int

    def __post_init__(self):
        if not self.digits:
            raise ValueError("a Cantor set needs at least one axis")
        if self.base < 3:
            raise ValueError("base must be >= 3")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        for axis_digits in self.digits:
            if not 1 <= len(set(axis_digits)) < self.base:
                raise ValueError("kept digits must be a proper nonempty subset")
            if any(not 0 <= d < self.base for d in axis_digits):
                raise ValueError("digit out of range")

    @classmethod
    def uniform(cls, base: int, kept: tuple[int, ...], depth: int, n: int) -> "CantorSpec":
        return cls(base, tuple(tuple(sorted(set(kept))) for _ in range(n)), depth)

    def cells(self) -> np.ndarray:
        """Kept cells of the base^depth-per-axis grid as increasing flat row-major
        indices, from the digits alone: axis by axis, coarsest digit first."""
        if self.base ** (self.depth * len(self.digits)) > 2 ** 63:
            raise ValueError("the flat indices of this grid overflow int64")
        flat = np.zeros(1, dtype=np.int64)
        for axis_digits in self.digits:
            for _ in range(self.depth):
                flat = (flat[:, None] * self.base + sorted(set(axis_digits))).reshape(-1)
        return flat


@dataclass(frozen=True)
class BoxSet:
    """A finite union of grid cells of pitch 1/m inside [0,1]^n."""

    n: int
    m: int
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.shape != (self.m,) * self.n:
            raise ValueError(f"mask shape {self.mask.shape} does not match m={self.m}, n={self.n}")
        self.mask.setflags(write=False)

    @property
    def delta(self) -> float:
        return 1.0 / self.m

    @property
    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @classmethod
    def empty(cls, n: int, m: int) -> "BoxSet":
        return cls(n, m, np.zeros((m,) * n, dtype=bool))

    @classmethod
    def full(cls, n: int, m: int) -> "BoxSet":
        return cls(n, m, np.ones((m,) * n, dtype=bool))

    @classmethod
    def from_boxes(cls, boxes, m: int, n: int) -> "BoxSet":
        """Cells intersecting any of the closed boxes [lo, hi] (coordinates in [0,1]).

        ``boxes`` is a sequence of (lo, hi) corner pairs, each corner of n
        coordinates.  On each axis a box meets cells floor(lo m + 1e-9) ..
        ceil(hi m - 1e-9) - 1, clipped to the grid.
        """
        if m < 1 or n < 1:
            raise ValueError("a box set needs a resolution and dims of at least 1")
        try:
            corners = np.asarray(boxes, dtype=np.float64) if len(boxes) else np.empty((0, 2, n))
        except ValueError:          # corners of unequal lengths
            corners = None
        if corners is None or corners.shape != (len(boxes), 2, n) or not np.isfinite(corners).all():
            raise ValueError(f"every box needs two finite corners of {n} coordinates")
        _require_grid_budget(m, n)
        mask = np.zeros((m,) * n, dtype=bool)
        first = np.maximum(np.floor(corners[:, 0] * m + 1e-9).astype(np.int64), 0)
        last = np.minimum(np.ceil(corners[:, 1] * m - 1e-9).astype(np.int64) - 1, m - 1)
        keep = np.all(first <= last, axis=1)
        for f, l in zip(first[keep], last[keep]):
            mask[tuple(slice(a, b + 1) for a, b in zip(f, l))] = True
        return cls(n, m, mask)

    def occupied_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.argwhere(self.mask)
        return idx * self.delta, (idx + 1) * self.delta


# grid budgets: cells per axis of a mask built from boxes or Cantor digits, and
# bytes of a decider's padded distance field with its feature transform.  A
# mask whose unpadded field alone (8 + 4n bytes a cell) would pass the latter
# is refused as well: no decider could read it.
_GRID_CELLS_PER_AXIS = 10**7
_FIELD_BYTES = 2 << 30


def _require_grid_budget(m: int, n: int) -> None:
    """Refuse a mask of m cells per axis in n-D over the grid budget, before it is allocated."""
    if m > _GRID_CELLS_PER_AXIS or m ** n * (8 + 4 * n) > _FIELD_BYTES:
        raise ResolutionError(f"a mask of {m} cells per axis in {n}-D overflows the grid budget")


def cantor_generate(spec: CantorSpec, n: int) -> BoxSet:
    """Depth-K iterate of the Cantor construction: the spec's cells as a grid mask."""
    if len(spec.digits) != n:
        raise ValueError(f"spec carries {len(spec.digits)} axes, expected {n}")
    m = spec.base ** spec.depth
    _require_grid_budget(m, n)
    mask = np.zeros(m ** n, dtype=bool)
    mask[spec.cells()] = True
    return BoxSet(n, m, mask.reshape((m,) * n))


# ---------------------------------------------------------------------------
# distance field and scale ladder


@dataclass
class _Field:
    """Euclidean distance to the set, sampled at padded cell centers."""

    dist: np.ndarray
    pad: int           # cells of padding before the unit cube, on every axis
    delta: float
    n: int

    def center(self, idx) -> np.ndarray:
        """Center of cell ``idx``, counted from the unit cube so the padding cannot move it."""
        return (np.array(idx) - self.pad + 0.5) * self.delta


def _distance_field(x: BoxSet, pad: int) -> _Field:
    """Distances to the set at the cells of the unit cube padded by ``pad``
    cells on every side.  A distance is that to the nearest occupied cell,
    which lies in the cube whatever the padding, so the values at shared
    cells do not depend on the padding, bit for bit."""
    shape = tuple(x.m + 2 * pad for _ in range(x.n))
    occ = np.zeros(shape, dtype=bool)
    occ[(slice(pad, pad + x.m),) * x.n] = x.mask
    # distances from the feature transform by the formula distance_transform_edt
    # uses, bit for bit, but a slab at a time: its whole-field integer and float
    # temporaries would double the peak memory of a decision
    ft = ndimage.distance_transform_edt(~occ, sampling=x.delta, return_distances=False,
                                        return_indices=True)
    dist = np.empty(shape)
    step = max(1, (1 << 16) // ft[0, 0].size)
    for s in range(0, shape[0], step):
        slab = ft[:, s:s + step]
        sq = np.zeros(slab.shape[1:])
        for a in range(x.n):
            idx = np.arange(slab.shape[1 + a], dtype=ft.dtype) + (s if a == 0 else 0)
            idx = idx.reshape([-1 if b == a else 1 for b in range(x.n)])
            gap = (slab[a] - idx).astype(np.float64)
            gap *= x.delta
            sq += gap * gap
        np.sqrt(sq, out=dist[s:s + step])
    return _Field(dist, pad, x.delta, x.n)


def _require_scales(alpha0: float, alpha1: float) -> None:
    if not 0 < alpha0 <= alpha1:
        raise ValueError("need 0 < alpha0 <= alpha1")


def scale_ladder(alpha0: float, alpha1: float) -> np.ndarray:
    """Geometric ladder of ratio sqrt(2) from alpha0 to alpha1, ends included."""
    _require_scales(alpha0, alpha1)
    out = [alpha0]
    while out[-1] * math.sqrt(2.0) < alpha1 * (1.0 - 1e-12):
        out.append(out[-1] * math.sqrt(2.0))
    if alpha1 > out[-1] * (1.0 + 1e-12):
        out.append(alpha1)
    return np.array(out)


def direction_set(n: int, count: int) -> np.ndarray:
    """Deterministic unit directions: angles on the half-circle for n=2,
    a Fibonacci hemisphere for n=3, the single axis for n=1."""
    if n == 1:
        return np.array([[1.0]])
    if count < 2 * n:
        raise ValueError(f"need at least {2 * n} directions, got {count}")
    if n == 2:
        ang = np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        k = np.arange(count)
        z = (k + 0.5) / count          # hemisphere
        phi = 2.0 * np.pi * k / golden
        r = np.sqrt(1.0 - z**2)
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise ValueError("direction sampling implemented for n <= 3")


# ---------------------------------------------------------------------------
# reports and witnesses


@dataclass(frozen=True)
class BallWitness:
    center: np.ndarray
    scale: float


@dataclass(frozen=True)
class LineWitness:
    midpoint: np.ndarray
    direction: np.ndarray
    scale: float


@dataclass
class PorosityReport:
    kind: str
    nu: float
    alpha0: float
    alpha1: float
    scales: np.ndarray
    margins: np.ndarray
    per_scale: list[Verdict]
    verdict: Verdict
    witness: object = None
    directions: int | None = None

    def to_text(self) -> str:
        lines = [
            f"porosity kind={self.kind} nu={self.nu:.17g} "
            f"alpha0={self.alpha0:.17g} alpha1={self.alpha1:.17g}"
            + (f" directions={self.directions}" if self.directions else "")
        ]
        for r, mg, v in zip(self.scales, self.margins, self.per_scale):
            lines.append(f"scale={r:.17g} margin={mg:.17g} verdict={v.value}")
        lines.append(f"overall={self.verdict.value}")
        if isinstance(self.witness, BallWitness):
            c = " ".join(f"{v:.17g}" for v in self.witness.center)
            lines.append(f"witness ball scale={self.witness.scale:.17g} center={c}")
        if isinstance(self.witness, LineWitness):
            c = " ".join(f"{v:.17g}" for v in self.witness.midpoint)
            d = " ".join(f"{v:.17g}" for v in self.witness.direction)
            lines.append(f"witness line scale={self.witness.scale:.17g} midpoint={c} direction={d}")
        if self.witness is not None:
            # ball_porosity_check and line_porosity_check raise on a witness
            # that fails its re-check, so a witness they return has passed it
            lines.append("witness verified")
        return "\n".join(lines) + "\n"


def _require_resolution(x: BoxSet, nu: float, alpha0: float) -> None:
    if not 0 < nu <= 1:
        raise ValueError("need 0 < nu <= 1")
    if x.delta > nu * alpha0 / 4.0 + 1e-15:
        raise ResolutionError(
            f"grid pitch {x.delta:.3g} exceeds nu*alpha0/4 = {nu * alpha0 / 4.0:.3g}")


def _require_field_budget(side, n: int) -> None:
    """Refuse a padded distance field of ``side`` cells per axis that, with its
    feature transform, would take more than the budget at 8 + 4n bytes a cell."""
    if side > _FIELD_BYTES or side ** n * (8 + 4 * n) > _FIELD_BYTES:
        raise ResolutionError(f"a distance field of {float(side):.4g} cells per axis in {n}-D "
                              f"exceeds the {_FIELD_BYTES >> 30} GiB budget; narrow the scales "
                              "or coarsen the grid")


def _set_box(x: BoxSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First and last cell index, per axis and counted from the unit cube, of
    the bounding box [L, H] of a non-empty set, grown by one cell above.

    No window position outside this box holds the minimum over positions of
    a windowed max of the distance field, nor the first position attaining
    it in raster order.  Take a position p outside [L, H] on an axis, and p'
    the same position moved onto the nearest face of the box.  Below the box
    (p = L - s, s >= 1), every cell of the window at p' has a cell in the
    window at p, on the same line along that axis, that is at least s cells
    farther along it from every occupied cell, so the max at p is larger.
    Above it (p = H + s), the same holds with s - 1 cells, so the max at p
    is no smaller; p' comes first in raster order, so p is not the first
    argmin.  The cell added above keeps the ties of s = 1 in the box, should
    rounding break them; every other gap is a whole cell, which rounding
    cannot close.
    """
    lo, hi = [], []
    for a in range(x.n):
        rows = np.flatnonzero(x.mask.any(axis=tuple(b for b in range(x.n) if b != a)))
        lo.append(int(rows[0]))
        hi.append(int(rows[-1]) + 1)
    return tuple(lo), tuple(hi)


@dataclass
class _WindowMax:
    """Max of the distance field over a cubic window of width w, kept at the
    window positions of a box.

    The window at position i covers i - wlo .. i + whi on every axis, with
    wlo = w // 2 and whi = (w - 1) // 2 as in ``ndimage.maximum_filter``, so
    for even w it reaches one cell further down than up.  The build reads
    the field over the box and the windows' reach around it only: it filters
    one axis at a time, cropped to the box on that axis after its pass, and
    a max is exact, so every kept value is that of a filter over the whole
    field."""

    crop: np.ndarray
    start: tuple[int, ...]   # padded-field index of the crop's first position, per axis

    @classmethod
    def build(cls, f: _Field, w: int, lo: tuple[int, ...], hi: tuple[int, ...]) -> "_WindowMax":
        """Windows at the positions lo .. hi (padded-field indices, per axis)."""
        wlo, whi = w // 2, (w - 1) // 2
        if min(lo) < wlo or max(hi) + whi >= f.dist.shape[0]:
            raise ResolutionError("window reaches outside the padded field")
        out = f.dist[tuple(slice(a - wlo, b + whi + 1) for a, b in zip(lo, hi))]
        for a in range(f.n):
            out = ndimage.maximum_filter1d(out, w, axis=a)
            out = out[(slice(None),) * a + (slice(wlo, wlo + hi[a] - lo[a] + 1),)]
        return cls(out, lo)

    def argmin(self, f: _Field) -> tuple[float, np.ndarray]:
        """The min over the kept positions and the center of the first, in
        raster order, that attains it."""
        pos = np.unravel_index(np.argmin(self.crop), self.crop.shape)
        return float(self.crop[pos]), f.center(np.add(pos, self.start))


def _segment_offsets(u: np.ndarray, r: float, delta: float) -> np.ndarray:
    """Distinct cell offsets covering the segment {t*u : |t| <= r/2} at pitch
    delta, coarse to fine along it: both ends, then the cells at every 2^k-th
    place for decreasing k.  The distance field is 1-Lipschitz, so the max over
    a short prefix of this order is already close to the segment's max, which
    lets ``_segment_min`` prune anchors early."""
    ts = np.arange(-r / 2.0, r / 2.0 + delta / 2.0, delta)
    cells = np.round(np.outer(ts, u) / delta).astype(np.int64)
    _, first = np.unique(cells, axis=0, return_index=True)
    along = cells[np.sort(first)]
    place = np.arange(along.shape[0])
    level = place & -place          # the largest power of two dividing the place
    level[0] = level[-1] = 2 * place.size
    return along[np.argsort(-level, kind="stable")]


def _segment_min(dist: np.ndarray, anchors: np.ndarray, offsets: np.ndarray,
                 bound: float = np.inf) -> tuple[float, int]:
    """Minimum over anchors of the max of the distance field over the segment
    offsets, and the first anchor that attains it.  Every anchor + offset must
    lie inside ``dist``, and ``bound`` must not be below the minimum.

    Offsets are gathered in the given order (coarse to fine from
    ``_segment_offsets``), in chunks that double in size.  After each chunk the
    live anchor of smallest partial max gets its full max U, the bound drops
    to U if that is lower, and the anchors whose partial max is strictly above
    the bound drop out.  An anchor attaining the minimum never exceeds the
    bound, so ties survive and the first argmin is that of every anchor's full
    max.
    """
    if (np.any(anchors.min(axis=0) + offsets.min(axis=0) < 0)
            or np.any(anchors.max(axis=0) + offsets.max(axis=0) >= dist.shape)):
        raise ResolutionError("segment reaches outside the padded field")
    strides = np.cumprod((1,) + dist.shape[:0:-1])[::-1]
    flat = dist.ravel()
    steps = offsets @ strides
    live = np.arange(anchors.shape[0])
    base = anchors @ strides
    part = np.full(live.size, -np.inf)
    done, size = 0, 1
    while True:
        for off in steps[done:done + size]:
            np.maximum(part, flat[base + off], out=part)
        done += size
        size *= 2
        if done >= steps.size:
            break
        best = base[int(np.argmin(part))]
        bound = min(bound, float(flat[best + steps].max()))
        keep = part <= bound
        live, base, part = live[keep], base[keep], part[keep]
    pos = int(np.argmin(part))
    return float(part[pos]), int(live[pos])


class _Decider:
    """A porosity decider split into the part that does not depend on nu,
    built once, and a query per nu.

    The build serves every nu up to ``nu_max`` with the verdicts, margins and
    witnesses of a build for that nu alone over the whole padded field, and
    reads the distance field only where a query can find its minimum:

    * balls, and lines in 1-D: a query's margin is the min of a windowed max
      over window positions that cover the cube fattened by r/2 + nu*r, and
      its witness the first position attaining it.  Both lie in the set's
      bounding box (see ``_set_box``), whatever nu, so the build finds them
      there once and a query only compares.  The field reaches the box and
      half the widest window around it.
    * lines in n >= 2: the anchors are the cells of clearance below
      nu*r + slack, all of which lie in the cube fattened by r/2 + nu*r.
      They lie within nu*r + slack of the set's bounding box, where a query
      takes them from, and their segments reach r/2 further.  The field
      reaches nu_max*alpha1 + slack + alpha1/2 around the box.

    A witness sits at a cell center counted from the unit cube, not from the
    padded grid's origin, so the padding cannot move it.

    Lines in n >= 2 keep, per scale and direction, the segment minimum and
    first argmin of every query, which later queries reuse (see ``_recall``),
    so decisions do not depend on the order of the queries.
    """

    def __init__(self, x: BoxSet, alpha0: float, alpha1: float, kind: str,
                 directions: int, nu_max: float):
        _require_scales(alpha0, alpha1)
        _require_resolution(x, nu_max, alpha0)
        self.x, self.alpha0, self.alpha1, self.kind, self.nu_max = x, alpha0, alpha1, kind, nu_max
        n, d = x.n, x.delta
        sq = math.sqrt(n)
        if kind == "ball":
            self.dirs = None
            self.cert_slack = d * max(1.0, sq / 2.0)
            self.ce_slack = d * sq
        else:
            self.dirs = direction_set(n, directions if n > 1 else 1)
            self.cert_slack = 2.0 * d * sq      # anchor + rasterization + lookup slack
            self.ce_slack = d * sq + d / 2.0    # lookup + rasterization + sample-pitch slack
        self.windowed = self.dirs is None or n == 1
        self.rs = scale_ladder(alpha0, alpha1)
        if x.occupied_count == 0:
            return
        # the field spans at least alpha1/delta cells on every axis: wider
        # scales are refused before their cell counts are formed
        _require_field_budget(alpha1 / d, n)
        lo, hi = _set_box(x)
        if self.windowed:
            # per scale, the certifying and the refuting window widths
            if kind == "ball":
                widths = [(int(math.floor((r - d * sq) / (sq * d))),
                           int(math.ceil((r + d * sq) / d))) for r in self.rs]
            else:
                widths = [(max(1, int(math.floor(r / d))), int(math.ceil(r / d)) + 1)
                          for r in self.rs]
            reach = max(w // 2 for pair in widths for w in pair)
        else:
            reach = (int(math.ceil((nu_max * alpha1 + self.cert_slack) / d))
                     + int(math.ceil(alpha1 / (2.0 * d))) + 2)
        # the field reaches ``reach`` cells beyond the set's box on every side
        pad = max(0, reach - min(lo), max(hi) + reach - (x.m - 1))
        _require_field_budget(x.m + 2 * pad, n)
        self.f = f = _distance_field(x, pad)
        lo, hi = tuple(a + f.pad for a in lo), tuple(b + f.pad for b in hi)
        self.box = lo, hi        # the set's box in padded-field indices
        if self.windowed:
            # per scale: the certifying window's min (-inf without one), and the
            # refuting window's min and the center of its first argmin
            self.per_scale = [
                (float(_WindowMax.build(f, w_cert, lo, hi).crop.min()) if w_cert >= 1 else -np.inf,
                 *_WindowMax.build(f, w_ce, lo, hi).argmin(f))
                for w_cert, w_ce in widths]
        else:
            # per scale, the segment offsets of every direction and the segment
            # minima found so far, as (nu, minimum, first argmin)
            self.per_scale = [[(_segment_offsets(u, r, d), []) for u in self.dirs]
                              for r in self.rs]

    def decide(self, nu: float) -> PorosityReport:
        if nu > self.nu_max:
            raise ValueError(f"nu={nu} exceeds the nu_max={self.nu_max} the decider was built for")
        _require_resolution(self.x, nu, self.alpha0)
        rs = self.rs
        margins = np.zeros(len(rs))
        per_scale: list[Verdict] = []
        witness = None
        directions = None if self.dirs is None else len(self.dirs)
        if self.x.occupied_count == 0:
            margins[:] = np.inf
            per_scale = [Verdict.CERTIFIED] * len(rs)
            return PorosityReport(self.kind, nu, self.alpha0, self.alpha1, rs.copy(), margins,
                                  per_scale, Verdict.CERTIFIED, None, directions=directions)
        for k, (r, cached) in enumerate(zip(rs, self.per_scale)):
            if self.windowed:
                verdict_r, margins[k], found = self._windowed(nu, r, *cached)
            else:
                verdict_r, margins[k], found = self._segments(nu, r, cached)
            per_scale.append(verdict_r)
            witness = witness or found
        return PorosityReport(self.kind, nu, self.alpha0, self.alpha1, rs.copy(), margins,
                              per_scale, _combine(per_scale), witness, directions=directions)

    def _windowed(self, nu: float, r: float, m_cert: float, m_ce: float, center: np.ndarray):
        """Balls, and lines in 1-D: a scale is certified when every inscribed
        window holds a cell of clearance >= nu*R + slack, and refuted when some
        circumscribed window has all clearances < nu*R - slack."""
        margin = (m_cert - self.cert_slack) / (nu * r)
        if m_cert >= nu * r + self.cert_slack:
            return Verdict.CERTIFIED, margin, None
        if m_ce < nu * r - self.ce_slack:
            if self.dirs is None:
                return Verdict.COUNTEREXAMPLE, margin, BallWitness(center.copy(), float(r))
            return Verdict.COUNTEREXAMPLE, margin, LineWitness(center.copy(), self.dirs[0].copy(),
                                                               float(r))
        return Verdict.INCONCLUSIVE, margin, None

    def _segments(self, nu: float, r: float, per_dir: list[tuple[np.ndarray, list]]):
        """Lines in n >= 2: segment maxima along each sampled direction."""
        f = self.f
        # anchors whose own clearance certifies them work for every direction;
        # only the rest need per-direction segment maxima.  An occupied cell
        # is always one, and none lies more than low_cut from the set's box.
        low_cut = nu * r + self.cert_slack
        near = int(math.ceil(low_cut / f.delta)) + 1
        lo, hi = [a - near for a in self.box[0]], [b + near for b in self.box[1]]
        anchors = np.argwhere(f.dist[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] < low_cut) + lo

        def is_anchor(a: tuple[int, ...]) -> bool:
            return f.dist[a] < low_cut

        worst = np.inf
        verdict_r = Verdict.CERTIFIED
        witness = None
        for u, (offs, seen) in zip(self.dirs, per_dir):
            m_val, m_anchor = _recall(seen, nu, is_anchor)
            if m_anchor is None:
                m_val, m_pos = _segment_min(f.dist, anchors, offs, m_val)
                m_anchor = tuple(anchors[m_pos].tolist())
                seen.append((nu, m_val, m_anchor))
            worst = min(worst, m_val)
            if m_val < low_cut:
                if m_val < nu * r - self.ce_slack:
                    verdict_r = Verdict.COUNTEREXAMPLE
                    if witness is None:
                        witness = LineWitness(f.center(m_anchor), u.copy(), float(r))
                elif verdict_r is Verdict.CERTIFIED:
                    verdict_r = Verdict.INCONCLUSIVE
        return verdict_r, (worst - self.cert_slack) / (nu * r), witness


def _recall(seen: list, nu: float, is_anchor) -> tuple[float, tuple[int, ...] | None]:
    """The segment minimum at nu as far as the earlier queries ``seen`` fix
    it: (minimum, first argmin) when one carries over exactly, else (an upper
    bound on the minimum, None).

    The anchor set A(nu) grows with nu.  A minimum found at nu' >= nu is
    therefore exact at nu when its first argmin a' lies in A(nu): no anchor of
    A(nu) is lower, and none before a' ties.  A minimum found at nu' <= nu
    bounds the minimum at nu from above, as ``_segment_min`` needs.
    """
    bound = np.inf
    for q, m_val, m_anchor in seen:
        if q >= nu and is_anchor(m_anchor):
            return m_val, m_anchor
        if q <= nu:
            bound = min(bound, m_val)
    return bound, None


def _decision(x: BoxSet, nu: float, alpha0: float, alpha1: float, kind: str,
              directions: int) -> PorosityReport:
    """One decision, whose counterexample witness is re-checked against the
    definition before it is returned.  A witness that fails is a decider bug."""
    rep = _Decider(x, alpha0, alpha1, kind, directions, nu).decide(nu)
    if rep.verdict is Verdict.COUNTEREXAMPLE and not _witness_holds(x, nu, rep.witness):
        raise ArithmeticError(f"{kind} witness at scale {rep.witness.scale:.17g} does not "
                              f"re-verify at nu={nu:.17g}")
    return rep


def ball_porosity_check(x: BoxSet, nu: float, alpha0: float, alpha1: float) -> PorosityReport:
    """Decide nu-porosity on balls from scales alpha0 to alpha1.

    At each ladder scale R the decision compares windowed extrema of the
    distance field against nu*R with explicit grid slack: a scale is certified
    when every inscribed window holds a cell of clearance >= nu*R + slack, and
    refuted when some circumscribed window has all clearances < nu*R - slack.
    """
    return _decision(x, nu, alpha0, alpha1, "ball", 0)


def line_porosity_check(x: BoxSet, nu: float, alpha0: float, alpha1: float,
                        directions: int = 8) -> PorosityReport:
    """Decide nu-porosity on lines from scales alpha0 to alpha1.

    Directions are sampled deterministically (``directions`` many), so the
    certified verdict is one-sided: counterexamples are sound, certificates
    hold for the sampled direction set.  Segment anchors run over every grid
    cell, which is finer than the nu*R/4 lattice the slack budget assumes.  In
    n >= 2 each direction needs only the smallest segment max over the anchors
    and the first anchor attaining it, which an exact bound-and-prune over the
    anchors finds without every anchor's full max.
    """
    return _decision(x, nu, alpha0, alpha1, "line", directions)


def _combine(per_scale: list[Verdict]) -> Verdict:
    if any(v is Verdict.COUNTEREXAMPLE for v in per_scale):
        return Verdict.COUNTEREXAMPLE
    if all(v is Verdict.CERTIFIED for v in per_scale):
        return Verdict.CERTIFIED
    return Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# independent witness verification (definition-level, no distance transform)


_RECHECK_PAIRS = 1 << 20     # point-cell pairs measured at once by the re-check's last stage


def _all_near(points: np.ndarray, x: BoxSet, tree, boxes: tuple[np.ndarray, np.ndarray],
              bound: float) -> bool:
    """Whether every point lies closer than ``bound`` to the union of the
    occupied cells, by exact Euclidean distance; ``boxes`` are the cells'
    corners (``x.occupied_boxes()``) and ``tree`` the kd-tree of their centres.

    A point whose nearest centre is closer than ``bound`` holds.  A cell's box
    lies within delta sqrt(n)/2 of its centre, so a cell closer than
    ``bound`` to a point has its centre within bound + delta sqrt(n)/2 (1e-9
    more covers rounding): a point with no centre that near fails, and each
    other point is measured against those cells only, found by a ball query.
    The points go in chunks of about ``_RECHECK_PAIRS`` point-cell pairs.
    """
    reach = (bound + x.delta * math.sqrt(x.n) / 2.0) * (1.0 + 1e-9)
    near, _ = tree.query(points, distance_upper_bound=reach)
    if np.isinf(near).any():
        return False
    points = points[~(near < bound)]
    counts = tree.query_ball_point(points, reach, return_length=True)
    if np.any(counts == 0):
        return False
    lo, hi = boxes
    ends = np.cumsum(counts)
    start = 0
    while start < points.shape[0]:
        before = ends[start] - counts[start]        # pairs of the earlier chunks
        stop = max(start + 1, int(np.searchsorted(ends, before + _RECHECK_PAIRS, side="right")))
        cells = np.concatenate(tree.query_ball_point(points[start:stop], reach))
        count = counts[start:stop]
        p = np.repeat(points[start:stop], count, axis=0)
        gap = np.maximum(lo[cells] - p, p - hi[cells])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        nearest = np.minimum.reduceat(gap.sum(axis=1), np.cumsum(count) - count)
        if not np.all(np.sqrt(nearest) < bound):
            return False
        start = stop
    return True


_RECHECK_BLOCK = 16     # probe values per axis in one block of the witness re-check
_RECHECK_SLAB = 1 << 18     # probes of the unsettled blocks built at once


def _witness_holds(x: BoxSet, nu: float, w: BallWitness | LineWitness) -> bool:
    """Every probe of the witness ball (pitch delta/2) or segment (pitch
    delta/4) lies closer than nu*R to the set, by direct distance computation.

    The probes of a ball are the points of a grid of per-axis values inside
    the ball; those of a segment sit at values t along it.  Each axis's
    values are cut into runs of ``_RECHECK_BLOCK``, and a block (one run per
    axis) holds its probes in the box, or on the sub-segment, spanned by its
    runs' ends.  With c that box's centre, rho half its diagonal and d the
    distance from c to the nearest occupied cell centre, every probe of the
    block lies within d + rho of that centre by the triangle inequality.  A
    cell is no farther than its centre, so the block holds when d + rho is
    below nu*R, less 1e-9 of it for the rounding of the three distances.
    Only the probes of the other blocks are built, and :func:`_all_near`
    measures them.
    """
    from scipy.spatial import cKDTree       # only counterexamples load it

    r, bound = w.scale, nu * w.scale
    ball = isinstance(w, BallWitness)
    if ball:
        pitch = x.delta / 2.0
        axes = [np.arange(c - r / 2.0, c + r / 2.0 + pitch / 2.0, pitch) for c in w.center]
    else:
        pitch = x.delta / 4.0
        axes = [np.arange(-r / 2.0, r / 2.0 + pitch / 2.0, pitch)]

    def place(values: list[np.ndarray]) -> np.ndarray:
        """Probe positions from per-axis values, one probe per index."""
        grid = np.stack(values, axis=-1)
        return grid if ball else w.midpoint[None, :] + grid * w.direction[None, :]

    def corner(index: list[np.ndarray]) -> np.ndarray:
        """The corner of every block that takes, on each axis, the value at
        its run's entry of ``index``."""
        return place([g.ravel() for g in np.meshgrid(*(a[i] for a, i in zip(axes, index)),
                                                      indexing="ij")])

    starts = [np.arange(0, a.size, _RECHECK_BLOCK) for a in axes]
    ends = [np.minimum(s + _RECHECK_BLOCK, a.size) for a, s in zip(axes, starts)]
    first, last = corner(starts), corner([e - 1 for e in ends])
    boxes = x.occupied_boxes()
    tree = cKDTree(boxes[0] + x.delta / 2.0)
    d, _ = tree.query((first + last) / 2.0, distance_upper_bound=bound)
    unsettled = ~(d + np.linalg.norm(last - first, axis=1) / 2.0 < bound * (1.0 - 1e-9))
    if not unsettled.any():
        return True
    # the unsettled blocks' probes, by spreading each block's flag over its
    # runs, built and measured a slab of about _RECHECK_SLAB probes at a time
    keep = unsettled.reshape([s.size for s in starts])
    for k, (s, e) in enumerate(zip(starts, ends)):
        keep = np.repeat(keep, e - s, axis=k)
    step = max(1, _RECHECK_SLAB // keep[0].size)
    for i in range(0, keep.shape[0], step):
        index = np.nonzero(keep[i:i + step])
        pts = place([a[j] for a, j in zip(axes, (index[0] + i, *index[1:]))])
        if ball:
            pts = pts[np.linalg.norm(pts - w.center, axis=1) <= r / 2.0]
        if not _all_near(pts, x, tree, boxes, bound):
            return False
    return True


def _require_kind(kind: str) -> None:
    if kind not in ("ball", "line"):
        raise ValueError(f"porosity kind must be 'ball' or 'line', got {kind!r}")


def max_certified_nu(x: BoxSet, alpha0: float, alpha1: float, kind: str = "ball",
                     directions: int = 8, iters: int = 20) -> float:
    """Largest nu the checker certifies, found by bisection (0 if none).

    The bisection starts at the resolution floor 4*delta/alpha0 and splits
    [floor, 1], every query on one decider built for nu up to 1."""
    _require_kind(kind)
    _require_scales(alpha0, alpha1)
    lo_nu, hi_nu = 4.0 * x.delta / alpha0, 1.0
    if lo_nu > 1.0:
        return 0.0
    decider = _Decider(x, alpha0, alpha1, kind, directions, 1.0)
    if decider.decide(lo_nu).verdict is not Verdict.CERTIFIED:
        return 0.0
    for _ in range(iters):
        mid = 0.5 * (lo_nu + hi_nu)
        if decider.decide(mid).verdict is Verdict.CERTIFIED:
            lo_nu = mid
        else:
            hi_nu = mid
    return lo_nu


# ---------------------------------------------------------------------------
# transformation constructors and lemma verifiers


def affine_image(x: BoxSet, lam: float, y: np.ndarray) -> BoxSet:
    """Raster of y + lam * X at the same pitch, clipped to [0,1]^n."""
    if lam <= 0:
        raise ValueError("scaling factor must be positive")
    y = np.broadcast_to(np.asarray(y, dtype=np.float64), (x.n,))
    lo, hi = x.occupied_boxes()
    return BoxSet.from_boxes(np.stack([lam * lo + y, lam * hi + y], axis=1), x.m, x.n)


def neighborhood(x: BoxSet, alpha2: float) -> BoxSet:
    """Raster of the Minkowski sum X + B_{alpha2}(0), same grid: the cells
    whose gap to an occupied cell is below alpha2 (less 1e-12 of a cell).

    The gap from cell c to an occupied cell o, (max(|c_i - o_i| - 1, 0))_i
    cells, is the distance from c to the nearest cell of the 3^n box around
    o, so the gaps to the whole set are the distance transform of the set
    grown by one cell in every direction, summed in the same axis order.
    """
    if alpha2 < x.delta:
        raise ResolutionError("neighborhood radius below grid pitch")
    if x.occupied_count == 0:
        return BoxSet.empty(x.n, x.m)
    grown = ndimage.binary_dilation(x.mask, structure=np.ones((3,) * x.n, dtype=bool))
    gap = ndimage.distance_transform_edt(~grown, sampling=x.delta)
    return BoxSet(x.n, x.m, gap < alpha2 - 1e-12 * x.delta)


def bilipschitz_image(x: BoxSet, fwd, c1: float) -> BoxSet:
    """Raster of fwd(X) for a bi-Lipschitz map with constant c1.

    Each occupied cell is sampled on a sub-grid fine enough that a one-cell
    box dilation of the marked image cells covers the image of the whole
    cell.
    """
    if x.occupied_count == 0:
        return BoxSet.empty(x.n, x.m)
    samples_per_axis = max(3, int(math.ceil(c1 * math.sqrt(x.n))) + 1)
    d = x.delta
    sub = np.linspace(0.0, 1.0, samples_per_axis)
    offs = np.stack(np.meshgrid(*([sub] * x.n), indexing="ij"), axis=-1).reshape(-1, x.n)
    lo, _ = x.occupied_boxes()
    pts = (lo[:, None, :] + offs[None, :, :] * d).reshape(-1, x.n)
    img = np.asarray(fwd(pts), dtype=np.float64)
    mask = np.zeros((x.m,) * x.n, dtype=bool)
    idx = np.floor(img * x.m).astype(np.int64)
    inside = np.all((idx >= 0) & (idx <= x.m - 1), axis=1)
    mask[tuple(idx[inside].T)] = True
    # Chebyshev dilation radius covering the Euclidean reach between samples
    reach_cells = c1 * math.sqrt(x.n) / (2.0 * (samples_per_axis - 1))
    grow = max(1, int(math.ceil(reach_cells)))
    mask = ndimage.binary_dilation(mask, structure=np.ones((3,) * x.n, dtype=bool),
                                   iterations=grow)
    return BoxSet(x.n, x.m, mask)


def estimate_bilipschitz_constant(fwd, n: int, rng: np.random.Generator,
                                  samples: int = 4000) -> float:
    """C1 with C1^{-1}|a-b| <= |f(a)-f(b)| <= C1|a-b|, estimated by sampling."""
    a = rng.uniform(0.0, 1.0, size=(samples, n))
    b = a + rng.uniform(-1e-3, 1e-3, size=(samples, n))
    num = np.linalg.norm(np.asarray(fwd(a)) - np.asarray(fwd(b)), axis=1)
    den = np.linalg.norm(a - b, axis=1)
    ratios = num / den
    return float(max(ratios.max(), 1.0 / ratios.min()))


def estimate_second_derivative_bound(inv, n: int, rng: np.random.Generator,
                                     samples: int = 400) -> float:
    """Componentwise bound on second derivatives of the inverse map (step 1e-4)."""
    h = 1e-4
    pts = rng.uniform(0.1, 0.9, size=(samples, n))
    worst = 0.0
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            second = (np.asarray(inv(pts + ei + ej)) - np.asarray(inv(pts + ei - ej))
                      - np.asarray(inv(pts - ei + ej)) + np.asarray(inv(pts - ei - ej)))
            worst = max(worst, float(np.max(np.abs(second))) / (4 * h * h))
    return worst


@dataclass
class LemmaOutcome:
    holds: bool
    nu_source: float
    nu_asserted: float
    report: PorosityReport


def _checked(x: BoxSet, nu: float, a0: float, a1: float, kind: str,
             directions: int) -> PorosityReport:
    _require_kind(kind)
    if kind == "ball":
        return ball_porosity_check(x, nu, a0, a1)
    return line_porosity_check(x, nu, a0, a1, directions)


def _source_nu(x: BoxSet, alpha0: float, alpha1: float, kind: str, directions: int,
               nu: float | None, name: str) -> float:
    """The nu a lemma starts from, bisected on x when None; refused unless positive."""
    if nu is None:
        nu = max_certified_nu(x, alpha0, alpha1, kind, directions)
    if nu <= 0:
        raise ValueError(f"{name} set could not be certified at any nu")
    return nu


def _transferred(target: BoxSet, nu: float, nu_target: float, alpha0: float, alpha1: float,
                 kind: str, directions: int, porosity: str) -> LemmaOutcome:
    """Decide a lemma's conclusion, ``target`` nu_target-porous from alpha0 to alpha1,
    once the grid slack has left nu_target positive."""
    if nu_target <= 0:
        raise ResolutionError(f"slack exceeds the {porosity} porosity; refine the grid")
    rep = _checked(target, nu_target, alpha0, alpha1, kind, directions)
    return LemmaOutcome(rep.verdict is Verdict.CERTIFIED, nu, nu_target, rep)


def verify_affine_lemma(x: BoxSet, lam: float, y: np.ndarray, alpha0: float,
                        alpha1: float, kind: str = "ball", directions: int = 8,
                        nu: float | None = None) -> LemmaOutcome:
    """Certified nu for X must transfer to y + lam X at scales lam*alpha."""
    _require_kind(kind)
    nu = _source_nu(x, alpha0, alpha1, kind, directions, nu, "source")
    img = affine_image(x, lam, y)
    return _transferred(img, nu, nu - 4.0 * x.delta / (lam * alpha0), lam * alpha0,
                        lam * alpha1, kind, directions, "certified")


def verify_neighborhood_lemma(x: BoxSet, alpha2: float, alpha0: float, alpha1: float,
                              kind: str = "ball", directions: int = 8,
                              slack_cells: float = 4.0, nu: float | None = None) -> LemmaOutcome:
    """nu-porous from alpha0..alpha1 with alpha2 <= nu*alpha1/2 implies the
    alpha2-neighborhood is nu/2-porous from max(alpha0, 2*alpha2/nu)."""
    _require_kind(kind)
    nu = _source_nu(x, alpha0, alpha1, kind, directions, nu, "source")
    if alpha2 > nu * alpha1 / 2.0:
        raise ValueError("alpha2 exceeds nu*alpha1/2; lemma hypotheses violated")
    img = neighborhood(x, alpha2)
    a0 = max(alpha0, 2.0 * alpha2 / nu)
    return _transferred(img, nu, nu / 2.0 - slack_cells * x.delta / a0, a0, alpha1, kind,
                        directions, "asserted")


def verify_bilipschitz_lemma(x: BoxSet, fwd, c1: float, alpha0: float, alpha1: float,
                             kind: str = "ball", directions: int = 8,
                             c2: float = 0.0, slack_cells: float = 4.0,
                             nu: float | None = None) -> LemmaOutcome:
    """Porosity of the image fwd(X) pulls back to X at constants nu/C1^2
    (balls) or nu/(2 C1^2) (lines, with the second-derivative scale cap)."""
    _require_kind(kind)
    img = bilipschitz_image(x, fwd, c1)
    nu = _source_nu(img, alpha0, alpha1, kind, directions, nu, "image")
    if kind == "ball":
        nu_back = nu / c1**2
    else:
        nu_back = nu / (2.0 * c1**2)
        if c2 > 0:
            cap = nu / (c1 * c2 * x.n)
            if alpha1 > cap:
                raise ValueError(f"alpha1={alpha1:.3g} exceeds the lemma cap {cap:.3g}")
    nu_back -= slack_cells * x.delta / (c1 * alpha0)
    return _transferred(x, nu, nu_back, c1 * alpha0, c1 * alpha1, kind, directions, "asserted")
