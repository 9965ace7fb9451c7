r"""Porous subsets of the unit cube: representations, deciders, verifiers.

A fractal set is carried as a bit mask over [0,1]^n (cell occupied iff it
meets the set).  Two deciders probe the defining property of porosity at a
ladder of scales:

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


def cantor_generate(spec: CantorSpec, n: int) -> BoxSet:
    """Depth-K iterate of the Cantor construction as a grid mask."""
    if len(spec.digits) != n:
        raise ValueError(f"spec carries {len(spec.digits)} axes, expected {n}")
    m = spec.base ** spec.depth
    if m > 10**7:
        raise ResolutionError(f"resolution {m} per axis overflows the grid budget")
    axes = []
    for axis_digits in spec.digits:
        keep = np.zeros(spec.base, dtype=bool)
        keep[list(axis_digits)] = True
        cells = keep.copy()
        for _ in range(spec.depth - 1):
            cells = (cells[:, None] & keep[None, :]).reshape(-1)
        axes.append(cells)
    mask = axes[0]
    for a in axes[1:]:
        mask = mask[..., None] & a
    return BoxSet(n, m, mask)


# ---------------------------------------------------------------------------
# distance field and scale ladder


@dataclass
class _Field:
    """Euclidean distance to the set, sampled at padded cell centers."""

    dist: np.ndarray
    lo: float          # physical coordinate of the padded grid origin
    delta: float
    n: int


def _distance_field(x: BoxSet, pad_phys: float) -> _Field:
    pad = int(math.ceil(pad_phys / x.delta)) + 2
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
    return _Field(dist, -pad * x.delta, x.delta, x.n)


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


def _region(f: _Field, reach_phys: float, wlo: int, whi: int) -> tuple[int, int]:
    """Index range, on every axis, of the window positions whose window stays
    in bounds and whose center covers the cube fattened by ``reach_phys``."""
    lo_idx = max(wlo, int(math.floor((-reach_phys - f.lo) / f.delta)) - 1)
    hi_idx = min(f.dist.shape[0] - 1 - whi,
                 int(math.ceil((1.0 + reach_phys - f.lo) / f.delta)) + 1)
    if hi_idx < lo_idx:
        raise ResolutionError("padding too small for requested scales")
    return lo_idx, hi_idx


@dataclass
class _WindowMax:
    """Max of the distance field over a cubic window of width w, kept only at
    the window positions that a query of reach up to the build reach reads."""

    crop: np.ndarray
    start: int          # padded-field index of the crop's first position, every axis
    wlo: int
    whi: int

    @classmethod
    def build(cls, f: _Field, w: int, reach_phys: float) -> "_WindowMax":
        wlo, whi = (w - 1) // 2, w // 2
        lo_idx, hi_idx = _region(f, reach_phys, wlo, whi)
        filtered = ndimage.maximum_filter(f.dist, size=w, mode="constant", cval=-np.inf)
        return cls(filtered[(slice(lo_idx, hi_idx + 1),) * f.n].copy(), lo_idx, wlo, whi)

    def interior_min(self, f: _Field, reach_phys: float):
        """Min over the positions of ``_region`` at ``reach_phys``, which must
        not exceed the build reach, and the center of the minimizing window."""
        lo_idx, hi_idx = _region(f, reach_phys, self.wlo, self.whi)
        region = self.crop[(slice(lo_idx - self.start, hi_idx - self.start + 1),) * f.n]
        pos = np.unravel_index(np.argmin(region), region.shape)
        center = f.lo + (np.array(pos) + lo_idx + 0.5) * f.delta
        return float(region[pos]), center


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


def _segment_min(dist: np.ndarray, anchors: np.ndarray, offsets: np.ndarray) -> tuple[float, int]:
    """Minimum over anchors of the max of the distance field over the segment
    offsets, and the first anchor that attains it.  Every anchor + offset must
    lie inside ``dist``.

    Offsets are gathered in the given order (coarse to fine from
    ``_segment_offsets``), in chunks that double in size.  After each chunk the
    live anchor of smallest partial max gets its full max U, a bound on the
    minimum, and the anchors whose partial max is strictly above U drop out.
    An anchor attaining the minimum never exceeds U, so ties survive and the
    first argmin is that of every anchor's full max.
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
    bound = np.inf
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

    The build serves every nu up to ``nu_max``: the distance field is padded
    for ``nu_max``, and each windowed max is cropped to the positions that a
    query at ``nu_max`` reads, which contain those of any smaller nu.  A
    single decision builds with ``nu_max = nu``; a bisection builds once.
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
        self.rs = scale_ladder(alpha0, alpha1)
        if x.occupied_count == 0:
            return
        self.f = f = _distance_field(x, alpha1 * (0.5 + nu_max) + alpha1 / 2.0 + 6 * d * sq)
        # per scale: (certifying window, refuting window), or for lines in
        # n >= 2 the segment offsets of every direction
        self.per_scale = []
        for r in self.rs:
            reach = self._reach(r, nu_max)
            if kind == "ball":
                w_cert = int(math.floor((r - d * sq) / (sq * d)))
                w_ce = int(math.ceil((r + d * sq) / d))
            elif n == 1:
                w_cert = max(1, int(math.floor(r / d)))
                w_ce = int(math.ceil(r / d)) + 1
            else:
                self.per_scale.append([_segment_offsets(u, r, d) for u in self.dirs])
                continue
            cert = _WindowMax.build(f, w_cert, reach) if w_cert >= 1 else None
            self.per_scale.append((cert, _WindowMax.build(f, w_ce, reach)))

    def _reach(self, r: float, nu: float) -> float:
        return r / 2.0 + nu * r + 2 * self.x.delta

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
            if self.dirs is None or self.x.n == 1:
                verdict_r, margins[k], found = self._windowed(nu, r, *cached)
            else:
                verdict_r, margins[k], found = self._segments(nu, r, cached)
            per_scale.append(verdict_r)
            witness = witness or found
        return PorosityReport(self.kind, nu, self.alpha0, self.alpha1, rs.copy(), margins,
                              per_scale, _combine(per_scale), witness, directions=directions)

    def _windowed(self, nu: float, r: float, cert: _WindowMax | None, ce: _WindowMax):
        """Balls, and lines in 1-D: a scale is certified when every inscribed
        window holds a cell of clearance >= nu*R + slack, and refuted when some
        circumscribed window has all clearances < nu*R - slack."""
        f = self.f
        reach = self._reach(r, nu)
        m_cert = cert.interior_min(f, reach)[0] if cert is not None else -np.inf
        margin = (m_cert - self.cert_slack) / (nu * r)
        if m_cert >= nu * r + self.cert_slack:
            return Verdict.CERTIFIED, margin, None
        m_ce, center = ce.interior_min(f, reach)
        if m_ce < nu * r - self.ce_slack:
            if self.dirs is None:
                return Verdict.COUNTEREXAMPLE, margin, BallWitness(center, float(r))
            return Verdict.COUNTEREXAMPLE, margin, LineWitness(center, self.dirs[0].copy(), float(r))
        return Verdict.INCONCLUSIVE, margin, None

    def _segments(self, nu: float, r: float, offsets: list[np.ndarray]):
        """Lines in n >= 2: segment maxima along each sampled direction."""
        f = self.f
        lo_idx, hi_idx = _region(f, self._reach(r, nu), 0, 0)
        dist_region = f.dist[(slice(lo_idx, hi_idx + 1),) * f.n]
        # anchors whose own clearance certifies them work for every direction;
        # only the rest need per-direction segment maxima
        low = np.argwhere(dist_region < nu * r + self.cert_slack)
        if low.shape[0] == 0:
            worst = float(dist_region.min(initial=np.inf))
            return Verdict.CERTIFIED, (worst - self.cert_slack) / (nu * r), None
        anchors = low + lo_idx
        worst = np.inf
        verdict_r = Verdict.CERTIFIED
        witness = None
        for u, offs in zip(self.dirs, offsets):
            m_val, m_pos = _segment_min(f.dist, anchors, offs)
            worst = min(worst, m_val)
            if m_val < nu * r + self.cert_slack:
                if m_val < nu * r - self.ce_slack:
                    verdict_r = Verdict.COUNTEREXAMPLE
                    if witness is None:
                        center = f.lo + (anchors[m_pos] + 0.5) * f.delta
                        witness = LineWitness(center, u.copy(), float(r))
                elif verdict_r is Verdict.CERTIFIED:
                    verdict_r = Verdict.INCONCLUSIVE
        return verdict_r, (worst - self.cert_slack) / (nu * r), witness


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


def _true_distance(points: np.ndarray, x: BoxSet) -> np.ndarray:
    """Exact Euclidean distance from each point to the union of the occupied
    cells of a non-empty set, in chunks whose temporaries hold about 2^20
    elements each."""
    lo, hi = x.occupied_boxes()
    out = np.empty(points.shape[0])
    chunk = max(1, (1 << 20) // lo.size)
    for s in range(0, points.shape[0], chunk):
        p = points[s:s + chunk, None, :]
        gap = np.maximum(lo - p, p - hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        out[s:s + chunk] = np.sqrt(gap.sum(axis=2).min(axis=1))
    return out


def _witness_holds(x: BoxSet, nu: float, w: BallWitness | LineWitness) -> bool:
    """Every probe of the witness ball (pitch delta/2) or segment (pitch
    delta/4) lies closer than nu*R to the set, by direct distance computation."""
    from scipy.spatial import cKDTree       # only counterexamples load it

    r = w.scale
    if isinstance(w, BallWitness):
        pitch = x.delta / 2.0
        axes = [np.arange(c - r / 2.0, c + r / 2.0 + pitch / 2.0, pitch) for c in w.center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, x.n)
        pts = grid[np.linalg.norm(grid - w.center, axis=1) <= r / 2.0]
    else:
        pitch = x.delta / 4.0
        ts = np.arange(-r / 2.0, r / 2.0 + pitch / 2.0, pitch)
        pts = w.midpoint[None, :] + ts[:, None] * w.direction[None, :]
    # a cell is no farther than its center, so a probe near a center holds
    # without the exact box distance
    lo, _ = x.occupied_boxes()
    near, _ = cKDTree(lo + x.delta / 2.0).query(pts, distance_upper_bound=nu * r)
    rest = pts[~(near < nu * r)]
    return bool(np.all(_true_distance(rest, x) < nu * r))


def _require_kind(kind: str) -> None:
    if kind not in ("ball", "line"):
        raise ValueError(f"porosity kind must be 'ball' or 'line', got {kind!r}")


def max_certified_nu(x: BoxSet, alpha0: float, alpha1: float, kind: str = "ball",
                     directions: int = 8, iters: int = 20) -> float:
    """Largest nu the checker certifies, found by bisection (0 if none).

    Every bisection step queries one decider built for nu up to 1, so the
    distance field and the windowed maxima are computed once per call."""
    _require_kind(kind)
    _require_scales(alpha0, alpha1)
    lo_nu, hi_nu = 0.0, 1.0
    floor_nu = 4.0 * x.delta / alpha0
    if floor_nu > 1.0:
        return 0.0
    decider = _Decider(x, alpha0, alpha1, kind, directions, 1.0)

    def check(nu: float) -> Verdict:
        return decider.decide(nu).verdict

    if check(floor_nu) is not Verdict.CERTIFIED:
        return 0.0
    lo_nu = floor_nu
    for _ in range(iters):
        mid = 0.5 * (lo_nu + hi_nu)
        if check(mid) is Verdict.CERTIFIED:
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


def _ball_structuring_element(radius_phys: float, delta: float, n: int) -> np.ndarray:
    """Offsets d with closed-cell distance strictly below the radius."""
    k = int(math.ceil(radius_phys / delta)) + 1
    rng = np.arange(-k, k + 1)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    gap = sum((np.maximum(np.abs(g) - 1, 0).astype(np.float64) * delta) ** 2 for g in grids)
    return np.sqrt(gap) < radius_phys - 1e-12 * delta


def neighborhood(x: BoxSet, alpha2: float) -> BoxSet:
    """Raster of the Minkowski sum X + B_{alpha2}(0), same grid."""
    if alpha2 < x.delta:
        raise ResolutionError("neighborhood radius below grid pitch")
    se = _ball_structuring_element(alpha2, x.delta, x.n)
    return BoxSet(x.n, x.m, ndimage.binary_dilation(x.mask, structure=se))


def bilipschitz_image(x: BoxSet, fwd, c1: float, samples_per_axis: int | None = None) -> BoxSet:
    """Raster of fwd(X) for a bi-Lipschitz map with constant c1.

    Each occupied cell is sampled on a sub-grid fine enough that a one-cell
    box dilation of the marked image cells covers the image of the whole
    cell; coarser sampling requests simply dilate further.
    """
    if x.occupied_count == 0:
        return BoxSet.empty(x.n, x.m)
    if samples_per_axis is None:
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
                                     samples: int = 400, h: float = 1e-4) -> float:
    """Componentwise bound on second derivatives of the inverse map."""
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


def verify_affine_lemma(x: BoxSet, lam: float, y: np.ndarray, alpha0: float,
                        alpha1: float, kind: str = "ball", directions: int = 8,
                        slack_cells: float = 4.0, nu: float | None = None) -> LemmaOutcome:
    """Certified nu for X must transfer to y + lam X at scales lam*alpha."""
    _require_kind(kind)
    if nu is None:
        nu = max_certified_nu(x, alpha0, alpha1, kind, directions)
    if nu <= 0:
        raise ValueError("source set could not be certified at any nu")
    img = affine_image(x, lam, y)
    nu_img = nu - slack_cells * x.delta / (lam * alpha0)
    if nu_img <= 0:
        raise ResolutionError("slack exceeds the certified porosity; refine the grid")
    rep = _checked(img, nu_img, lam * alpha0, lam * alpha1, kind, directions)
    return LemmaOutcome(rep.verdict is Verdict.CERTIFIED, nu, nu_img, rep)


def verify_neighborhood_lemma(x: BoxSet, alpha2: float, alpha0: float, alpha1: float,
                              kind: str = "ball", directions: int = 8,
                              slack_cells: float = 4.0, nu: float | None = None) -> LemmaOutcome:
    """nu-porous from alpha0..alpha1 with alpha2 <= nu*alpha1/2 implies the
    alpha2-neighborhood is nu/2-porous from max(alpha0, 2*alpha2/nu)."""
    _require_kind(kind)
    if nu is None:
        nu = max_certified_nu(x, alpha0, alpha1, kind, directions)
    if nu <= 0:
        raise ValueError("source set could not be certified at any nu")
    if alpha2 > nu * alpha1 / 2.0:
        raise ValueError("alpha2 exceeds nu*alpha1/2; lemma hypotheses violated")
    img = neighborhood(x, alpha2)
    a0 = max(alpha0, 2.0 * alpha2 / nu)
    nu_img = nu / 2.0 - slack_cells * x.delta / a0
    if nu_img <= 0:
        raise ResolutionError("slack exceeds the asserted porosity; refine the grid")
    rep = _checked(img, nu_img, a0, alpha1, kind, directions)
    return LemmaOutcome(rep.verdict is Verdict.CERTIFIED, nu, nu_img, rep)


def verify_bilipschitz_lemma(x: BoxSet, fwd, c1: float, alpha0: float, alpha1: float,
                             kind: str = "ball", directions: int = 8,
                             c2: float = 0.0, slack_cells: float = 4.0,
                             nu: float | None = None) -> LemmaOutcome:
    """Porosity of the image fwd(X) pulls back to X at constants nu/C1^2
    (balls) or nu/(2 C1^2) (lines, with the second-derivative scale cap)."""
    _require_kind(kind)
    img = bilipschitz_image(x, fwd, c1)
    if nu is None:
        nu = max_certified_nu(img, alpha0, alpha1, kind, directions)
    if nu <= 0:
        raise ValueError("image set could not be certified at any nu")
    if kind == "ball":
        nu_back = nu / c1**2
    else:
        nu_back = nu / (2.0 * c1**2)
        if c2 > 0:
            cap = nu / (c1 * c2 * x.n)
            if alpha1 > cap:
                raise ValueError(f"alpha1={alpha1:.3g} exceeds the lemma cap {cap:.3g}")
    nu_back -= slack_cells * x.delta / (c1 * alpha0)
    if nu_back <= 0:
        raise ResolutionError("slack exceeds the asserted porosity; refine the grid")
    rep = _checked(x, nu_back, c1 * alpha0, c1 * alpha1, kind, directions)
    return LemmaOutcome(rep.verdict is Verdict.CERTIFIED, nu, nu_back, rep)
