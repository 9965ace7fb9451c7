r"""Masked-transform uncertainty experiments on grids and spheres.

The experiments all share one shape: cut off to a porous set, apply a unitary
or oscillatory transform, cut off to another porous set, and watch the
operator norm decay as the grid refines.  With the semiclassical parameter
tied to the grid (h = 1/N) the discretized transform is the unitary DFT, so
unitarity and the single-column norm are exact and serve as hard anchors.

A masked operator is a core and two supports: strictly increasing flat
indices of the output cells (``rows``) and the input cells (``cols``), made
from the digits of a Cantor family or the raster of an explicit set, and
thickened on those indices, never on a raster.  Every core answers the same
protocol: its ambient ``size``, the dense block ``submatrix(rows, cols)``, the
product ``gram(rows, cols)`` of the block's Gram matrix on the smaller side,
the only product that norms take, and that Gram matrix formed densely,
``gram_matrix(rows, cols)``.  A norm is the
square root of the top eigenvalue of the Gram operator, computed matrix-free
by Lanczos: complex in general, real for the DFT when the larger support is
its own mirror image about an integer point.  Lanczos stops when its top Ritz
value stops moving (theta_m - theta_(m-4) <= 1e-15 theta_m) or its Krylov
space is invariant; a run that reaches the cap of ``_M_MAX`` steps reports
the Ritz value, a lower bound, with ``converged`` False.  On small problems
the dense norm, from the top eigenvalue of ``gram_matrix`` (exactly 1, with no
matrix, when the larger of two DFT supports is the whole grid), runs
automatically: a converged value must agree with it to 1e-10 (relative), an
unconverged one must not exceed it; for the DFT that matrix is real on the
same mirror-symmetric supports (on a side of at least 3 points) and is built
from the DFT's entries at integer phases, never from an FFT or the pruned
plan, so the two routes share nothing but the mirror test.
The DFT core takes any N >= 2.  It runs a pruned Cooley-Tukey plan, whose
products never touch the ambient grid, whenever that takes fewer
multiply-adds than an FFT of the whole grid, build included, on grids of more
cells than the dense check covers.  Write N = p^k, p the smallest root of N.
The plan runs on a cover of each support, a product of base-p^d digit tuple
sets over the levels above a bottom block of any integer tuples, with
zeros on the cover's cells outside the support: every full-depth Cantor
family (in the radix of its own base) and joint-digit sets that are no
per-axis product are their own covers, and a thickened Cantor set is covered
by its digits with the thickening's offsets in the bottom block.  Its levels
are merged into groups of a few dozen tuples, a mixed-radix stage each.
Otherwise a Gram product is one spectral convolution, an FFT of the ambient
grid and its inverse.  The
quadrature cores multiply by their block and its adjoint.  The log-phase
kernel depends on the chord |y - y'| alone, and on evenly spaced circle nodes
the chord depends on the index difference alone, so there its block is
gathered from one row of J entries.  Power-law exponents are fitted by least
squares in log-log coordinates with the residual always reported.

``FupConfig`` runs two cores: ``fourier`` (the unitary DFT on the cube grid)
and ``log_phase`` (the logarithmic-phase kernel on circle grids).

The sphere section provides the oscillatory kernel with logarithmic phase,
equal-weight quadrature grids on S^1 and S^2, gnomonic chart atlases with
measured bi-Lipschitz constants, chart-level porosity checks, and the mixed
Hessian determinant probes for the phase.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .porosity import BoxSet, CantorSpec, PorosityReport, Verdict
from .porosity import _checked, _combine, _require_kind

__all__ = [
    "FourierCore",
    "KernelCore",
    "MaskedOperator",
    "DecayFit",
    "NormInfo",
    "semiclassical_dft",
    "resample_mask",
    "masked_norm",
    "dense_norm",
    "beta_fit",
    "ladder_fits",
    "general_phase_fio",
    "SphereGrid",
    "circle_grid",
    "sphere2_grid",
    "smooth_step",
    "chordal_cutoff",
    "log_phase_kernel",
    "log_phase_masked_operator",
    "SubmatrixKernelCore",
    "mixed_hessian_det",
    "log_phase_hessian_factors",
    "SphereAtlas",
    "sphere_porosity_check",
    "FupConfig",
    "fup_experiment",
]


# ---------------------------------------------------------------------------
# operator cores


class _Core:
    """The Gram product and the dense Gram matrix that every core answers
    from its block."""

    def gram(self, rows: np.ndarray, cols: np.ndarray):
        """(product, dtype) of the Gram operator of the |rows| x |cols| block A
        on its smaller side: A^H A on cols when |rows| >= |cols|, else A A^H
        on rows; here from the block, formed once, complex.  A^H y is taken as
        conj(conj(y) A), with no conjugate copy of the block: BLAS runs the
        same kernel over the same memory, so the bits are A^H y's."""
        block = self.submatrix(rows, cols)

        def adjoint(y):
            return (y.conj() @ block).conj()
        if rows.size >= cols.size:
            return (lambda x: adjoint(block @ x)), complex
        return (lambda y: block @ adjoint(y)), complex

    def gram_matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The Gram matrix of the block B = submatrix(rows, cols) on its smaller
        side, formed densely: B B* on rows when |rows| <= |cols|, else B* B on
        cols; here from the block, complex."""
        block = self.submatrix(rows, cols)
        return block @ block.conj().T if rows.size <= cols.size else block.conj().T @ block


@dataclass(frozen=True)
class FourierCore(_Core):
    """Unitary DFT on the grid {j/N}^n, the h = 1/N discretization."""

    N: int
    n: int

    @property
    def size(self) -> int:
        return self.N ** self.n

    def apply(self, u: np.ndarray) -> np.ndarray:
        # imported on first use: nothing else loads scipy.fft, which takes about 13 ms
        from scipy.fft import fftn
        return fftn(u.reshape((self.N,) * self.n), norm="ortho").reshape(-1)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        from scipy.fft import ifftn
        return ifftn(u.reshape((self.N,) * self.n), norm="ortho").reshape(-1)

    def _roots(self, phase: np.ndarray) -> np.ndarray:
        """The DFT entries e(-j/N) N^(-n/2) at the integer phases j in [0, N)
        of ``phase``: gathered from a table of the N of them when the phases
        outnumber them, else computed at each phase, bit for bit the same."""
        if phase.size <= self.N:
            return np.exp(-2j * np.pi * phase / self.N) * self.N ** (-self.n / 2)
        return self._roots(np.arange(self.N))[phase]

    def _phases(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The integer phases <a, b> mod N of the coordinate rows a of ``left``
        and b of ``right``, a (|left|, |right|) array."""
        phase = left @ right.T
        return np.remainder(phase, self.N, out=phase)

    def _coords(self, support: np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(support, (self.N,) * self.n), axis=1)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._roots(self._phases(self._coords(rows), self._coords(cols)))

    def gram(self, rows: np.ndarray, cols: np.ndarray):
        """(product, dtype) of the Gram operator on the smaller side T; real
        when the other, summed support S is mirror-symmetric.

        On the pruned plan (see :class:`_PrunedDft` and the cost rule of
        :func:`_plan_budget`) a product never leaves the supports: adjoint after
        apply, or the reverse.
        Otherwise it is one spectral convolution: scatter onto T, FFT, multiply
        by the indicator of S (of -S when T = rows: F 1_S F* = F* 1_(-S) F),
        inverse FFT, gather on T.

        Suppose S = 2c - S for an integer point c (per axis, c is the middle
        of the extremes of S).  Then the Gram matrix is D K D*
        with D = diag e(+-<c, x>/N) on T (+ when T = cols, - when T = rows)
        and K(x, y) = N^-n sum_{a in S} cos(2 pi <a - c, x - y>/N), real
        symmetric with the same top eigenvalue; this returns K: on the pruned
        plan K g = Re(D* G (D g)), otherwise the real convolution of g with
        1_{S - c}, one rfftn/irfftn pair.  Other supports keep the complex Gram.
        """
        t, s, sign = (cols, rows, 1) if rows.size >= cols.size else (rows, cols, -1)
        shape = (self.N,) * self.n
        centre = _mirror_centre(s, shape)
        plan = _PrunedDft.build(self, rows, cols, budget=_plan_budget(self.size))
        if plan is not None:
            inner, outer = (plan.apply, plan.adjoint) if sign > 0 else (plan.adjoint, plan.apply)
            if centre is None:
                return (lambda g: outer(inner(g))), complex
            d = np.exp(sign * 2j * np.pi * ((self._coords(t) @ centre) % self.N) / self.N)
            back = d.conj()
            return (lambda g: (back * outer(inner(d * g))).real), float
        if self.size > _RASTER_CELLS:
            raise ValueError(f"the pruned plan declines these supports, and an FFT of the {self.N}"
                             f"^{self.n} grid is over the budget of {_RASTER_CELLS} cells")
        from scipy.fft import fftn, ifftn, irfftn, rfftn
        at = np.stack(np.unravel_index(s, shape))
        spectrum = np.zeros(shape, dtype=bool)
        if centre is None:
            spectrum[tuple(sign * at % self.N)] = True
            forward, inverse, dtype = fftn, ifftn, complex
        else:
            spectrum[tuple((at - centre[:, None]) % self.N)] = True
            spectrum = spectrum[..., :self.N // 2 + 1]
            forward, inverse, dtype = rfftn, irfftn, float
        spectrum = spectrum.astype(np.float64)
        u = np.zeros(self.size, dtype=dtype)

        def product(g):
            u[t] = g
            spec = forward(u.reshape(shape))
            spec *= spectrum
            return inverse(spec, s=shape, overwrite_x=True).reshape(-1)[t]
        return product, dtype

    def gram_matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The Gram matrix on the smaller side T (rows when |rows| <= |cols|),
        formed densely; real when T has at least 3 points and the other
        support S is mirror-symmetric.

        When S = 2c - S for an integer point c (see :meth:`gram`) this is the
        real symmetric K(x, y) = N^-n sum_{a in S - c} cos(2 pi <a, x - y>/N)
        on T, which has the eigenvalues of the Gram matrix, formed as M^T M:
        M stacks the rows cos and sin of 2 pi <a, x>/N over a in S - c, the
        real and imaginary parts of the DFT's entries at the integer phases
        <a, x> mod N.  Other supports take the complex Gram of the block, and
        so does a T of 1 or 2 points: there the top eigenvalue is no
        cross-check but the norm that :func:`masked_norm` returns (such sides
        skip Lanczos), and the block's Gram keeps its last bits.
        """
        t, s = (rows, cols) if rows.size <= cols.size else (cols, rows)
        centre = _mirror_centre(s, (self.N,) * self.n) if t.size >= 3 else None
        if centre is None:
            return super().gram_matrix(rows, cols)
        e = self._roots(self._phases(self._coords(s) - centre, self._coords(t)))
        m = np.concatenate([e.real, e.imag])
        return m.T @ m


# The pruned plan's build computes each entry of its blocks and twiddles once,
# by np.exp: an entry costs about as much as 50 multiply-adds, spread over the
# 15 or more Gram products of a norm, so the cost rule charges it this many.
_ENTRY_WORK = 3
# A group of merged digit levels holds at most this many tuples on each side.
_GROUP_TUPLES = 32


def _mirror_centre(support: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | None:
    """The integer point c with support = 2c - support, per axis the middle
    of the extremes; None when the support is empty, is no mirror image of
    itself, or is one only about a half-integer point."""
    if support.size == 0:
        return None
    at = np.stack(np.unravel_index(support, shape), axis=1)
    ends = at.min(axis=0) + at.max(axis=0)
    if np.any(ends % 2):
        return None
    mirrored = np.sort(np.ravel_multi_index((ends - at).T, shape))
    return ends // 2 if np.array_equal(mirrored, support) else None


def _plan_budget(size: int) -> float:
    """The cost rule's budget for the pruned plan on a grid of ``size`` cells:
    the multiply-adds of a Gram product by FFT, a transform of the grid and its
    inverse, size log2(size) each, which the plan's work (see :func:`_work`)
    must undercut.  It is 0, no plan and no scan, on a grid of at most
    _DENSE_LIMIT cells: the dense check runs there anyway, a product on
    either route takes tens of microseconds, and most plans there are slower
    than the FFT for their numpy calls."""
    return 0.0 if size <= _DENSE_LIMIT else 2 * size * math.log2(size)


def _smallest_root(N: int) -> tuple[int, int]:
    """(p, k) with N = p^k for the smallest such p: (N, 1) when N is no perfect
    power.  The largest exponent gives the smallest root; each float estimate
    of a root is checked in integers, which is exact up to 2^63."""
    N = operator.index(N)
    for k in range(N.bit_length() - 1, 1, -1):
        p = round(math.exp(math.log(N) / k))
        if p ** k == N:
            return p, k
    return N, 1


def _ranks(codes: np.ndarray, size: int):
    """(values, rank): the increasing distinct values of ``codes``, integers in
    [0, size), and the place of each code among them."""
    if size <= 4 * codes.size + 1024:
        seen = np.bincount(codes, minlength=size) > 0
        return np.flatnonzero(seen), (np.cumsum(seen) - 1)[codes]
    return np.unique(codes, return_inverse=True)


def _scan(coords: np.ndarray, p: int, k: int, m: int):
    """(bottom, levels, position): a cover P = {b + p^m a} of the support whose
    cells have the coordinates ``coords`` (n, S) on the (p^k)^n grid.

    A cell's coarse cell is its coordinates // p^m.  A cell stays in its coarse
    cell when that is one of the fullest (holds the most cells), and otherwise
    moves to the nearest fullest of its 3^n - 1 neighbours, if it has one; its
    bottom tuple b is the cell minus p^m times the coarse cell it is in, any
    integers (negative, or p^m and beyond, for a moved cell).  ``bottom`` is
    the (|B|, n) array of the distinct b, ``levels[i]`` the (|A_i|, n) array of
    the base-p digit tuples at level m + i of the coarse cells that hold a
    cell, and the cover is B x A_0 x A_1 ..., in row-major order with the top
    level slowest and b fastest: ``position`` is each cell's place in it.
    Every cell lies in P, which is the support itself when the support is a
    product over its levels (then B is the bottom m levels' digit tuples) or,
    away from the grid's ends, a product thickened by less than p^m.
    """
    n, q, side = coords.shape[0], p ** m, p ** (k - m)
    coarse = coords // q
    weights = side ** np.arange(n - 1, -1, -1)
    cells, home, counts = np.unique(weights @ coarse, return_inverse=True, return_counts=True)
    full = counts == counts.max()
    stray = np.flatnonzero(~full[home])
    if stray.size:
        # every neighbour step of every stray cell: (steps, n, strays)
        steps = np.array([s for s in itertools.product((-1, 0, 1), repeat=n) if any(s)])[:, :, None]
        at, offset = coarse[:, stray], coords[:, stray] - q * coarse[:, stray]
        near = at + steps
        code = np.tensordot(weights, near, (0, 1))
        found = np.minimum(np.searchsorted(cells, code), cells.size - 1)
        gap = np.where(steps < 0, offset + 1, np.where(steps > 0, q - offset, 0))
        valid = (np.all((near >= 0) & (near < side), axis=1) & (cells[found] == code)
                 & full[found])
        dist = np.where(valid, (gap ** 2).sum(axis=1), np.iinfo(np.int64).max)
        nearest, each = dist.argmin(axis=0), np.arange(stray.size)
        moved = valid[nearest, each]
        home[stray[moved]] = found[nearest, each][moved]
    cell_at = np.array(np.unravel_index(cells, (side,) * n))
    b = coords - q * cell_at[:, home]
    width, shift = (q, 0) if b.min() >= 0 and b.max() < q else (3 * q, q)
    bottom, place = _ranks((width ** np.arange(n - 1, -1, -1)) @ (b + shift), width ** n)
    bottom = np.array(np.unravel_index(bottom, (width,) * n)).T - shift
    used = np.zeros(cells.size, dtype=bool)
    used[home] = True
    # the digit tuple codes of every used coarse cell at every level, level j
    # offset by j p^n, so that one ranking serves all levels
    depth, cube = k - m, p ** n
    digits = cell_at[:, used, None] // p ** np.arange(depth) % p
    codes = np.tensordot(p ** np.arange(n - 1, -1, -1), digits, 1) + cube * np.arange(depth)
    values, rank = _ranks(codes.reshape(-1), depth * cube)
    starts = np.searchsorted(values, cube * np.arange(depth + 1))
    sizes = np.diff(starts)
    strides = np.cumprod(np.concatenate([[1], sizes]))[:-1]
    places = np.zeros(cells.size, dtype=np.int64)
    places[used] = (rank.reshape(digits.shape[1], depth) - starts[:-1]) @ strides
    tuples = np.array(np.unravel_index(values % cube, (p,) * n)).T
    levels = np.split(tuples, starts[1:-1]) if depth else []
    return bottom, levels, place + len(bottom) * places[home]


def _cover_size(cover) -> int:
    return len(cover[0]) * math.prod(len(a) for a in cover[1])


def _covers(rows: np.ndarray, cols: np.ndarray, n: int, p: int, k: int):
    """(radix, depth, m, row cover, col cover): the covers of both supports
    (see :func:`_scan`) on the grid of side p^k read in base radix = p^d,
    depth = k / d levels, with a bottom of m levels.

    Radix p is tried with m = 1, 2, ... up to k / 2 while the covers shrink,
    and with m = 1 the covers of supports that are products over their
    levels are the supports themselves.  Covers of at least twice the
    supports then try the radices p^d for the other d that divide k
    (d < k) with m = 1, which finds the supports that are products over the
    levels of such a radix (a Cantor family of base p^d among them); a
    cover of less than that is kept, as no radix can shrink it below the
    support.  The smallest covers seen are taken.
    """
    coords = [np.array(np.unravel_index(s, (p ** k,) * n)) for s in (rows, cols)]
    same = np.array_equal(rows, cols)
    least = rows.size + cols.size

    def covers(d: int, m: int):
        row = _scan(coords[0], p ** d, k // d, m)
        col = row if same else _scan(coords[1], p ** d, k // d, m)
        return _cover_size(row) + _cover_size(col), (p ** d, k // d, m, row, col)

    best = covers(1, 1)
    for m in range(2, k // 2 + 1):
        if best[0] == least:
            break
        found = covers(1, m)
        if found[0] >= best[0]:
            break
        best = found
    for d in range(2, k):
        if best[0] < 2 * least:
            break
        if k % d == 0:
            best = min(best, covers(d, 1), key=lambda c: c[0])
    return best[1]


def _groups(radix: int, depth: int, m: int, covers) -> tuple[list, list]:
    """(radices, groups): the depth levels of the covers (see :func:`_covers`)
    merged into consecutive groups, and per cover the (|G|, n) tuple array of
    each group, bottom group first.

    The group widths, in levels, read the same from both ends: the output's
    digit order is the input's reversed (see :func:`_stages`), so only then do
    both supports split the same way.  The bottom group takes the cover's
    bottom tuples, the top group is as wide, and from the outside in each pair
    of groups grows while either group of it holds at most _GROUP_TUPLES
    tuples on every cover; what is left in the middle is one group when it
    holds that few.  A group's tuples run over the product of its levels, top
    level slowest, so the groups keep the cover's order.
    """
    sizes = [[len(c[0])] + [len(a) for a in c[1]] for c in covers]

    def fits(lo: int, hi: int) -> bool:      # levels [lo, hi), lo = 0 with the bottom
        return all(math.prod(s[max(lo - m + 1, 0):hi - m + 1]) <= _GROUP_TUPLES
                   for s in sizes)

    outer, middle, lo, hi = [], [], 0, depth
    while hi > lo:
        v = m if lo == 0 else 1
        if 2 * v > hi - lo or (lo > 0 and fits(lo, hi)):
            middle = [hi - lo]
            break
        while 2 * (v + 1) <= hi - lo and fits(lo, lo + v + 1) and fits(hi - v - 1, hi):
            v += 1
        outer.append(v)
        lo, hi = lo + v, hi - v
    widths = outer + middle + outer[::-1]
    ends = np.cumsum([0] + widths)
    groups = []
    for bottom, levels, _ in covers:
        tuples = []
        for lo, hi in zip(ends[:-1], ends[1:]):
            t = bottom if lo == 0 else np.zeros((1, bottom.shape[1]), dtype=np.int64)
            for j in range(max(lo, m), hi):
                t = (levels[j - m][:, None, :] * radix ** (j - lo) + t[None]).reshape(-1, t.shape[1])
            tuples.append(t)
        groups.append(tuples)
    return [radix ** w for w in widths], groups


def _work(src: list, dst: list) -> float:
    """Estimated work of one direction of a plan on groups of these sizes, or
    inf when a block would pass _SUPPORT_CELLS entries (a single group: the
    dense submatrix).  Each stage is charged the tensor it takes times
    |dst[s]| + 2 (block, twiddle, copy), and _ENTRY_WORK for each entry of
    its block and twiddle, which the plan's build computes once."""
    g, rest, made, work = len(src), math.prod(src), 1, 0.0
    for s in range(g):
        a, b = src[g - 1 - s], dst[s]
        if a * b > _SUPPORT_CELLS:
            return math.inf
        rest //= a
        work += a * rest * made * (b + 2) + _ENTRY_WORK * (a * b + (a * made if s else 0))
        made *= b
    return work


def _stages(radices: list, src: list, dst: list, sign: int, scale: float) -> list:
    """The stages (size, rest, twiddle, block) of the pruned DFT from the group
    tuples ``src`` to ``dst`` (see :func:`_groups`), one stage per group.

    Group i has radix r_i = radices[i], and the radices read the same from
    both ends.  Input index b = sum_i b_i R_i with R_i = r_0 ... r_(i-1) and
    b_i in ``src[i]``, output a = sum_s a_s R_s with a_s in ``dst[s]``; the
    tuples may be any integers.  With symmetric radices the exponent <a, b>/N
    keeps, modulo 1, the terms <a_s, b_(g-1-t)> R_s R_(g-1-t) / N for s <= t,
    so stage t contracts b_(g-1-t) into a_t: a twiddle by <b_(g-1-t), made>/
    (R_t r_t) with made = sum_(s<t) a_s R_s the output tuples made so far,
    then the |dst[t]| x |src[g-1-t]| block e(<a_t, b>/r_t).  The exact unitary
    scale goes into the last block.
    """
    g = len(radices)
    rest = math.prod(len(a) for a in src)
    made = np.zeros((1, src[0].shape[1]), dtype=np.int64)
    stages, below = [], 1
    for s in range(g):
        a, b, r = src[g - 1 - s], dst[s], radices[s]
        rest //= len(a)
        q = below * r
        twiddle = np.exp(sign * 2j * np.pi / q * ((a @ made.T) % q)) if s else None
        block = np.exp(sign * 2j * np.pi / r * ((b @ a.T) % r))
        if s == g - 1:
            block *= scale
        stages.append((len(a), rest, twiddle, block))
        made = (b[:, None] * below + made[None, :]).reshape(-1, made.shape[1])
        below = q
    return stages


@dataclass(frozen=True)
class _PrunedDft:
    """The restricted unitary DFT on supports with covers of few levels.

    For N = p^k, p any radix, the scan (:func:`_covers`) finds a cover P =
    {b + p^m a} of each support, with a ranging over a product of per-level
    digit tuple sets and b over any set of integer tuples; the plan's levels
    are merged into groups (:func:`_groups`), and over such products the
    Cooley-Tukey recursion stays closed (decimation in time, pruned on input
    and output, mixed radix; see :func:`_stages`), so a product costs about
    g |P| |G| for g groups of |G| tuples instead of N^n log N^n.  A product
    scatters its input into the input cover, zero on the cover's other
    cells, and gathers its output from the output cover, so it is exact on
    any cover: a digit product is its own cover, and a thickened one is
    covered by its digits plus the offsets of the thickening.
    """

    forward: list
    backward: list
    row_position: np.ndarray
    col_position: np.ndarray

    @classmethod
    def build(cls, core: FourierCore, rows: np.ndarray, cols: np.ndarray,
              budget: float = math.inf):
        """The plan for increasing rows and cols in powers of the base p of N's
        smallest root (see :func:`_smallest_root`), or None unless its work
        (a product, an adjoint and the build, see :func:`_work`) is below
        ``budget``, no cover passes _SUPPORT_CELLS cells and no block
        _SUPPORT_CELLS entries.  A budget that is not positive returns None
        before any scan."""
        if budget <= 0 or rows.size == 0 or cols.size == 0 or np.any(np.diff(rows) <= 0) \
                or np.any(np.diff(cols) <= 0):
            return None
        radix, depth, m, row, col = _covers(rows, cols, core.n, *_smallest_root(core.N))
        if max(_cover_size(row), _cover_size(col)) > _SUPPORT_CELLS:
            return None
        radices, (row_groups, col_groups) = _groups(radix, depth, m, (row, col))
        row_sizes, col_sizes = [len(t) for t in row_groups], [len(t) for t in col_groups]
        if _work(col_sizes, row_sizes) + _work(row_sizes, col_sizes) >= budget:
            return None
        scale = core.N ** (-core.n / 2)
        return cls(_stages(radices, col_groups, row_groups, -1, scale),
                   _stages(radices, row_groups, col_groups, 1, scale), row[2], col[2])

    @staticmethod
    def _run(stages: list, src: np.ndarray, dst: np.ndarray, x: np.ndarray) -> np.ndarray:
        t = np.zeros(stages[0][0] * stages[0][1], dtype=complex)
        t[src] = x
        for size, rest, twiddle, block in stages:
            t = t.reshape(size, rest, -1)
            if twiddle is not None:
                t *= twiddle[:, None, :]        # t is the plan's own: zeros or a stage's output
            t = block @ t.reshape(size, -1)
            t = t.reshape(block.shape[0], rest, -1).transpose(1, 0, 2)
        return t.reshape(-1)[dst]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._run(self.forward, self.col_position, self.row_position, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._run(self.backward, self.row_position, self.col_position, y)


@dataclass(frozen=True)
class KernelCore(_Core):
    """Dense quadrature kernel; apply is a matrix product."""

    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        return self.matrix.conj().T @ u

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.matrix[np.ix_(rows, cols)]


@dataclass(frozen=True)
class SubmatrixKernelCore(_Core):
    """Kernel stored only on its supports: rows x cols block of a large grid.

    Lets masked sphere kernels on fine grids stay small: porous supports keep a
    few hundred nodes, so the stored block is tiny even when the ambient grid
    has thousands of points.
    """

    ambient: int
    rows: np.ndarray
    cols: np.ndarray
    block: np.ndarray

    @property
    def size(self) -> int:
        return self.ambient

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.ambient, dtype=complex)
        out[self.rows] = self.block @ u[self.cols]
        return out

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.ambient, dtype=complex)
        out[self.cols] = self.block.conj().T @ u[self.rows]
        return out

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The stored block itself; no entry off the stored supports was computed."""
        if not (np.array_equal(rows, self.rows) and np.array_equal(cols, self.cols)):
            raise ValueError("a submatrix kernel answers only for its own supports")
        return self.block


def semiclassical_dft(N: int, n: int) -> FourierCore:
    """The DFT core on the grid {j/N}^n, for any N >= 2: scipy.fft transforms
    every length in O(N log N)."""
    if N < 2:
        raise ValueError("need N >= 2")
    return FourierCore(N, n)


@dataclass
class MaskedOperator:
    """Cut off to ``cols``, apply ``core``, cut off to ``rows``: the rows x cols
    block of the core.  Both supports are strictly increasing flat indices in
    [0, core.size); norms run on ``core.gram`` (see :func:`masked_norm`)."""

    core: object
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        for name, s in (("rows", self.rows), ("cols", self.cols)):
            if (not isinstance(s, np.ndarray) or s.ndim != 1 or s.dtype.kind not in "iu"
                    or np.any(s[1:] <= s[:-1])
                    or (s.size and (s[0] < 0 or s[-1] >= self.core.size))):
                raise ValueError(f"{name} must be strictly increasing integer indices "
                                 f"in [0, {self.core.size})")

    @property
    def size(self) -> int:
        return self.core.size


def resample_mask(x: BoxSet, N: int) -> np.ndarray:
    """Flat boolean mask of x rasterized at resolution 1/N per axis.

    Along each axis, cell j is occupied when one of the m source cells it
    overlaps is, that is one of cells j*m//N .. ceil((j+1)*m/N) - 1; a
    cumulative count of occupied cells answers every j at once.
    """
    j = np.arange(N)
    first, end = j * x.m // N, -(-(j + 1) * x.m // N)
    out = x.mask
    for axis in range(x.n):
        count = np.cumsum(np.moveaxis(out, axis, 0), axis=0, dtype=np.int32)
        count = np.concatenate([np.zeros_like(count[:1]), count])
        out = np.moveaxis(count[end] > count[first], 0, axis)
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# norms


@dataclass
class NormInfo:
    """A masked operator norm with its solver diagnostics.

    ``iters`` counts operator products (applies plus adjoints), two for each
    Gram product that Lanczos takes.  ``converged`` False means that Lanczos
    reached its cap of ``_M_MAX`` steps before its stop rule held; ``value``
    is then the square root of the top Ritz value, a lower bound on the norm.
    ``dense_value`` is the independent dense value when the cross-check ran.
    """

    value: float
    iters: int
    converged: bool
    dense_value: float | None = None


# masked_norm cross-checks every operator of at most this ambient size densely
_DENSE_LIMIT = 4096
# and keeps at most this many Lanczos vectors
_M_MAX = 400


def dense_norm(op: MaskedOperator) -> float:
    """Largest singular value of the block on the supports (exact operator norm).

    It is the square root of the largest eigenvalue of the dense Gram matrix
    on the smaller side, ``op.core.gram_matrix(op.rows, op.cols)``, which
    costs less than the singular values of the block.  A complex Gram matrix
    takes LAPACK's subset driver for its top eigenvalue alone; a real one
    takes every eigenvalue (``eigvalsh``), since the subset drivers raise on
    some real ones (near-identity matrices of full masks).  On the DFT a
    larger support that is the whole grid takes whole columns (or rows) of a
    unitary matrix, which are orthonormal: the norm is exactly 1, and no
    matrix is formed.
    """
    if op.rows.size == 0 or op.cols.size == 0:
        return 0.0
    if isinstance(op.core, FourierCore) and max(op.rows.size, op.cols.size) == op.size:
        return 1.0
    gram = op.core.gram_matrix(op.rows, op.cols)
    if np.iscomplexobj(gram):
        from scipy.linalg import eigh
        top = eigh(gram, eigvals_only=True, subset_by_index=[gram.shape[0] - 1] * 2)[0]
    else:
        top = np.linalg.eigvalsh(gram)[-1]
    return math.sqrt(max(float(top), 0.0))


def masked_norm(op: MaskedOperator, seed: int = 0) -> NormInfo:
    """Largest singular value by Lanczos on the Gram operator, with a dense
    cross-check.

    Lanczos runs on the Gram operator that ``op.core.gram`` gives on the
    smaller support, complex in general and real on mirror-symmetric Fourier
    supports, from a start vector drawn from ``seed``; the norm is the square
    root of the top Ritz value theta.  It keeps every Krylov vector, at most
    ``_M_MAX`` of them, and orthogonalises each new one against all of them
    twice.  Every 4th step it takes theta of the tridiagonal matrix, and it
    stops when theta_m - theta_(m-4) <= 1e-15 theta_m, or when the Krylov
    space is invariant (beta_m vanishes, as it does at once on an operator
    that vanishes on the supports).  A run that reaches the cap returns the
    square root of theta with ``converged`` False: a Ritz value never exceeds
    the top eigenvalue, so the value is then a lower bound.  Supports with
    fewer than 3 rows or columns go to :func:`dense_norm`.  When the ambient
    size is at most ``_DENSE_LIMIT`` the dense value (:func:`dense_norm`,
    from ``op.core.gram_matrix``, formed without ``op.core.gram``) is
    computed as well; a converged value that disagrees with it beyond 1e-10
    (relative), or an unconverged one above it by more than 1e-12, raises
    ``ArithmeticError``.
    """
    rows, cols = op.rows, op.cols
    side = min(rows.size, cols.size)
    if side < 3:
        return NormInfo(dense_norm(op), 0, True)
    from scipy.linalg.lapack import dstebz

    product, dtype = op.core.gram(rows, cols)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(side)
    if dtype is complex:
        v = v + 1j * rng.standard_normal(side)
    basis = np.empty((min(_M_MAX, side), side), dtype=dtype)   # untouched rows cost no memory
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = np.zeros(len(basis)), np.zeros(len(basis))
    thetas, converged = [], False
    for m in range(len(basis)):
        w = product(basis[m])
        alpha[m] = np.vdot(basis[m], w).real
        q = basis[:m + 1]
        for _ in range(2):
            w -= (q @ w.conj()).conj() @ q
        beta[m] = np.linalg.norm(w)
        # the basis spans an invariant subspace: the whole side, or beta_m is
        # round-off beside the Rayleigh quotients alpha
        invariant = m + 1 == side or beta[m] <= 1e-14 * alpha[:m + 1].max()
        last = invariant or m + 1 == len(basis)
        if last or (m + 1) % 4 == 0:
            # the top eigenvalue alone, by bisection; the wrapper wants one
            # off-diagonal entry even for a 1 x 1 matrix
            thetas.append(float(dstebz(alpha[:m + 1], beta[:max(m, 1)], 2, 0.0, 0.0, m + 1,
                                       m + 1, 0.0, "E")[1][0]))
            converged = invariant or (
                len(thetas) > 1 and thetas[-1] - thetas[-2] <= 1e-15 * thetas[-1])
            if converged or last:
                break
        basis[m + 1] = w / beta[m]
    value = math.sqrt(max(thetas[-1], 0.0))
    info = NormInfo(value, 2 * (m + 1), converged)
    if op.size <= _DENSE_LIMIT:
        dense = info.dense_value = dense_norm(op)
        # a converged value matches the dense one, a Ritz lower bound stays below it
        if (abs(value - dense) > 1e-10 * dense) if converged else (value - dense > 1e-12 * dense):
            raise ArithmeticError(
                f"Lanczos norm ({value:.17g}, converged={converged}) disagrees "
                f"with dense norm ({dense:.17g})")
    return info


@dataclass
class DecayFit:
    """Power-law fit norm ~ C h^beta over a ladder of (h, norm) samples."""

    samples: list[tuple[float, float]]
    beta: float
    intercept: float
    residual: float


def beta_fit(samples) -> DecayFit:
    """Least squares of log(norm) against log(h); beta is the slope."""
    samples = [(float(h), float(v)) for h, v in samples]
    if len({h for h, _ in samples}) < 4:
        raise ValueError("need samples at 4 distinct h for a fit")
    if any(v <= 0 for _, v in samples):
        raise ValueError("norms must be positive for a log-log fit")
    lh = np.log([h for h, _ in samples])
    lv = np.log([v for _, v in samples])
    a = np.vstack([lh, np.ones_like(lh)]).T
    (beta, intercept), *_ = np.linalg.lstsq(a, lv, rcond=None)
    residual = float(np.max(np.abs(a @ np.array([beta, intercept]) - lv)))
    return DecayFit(samples, float(beta), float(intercept), residual)


def ladder_fits(rows: list[dict]) -> dict:
    """DecayFit of each energy w over experiment rows (w is None on grid cores).

    Samples keep the row order; a w gets a fit only with at least 4 rows, all
    of them with positive norms.
    """
    fits = {}
    for w in dict.fromkeys(r["w"] for r in rows):
        samples = [(r["h"], r["norm"]) for r in rows if r["w"] == w]
        if len(samples) >= 4 and all(v > 0 for _, v in samples):
            fits[w] = beta_fit(samples)
    return fits


# ---------------------------------------------------------------------------
# general-phase and spherical kernels


def general_phase_fio(phi, b, N: int, n: int, h: float) -> KernelCore:
    """Quadrature kernel h^{-n/2} e^{i phi(x,y)/h} b(x,y) dy on the cube grid."""
    if N ** n > 8192:
        raise ValueError("dense quadrature kernel too large; shrink the grid")
    axes = [np.arange(N) / N for _ in range(n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    amp = np.asarray(b(pts[:, None, :], pts[None, :, :]), dtype=np.float64)
    if amp.shape != (N ** n, N ** n):
        raise ValueError("amplitude oracle must broadcast over point pairs")
    phase = np.asarray(phi(pts[:, None, :], pts[None, :, :]), dtype=np.float64)
    kernel = (h ** (-n / 2)) * np.exp(1j * phase / h) * amp * (N ** (-n))
    kernel[amp == 0.0] = 0.0
    return KernelCore(kernel)


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes and weights on the unit sphere S^n in R^{n+1}.

    ``chords`` is set on grids of evenly spaced circle nodes only:
    ``chords[k]`` is the chordal distance from node j to node j + k (mod
    size), the same for every j.
    """

    points: np.ndarray
    weights: np.ndarray
    n: int
    chords: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.points.shape[0]


def circle_grid(count: int) -> SphereGrid:
    """``count`` evenly spaced nodes on S^1, node k at angle 2 pi k / count."""
    ang = 2.0 * np.pi * np.arange(count) / count
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = np.full(count, 2.0 * np.pi / count)
    return SphereGrid(pts, w, 1, 2.0 * np.abs(np.sin(ang / 2.0)))


def sphere2_grid(count: int) -> SphereGrid:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = 2.0 * np.pi * k / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    w = np.full(count, 4.0 * np.pi / count)
    return SphereGrid(pts, w, 2)


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        bb = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + bb)


def chordal_cutoff(gap: float, width: float):
    """Smooth cutoff chi(d) of the chordal distance d = |y - y'|: 0 below gap,
    1 above gap + width.  It maps an array of chords to an array of the same
    shape, as every cutoff of the log-phase kernel must."""
    def chi(d):
        return smooth_step((d - gap) / width)
    return chi


def _log_phase_block(w: float, h: float, chi, grid: SphereGrid, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """Entries (2 pi h)^{-n/2} |(y-y')/2|^{2iw/h} chi(|y-y'|) dy' for y in rows, y' in cols.

    The entry depends on the chord and on dy' alone.  On a grid that knows
    its chords by node difference (``grid.chords``, evenly spaced circle
    nodes) chi, amplitude and phase are evaluated once per difference, the
    circulant row of the kernel, and the block gathers that row a chunk of
    rows at a time, so no array of all node differences is held; other grids
    take the chord of every pair.
    """
    circle = grid.chords is not None
    if circle:
        d = grid.chords
    else:
        d = np.linalg.norm(grid.points[rows][:, None, :] - grid.points[cols][None, :, :], axis=-1)
    cut = np.asarray(chi(d), dtype=np.float64)
    near = (d < 1e-6) & (cut != 0.0)
    with np.errstate(divide="ignore"):
        logd = np.where(d > 0.0, np.log(np.maximum(d, 1e-300) / 2.0), 0.0)
    kernel = (2.0 * np.pi * h) ** (-grid.n / 2) * cut * np.exp(1j * (2.0 * w / h) * logd)
    kernel[cut == 0.0] = 0.0
    if not circle:
        if near.any():
            raise ValueError("cutoff does not vanish near the diagonal")
        kernel *= grid.weights[cols][None, :]
        return kernel
    block = np.empty((rows.size, cols.size), dtype=complex)
    weights, close = grid.weights[cols], near.any()
    step = max(1, _GATHER_ENTRIES // max(cols.size, 1))
    for lo in range(0, rows.size, step):
        diff = cols[None, :] - rows[lo:lo + step, None]
        diff %= grid.size
        if close and near[diff].any():
            raise ValueError("cutoff does not vanish near the diagonal")
        np.multiply(kernel[diff], weights, out=block[lo:lo + step])
    return block


# A circle-grid log-phase block is gathered this many entries at a time.
_GATHER_ENTRIES = 2**20


def log_phase_kernel(w: float, h: float, chi, grid: SphereGrid) -> KernelCore:
    """Oscillatory kernel (2 pi h)^{-n/2} |(y-y')/2|^{2iw/h} chi(|y-y'|) dy'.

    ``chi`` maps an array of chordal distances to cutoff values of the same
    shape (see :func:`chordal_cutoff`) and must vanish at chords below 1e-6;
    the modulus of the kernel is chi times the quadrature factor, independent
    of w, since the phase exponent is purely imaginary.
    """
    nodes = np.arange(grid.size)
    return KernelCore(_log_phase_block(w, h, chi, grid, nodes, nodes))


def log_phase_masked_operator(w: float, h: float, chi, grid: SphereGrid,
                              rows: np.ndarray, cols: np.ndarray) -> MaskedOperator:
    """Log-phase kernel between two node supports, built only on them; chi
    is a cutoff of the chord as in :func:`log_phase_kernel`.  On circle grids
    the block is gathered from the kernel's row of node differences."""
    block = _log_phase_block(w, h, chi, grid, rows, cols)
    return MaskedOperator(SubmatrixKernelCore(grid.size, rows, cols, block), rows, cols)


# ---------------------------------------------------------------------------
# mixed Hessian probes


# The central mixed difference at (y, y') takes the phase at four displaced
# pairs per Hessian entry (i, j): (y+e_i, y'+e_j), (y+e_i, y'-e_j),
# (y-e_i, y'+e_j) and (y-e_i, y'-e_j), with e_k = fd_step times the k-th unit
# vector.  Each pair is named by which of _mixed_stencil's (plus, minus)
# arrays its y side and its y' side come from.
_STENCIL_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _mixed_stencil(y: np.ndarray, yprime: np.ndarray, fd_step: float):
    """The displaced points of the central mixed difference at (y, y'), for two
    m-vectors or two stacks (P, m) of them: ((y+e, y-e), (y'+e, y'-e)), four
    arrays of shape (..., m, m) whose row k is the point displaced along e_k."""
    if (y == yprime).all(-1).any():
        raise ValueError("mixed Hessian probe needs distinct points")
    if not 4.0 * fd_step * fd_step > 0.0:
        raise ValueError(f"fd_step {fd_step!r} squared underflows to zero")
    e = np.zeros((y.shape[-1],) * 2)
    np.fill_diagonal(e, fd_step)
    y, yprime = y[..., None, :], yprime[..., None, :]
    return (y + e, y - e), (yprime + e, yprime - e)


def _mixed_hessian(values: np.ndarray, fd_step: float) -> np.ndarray:
    """The mixed Hessian (..., m, m) from the phase at the stencil pairs, given
    as an array (..., m, m, 4) in the order of _STENCIL_PAIRS."""
    return (values[..., 0] - values[..., 1] - values[..., 2] + values[..., 3]) \
        / (4.0 * fd_step * fd_step)


def mixed_hessian_det(phi, y: np.ndarray, yprime: np.ndarray, fd_step: float = 1e-5) -> float:
    """Determinant of the finite-difference mixed Hessian in ambient coordinates.

    ``phi(u, v)`` returns a float; it is called once per displaced pair.
    """
    y = np.asarray(y, dtype=np.float64)
    yprime = np.asarray(yprime, dtype=np.float64)
    ys, vs = _mixed_stencil(y, yprime, fd_step)
    m = y.shape[0]
    values = [phi(ys[a][i], vs[b][j])
              for i in range(m) for j in range(m) for a, b in _STENCIL_PAIRS]
    hess = _mixed_hessian(np.array(values, dtype=np.float64).reshape(m, m, 4), fd_step)
    return float(np.linalg.det(hess))


def _log_phase_fd_dets(w: np.ndarray, y: np.ndarray, yprime: np.ndarray,
                       fd_step: float) -> np.ndarray:
    """mixed_hessian_det of the log phase 2 w log|u - v| - w log 4 at every pair
    of the stacks y, y' (P, m), with energies w (P,): the P determinants.

    Each equals mixed_hessian_det with that phase as a scalar lambda, bit for
    bit: the norm is one ddot and a square root, as np.linalg.norm takes it,
    and the logarithm comes from math (numpy's log differs in the last bit for
    a few arguments in a thousand).
    """
    ys, vs = _mixed_stencil(y, yprime, fd_step)
    w = np.asarray(w, dtype=np.float64)[:, None, None]
    rows = []
    for i in range(y.shape[-1]):     # one Hessian row at a time bounds the memory
        # (P, j, pair, m): the difference u - v of each displaced pair of row i
        d = np.stack([ys[a][:, i, None, :] - vs[b] for a, b in _STENCIL_PAIRS], axis=2)
        norm = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]
        log = np.array([math.log(r) for r in norm.ravel().tolist()]).reshape(norm.shape)
        rows.append(2 * w * log - w * math.log(4.0))
    return np.linalg.det(_mixed_hessian(np.stack(rows, axis=1), fd_step))


def log_phase_hessian_factors(w: float, y: np.ndarray, yprime: np.ndarray):
    """Scalar prefactor and structured matrix of the log-phase mixed Hessian.

    The mixed Hessian of 2 w log|y-y'| equals (4 w |v|^{-4}) times
    v v^T - (|v|^2/2) I with v = y - y'; the determinant is the product of
    the prefactor to the ambient power and the small determinant.  A
    determinant that overflows or underflows a float raises ``ValueError``.
    """
    v = np.asarray(y, dtype=np.float64) - np.asarray(yprime, dtype=np.float64)
    r2 = float(v @ v)
    if r2 == 0.0:
        raise ValueError("coincident points")
    m = v.shape[0]
    pref = 4.0 * w / (r2 * r2)
    struct = np.outer(v, v) - 0.5 * r2 * np.eye(m)
    try:
        det = (pref ** m) * float(np.linalg.det(struct))
    except OverflowError:
        det = math.inf
    if not math.isfinite(det) or det == 0.0:
        raise ValueError(f"the log-phase Hessian determinant at w={w!r}, |y - y'|="
                         f"{math.sqrt(r2)!r} is outside the float range")
    return pref, struct, det


# ---------------------------------------------------------------------------
# gnomonic atlas and chart porosity


@dataclass
class SphereAtlas:
    """Charts of geodesic radius ``radius`` covering the sphere, with gnomonic
    projection onto the tangent hyperplane at each center."""

    centers: np.ndarray
    frames: np.ndarray      # (K, n, n+1): orthonormal tangent bases
    radius: float = 0.5

    @property
    def chart_count(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1] - 1

    @classmethod
    def for_circle(cls, count: int = 8) -> "SphereAtlas":
        grid = circle_grid(count)
        frames = np.stack([np.stack([-grid.points[k, 1:2],
                                     grid.points[k, 0:1]], axis=1).reshape(1, 2)
                           for k in range(count)])
        return cls(grid.points, frames)

    @classmethod
    def for_sphere2(cls) -> "SphereAtlas":
        grid = sphere2_grid(48)
        frames = []
        for c in grid.points:
            a = np.zeros(3)
            a[int(np.argmin(np.abs(c)))] = 1.0
            u = a - (a @ c) * c
            u /= np.linalg.norm(u)
            v = np.cross(c, u)
            frames.append(np.stack([u, v]))
        return cls(grid.points, np.stack(frames))

    def covers(self, points: np.ndarray) -> bool:
        cos_r = math.cos(self.radius)
        return bool(np.all(np.max(points @ self.centers.T, axis=1) >= cos_r))

    def project(self, k: int, y: np.ndarray) -> np.ndarray:
        """Gnomonic chart coordinates in chart k of the points on y's last axis
        (rays through the origin meet the tangent hyperplane at the center)."""
        y = np.asarray(y, dtype=np.float64)
        c = np.asarray(y @ self.centers[k])
        if np.any(c < math.cos(self.radius) - 1e-12):
            raise ValueError("point outside the chart")
        return (y / c[..., None]) @ self.frames[k].T

    def unproject(self, k: int, s: np.ndarray) -> np.ndarray:
        u = self.centers[k] + np.asarray(s, dtype=np.float64) @ self.frames[k]
        return u / np.linalg.norm(u, axis=-1, keepdims=True)

    def measured_bilipschitz(self, k: int, rng: np.random.Generator) -> float:
        """Worst ratio of chart-plane to sphere distances over 1000 sampled pairs."""
        s_max = math.tan(self.radius)
        worst = 1.0
        a = rng.uniform(-s_max, s_max, size=(1000, self.n))
        b = rng.uniform(-s_max, s_max, size=(1000, self.n))
        keep = (np.linalg.norm(a, axis=1) <= s_max) & (np.linalg.norm(b, axis=1) <= s_max)
        a, b = a[keep], b[keep]
        ya = self.unproject(k, a)
        yb = self.unproject(k, b)
        plane = np.linalg.norm(a - b, axis=1)
        cosang = np.clip(np.sum(ya * yb, axis=1), -1.0, 1.0)
        sphere = np.arccos(cosang)
        ok = plane > 1e-9
        ratios = plane[ok] / np.maximum(sphere[ok], 1e-300)
        return float(ratios.max())


def _chart_raster(atlas: SphereAtlas, k: int, oracle, m: int) -> BoxSet:
    """Rasterize the chart image of a sphere set into [0,1]^n (3^n probes per cell)."""
    n = atlas.n
    s_max = math.tan(atlas.radius)
    axes = [np.arange(m) / m for _ in range(n)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    offs = np.stack(np.meshgrid(*([np.linspace(0.0, 1.0 / m, 3)] * n),
                                indexing="ij"), axis=-1).reshape(-1, n)
    mask = np.zeros(m ** n, dtype=bool)
    for off in offs:
        s = (centers + off[None, :]) * (2.0 * s_max) - s_max
        inside = np.linalg.norm(s, axis=1) <= s_max
        if not inside.any():
            continue
        y = atlas.unproject(k, s[inside])
        hit = oracle(y)
        idx = np.flatnonzero(inside)[np.asarray(hit, dtype=bool)]
        mask[idx] = True
    return BoxSet(n, m, mask.reshape((m,) * n))


def sphere_porosity_check(oracle, nu: float, alpha0: float, alpha1: float,
                          atlas: SphereAtlas, m: int = 128, kind: str = "ball",
                          directions: int = 8) -> tuple[Verdict, list[PorosityReport]]:
    """Run the Euclidean porosity decider on every gnomonic chart image.

    Scales are intrinsic; they convert to normalized chart units through the
    chart half-width.  The aggregate verdict is the worst chart verdict.
    """
    _require_kind(kind)
    lam = 1.0 / (2.0 * math.tan(atlas.radius))
    reports = [_checked(_chart_raster(atlas, k, oracle, m), nu, alpha0 * lam, alpha1 * lam,
                        kind, directions) for k in range(atlas.chart_count)]
    return _combine([rep.verdict for rep in reports]), reports


# ---------------------------------------------------------------------------
# experiment driver


# The fields that only the other core reads.  A config must leave them at
# their defaults, or it would run while ignoring what it asked for.
_UNREAD_FIELDS = {"fourier": ("w_list",),
                  "log_phase": ("set_minus", "set_plus", "lower_bound_mode")}

# The log-phase geometry: the minus and plus quarter arcs of the unit circle, in
# fractions of a turn, and the chordal cutoff chi(d) = smooth_step((d - gap) / width).
_ARC_MINUS, _ARC_PLUS = (0.5, 0.75), (0.0, 0.25)
_CHI_GAP, _CHI_WIDTH = 0.4, 0.3


@dataclass
class FupConfig:
    """Configuration of one decay experiment."""

    core: str = "fourier"                  # fourier | log_phase
    n: int = 1
    ladder: tuple[int, ...] = (27, 81, 243, 729)
    cantor_base: int = 3
    cantor_kept: tuple[int, ...] = (0, 2)
    set_minus: BoxSet | None = None        # overrides the Cantor family
    set_plus: BoxSet | None = None
    rho: float | None = None               # mask thickening exponent
    w_list: tuple[float, ...] = (1.0,)
    lower_bound_mode: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.core not in ("fourier", "log_phase"):
            raise ValueError(f"unknown core {self.core!r}")
        defaults = {f.name: f.default for f in fields(self)}
        unread = [k for k in _UNREAD_FIELDS[self.core] if getattr(self, k) != defaults[k]]
        if unread:
            raise ValueError(f"the {self.core} core does not read {', '.join(unread)}; "
                             "leave them at their defaults")
        for key in ("set_minus", "set_plus"):
            explicit = getattr(self, key)
            if explicit is not None and explicit.n != self.n:
                raise ValueError(f"{key} has n = {explicit.n}, but the config has n = {self.n}")
        if self.n < 1 or len(self.ladder) == 0:
            raise ValueError("bad dimensions or empty ladder")
        if len(set(self.ladder)) < len(self.ladder):
            raise ValueError(f"ladder values {list(self.ladder)} repeat; a decay fit needs "
                             "distinct scales")
        if min(self.ladder) < 2:
            raise ValueError("ladder values must be at least 2")
        if self.core == "log_phase" or None in (self.set_minus, self.set_plus):
            # a Cantor family is read: its base and digits pass CantorSpec's own checks
            CantorSpec.uniform(self.cantor_base, self.cantor_kept, 1, self.n)
        if self.core != "log_phase" and None in (self.set_minus, self.set_plus):
            bad = [N for N in self.ladder
                   if self.cantor_base ** _cantor_depth(self.cantor_base, N) != N]
            if bad:
                raise ValueError(f"ladder values {bad} of a Cantor family are not powers "
                                 f"of cantor_base {self.cantor_base}")
        if self.core == "log_phase" and self.n != 1:
            raise ValueError("the log-phase ladder runs on circle grids (n = 1)")
        if self.core == "log_phase":
            J = max(self.ladder)
            for w in self.w_list:
                err = _phase_rounding_error(w, J)
                if not err <= _PHASE_ROUNDING_LIMIT:
                    raise ValueError(f"w={w:.17g} rounds the log phase by {err:.3g} rad at "
                                     f"J={J}, above {_PHASE_ROUNDING_LIMIT:g} rad")
        if self.rho is not None and not 0.0 < self.rho <= 1.0:
            raise ValueError("thickening exponent must lie in (0, 1]")
        if self.core == "fourier":
            self._check_budgets()
        else:
            self._check_circle_budgets()
        if (self.lower_bound_mode and self.set_plus is not None
                and self.set_plus.occupied_count == 0):
            raise ValueError("lower_bound_mode needs a nonempty set_plus to probe")

    def _check_budgets(self) -> None:
        """Refuse a Fourier ladder point whose arrays would pass a budget below,
        from their sizes alone, before any of them is allocated."""
        n, explicit = self.n, self.set_minus is not None or self.set_plus is not None
        for N in self.ladder:
            if explicit and N ** n > _RASTER_CELLS:
                raise ValueError(f"ladder value {N}: a raster of {N}^{n} cells is over the "
                                 f"budget of {_RASTER_CELLS}")
            if None not in (self.set_minus, self.set_plus):
                continue
            depth, r = _cantor_depth(self.cantor_base, N), _thickening_cells(self.rho, N)
            cells = (_kept_bound(self, N, depth, r, N ** n) if r
                     else len(set(self.cantor_kept)) ** (n * max(depth, 2)))
            if cells > _SUPPORT_CELLS:
                what = "thickened support takes up to" if r else "support and level blocks take"
                raise ValueError(f"ladder value {N}: the Cantor family's {what} {cells} cells, "
                                 f"over the budget of {_SUPPORT_CELLS}")
            if n * N ** max(n, 2) >= _INDEX_LIMIT:
                raise ValueError(f"ladder value {N}: flat indices or DFT phases overflow "
                                 f"int64 in {n}-D")

    def _check_circle_budgets(self) -> None:
        """Refuse a log-phase ladder point whose circle grid or kernel block would
        pass a budget below, from node counts alone, before any array is built."""
        for J in self.ladder:
            if J > _CIRCLE_NODES:
                raise ValueError(f"ladder value {J}: a circle grid of {J} nodes is over the "
                                 f"budget of {_CIRCLE_NODES}")
            r = _thickening_nodes(self.rho, J)
            arcs = (_arc_cantor(self, arc, J) for arc in (_ARC_MINUS, _ARC_PLUS))
            rows, cols = (_kept_bound(self, len(nodes), depth, r, J) for nodes, depth in arcs)
            if rows * cols > _BLOCK_ENTRIES:
                raise ValueError(f"ladder value {J}: a kernel block of up to {rows} x {cols} "
                                 f"entries is over the budget of {_BLOCK_ENTRIES}")


_PHASE_ROUNDING_LIMIT = 1e-6       # rad
# Budgets of a Fourier ladder point.  An explicit set's raster and an FFT off
# the pruned plan hold N^n cells (16 bytes each, 160 MB an array at the budget).
_RASTER_CELLS = 10**7
# A Cantor family takes an FFT of the grid only where that costs less than the
# pruned plan, whose support (_kept_bound cells, up to _M_MAX Lanczos vectors on
# it: 1.7 GB complex at the cap) and level blocks this budget bounds.
_SUPPORT_CELLS = 2**18
# Its flat indices, N^n, and its DFT phases, sums of n products of two
# coordinates, are int64.
_INDEX_LIMIT = 2**63
# Budgets of a log-phase ladder point.  Its circle grid holds points, weights
# and chords, and the kernel's row of J chords takes its cutoff, amplitude and
# phase: about 100 bytes a node at the peak, 0.8 GB at the budget.
_CIRCLE_NODES = 2**23
# Its |rows| x |cols| block is held once, as complex entries gathered a chunk
# of rows at a time, and the Gram product takes its adjoint without a copy:
# 16 bytes an entry, 1.1 GB at the budget, which J = 4 * 3^13 reaches on the
# quarter arcs of digits {0, 2} in base 3.
_BLOCK_ENTRIES = 2**26


def _phase_rounding_error(w: float, J: int) -> float:
    """Float64 rounding error (2w/h) max|log(d/2)| 2^-52 of the log phase at
    h = 1/J, the max over the chords d of the unit circle that the cutoff
    keeps: above its gap and no shorter than the grid's neighbour chord."""
    d_min = max(_CHI_GAP, 2.0 * math.sin(math.pi / J))
    return 2.0 * abs(w) * J * max(0.0, math.log(2.0 / d_min)) * 2.0 ** -52


def _cantor_depth(base: int, N: int) -> int:
    """Depth of the Cantor family on an N-cell axis; validate checks base^depth == N."""
    return max(1, round(math.log(N, base)))


def _fill(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of the increasing, disjoint runs [starts, stops), in order."""
    sizes = stops - starts
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _thicken(cells: np.ndarray, r: int, N: int, n: int) -> np.ndarray:
    """``cells`` (increasing flat indices of the N^n grid) dilated by the ball |o|^2 <= r^2 and
    clipped at the grid's ends: each row o' of the ball moves runs along the last axis to other
    lines and widens them by isqrt(r^2 - |o'|^2), in arrays of n runs (2r + 1)^(n - 1) entries."""
    if r <= 0 or cells.size == 0:
        return cells
    first = np.flatnonzero((np.diff(cells, prepend=-2) != 1) | (cells % N == 0))
    last = np.append(first[1:], cells.size) - 1
    rows = np.array([o for o in itertools.product(range(-r, r + 1), repeat=n - 1)
                     if sum(x * x for x in o) <= r * r], dtype=np.int64)
    half = np.array([math.isqrt(r * r - int(o @ o)) for o in rows])[:, None]
    coords = np.array(np.unravel_index(cells[first], (N,) * n))
    moved = coords[:-1, None] + rows.T[:, :, None]      # each run's line moved by each row
    inside = ((moved >= 0) & (moved < N)).all(axis=0)
    line = (N ** np.arange(n - 2, -1, -1)[:, None, None] * moved).sum(axis=0)
    starts = (line * N + np.maximum(coords[-1] - half, 0))[inside]
    stops = (line * N + np.minimum(cells[last] % N + half, N - 1) + 1)[inside]
    order = starts.argsort()
    starts, stops = starts[order], np.maximum.accumulate(stops[order])
    new = np.append(True, starts[1:] > stops[:-1])
    return _fill(starts[new], stops[np.append(new[1:], True)])


def _family_support(cfg: FupConfig, explicit: BoxSet | None, N: int) -> np.ndarray:
    """One side's flat support at N, from its raster or its digits, thickened."""
    if explicit is not None:
        cells = np.flatnonzero(resample_mask(explicit, N))
    else:
        cells = CantorSpec.uniform(cfg.cantor_base, cfg.cantor_kept,
                                   _cantor_depth(cfg.cantor_base, N), cfg.n).cells()
    return _thicken(cells, _thickening_cells(cfg.rho, N), N, cfg.n)


def _arc_cantor(cfg: FupConfig, arc: tuple[float, float], J: int) -> tuple[range, int]:
    """The nodes j of the J-node circle grid whose angle fraction j/J lies in
    the arc [lo, hi), and the depth of the arc's Cantor family.  j/J rounds
    monotonically in j, so the nodes are a run whose ends lie next to lo J and
    hi J: they are found with no array of J entries."""
    def first(t):       # the least j in [0, J] with j/J >= t, J when there is none
        j = min(max(math.ceil(t * J), 0), J)
        while j > 0 and (j - 1) / J >= t:
            j -= 1
        while j < J and j / J < t:
            j += 1
        return j
    nodes = range(first(arc[0]), first(arc[1]))
    return nodes, _cantor_depth(cfg.cantor_base, max(len(nodes), cfg.cantor_base))


def _arc_support(cfg: FupConfig, arc: tuple[float, float], J: int) -> np.ndarray:
    """The nodes of the J-node grid that a log-phase support keeps in an arc: the
    t-th of its count nodes lies in Cantor cell t p^depth // count, so kept cell
    c holds t from ceil(c count / p^depth) up to ceil((c + 1) count / p^depth)."""
    nodes, depth = _arc_cantor(cfg, arc, J)
    low = CantorSpec.uniform(cfg.cantor_base, cfg.cantor_kept, depth, 1).cells() * len(nodes)
    start, stop = (nodes.start - (-e // cfg.cantor_base ** depth) for e in (low, low + len(nodes)))
    return _thicken(_fill(start, stop), _thickening_nodes(cfg.rho, J), J, 1)


def _kept_bound(cfg: FupConfig, count: int, depth: int, r: int, cap: int) -> int:
    """The least over levels l <= depth of |kept|^(n l) (ceil(count / base^l) + 2r)^n, or
    cap: a bound on the cells of cfg's family over ``count`` cells an axis thickened by r."""
    kept, n = len(set(cfg.cantor_kept)), cfg.n
    return min(cap, min(kept ** (n * l) * (-(-count // cfg.cantor_base ** l) + 2 * r) ** n
                        for l in range(depth + 1)))


def _thickening_cells(rho: float | None, N: int) -> int:
    """The radius, in cells, by which a grid support is thickened at h = 1/N."""
    return 0 if rho is None else int(round(N ** (1.0 - rho)))


def _thickening_nodes(rho: float | None, J: int) -> int:
    """The radius, in nodes, by which a log-phase support is thickened at h = 1/J."""
    return 0 if rho is None else int(round(J * (1.0 / J) ** rho / (2.0 * np.pi)))


def _sanity(norm: float) -> bool:
    return norm <= 1.0 + 1e-10


def _grid_operator(cfg: FupConfig, N: int) -> MaskedOperator:
    rows = _family_support(cfg, cfg.set_minus, N)
    cols = rows if cfg.set_plus is cfg.set_minus else _family_support(cfg, cfg.set_plus, N)
    return MaskedOperator(semiclassical_dft(N, cfg.n), rows, cols)


def _log_phase_operator(cfg: FupConfig, w: float, J: int) -> MaskedOperator:
    return log_phase_masked_operator(w, 1.0 / J, chordal_cutoff(_CHI_GAP, _CHI_WIDTH),
                                     circle_grid(J), _arc_support(cfg, _ARC_MINUS, J),
                                     _arc_support(cfg, _ARC_PLUS, J))


def fup_experiment(cfg: FupConfig):
    """Run the configured ladder; returns (rows, fits, ok).

    Each row is a dict with keys core, n, N, h, rho, w, norm, iters,
    converged.  ``fits`` maps the energy w (None for grid cores) to the
    DecayFit across the ladder.  ``ok`` reports the sanity invariants:
    converged norms, the unitarity cap on grid cores and, in lower-bound mode,
    the exact single-column value.
    """
    cfg.validate()
    rows: list[dict] = []
    ok = True
    grid_core = cfg.core != "log_phase"
    for w in (None,) if grid_core else cfg.w_list:
        for N in cfg.ladder:
            op = _grid_operator(cfg, N) if grid_core else _log_phase_operator(cfg, w, N)
            info = masked_norm(op, cfg.seed)
            ok = ok and info.converged and (not grid_core or _sanity(info.value))
            if cfg.lower_bound_mode and grid_core:
                lb = masked_norm(MaskedOperator(op.core, op.rows, op.cols[:1]), cfg.seed)
                expected = math.sqrt(op.rows.size / op.size)
                ok = ok and abs(lb.value - expected) <= 1e-12
            rows.append(dict(core=cfg.core, n=cfg.n, N=N, h=1.0 / N, rho=cfg.rho, w=w,
                             norm=info.value, iters=info.iters, converged=info.converged))
    return rows, ladder_fits(rows), ok
