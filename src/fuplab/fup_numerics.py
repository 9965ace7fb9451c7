r"""Masked-transform uncertainty experiments on grids and spheres.

The experiments all share one shape: cut off to a porous set, apply a unitary
or oscillatory transform, cut off to another porous set, and watch the
operator norm decay as the grid refines.  With the semiclassical parameter
tied to the grid (h = 1/N) the discretized transform is the unitary DFT, so
unitarity and the single-column norm are exact and serve as hard anchors.

A masked operator is a core and two supports: strictly increasing flat
indices of the output cells (``rows``) and the input cells (``cols``).  Every
core answers the same protocol: its ambient ``size``, the dense block
``submatrix(rows, cols)`` and the maps ``restricted(rows, cols)`` of that
block.  Norms are computed matrix-free by ARPACK Lanczos (scipy's ``svds``)
on the restricted maps; on small problems a dense singular-value computation
of the block must agree to 1e-10 (relative) and runs automatically.  The DFT
core runs a pruned Cooley-Tukey plan on the supports of N = p^k whose base-p
digit tuples form a product over the k levels (every full-depth Cantor
family of prime base, and joint-digit sets that are no per-axis product),
whose products never touch the ambient grid, whenever that is estimated
cheaper than an FFT of the whole grid; other supports scatter, FFT and
gather.  The quadrature cores
multiply by their block.  Power-law exponents are fitted by least squares in
log-log coordinates with the residual always reported.

``FupConfig`` runs two cores: ``fourier`` (the unitary DFT on the cube grid)
and ``log_phase`` (the logarithmic-phase kernel on circle grids).

The sphere section provides the oscillatory kernel with logarithmic phase,
equal-weight quadrature grids on S^1 and S^2, gnomonic chart atlases with
measured bi-Lipschitz constants, chart-level porosity checks, and the mixed
Hessian determinant probes for the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import ndimage

from .porosity import BoxSet, CantorSpec, PorosityReport, Verdict, cantor_generate
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
    "thicken_mask",
    "FupConfig",
    "fup_experiment",
]


# ---------------------------------------------------------------------------
# operator cores


@dataclass(frozen=True)
class FourierCore:
    """Unitary DFT on the grid {j/N}^n, the h = 1/N discretization."""

    N: int
    n: int

    @property
    def size(self) -> int:
        return self.N ** self.n

    @property
    def h(self) -> float:
        return 1.0 / self.N

    def apply(self, u: np.ndarray) -> np.ndarray:
        shape = (self.N,) * self.n
        return (np.fft.fftn(u.reshape(shape)) * self.N ** (-self.n / 2)).reshape(-1)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        shape = (self.N,) * self.n
        return (np.fft.ifftn(u.reshape(shape)) * self.N ** (self.n / 2)).reshape(-1)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        a = np.stack(np.unravel_index(rows, (self.N,) * self.n), axis=1)
        b = np.stack(np.unravel_index(cols, (self.N,) * self.n), axis=1)
        phase = (a @ b.T) % self.N
        return np.exp(-2j * np.pi * phase / self.N) * self.N ** (-self.n / 2)

    def restricted(self, rows: np.ndarray, cols: np.ndarray):
        """(matvec, rmatvec) of the |rows| x |cols| block of the DFT.

        When N = p^k for a prime p, each support is the product over the k
        levels of its sets of base-p digit tuples (see :class:`_PrunedDft`),
        and the pruned stages are estimated cheaper than the ambient FFT, the
        products never leave the supports; otherwise they scatter, FFT and
        gather.
        """
        plan = _PrunedDft.build(self, rows, cols, budget=_fft_work(self.size))
        if plan is not None:
            return plan.apply, plan.adjoint

        def matvec(x):
            u = np.zeros(self.size, dtype=complex)
            u[cols] = x
            return self.apply(u)[rows]

        def rmatvec(y):
            u = np.zeros(self.size, dtype=complex)
            u[rows] = y
            return self.adjoint(u)[cols]

        return matvec, rmatvec


# The cost rule of FourierCore.restricted counts work in complex multiply-adds
# on contiguous arrays.  An FFT of size S with its scatter and gather costs
# about S log2(S) of them; every numpy call of a pruned product (three per
# stage, plus the scatter into level order and the gather out of it) is
# charged _CALL_WORK, about twice its measured overhead, so that the pruned
# path is taken only where it wins clearly (on the Cantor masks of digits
# {0, 2} in base 3: from 3^9 cells in one dimension and 81^2 in two).
_CALL_WORK = 4000


def _fft_work(size: int) -> float:
    return size * math.log2(max(size, 2))


def _prime_power(N: int) -> tuple[int, int] | None:
    """(p, k) with N = p^k and p prime, or None."""
    if N < 2:
        return None
    p = next((d for d in range(2, math.isqrt(N) + 1) if N % d == 0), N)
    k, m = 0, N
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def _digit_product(support: np.ndarray, p: int, k: int, shape: tuple[int, ...]):
    """(levels, position) of a flat support whose cells are the whole product
    of their per-level digit tuples (coords // p^j) % p, else None.

    ``levels[j]`` is the increasing (|D_j|, n) array of the level-j tuples
    (level 0 the units), and ``position`` the place of each cell in level order,
    the row-major order of prod_j D_j with level k-1 slowest.
    """
    coords = np.array(np.unravel_index(support, shape))
    weights = p ** np.arange(len(shape) - 1, -1, -1)
    levels, position, total = [], 0, 1
    for j in range(k):
        codes = weights @ (coords // p ** j % p)
        seen = np.bincount(codes, minlength=p ** len(shape)) > 0
        position = position + (np.cumsum(seen) - 1)[codes] * total
        total *= np.count_nonzero(seen)
        if total > support.size:
            return None
        levels.append(np.stack(np.unravel_index(np.flatnonzero(seen), (p,) * len(shape)), axis=1))
    return (levels, position) if total == support.size else None


def _stages(p: int, src: list, dst: list, sign: int, scale: float, budget: float = math.inf):
    """The k stages (size, rest, twiddle, block) of the pruned DFT from the
    level sets ``src`` to ``dst``, or None once their work reaches ``budget``.

    Input index b = sum_j b_j p^j with digit tuples b_j in ``src[j]``, output a
    with a_s in ``dst[s]``.  The exponent <a, b>/p^k splits into terms
    <b_j, a mod p^(k-j)> / p^(k-j), so stage s contracts the tuple b_(k-1-s)
    into a_s: a twiddle by <b_j, a mod p^s> / p^(s+1) over the output tuples
    made so far, then the |dst[s]| x |src[j]| block of the n-D p-point DFT.
    Each stage is charged the tensor it takes times |dst[s]| + 2 (block,
    twiddle, copy).
    """
    k = len(src)
    rest = math.prod(len(a) for a in src)
    made = np.zeros((1, src[0].shape[1]), dtype=np.int64)   # a mod p^s, made so far
    stages, work = [], 0
    for s in range(k):
        a, b = src[k - 1 - s], dst[s]
        rest //= len(a)
        work += len(a) * rest * len(made) * (len(b) + 2)
        if work >= budget:
            return None
        q = p ** (s + 1)
        twiddle = np.exp(sign * 2j * np.pi * ((a @ made.T) % q) / q) if s else None
        block = np.exp(sign * 2j * np.pi * ((b @ a.T) % p) / p)
        if s == k - 1:
            block *= scale
        stages.append((len(a), rest, twiddle, block))
        made = (b[:, None] * p ** s + made[None, :]).reshape(-1, made.shape[1])
    return stages


@dataclass(frozen=True)
class _PrunedDft:
    """The restricted unitary DFT on supports that are products of per-level
    digit-tuple sets (see :func:`_digit_product`).

    For N = p^k with p prime such supports keep the Cooley-Tukey recursion
    closed (decimation in time, pruned on input and output; see
    :func:`_stages`), so a product costs about k |D|^(k+1) instead of
    N^n log N^n.  The stages run in level order: a product scatters its input
    into that order and gathers its output back.
    """

    forward: list
    backward: list
    row_position: np.ndarray
    col_position: np.ndarray

    @classmethod
    def build(cls, core: FourierCore, rows: np.ndarray, cols: np.ndarray,
              budget: float = math.inf):
        """The plan for increasing rows and cols, or None unless N is a prime
        power, both supports are digit products and a product's estimated
        work is below ``budget``."""
        pk = _prime_power(core.N)
        if pk is None or rows.size == 0 or cols.size == 0:
            return None
        p, k = pk
        calls = (3 * k + 2) * _CALL_WORK
        if calls >= budget or np.any(np.diff(rows) <= 0) or np.any(np.diff(cols) <= 0):
            return None
        shape, scale = (core.N,) * core.n, core.N ** (-core.n / 2)
        row = _digit_product(rows, p, k, shape)
        col = None if row is None else _digit_product(cols, p, k, shape)
        if col is None:
            return None
        (row_levels, row_position), (col_levels, col_position) = row, col
        forward = _stages(p, col_levels, row_levels, -1, scale, budget - calls)
        if forward is None:
            return None
        return cls(forward, _stages(p, row_levels, col_levels, 1, scale),
                   row_position, col_position)

    @staticmethod
    def _run(stages: list, src: np.ndarray, dst: np.ndarray, x: np.ndarray) -> np.ndarray:
        t = np.empty_like(x)
        t[src] = x
        for size, rest, twiddle, block in stages:
            t = t.reshape(size, rest, -1)
            if twiddle is not None:
                t = t * twiddle[:, None, :]
            t = block @ t.reshape(size, -1)
            t = t.reshape(block.shape[0], rest, -1).transpose(1, 0, 2)
        return t.reshape(-1)[dst]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._run(self.forward, self.col_position, self.row_position, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._run(self.backward, self.row_position, self.col_position, y)


class _BlockCore:
    """Restricted products of a quadrature core: multiply by its block."""

    def restricted(self, rows: np.ndarray, cols: np.ndarray):
        """(matvec, rmatvec) of ``submatrix(rows, cols)``; the adjoint is formed once."""
        block = self.submatrix(rows, cols)
        adjoint = block.conj().T
        return (lambda x: block @ x), (lambda y: adjoint @ y)


@dataclass(frozen=True)
class KernelCore(_BlockCore):
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
class SubmatrixKernelCore(_BlockCore):
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
    """The DFT core; N should be 2- or 3-smooth for fast transforms."""
    if N < 2:
        raise ValueError("need N >= 2")
    m = N
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    if m != 1:
        raise ValueError(f"N={N} is not smooth (factors of 2, 3, 5 only)")
    return FourierCore(N, n)


@dataclass
class MaskedOperator:
    """Cut off to ``cols``, apply ``core``, cut off to ``rows``: the rows x cols
    block of the core.  Both supports are strictly increasing flat indices in
    [0, core.size); products run through ``core.restricted`` (see
    :func:`masked_norm`)."""

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

    ``iters`` counts operator products (applies plus adjoints); ``dense_value``
    is the independent dense value when the cross-check ran.
    """

    value: float
    iters: int
    converged: bool
    dense_value: float | None = None


# masked_norm cross-checks every operator of at most this ambient size densely
_DENSE_LIMIT = 4096


def dense_norm(op: MaskedOperator) -> float:
    """Largest singular value of the block on the supports (exact operator norm)."""
    if op.rows.size == 0 or op.cols.size == 0:
        return 0.0
    return float(np.linalg.svd(op.core.submatrix(op.rows, op.cols), compute_uv=False)[0])


def masked_norm(op: MaskedOperator, seed: int = 0) -> NormInfo:
    """Largest singular value by Lanczos on the supports, with a dense cross-check.

    ARPACK Lanczos (``svds``, start vector drawn from ``seed``) runs on the
    |rows| x |cols| maps given by ``op.core.restricted``.  Supports with fewer
    than 3 rows or columns, which ARPACK cannot take, and operators that
    vanish on the supports go to :func:`dense_norm`.  When Lanczos does not
    converge the value is NaN and ``converged`` is False.  When the ambient
    size is at most ``_DENSE_LIMIT`` the dense value is computed as well and a
    relative disagreement beyond 1e-10 raises.
    """
    rows, cols = op.rows, op.cols
    side = min(rows.size, cols.size)
    if side < 3:
        return NormInfo(dense_norm(op), 0, True)
    # imported here: at module level it adds about 30 ms to importing the CLI
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, svds

    apply, adjoint = op.core.restricted(rows, cols)
    products = 0

    def matvec(x):
        nonlocal products
        products += 1
        return apply(x.ravel())

    def rmatvec(y):
        nonlocal products
        products += 1
        return adjoint(y.ravel())

    restricted = LinearOperator((rows.size, cols.size), matvec=matvec, rmatvec=rmatvec,
                                dtype=complex)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(side) + 1j * rng.standard_normal(side)
    converged = True
    try:
        value = float(svds(restricted, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])
    except ArpackNoConvergence:
        value, converged = math.nan, False
    except ArpackError:
        # ARPACK finds no start vector when the operator vanishes on the supports
        value = dense_norm(op)
    info = NormInfo(value, products, converged)
    if converged and op.size <= _DENSE_LIMIT:
        info.dense_value = dense_norm(op)
        if abs(value - info.dense_value) > 1e-10 * info.dense_value:
            raise ArithmeticError(
                f"Lanczos norm ({value:.17g}) disagrees with dense norm "
                f"({info.dense_value:.17g})")
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
    if len(samples) < 4:
        raise ValueError("need at least 4 ladder samples for a fit")
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
    """Quadrature nodes and weights on the unit sphere S^n in R^{n+1}."""

    points: np.ndarray
    weights: np.ndarray
    n: int

    @property
    def size(self) -> int:
        return self.points.shape[0]


def circle_grid(count: int) -> SphereGrid:
    ang = 2.0 * np.pi * np.arange(count) / count
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = np.full(count, 2.0 * np.pi / count)
    return SphereGrid(pts, w, 1)


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
    """Smooth cutoff chi(y, y') of chordal distance: 0 below gap, 1 above gap+width."""
    def chi(y, yp):
        d = np.linalg.norm(y - yp, axis=-1)
        return smooth_step((d - gap) / width)
    return chi


def _log_phase_block(w: float, h: float, chi, grid: SphereGrid, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """Entries (2 pi h)^{-n/2} |(y-y')/2|^{2iw/h} chi(y,y') dy' for y in rows, y' in cols."""
    ya = grid.points[rows]
    yb = grid.points[cols]
    d = np.linalg.norm(ya[:, None, :] - yb[None, :, :], axis=-1)
    chi_mat = np.asarray(chi(ya[:, None, :], yb[None, :, :]), dtype=np.float64)
    if np.any(chi_mat[d < 1e-6] != 0.0):
        raise ValueError("cutoff does not vanish near the diagonal")
    amp = (2.0 * np.pi * h) ** (-grid.n / 2) * chi_mat * grid.weights[cols][None, :]
    with np.errstate(divide="ignore"):
        logd = np.where(d > 0.0, np.log(np.maximum(d, 1e-300) / 2.0), 0.0)
    block = amp * np.exp(1j * (2.0 * w / h) * logd)
    block[chi_mat == 0.0] = 0.0
    return block


def log_phase_kernel(w: float, h: float, chi, grid: SphereGrid) -> KernelCore:
    """Oscillatory kernel (2 pi h)^{-n/2} |(y-y')/2|^{2iw/h} chi(y,y') dy'.

    The cutoff must vanish at chordal distances below 1e-6; the
    modulus of the kernel is chi times the quadrature factor, independent of
    w, since the phase exponent is purely imaginary.
    """
    nodes = np.arange(grid.size)
    return KernelCore(_log_phase_block(w, h, chi, grid, nodes, nodes))


def log_phase_masked_operator(w: float, h: float, chi, grid: SphereGrid,
                              rows: np.ndarray, cols: np.ndarray) -> MaskedOperator:
    """Log-phase kernel between two node supports, built only on them."""
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
    the prefactor to the ambient power and the small determinant.
    """
    v = np.asarray(y, dtype=np.float64) - np.asarray(yprime, dtype=np.float64)
    r2 = float(v @ v)
    if r2 == 0.0:
        raise ValueError("coincident points")
    m = v.shape[0]
    pref = 4.0 * w / (r2 * r2)
    struct = np.outer(v, v) - 0.5 * r2 * np.eye(m)
    det = (pref ** m) * float(np.linalg.det(struct))
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


def thicken_mask(mask: np.ndarray, radius_cells: int, n: int) -> np.ndarray:
    """Dilate a flat grid mask by the discrete ball of center distance radius."""
    if radius_cells <= 0:
        return mask.copy()
    side = round(mask.size ** (1.0 / n))
    shaped = mask.reshape((side,) * n)
    rng = np.arange(-radius_cells, radius_cells + 1)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    se = sum(g.astype(np.int64) ** 2 for g in grids) <= radius_cells ** 2
    return ndimage.binary_dilation(shaped, structure=se).reshape(-1)


# The fields that only the other core reads.  A config must leave them at
# their defaults, or it would run while ignoring what it asked for.
_UNREAD_FIELDS = {"fourier": ("w_list", "chi_gap", "chi_width", "arc_minus", "arc_plus"),
                  "log_phase": ("set_minus", "set_plus", "lower_bound_mode")}


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
    chi_gap: float = 0.4
    chi_width: float = 0.3
    arc_minus: tuple[float, float] = (0.5, 0.75)
    arc_plus: tuple[float, float] = (0.0, 0.25)
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
        if min(self.ladder) < 2 or self.cantor_base < 2:
            raise ValueError("ladder values and cantor_base must be at least 2")
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
                err = _phase_rounding_error(w, J, self.chi_gap)
                if not err <= _PHASE_ROUNDING_LIMIT:
                    raise ValueError(f"w={w:.17g} rounds the log phase by {err:.3g} rad at "
                                     f"J={J}, above {_PHASE_ROUNDING_LIMIT:g} rad")
        if self.rho is not None and not 0.0 < self.rho <= 1.0:
            raise ValueError("thickening exponent must lie in (0, 1]")
        if (self.lower_bound_mode and self.set_plus is not None
                and self.set_plus.occupied_count == 0):
            raise ValueError("lower_bound_mode needs a nonempty set_plus to probe")


_PHASE_ROUNDING_LIMIT = 1e-6       # rad


def _phase_rounding_error(w: float, J: int, chi_gap: float) -> float:
    """Float64 rounding error (2w/h) max|log(d/2)| 2^-52 of the log phase at
    h = 1/J, the max over the chords d of the unit circle that the cutoff
    keeps: above chi_gap and no shorter than the grid's neighbour chord."""
    d_min = max(chi_gap, 2.0 * math.sin(math.pi / J))
    return 2.0 * abs(w) * J * max(0.0, math.log(2.0 / d_min)) * 2.0 ** -52


def _cantor_depth(base: int, N: int) -> int:
    """Depth of the Cantor family on an N-cell axis; validate checks base^depth == N."""
    return max(1, round(math.log(N, base)))


def _family_mask(cfg: FupConfig, which: str, N: int) -> np.ndarray:
    explicit = cfg.set_minus if which == "minus" else cfg.set_plus
    if explicit is not None:
        return resample_mask(explicit, N)
    depth = _cantor_depth(cfg.cantor_base, N)
    spec = CantorSpec.uniform(cfg.cantor_base, cfg.cantor_kept, depth, cfg.n)
    return cantor_generate(spec, cfg.n).mask.reshape(-1)


def _arc_cantor_mask(cfg: FupConfig, arc: tuple[float, float], grid: SphereGrid) -> np.ndarray:
    """Cantor set of angles inside an arc, sampled on the circle grid.

    The arc holds a run of consecutive nodes; the t-th of its count nodes lies
    in Cantor cell t * base^depth // count, in integer arithmetic.  The depth
    tracks the node count, so the mask refines with the ladder the way the
    cube-grid families do: on grids with J = 4 * base^k nodes each quarter arc
    keeps exactly |kept|^k nodes.
    """
    J = grid.size
    lo, hi = arc
    ang = np.arange(J) / J          # angle fraction of each node
    inside = np.flatnonzero((ang >= lo) & (ang < hi))
    count = inside.size
    depth = _cantor_depth(cfg.cantor_base, max(count, cfg.cantor_base))
    base = cantor_generate(CantorSpec.uniform(cfg.cantor_base, cfg.cantor_kept, depth, 1), 1)
    mask = np.zeros(J, dtype=bool)
    mask[inside] = base.mask[np.arange(count) * base.m // max(count, 1)]
    return mask


def _sanity(norm: float) -> bool:
    return norm <= 1.0 + 1e-10


def _grid_operator(cfg: FupConfig, N: int) -> MaskedOperator:
    left = _family_mask(cfg, "minus", N)
    right = _family_mask(cfg, "plus", N)
    if cfg.rho is not None:
        rad = int(round(N ** (1.0 - cfg.rho)))
        left = thicken_mask(left, rad, cfg.n)
        right = thicken_mask(right, rad, cfg.n)
    return MaskedOperator(semiclassical_dft(N, cfg.n), np.flatnonzero(left),
                          np.flatnonzero(right))


def _log_phase_operator(cfg: FupConfig, w: float, J: int) -> MaskedOperator:
    h = 1.0 / J
    grid = circle_grid(J)
    left = _arc_cantor_mask(cfg, cfg.arc_minus, grid)
    right = _arc_cantor_mask(cfg, cfg.arc_plus, grid)
    if cfg.rho is not None:
        rad = int(round(J * h ** cfg.rho / (2.0 * np.pi)))
        left = thicken_mask(left, rad, 1)
        right = thicken_mask(right, rad, 1)
    chi = chordal_cutoff(cfg.chi_gap, cfg.chi_width)
    return log_phase_masked_operator(w, h, chi, grid, np.flatnonzero(left),
                                     np.flatnonzero(right))


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
