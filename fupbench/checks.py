"""Output checks computed apart from fuplab.

Nothing here imports fuplab.  The references rebuild each object from its
definition: the Cantor digit test, the unitary DFT entries exp(-2 pi i j.k/N),
the log-phase kernel, the exact point-to-cell distance, the word-count
binomial recurrence and the Lorentz form.  Every check raises
:class:`CheckFailed` with a one-line reason when the program's output is
wrong.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

NORM_TOL = 1e-6          # every returned norm must sit this close to the reference
DENSE_MAX = 600          # largest support side solved by a dense SVD


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


class KnownFault(CheckFailed):
    """A wrong output that a named program fault explains exactly.

    The operation counts as failed, as a kept fault does, and the run stays
    correct.  Once the fault is mended the output passes the check instead.
    """


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# masks


def cantor_indices(k: int, base: int = 3, kept=(0, 2)) -> np.ndarray:
    """Boolean mask over 0..base^k-1: every base-`base` digit lies in `kept`."""
    idx = np.arange(base ** k)
    ok = np.ones(idx.size, dtype=bool)
    rest = idx.copy()
    for _ in range(k):
        ok &= np.isin(rest % base, kept)
        rest //= base
    return ok


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Cells within `radius` of a marked cell on a non-periodic 1-D grid."""
    if radius <= 0:
        return mask.copy()
    return np.convolve(mask.astype(np.int64), np.ones(2 * radius + 1, dtype=np.int64),
                       mode="same") > 0


# ---------------------------------------------------------------------------
# norm references


def _top_singular(matvec, rmatvec, shape, seed: int = 7) -> float:
    op = LinearOperator(shape, matvec=matvec, rmatvec=rmatvec, dtype=complex)
    v0 = np.random.default_rng(seed).standard_normal(min(shape)) + 0j
    return float(svds(op, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


def fourier_norm_1d(rows: np.ndarray, cols: np.ndarray, N: int) -> float:
    """||1_rows F_N 1_cols|| for the unitary DFT on Z_N (boolean masks)."""
    r = np.flatnonzero(rows)
    c = np.flatnonzero(cols)
    if r.size == 0 or c.size == 0:
        return 0.0
    if max(r.size, c.size) <= DENSE_MAX:
        phase = np.outer(r.astype(np.int64), c.astype(np.int64)) % N
        mat = np.exp(-2j * np.pi * phase / N) / math.sqrt(N)
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    scale = 1.0 / math.sqrt(N)

    def matvec(x):
        u = np.zeros(N, dtype=complex)
        u[c] = np.ravel(x)
        return np.fft.fft(u)[r] * scale

    def rmatvec(y):
        u = np.zeros(N, dtype=complex)
        u[r] = np.ravel(y)
        return np.fft.ifft(u)[c] * (N * scale)

    return _top_singular(matvec, rmatvec, (r.size, c.size))


def fourier_norm_2d(rows: np.ndarray, cols: np.ndarray, N: int) -> float:
    """||1_rows F_N^{(2)} 1_cols|| for flat masks over the N x N grid."""
    r = np.flatnonzero(rows)
    c = np.flatnonzero(cols)
    scale = 1.0 / N

    def matvec(x):
        u = np.zeros(N * N, dtype=complex)
        u[c] = np.ravel(x)
        return np.fft.fft2(u.reshape(N, N)).reshape(-1)[r] * scale

    def rmatvec(y):
        u = np.zeros(N * N, dtype=complex)
        u[r] = np.ravel(y)
        return np.fft.ifft2(u.reshape(N, N)).reshape(-1)[c] * (N * N * scale)

    if r.size * c.size <= DENSE_MAX ** 2:
        eye = np.eye(c.size, dtype=complex)
        mat = np.stack([matvec(eye[:, j]) for j in range(c.size)], axis=1)
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    return _top_singular(matvec, rmatvec, (r.size, c.size))


def _smooth_step(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


ARCS = ((0.5, 0.75), (0.0, 0.25))   # the minus and plus arcs of the log-phase masks
CHI_GAP, CHI_WIDTH = 0.4, 0.3       # the chordal cutoff chi = step((d - gap) / width)


def _chord(delta: np.ndarray, J: int) -> np.ndarray:
    """Chordal distance between circle nodes whose indices differ by delta."""
    return 2.0 * np.abs(np.sin(np.pi * delta / J))


def arc_masks(J: int, rho: float | None, as_built: bool = False) -> tuple[np.ndarray, ...]:
    """Minus and plus arc masks on the J = 4*3^k circle grid, thickened for rho.

    The exact mask keeps node lo*J + t when every base-3 digit of t is 0 or 2.
    ``as_built`` instead reproduces the known fault of fup_numerics: node
    positions scaled to the arc and rounded down in floating point, with the
    Cantor depth capped at 8.  Those masks differ from the exact ones.
    """
    k = round(math.log(J // 4, 3))
    require(J == 4 * 3 ** k, f"J={J} is not 4*3^k")
    out = []
    for lo, hi in ARCS:
        if as_built:
            depth = min(8, k)
            ang = np.arange(J) / J
            idx = np.clip(((ang - lo) / (hi - lo) * 3 ** depth).astype(int), 0, 3 ** depth - 1)
            mask = (ang >= lo) & (ang < hi) & cantor_indices(depth)[idx]
        else:
            mask = np.zeros(J, dtype=bool)
            mask[round(lo * J):round(lo * J) + 3 ** k] = cantor_indices(k)
        if rho is not None:
            mask = dilate(mask, int(round(J * J ** -rho / (2 * np.pi))))
        out.append(mask)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def log_phase_reference(J: int, w: float, rho: float | None, as_built: bool = False) -> float:
    """Norm of the masked log-phase block over the exact (or as-built) arc masks."""
    return log_phase_norm(J, w, *arc_masks(J, rho, as_built))


def log_phase_norm(J: int, w: float, rows: np.ndarray, cols: np.ndarray) -> float:
    """Dense SVD of the masked log-phase block on the J-node circle grid.

    Entry (y, y'): (2 pi h)^{-1/2} chi(|y-y'|) exp(i (2w/h) log(|y-y'|/2)) 2 pi/J,
    with h = 1/J and the chord taken from the index difference.
    """
    h = 1.0 / J
    r, c = np.flatnonzero(rows), np.flatnonzero(cols)
    d = _chord(r[:, None] - c[None, :], J)
    chi = _smooth_step((d - CHI_GAP) / CHI_WIDTH)
    with np.errstate(divide="ignore"):
        phase = np.where(chi > 0, (2.0 * w / h) * np.log(d / 2.0), 0.0)
    block = chi * np.exp(1j * phase) * (2.0 * np.pi * h) ** -0.5 * (2.0 * np.pi / J)
    return float(np.linalg.svd(block, compute_uv=False)[0])


@functools.lru_cache(maxsize=None)
def arc_frobenius_bound(J: int, rho: float | None) -> float:
    """Frobenius norm of the log-phase kernel over the whole (thickened) arcs.

    |kernel| = (2 pi h)^{-1/2} chi dy' does not depend on w, and a submask of
    the arcs can only lower the operator norm, so this bounds every masked
    norm at every w.  chi depends only on the index difference, so the sum of
    chi^2 over all pairs is a sum over differences weighted by the circular
    correlation of the two arcs: O(J) memory.
    """
    h = 1.0 / J
    sides = []
    for lo, hi in ARCS:
        mask = np.zeros(J)
        mask[round(lo * J):round(hi * J)] = 1.0
        if rho is not None:
            mask = dilate(mask > 0, int(round(J * h ** rho / (2 * np.pi)))).astype(float)
        sides.append(mask)
    pairs = np.rint(np.fft.ifft(np.fft.fft(sides[0]) * np.conj(np.fft.fft(sides[1]))).real)
    chi = _smooth_step((_chord(np.arange(J), J) - CHI_GAP) / CHI_WIDTH)
    total = float((pairs * chi * chi).sum())
    return math.sqrt(total) * (2.0 * np.pi * h) ** -0.5 * (2.0 * np.pi / J)


def check_log_phase_norms(got: dict) -> None:
    """Each log-phase norm must match the exact-mask reference to NORM_TOL.

    ``got`` maps (J, w, rho) to a returned norm.  A norm that instead matches
    the reference over the as-built masks is the known mask fault: it raises
    :class:`KnownFault` once every norm has been checked.  Any other norm
    raises :class:`CheckFailed`.
    """
    faulty = []
    for (J, w, rho), norm in got.items():
        exact = log_phase_reference(J, w, rho)
        if abs(norm - exact) <= NORM_TOL * max(1.0, exact):
            continue
        built = log_phase_reference(J, w, rho, True)
        require(abs(norm - built) <= NORM_TOL * max(1.0, built),
                f"log-phase J={J} w={w} rho={rho}: norm {norm:.12g} matches neither the "
                f"exact-mask reference {exact:.12g} nor the as-built one {built:.12g}")
        faulty.append(f"J={J} w={w}: {norm:.10g} vs {exact:.10g}")
    if faulty:
        raise KnownFault(f"arc masks are not Cantor sets, {len(faulty)} norm(s) off: "
                         + "; ".join(faulty[:3]))


def check_norm(got: float, ref: float, label: str) -> float:
    """Relative gap of a returned norm; raises beyond NORM_TOL."""
    gap = abs(got - ref)
    require(gap <= NORM_TOL * max(1.0, ref),
            f"{label}: norm {got:.12g} differs from reference {ref:.12g} by {gap:.3g}")
    return gap / ref if ref > 0 else gap


def check_cantor_ladder(norms: dict[int, float]) -> None:
    """(2/3)^{k/2} <= r_k <= 1 and r_{a+b} <= r_a r_b over the ladder (k -> r_k)."""
    for k, r in norms.items():
        require((2.0 / 3.0) ** (k / 2.0) - NORM_TOL <= r <= 1.0 + 1e-10,
                f"Cantor norm r_{k} = {r:.12g} outside [(2/3)^(k/2), 1]")
    for a in norms:
        for b in norms:
            if a <= b and a + b in norms:
                require(norms[a + b] <= norms[a] * norms[b] + 2 * NORM_TOL,
                        f"submultiplicativity fails: r_{a + b} > r_{a} r_{b}")


def check_tensor(n1: dict[int, float], n2: dict[int, float]) -> None:
    for N, r2 in n2.items():
        if N in n1:
            require(abs(r2 - n1[N] ** 2) <= NORM_TOL,
                    f"tensor identity fails at N={N}: {r2:.12g} vs {n1[N] ** 2:.12g}")


def check_fit(beta: float, samples: list[tuple[float, float]], label: str) -> None:
    """beta > 0 and equal to the benchmark's own least-squares slope."""
    lh = np.log([h for h, _ in samples])
    lv = np.log([v for _, v in samples])
    slope = float(np.polyfit(lh, lv, 1)[0])
    require(abs(beta - slope) <= 1e-9 * max(1.0, abs(slope)),
            f"{label}: fitted beta {beta:.12g} differs from slope {slope:.12g}")
    require(beta > 0, f"{label}: fitted beta {beta:.6g} is not positive")


# ---------------------------------------------------------------------------
# porosity: exact distance, probes and witness re-verification


def cell_boxes(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = mask.shape[0]
    idx = np.argwhere(mask).astype(np.float64)
    return idx / m, (idx + 1.0) / m


def clearance(points: np.ndarray, boxes) -> np.ndarray:
    """Exact Euclidean distance from each point to the union of closed cells."""
    lo, hi = boxes
    if lo.shape[0] == 0:
        return np.full(points.shape[0], np.inf)
    out = np.empty(points.shape[0])
    step = max(1, 500_000 // lo.shape[0])
    for s in range(0, points.shape[0], step):
        p = points[s:s + step, None, :]
        gap = np.maximum(np.maximum(lo[None] - p, p - hi[None]), 0.0)
        out[s:s + step] = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
    return out


def scale_ladder(alpha0: float, alpha1: float) -> list[float]:
    out = [alpha0]
    while out[-1] * math.sqrt(2.0) < alpha1 * (1.0 - 1e-12):
        out.append(out[-1] * math.sqrt(2.0))
    if alpha1 > out[-1] * (1.0 + 1e-12):
        out.append(alpha1)
    return out


def line_directions(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0]])
    ang = np.pi * np.arange(count) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _ball_points(center: np.ndarray, r: float, m: int) -> np.ndarray:
    """Cell centers (i + 1/2)/m inside the closed ball of diameter r."""
    n = center.size
    axes = [np.arange(math.floor((c - r / 2) * m) - 1, math.ceil((c + r / 2) * m) + 1)
            for c in center]
    grid = (np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n) + 0.5) / m
    return grid[np.linalg.norm(grid - center, axis=1) <= r / 2]


def _segment_points(mid: np.ndarray, u: np.ndarray, r: float, m: int) -> np.ndarray:
    ts = np.linspace(-r / 2, r / 2, int(math.ceil(4 * r * m)) + 1)
    return mid[None, :] + ts[:, None] * u[None, :]


def probe_certified(mask: np.ndarray, nu: float, alpha0: float, alpha1: float, kind: str,
                    rng: np.random.Generator, probes: int = 24, directions: int = 8,
                    extra_slack: float = 0.0) -> None:
    """Sampled balls/segments must each hold a point of clearance >= nu*R - slack.

    The slack is the decider's stated certificate slack: delta*max(1, sqrt(n)/2)
    on balls, 2*delta*sqrt(n) on lines.
    """
    n, m = mask.ndim, mask.shape[0]
    delta = 1.0 / m
    boxes = cell_boxes(mask)
    scales = scale_ladder(alpha0, alpha1)
    dirs = line_directions(n, directions)
    slack = (delta * max(1.0, math.sqrt(n) / 2) if kind == "ball"
             else 2 * delta * math.sqrt(n)) + extra_slack
    for _ in range(probes):
        r = scales[int(rng.integers(len(scales)))]
        center = rng.uniform(0.0, 1.0, n)
        if kind == "ball":
            pts = _ball_points(center, r, m)
        else:
            pts = _segment_points(center, dirs[int(rng.integers(len(dirs)))], r, m)
        best = float(clearance(pts, boxes).max())
        require(best >= nu * r - slack,
                f"certified {kind} porosity nu={nu:.6g} fails a probe at R={r:.6g}: "
                f"best clearance {best:.6g} < {nu * r - slack:.6g}")


def verify_witness(mask: np.ndarray, nu: float, kind: str, center, scale: float,
                   direction=None) -> None:
    """Every sampled point of the witness ball/segment is nu*R-close to the set."""
    n, m = mask.ndim, mask.shape[0]
    delta = 1.0 / m
    center = np.asarray(center, dtype=np.float64)
    if kind == "ball":
        pts = _ball_points(center, scale, 2 * m)
        slack = delta * math.sqrt(n)
    else:
        pts = _segment_points(center, np.asarray(direction, dtype=np.float64), scale, m)
        slack = delta * math.sqrt(n) + delta / 2
    worst = float(clearance(pts, cell_boxes(mask)).max())
    require(worst < nu * scale + slack,
            f"{kind} witness at {center.tolist()} does not re-verify: clearance "
            f"{worst:.6g} >= {nu * scale + slack:.6g}")


def chart_raster(K: int, k: int, m: int, band_mask: np.ndarray, lo: float, hi: float,
                 radius: float = 0.5) -> np.ndarray:
    """Cells of gnomonic circle chart k (of K) whose angle range meets the band set."""
    s_max = math.tan(radius)
    u = np.arange(m + 1) / m
    ang = (2 * np.pi * k / K + np.arctan(u * 2 * s_max - s_max)) / (2 * np.pi)
    a0, a1 = ang[:-1], ang[1:]
    cells = np.flatnonzero(band_mask)
    width = (hi - lo) / band_mask.size
    out = np.zeros(m, dtype=bool)
    for shift in (-1.0, 0.0, 1.0):
        for c in cells:
            c0 = lo + c * width + shift
            out |= (a0 <= c0 + width) & (a1 >= c0)
    return out


# ---------------------------------------------------------------------------
# Lorentz geometry, Hessians and word counts


def minkowski(u: np.ndarray, v: np.ndarray) -> float:
    return float(-u[0] * v[0] + u[1:] @ v[1:])


def check_flow_rows(rows: list[list[float]], n: int, tol: float = 1e-9) -> None:
    require(len(rows) > 0, "flow-trace wrote no rows")
    for row in rows:
        x = np.array(row[1:n + 3])
        xi = np.array(row[n + 3:2 * n + 5])
        size = max(1.0, float(np.abs(x).max()), float(np.abs(xi).max())) ** 2
        for got, want, what in ((minkowski(x, x), -1.0, "<x,x>"),
                                (minkowski(xi, xi), 1.0, "<xi,xi>"),
                                (minkowski(x, xi), 0.0, "<x,xi>")):
            require(abs(got - want) <= tol * size,
                    f"flow-trace row t={row[0]}: {what} = {got:.3g}, expected {want}")


def read_lorentz(path: str) -> np.ndarray:
    with open(path) as fh:
        head = fh.readline().split()
        require(head[0] == "lorentz", f"{path}: bad header {head}")
        n = int(head[1][2:])
        return np.array([[float(v) for v in fh.readline().split()] for _ in range(n + 2)])


def hessian_closed_form(n: int, w: float, r: float) -> float:
    m = n + 1
    return (-1.0) ** (m - 1) * (2.0 * w / (r * r)) ** m


def check_hessian_rows(rows: list[list[float]], expected_pairs: int) -> None:
    require(len(rows) == expected_pairs,
            f"hessian-check wrote {len(rows)} rows, expected {expected_pairs}")
    for n, w, r, fd, sym, _rel in rows:
        want = hessian_closed_form(int(n), w, r)
        require(abs(sym - want) <= 1e-9 * abs(want),
                f"symbolic det {sym:.12g} differs from closed form {want:.12g}")
        require(abs(fd - want) <= 1e-4 * abs(want),
                f"finite-difference det {fd:.12g} differs from closed form {want:.12g}")


def block_count(t0: int, alpha: Fraction) -> int:
    """sum_{k <= floor(alpha t0)} C(t0, k) by the recurrence C(t0,k+1) = C(t0,k)(t0-k)/(k+1)."""
    kmax = math.floor(alpha * t0)
    term, total = 1, 1
    for k in range(kmax):
        term = term * (t0 - k) // (k + 1)
        total += term
    return total


def entropy2(a: float) -> float:
    return -a * math.log2(a) - (1 - a) * math.log2(1 - a)


def check_block_bound(count: int, t0: int, alpha: Fraction) -> None:
    a = float(alpha)
    require(math.log2(count) <= t0 * entropy2(a) + 1e-9,
            f"block count at T0={t0} exceeds 2^(T0 H2(alpha))")


def check_word_rows(rows: list[list[str]], alpha: float, rho: float,
                    j_min: int, base: float = 2.0) -> None:
    require(len(rows) > 0, "words-count wrote no rows")
    alpha_q = Fraction(alpha)
    for j, row in enumerate(rows, start=j_min):
        t0 = max(1, math.ceil((rho / 4.0) * j * math.log(base) - 1e-9))
        require(int(row[3]) == t0, f"words-count j={j}: T0 {row[3]} != {t0}")
        blk = block_count(t0, alpha_q)
        require(int(row[4]) == blk ** 8, f"words-count j={j}: count differs from the "
                f"eighth power of the block count")
        check_block_bound(blk, t0, alpha_q)
        ratio = 8 * math.log(blk) / (j * math.log(base)) if blk > 1 else 0.0
        require(abs(float(row[5]) - ratio) <= 1e-9 * max(1.0, ratio),
                f"words-count j={j}: ratio {row[5]} != {ratio:.17g}")
