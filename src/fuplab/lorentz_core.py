r"""Minkowski linear algebra and the Lorentz group SO0(1, n+1).

Everything downstream rides on this module: the bilinear form of signature
(1, n+1), the hyperboloid model of hyperbolic (n+1)-space and its boundary,
the standard frame of the Lie algebra with its commutator table, one-parameter
flows by matrix exponential (closed forms where the generator structure allows
them), and the group decompositions:

* KAN (Iwasawa) factorization ``g = k a b`` with ``k`` in the maximal compact
  ``K``, ``a`` in the geodesic torus ``A``, and ``b`` in a horospherical group
  ``N^+`` or ``N^-``;
* membership and factorization for the block-embedded standard subgroups
  ``W_l`` (copies of SO0(1, l)) and their normalizers;
* the compact normalizer ``K_U`` of a single horocyclic direction.

Coordinates are indexed 0..n+1 with coordinate 0 timelike.  Vectors are plain
numpy arrays of length n+2; matrices that are certified to lie in the group
are wrapped in :class:`GroupElement`.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "DEFAULT_TOL",
    "LorentzError",
    "DecompositionError",
    "GroupElement",
    "LieAlgebraElement",
    "KanFactors",
    "NormalizerKind",
    "minkowski_matrix",
    "minkowski_inner",
    "is_group_element",
    "generator",
    "frame_basis",
    "bracket",
    "exp_flow",
    "horospherical_element",
    "geodesic_flow",
    "kan_decompose",
    "standard_subgroup_member",
    "normalizer_member",
    "conjugation_normalizer_member",
    "normalizer_decompose",
    "ku_member",
    "ku_member_by_conjugation",
    "random_group_element",
    "random_frame_word",
    "embed_standard_subgroup",
    "write_group_element",
    "read_group_element",
    "parse_label",
]

#: Default certification tolerance for group membership and reconstruction.
DEFAULT_TOL = 1e-10


class LorentzError(ValueError):
    """Raised when an input violates a geometric precondition."""


class DecompositionError(LorentzError):
    """Raised when a factorization cannot be certified at tolerance."""


class NormalizerKind(enum.Enum):
    CENTRALIZING = "centralizing"
    FLIPPED = "flipped"


def minkowski_matrix(n: int, dtype=np.float64) -> np.ndarray:
    """Return the form matrix J = diag(-1, 1, ..., 1) of size (n+2, n+2)."""
    if n < 1:
        raise LorentzError(f"dimension n must be >= 1, got {n}")
    j = np.eye(n + 2, dtype=dtype)
    j[0, 0] = -j[0, 0]
    return j


def minkowski_inner(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Minkowski pairing -u0*v0 + sum_{j>=1} uj*vj of two vectors, as a float.

    Two equal-shape stacks (..., m) of vectors are paired row by row, into an
    array of shape (...).
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim == 0:
        raise LorentzError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if u.ndim == 1:
        return float(u @ v) - 2.0 * float(u[0] * v[0])
    # (..., 1, m) @ (..., m, 1) takes each row's dot product as the 1-D u @ v
    # does (one ddot), so a row pairs to the same float as it does alone
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0] - 2.0 * (u[..., 0] * v[..., 0])


def _group_residuals(m: np.ndarray):
    """Form residual, det residual and (0,0) entry of a matrix, or of each matrix
    of a stack (..., N, N)."""
    j = minkowski_matrix(m.shape[-1] - 2)
    # an entry past the float range leaves a non-finite residual, which fails
    # certification; numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        form = np.abs(m.swapaxes(-1, -2) @ j @ m - j).max(axis=(-2, -1))
        det = np.abs(np.linalg.det(m) - 1.0)
    return form, det, m[..., 0, 0]


def _certify(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return the matrix m, or the stack m (..., N, N), once every matrix in it
    is in SO0(1, n+1) at tolerance; raise LorentzError for the first that is not."""
    form, det, corner = _group_residuals(m)
    bad = ~((form <= tol) & (det <= tol) & (corner > 0))
    if bad.any():
        form, det, corner = (np.ravel(r)[np.argmax(bad)] for r in (form, det, corner))
        raise LorentzError(
            "matrix is not in SO0(1,n+1): "
            f"form residual {form:.3e}, det residual {det:.3e}, M00 {corner:.3e}"
        )
    return m


def is_group_element(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff m preserves the form, has det 1, and positive (0,0) entry."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
        return False
    form, det, corner = _group_residuals(m)
    return bool(form <= tol and det <= tol and corner > 0)


@dataclass(frozen=True)
class GroupElement:
    """A matrix certified to lie in SO0(1, n+1).

    Instances are immutable; build them through :meth:`certify`, which raises
    :class:`LorentzError` when the invariants fail at tolerance.
    """

    matrix: np.ndarray
    n: int

    @classmethod
    def certify(cls, matrix: np.ndarray, tol: float = DEFAULT_TOL) -> "GroupElement":
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise LorentzError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0] - 2
        if n < 1:
            raise LorentzError("matrix too small for any dimension n >= 1")
        return cls(_certify(m, tol), n)

    def __post_init__(self):
        # direct construction bypasses certification on purpose (internal use);
        # keep the array frozen regardless
        self.matrix.setflags(write=False)

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(_identity(n + 2), n)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.n != other.n:
            raise LorentzError("dimension mismatch in product")
        return GroupElement(self.matrix @ other.matrix, self.n)

    def inverse(self) -> "GroupElement":
        # M^{-1} = J M^T J, exact consequence of M^T J M = J
        j = minkowski_matrix(self.n)
        return GroupElement(j @ self.matrix.T @ j, self.n)


@dataclass(frozen=True)
class LieAlgebraElement:
    """An infinitesimal isometry: Y with Y^T J + J Y = 0."""

    matrix: np.ndarray
    n: int
    label: str | None = None

    def __post_init__(self):
        if isinstance(self.matrix, np.ndarray):
            self.matrix.setflags(write=False)

    def residual(self) -> float:
        j = minkowski_matrix(self.n, dtype=self.matrix.dtype)
        r = self.matrix.T @ j + j @ self.matrix
        return float(np.max(np.abs(r)))


def _basis_matrix(entries: list[tuple[int, int, int]], size: int, dtype) -> np.ndarray:
    m = np.zeros((size, size), dtype=dtype)
    for i, j, v in entries:
        m[i, j] = v
    return m


def _check_index(kind: str, i: int | None, j: int | None, n: int) -> None:
    """Refuse the indices of a frame generator outside the ranges of :func:`generator`."""
    if kind == "A" and (i is None or not 2 <= i <= n + 1):
        raise LorentzError(f"A_k needs 2 <= k <= n+1, got {i}")
    if kind == "R" and (i is None or j is None or not 1 <= i < j <= n + 1):
        raise LorentzError(f"R_ij needs 1 <= i < j <= n+1, got ({i},{j})")
    if kind in ("U+", "U-") and (i is None or not 1 <= i <= n):
        raise LorentzError(f"U_i needs 1 <= i <= n, got {i}")


def generator(kind: str, i: int | None = None, j: int | None = None, *, n: int,
              dtype=np.float64) -> LieAlgebraElement:
    """Return a frame generator of the Lie algebra of SO0(1, n+1).

    Kinds and index ranges:

    * ``"X"``: the boost E01 + E10 generating the geodesic flow.
    * ``"A"``: A_k = E0k + Ek0 for 2 <= i=k <= n+1.
    * ``"R"``: R_{i,j} = Eij - Eji for 1 <= i < j <= n+1.
    * ``"U+"`` / ``"U-"``: U_i^{+-} = -A_{i+1} -+ R_{1,i+1} for 1 <= i <= n.

    With ``dtype=object`` the matrix carries exact Python integers, which
    makes commutator-table checks exact.
    """
    size = n + 2
    _check_index(kind, i, j, n)
    if kind == "X":
        return LieAlgebraElement(_basis_matrix([(0, 1, 1), (1, 0, 1)], size, dtype), n, "X")
    if kind == "A":
        return LieAlgebraElement(_basis_matrix([(0, i, 1), (i, 0, 1)], size, dtype), n, f"A{i}")
    if kind == "R":
        return LieAlgebraElement(_basis_matrix([(i, j, 1), (j, i, -1)], size, dtype), n,
                                 f"R{i}{j}" if i < 10 and j < 10 else f"R{i},{j}")
    if kind in ("U+", "U-"):
        s = 1 if kind == "U+" else -1
        # U_i^{+-} = -A_{i+1} -+ R_{1,i+1}
        entries = [(0, i + 1, -1), (i + 1, 0, -1), (1, i + 1, -s), (i + 1, 1, s)]
        return LieAlgebraElement(_basis_matrix(entries, size, dtype), n,
                                 f"U{i}+" if s == 1 else f"U{i}-")
    raise LorentzError(f"unknown generator kind {kind!r}")


#: A generator label: ``X``, ``A<k>``, ``R<i><j>`` (a one-digit i) or ``R<i>,<j>``,
#: ``U<i>+`` or ``U<i>-``.  An index may carry a minus sign, so that a label
#: outside the dimension is refused by the index check, as generator() refuses it.
_LABEL = re.compile(r"X|A(-?[0-9]+)|R([0-9])([0-9]+)|R(-?[0-9]+),(-?[0-9]+)|U(-?[0-9]+)[+-]")


@functools.cache
def _label_parts(label: str, n: int) -> tuple[str, int | None, int | None]:
    """The arguments (kind, i, j) of :func:`generator` for the frame generator
    that ``label`` names in dimension n; LorentzError if it names none."""
    match = _LABEL.fullmatch(label)
    if match is None:
        raise LorentzError(f"bad generator label {label!r}")
    i, j = ([int(g) for g in match.groups() if g is not None] + [None, None])[:2]
    kind = label[0] + label[-1] if label[0] == "U" else label[0]
    _check_index(kind, i, j, n)
    return kind, i, j


def parse_label(label: str, n: int) -> LieAlgebraElement:
    """The generator that a label like ``"X"``, ``"A2"``, ``"R23"``, ``"R2,10"`` or
    ``"U1+"`` names in dimension n."""
    return generator(*_label_parts(label, n), n=n)


def frame_basis(n: int, dtype=np.float64) -> list[LieAlgebraElement]:
    """The frame X, R_{i+1,j+1} (1<=i<j<=n), U_i^+, U_i^- (1<=i<=n), as a new list."""
    return list(_frame_basis(n, dtype))


@functools.cache
def _frame_basis(n: int, dtype) -> tuple[LieAlgebraElement, ...]:
    # built once per (n, dtype): the elements and their matrices are frozen
    out = [generator("X", n=n, dtype=dtype)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(generator("R", i + 1, j + 1, n=n, dtype=dtype))
    for i in range(1, n + 1):
        out.append(generator("U+", i, n=n, dtype=dtype))
    for i in range(1, n + 1):
        out.append(generator("U-", i, n=n, dtype=dtype))
    return tuple(out)


def bracket(y: LieAlgebraElement, z: LieAlgebraElement) -> LieAlgebraElement:
    """Commutator [Y, Z] = YZ - ZY, unlabelled."""
    if y.n != z.n:
        raise LorentzError("dimension mismatch in bracket")
    return LieAlgebraElement(y.matrix @ z.matrix - z.matrix @ y.matrix, y.n)


@functools.cache
def _identity(size: int) -> np.ndarray:
    """A read-only identity matrix: GroupElement.identity holds it, the closed-form
    flows copy it."""
    m = np.eye(size)
    m.setflags(write=False)
    return m


# The closed-form flows below fill a stack of matrices, one per time of a
# list.  They take cosh, sinh, cos and sin from math, one time at a time,
# never from numpy: numpy's cosh and sinh differ from math's in the last bit
# for about one argument in six, and a flow must be the same matrix whether it
# is built alone (exp_flow) or in a stack (the algebra-verify trials).


def _fill(template: np.ndarray, entries: tuple[tuple[int, int], ...],
          values: list) -> np.ndarray:
    """A stack of copies of the matrix ``template``, one per row of ``values``,
    with values[r][e] written at entries[e] of copy r."""
    size = template.shape[0]
    m = template[None].repeat(len(values), 0)
    m.reshape(len(values), size * size)[:, _flat_entries(size, entries)] = values
    return m


@functools.cache
def _flat_entries(size: int, entries: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The flat indices of ``entries`` in a size x size matrix (read-only)."""
    flat = np.array([i * size + j for i, j in entries])
    flat.setflags(write=False)
    return flat


def _exp_boost(n: int, k: int, t: list) -> np.ndarray:
    """exp(t_r A_k) (A_1 = X) for each time t_r of the list t, as a stack of
    shape (len(t), n+2, n+2)."""
    values = []
    for x in t:
        try:
            c, s = math.cosh(x), math.sinh(x)
        except OverflowError:
            raise LorentzError(f"boost time t={x!r} overflows: cosh(t) exceeds the "
                               "largest float") from None
        values.append((c, c, s, s))
    return _fill(_identity(n + 2), ((0, 0), (k, k), (0, k), (k, 0)), values)


def _exp_rotation(n: int, i: int, j: int, t: list) -> np.ndarray:
    """exp(t_r R_ij) for each time t_r of the list t, as a stack of shape
    (len(t), n+2, n+2)."""
    values = []
    for x in t:
        c, s = math.cos(x), math.sin(x)
        values.append((c, c, s, -s))
    return _fill(_identity(n + 2), ((i, i), (j, j), (i, j), (j, i)), values)


def _horospherical_fill(v: np.ndarray, s: float) -> np.ndarray:
    """I + N + N^2/2 with N = sum_i v_ri U_i^{s}, one matrix per row v_r of the
    (T, n) array v, as a stack (T, n+2, n+2); a row whose |v_r|^2/2 overflows is
    refused.  A zero of v_r leaves the signed zeros of -v, -s*v and s*v."""
    # (T, 1, n) @ (T, n, 1) takes each row's dot product as the 1-D v @ v does
    with np.errstate(over="ignore"):
        q = (v[:, None, :] @ v[:, :, None])[:, 0, 0] / 2.0
    finite = np.isfinite(q)
    if not finite.all():
        raise LorentzError(f"horospherical parameter v={v[np.argmin(finite)].tolist()} "
                           "overflows: |v|^2/2 exceeds the largest float")
    m = _identity(v.shape[1] + 2)[None].repeat(len(v), 0)
    sq, sv = s * q, s * v       # -(s*x) is (-s)*x bit for bit
    m[:, 0, 0] += q
    m[:, 1, 1] -= q
    m[:, 0, 1], m[:, 1, 0] = -sq, sq
    m[:, 0, 2:] = m[:, 2:, 0] = -v
    m[:, 1, 2:], m[:, 2:, 1] = -sv, sv
    return m


def _exp_closed(label: str, n: int, t: list) -> np.ndarray:
    """exp(t_r Y) for each time t_r of the list t, as a stack of shape
    (len(t), n+2, n+2), in the closed form of the frame generator Y that
    ``label`` names: a boost, a rotation or a single-sign horospherical generator."""
    kind, i, j = _label_parts(label, n)
    if kind == "X":
        return _exp_boost(n, 1, t)
    if kind == "A":
        return _exp_boost(n, i, t)
    if kind == "R":
        return _exp_rotation(n, i, j, t)
    v = np.zeros((len(t), n))
    v[:, i - 1] = t
    return _horospherical_fill(v, 1.0 if kind == "U+" else -1.0)


def horospherical_element(v: np.ndarray, sign: int, n: int) -> GroupElement:
    """exp(sum_i v_i U_i^{sign}), evaluated from the order-3 nilpotent series.

    The result is exactly quadratic in v: I + N + N^2/2 with
    N = sum v_i U_i^{sign}.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise LorentzError(f"horospherical parameter must have shape ({n},)")
    return GroupElement(_horospherical_fill(v[None], 1.0 if sign > 0 else -1.0)[0], n)


def exp_flow(y: LieAlgebraElement, t: float) -> GroupElement:
    """Matrix exponential exp(t Y) as a certified group element.

    An unlabelled Y takes scaling-and-squaring (scipy).  A labelled Y takes the
    closed form of the frame generator that its label names, and its matrix
    must be that generator's: a label that names no generator, or another
    matrix, raises LorentzError.
    """
    if not math.isfinite(t):
        raise LorentzError(f"flow time must be finite, got {t}")
    if y.label is None:
        return GroupElement(expm(t * np.asarray(y.matrix, dtype=np.float64)), y.n)
    if not np.array_equal(y.matrix, parse_label(y.label, y.n).matrix):
        raise LorentzError(f"generator label {y.label!r} names another matrix")
    return GroupElement(_exp_closed(y.label, y.n, [t])[0], y.n)


def geodesic_flow(x: np.ndarray, xi: np.ndarray,
                  t: float | list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Unit-speed geodesic flow (x, xi) -> (x cosh t + xi sinh t, x sinh t + xi cosh t).

    Requires <x,x> = -1, <xi,xi> = 1, <x,xi> = 0 within 1e-8.  x and xi may
    also be stacks (T, n+2) of phase points, with t a list of T times.
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    one = x.ndim == 1
    if one:
        x, xi, t = x[None], xi[None], [t]
    residuals = (abs(minkowski_inner(x, x) + 1.0), abs(minkowski_inner(xi, xi) - 1.0),
                 abs(minkowski_inner(x, xi)))
    bad = residuals[0]
    for r in residuals[1:]:
        bad = np.where(r > bad, r, bad)     # the builtin max, NaNs included
    over = np.flatnonzero(bad > 1e-8)
    if over.size:
        raise LorentzError(f"not a unit phase point (residual {bad[over[0]]:.3e})")
    c = np.array([math.cosh(tau) for tau in t])[:, None]
    s = np.array([math.sinh(tau) for tau in t])[:, None]
    y, eta = x * c + xi * s, x * s + xi * c
    return (y[0], eta[0]) if one else (y, eta)


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class KanFactors:
    """Iwasawa factors g = k a b with b in the chosen horospherical group."""

    k: GroupElement
    a: GroupElement
    b: GroupElement
    t: float
    v: np.ndarray
    sign: int

    def product(self) -> GroupElement:
        return self.k @ self.a @ self.b


def kan_decompose(g: GroupElement, sign: int, tol: float = DEFAULT_TOL) -> KanFactors:
    """Factor g = k a b with k in K, a = exp(t X), b in N^{sign}.

    The A- and N-parameters are read off the lightcone data of g^{-1} applied
    to the basepoint: for z = g^{-1} e0, the null pairing of z against the
    fixed vector of N^{sign} equals e^{-+t}, and the spatial part rescaled by
    e^{-t} is the horospherical parameter.  k is recovered as g (a b)^{-1} and
    certified to fix e0.
    """
    if sign not in (1, -1):
        raise LorentzError("sign must be +1 or -1")
    n = g.n
    z = g.inverse().matrix[:, 0]
    lam = z[0] - sign * z[1]          # equals e^{sign * t} on the hyperboloid
    if lam <= 0:
        raise DecompositionError("lightcone coordinate not positive; input not in the group?")
    t = sign * math.log(lam)
    v = math.exp(-sign * t) * z[2:]
    a = GroupElement(_exp_boost(n, 1, [t])[0], n)
    b = horospherical_element(v, sign, n)
    k = g @ b.inverse() @ a.inverse()
    ke0 = k.matrix[:, 0]
    err = float(np.max(np.abs(ke0 - np.eye(n + 2)[:, 0])))
    if err > 100 * tol or not is_group_element(k.matrix, 100 * tol):
        raise DecompositionError(f"compact factor failed certification (residual {err:.3e})")
    return KanFactors(k, a, b, t, v, sign)


def embed_standard_subgroup(block: np.ndarray, l: int, n: int) -> GroupElement:
    """Embed an SO0(1,l) matrix as the upper-left block of SO0(1,n+1)."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (l + 1, l + 1):
        raise LorentzError(f"block must be ({l + 1},{l + 1})")
    m = np.eye(n + 2)
    m[: l + 1, : l + 1] = block
    return GroupElement(m, n)


def _diagonal_blocks(m: np.ndarray, k: int, tol: float):
    """The diagonal blocks (m[:k, :k], m[k:, k:]) of the matrix m, or None unless
    every entry off them is at most tol in absolute value (so a NaN refuses)."""
    off = np.concatenate((m[k:, :k], m[:k, k:].T))
    if not float(np.abs(off).max(initial=0.0)) <= tol:
        return None
    return m[:k, :k], m[k:, k:]


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest entry of |a - b|, 0 for empty arrays and NaN if an entry is NaN.
    Callers refuse unless the gap is at most their tolerance, which a NaN is not."""
    return float(np.abs(a - b).max(initial=0.0))


def standard_subgroup_member(g: GroupElement, l: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff g lies in W_l: SO0(1,l) block upper-left, identity elsewhere."""
    if not 2 <= l <= g.n + 1:
        raise LorentzError(f"standard subgroup needs 2 <= l <= n+1, got l={l}")
    blocks = _diagonal_blocks(g.matrix, l + 1, tol)
    if blocks is None or not _max_gap(blocks[1], np.eye(len(blocks[1]))) <= tol:
        return False
    return is_group_element(blocks[0], tol)


def _normalizer_blocks(g: GroupElement, l: int, tol: float):
    """Split g into the O0(1,l) x O(n-l+1) blocks, or None if not block-diagonal."""
    blocks = _diagonal_blocks(g.matrix, l + 1, tol)
    if blocks is None:
        return None
    top, bot = blocks
    form, _, corner = _group_residuals(top)
    if not (form <= tol and corner > 0):   # the top block must preserve the upper sheet
        return None
    if not _max_gap(bot.T @ bot, np.eye(len(bot))) <= tol:
        return None
    dt = float(np.linalg.det(top))
    db = float(np.linalg.det(bot))         # 1.0 for the empty block of l = n+1
    if not abs(dt * db - 1.0) <= max(tol, 1e-8):
        return None
    return top, bot, dt, db


def normalizer_member(g: GroupElement, l: int) -> bool:
    """True iff g lies in N_G(W_l) = S(O0(1,l) x O(n-l+1)), by block form."""
    n = g.n
    if not 2 <= l <= n:
        raise LorentzError(f"normalizer test needs 2 <= l <= n, got l={l}")
    return _normalizer_blocks(g, l, DEFAULT_TOL) is not None


def conjugation_normalizer_member(g: GroupElement, l: int, rng: np.random.Generator) -> bool:
    """Membership in N_G(W_l) tested by conjugating 20 random W_l elements."""
    gi = g.inverse()
    for _ in range(20):
        w = _random_w_element(rng, l, g.n)
        c = g @ w @ gi
        if not standard_subgroup_member(c, l, 1e-8):
            return False
    return True


def _random_w_element(rng: np.random.Generator, l: int, n: int) -> GroupElement:
    word = random_frame_word(rng, l - 1, factors=4, scale=0.7)
    return embed_standard_subgroup(word.matrix, l, n)


def normalizer_decompose(g: GroupElement, l: int,
                         tol: float = DEFAULT_TOL) -> tuple[GroupElement, GroupElement, NormalizerKind]:
    """Write g in N_G(W_l) as w k with w in W_l and k in K0.

    Centralizing case: k is the block-embedded SO(n-l+1) rotation commuting
    with W_l.  Flipped case: k = k_l k0 where k_l reflects coordinate l and
    det(k0) = -1 on the trailing block.
    """
    n = g.n
    if not 2 <= l <= n + 1:
        raise LorentzError(f"normalizer decomposition needs 2 <= l <= n+1, got l={l}")
    blocks = _normalizer_blocks(g, l, max(tol, 1e-9))
    if blocks is None:
        raise DecompositionError("input is not in the normalizer of W_l")
    top, bot, dt, db = blocks
    k_mat = np.eye(n + 2)
    if dt > 0:
        w = embed_standard_subgroup(top, l, n)
        k_mat[l + 1:, l + 1:] = bot
        kind = NormalizerKind.CENTRALIZING
    else:
        flip = np.eye(l + 1)
        flip[l, l] = -1.0
        w = embed_standard_subgroup(top @ flip, l, n)
        k_mat[l, l] = -1.0
        k_mat[l + 1:, l + 1:] = bot
        kind = NormalizerKind.FLIPPED
    k = GroupElement(k_mat, n)
    err = float(np.max(np.abs((w @ k).matrix - g.matrix)))
    if not err <= 100 * tol:
        raise DecompositionError(f"reconstruction failed ({err:.3e})")
    return w, k, kind


def ku_member(k: GroupElement) -> bool:
    """True iff k is in K_U = the S(O(1) x O(n-1)) block subgroup of K0.

    K0 is the stabilizer of e0 and e1; inside its SO(n) block, K_U consists of
    matrices diag(eps, Q) with eps = +-1, Q in O(n-1), eps det Q = 1.
    """
    blocks = _diagonal_blocks(k.matrix, 2, DEFAULT_TOL)       # k fixes e0 and e1
    if blocks is None or not _max_gap(blocks[0], np.eye(2)) <= DEFAULT_TOL:
        return False
    b = blocks[1]
    if not _max_gap(b.T @ b, np.eye(k.n)) <= DEFAULT_TOL:
        return False
    split = _diagonal_blocks(b, 1, DEFAULT_TOL)
    if split is None or not abs(abs(b[0, 0]) - 1.0) <= DEFAULT_TOL:
        return False
    eps = 1.0 if b[0, 0] > 0 else -1.0
    # at n = 1, Q is 0 x 0 with det 1, so eps must be +1
    return abs(eps * float(np.linalg.det(split[1])) - 1.0) <= 1e-8


def ku_member_by_conjugation(k: GroupElement) -> bool:
    """K_U membership via Ad(k) U_1^{+-} staying in the span of U_1^{+-}."""
    n = k.n
    ki = k.inverse()
    for sgn in ("U+", "U-"):
        u1 = generator(sgn, 1, n=n).matrix
        c = k.matrix @ u1 @ ki.matrix
        # best multiple of u1 approximating c
        coef = float(np.sum(c * u1) / np.sum(u1 * u1))
        if float(np.max(np.abs(c - coef * u1))) > 1e-8:
            return False
    return True


# ---------------------------------------------------------------------------
# sampling helpers


def _frame_flows(n: int, picks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(t_r Y) with Y the frame-basis element that picks[r] indexes, one
    matrix per row r, as a stack of shape (len(picks), n+2, n+2)."""
    basis = _frame_basis(n, np.float64)
    groups = sorted(set(picks.tolist()))
    if len(groups) == 1:
        return _exp_closed(basis[groups[0]].label, n, t.tolist())
    out = np.empty((len(picks), n + 2, n + 2))
    for p in groups:
        rows = np.flatnonzero(picks == p)
        out[rows] = _exp_closed(basis[p].label, n, t[rows].tolist())
    return out


def _frame_words(n: int, picks: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The frame words exp(t_1 Y_1) ... exp(t_F Y_F), one per row of the (T, F)
    arrays picks (frame-basis indices) and times, each multiplied out from the
    identity: a stack of shape (T, n+2, n+2)."""
    flows = _frame_flows(n, picks.ravel(), times.ravel()).reshape(*picks.shape, n + 2, n + 2)
    g = _identity(n + 2)[None].repeat(len(picks), 0)
    for f in range(picks.shape[1]):
        g = g @ flows[:, f]
    return g


def _frame_word_draws(rng: np.random.Generator, n: int, factors: int = 5,
                      scale: float = 0.8) -> tuple[list[int], list[float]]:
    """The frame-basis indices and times of one random frame word, drawn a
    basis index then a time per factor."""
    size = len(_frame_basis(n, np.float64))
    picks, times = [], []
    for _ in range(factors):
        picks.append(int(rng.integers(size)))
        times.append(float(rng.uniform(-scale, scale)))
    return picks, times


def random_frame_word(rng: np.random.Generator, n: int, factors: int = 5,
                      scale: float = 0.8) -> GroupElement:
    """Product of ``factors`` random frame exponentials (a generic element)."""
    picks, times = _frame_word_draws(rng, n, factors, scale)
    words = _frame_words(n, np.array([picks], dtype=np.intp),
                         np.array([times], dtype=np.float64))
    return GroupElement(words[0], n)


def random_group_element(rng: np.random.Generator, n: int) -> GroupElement:
    """Random certified group element (re-certifies the frame word)."""
    return GroupElement.certify(random_frame_word(rng, n).matrix)


# ---------------------------------------------------------------------------
# serialization


def write_group_element(g: GroupElement, path: str) -> None:
    """Write g to ``path`` as row-major decimal text under the header ``lorentz n=<n>``."""
    with open(path, "w") as fh:
        fh.write(f"lorentz n={g.n}\n")
        for row in g.matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_group_element(path: str, tol: float = DEFAULT_TOL) -> GroupElement:
    """Read the file at ``path`` that :func:`write_group_element` wrote; certifies on read."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "lorentz" or not header[1].startswith("n="):
            raise LorentzError(f"bad group element header: {header}")
        n = int(header[1][2:])
        rows = [[float(x) for x in fh.readline().split()] for _ in range(n + 2)]
    return GroupElement.certify(np.array(rows), tol)
