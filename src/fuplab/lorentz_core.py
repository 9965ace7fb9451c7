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
import math
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


def minkowski_inner(u: np.ndarray, v: np.ndarray) -> float:
    """Minkowski pairing -u0*v0 + sum_{j>=1} uj*vj of two vectors."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 1:
        raise LorentzError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(u @ v) - 2.0 * float(u[0] * v[0])


def _group_residuals(m: np.ndarray) -> tuple[float, float, float]:
    n = m.shape[0] - 2
    j = minkowski_matrix(n)
    form = float(np.max(np.abs(m.T @ j @ m - j)))
    det = abs(float(np.linalg.det(m)) - 1.0)
    return form, det, float(m[0, 0])


def is_group_element(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff m preserves the form, has det 1, and positive (0,0) entry."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
        return False
    form, det, corner = _group_residuals(m)
    return form <= tol and det <= tol and corner > 0


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
        form, det, corner = _group_residuals(m)
        if form > tol or det > tol or corner <= 0:
            raise LorentzError(
                "matrix is not in SO0(1,n+1): "
                f"form residual {form:.3e}, det residual {det:.3e}, M00 {corner:.3e}"
            )
        return cls(m, n)

    def __post_init__(self):
        # direct construction bypasses certification on purpose (internal use);
        # keep the array frozen regardless
        self.matrix.setflags(write=False)

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(np.eye(n + 2), n)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.n != other.n:
            raise LorentzError("dimension mismatch in product")
        return GroupElement(self.matrix @ other.matrix, self.n)

    def inverse(self) -> "GroupElement":
        # M^{-1} = J M^T J, exact consequence of M^T J M = J
        j = minkowski_matrix(self.n)
        return GroupElement(j @ self.matrix.T @ j, self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.float64)


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
    if kind == "X":
        return LieAlgebraElement(_basis_matrix([(0, 1, 1), (1, 0, 1)], size, dtype), n, "X")
    if kind == "A":
        k = i
        if k is None or not (2 <= k <= n + 1):
            raise LorentzError(f"A_k needs 2 <= k <= n+1, got {k}")
        return LieAlgebraElement(_basis_matrix([(0, k, 1), (k, 0, 1)], size, dtype), n, f"A{k}")
    if kind == "R":
        if i is None or j is None or not (1 <= i < j <= n + 1):
            raise LorentzError(f"R_ij needs 1 <= i < j <= n+1, got ({i},{j})")
        return LieAlgebraElement(
            _basis_matrix([(i, j, 1), (j, i, -1)], size, dtype), n, _r_label(i, j))
    if kind in ("U+", "U-"):
        if i is None or not (1 <= i <= n):
            raise LorentzError(f"U_i needs 1 <= i <= n, got {i}")
        s = 1 if kind == "U+" else -1
        # U_i^{+-} = -A_{i+1} -+ R_{1,i+1}
        entries = [(0, i + 1, -1), (i + 1, 0, -1), (1, i + 1, -s), (i + 1, 1, s)]
        return LieAlgebraElement(_basis_matrix(entries, size, dtype), n,
                                 f"U{i}+" if s == 1 else f"U{i}-")
    raise LorentzError(f"unknown generator kind {kind!r}")


def _r_label(i: int, j: int) -> str:
    if i < 10 and j < 10:
        return f"R{i}{j}"
    return f"R{i},{j}"


def parse_label(label: str, n: int) -> LieAlgebraElement:
    """Parse a generator label like ``"X"``, ``"A2"``, ``"R23"``, ``"U1+"``."""
    if label == "X":
        return generator("X", n=n)
    if label.startswith("A"):
        return generator("A", int(label[1:]), n=n)
    if label.startswith("R"):
        body = label[1:]
        if "," in body:
            a, b = body.split(",")
        else:
            a, b = body[0], body[1:]
        return generator("R", int(a), int(b), n=n)
    if label.startswith("U"):
        sign = label[-1]
        if sign not in "+-":
            raise LorentzError(f"bad generator label {label!r}")
        return generator("U" + sign, int(label[1:-1]), n=n)
    raise LorentzError(f"bad generator label {label!r}")


def frame_basis(n: int, dtype=np.float64) -> list[LieAlgebraElement]:
    """The frame X, R_{i+1,j+1} (1<=i<j<=n), U_i^+, U_i^- (1<=i<=n)."""
    out = [generator("X", n=n, dtype=dtype)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(generator("R", i + 1, j + 1, n=n, dtype=dtype))
    for i in range(1, n + 1):
        out.append(generator("U+", i, n=n, dtype=dtype))
    for i in range(1, n + 1):
        out.append(generator("U-", i, n=n, dtype=dtype))
    return out


def bracket(y: LieAlgebraElement, z: LieAlgebraElement) -> LieAlgebraElement:
    """Commutator [Y, Z] = YZ - ZY."""
    if y.n != z.n:
        raise LorentzError("dimension mismatch in bracket")
    m = y.matrix @ z.matrix - z.matrix @ y.matrix
    lbl = None
    if y.label and z.label:
        lbl = f"[{y.label},{z.label}]"
    return LieAlgebraElement(m, y.n, lbl)


def _exp_boost(n: int, k: int, t: float) -> np.ndarray:
    try:
        c, s = math.cosh(t), math.sinh(t)
    except OverflowError:
        raise LorentzError(f"boost time t={t!r} overflows: cosh(t) exceeds the "
                           "largest float") from None
    m = np.eye(n + 2)
    m[0, 0] = m[k, k] = c
    m[0, k] = m[k, 0] = s
    return m


def _exp_rotation(n: int, i: int, j: int, t: float) -> np.ndarray:
    m = np.eye(n + 2)
    m[i, i] = m[j, j] = math.cos(t)
    m[i, j] = math.sin(t)
    m[j, i] = -math.sin(t)
    return m


def horospherical_element(v: np.ndarray, sign: int, n: int) -> GroupElement:
    """exp(sum_i v_i U_i^{sign}), evaluated from the order-3 nilpotent series.

    The result is exactly quadratic in v: I + N + N^2/2 with
    N = sum v_i U_i^{sign}.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise LorentzError(f"horospherical parameter must have shape ({n},)")
    s = 1.0 if sign > 0 else -1.0
    with np.errstate(over="ignore"):
        q = float(v @ v) / 2.0
    if not math.isfinite(q):
        raise LorentzError(f"horospherical parameter v={v.tolist()} overflows: |v|^2/2 "
                           "exceeds the largest float")
    m = np.eye(n + 2)
    m[0, 0] += q
    m[1, 1] -= q
    m[0, 1] = -s * q
    m[1, 0] = s * q
    m[0, 2:] = -v
    m[1, 2:] = -s * v
    m[2:, 0] = -v
    m[2:, 1] = s * v
    return GroupElement(m, n)


def exp_flow(y: LieAlgebraElement, t: float) -> GroupElement:
    """Matrix exponential exp(t Y) as a certified group element.

    Uses closed forms for boosts, rotations, and single-sign horospherical
    generators; falls back to scaling-and-squaring (scipy) otherwise.
    """
    if not math.isfinite(t):
        raise LorentzError(f"flow time must be finite, got {t}")
    n = y.n
    lbl = y.label or ""
    if lbl == "X":
        return GroupElement(_exp_boost(n, 1, t), n)
    if lbl.startswith("A") and lbl[1:].isdigit():
        return GroupElement(_exp_boost(n, int(lbl[1:]), t), n)
    if lbl.startswith("R"):
        el = parse_label(lbl, n)
        idx = np.nonzero(el.matrix)
        i, j = int(idx[0][0]), int(idx[1][0])
        return GroupElement(_exp_rotation(n, i, j, t * float(el.matrix[i, j])), n)
    if lbl.startswith("U") and lbl[-1] in "+-":
        i = int(lbl[1:-1])
        v = np.zeros(n)
        v[i - 1] = t
        return horospherical_element(v, +1 if lbl[-1] == "+" else -1, n)
    m = expm(t * np.asarray(y.matrix, dtype=np.float64))
    return GroupElement(m, n)


def geodesic_flow(x: np.ndarray, xi: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit-speed geodesic flow (x, xi) -> (x cosh t + xi sinh t, x sinh t + xi cosh t).

    Requires <x,x> = -1, <xi,xi> = 1, <x,xi> = 0 within 1e-8.
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    bad = max(abs(minkowski_inner(x, x) + 1.0),
              abs(minkowski_inner(xi, xi) - 1.0),
              abs(minkowski_inner(x, xi)))
    if bad > 1e-8:
        raise LorentzError(f"not a unit phase point (residual {bad:.3e})")
    c, s = math.cosh(t), math.sinh(t)
    return x * c + xi * s, x * s + xi * c


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
    a = GroupElement(_exp_boost(n, 1, t), n)
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


def standard_subgroup_member(g: GroupElement, l: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff g lies in W_l: SO0(1,l) block upper-left, identity elsewhere."""
    n = g.n
    if not 2 <= l <= n + 1:
        raise LorentzError(f"standard subgroup needs 2 <= l <= n+1, got l={l}")
    m = g.matrix
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
    return form <= tol and det <= tol and block[0, 0] > 0


def _normalizer_blocks(g: GroupElement, l: int, tol: float):
    """Split g into the O0(1,l) x O(n-l+1) blocks, or None if not block-diagonal."""
    n = g.n
    m = g.matrix
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
        return None            # must preserve the upper sheet
    if bot.size and float(np.max(np.abs(bot.T @ bot - np.eye(bot.shape[0])))) > tol:
        return None
    dt = float(np.linalg.det(top))
    db = float(np.linalg.det(bot)) if bot.size else 1.0
    if abs(dt * db - 1.0) > max(tol, 1e-8):
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
    if err > 100 * tol:
        raise DecompositionError(f"reconstruction failed ({err:.3e})")
    return w, k, kind


def ku_member(k: GroupElement) -> bool:
    """True iff k is in K_U = the S(O(1) x O(n-1)) block subgroup of K0.

    K0 is the stabilizer of e0 and e1; inside its SO(n) block, K_U consists of
    matrices diag(eps, Q) with eps = +-1, Q in O(n-1), eps det Q = 1.
    """
    n = k.n
    m = k.matrix
    e = np.eye(n + 2)
    if float(np.max(np.abs(m[:, 0] - e[:, 0]))) > DEFAULT_TOL:
        return False
    if float(np.max(np.abs(m[:, 1] - e[:, 1]))) > DEFAULT_TOL:
        return False
    if float(np.max(np.abs(m[0, :] - e[0, :]))) > DEFAULT_TOL:
        return False
    if float(np.max(np.abs(m[1, :] - e[1, :]))) > DEFAULT_TOL:
        return False
    b = m[2:, 2:]
    if float(np.max(np.abs(b.T @ b - np.eye(n)))) > DEFAULT_TOL:
        return False
    if n == 1:
        return abs(b[0, 0] - 1.0) <= DEFAULT_TOL
    if abs(abs(b[0, 0]) - 1.0) > DEFAULT_TOL:
        return False
    if np.max(np.abs(b[0, 1:])) > DEFAULT_TOL or np.max(np.abs(b[1:, 0])) > DEFAULT_TOL:
        return False
    eps = 1.0 if b[0, 0] > 0 else -1.0
    q_det = float(np.linalg.det(b[1:, 1:]))
    return abs(eps * q_det - 1.0) <= 1e-8


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


def random_frame_word(rng: np.random.Generator, n: int, factors: int = 5,
                      scale: float = 0.8) -> GroupElement:
    """Product of ``factors`` random frame exponentials (a generic element)."""
    basis = frame_basis(n)
    g = GroupElement.identity(n)
    for _ in range(factors):
        y = basis[int(rng.integers(len(basis)))]
        t = float(rng.uniform(-scale, scale))
        g = g @ exp_flow(y, t)
    return g


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
