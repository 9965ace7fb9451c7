r"""Tangent geometry of the unit cotangent bundle over hyperbolic space.

The geodesic flow on the hyperboloid model is linear in the pair (x, xi), so
its differential acts by the same cosh/sinh mixing on tangent pairs.  That
makes the stable and unstable subspaces explicit: E_s collects pairs (v, -v)
and E_u pairs (v, v) with v Minkowski-orthogonal to both x and xi, contracted
and expanded at the exact rates e^{-t} and e^{t}.

On top of this the module builds the chart machinery used by the uncertainty
experiments: conversion to the ball model, the forward/backward endpoint maps
into the sphere at infinity, the Poisson kernel and half-stereographic vector,
and the chart map into (energy, endpoint, time, conjugate) coordinates that
straightens one weak foliation at a time.  Finite-difference checkers certify
the symplectic and straightening claims numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz_core import (GroupElement, LorentzError, minkowski_inner, minkowski_matrix,
                           random_group_element)

__all__ = [
    "PhasePoint",
    "TangentPair",
    "KappaPoint",
    "phase_point_from_frame",
    "random_phase_point",
    "hyperboloid_to_ball",
    "ball_to_hyperboloid",
    "boundary_map",
    "stable_unstable_basis",
    "flow_tangent",
    "geodesic_tangent",
    "expansion_rate",
    "poisson_kernel",
    "half_stereographic",
    "kappa",
    "phase_flow",
    "phase_to_ball_chart",
    "ball_chart_to_phase",
    "kappa_chart_coords",
    "fd_jacobian",
    "symplectic_residual",
    "symplectic_exactness_check",
    "foliation_residual",
    "foliation_straightening_check",
]


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) of T*H^{n+1} with x on the hyperboloid.

    xi is a covector identified with a vector through the Minkowski metric;
    it must be orthogonal to x and have positive energy.  Unit energy means
    the point lies on the unit cotangent bundle.
    """

    x: np.ndarray
    xi: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0] - 2

    @property
    def energy(self) -> float:
        return math.sqrt(minkowski_inner(self.xi, self.xi))

    @classmethod
    def create(cls, x, xi) -> "PhasePoint":
        x = np.asarray(x, dtype=np.float64)
        xi = np.asarray(xi, dtype=np.float64)
        if abs(minkowski_inner(x, x) + 1.0) > 1e-8 or x[0] <= 0:
            raise LorentzError("x is not on the hyperboloid")
        if abs(minkowski_inner(x, xi)) > 1e-8:
            raise LorentzError("xi is not orthogonal to x")
        if minkowski_inner(xi, xi) <= 1e-8:
            raise LorentzError("xi must have positive energy")
        return cls(x, xi)

    def unit(self) -> "PhasePoint":
        return PhasePoint(self.x, self.xi / self.energy)


@dataclass(frozen=True)
class TangentPair:
    """A tangent vector (v_x, v_xi) to T*H^{n+1} at a phase point."""

    v_x: np.ndarray
    v_xi: np.ndarray

    def constraint_residual(self, p: PhasePoint) -> float:
        """Max violation of the three linearized unit-bundle constraints."""
        return max(
            abs(minkowski_inner(p.x, self.v_x)),
            abs(minkowski_inner(p.x, self.v_xi) + minkowski_inner(p.xi, self.v_x)),
            abs(minkowski_inner(p.xi, self.v_xi)),
        )


@dataclass(frozen=True)
class KappaPoint:
    """(w, y, theta, eta): energy, sphere endpoint, time, conjugate momentum."""

    w: float
    y: np.ndarray
    theta: float
    eta: np.ndarray

    def validate(self, tol: float = 1e-8) -> None:
        if abs(np.linalg.norm(self.y) - 1.0) > tol:
            raise LorentzError("endpoint is not a unit vector")
        if abs(float(self.y @ self.eta)) > tol:
            raise LorentzError("momentum is not tangent to the sphere")
        if self.w <= 0:
            raise LorentzError("energy must be positive")

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.w], self.y, [self.theta], self.eta))


def phase_point_from_frame(g: GroupElement) -> PhasePoint:
    """Project a frame to the unit cotangent bundle: g -> (g e0, g e1)."""
    return PhasePoint(g.matrix[:, 0].copy(), g.matrix[:, 1].copy())


def random_phase_point(rng: np.random.Generator, n: int) -> PhasePoint:
    return phase_point_from_frame(random_group_element(rng, n))


def hyperboloid_to_ball(x: np.ndarray) -> np.ndarray:
    """Ball-model coordinates: spatial part divided by (1 + x0)."""
    x = np.asarray(x, dtype=np.float64)
    if abs(minkowski_inner(x, x) + 1.0) > 1e-8 or x[0] <= 0:
        raise LorentzError("not a hyperboloid point")
    return x[1:] / (1.0 + x[0])


def ball_to_hyperboloid(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hyperboloid_to_ball` on the open unit ball."""
    v = np.asarray(v, dtype=np.float64)
    r2 = float(v @ v)
    if r2 >= 1.0:
        raise LorentzError("ball point must satisfy |v| < 1")
    x = np.empty(v.shape[0] + 1)
    x[0] = (1.0 + r2) / (1.0 - r2)
    x[1:] = 2.0 * v / (1.0 - r2)
    return x


def boundary_map(p: PhasePoint, sign: int) -> np.ndarray:
    """Endpoint of the geodesic through p on the sphere at infinity.

    Closed form: the Euclidean-normalized spatial part of x + sign * xi/|xi|.
    Agrees with the long-time limit of the ball-model projection of the flow.
    """
    if sign not in (1, -1):
        raise LorentzError("sign must be +1 or -1")
    w = p.energy
    if w <= 1e-14:
        raise LorentzError("zero-energy covector has no endpoint")
    null = p.x + sign * p.xi / w
    spatial = null[1:]
    return spatial / np.linalg.norm(spatial)


def stable_unstable_basis(p: PhasePoint, which: str) -> list[TangentPair]:
    """Orthonormal basis of E_s ('stable') or E_u ('unstable') at p.

    Returns n pairs (v, -v) or (v, v) with the v Minkowski-orthonormal and
    orthogonal to both x and xi.
    """
    if which not in ("stable", "unstable"):
        raise LorentzError("which must be 'stable' or 'unstable'")
    p = p.unit()
    n = p.n
    x, xi = p.x, p.xi
    # project the coordinate basis to the Minkowski complement of span{x, xi}
    # and orthonormalize; the restricted form is positive definite there
    candidates = []
    for i in range(n + 2):
        w = np.zeros(n + 2)
        w[i] = 1.0
        w = w + minkowski_inner(w, x) * x - minkowski_inner(w, xi) * xi
        candidates.append(w)
    basis: list[np.ndarray] = []
    for w in sorted(candidates, key=lambda c: -minkowski_inner(c, c)):
        for b in basis:
            w = w - minkowski_inner(w, b) * b
        norm2 = minkowski_inner(w, w)
        if norm2 > 1e-8:
            basis.append(w / math.sqrt(norm2))
        if len(basis) == n:
            break
    if len(basis) < n:
        raise LorentzError("rank deficiency while building the transverse basis")
    s = -1.0 if which == "stable" else 1.0
    return [TangentPair(v, s * v) for v in basis]


def geodesic_tangent(p: PhasePoint) -> TangentPair:
    """Velocity of the geodesic flow at p (unit energy): (xi, x)."""
    p = p.unit()
    return TangentPair(p.xi.copy(), p.x.copy())


def flow_tangent(v: TangentPair, t: float) -> TangentPair:
    """Differential of the unit-speed geodesic flow (it is linear)."""
    c, s = math.cosh(t), math.sinh(t)
    return TangentPair(v.v_x * c + v.v_xi * s, v.v_x * s + v.v_xi * c)


def _metric_norm(v: TangentPair) -> float:
    # pulled-back metric through the projection to the base tangent space
    q = minkowski_inner(v.v_x, v.v_x)
    if q < 0:
        raise LorentzError("projection of tangent vector is not spacelike")
    return math.sqrt(q)


def expansion_rate(p: PhasePoint, v: TangentPair, t: float) -> float:
    """|d(flow_t) v|_g / |v|_g for v in E_u or E_s.

    Raises when v has a mixed component above 1e-6 relative to its size.
    """
    p = p.unit()
    size = max(np.max(np.abs(v.v_x)), np.max(np.abs(v.v_xi)))
    if size == 0:
        raise LorentzError("zero tangent vector")
    sym = v.v_x - v.v_xi
    anti = v.v_x + v.v_xi
    tol = 1e-6 * size
    pure_unstable = np.max(np.abs(sym)) <= tol
    pure_stable = np.max(np.abs(anti)) <= tol
    if not (pure_unstable or pure_stable):
        raise LorentzError("tangent vector is neither stable nor unstable")
    if max(abs(minkowski_inner(v.v_x, p.x)), abs(minkowski_inner(v.v_x, p.xi))) > tol:
        raise LorentzError("tangent vector is not transverse to the flow plane")
    return _metric_norm(flow_tangent(v, t)) / _metric_norm(v)


def poisson_kernel(x_ball: np.ndarray, y: np.ndarray) -> float:
    """(1 - |x|^2) / |x - y|^2 on the ball model, y a unit vector."""
    x_ball = np.asarray(x_ball, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r2 = float(x_ball @ x_ball)
    if r2 >= 1.0:
        raise LorentzError("kernel is defined for |x| < 1")
    d = x_ball - y
    return (1.0 - r2) / float(d @ d)


def half_stereographic(y: np.ndarray, yprime: np.ndarray) -> np.ndarray:
    """(y' - (y.y') y) / (1 - y.y'), tangent to the sphere at y."""
    y = np.asarray(y, dtype=np.float64)
    yprime = np.asarray(yprime, dtype=np.float64)
    c = float(y @ yprime)
    if abs(1.0 - c) <= 1e-12:
        raise LorentzError("half-stereographic projection has a pole at y' = y")
    return (yprime - c * y) / (1.0 - c)


def kappa(p: PhasePoint, sign: int) -> KappaPoint:
    """Chart map (x, xi) -> (w, y, theta, eta) straightening one weak foliation.

    * w: energy |xi|.
    * y: geodesic endpoint B_{-sign} (the one the straightened foliation fixes).
    * theta: sign * log of the Poisson kernel at (ball(x), y); satisfies
      theta(flow_t p) = theta(p) - t.
    * eta: sign * w * half_stereographic(y, opposite endpoint).
    """
    if sign not in (1, -1):
        raise LorentzError("sign must be +1 or -1")
    w = p.energy
    y = boundary_map(p, -sign)
    y_other = boundary_map(p, sign)
    if np.linalg.norm(y - y_other) < 1e-12:
        raise LorentzError("degenerate geodesic: coincident endpoints")
    xb = hyperboloid_to_ball(p.x)
    theta = sign * math.log(poisson_kernel(xb, y))
    eta = sign * w * half_stereographic(y, y_other)
    return KappaPoint(w, y, theta, eta)


def phase_flow(p: PhasePoint, t: float) -> PhasePoint:
    """Homogeneous geodesic flow on T*H \\ 0 (rescales with the energy)."""
    w = p.energy
    xu = p.xi / w
    c, s = math.cosh(t), math.sinh(t)
    return PhasePoint(p.x * c + xu * s, w * (p.x * s + xu * c))


# ---------------------------------------------------------------------------
# canonical charts and finite-difference certification


def _ball_chart_jacobian(v: np.ndarray) -> np.ndarray:
    """d(hyperboloid point)/d(ball point): columns are tangent vectors."""
    m = v.shape[0]
    r2 = float(v @ v)
    den = 1.0 - r2
    jac = np.zeros((m + 1, m))
    jac[0, :] = 4.0 * v / den**2
    jac[1:, :] = (2.0 / den) * np.eye(m) + np.outer(4.0 * v / den**2, v)
    return jac


def phase_to_ball_chart(p: PhasePoint) -> np.ndarray:
    """Canonical cotangent coordinates (v, eta) induced by the ball chart."""
    v = hyperboloid_to_ball(p.x)
    jac = _ball_chart_jacobian(v)
    jmink = minkowski_matrix(p.x.shape[0] - 2)
    eta = jac.T @ (jmink @ p.xi)
    return np.concatenate([v, eta])


def ball_chart_to_phase(z: np.ndarray) -> PhasePoint:
    """Inverse chart: solve the linear pairing system for the covector."""
    m = z.shape[0] // 2
    v, eta = z[:m], z[m:]
    x = ball_to_hyperboloid(v)
    jac = _ball_chart_jacobian(v)
    jmink = minkowski_matrix(m - 1)
    rows = np.vstack([jac.T @ jmink, (jmink @ x)[None, :]])
    rhs = np.concatenate([eta, [0.0]])
    xi = np.linalg.solve(rows, rhs)
    return PhasePoint(x, xi)


def _sphere_frame(y0: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent hyperplane at y0, rows are vectors."""
    m = y0.shape[0]
    basis = []
    for i in range(m):
        w = np.zeros(m)
        w[i] = 1.0
        w = w - (w @ y0) * y0
        for b in basis:
            w = w - (w @ b) * b
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            basis.append(w / norm)
        if len(basis) == m - 1:
            break
    return np.array(basis)


def _sphere_chart_forward(y: np.ndarray, y0: np.ndarray, frame: np.ndarray) -> np.ndarray:
    c = float(y @ y0)
    if c <= 0.1:
        raise LorentzError("point left the chart hemisphere")
    return frame @ (y / c)


def _sphere_chart_jacobian(s: np.ndarray, y0: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """d(sphere point)/d(chart coords) for y(s) = (y0 + s.frame)/|y0 + s.frame|."""
    u = y0 + frame.T @ s
    r = np.linalg.norm(u)
    jac = (frame.T / r) - np.outer(u, frame @ u) / r**3
    return jac


def kappa_chart_coords(kp: KappaPoint, y0: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Flatten a chart point to canonical coordinates (w, s; theta, sigma)."""
    s = _sphere_chart_forward(kp.y, y0, frame)
    jac = _sphere_chart_jacobian(s, y0, frame)
    sigma = jac.T @ kp.eta
    return np.concatenate([[kp.w], s, [kp.theta], sigma])


def fd_jacobian(fun, z0: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map."""
    z0 = np.asarray(z0, dtype=np.float64)
    f0 = np.asarray(fun(z0))
    jac = np.zeros((f0.shape[0], z0.shape[0]))
    for k in range(z0.shape[0]):
        dz = np.zeros_like(z0)
        dz[k] = step
        jac[:, k] = (np.asarray(fun(z0 + dz)) - np.asarray(fun(z0 - dz))) / (2.0 * step)
    return jac


def symplectic_residual(jac: np.ndarray) -> float:
    """Max-norm deviation of J^T Omega J from Omega, coordinates (q, p)."""
    m = jac.shape[0] // 2
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = -np.eye(m)
    omega[m:, :m] = np.eye(m)
    return float(np.max(np.abs(jac.T @ omega @ jac - omega)))


def symplectic_exactness_check(sign: int, p: PhasePoint, fd_step: float = 1e-4) -> float:
    """Residual of the pullback of the canonical form under the chart map.

    Builds ball-model canonical coordinates around p, pushes them through the
    chart map, flattens the target in (w, s; theta, sigma) coordinates, and
    compares the finite-difference pullback of the target symplectic form with
    the source form.  Small residuals certify the symplectomorphism claim.
    """
    if not 1e-6 <= fd_step <= 1e-3:
        raise LorentzError("fd_step out of the supported range [1e-6, 1e-3]")
    kp0 = kappa(p, sign)
    y0 = kp0.y.copy()
    frame = _sphere_frame(y0)
    z0 = phase_to_ball_chart(p)

    def corridor(z):
        kp = kappa(ball_chart_to_phase(z), sign)
        return kappa_chart_coords(kp, y0, frame)

    jac = fd_jacobian(corridor, z0, fd_step)
    return symplectic_residual(jac)


def _tangent_curve_value(p: PhasePoint, v: TangentPair, sign: int, eps: float) -> np.ndarray:
    q = PhasePoint(p.x + eps * v.v_x, p.xi + eps * v.v_xi)
    return kappa(q, sign).as_array()


def foliation_residual(sign: int, p: PhasePoint, v: TangentPair) -> float:
    """Relative size of the (dw, dy) components of the chart differential at v,
    by central differences of step 1e-6.

    Vanishes on the weak unstable foliation for sign=+1 and on the weak stable
    foliation for sign=-1; order-one on the opposite foliation.
    """
    plus = _tangent_curve_value(p, v, sign, 1e-6)
    minus = _tangent_curve_value(p, v, sign, -1e-6)
    d = (plus - minus) / 2e-6
    m = p.x.shape[0]
    dw = abs(d[0])
    dy = float(np.linalg.norm(d[1:m]))
    total = float(np.linalg.norm(d))
    if total < 1e-12:
        raise LorentzError("chart differential vanished; degenerate input")
    return (dw + dy) / total


def foliation_straightening_check(sign: int, p: PhasePoint) -> float:
    """Max foliation residual over a basis of the matching weak foliation."""
    which = "unstable" if sign == 1 else "stable"
    vectors = stable_unstable_basis(p, which) + [geodesic_tangent(p)]
    return max(foliation_residual(sign, p, v) for v in vectors)
