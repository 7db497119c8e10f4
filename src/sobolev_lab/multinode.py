"""K-node cyclic student/teacher system.

Teachers {w*_j} are an orthonormal basis; students are cyclic shifts of a
single coefficient vector in that basis, so the whole flow reduces to the
coefficients.  Two parametrizations are supported:

* the planar one, w_l = x w*_l + y sum_{m != l} w*_m, state (x, y);
* the cyclic (circulant) one, w_j = P_j w_1 with w_1 = sum_m t_m w*_m and
  P_j the shift by j-1, state t in R^K.

All fields returned here are the NEGATED population gradients (flow
right-hand sides).  The full per-node field and the cyclic field are one
kernel: the cyclic field is the per-node field of node 1 evaluated on the
shifted students, so it is the projection of the full field by
construction.  Index arithmetic in the t-parametrization is cyclic modulo
K: the shift group structure forces the wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError
from .geometry import TWO_PI, _angle_norms
from .ode import _rk4_step, rk4_integrate

_THRESHOLD_T_MAX = 120.0  # flow time after which ``times_to_threshold`` gives up on a row
_DECAY_STEP = 1e-3  # RK4 step of ``diagonal_decay``


@dataclass(frozen=True)
class ReducedState:
    """Planar coordinates of the cyclic parametrization; region Omega is
    x in (0, 1], y in [0, 1], x > y."""

    x: float
    y: float
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("reduced dynamics needs k >= 2")


@dataclass(frozen=True)
class ToeplitzState:
    """First-row coefficients t_1..t_K of the cyclic student initialization."""

    t: np.ndarray
    k: int

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if self.k < 2 or t.shape != (self.k,):
            raise ValueError("t must have shape (k,) with k >= 2")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class AngleSet:
    """Angles of node 1 against its own teacher (theta), the other teachers
    (phi_star), and the other students (phi), plus alpha = 1/|w_1|."""

    theta: float
    phi_star: float
    phi: float
    alpha_red: float


@dataclass(frozen=True)
class LinearizationReport:
    """Idealized near-fixed-point linearization of the planar flows.

    ``m3`` is the 2x2 matrix with closed-form eigenvalues {1/4, (K+1)/4};
    the H1 field linearizes to twice the L2 one in this idealization.
    """

    m3: np.ndarray
    eigs_l2: tuple[float, float]
    eigs_h1: tuple[float, float]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponent of log|x(t) - x*| along the diagonal flow."""

    exponent: float
    x_star: float
    max_diagonal_drift: float


def _check_kind(kind: str) -> int:
    kind = kind.lower()
    if kind == "l2":
        return 1
    if kind == "h1":
        return 2
    raise ValueError(f"unknown flow kind {kind!r}")


# --------------------------------------------------------------------------
# full per-node field


def _node_field(Wj: np.ndarray, W: np.ndarray, Wstar: np.ndarray, c: int) -> np.ndarray:
    """-E grad at the nodes Wj (..., d) of the K-node system (W, W*) with kind factor c.

    The H1 field (c = 2) doubles the (pi - angle) teacher/student terms but
    not the sine terms.  Angles and norms come from one scale-safe reduction.
    """
    ts, nj, ns = _angle_norms(Wj[..., None, :], Wstar)
    tt, _, nw = _angle_norms(Wj[..., None, :], W)
    if not (nj.all() and nw.all() and ns.all()):
        raise SingularPointError("zero node weight")
    pull = c * ((math.pi - ts) @ Wstar - (math.pi - tt) @ W)
    sines = np.sin(ts) @ ns - np.sin(tt) @ nw
    return (pull + sines[..., None] / nj * Wj) / TWO_PI


def multinode_gradients(W: np.ndarray, Wstar: np.ndarray, kind: str) -> np.ndarray:
    """Negated population gradients -E grad_{w_j} for each node, shape (K, d).

    With K = 1 this reduces exactly to the single-node field.
    """
    c = _check_kind(kind)
    W = np.asarray(W, dtype=float)
    Wstar = np.asarray(Wstar, dtype=float)
    if W.ndim != 2 or W.shape != Wstar.shape:
        raise ValueError("W and W* must both have shape (K, d)")
    return _node_field(W, W, Wstar, c)


def cyclic_students(t: np.ndarray) -> np.ndarray:
    """Students (K, K) in teacher coordinates: row j is t cyclically shifted by j."""
    t = np.asarray(t, dtype=float)
    k = np.arange(t.shape[0])
    return t[(k[None, :] - k[:, None]) % t.shape[0]]


def planar_students(x: float, y: float, k: int) -> np.ndarray:
    """Students of the planar parametrization: t = (x, y, ..., y) shifted."""
    t = np.full(k, y, dtype=float)
    t[0] = x
    return cyclic_students(t)


# --------------------------------------------------------------------------
# planar reduction


def _k_factors(k):
    """K - 1 and K - 2 as floats: scalars for an int K, arrays for one K per state."""
    k = np.asarray(k, dtype=float)
    return k - 1.0, k - 2.0


def _planar_angles(x, y, k1, k2):
    """alpha, theta, phi_star and phi of the planar parametrization.

    ``k1`` and ``k2`` are the factors K - 1 and K - 2 of ``_k_factors``;
    everything broadcasts over x, y and the factors.  All three angles are
    taken in two-argument form; the inverse cosine loses half the digits
    where the angle is small.  theta = atan2(sqrt(K - 1) |y|, x) keeps its
    digits next to the fixed point (1, 0), phi_star = atan2(sqrt(x^2 +
    (K - 2) y^2), y) is its companion, and the inter-student angle phi has
    sin(phi) / cos(phi) reduced to |x - y| sqrt((x + y)^2 + 2 (K - 2) y^2) /
    (2 x y + (K - 2) y^2), so it is exactly 0 on the diagonal and exactly
    pi/2 at (1, 0).
    """
    alpha = 1.0 / np.sqrt(x * x + k1 * y * y)
    theta = np.arctan2(np.sqrt(k1 * y * y), x)
    phi_star = np.arctan2(np.sqrt(x * x + k2 * y * y), y)
    phi = np.arctan2(np.abs(x - y) * np.sqrt((x + y) ** 2 + 2 * k2 * y * y),
                     2 * x * y + k2 * y * y)
    return alpha, theta, phi_star, phi


def _planar_point(state: ReducedState) -> np.ndarray:
    """The state as an (x, y) array; the planar field is singular at the origin."""
    if state.x * state.x + (state.k - 1) * state.y * state.y == 0.0:
        raise SingularPointError("planar field is singular at the origin")
    return np.array([state.x, state.y])


def reduced_angles(state: ReducedState) -> AngleSet:
    """Angles of the planar parametrization at one state."""
    x, y = _planar_point(state)
    alpha, theta, phi_star, phi = _planar_angles(x, y, *_k_factors(state.k))
    return AngleSet(theta=float(theta), phi_star=float(phi_star), phi=float(phi), alpha_red=float(alpha))


def reduced_field(kind: str, state: ReducedState) -> tuple[float, float]:
    """The planar flow (xdot, ydot) = -E grad_{x,y} of the selected loss."""
    xdot, ydot = reduced_flow_field(kind, state.k)(_planar_point(state))
    return float(xdot), float(ydot)


def reduced_flow_field(kind: str, k):
    """The planar field as a closure over stacked states (..., 2) for RK4 ensembles.

    ``k`` is one int K for every state, or an integer array with one K per
    state row (shape (...,)), so ensembles of several K integrate as one.
    """
    c = _check_kind(kind)
    k1, k2 = _k_factors(k)

    def field(s: np.ndarray) -> np.ndarray:
        x = s[..., 0]
        y = s[..., 1]
        alpha, theta, phi_star, phi = _planar_angles(x, y, k1, k2)
        first = k1 * (alpha * np.sin(phi_star) - np.sin(phi)) + alpha * np.sin(theta)
        bx = -(np.pi - theta) + np.pi * x + (np.pi - phi) * k1 * y
        by = -(np.pi - phi_star) + np.pi * y + (np.pi - phi) * (x + k2 * y)
        return np.stack([(first * x - c * bx), (first * y - c * by)], axis=-1) / TWO_PI

    return field


def times_to_threshold(
    kind: str,
    k,
    starts: np.ndarray,
    thresh: float,
    step: float = 1e-3,
) -> np.ndarray:
    """First flow times at which ||(x, y) - (1, 0)|| drops below ``thresh``.

    Integrates all ``starts`` (m, 2) as one stacked RK4 run, with ``k`` one
    int K or an integer array (m,) of one K per row; rows that never cross
    within ``_THRESHOLD_T_MAX`` come back as nan.
    """
    field = reduced_flow_field(kind, k)
    s = np.array(starts, dtype=float)
    target = np.array([1.0, 0.0])
    m = s.shape[0]
    out = np.full(m, np.nan)
    alive = np.ones(m, dtype=bool)
    t = 0.0
    t2 = thresh * thresh
    while t < _THRESHOLD_T_MAX and alive.any():
        s = _rk4_step(field, s, step)
        t += step
        crossed = alive & (np.sum((s - target) ** 2, axis=-1) < t2)
        out[crossed] = t
        alive &= ~crossed
    return out


def linearization(k: int) -> LinearizationReport:
    """The idealized planar linearization matrix and its closed-form eigenvalues.

    Eigenvalues of the (non-symmetric) 2x2 come from its characteristic
    polynomial: {1/4, (K+1)/4}; the H1 pair is doubled.  This is the
    textbook approximation that drops the first-order variation of the sine
    sums; the exact field's Jacobian differs from -m3 by O(1/2pi) entries.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m3 = np.array([[0.5, (k - 1) / 4.0], [0.25, k / 4.0]])
    tr = m3[0, 0] + m3[1, 1]
    det = m3[0, 0] * m3[1, 1] - m3[0, 1] * m3[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    lo, hi = (tr - disc) / 2.0, (tr + disc) / 2.0
    return LinearizationReport(m3=m3, eigs_l2=(lo, hi), eigs_h1=(2.0 * lo, 2.0 * hi))


def saddle_points(k: int) -> tuple[float, float]:
    """Diagonal saddle coordinates x*_{L2} and x*_{H1} in closed form."""
    if k < 2:
        raise ValueError("k must be >= 2")
    t0 = math.acos(1.0 / math.sqrt(k))
    x_l2 = (math.sqrt(k - 1.0) - t0 + math.pi) / (math.pi * k)
    x_h1 = (math.sqrt(k - 1.0) + TWO_PI - 2.0 * t0) / (TWO_PI * k)
    return x_l2, x_h1


def diagonal_decay(kind: str, k: int, x0: float, t_end: float) -> DecayFit:
    """Integrate the diagonal flow from (x0, x0) and fit the decay exponent.

    On the diagonal the planar field is exactly linear, x' = -(K/2)(x - x*)
    for L2 and x' = -K (x - x*) for H1, so the fitted slope of
    log|x(t) - x*| recovers -K/2 resp. -K.  The trajectory must stay on the
    diagonal; any drift beyond integration tolerance is an error.
    """
    x_l2, x_h1 = saddle_points(k)
    x_star = x_l2 if kind.lower() == "l2" else x_h1
    if not x_star < x0 <= 1.0:
        raise ValueError("need x0 in (x*, 1]")
    field = reduced_flow_field(kind, k)
    trace = rk4_integrate(field, np.array([x0, x0]), _DECAY_STEP, t_end, np.array([1.0, 0.0]),
                          record_every=10)
    drift = float(np.abs(trace.states[:, 0] - trace.states[:, 1]).max())
    if drift > 1e-9 * max(1.0, x0):
        raise RuntimeError(f"trajectory left the diagonal (drift {drift:.3e})")
    gap = np.abs(trace.states[:, 0] - x_star)
    keep = gap > 1e-12
    slope = float(np.polyfit(trace.times[keep], np.log(gap[keep]), 1)[0])
    return DecayFit(exponent=slope, x_star=x_star, max_diagonal_drift=drift)


# --------------------------------------------------------------------------
# cyclic (Toeplitz-style) parametrization


def toeplitz_field(kind: str, state: ToeplitzState) -> np.ndarray:
    """Nonlinear coefficient dynamics tdot, indices cyclic modulo K.

    The per-node field of node 1 in the teacher basis: the students are the
    cyclic shifts of t and the teachers the identity, so the projection of
    the full field onto the cyclic parametrization holds by construction.
    Only node 1 is evaluated, so the cost stays O(K^2).
    """
    return _node_field(state.t, cyclic_students(state.t), np.eye(state.k), _check_kind(kind))


_FD_STEP = 1e-6


def toeplitz_jacobian(kind: str, k: int) -> np.ndarray:
    """Central-difference Jacobian of ``toeplitz_field`` at the critical point e_1.

    The |delta|-type cone terms of the field do not cancel between the two
    sides, so the error is O(h), not O(h^2): about 1.6e-7 against the exact
    -(M + E) at the step h = 1e-6 used here.
    """
    h = _FD_STEP
    e1 = np.zeros(k)
    e1[0] = 1.0
    jac = np.zeros((k, k))
    for m in range(k):
        dp = e1.copy()
        dp[m] += h
        dm = e1.copy()
        dm[m] -= h
        fp = toeplitz_field(kind, ToeplitzState(t=dp, k=k))
        fm = toeplitz_field(kind, ToeplitzState(t=dm, k=k))
        jac[:, m] = (fp - fm) / (2.0 * h)
    return jac


def toeplitz_linearization(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Idealized linearization matrix M = I/4 + ones/4 and its eigenvalues.

    Closed-form spectrum {(K+1)/4} + {1/4 with multiplicity K-1}; same
    caveat as ``linearization``: the exact field's Jacobian at the critical
    point e_1 carries extra O(1/2pi) couplings that this matrix drops.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m = 0.25 * np.eye(k) + 0.25 * np.ones((k, k))
    eigs = np.concatenate([[(k + 1) / 4.0], np.full(k - 1, 0.25)])
    return m, eigs
