"""K-node cyclic student/teacher system.

Teachers {w*_j} are an orthonormal basis; students are cyclic shifts of a
single coefficient vector in that basis, so the whole flow reduces to the
coefficients.  Two parametrizations are supported:

* the planar one, w_l = x w*_l + y sum_{m != l} w*_m, state (x, y), with
  the region Omega: x in (0, 1], y in [0, 1], x > y;
* the cyclic (circulant) one, w_j = P_j w_1 with w_1 = sum_m t_m w*_m and
  P_j the shift by j-1, state t in R^K.

All fields returned here are the NEGATED population gradients (flow
right-hand sides).  The full per-node field and the cyclic field are one
kernel: the cyclic field is the per-node field of node 1 evaluated on the
shifted students, so it is the projection of the full field by
construction.  Index arithmetic in the t-parametrization is cyclic modulo
K: the shift group structure forces the wrap.  Both fields take plain
arrays: the planar one stacked states (..., 2) through the closure of
``reduced_flow_field``, the cyclic one the coefficients t through
``toeplitz_field``.

``planar_flows`` integrates fixed-horizon, threshold-crossing and recorded
diagonal-decay runs of the planar flow: it builds their per-row kind and K
field and hands every run to the adaptive Dormand-Prince loop of ``ode``,
which gives each row its own step controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError
from .geometry import TWO_PI, _angle_norms, _dots
from .ode import FlowRun, _dp45_rows
from .relu1 import _kind_factor

_THRESHOLD_T_MAX = 120.0  # horizon of a ``threshold_rows`` run: a row not yet within gives up
_RECORD_DT = 0.01  # spacing of a recorded run's time grid
_FIXED_POINT = np.array([1.0, 0.0])


# --------------------------------------------------------------------------
# full per-node field


def _node_field(Wj: np.ndarray, W: np.ndarray, Wstar: np.ndarray, c: int) -> np.ndarray:
    """-E grad at the nodes Wj (..., d) of the K-node system (W, W*) with kind factor c.

    The H1 field (c = 2) doubles the (pi - angle) teacher/student terms but
    not the sine terms.  Angles and norms come from one scale-safe reduction.
    W (K, d) is one student set shared by every node; W (m, K, d) gives each
    node row of Wj (m, d) its own set, and each row's sums over the K
    students are then its own vector-matrix product and dot product, so a
    row comes out bit for bit as it does alone.
    """
    ts, nj, ns = _angle_norms(Wj[..., None, :], Wstar)
    tt, _, nw = _angle_norms(Wj[..., None, :], W)
    if not (nj.all() and nw.all() and ns.all()):
        raise SingularPointError("zero node weight")
    if W.ndim == 2:
        pull = c * ((math.pi - ts) @ Wstar - (math.pi - tt) @ W)
        sines = np.sin(ts) @ ns - np.sin(tt) @ nw
    else:
        pull = c * ((math.pi - ts)[..., None, :] @ Wstar
                    - (math.pi - tt)[..., None, :] @ W)[..., 0, :]
        sines = _dots(np.sin(ts), ns) - _dots(np.sin(tt), nw)
    return (pull + sines[..., None] / nj * Wj) / TWO_PI


def multinode_gradients(W: np.ndarray, Wstar: np.ndarray, kind: str) -> np.ndarray:
    """Negated population gradients -E grad_{w_j} for each node, shape (K, d).

    With K = 1 this reduces exactly to the single-node field.
    """
    c = _kind_factor(kind)
    W = np.asarray(W, dtype=float)
    Wstar = np.asarray(Wstar, dtype=float)
    if W.ndim != 2 or W.shape != Wstar.shape:
        raise ValueError("W and W* must both have shape (K, d)")
    return _node_field(W, W, Wstar, c)


def cyclic_students(t: np.ndarray) -> np.ndarray:
    """Students (..., K, K) in teacher coordinates of coefficients t (..., K):
    row j is t cyclically shifted by j.

    A stack comes out C-contiguous (a fancy index on the last axis would not
    be), so each student set's row reductions run as they do alone.
    """
    t = np.asarray(t, dtype=float)
    k = np.arange(t.shape[-1])
    return np.take(t, (k[None, :] - k[:, None]) % t.shape[-1], axis=-1)


# --------------------------------------------------------------------------
# planar reduction


def _k_factors(k):
    """K - 1, K - 2 and 2 (K - 2) as floats: scalars for an int K, arrays for one K per state."""
    k = np.asarray(k, dtype=float)
    return k - 1.0, k - 2.0, 2 * (k - 2.0)


def _planar_angles(x, y, k1, k2, k2_twice):
    """alpha, theta, phi_star and phi of the planar parametrization.

    ``k1``, ``k2`` and ``k2_twice`` are the factors K - 1, K - 2 and
    2 (K - 2) of ``_k_factors``; everything broadcasts over x, y and the
    factors.  All three angles are taken in two-argument form; the inverse
    cosine loses half the digits where the angle is small.  theta =
    atan2(sqrt(K - 1) |y|, x) keeps its digits next to the fixed point
    (1, 0), phi_star = atan2(sqrt(x^2 + (K - 2) y^2), y) is its companion,
    and the inter-student angle phi has sin(phi) / cos(phi) reduced to
    |x - y| sqrt((x + y)^2 + 2 (K - 2) y^2) / (2 x y + (K - 2) y^2), so it
    is exactly 0 on the diagonal and exactly pi/2 at (1, 0).  The squares
    x^2, (K - 1) y^2 and (K - 2) y^2 are each formed once.
    """
    xx = x * x
    k1yy = k1 * y * y
    k2yy = k2 * y * y
    alpha = 1.0 / np.sqrt(xx + k1yy)
    theta = np.arctan2(np.sqrt(k1yy), x)
    phi_star = np.arctan2(np.sqrt(xx + k2yy), y)
    phi = np.arctan2(np.abs(x - y) * np.sqrt((x + y) ** 2 + k2_twice * y * y),
                     2 * x * y + k2yy)
    return alpha, theta, phi_star, phi


def reduced_flow_field(kind, k):
    """The planar field as a closure over stacked states (..., 2) for flow ensembles.

    ``kind`` is one kind name for every state, or an array with one name per
    state row; ``k`` is one int K, or an integer array with one K per state
    row (shape (...,)).  Ensembles of several kinds and K integrate as one.
    """
    c = _kind_factor(kind)
    k1, k2, k2_twice = _k_factors(k)

    def field(s: np.ndarray) -> np.ndarray:
        x = s[..., 0]
        y = s[..., 1]
        alpha, theta, phi_star, phi = _planar_angles(x, y, k1, k2, k2_twice)
        pi_phi = np.pi - phi
        first = k1 * (alpha * np.sin(phi_star) - np.sin(phi)) + alpha * np.sin(theta)
        bx = np.pi * x - (np.pi - theta) + pi_phi * k1 * y
        by = np.pi * y - (np.pi - phi_star) + pi_phi * (x + k2 * y)
        out = np.empty(first.shape + (2,))
        np.subtract(first * x, c * bx, out=out[..., 0])
        np.subtract(first * y, c * by, out=out[..., 1])
        out /= TWO_PI
        return out

    return field


@dataclass(frozen=True)
class PlanarRows:
    """One run of the planar flow, to be integrated with others by ``planar_flows``.

    ``starts`` (m, 2) flow under ``kind`` and ``k`` (one value, or an array
    with one per row) up to the horizon ``t_end``.  With ``thresh`` > 0 a
    row stops at its first time within ``thresh`` of the fixed point (1, 0);
    a row that starts within takes no step.  A run with ``record`` records
    its states at t = ``_RECORD_DT`` * i and at ``t_end``; a recorded run has
    no threshold.  ``planar_flows`` checks the horizon and the threshold.
    """

    kind: object
    k: object
    starts: np.ndarray
    t_end: float
    thresh: float = 0.0
    record: bool = False

    def __post_init__(self):
        starts = np.array(self.starts, dtype=float)
        if starts.ndim != 2 or starts.shape[1] != 2 or starts.shape[0] < 1:
            raise ValueError("starts must have shape (m, 2) with m >= 1")
        object.__setattr__(self, "starts", starts)


def planar_flows(runs: list[PlanarRows]) -> list[FlowRun]:
    """Integrate every run as one stacked ensemble; one ``FlowRun`` per run.

    Each row flows under its own run's kind and K, and ``ode._dp45_rows``
    steps it with its own step controller up to its run's horizon,
    threshold around (1, 0) or recorded grid, so every row comes out bit for
    bit as it would in a run of its own.
    """
    sizes = [r.starts.shape[0] for r in runs]

    def per_row(values) -> np.ndarray:
        return np.concatenate([np.broadcast_to(v, (n,)) for v, n in zip(values, sizes)])

    kind = per_row([np.asarray(r.kind) for r in runs])
    field = reduced_flow_field(kind, per_row([r.k for r in runs]))
    return _dp45_rows(field, [(r.starts, r.t_end, r.thresh, _RECORD_DT if r.record else 0.0)
                              for r in runs], _FIXED_POINT)


def threshold_rows(kind, k, starts: np.ndarray, thresh: float) -> PlanarRows:
    """A run whose rows record their first flow time within ``thresh`` of
    (1, 0) as ``crossed`` (0 for a start already within); a row still
    outside at ``_THRESHOLD_T_MAX`` keeps nan."""
    if not thresh > 0.0:
        raise ValueError("thresh must be positive")
    return PlanarRows(kind, k, starts, _THRESHOLD_T_MAX, thresh=thresh)


def saddle_points(k: int) -> tuple[float, float]:
    """Diagonal saddle coordinates x*_{L2} and x*_{H1} in closed form."""
    if k < 2:
        raise ValueError("k must be >= 2")
    t0 = math.acos(1.0 / math.sqrt(k))
    x_l2 = (math.sqrt(k - 1.0) - t0 + math.pi) / (math.pi * k)
    x_h1 = (math.sqrt(k - 1.0) + TWO_PI - 2.0 * t0) / (TWO_PI * k)
    return x_l2, x_h1


def diagonal_rows(kind: str, k: int, x0: float, t_end: float) -> PlanarRows:
    """The diagonal flow from (x0, x0) up to ``t_end``, recorded on the
    ``_RECORD_DT`` grid; ``decay_fit`` reads its exponent."""
    x_star = saddle_points(k)[_kind_factor(kind) - 1]
    if not x_star < x0 <= 1.0:
        raise ValueError("need x0 in (x*, 1]")
    return PlanarRows(kind, k, np.array([[x0, x0]]), t_end, record=True)


def decay_fit(rows: PlanarRows, run: FlowRun) -> float:
    """Decay exponent of a ``diagonal_rows`` run from its recorded states:
    the least-squares slope of log|x(t) - x*|.

    On the diagonal the planar field is exactly linear, x' = -(K/2)(x - x*)
    for L2 and x' = -K (x - x*) for H1, so the fitted slope of
    log|x(t) - x*| recovers -K/2 resp. -K.  The trajectory must stay on the
    diagonal; any drift beyond integration tolerance is an error.
    """
    x0 = float(rows.starts[0, 0])
    x_star = saddle_points(rows.k)[_kind_factor(rows.kind) - 1]
    states = run.trace.states[:, 0]
    drift = float(np.abs(states[:, 0] - states[:, 1]).max())
    if drift > 1e-9 * max(1.0, x0):
        raise RuntimeError(f"trajectory left the diagonal (drift {drift:.3e})")
    gap = np.abs(states[:, 0] - x_star)
    keep = gap > 1e-12
    return float(np.polyfit(run.trace.times[keep], np.log(gap[keep]), 1)[0])


# --------------------------------------------------------------------------
# cyclic (Toeplitz-style) parametrization


def toeplitz_field(kind: str, t: np.ndarray) -> np.ndarray:
    """Nonlinear coefficient dynamics tdot at the coefficients t (K,), indices cyclic modulo K.

    The per-node field of node 1 in the teacher basis: the students are the
    cyclic shifts of t and the teachers the identity, so the projection of
    the full field onto the cyclic parametrization holds by construction.
    Only node 1 is evaluated, so the cost stays O(K^2).  A stack t (m, K)
    gives one tdot per row, each bit for bit its one-vector call; a zero
    row anywhere raises ``SingularPointError``.
    """
    t = np.asarray(t, dtype=float)
    return _node_field(t, cyclic_students(t), np.eye(t.shape[-1]), _kind_factor(kind))


_FD_STEP = 1e-6
# entries of the (points, K, K) temporaries of one stacked ``toeplitz_field``
# call in ``toeplitz_jacobian``: K = 64 stays one call, K = 300 takes 11 points
_JACOBIAN_BLOCK = 2**20


def toeplitz_jacobian(kind: str, k: int) -> np.ndarray:
    """Central-difference Jacobian of ``toeplitz_field`` at the critical point e_1.

    The |delta|-type cone terms of the field do not cancel between the two
    sides, so the error is O(h), not O(h^2): about 1.6e-7 against the exact
    -(M + E) at the step h = 1e-6 used here.  The 2K points e_1 +- h e_m
    are evaluated as stacks of at most ``_JACOBIAN_BLOCK // K**2`` rows.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    h = _FD_STEP
    e1 = np.zeros(k)
    e1[0] = 1.0
    step = h * np.eye(k)
    points = np.concatenate([e1 + step, e1 - step])  # rows e_1 + h e_m, then e_1 - h e_m
    per_call = max(1, _JACOBIAN_BLOCK // (k * k))
    f = np.concatenate([toeplitz_field(kind, points[lo : lo + per_call])
                        for lo in range(0, 2 * k, per_call)])
    return ((f[:k] - f[k:]) / (2.0 * h)).T.copy()  # column m from the pair e_1 +- h e_m


def toeplitz_linearization(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Idealized linearization matrix M = I/4 + ones/4 and its eigenvalues.

    Closed-form spectrum {(K+1)/4} + {1/4 with multiplicity K-1}.  This is
    the textbook approximation that drops the first-order variation of the
    sine sums: the exact field's Jacobian at the critical point e_1
    (``toeplitz_jacobian``) carries extra O(1/2pi) couplings.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m = 0.25 * np.eye(k) + 0.25 * np.ones((k, k))
    eigs = np.concatenate([[(k + 1) / 4.0], np.full(k - 1, 0.25)])
    return m, eigs
