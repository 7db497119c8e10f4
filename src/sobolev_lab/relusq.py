"""Single ReLU^2 node, g(x) = relu(w.x)^2: second-order Sobolev closed forms.

The three loss components are the value mismatch I1, the input-gradient
mismatch I2, and the input-Hessian mismatch I3 (each with the same 1/2
per-sample normalization as the first-order losses).  Their population
gradients under N(0, I) inputs are, with theta the student/teacher angle,

  G(t)  = (pi - t) + sin t cos t
  H(t)  = 2 sin t + 2 (pi - t) cos t
  G1(t) = sin t + 2 (pi - t) cos t

  grad I1 = 3|w|^2 w - (|w*|^2/pi) G w - (|w||w*|/pi) H w*
  grad I2 = 4 ( |w|^2 w - (cos sin / 2pi) |w*|^2 w - (|w||w*|/2pi) G1 w* )
  grad I3 = 4 |w|^2 w - (4 (pi - t)/pi) (w.w*) w*

The |w*|^2 (squared) coefficient in grad I1 is the dimensionally
consistent one and is the version the Monte-Carlo oracle confirms.

``h2_gradients`` takes one student or a stack against one teacher, each
pair reduced by ``geometry.pair_geometry``.

All three gradients are combinations of w and w*, so the flows of both
``VARIANTS`` stay in the plane span{w0, w*}.  ``h2_plane_field`` is their
flow field on (m, 2) plane coordinates: the component arithmetic of
d-dimensional states, with the angle and norm of each row taken without a
row reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError
from .geometry import TWO_PI, _dots, _plane_angle_norms, pair_geometry


@dataclass(frozen=True)
class H2GradientBundle:
    grad_i1: np.ndarray
    grad_i2: np.ndarray
    grad_i3: np.ndarray


# the flows of the relusq experiment: "h2" descends I1 + I2 + I3, "i1" only I1
VARIANTS = ("h2", "i1")


def _coeffs(theta):
    """The angle coefficients (G, H, G1) and sin(theta) cos(theta), which G
    contains; theta may be a float or an array."""
    st, ct = np.sin(theta), np.cos(theta)
    sc = st * ct
    rest = math.pi - theta
    tail = 2.0 * rest * ct
    return rest + sc, 2.0 * st + tail, st + tail, sc


def _component_grads(w: np.ndarray, wstar: np.ndarray, theta, nw, ns) -> tuple[np.ndarray, ...]:
    """Gradients of I1, I2 and I3 at stacked states w (..., d), from the angle
    ``theta`` and norm ``nw`` of each state and the teacher norm ``ns``."""
    theta, nw, ns = np.asarray(theta)[..., None], np.asarray(nw)[..., None], float(ns)
    g, h, g1, sc = _coeffs(theta)
    nw2, ns2 = nw**2, ns * ns  # a float's ns**2 raises where it overflows
    dot = np.sum(w * wstar, axis=-1)[..., None]
    return (3.0 * nw2 * w - (ns2 / math.pi) * g * w - (nw * ns / math.pi) * h * wstar,
            4.0 * (nw2 * w - (sc / TWO_PI) * ns2 * w - (nw * ns / TWO_PI) * g1 * wstar),
            4.0 * nw2 * w - (4.0 * (math.pi - theta) / math.pi) * dot * wstar)


def h2_gradients(w: np.ndarray, wstar: np.ndarray) -> H2GradientBundle:
    """Closed-form gradients of the three second-order loss components.

    ``w`` is one student (d,) or a stack (m, d) against one teacher (d,); a
    stack gives (m, d) gradients, each row bit for bit its student's alone,
    as the angle and norms come from ``pair_geometry``.  A gradient that
    leaves the floats (|w| ~ 1e150 gives ~1e450) raises ``SingularPointError``.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.ndim not in (1, 2) or wstar.shape != w.shape[-1:]:
        raise ValueError(f"dimension mismatch: {w.shape} vs {wstar.shape}")
    if not (wstar.any() and w.any(axis=-1).all()):
        raise SingularPointError("second-order closed forms are singular at zero vectors")
    geom = pair_geometry(w, wstar)
    ns = np.ravel(geom.norm_wstar)[0]  # one teacher: one norm for every row
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        grads = _component_grads(w, wstar, geom.theta, geom.norm_w, ns)
    if not all(np.isfinite(g).all() for g in grads):
        raise SingularPointError("a second-order gradient leaves the floats")
    return H2GradientBundle(*grads)


def descent_inner_products(ws: np.ndarray, wstar: np.ndarray) -> np.ndarray:
    """-(w - w*) . grad I_k of each student of a stack ws (m, d), as an (m, 3) array:
    one stacked ``h2_gradients`` call, then row dot products; a product
    that leaves the floats raises ``SingularPointError``."""
    ws = np.asarray(ws, dtype=float)
    b = h2_gradients(ws, wstar)
    e = ws - np.asarray(wstar, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        ips = np.stack([-_dots(e, g) for g in (b.grad_i1, b.grad_i2, b.grad_i3)], axis=-1)
    if not np.isfinite(ips).all():
        raise SingularPointError("a descent inner product leaves the floats")
    return ips


def h2_plane_field(variant, norm_wstar: float):
    """The negated gradient of a variant's loss, the flow field, as a closure
    over plane points p = (a, b) (m, 2) of span{w0, w*}.

    ``variant`` is "h2" (I1 + I2 + I3) or "i1" (I1 alone), or an array of
    them with one per row of the stacked states, so the flows of both
    variants integrate as one ensemble; its row mask is built once, here.
    The teacher is p* = (|w*|, 0), ``norm_wstar`` its norm; a student maps
    there by ``geometry._plane_coordinates``.  Each evaluation takes the
    angle and norm of every row from ``geometry._plane_angle_norms`` and
    then the d-dimensional component arithmetic, so integrated at the same
    steps a plane trajectory is the d-dimensional one up to rounding.
    """
    names = np.asarray(variant)
    unknown = sorted(set(names.ravel().tolist()) - set(VARIANTS))
    if unknown:
        raise ValueError(f"unknown relusq variant {unknown[0]!r}")
    ns = float(norm_wstar)
    if ns == 0.0:
        raise SingularPointError("zero teacher")
    h2 = (names == "h2")[..., None]
    pstar = np.array([ns, 0.0])

    def field(p: np.ndarray) -> np.ndarray:
        g1, g2, g3 = _component_grads(p, pstar, *_plane_angle_norms(p), ns)
        return np.where(h2, -(g1 + g2 + g3), -g1)

    return field


def descent_quadratic_forms(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 forms (M, M2) from the descent-inequality decompositions.

      M  = [[2 G cos + 2 H,  -(3 pi + G + H cos)], [., 6 pi]]
      M2 = [[2 G1 + 2 cos^2 sin, -cos (G1 + sin + 2 pi cos)], [., 4 pi cos]]

    M2 is positive semidefinite on all of [0, pi/2).  M is not: det(M)
    turns negative past theta ~ 1.02, even though the descent inequality
    itself still holds on the basin (where |w| < 2 |w*| cos(theta) confines
    the weight vector to the cone on which the form stays positive).
    """
    g, h, g1, _ = _coeffs(theta)
    st, ct = math.sin(theta), math.cos(theta)
    m = np.array(
        [
            [2.0 * g * ct + 2.0 * h, -(3.0 * math.pi + g + h * ct)],
            [-(3.0 * math.pi + g + h * ct), 6.0 * math.pi],
        ]
    )
    m2 = np.array(
        [
            [2.0 * g1 + 2.0 * ct**2 * st, -ct * (g1 + st + TWO_PI * ct)],
            [-ct * (g1 + st + TWO_PI * ct), 2.0 * TWO_PI * ct],
        ]
    )
    return m, m2
