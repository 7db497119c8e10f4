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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError
from .geometry import TWO_PI, _angle_norms

_BASIN_TOL = 1e-12


@dataclass(frozen=True)
class H2GradientBundle:
    grad_i1: np.ndarray
    grad_i2: np.ndarray
    grad_i3: np.ndarray


@dataclass(frozen=True)
class DescentReport:
    """Signs of -(w - w*).grad Ij; True means strict descent of V = |w - w*|^2.

    ``degenerate`` marks w == w* (all inner products exactly zero, reported
    vacuously True); ``guarantee_void`` marks points outside the basin
    |w - w*| < |w*| where the descent theorem gives no guarantee.
    """

    descent_i1: bool
    descent_i2: bool
    descent_i3: bool
    degenerate: bool
    guarantee_void: bool


_PARTS = ("i1", "i2", "i3")


def _coeffs(theta):
    """The angle coefficients (G, H, G1); theta may be a float or an array."""
    st, ct = np.sin(theta), np.cos(theta)
    rest = math.pi - theta
    tail = 2.0 * rest * ct
    return rest + st * ct, 2.0 * st + tail, st + tail


def _h2_parts(w: np.ndarray, wstar: np.ndarray, parts: tuple[str, ...]) -> list[np.ndarray]:
    """Gradients of the selected components at stacked states w (..., d), in ``parts`` order."""
    theta, nw, ns = _angle_norms(w, wstar)
    theta, nw, ns = np.asarray(theta)[..., None], nw[..., None], float(ns)
    g, h, g1 = _coeffs(theta)
    nw2 = nw**2
    out = []
    for p in parts:
        if p == "i1":
            out.append(3.0 * nw2 * w - (ns**2 / math.pi) * g * w - (nw * ns / math.pi) * h * wstar)
        elif p == "i2":
            sc = np.sin(theta) * np.cos(theta)
            out.append(4.0 * (nw2 * w - (sc / TWO_PI) * ns**2 * w - (nw * ns / TWO_PI) * g1 * wstar))
        else:
            dot = np.sum(w * wstar, axis=-1)[..., None]
            out.append(4.0 * nw2 * w - (4.0 * (math.pi - theta) / math.pi) * dot * wstar)
    return out


def _pair(w: np.ndarray, wstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One student/teacher pair as float vectors; zero vectors are singular."""
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.shape != wstar.shape or w.ndim != 1:
        raise ValueError("w and w* must be 1-d vectors of equal dimension")
    if not (w.any() and wstar.any()):  # a norm would underflow to 0 below ~1e-154
        raise SingularPointError("second-order closed forms are singular at zero vectors")
    return w, wstar


def h2_gradients(w: np.ndarray, wstar: np.ndarray) -> H2GradientBundle:
    """Closed-form gradients of the three second-order loss components."""
    w, wstar = _pair(w, wstar)
    return H2GradientBundle(*_h2_parts(w, wstar, _PARTS))


def h2_flow_rhs(w: np.ndarray, wstar: np.ndarray, parts: tuple[str, ...] = _PARTS) -> np.ndarray:
    """Negated sum of selected component gradients; the H2 (or partial) flow field."""
    w, wstar = _pair(w, wstar)
    return h2_flow_field(wstar, parts)(w)


def h2_flow_field(wstar: np.ndarray, parts=_PARTS):
    """Vectorized closure over stacked states (..., d) for RK4 ensembles.

    ``parts`` names the summed components: one tuple for every state, or a
    list with one tuple per row of stacked (m, d) states, so flows of
    several component sets integrate as one ensemble.
    """
    wstar = np.asarray(wstar, dtype=float)
    if not wstar.any():
        raise SingularPointError("zero teacher")
    row_parts = [parts] if not parts or isinstance(parts[0], str) else list(parts)
    for p in row_parts:
        if not p or not set(p) <= set(_PARTS):
            raise ValueError("parts must be a nonempty subset of {'i1','i2','i3'}")
    selections = [tuple(p for p in _PARTS if p in row) for row in row_parts]
    sets = list(dict.fromkeys(selections))
    union = tuple(p for p in _PARTS if any(p in s for s in sets))
    pick = np.array([sets.index(s) for s in selections])[:, None]

    def field(w: np.ndarray) -> np.ndarray:
        grads = dict(zip(union, _h2_parts(w, wstar, union)))
        out = None
        for j, sel in enumerate(sets):
            total = -sum((grads[p] for p in sel[1:]), grads[sel[0]])
            out = total if out is None else np.where(pick == j, total, out)
        return out

    return field


def descent_check(w: np.ndarray, wstar: np.ndarray) -> DescentReport:
    """Evaluate the three descent inner products -(w - w*).grad Ij < 0."""
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    e = w - wstar
    dist = float(np.linalg.norm(e))
    ns = float(np.linalg.norm(wstar))
    if dist <= _BASIN_TOL * max(1.0, ns):
        return DescentReport(True, True, True, degenerate=True, guarantee_void=False)
    b = h2_gradients(w, wstar)
    vals = (-float(e @ b.grad_i1), -float(e @ b.grad_i2), -float(e @ b.grad_i3))
    return DescentReport(
        descent_i1=vals[0] < 0.0,
        descent_i2=vals[1] < 0.0,
        descent_i3=vals[2] < 0.0,
        degenerate=False,
        guarantee_void=dist >= ns,
    )


def descent_quadratic_forms(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 forms (M, M2) from the descent-inequality decompositions.

      M  = [[2 G cos + 2 H,  -(3 pi + G + H cos)], [., 6 pi]]
      M2 = [[2 G1 + 2 cos^2 sin, -cos (G1 + sin + 2 pi cos)], [., 4 pi cos]]

    M2 is positive semidefinite on all of [0, pi/2).  M is not: det(M)
    turns negative past theta ~ 1.02, even though the descent inequality
    itself still holds on the basin (where |w| < 2 |w*| cos(theta) confines
    the weight vector to the cone on which the form stays positive).
    """
    g, h, g1 = _coeffs(theta)
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
