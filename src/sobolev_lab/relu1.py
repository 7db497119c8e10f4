"""Single ReLU node (K=1): exact population landscape under N(0, I) inputs.

Closed forms for the population gradients of the value loss L, the
derivative-matching seminorm J, and the combined loss H = L + J; the two
Hessians with their spectra and condition numbers; the quadratic forms
governing dV/dt along the gradient flows; the one-step gradient-descent
comparison.

Conventions pinned here and relied on everywhere else:
  grad L = (w - w*)/2 + (theta w* - (|w*|/|w|) sin(theta) w) / (2 pi)
  grad J = (pi - theta)/(2 pi) (w - w*) + theta/(2 pi) w
  hess L = I/2 - alpha (u u^T - cos(theta) v u^T + sin^2(theta) I)(I - v v^T)
  hess H = I   - alpha (2 u u^T - cos(theta) v u^T + sin^2(theta) I)(I - v v^T)
with u = w*/|w*|, v = w/|w|, alpha = |w*|/(2 pi |w| sin(theta)).

The ReLU derivative at 0 uses the subgradient choice 1{t>0}; the event has
measure zero under Gaussian inputs.

Both gradients are combinations of w and w*, so a gradient flow stays in
the plane span{w0, w*} (the reduction behind Tian's 2017 single-node
dynamics).  ``flow_rhs`` is the field on d-dimensional states;
``plane_flow_field`` is the same arithmetic on (m, 2) plane coordinates,
with the angle and norm of each row taken without a row reduction.

The Hessians, their spectra and the GD comparison take one student (d,) or
a stack (m, d) against one teacher (d,), and return stacks with a leading
axis of length m.  A row's value does not depend on its stack: each row of
a stack is bit for bit the one-student result.

Note: hess L is symmetric, but hess H as written carries the skew part
alpha cos(theta) (v g^T - g v^T)/..., g = u - cos(theta) v.  It is a
non-normal matrix with a real semisimple spectrum {1, 1 - alpha sin^2
(mult d-2), 1 - 3 alpha sin^2}; symmetrizing it would shift the extreme
eigenvalues, so it is kept exactly as defined and its spectrum is taken
with a general eigensolver.

Condition numbers follow the eigenvalue assignment the numeric oracle
confirms: kappa(hess L) = 1/(1 - 4 a s^2), kappa(hess H) = 1/(1 - 3 a s^2)
with a s^2 = alpha sin^2(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigs import SpectrumReport, real_eigs, symmetric_eigs
from .exceptions import SingularPointError
from .geometry import (TWO_PI, PairGeometry, _angle_norms, _dots, _plane_angle_norms,
                       _row_norms, pair_geometry)


@dataclass(frozen=True)
class GradientBundle:
    """Population gradients at one parameter point; grad_h1 = grad_l2 + grad_seminorm."""

    grad_l2: np.ndarray
    grad_seminorm: np.ndarray
    grad_h1: np.ndarray


@dataclass(frozen=True)
class HessianReport:
    """Both Hessians with numeric spectra and closed-form condition numbers.

    ``kappa_l2`` / ``kappa_h1`` are ``None`` (undefined) when the matching
    minimum eigenvalue is <= 0, i.e. outside the strict-convexity region.
    For a stack of m students the matrices are (m, d, d), the spectra hold
    stacks and each kappa is an (m,) array with nan where undefined.
    ``geometry`` is the pair geometry the report was formed from.
    """

    hess_l2: np.ndarray
    hess_h1: np.ndarray
    spectrum_l2: SpectrumReport
    spectrum_h1: SpectrumReport
    kappa_l2: float | None
    kappa_h1: float | None
    geometry: PairGeometry


@dataclass(frozen=True)
class GdCompareReport:
    """One common-stepsize GD step under L2 vs H1 training.

    ``gain_f = err_l2 - err_h1`` and ``max_step_c`` is the largest stepsize
    for which the squared-error improvement is guaranteed positive.  The
    guarantee holds only inside the basin; ``in_basin`` is False when the
    report was computed outside it (values still returned).  For a stack
    of m points every field has a leading axis of length m.
    """

    w_new_l2: np.ndarray
    w_new_h1: np.ndarray
    err_l2: float
    err_h1: float
    gain_f: float
    max_step_c: float
    in_basin: bool


# --------------------------------------------------------------------------
# gradients


def _check_nonzero(nw) -> None:
    """Raise where a student norm is 0: the gradients divide by |w|."""
    if not np.all(nw):
        raise SingularPointError("closed-form gradients are singular at w = 0")


def _norms_theta(w: np.ndarray, wstar: np.ndarray):
    """Batched norms and two-argument angle; w may be (..., d), wstar is (d,)."""
    theta, nw, ns = _angle_norms(w, wstar)
    _check_nonzero(nw)
    return nw, float(ns), theta


def _gradients(w: np.ndarray, wstar: np.ndarray, nw, ns, theta) -> tuple[np.ndarray, np.ndarray]:
    """grad L and grad J at w (..., d), from its norms and angle (one per row)."""
    t = theta[..., None] if w.ndim > 1 else theta
    ratio = (ns / nw)[..., None] if w.ndim > 1 else ns / nw
    e = w - wstar
    gl = 0.5 * e + (t * wstar - ratio * np.sin(t) * w) / TWO_PI
    gj = (math.pi - t) / TWO_PI * e + t / TWO_PI * w
    return gl, gj


def population_gradients(w: np.ndarray, wstar: np.ndarray) -> GradientBundle:
    """Closed-form (grad L, grad J, grad H) at a single parameter point."""
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.shape != wstar.shape or w.ndim != 1:
        raise ValueError("w and w* must be 1-d vectors of equal dimension")
    if not wstar.any():  # a norm would underflow to 0 below ~1e-154
        raise ValueError("teacher vector must be nonzero")
    gl, gj = _gradients(w, wstar, *_norms_theta(w, wstar))
    return GradientBundle(grad_l2=gl, grad_seminorm=gj, grad_h1=gl + gj)


def _h1_rows(kind):
    """Where the kind is "h1": a bool for one kind name, a column (m, 1) for
    an array of names with one per state row."""
    if isinstance(kind, str):
        kind = kind.lower()
        if kind not in ("l2", "h1"):
            raise ValueError(f"unknown flow kind {kind!r}")
        return kind == "h1"
    kinds = np.asarray(kind)
    h1 = kinds == "h1"
    if not (h1 | (kinds == "l2")).all():
        raise ValueError(f"unknown flow kinds in {sorted(set(kinds.tolist()))}")
    return h1[:, None]


def flow_rhs(kind, w: np.ndarray, wstar: np.ndarray) -> np.ndarray:
    """Negated population gradient of the selected loss; the gradient-flow field.

    ``kind`` is "l2" or "h1", or an array of them with one per row of
    stacked (m, d) states, so whole ensembles of trajectories, of one kind
    or of both, integrate in one RK4 run.
    """
    h1 = _h1_rows(kind)
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    return _flow(h1, w, wstar, *_norms_theta(w, wstar))


def _flow(h1, w: np.ndarray, wstar: np.ndarray, nw, ns, theta) -> np.ndarray:
    """-grad H where ``h1`` holds and -grad L elsewhere, at w with its norms and angle."""
    gl, gj = _gradients(w, wstar, nw, ns, theta)
    return -np.where(h1, gl + gj, gl)


def plane_flow_field(kind, norm_wstar: float):
    """``flow_rhs`` as a closure over plane points p = (a, b) (m, 2) of span{w0, w*}.

    The teacher is p* = (|w*|, 0), ``norm_wstar`` its norm; a student maps
    there by ``geometry._plane_coordinates``.  Each evaluation takes the
    angle and norm of every row from ``geometry._plane_angle_norms`` and
    then the d-dimensional gradient arithmetic, so a plane trajectory is the
    d-dimensional one up to rounding.  ``kind`` is as for ``flow_rhs``; its
    row mask is built once, here.
    """
    h1 = _h1_rows(kind)
    ns = float(norm_wstar)
    pstar = np.array([ns, 0.0])

    def field(p: np.ndarray) -> np.ndarray:
        theta, nw = _plane_angle_norms(p)
        _check_nonzero(nw)
        return _flow(h1, p, pstar, nw, ns, theta)

    return field


# --------------------------------------------------------------------------
# Hessians


def _inverse_where_positive(x):
    """1 / x where x > 0; elsewhere None for one pair and nan in a stack."""
    if np.ndim(x) == 0:
        return 1.0 / x if x > 0.0 else None
    return np.divide(1.0, x, out=np.full_like(x, math.nan), where=x > 0.0)


def condition_numbers(geom: PairGeometry) -> tuple[float | None, float | None]:
    """Closed-form condition numbers (kappa_L2, kappa_H1) from pair geometry.

    Undefined (None, or nan in a stack) when the matching minimum eigenvalue
    1/2 - 2 a s^2 resp. 1 - 3 a s^2 is <= 0, that is outside the
    strict-convexity region S: sin(theta) < pi |w| / (2 |w*|) resp.
    S': sin(theta) < 2 pi |w| / (3 |w*|).
    """
    q = geom.alpha_sin_sq
    return _inverse_where_positive(1.0 - 4.0 * q), _inverse_where_positive(1.0 - 3.0 * q)


def closed_form_eigs(geom: PairGeometry) -> dict[str, float]:
    """The analytic spectra: extremes plus the bulk value of multiplicity d-2."""
    q = geom.alpha_sin_sq
    return {
        "l2_max": 0.5,
        "l2_bulk": 0.5 - q,
        "l2_min": 0.5 - 2.0 * q,
        "h1_max": 1.0,
        "h1_bulk": 1.0 - q,
        "h1_min": 1.0 - 3.0 * q,
    }


def hessian_matrices(w: np.ndarray, wstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assemble hess L and hess H exactly as defined (hess H is not symmetrized).

    ``w`` is one student (d,) or a stack (m, d) against one teacher (d,);
    a stack gives (m, d, d) stacks, and each matrix is bit for bit the one
    its row gives alone.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    return _hessian_matrices(w, wstar, pair_geometry(w, wstar))


def _hessian_matrices(w: np.ndarray, wstar: np.ndarray, geom: PairGeometry):
    """``hessian_matrices`` from the pair geometry ``geom`` of (w, w*)."""
    if np.any(geom.norm_w == 0.0) or np.any(geom.sin_theta == 0.0):
        raise SingularPointError("Hessian formulas are singular at theta = 0 or w = 0")
    d = w.shape[-1]
    if d < 2:
        raise ValueError("Hessians need dimension >= 2")
    nw, ns, cos, sin, alpha = map(np.asarray, (geom.norm_w, geom.norm_wstar, geom.cos_theta,
                                                geom.sin_theta, geom.alpha))
    u = wstar / ns[..., None]
    v = w / nw[..., None]
    uu = u[..., :, None] * u[..., None, :]
    eye = np.eye(d)
    proj = eye - v[..., :, None] * v[..., None, :]
    # libm's pow, as Python's float ** takes it; numpy's square rounds
    # differently in the last bit on about 1 input in 1000
    s2_eye = np.float_power(sin, 2)[..., None, None] * eye
    cos_vu = cos[..., None, None] * (v[..., :, None] * u[..., None, :])
    alpha = alpha[..., None, None]
    hl = 0.5 * eye - alpha * ((uu - cos_vu + s2_eye) @ proj)
    hh = eye - alpha * ((2.0 * uu - cos_vu + s2_eye) @ proj)
    return hl, hh


def hessians(w: np.ndarray, wstar: np.ndarray) -> HessianReport:
    """Hessians, numeric spectra, and closed-form condition numbers.

    The L2 Hessian must come out symmetric (checked to 1e-12); the H1
    Hessian is deliberately left with its skew part and decomposed with the
    general real eigensolver.  A stack of students (m, d) gives a report of
    stacks, one row per student, each bit for bit its student's report.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    geom = pair_geometry(w, wstar)
    hl, hh = _hessian_matrices(w, wstar, geom)
    spec_l = symmetric_eigs(hl)
    spec_h = real_eigs(hh)
    kl, kh = condition_numbers(geom)
    return HessianReport(
        hess_l2=hl,
        hess_h1=hh,
        spectrum_l2=spec_l,
        spectrum_h1=spec_h,
        kappa_l2=kl,
        kappa_h1=kh,
        geometry=geom,
    )


# --------------------------------------------------------------------------
# flow quadratic forms


def flow_quadratic_forms(theta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The two symmetric 2x2 forms M1, M2 with dV/dt = -(p^T (M1+M2) p)/(2 pi),
    p = (|w*|, |w|), plus lambda(theta) = lambda_min(M2) in closed form.

    Defined for theta in [0, pi/2).
    """
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError("theta must lie in [0, pi/2)")
    ct, st = math.cos(theta), math.sin(theta)
    m1 = np.array(
        [
            [math.sin(2 * theta) + TWO_PI - 2 * theta, -(TWO_PI - theta) * ct - st],
            [-(TWO_PI - theta) * ct - st, TWO_PI],
        ]
    )
    m2 = np.array(
        [
            [TWO_PI - 2 * theta, -(TWO_PI - theta) * ct],
            [-(TWO_PI - theta) * ct, TWO_PI],
        ]
    )
    lam = (TWO_PI - theta) - math.sqrt(theta**2 + (TWO_PI - theta) ** 2 * ct**2)
    return m1, m2, lam


def gd_quadratic_forms(theta: float) -> tuple[np.ndarray, ...]:
    """The five 2x2 forms N1..N5 of the one-step GD comparison, as functions
    of theta, acting on p = (|w*|, |w|):

      eta^2 |grad L|^2          = (eta^2/4 pi^2) p^T N1 p
      -2 eta grad L . (w - w*)  = -(eta/2 pi)    p^T N2 p
      eta^2 |grad H|^2          = (eta^2/4 pi^2) p^T N3 p
      -2 eta grad H . (w - w*)  = -(eta/2 pi)    p^T N4 p
      N5 = N1 - N3 (negative semidefinite on the basin angles).
    """
    ct, st = math.cos(theta), math.sin(theta)
    s2t = math.sin(2 * theta)
    tm = theta - math.pi
    n1 = np.array(
        [
            [tm**2 + st**2 - tm * s2t, math.pi * tm * ct - math.pi * st],
            [math.pi * tm * ct - math.pi * st, math.pi**2],
        ]
    )
    n2 = np.array(
        [
            [s2t + TWO_PI - 2 * theta, (theta - TWO_PI) * ct - st],
            [(theta - TWO_PI) * ct - st, TWO_PI],
        ]
    )
    n3 = np.array(
        [
            [4 * tm**2 + st**2 - 2 * tm * s2t, 4 * math.pi * tm * ct - TWO_PI * st],
            [4 * math.pi * tm * ct - TWO_PI * st, 4 * math.pi**2],
        ]
    )
    n4 = np.array(
        [
            [s2t - 4 * tm, (2 * theta - 2 * TWO_PI) * ct - st],
            [(2 * theta - 2 * TWO_PI) * ct - st, 2 * TWO_PI],
        ]
    )
    n5 = n1 - n3
    return n1, n2, n3, n4, n5


# --------------------------------------------------------------------------
# one-step GD comparison


def gd_compare(w: np.ndarray, wstar: np.ndarray, eta) -> GdCompareReport:
    """Take one GD step of stepsize eta under L2 and under H1 and compare errors.

    ``max_step_c = -2 grad J . (w - w*) / (|grad L|^2 - |grad H|^2)``; for
    0 < eta < C the squared H1-error is strictly below the squared L2-error
    whenever w != w* lies in the basin.  Outside the basin the numbers are
    still computed but the guarantee is void (``in_basin`` False).  A step
    whose point or error leaves the finite floats raises
    ``SingularPointError``; an error whose square overflows is still taken.

    ``w`` is one point (d,) or a stack (m, d) against one teacher (d,), and
    ``eta`` one stepsize or one per row.  A stack gives a report of stacks,
    each row bit for bit the report of its point alone.
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0.0):
        raise ValueError("stepsize must be positive")
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    geom = pair_geometry(w, wstar)
    _check_nonzero(geom.norm_w)
    gl, gj = _gradients(w, wstar, geom.norm_w, geom.norm_wstar, geom.theta)
    gh = gl + gj
    step = eta[..., None] if eta.ndim else eta
    # a step or an error that leaves the floats raises below
    with np.errstate(over="ignore", invalid="ignore"):
        w_new_l2 = w - step * gl
        w_new_h1 = w - step * gh
        e, e_l2, e_h1 = w - wstar, w_new_l2 - wstar, w_new_h1 - wstar
        # each norm as np.linalg.norm takes it, the square root of a dot
        # product, and math.hypot's where that square overflows
        err_l2, err_h1 = _row_norms(np.stack([e_l2, e_h1]).reshape(-1, w.shape[-1])).reshape(
            2, *w.shape[:-1])
    if not (np.isfinite(err_l2).all() and np.isfinite(err_h1).all()):
        raise SingularPointError(f"a GD step of stepsize up to {eta.max():g} leaves the floats")
    num = -2.0 * _dots(gj, e)
    den = _dots(gl, gl) - _dots(gh, gh)
    with np.errstate(divide="ignore", invalid="ignore"):
        max_step_c = np.where(den != 0.0, num / den, math.inf)
    in_basin = np.sqrt(_dots(e, e)) < np.sqrt(_dots(wstar, wstar))
    fields = {"err_l2": err_l2, "err_h1": err_h1, "gain_f": err_l2 - err_h1,
              "max_step_c": max_step_c, "in_basin": in_basin}
    if w.ndim == 1:
        fields = {key: val.item() for key, val in fields.items()}
    return GdCompareReport(w_new_l2=w_new_l2, w_new_h1=w_new_h1, **fields)
