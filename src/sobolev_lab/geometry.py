"""Pair geometry shared by all single-node closed forms.

Every single-node formula is a function of the three scalars
(norm of the student weight, norm of the teacher weight, angle between
them) plus the coupling coefficient

    alpha = |w*| / (2 pi |w| sin(theta)),

which blows up at collinearity.  The products alpha*sin(theta) and
alpha*sin^2(theta) stay finite there, so they are carried in cancelled
form and alpha itself is reported as ``inf`` rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PairGeometry:
    """Norms, angle and coupling coefficient of a (student, teacher) pair.

    ``alpha`` is ``inf`` when ``sin(theta) == 0`` or ``norm_w == 0`` (and
    when its value overflows).
    ``alpha_sin`` and ``alpha_sin_sq`` are the cancelled products
    ``alpha*sin(theta)`` and ``alpha*sin(theta)**2``; they are finite for
    ``norm_w > 0`` even at ``theta == 0``.
    """

    norm_w: float
    norm_wstar: float
    theta: float
    alpha: float
    alpha_sin: float
    alpha_sin_sq: float

    @property
    def sin_theta(self) -> float:
        return math.sin(self.theta)

    @property
    def cos_theta(self) -> float:
        return math.cos(self.theta)


_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def _norm(x: np.ndarray) -> np.ndarray:
    """2-norm over the last axis as ``np.linalg.norm`` computes it, without its
    per-call overhead: a dot product for one vector, a row reduction for a stack.

    A nonzero vector whose squared norm underflows or overflows is measured
    with the scale-safe ``math.hypot`` instead, so it never has norm 0; in a
    stack only such rows go through it, and a zero row keeps sqrt(0) = 0.
    """
    if x.ndim == 1:
        sq = x.dot(x)
        return np.sqrt(sq) if _TINY <= sq <= _HUGE else np.float64(math.hypot(*x))
    sq = np.add.reduce(x * x, axis=-1)
    norm = np.sqrt(sq)
    if _TINY <= sq.min() and sq.max() <= _HUGE:
        return norm
    unsafe = ~((sq >= _TINY) & (sq <= _HUGE))
    unsafe[unsafe] = x[unsafe].any(axis=-1)
    norm[unsafe] = [math.hypot(*r) for r in x[unsafe]]
    return norm


def _angle_norms(w: np.ndarray, wstar: np.ndarray):
    """Angle in [0, pi] via the two-argument form 2 atan2(|u-v|, |u+v|),
    together with the norms |w| and |w*| it reduced.

    Unlike plain arccos of the inner product, this stays fully accurate at
    the collinear configurations the landscape formulas exercise hardest
    (arccos loses half the digits there), and coincident directions give an
    exact zero.  Broadcasts over leading axes, so one call covers a stack of
    states or all pairs of two stacks; 1-d inputs give a float angle.  A
    zero vector has angle 0 to everything.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    nw, ns = _norm(w), _norm(wstar)
    w_zero, s_zero = nw == 0.0, ns == 0.0
    # a zero vector stays zero instead of turning into 0/0
    u = w / (nw + w_zero)[..., None]
    v = wstar / (ns + s_zero)[..., None]
    across, along = _norm(u - v), _norm(u + v)
    zero = w_zero | s_zero
    if np.ndim(across) == 0:  # one pair: libm's scalar atan2 is faster here
        return (0.0 if zero else 2.0 * math.atan2(across, along)), nw, ns
    return np.where(zero, 0.0, 2.0 * np.arctan2(across, along)), nw, ns


def basin_pairs(rng: np.random.Generator, dim: int, count: int, rmin: float = 0.1, rmax: float = 0.9):
    """Unit teacher plus ``count`` students (count, dim) with |w - w*| uniform in [rmin, rmax]."""
    wstar = rng.standard_normal(dim)
    wstar /= np.linalg.norm(wstar)
    dirs = rng.standard_normal((count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(rmin, rmax, size=count)
    return wstar + radii[:, None] * dirs, wstar


def basin_node_pairs(rng: np.random.Generator, dim: int, rmin: float, rmax: float):
    """Two orthonormal teachers W* (2, dim) and students W with |w_j - w*_j| uniform in [rmin, rmax]."""
    Wstar = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:2].copy()
    E = rng.standard_normal((2, dim))
    E *= (rng.uniform(rmin, rmax, size=2) / np.linalg.norm(E, axis=1))[:, None]
    return Wstar + E, Wstar


def pair_geometry(w: np.ndarray, wstar: np.ndarray) -> PairGeometry:
    """Compute the shared pair geometry of a student/teacher weight pair.

    Requires matching dimensions and a nonzero teacher.  A zero student is
    allowed; its angle is reported as 0 and ``alpha`` as ``inf``.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.shape != wstar.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {wstar.shape}")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(wstar))):
        raise SingularPointError("non-finite entries")
    theta, nw, ns = _angle_norms(w, wstar)
    nw, ns = float(nw), float(ns)
    if ns == 0.0:
        raise ValueError("teacher vector must be nonzero")
    s = math.sin(theta)
    if nw == 0.0:
        alpha = math.inf
        alpha_sin = math.inf
        alpha_sin_sq = math.inf
    else:
        alpha_sin = ns / (TWO_PI * nw)
        alpha_sin_sq = ns * s / (TWO_PI * nw)
        denom = TWO_PI * nw * s  # underflows to 0 at a subnormal angle
        alpha = ns / denom if denom > 0.0 else math.inf
    return PairGeometry(
        norm_w=nw,
        norm_wstar=ns,
        theta=theta,
        alpha=alpha,
        alpha_sin=alpha_sin,
        alpha_sin_sq=alpha_sin_sq,
    )
