"""Pair geometry shared by all single-node closed forms.

Every single-node formula is a function of the three scalars
(norm of the student weight, norm of the teacher weight, angle between
them) plus the coupling coefficient

    alpha = |w*| / (2 pi |w| sin(theta)),

which blows up at collinearity.  The product alpha*sin^2(theta) stays
finite there, so it is carried in cancelled form and alpha itself is
reported as ``inf`` rather than raising.
``_angle_norms`` is the one reduction of a pair to its angle and norms:
``pair_geometry`` takes it for every single-node pair, one pair being the
one-row case of a stack, and the K-node field for each of its pairs.

Every single-node gradient is a combination of w and w*, so a gradient
flow stays in the plane span{w0, w*}; ``_plane_coordinates`` maps a pair
into that plane and ``_plane_angle_norms`` measures plane points.
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
    ``alpha_sin_sq`` is the cancelled product ``alpha*sin(theta)**2``; it is
    finite for ``norm_w > 0`` even at ``theta == 0``.  For a stack of pairs
    every field, and each angle property, is an (m,) array.
    """

    norm_w: float
    norm_wstar: float
    theta: float
    alpha: float
    alpha_sin_sq: float

    @property
    def sin_theta(self) -> float:
        return np.sin(self.theta)

    @property
    def cos_theta(self) -> float:
        return np.cos(self.theta)


_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def _norm(x: np.ndarray) -> np.ndarray:
    """2-norm over the last axis as ``np.linalg.norm(x, axis=-1)`` computes it,
    a row reduction, without its per-call overhead.

    Only a row whose squared norm leaves [tiny, max] is scaled: by 2^-e, 2^e
    the power of two of its largest entry, before the same reduction, and
    back after it (Blue's 1978 scaled norm, as LAPACK's dnrm2).  That is
    exact, so a nonzero row never has norm 0 and every norm is exactly
    homogeneous under power-of-two scaling.  Each row's norm is bit for bit
    the one its row gives alone.
    """
    with np.errstate(over="ignore"):
        sq = np.add.reduce(x * x, axis=-1)
        norm = np.sqrt(sq)
        if _TINY <= sq.min() and sq.max() <= _HUGE:
            return norm
        unsafe = ~((sq >= _TINY) & (sq <= _HUGE))
        rows = x[unsafe]
        e = np.frexp(np.abs(rows).max(axis=-1, initial=0.0))[1]
        r = np.ldexp(rows, -e[:, None])
        scaled = np.ldexp(np.sqrt(np.add.reduce(r * r, axis=-1)), e)
    if x.ndim == 1:
        return scaled[0]  # the one row is the unsafe one
    norm[unsafe] = scaled
    return norm


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each bit for bit ``a.dot(b)`` of its
    rows: a stacked (1, d) @ (d, 1) product takes the same BLAS dot per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _angle_norms(w: np.ndarray, wstar: np.ndarray):
    """Angle in [0, pi] via the two-argument form 2 atan2(|u-v|, |u+v|),
    together with the norms |w| and |w*| it reduced.

    Unlike plain arccos of the inner product, this stays fully accurate at
    the collinear configurations the landscape formulas exercise hardest
    (arccos loses half the digits there), and coincident directions give an
    exact zero.  Broadcasts over leading axes, so one call covers a stack of
    states or all pairs of two stacks, as the K-node field takes them, and
    ``pair_geometry`` a stack of students against one teacher or one per
    row.  Every step is elementwise or a reduction of one row, so each
    pair's values are bit for bit those it gives alone.  A zero vector has
    angle 0 to everything.
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
    return np.where(zero, 0.0, 2.0 * np.arctan2(across, along)), nw, ns


def _plane_coordinates(w: np.ndarray, wstar: np.ndarray):
    """Students w (..., d) and their teacher w* (d,) in coordinates of the plane span{w, w*}.

    Each student becomes p = (a, b) with a = w.u along u = w*/|w*| and
    b = |w - a u| >= 0 across it, and the teacher becomes p* = (|w*|, 0),
    so |p - p*| = |w - w*| and the angle and norms of (p, p*) are those of
    (w, w*), up to rounding.
    """
    ns = _norm(wstar)
    u = wstar / ns
    a = _dots(w, u)
    return np.stack([a, _norm(w - a[..., None] * u)], axis=-1), np.array([ns, 0.0])


def _plane_angle_norms(p: np.ndarray):
    """Angle theta = atan2(|b|, a) in [0, pi] of plane points p = (a, b) (..., 2)
    against a teacher on the first axis, and their norms |p| = hypot(a, b).

    The plane counterpart of ``_angle_norms``: no row reduction, and hypot
    neither under- nor overflows.  A point and its mirror image (a, -b) get
    the same angle.
    """
    a, b = p[..., 0], p[..., 1]
    return np.arctan2(np.abs(b), a), np.hypot(a, b)


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

    ``w`` is one student (d,) or a stack (m, d); ``wstar`` is one teacher
    (d,) or one per student (m, d).  For a stack every field is an (m,)
    array.  The angle and norms are those of ``_angle_norms``, the reduction
    of the K-node field too, and each row's values are bit for bit those of
    its pair alone.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.ndim not in (1, 2) or wstar.shape not in (w.shape, w.shape[-1:]):
        raise ValueError(f"dimension mismatch: {w.shape} vs {wstar.shape}")
    if not (np.isfinite(w).all() and np.isfinite(wstar).all()):
        raise SingularPointError("non-finite entries")
    d = w.shape[-1]
    theta, nw, ns = _angle_norms(w.reshape(-1, d), wstar.reshape(-1, d))
    if not ns.all():
        raise ValueError("teacher vector must be nonzero")
    zero = nw == 0.0
    # the quotients of a zero student (norm 0, angle 0) are inf, as documented
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sin(theta)
        tw = TWO_PI * nw
        alpha_sin_sq = ns * s / tw
        alpha_sin_sq[zero] = math.inf
        alpha = ns / (tw * s)  # tw * s >= 0 underflows to 0 at a subnormal angle
    if w.ndim == 1:
        return PairGeometry(*(f.item(0) for f in (nw, ns, theta, alpha, alpha_sin_sq)))
    return PairGeometry(nw, np.broadcast_to(ns, nw.shape), theta, alpha, alpha_sin_sq)
