"""Dense eigensolvers used as the numeric oracle for closed-form spectra.

Each solver takes one matrix (n, n) or a stack (m, n, n) and solves a
stack in one call of numpy's stacked LAPACK routines.  Every matrix of a
stack keeps its own checks, and its spectrum is bit for bit the one it
gets alone.

The eigenvalues come from LAPACK's values-only routines (``eigvalsh``,
``eigvals``); every caller in the package reads only them.  A report's
eigenvectors are formed by the matching vector routine (``eigh``, ``eig``)
on the matrix the report checked, the first time they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import SingularPointError

_SYM_TOL = 1e-12  # max|A - A^T| allowed by ``symmetric_eigs``, relative to max(1, max|A|)
_IMAG_TOL = 1e-8  # max|Im lambda| allowed by ``real_eigs``, relative to max(1, max|A|)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted descending; eigenvector columns formed on first read.

    ``eigenvalues`` come from a values-only LAPACK routine.  ``eigenvectors``
    runs the vector routine on the matrix the solver checked (the
    symmetrized one for ``symmetric_eigs``) once, when first read, and
    orders its columns by that routine's eigenvalues, descending.  For
    symmetric input the eigenvectors are orthonormal and the residual
    ||A v - lam v|| is below 1e-10 ||A||.  ``real_eigs`` reports the real
    spectrum of a mildly non-normal matrix; its eigenvectors are unit-norm
    but in general not orthogonal.  For a stack of m matrices the
    eigenvalues are (m, n), the eigenvectors (m, n, n) and the extremes
    (m,) arrays.
    """

    eigenvalues: np.ndarray
    _matrix: np.ndarray = field(repr=False, compare=False)
    _symmetric: bool = field(repr=False, compare=False)

    @property
    def lam_max(self) -> float:
        return _float_or_stack(self.eigenvalues[..., 0])

    @property
    def lam_min(self) -> float:
        return _float_or_stack(self.eigenvalues[..., -1])

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        if self._symmetric:
            vals, vecs = np.linalg.eigh(self._matrix)
        else:
            vals, vecs = np.linalg.eig(self._matrix)
            vals = vals.real
            vecs = vecs.real / np.linalg.norm(vecs.real, axis=-2, keepdims=True)
        return np.take_along_axis(vecs, _descending_order(vals)[..., None, :], -1)


def _float_or_stack(x: np.ndarray):
    return x if x.ndim else x.item()


def _descending_order(vals: np.ndarray) -> np.ndarray:
    return np.argsort(vals, axis=-1)[..., ::-1]


def _check_square(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix or stack as floats, and max(1, max|A|) of each matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise SingularPointError("non-finite entries")
    return a, np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))


def _report(vals: np.ndarray, a: np.ndarray, symmetric: bool) -> SpectrumReport:
    return SpectrumReport(np.take_along_axis(vals, _descending_order(vals), -1), a, symmetric)


def symmetric_eigs(a: np.ndarray) -> SpectrumReport:
    """Full spectrum of a symmetric matrix.

    Input must be symmetric within ``_SYM_TOL`` (scaled by the matrix
    magnitude).  Backed by LAPACK's symmetric solver; non-convergence
    surfaces as ``np.linalg.LinAlgError``.  Non-finite entries (here and in
    ``real_eigs``) raise ``SingularPointError``: they come from a closed form
    evaluated where it blows up, not from a bad input.  So does an asymmetry
    beyond the tolerance: the closed forms handed in are symmetric in exact
    arithmetic, and the L2 Hessian's rounding asymmetry grows like
    alpha ~ 1/sin(theta) next to collinearity.
    """
    a, scale = _check_square(a)
    a_t = np.swapaxes(a, -1, -2)
    asym = np.abs(a - a_t).max(axis=(-2, -1))
    bad = asym > _SYM_TOL * scale
    if bad.any():
        raise SingularPointError(f"matrix is not symmetric: max|A-A^T| = {asym[bad][0]:.3e}")
    sym = 0.5 * (a + a_t)
    return _report(np.linalg.eigvalsh(sym), sym, True)


def real_eigs(a: np.ndarray) -> SpectrumReport:
    """Spectrum of a general real matrix whose eigenvalues are known to be real.

    Used for the H1 Hessian, which as written is a non-normal rank-2
    perturbation of the identity with a provably real, semisimple spectrum.
    Raises ``SingularPointError`` if any eigenvalue carries imaginary mass
    beyond ``_IMAG_TOL`` relative to the matrix magnitude.
    """
    a, scale = _check_square(a)
    vals = np.linalg.eigvals(a)
    if np.any(np.abs(vals.imag).max(axis=-1, initial=0.0) > _IMAG_TOL * scale):
        raise SingularPointError("matrix has genuinely complex eigenvalues")
    # a copy, so vectors read later are those of the matrix checked here
    return _report(vals.real, a.copy(), False)
