"""Dense eigensolvers used as the numeric oracle for closed-form spectra.

Each solver takes one matrix (n, n) or a stack (m, n, n) and solves a
stack in one call of numpy's stacked LAPACK routines.  Every matrix of a
stack keeps its own checks, and its spectrum is bit for bit the one it
gets alone.

The eigenvalues come from LAPACK's values-only routines (``eigvalsh``,
``eigvals``): every caller in the package reads only them, so no
eigenvector is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError

_SYM_TOL = 1e-12  # max|A - A^T| allowed by ``symmetric_eigs``, relative to max(1, max|A|)
_IMAG_TOL = 1e-8  # max|Im lambda| allowed by ``real_eigs``, relative to max(1, max|A|)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues from a values-only LAPACK routine, sorted descending.

    ``real_eigs`` reports the real spectrum of a mildly non-normal matrix.
    For a stack of m matrices the eigenvalues are (m, n) and the extremes
    (m,) arrays.
    """

    eigenvalues: np.ndarray

    @property
    def lam_max(self) -> float:
        return _float_or_stack(self.eigenvalues[..., 0])

    @property
    def lam_min(self) -> float:
        return _float_or_stack(self.eigenvalues[..., -1])


def _float_or_stack(x: np.ndarray):
    return x if x.ndim else x.item()


def _check_square(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix or stack as floats, and max(1, max|A|) of each matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"matrix must be square with n >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise SingularPointError("non-finite entries")
    return a, np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))


def _report(vals: np.ndarray) -> SpectrumReport:
    return SpectrumReport(np.sort(vals, axis=-1)[..., ::-1])


def symmetric_eigs(a: np.ndarray) -> SpectrumReport:
    """Full spectrum of a symmetric matrix.

    Input must be symmetric within ``_SYM_TOL`` (scaled by the matrix
    magnitude).  Backed by LAPACK's symmetric solver; non-convergence
    surfaces as ``np.linalg.LinAlgError``.  Non-finite entries (here and in
    ``real_eigs``) raise ``SingularPointError``: they come from a closed form
    evaluated where it blows up, not from a bad input.  So does an asymmetry
    beyond the tolerance: the closed forms handed in are symmetric in exact
    arithmetic.
    """
    a, scale = _check_square(a)
    a_t = np.swapaxes(a, -1, -2)
    asym = np.abs(a - a_t).max(axis=(-2, -1))
    bad = asym > _SYM_TOL * scale
    if bad.any():
        raise SingularPointError(f"matrix is not symmetric: max|A-A^T| = {asym[bad][0]:.3e}")
    return _report(np.linalg.eigvalsh(0.5 * (a + a_t)))


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
    return _report(vals.real)
