"""Dense eigendecompositions used as the numeric oracle for closed-form spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPointError

_SYM_TOL = 1e-12  # max|A - A^T| allowed by ``symmetric_eigs``, relative to max(1, max|A|)
_IMAG_TOL = 1e-8  # max|Im lambda| allowed by ``real_eigs``, relative to max(1, max|A|)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted descending with matching eigenvector columns.

    For symmetric input (``symmetric_eigs``) the eigenvectors are orthonormal
    and the residual ||A v - lam v|| is below 1e-10 ||A||.  ``real_eigs``
    reports the real spectrum of a mildly non-normal matrix; its eigenvectors
    are unit-norm but in general not orthogonal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[-1])


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SingularPointError("non-finite entries")
    return a


def symmetric_eigs(a: np.ndarray) -> SpectrumReport:
    """Full spectrum of a symmetric matrix.

    Input must be symmetric within ``_SYM_TOL`` (scaled by the matrix
    magnitude).  Backed by LAPACK's symmetric solver; non-convergence
    surfaces as ``np.linalg.LinAlgError``.  Non-finite entries (here and in
    ``real_eigs``) raise ``SingularPointError``: they come from a closed form
    evaluated where it blows up, not from a bad input.
    """
    a = _check_square(a)
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > _SYM_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max|A-A^T| = {asym:.3e}")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(vals)[::-1]
    return SpectrumReport(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def real_eigs(a: np.ndarray) -> SpectrumReport:
    """Spectrum of a general real matrix whose eigenvalues are known to be real.

    Used for the H1 Hessian, which as written is a non-normal rank-2
    perturbation of the identity with a provably real, semisimple spectrum.
    Raises ``SingularPointError`` if any eigenvalue carries imaginary mass
    beyond ``_IMAG_TOL`` relative to the matrix magnitude.
    """
    a = _check_square(a)
    vals, vecs = np.linalg.eig(a)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(vals.imag).max(initial=0.0)) > _IMAG_TOL * scale:
        raise SingularPointError("matrix has genuinely complex eigenvalues")
    order = np.argsort(vals.real)[::-1]
    vecs = vecs.real / np.linalg.norm(vecs.real, axis=0, keepdims=True)
    return SpectrumReport(eigenvalues=vals.real[order], eigenvectors=vecs[:, order])
