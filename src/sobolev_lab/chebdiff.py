"""Chebyshev spectral differentiation on 1-d grids.

Chebyshev collocation points x_j = cos(j pi / n) and the spectral
differentiation matrix (diagonal by the negative-sum trick, which keeps
row sums at exactly the rounding floor): D @ target stands in for
unavailable target derivatives in a derivative-free Sobolev loss.
"""

from __future__ import annotations

import numpy as np


def cheb_points(n: int) -> np.ndarray:
    """The n+1 Chebyshev points cos(j pi / n), decreasing from 1 to -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.cos(np.pi * np.arange(n + 1) / n)


def cheb_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix on the Chebyshev points.

    Off-diagonal entries (c_i / c_j) (-1)^(i+j) / (x_i - x_j) with corner
    weights c = 2, interior weights 1; the diagonal forces zero row sums
    (constants differentiate to zero exactly).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = cheb_points(n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d
