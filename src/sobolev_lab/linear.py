"""Linear-model baseline: plain least squares vs the target-anchored ridge.

For y = X w* + eps, eps ~ N(0, sigma^2 I), the two estimators are

  w_l2 = (X^T X)^-1 X^T y
  w_h1 = (X^T X + lambda I)^-1 (X^T y + lambda w*)

Both are unbiased; their in-sample prediction variances are

  E |X (w_l2 - w*)|^2 = sigma^2 d
  E |X (w_h1 - w*)|^2 = sigma^2 sum_i s_i^2 / (s_i + lambda)^2

with s_i the eigenvalues of X^T X.  The sigma^2 factor is carried
explicitly (it cancels only for unit noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from .exceptions import SingularPointError

_MIN_GRAM_EIG = 1e-10


@dataclass(frozen=True)
class LinearProblem:
    x_matrix: np.ndarray
    wstar: np.ndarray
    noise_sigma: float
    ridge_lambda: float

    def __post_init__(self):
        X = np.asarray(self.x_matrix, dtype=float)
        w = np.asarray(self.wstar, dtype=float)
        if X.ndim != 2 or w.ndim != 1 or X.shape[1] != w.shape[0]:
            raise ValueError("design must be (N, d) with wstar of length d")
        if not (0.0 <= self.noise_sigma < math.inf and 0.0 <= self.ridge_lambda < math.inf):
            raise ValueError(f"noise_sigma and ridge_lambda must be finite and >= 0, got "
                             f"{self.noise_sigma} and {self.ridge_lambda}")
        object.__setattr__(self, "x_matrix", X)
        object.__setattr__(self, "wstar", w)

    def gram(self) -> np.ndarray:
        return self.x_matrix.T @ self.x_matrix

    @cached_property
    def _gram_eigs(self) -> np.ndarray:
        """Ascending eigenvalues of X^T X, taken once; raises if it is numerically singular."""
        s = np.linalg.eigvalsh(self.gram())
        if s[0] <= _MIN_GRAM_EIG:
            raise SingularPointError("Gram matrix is numerically singular")
        return s


def _chol_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        L = cholesky(a)
    except LinAlgError as exc:
        raise SingularPointError("Gram matrix is singular") from exc
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)


def fit_estimators(p: LinearProblem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both closed-form estimators for one label vector y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (p.x_matrix.shape[0],):
        raise ValueError("y must have one entry per design row")
    p._gram_eigs  # raises on a numerically singular Gram matrix
    g = p.gram()
    xty = p.x_matrix.T @ y
    w_l2 = _chol_solve(g, xty)
    w_h1 = _chol_solve(
        g + p.ridge_lambda * np.eye(g.shape[0]), xty + p.ridge_lambda * p.wstar
    )
    return w_l2, w_h1


def conditioning(p: LinearProblem) -> tuple[float, float]:
    """Condition numbers of the two Hessians X^T X and X^T X + lambda I."""
    vals = p._gram_eigs
    lam = p.ridge_lambda
    return float(vals[-1] / vals[0]), float((vals[-1] + lam) / (vals[0] + lam))


def variance_formulas(p: LinearProblem) -> tuple[float, float]:
    """Closed-form in-sample variances sigma^2 d and sigma^2 sum s^2/(s+lam)^2."""
    s = p._gram_eigs
    sig2 = p.noise_sigma * p.noise_sigma  # inf where it overflows, which variance_study reports
    return sig2 * p.x_matrix.shape[1], float(sig2 * np.sum(s**2 / (s + p.ridge_lambda) ** 2))


def variance_study(
    p: LinearProblem, trials: int, seed: int
) -> tuple[float, float, float, float]:
    """Empirical in-sample variances over fresh noise draws vs the formulas.

    Returns (var_l2, var_h1, formula_l2, formula_h1) where the empirical
    values average |X (w_hat - w*)|^2 over ``trials`` label draws.  Raises
    ``SingularPointError`` where one of them overflows the floats.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    X = p.x_matrix
    n = X.shape[0]
    # an overflow is reported below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        f_l2, f_h1 = variance_formulas(p)  # raises on a numerically singular Gram matrix
        g = p.gram()
        g_ridge = g + p.ridge_lambda * np.eye(g.shape[0])
        y_clean = X @ p.wstar
        acc_l2 = 0.0
        acc_h1 = 0.0
        chunk = max(1, min(trials, 10_000_000 // max(n, 1)))
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            eps = p.noise_sigma * rng.standard_normal((m, n))
            ys = y_clean[None, :] + eps
            xty = ys @ X  # (m, d)
            w_l2 = np.linalg.solve(g, xty.T).T
            w_h1 = np.linalg.solve(g_ridge, (xty + p.ridge_lambda * p.wstar[None, :]).T).T
            acc_l2 += float(np.sum((X @ (w_l2 - p.wstar).T) ** 2))
            acc_h1 += float(np.sum((X @ (w_h1 - p.wstar).T) ** 2))
            done += m
    out = (acc_l2 / trials, acc_h1 / trials, f_l2, f_h1)
    if not all(map(math.isfinite, out)):
        raise SingularPointError(f"in-sample variances overflow the floats at noise_sigma = "
                                 f"{p.noise_sigma:g}")
    return out
