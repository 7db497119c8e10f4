"""Linear-model baseline: plain least squares vs the target-anchored ridge.

For y = X w* + eps, eps ~ N(0, sigma^2 I), the two estimators are

  w_l2 = (X^T X)^-1 X^T y
  w_h1 = (X^T X + lambda I)^-1 (X^T y + lambda w*)

Both are unbiased; their in-sample prediction variances are

  E |X (w_l2 - w*)|^2 = sigma^2 d
  E |X (w_h1 - w*)|^2 = sigma^2 sum_i s_i^2 / (s_i + lambda)^2

with s_i the eigenvalues of X^T X.  The sigma^2 factor is carried
explicitly (it cancels only for unit noise).

Both estimators come from one batched solve, ``_estimators``: a variance
study solves every noise draw of a chunk, for every ridge lambda, with it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigs import symmetric_eigs
from .exceptions import SingularPointError

_MIN_GRAM_EIG = 1e-10
_CHUNK_ENTRIES = 10_000_000  # noise entries drawn at once by ``variance_study``


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
        s = symmetric_eigs(self.gram()).eigenvalues[::-1]
        if s[0] <= _MIN_GRAM_EIG:
            raise SingularPointError("Gram matrix is numerically singular")
        return s


def _estimators(g: np.ndarray, xty: np.ndarray, wstar: np.ndarray, lambdas) -> tuple:
    """Both estimators for the label products xty = Y X (m, d), one row per
    label vector: w_l2 (m, d) from the Gram matrix g, and a generator of one
    w_h1 (m, d) per ridge lambda in ``lambdas`` (so one is held at a time),
    each a batched ``np.linalg.solve``."""
    eye = np.eye(g.shape[0])
    w_l2 = np.linalg.solve(g, xty.T).T
    return w_l2, (np.linalg.solve(g + lam * eye, (xty + lam * wstar).T).T for lam in lambdas)


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


def variance_study(p: LinearProblem | Sequence[LinearProblem], trials: int,
                   seed: int) -> tuple[float, ...] | list[tuple[float, ...]]:
    """Empirical in-sample variances over fresh noise draws vs the formulas.

    Returns (var_l2, var_h1, formula_l2, formula_h1) where the empirical
    values average |X (w_hat - w*)|^2 over ``trials`` label draws.  Raises
    ``SingularPointError`` where one of them overflows the floats.

    A sequence of problems that differ only in ``ridge_lambda`` is one
    study and gives one tuple per problem: each chunk's noise, X^T y and
    least-squares fit are formed once, and only the ridge solve and its
    residual run per lambda, so each tuple is bit for bit the one its
    problem gives alone.
    """
    probs = [p] if isinstance(p, LinearProblem) else list(p)
    if not probs:
        raise ValueError("variance_study needs at least one problem")
    first = probs[0]
    if any(not (np.array_equal(q.x_matrix, first.x_matrix) and np.array_equal(q.wstar, first.wstar)
                and q.noise_sigma == first.noise_sigma) for q in probs):
        raise ValueError("a variance study's problems may differ only in ridge_lambda")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    X, wstar, sigma = first.x_matrix, first.wstar, first.noise_sigma
    lambdas = [q.ridge_lambda for q in probs]
    n = X.shape[0]
    # an overflow is reported below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        # raises on a numerically singular Gram matrix
        formulas = [variance_formulas(q) for q in probs]
        g = first.gram()
        y_clean = X @ wstar
        acc_l2 = 0.0
        acc_h1 = [0.0] * len(probs)
        chunk = max(1, min(trials, _CHUNK_ENTRIES // max(n, 1)))
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            eps = sigma * rng.standard_normal((m, n))
            ys = y_clean[None, :] + eps
            w_l2, w_h1 = _estimators(g, ys @ X, wstar, lambdas)
            acc_l2 += float(np.sum((X @ (w_l2 - wstar).T) ** 2))
            for i, w in enumerate(w_h1):
                acc_h1[i] += float(np.sum((X @ (w - wstar).T) ** 2))
            done += m
    outs = [(acc_l2 / trials, acc / trials, *f) for acc, f in zip(acc_h1, formulas)]
    if not all(math.isfinite(v) for out in outs for v in out):
        raise SingularPointError(f"in-sample variances overflow the floats at noise_sigma = "
                                 f"{sigma:g}")
    return outs[0] if isinstance(p, LinearProblem) else outs
