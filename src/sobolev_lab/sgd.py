"""Empirical-risk SGD on a fixed dataset, with analytic conditioning traces.

Plain minibatch SGD (no momentum, no adaptivity) on the empirical value
loss or the combined value + derivative loss for the single ReLU node.
The per-sample gradients are the Monte-Carlo oracle's first-order kernel,
so they match the population conventions, i.e. both terms carry the 1/2
factor, and the analytic condition-number formulas apply unchanged along
the trajectory.

The dataset is drawn once per run; minibatches are sampled without
replacement within each epoch (fresh shuffle per epoch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUpError
from .geometry import pair_geometry
from .mc import _FORMS, _relu_grad
from .relu1 import condition_numbers


@dataclass(frozen=True)
class SgdConfig:
    dim: int
    batch_size: int
    n_train: int
    learning_rate: float
    n_steps: int
    seed: int
    loss_kind: str  # "l2" or "h1"
    log_every: int = 10
    init_radius: float = 0.8  # |w0 - w*| as a fraction of |w*|, must be < 1

    def __post_init__(self):
        if self.loss_kind.lower() not in ("l2", "h1"):
            raise ValueError("loss_kind must be 'l2' or 'h1'")
        if not 0.0 < self.init_radius < 1.0:
            raise ValueError("initialization must satisfy |w0 - w*| < |w*|")
        if not 1 <= self.batch_size <= self.n_train:
            raise ValueError("batch_size must be in [1, n_train]")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class SgdTrace:
    """Logged steps with the squared parameter error and the analytic
    condition number of the matching Hessian (nan outside the convexity
    region)."""

    steps: np.ndarray
    err_sq: np.ndarray
    kappa: np.ndarray
    w_final: np.ndarray
    wstar: np.ndarray


def _kappa_at(w: np.ndarray, wstar: np.ndarray, kind: str) -> float:
    geom = pair_geometry(w, wstar)
    kl, kh = condition_numbers(geom)
    val = kl if kind == "l2" else kh
    return val if val is not None else math.nan


def sgd_run(cfg: SgdConfig) -> SgdTrace:
    """Run SGD per the config and log error/conditioning every ``log_every`` steps."""
    kind = cfg.loss_kind.lower()
    rng = np.random.default_rng(cfg.seed)
    wstar = rng.standard_normal(cfg.dim)
    wstar /= np.linalg.norm(wstar)
    e = rng.standard_normal(cfg.dim)
    e *= cfg.init_radius / np.linalg.norm(e)
    w = wstar + e
    X = rng.standard_normal((cfg.n_train, cfg.dim))
    Wstar = wstar[None]
    parts = _FORMS["relu"][kind]

    order = rng.permutation(cfg.n_train)
    pos = 0
    steps, errs, kappas = [0], [float(np.sum((w - wstar) ** 2))], [_kappa_at(w, wstar, kind)]
    for step in range(1, cfg.n_steps + 1):
        if pos + cfg.batch_size > cfg.n_train:
            order = rng.permutation(cfg.n_train)
            pos = 0
        batch = X[order[pos : pos + cfg.batch_size]]
        pos += cfg.batch_size
        grad = sum(g.mean(axis=0) for g in _relu_grad(batch, w[None], Wstar, parts))[0]
        w = w - cfg.learning_rate * grad
        if not np.all(np.isfinite(w)):
            raise BlowUpError(f"SGD diverged at step {step}", time=float(step))
        if step % cfg.log_every == 0 or step == cfg.n_steps:
            with np.errstate(over="ignore"):  # an overflow is reported as a blow-up below
                err = float(np.sum((w - wstar) ** 2))
            if not math.isfinite(err):
                raise BlowUpError(f"SGD error overflowed at step {step}", time=float(step))
            steps.append(step)
            errs.append(err)
            kappas.append(_kappa_at(w, wstar, kind))
    return SgdTrace(
        steps=np.asarray(steps),
        err_sq=np.asarray(errs),
        kappa=np.asarray(kappas),
        w_final=w,
        wstar=wstar,
    )
