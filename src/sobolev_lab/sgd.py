"""Empirical-risk SGD on a fixed dataset, with analytic conditioning traces.

Plain minibatch SGD (no momentum, no adaptivity) on the empirical value
loss or the combined value + derivative loss for the single ReLU node.
The per-sample gradients are the Monte-Carlo oracle's first-order kernel,
so they match the population conventions, i.e. both terms carry the 1/2
factor, and the analytic condition-number formulas apply unchanged along
the trajectory.  The value part r 1{w.x>0} x is ``mc._value_part`` on the
projections ``mc._projections`` takes; the seminorm part takes one of the
three rows (0, w, w - w*) of ``mc._span_values("semi", ...)`` by the two
indicators.  Each part's batch mean is one reduction over its own array,
bit for bit the mean of ``mc._relu_grad``'s part.

The dataset is drawn once per seed; minibatches are sampled without
replacement within each epoch (fresh shuffle per epoch), each gathered with
one ``take`` from the flattened datasets.  Any number of runs that share
every setting but seed and loss kind step together as one ensemble: each
step is one pass over stacks with a leading runs axis, and no run's numbers
depend on the others in its ensemble.  The logged states are kept, and
their condition numbers are taken in one stacked ``pair_geometry`` pass
after the last step, each row bit for bit its state's alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import BlowUpError
from .geometry import pair_geometry
from .mc import _projections, _span_values, _value_part
from .relu1 import _kind_factor, condition_numbers

_INIT_RADIUS = 0.8  # |w0 - w*| as a fraction of |w*|, inside the basin |w0 - w*| < |w*|


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

    def __post_init__(self):
        _kind_factor(self.loss_kind)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        # rate 0 never moves and rate inf blows up at its first step; both are legal
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be >= 0 (or inf)")
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


def sgd_run(cfg: SgdConfig | Sequence[SgdConfig]) -> SgdTrace | list[SgdTrace]:
    """Run SGD per the config and log error/conditioning every ``log_every`` steps.

    A sequence of configs that differ only in seed and loss kind runs as one
    ensemble, stepped as stacks of shape (runs, ...), and gives one trace per
    config.  Configs with one seed share its draws (w*, w0, the dataset and
    every shuffle), which are drawn once; each trace is bit for bit the one
    its config gives alone.  The first step at which any run leaves the
    finite floats raises ``BlowUpError``.
    """
    cfgs = [cfg] if isinstance(cfg, SgdConfig) else list(cfg)
    first = cfgs[0]
    if any(replace(c, seed=first.seed, loss_kind=first.loss_kind) != first for c in cfgs):
        raise ValueError("an SGD ensemble's configs may differ only in seed and loss_kind")
    seeds = list(dict.fromkeys(c.seed for c in cfgs))
    run_seed = np.array([seeds.index(c.seed) for c in cfgs])
    h1 = _kind_factor([c.loss_kind for c in cfgs]) == 2
    n, dim, batch = first.n_train, first.dim, first.batch_size

    rngs = [np.random.default_rng(seed) for seed in seeds]
    wstar = np.empty((len(seeds), dim))
    w0 = np.empty((len(seeds), dim))
    X = np.empty((len(seeds), n, dim))
    for rng, ws, w, x in zip(rngs, wstar, w0, X):
        ws[:] = rng.standard_normal(dim)
        ws /= np.linalg.norm(ws)
        e = rng.standard_normal(dim)
        e *= _INIT_RADIUS / np.linalg.norm(e)
        w[:] = ws + e
        rng.standard_normal((n, dim), out=x)
    wstar, w = wstar[run_seed], w0[run_seed]
    Wstar = wstar[:, None]
    runs, rate = len(cfgs), first.learning_rate

    # samples are gathered from the flattened datasets, whose row
    # run_seed * n + i is sample i of the run's seed
    X = X.reshape(-1, dim)

    def shuffles():
        return run_seed[:, None] * n + np.stack([rng.permutation(n) for rng in rngs])[run_seed]

    # each run's seminorm rows (0, w, w - w*) by 1{w.x>0} (1 + 1{w*.x>0})
    table = np.zeros((runs, 3, dim))
    table_row = 3 * np.arange(runs)[:, None, None]

    def log(step):
        err = np.sum((w - wstar) ** 2, axis=-1)
        if not np.all(np.isfinite(err)):
            raise BlowUpError(f"SGD error overflowed at step {step}", time=float(step))
        steps.append(step)
        errs.append(err)
        states.append(w)  # each step binds a new w, so a logged state stays as logged

    rows = shuffles()
    pos = 0
    steps, errs, states = [], [], []
    # a diverging run overflows on its way out; the checks in ``log`` and
    # after each step report it
    with np.errstate(over="ignore", invalid="ignore"):
        log(0)
        for step in range(1, first.n_steps + 1):
            if pos + batch > n:
                rows = shuffles()
                pos = 0
            x = X.take(rows[:, pos : pos + batch], axis=0)  # (runs, batch, dim)
            pos += batch
            pw, ps = _projections(x, w[:, None], Wstar)
            on = pw > 0
            table[:, 1], table[:, 2] = _span_values("semi", w, wstar, None)
            semi = table.reshape(-1, dim).take(table_row + on * (1 + (ps > 0)), axis=0)
            # each part's batch mean, summed as ``.mean`` sums it
            g_l2, g_semi = (np.add.reduce(part, axis=1)[:, 0] / batch
                            for part in (_value_part(x, pw, ps, on), semi))
            w = w - rate * np.where(h1[:, None], g_l2 + g_semi, g_l2)
            if not np.all(np.isfinite(w)):
                raise BlowUpError(f"SGD diverged at step {step}", time=float(step))
            if step % first.log_every == 0 or step == first.n_steps:
                log(step)
    states = np.array(states)  # (logs, runs, dim)
    kl, kh = (k.reshape(len(steps), runs) for k in condition_numbers(pair_geometry(
        states.reshape(-1, dim), np.broadcast_to(wstar, states.shape).reshape(-1, dim))))
    errs, kappas = np.array(errs), np.where(h1, kh, kl)
    traces = [SgdTrace(steps=np.asarray(steps), err_sq=errs[:, r], kappa=kappas[:, r],
                       w_final=w[r], wstar=wstar[r]) for r in range(runs)]
    return traces[0] if isinstance(cfg, SgdConfig) else traces
