import numpy as np
import pytest

from sobolev_lab import sgd
from sobolev_lab.exceptions import BlowUpError
from sobolev_lab.geometry import pair_geometry
from sobolev_lab.mc import _relu_grad
from sobolev_lab.relu1 import condition_numbers
from sobolev_lab.sgd import SgdConfig, SgdTrace, sgd_run


def cfg(**kw):
    base = dict(dim=8, batch_size=32, n_train=2000, learning_rate=1e-2,
                n_steps=400, seed=0, loss_kind="l2", log_every=20)
    base.update(kw)
    return SgdConfig(**base)


def test_zero_learning_rate_is_constant():
    trace = sgd_run(cfg(learning_rate=0.0))
    assert np.all(trace.err_sq == trace.err_sq[0])


def test_trace_shapes_and_monotone_steps():
    trace = sgd_run(cfg())
    assert isinstance(trace, SgdTrace)
    assert len(trace.steps) == len(trace.err_sq) == len(trace.kappa)
    assert np.all(np.diff(trace.steps) > 0)
    assert trace.steps[0] == 0 and trace.steps[-1] == 400
    assert np.all(trace.err_sq >= 0)


def test_same_seed_reproduces_bitwise():
    a = sgd_run(cfg(seed=3))
    b = sgd_run(cfg(seed=3))
    assert np.array_equal(a.err_sq, b.err_sq)
    assert np.array_equal(a.w_final, b.w_final)


def test_h1_training_beats_l2_on_final_error():
    finals = {"l2": [], "h1": []}
    for seed in range(4):
        for kind in finals:
            finals[kind].append(sgd_run(cfg(seed=seed, loss_kind=kind, n_steps=800)).err_sq[-1])
    assert np.median(finals["h1"]) < np.median(finals["l2"])


def test_kappa_traces_ordered_at_matched_steps():
    for seed in range(2):
        tl = sgd_run(cfg(seed=seed, loss_kind="l2"))
        th = sgd_run(cfg(seed=seed, loss_kind="h1"))
        both = ~(np.isnan(tl.kappa) | np.isnan(th.kappa))
        assert np.all(th.kappa[both] <= tl.kappa[both] + 1e-12)


@pytest.mark.parametrize("dim,batch", [(8, 32), (1, 5)])
def test_ensemble_traces_are_the_lone_runs(dim, batch):
    # both kinds of a seed share its draws; every trace is bit for bit its lone run
    cfgs = [cfg(dim=dim, batch_size=batch, n_train=300, n_steps=90, seed=s, loss_kind=k)
            for s in (4, 0) for k in ("h1", "l2")]
    for c, trace in zip(cfgs, sgd_run(cfgs)):
        alone = sgd_run(c)
        assert np.array_equal(trace.steps, alone.steps)
        assert np.array_equal(trace.err_sq, alone.err_sq)
        assert np.array_equal(trace.kappa, alone.kappa, equal_nan=True)
        assert np.array_equal(trace.w_final, alone.w_final)
        assert np.array_equal(trace.wstar, alone.wstar)


def reference_run(cfgs):
    """SGD from the definitions, one array per quantity: the draws of
    ``sgd_run``, the minibatch X[run_seed, order[pos:pos + batch]], its
    gradient the batch means of ``_relu_grad``'s two parts, and each log's
    condition numbers from its own ``pair_geometry`` call.  Gives (steps,
    err_sq, kappa, w_final) per config, or raises ``BlowUpError``."""
    first = cfgs[0]
    seeds = list(dict.fromkeys(c.seed for c in cfgs))
    run_seed = np.array([seeds.index(c.seed) for c in cfgs])
    h1 = np.array([c.loss_kind == "h1" for c in cfgs])
    n, dim, batch = first.n_train, first.dim, first.batch_size
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = []
    for rng in rngs:
        ws = rng.standard_normal(dim)
        ws = ws / np.linalg.norm(ws)
        e = rng.standard_normal(dim)
        e = e * (sgd._INIT_RADIUS / np.linalg.norm(e))
        draws.append((ws, ws + e, rng.standard_normal((n, dim))))
    wstar, w, X = (np.array(a) for a in zip(*draws))
    wstar, w = wstar[run_seed], w[run_seed]

    def shuffles():
        return np.stack([rng.permutation(n) for rng in rngs])[run_seed]

    logs = []

    def log(step):
        with np.errstate(over="ignore"):
            err = np.sum((w - wstar) ** 2, axis=-1)
        if not np.all(np.isfinite(err)):
            raise BlowUpError(f"SGD error overflowed at step {step}", time=float(step))
        kl, kh = condition_numbers(pair_geometry(w, wstar))
        logs.append((step, err, np.where(h1, kh, kl)))

    order, pos = shuffles(), 0
    log(0)
    for step in range(1, first.n_steps + 1):
        if pos + batch > n:
            order, pos = shuffles(), 0
        x = X[run_seed[:, None], order[:, pos : pos + batch]]
        pos += batch
        with np.errstate(over="ignore", invalid="ignore"):
            g_l2, g_semi = (g.mean(axis=1)[:, 0]
                            for g in _relu_grad(x, w[:, None], wstar[:, None], ("l2", "semi")))
            w = w - first.learning_rate * np.where(h1[:, None], g_l2 + g_semi, g_l2)
        if not np.all(np.isfinite(w)):
            raise BlowUpError(f"SGD diverged at step {step}", time=float(step))
        if step % first.log_every == 0 or step == first.n_steps:
            log(step)
    steps, errs, kappas = (np.array(a) for a in zip(*logs))
    return [(steps, errs[:, r], kappas[:, r], w[r]) for r in range(len(cfgs))]


@pytest.mark.parametrize("cfgs", [
    [cfg(dim=1)],  # each part's batch mean is a pairwise sum at dim 1
    [cfg(batch_size=7, n_train=50, loss_kind="h1")],  # reshuffles mid-run, skips a remainder
    [cfg(batch_size=50, n_train=50, loss_kind="h1", n_steps=60)],
    [cfg(dim=5, batch_size=13, n_train=200, n_steps=150, seed=s, loss_kind=k)
     for s in (2, 7) for k in ("l2", "h1")],
], ids=["dim1", "reshuffle", "full-batch", "ensemble"])
def test_steps_are_the_reference_steps(cfgs):
    # bit for bit, so a logged state changed after its log shows in kappa
    for trace, (steps, err_sq, kappa, w_final) in zip(sgd_run(cfgs), reference_run(cfgs)):
        assert np.array_equal(trace.steps, steps)
        assert np.array_equal(trace.err_sq, err_sq)
        assert np.array_equal(trace.kappa, kappa, equal_nan=True)
        assert np.array_equal(trace.w_final, w_final)


@pytest.mark.parametrize("rate", [1e3, 1e50])
def test_blow_up_is_raised_at_the_reference_step(rate):
    # 1e3 overflows a logged error first, 1e50 a state between logs
    cfgs = [cfg(learning_rate=rate, loss_kind=k) for k in ("l2", "h1")]
    with pytest.raises(BlowUpError) as ref:
        reference_run(cfgs)
    with pytest.raises(BlowUpError) as got:
        sgd_run(cfgs)
    assert str(got.value) == str(ref.value)
    assert got.value.time == ref.value.time


def test_config_validation():
    with pytest.raises(ValueError, match="unknown kind 'h2'"):
        cfg(loss_kind="h2")
    with pytest.raises(ValueError):
        cfg(batch_size=5000)
    for batch in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            cfg(batch_size=batch)
    with pytest.raises(ValueError, match="dim"):
        cfg(dim=0)
    with pytest.raises(ValueError, match="n_steps"):
        cfg(n_steps=-3)
    for rate in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="learning_rate"):
            cfg(learning_rate=rate)
    for rate in (0.0, float("inf")):  # rate 0 never moves and rate inf blows up: both legal
        cfg(learning_rate=rate)
    with pytest.raises(ValueError, match="ensemble"):
        sgd_run([cfg(), cfg(seed=1, loss_kind="h1"), cfg(learning_rate=0.1)])
