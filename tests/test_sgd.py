import numpy as np
import pytest

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
