import numpy as np
import pytest

from sobolev_lab.linear import (
    LinearProblem,
    conditioning,
    fit_estimators,
    variance_formulas,
    variance_study,
)


def orthogonal_design():
    # columns with squared singular values {4, 1}
    X = np.zeros((4, 2))
    X[0, 0] = 2.0
    X[1, 1] = 1.0
    return X


def test_lambda_zero_makes_estimators_coincide():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 4))
    ws = rng.standard_normal(4)
    p = LinearProblem(x_matrix=X, wstar=ws, noise_sigma=1.0, ridge_lambda=0.0)
    y = X @ ws + rng.standard_normal(30)
    w_l2, w_h1 = fit_estimators(p, y)
    assert w_l2 == pytest.approx(w_h1, abs=1e-12)


def test_noiseless_labels_recover_teacher():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((25, 3))
    ws = rng.standard_normal(3)
    p = LinearProblem(x_matrix=X, wstar=ws, noise_sigma=0.0, ridge_lambda=0.7)
    w_l2, w_h1 = fit_estimators(p, X @ ws)
    assert np.abs(w_l2 - ws).max() <= 1e-10
    assert np.abs(w_h1 - ws).max() <= 1e-10


def test_conditioning_closed_form_pair():
    p = LinearProblem(x_matrix=orthogonal_design(), wstar=np.zeros(2),
                      noise_sigma=1.0, ridge_lambda=1.0)
    kl, kh = conditioning(p)
    assert kl == pytest.approx(4.0, rel=1e-12)
    assert kh == pytest.approx(2.5, rel=1e-12)  # (4+1)/(1+1)


def test_conditioning_always_improves_for_positive_lambda():
    rng = np.random.default_rng(2)
    for _ in range(20):
        X = rng.standard_normal((40, 5))
        p = LinearProblem(x_matrix=X, wstar=np.zeros(5), noise_sigma=1.0,
                          ridge_lambda=rng.uniform(0.1, 5.0))
        kl, kh = conditioning(p)
        assert kh < kl


def test_kappa_monotone_nonincreasing_in_lambda():
    X = np.random.default_rng(3).standard_normal((50, 4))
    last = np.inf
    for lam in np.linspace(0.0, 10.0, 21):
        p = LinearProblem(x_matrix=X, wstar=np.zeros(4), noise_sigma=1.0, ridge_lambda=float(lam))
        _, kh = conditioning(p)
        assert kh <= last + 1e-12
        last = kh


def test_variance_study_matches_formulas_on_orthogonal_design():
    p = LinearProblem(x_matrix=orthogonal_design(), wstar=np.array([0.5, -1.0]),
                      noise_sigma=1.0, ridge_lambda=1.0)
    ve_l2, ve_h1, vf_l2, vf_h1 = variance_study(p, trials=10_000, seed=11)
    assert vf_l2 == pytest.approx(2.0, abs=1e-12)       # sigma^2 d
    assert vf_h1 == pytest.approx(16 / 25 + 1 / 4, abs=1e-12)  # 0.89
    assert ve_l2 == pytest.approx(vf_l2, rel=0.03)
    assert ve_h1 == pytest.approx(vf_h1, rel=0.03)
    assert ve_h1 < ve_l2


def test_zero_noise_kills_variance():
    p = LinearProblem(x_matrix=orthogonal_design(), wstar=np.array([1.0, 1.0]),
                      noise_sigma=0.0, ridge_lambda=0.5)
    ve_l2, ve_h1, vf_l2, vf_h1 = variance_study(p, trials=100, seed=0)
    assert ve_l2 == 0.0 and ve_h1 == 0.0 and vf_l2 == 0.0 and vf_h1 == 0.0


def test_sigma_factor_carried_through():
    p = LinearProblem(x_matrix=orthogonal_design(), wstar=np.zeros(2),
                      noise_sigma=2.0, ridge_lambda=1.0)
    vf_l2, vf_h1 = variance_formulas(p)
    assert vf_l2 == pytest.approx(8.0, abs=1e-12)
    assert vf_h1 == pytest.approx(4.0 * 0.89, abs=1e-12)


def test_estimators_unbiased():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 3))
    ws = rng.standard_normal(3)
    p = LinearProblem(x_matrix=X, wstar=ws, noise_sigma=1.0, ridge_lambda=1.5)
    acc_l2 = np.zeros(3)
    acc_h1 = np.zeros(3)
    trials = 10_000
    samples_l2 = []
    samples_h1 = []
    for _ in range(trials):
        y = X @ ws + rng.standard_normal(30)
        w_l2, w_h1 = fit_estimators(p, y)
        samples_l2.append(w_l2)
        samples_h1.append(w_h1)
    for samples in (samples_l2, samples_h1):
        arr = np.asarray(samples)
        se = arr.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(arr.mean(axis=0) - ws) <= 4.0 * se)


def test_singular_design_rejected():
    X = np.ones((5, 2))  # rank 1
    p = LinearProblem(x_matrix=X, wstar=np.zeros(2), noise_sigma=1.0, ridge_lambda=1.0)
    with pytest.raises(ValueError):
        conditioning(p)
    with pytest.raises(ValueError):
        fit_estimators(p, np.ones(5))


def _lambda_ensemble(lambdas, sigma, n=30, d=4):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((n, d))
    ws = rng.standard_normal(d)
    return [LinearProblem(x_matrix=X, wstar=ws, noise_sigma=sigma, ridge_lambda=lam)
            for lam in lambdas]


def test_lambda_ensemble_equals_its_lone_studies(monkeypatch):
    for sigma in (1.3, 0.0):
        probs = _lambda_ensemble([0.0, 0.5, 2.0], sigma)
        assert variance_study(probs, 50, 5) == [variance_study(p, 50, 5) for p in probs]
    # 30 design rows per trial and room for 20 trials: 50 trials take three chunks
    monkeypatch.setattr("sobolev_lab.linear._CHUNK_ENTRIES", 600)
    probs = _lambda_ensemble([0.0, 1.0], 1.0)
    assert variance_study(probs, 50, 6) == [variance_study(p, 50, 6) for p in probs]


def test_lambda_ensemble_may_differ_only_in_lambda():
    base = _lambda_ensemble([1.0], 1.0)[0]
    for other in (LinearProblem(x_matrix=2.0 * base.x_matrix, wstar=base.wstar,
                                noise_sigma=1.0, ridge_lambda=2.0),
                  LinearProblem(x_matrix=base.x_matrix, wstar=-base.wstar,
                                noise_sigma=1.0, ridge_lambda=2.0),
                  LinearProblem(x_matrix=base.x_matrix, wstar=base.wstar,
                                noise_sigma=0.5, ridge_lambda=2.0)):
        with pytest.raises(ValueError):
            variance_study([base, other], 10, 0)
    with pytest.raises(ValueError):
        variance_study([], 10, 0)
