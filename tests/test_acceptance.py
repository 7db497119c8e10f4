"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Each test registers its measured values with the terminal reporter (one
pass/fail line per criterion at the end of the run) and then asserts every
clause of its criterion.  Three clauses encode idealized claims that the
exact closed-form fields provably violate; those tests fail by design and
the assertion messages carry the measured values and the exact mechanism.
"""

import math
import time

import numpy as np


from sobolev_lab import multinode as mn
from sobolev_lab import relu1, relusq
from sobolev_lab.cli import main as cli_main
from sobolev_lab.eigs import symmetric_eigs
from sobolev_lab.geometry import basin_pairs, pair_geometry
from sobolev_lab.mc import (
    McConfig,
    closed_form_grad,
    convergence_study,
    fit_loglog_slope,
    mc_loss_and_grad,
    mc_multinode_grad,
)
from sobolev_lab.ode import rk4_integrate
from sobolev_lab.sgd import SgdConfig, sgd_run

from conftest import ACCEPTANCE_LOG

TWO_PI = 2.0 * math.pi


def report(crit_id, test_name, title, **measured):
    ACCEPTANCE_LOG[crit_id] = {"test": test_name, "title": title, "measured": measured}


def sample_region_pairs(rng, dim, count, cap=0.999 * math.pi / 2):
    """Pairs with |w*| sin(theta) / |w| below the convexity threshold."""
    out = []
    while len(out) < count:
        ws = rng.standard_normal(dim)
        ws *= rng.uniform(0.5, 2.0) / np.linalg.norm(ws)
        w = rng.standard_normal(dim)
        w *= rng.uniform(0.3, 2.5) / np.linalg.norm(w)
        g = pair_geometry(w, ws)
        if g.sin_theta == 0.0:
            continue
        if g.norm_wstar * g.sin_theta / g.norm_w < cap:
            out.append((w, ws))
    return out


def test_c01_condition_number_law():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    ordering_ok = True
    for dim, count in ((2, 334), (8, 333), (32, 333)):
        for w, ws in sample_region_pairs(rng, dim, count):
            rep = relu1.hessians(w, ws)
            theta = pair_geometry(w, ws).theta
            num_l2 = rep.spectrum_l2.lam_max / rep.spectrum_l2.lam_min
            num_h1 = rep.spectrum_h1.lam_max / rep.spectrum_h1.lam_min
            worst_rel = max(
                worst_rel,
                abs(num_l2 - rep.kappa_l2) / rep.kappa_l2,
                abs(num_h1 - rep.kappa_h1) / rep.kappa_h1,
            )
            if theta > 1e-6 and not rep.kappa_h1 < rep.kappa_l2:
                ordering_ok = False
    elapsed = time.time() - start
    report(
        "c01", "test_c01_condition_number_law",
        "condition-number formulas vs numeric eigendecomposition (1000 pairs, d in {2,8,32})",
        max_rel_err=worst_rel, ordering_strict=ordering_ok, seconds=round(elapsed, 2),
    )
    assert worst_rel <= 1e-8
    assert ordering_ok
    assert elapsed < 10.0


def test_c02_hessian_spectra():
    rng = np.random.default_rng(202)
    worst = 0.0
    for dim, count in ((2, 60), (8, 60), (32, 60)):
        for w, ws in sample_region_pairs(rng, dim, count):
            geom = pair_geometry(w, ws)
            rep = relu1.hessians(w, ws)
            cf = relu1.closed_form_eigs(geom)
            worst = max(worst, abs(rep.spectrum_l2.lam_max - 0.5))
            worst = max(worst, abs(rep.spectrum_h1.lam_max - 1.0))
            if dim > 2:
                bulk_l = np.sum(np.abs(rep.spectrum_l2.eigenvalues - cf["l2_bulk"]) <= 1e-9)
                bulk_h = np.sum(np.abs(rep.spectrum_h1.eigenvalues - cf["h1_bulk"]) <= 1e-9)
                assert bulk_l >= dim - 2
                assert bulk_h >= dim - 2
    report(
        "c02", "test_c02_hessian_spectra",
        "numeric lambda_max = 1/2 resp. 1, bulk eigenvalues with multiplicity d-2",
        max_extreme_dev=worst,
    )
    assert worst <= 1e-9


def test_c03_one_step_gd():
    rng = np.random.default_rng(303)
    min_gain = math.inf
    ok = True
    for dim in (2, 8):
        ws_points, ws = basin_pairs(rng, dim, 250)
        for w in ws_points:
            c = relu1.gd_compare(w, ws, eta=1e-3).max_step_c
            rep = relu1.gd_compare(w, ws, eta=0.9 * c)
            min_gain = min(min_gain, rep.gain_f)
            ok &= rep.gain_f > 0.0 and rep.err_h1 <= rep.err_l2 - rep.gain_f + 1e-15
    c_collinear = relu1.gd_compare(2.0 * ws, ws, eta=0.1).max_step_c
    report(
        "c03", "test_c03_one_step_gd",
        "single GD step: err_h1 <= err_l2 - F with F > 0 at eta = 0.9 C; C(theta=0) = 4/3",
        min_gain=min_gain, c_at_zero_angle=c_collinear,
    )
    assert ok
    assert abs(c_collinear - 4.0 / 3.0) <= 1e-12


def test_c04_h1_flow_acceleration():
    start = time.time()
    rng = np.random.default_rng(404)
    w0, ws = basin_pairs(rng, 8, 100)
    traces = {}
    for kind in ("l2", "h1"):
        traces[kind] = rk4_integrate(
            lambda s, k=kind: relu1.flow_rhs(k, s, ws), w0, 1e-3, 10.0, ws, record_every=10
        )
    ordering = bool(np.all(traces["h1"].v_values <= traces["l2"].v_values + 1e-15))
    final_l2 = float(traces["l2"].v_values[-1].max())
    final_h1 = float(traces["h1"].v_values[-1].max())
    elapsed = time.time() - start
    report(
        "c04", "test_c04_h1_flow_acceleration",
        "V_h1(t) <= V_l2(t) on the grid; both reach V < 1e-8 by t = 10",
        ordering_holds=ordering, worst_final_v_l2=final_l2, worst_final_v_h1=final_h1,
        seconds=round(elapsed, 2),
    )
    assert elapsed < 30.0
    assert ordering
    # Unattainable for the value-loss flow: lambda_max(hess L) = 1/2 everywhere,
    # so V(t) >= V(0) e^{-t} and V(10) >= V(0) * 4.5e-5 -- far above 1e-8 for
    # generic basin starts.  The H1 side passes; the L2 side cannot.
    assert final_h1 < 1e-8, f"H1 flow final V = {final_h1:.3e}"
    assert final_l2 < 1e-8, (
        f"L2 flow final V = {final_l2:.3e}: bounded below by V0 e^-10 ~ "
        f"{float(traces['l2'].v_values[0].max()) * math.exp(-10):.3e} by the spectral bound"
    )


def test_c05_flow_quadratic_forms():
    worst_lam = 0.0
    psd_ok = True
    sign_ok = True
    for theta in np.linspace(0.0, math.pi / 2, 1000, endpoint=False):
        m1, m2, lam = relu1.flow_quadratic_forms(float(theta))
        worst_lam = max(worst_lam, abs(lam - symmetric_eigs(m2).lam_min))
        psd_ok &= symmetric_eigs(m1).lam_min >= -1e-10
        psd_ok &= symmetric_eigs(m2).lam_min >= -1e-10
        n1, n2, n3, n4, n5 = relu1.gd_quadratic_forms(float(theta))
        for m in (n1, n2, n3, n4):
            sign_ok &= symmetric_eigs(m).lam_min >= -1e-10
        sign_ok &= symmetric_eigs(n5).lam_max <= 1e-10
    report(
        "c05", "test_c05_flow_quadratic_forms",
        "lambda(theta) = lambda_min(M2) to 1e-10; M1, M2 PSD; N1..N4 PSD, N5 NSD",
        max_lambda_dev=worst_lam, psd_ok=psd_ok, n_sign_ok=sign_ok,
    )
    assert worst_lam <= 1e-10
    assert psd_ok
    assert sign_ok


def test_c06_relusq_descent():
    rng = np.random.default_rng(606)
    pts, ws = basin_pairs(rng, 4, 1000)
    worst_ip = -math.inf
    for w in pts:
        b = relusq.h2_gradients(w, ws)
        e = w - ws
        worst_ip = max(worst_ip, -float(e @ b.grad_i1), -float(e @ b.grad_i2), -float(e @ b.grad_i3))
    w0, ws2 = basin_pairs(rng, 4, 100, rmin=0.1, rmax=0.7)
    tr_h2 = rk4_integrate(relusq.h2_flow_field(ws2), w0, 1e-3, 3.0, ws2, record_every=20)
    tr_i1 = rk4_integrate(relusq.h2_flow_field(ws2, ("i1",)), w0, 1e-3, 3.0, ws2, record_every=20)
    below = bool(np.all(tr_h2.v_values <= tr_i1.v_values + 1e-15))
    report(
        "c06", "test_c06_relusq_descent",
        "second-order descent inner products < 0; full flow stays below value-only flow",
        worst_inner_product=worst_ip, h2_below_i1=below,
    )
    assert worst_ip < 0.0
    assert below


def test_c07_multinode_dynamics():
    rng = np.random.default_rng(707)
    saddle_dev = 0.0
    field_dev = 0.0
    decay_devs = {}
    for k in (2, 4, 8):
        x_l2, x_h1 = mn.saddle_points(k)
        t0 = math.acos(1.0 / math.sqrt(k))
        saddle_dev = max(
            saddle_dev,
            abs(x_l2 - (math.sqrt(k - 1.0) - t0 + math.pi) / (math.pi * k)),
            abs(x_h1 - (math.sqrt(k - 1.0) + TWO_PI - 2.0 * t0) / (TWO_PI * k)),
        )
        f_l2 = mn.reduced_field("l2", mn.ReducedState(x=x_l2, y=x_l2, k=k))
        f_h1 = mn.reduced_field("h1", mn.ReducedState(x=x_h1, y=x_h1, k=k))
        field_dev = max(field_dev, abs(f_l2[0]), abs(f_l2[1]), abs(f_h1[0]), abs(f_h1[1]))
        decay_devs[k] = (
            mn.diagonal_decay("l2", k, 0.95, t_end=min(30.0 / k, 12.0)).exponent,
            mn.diagonal_decay("h1", k, 0.95, t_end=min(15.0 / k, 6.0)).exponent,
        )

    x0 = rng.uniform(0.15, 1.0, size=100)
    y0 = np.array([rng.uniform(0.0, max(x - 0.05, 0.0)) for x in x0])
    trace = rk4_integrate(mn.reduced_flow_field("h1", 2), np.stack([x0, y0], axis=1),
                          1e-3, 60.0, np.array([1.0, 0.0]), record_every=1000)
    worst_final = float(np.sqrt(trace.v_values[-1]).max())

    ratios = {}
    for k in (2, 4, 8):
        angs = rng.uniform(0.15, math.pi / 2 - 0.15, size=20)
        near = np.stack([1.0 - 1e-3 * np.cos(angs), 1e-3 * np.sin(angs)], axis=1)
        t_l2 = mn.times_to_threshold("l2", k, near, 1e-4)
        t_h1 = mn.times_to_threshold("h1", k, near, 1e-4)
        ratios[k] = float(np.median(t_l2 / t_h1))

    report(
        "c07", "test_c07_multinode_dynamics",
        "planar flow: convergence, near-fixed-point time ratio, diagonal rates, saddles",
        saddle_formula_dev=saddle_dev, saddle_field_dev=field_dev,
        worst_final_dist=worst_final, decay_exponents=decay_devs, time_ratios=ratios,
    )
    assert saddle_dev <= 1e-9
    assert field_dev <= 1e-10
    for k, (e_l2, e_h1) in decay_devs.items():
        assert abs(e_l2 + k / 2.0) <= 0.02 * (k / 2.0)
        assert abs(e_h1 + float(k)) <= 0.02 * k
    assert worst_final < 1e-6
    # Unattainable as stated: the exact planar Jacobians are -(M3 + E) and
    # -(2 M3 + E') with E, E' = O(1/2pi) sine-sum couplings the idealized
    # linearization drops, so the slow-mode ratio sits near 1.6 (K=2),
    # decreasing with K -- outside [1.8, 2.2].
    for k, r in ratios.items():
        assert 1.8 <= r <= 2.2, f"time-to-1e-4 ratio at K={k} measured {r:.3f}"


def test_c08_toeplitz_linearization():
    results = {}
    worst_eig = 0.0
    worst_2x = 0.0
    for k in (3, 5, 8):
        jacs = {kind: mn.toeplitz_jacobian(kind, k, 1e-6) for kind in ("l2", "h1")}
        eigs = np.sort(np.linalg.eigvals(-jacs["l2"]).real)
        _, expected = mn.toeplitz_linearization(k)
        dev = float(np.abs(eigs - np.sort(expected)).max())
        diff2 = float(np.abs(jacs["h1"] - 2.0 * jacs["l2"]).max())
        results[k] = {"eigs": [round(float(v), 6) for v in eigs], "eig_dev": round(dev, 6),
                      "h1_vs_2l2": round(diff2, 6)}
        worst_eig = max(worst_eig, dev)
        worst_2x = max(worst_2x, diff2)
    report(
        "c08", "test_c08_toeplitz_linearization",
        "cyclic-field Jacobian eigenvalues {(K+1)/4, 1/4 x (K-1)}; H1 Jacobian = 2x L2",
        per_k=results,
    )
    # Unattainable as stated: the exact Jacobian is -(M + E) with
    # E[0,0] = (K-1)/(2 pi) and one extra 1/(2 pi) coupling per later row;
    # E is real (the sine sums scale only with the student norms), so the
    # idealized spectrum and the 2x relation are off by O(1/2pi).
    assert worst_eig <= 1e-6, f"eigenvalue deviations up to {worst_eig:.3f}: {results}"
    assert worst_2x <= 1e-6, f"H1 vs 2x L2 Jacobian differs by {worst_2x:.3f}"


def test_c09_mc_verification():
    start = time.time()
    forms = [
        ("relu", "l2"),
        ("relu", "h1_semi"),
        ("relu_sq", "i1"),
        ("relu_sq", "i2"),
        ("relu_sq", "i3"),
        ("multinode", "l2"),
    ]
    dims = (4, 16, 64)
    n_grid = [2**p for p in range(10, 18)]
    # Per-cell MSEs fluctuate like chi^2 with `eff_dof * trials` degrees of
    # freedom.  The seminorm and Hessian-mismatch per-sample gradients take
    # values in span{w, w*}, so their eff_dof is 2 regardless of dimension;
    # the x-valued estimators get eff_dof ~ dim.  Choose trials so the
    # fitted slope's standard error stays near 0.045 everywhere.
    def trials_for(model, kind, dim):
        eff = 2 if kind in ("h1_semi", "i3") else dim
        return max(3, math.ceil(50 / eff))

    slopes = {}
    for model, kind in forms:
        for dim in dims:
            rows = convergence_study(model, kind, [dim], n_grid,
                                     trials=trials_for(model, kind, dim), seed=909)
            cells = sorted((n, mse) for _, n, mse in rows)
            slope = fit_loglog_slope(np.array([n for n, _ in cells]),
                                     np.array([m for _, m in cells]))
            slopes[f"{model}:{kind}:d{dim}"] = round(slope, 3)
            assert cells[-1][1] < cells[0][1]

    # pointwise agreement at N = 1e6, 4 standard errors, every closed form
    rng = np.random.default_rng(910)
    worst_z = 0.0
    for model, kind in forms:
        for dim in dims:
            cfg = McConfig(n_samples=10**6, seed=int(rng.integers(2**62)), dim=dim)
            if model == "multinode":
                Wstar = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:2].copy()
                E = rng.standard_normal((2, dim))
                E *= (rng.uniform(0.2, 0.8, size=2) / np.linalg.norm(E, axis=1))[:, None]
                W = Wstar + E
                est = mc_multinode_grad(W, Wstar, kind, cfg)
                closed = -mn.multinode_gradients(W, Wstar, kind)
            else:
                ws = rng.standard_normal(dim)
                e = rng.standard_normal(dim)
                e *= rng.uniform(0.2, 0.8) * np.linalg.norm(ws) / np.linalg.norm(e)
                w = ws + e
                est = mc_loss_and_grad(model, kind, w, ws, cfg)
                closed = closed_form_grad(model, kind, w, ws)
            z = float(np.abs(est.mean - closed).max() / max(est.std_error.min(), 1e-300))
            z = float(np.max(np.abs(est.mean - closed) / est.std_error))
            worst_z = max(worst_z, z)
    elapsed = time.time() - start
    report(
        "c09", "test_c09_mc_verification",
        "log-log MSE slopes in [-1.2, -0.8] over N = 2^10..2^17; pointwise within 4 SE at N = 1e6",
        slopes=slopes, worst_z=round(worst_z, 2), seconds=round(elapsed, 1),
    )
    for key, slope in slopes.items():
        assert -1.2 <= slope <= -0.8, f"{key}: slope {slope}"
    assert worst_z <= 4.0
    assert elapsed < 300.0


def test_c10_empirical_sgd():
    start = time.time()
    finals = {"l2": [], "h1": []}
    kappa_ordered = True
    for seed in range(12):
        traces = {}
        for kind in ("l2", "h1"):
            traces[kind] = sgd_run(
                SgdConfig(dim=16, batch_size=64, n_train=10_000, learning_rate=1e-2,
                          n_steps=3000, seed=seed, loss_kind=kind, log_every=20)
            )
            finals[kind].append(traces[kind].err_sq[-1])
        both = ~(np.isnan(traces["l2"].kappa) | np.isnan(traces["h1"].kappa))
        if not np.all(traces["h1"].kappa[both] <= traces["l2"].kappa[both] + 1e-12):
            kappa_ordered = False
    med_l2 = float(np.median(finals["l2"]))
    med_h1 = float(np.median(finals["h1"]))
    elapsed = time.time() - start
    report(
        "c10", "test_c10_empirical_sgd",
        "12-seed SGD: median final err_sq strictly smaller under H1; kappa traces ordered",
        median_final_l2=med_l2, median_final_h1=med_h1, kappa_ordered=kappa_ordered,
        seconds=round(elapsed, 1),
    )
    assert med_h1 < med_l2
    assert kappa_ordered
    assert elapsed < 120.0


def test_c11_linear_model():
    from sobolev_lab.linear import LinearProblem, conditioning, variance_study

    rng = np.random.default_rng(111)
    worst_rel = 0.0
    ok = True
    for rep in range(3):
        X = rng.standard_normal((200, 8))
        ws = rng.standard_normal(8)
        for lam in (0.5, 1.0, 2.0):
            p = LinearProblem(x_matrix=X, wstar=ws, noise_sigma=1.0, ridge_lambda=lam)
            kl, kh = conditioning(p)
            ok &= kh < kl
            ve_l2, ve_h1, vf_l2, vf_h1 = variance_study(p, trials=10_000, seed=112 + rep)
            worst_rel = max(worst_rel, abs(ve_l2 - vf_l2) / vf_l2, abs(ve_h1 - vf_h1) / vf_h1)
            ok &= ve_h1 < ve_l2
    report(
        "c11", "test_c11_linear_model",
        "ridge conditioning improves; empirical variances match formulas within 3%",
        worst_rel_var_err=worst_rel, orderings_ok=ok,
    )
    assert ok
    assert worst_rel <= 0.03


def test_c12_chebyshev_diff():
    from sobolev_lab.chebdiff import cheb_diff_matrix, cheb_points

    worst_ratio = 0.0
    for n in range(1, 21):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        worst = 0.0
        for k in range(n + 1):
            expected = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            worst = max(worst, float(np.abs(d @ x**k - expected).max()))
        worst_ratio = max(worst_ratio, worst / (1e-10 * n * n))
        assert worst <= 1e-10 * n * n
    exact_n1 = bool(np.array_equal(cheb_diff_matrix(1), np.array([[0.5, -0.5], [0.5, -0.5]])))
    report(
        "c12", "test_c12_chebyshev_diff",
        "differentiation matrix exact on monomials k <= n <= 20; n = 1 matrix exact",
        worst_err_over_tol=worst_ratio, n1_exact=exact_n1,
    )
    assert exact_n1


def test_c13_determinism(tmp_path):
    a, b, c = (tmp_path / x for x in ("a", "b", "c"))
    land = ["landscape", "--dim", "4", "--theta-grid", "24"]
    assert cli_main(land + ["--out-dir", str(a)]) == 0
    assert cli_main(land + ["--out-dir", str(b)]) == 0
    same_land = (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()

    grad = ["verify-gradients", "--dims", "4,16", "--n-min", "10", "--n-max", "12",
            "--trials", "2", "--forms", "relu:h1"]
    assert cli_main(grad + ["--out-dir", str(a), "--threads", "1"]) == 0
    assert cli_main(grad + ["--out-dir", str(c), "--threads", "4"]) == 0
    same_grad = (a / "convergence.csv").read_bytes() == (c / "convergence.csv").read_bytes()

    flow = ["flow", "--kind", "both", "--dim", "4", "--inits", "6", "--t-end", "2",
            "--record-every", "100"]
    assert cli_main(flow + ["--out-dir", str(b)]) == 0
    assert cli_main(flow + ["--out-dir", str(c)]) == 0
    same_flow = (b / "flow.csv").read_bytes() == (c / "flow.csv").read_bytes()

    report(
        "c13", "test_c13_determinism",
        "re-running subcommands yields byte-identical CSV bodies, any thread count",
        landscape_identical=same_land, convergence_identical=same_grad,
        flow_identical=same_flow,
    )
    assert same_land and same_grad and same_flow
