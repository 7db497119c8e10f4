"""Acceptance suite: one test per criterion, at the criterion's stated size.

Each test measures every clause of its criterion and hands the values to
``criteria.judge``, which holds the clauses and tolerances; the judged entry
goes to the terminal reporter (one line per criterion at the end of the run).
Three criteria encode idealized claims that the exact closed-form fields
provably violate; those tests fail by design, and the assertion message
carries the failed clauses with their values and the mechanism.
"""

import math
import time

import numpy as np


from sobolev_lab import multinode as mn
from sobolev_lab import relu1, relusq
from sobolev_lab.cli import main as cli_main
from sobolev_lab.criteria import (MIN_THETA, decay_rel_dev, extreme_dev, judge,
                                  saddle_formula_dev)
from sobolev_lab.eigs import symmetric_eigs
from sobolev_lab.geometry import basin_node_pairs, basin_pairs, pair_geometry
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


def judged(crit_id, **measured):
    """Judge one criterion on the measured values, record the entry, assert it.

    Worst cases are accumulated with numpy, which carries a NaN to the judge.
    """
    entry = ACCEPTANCE_LOG[crit_id] = judge(crit_id, measured)
    assert entry["unmeasured"] == []
    assert entry["status"] == "pass", f"{entry['failed']}; {entry.get('mechanism', '')}"


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
    kappa_gap = -math.inf
    for dim, count in ((2, 334), (8, 333), (32, 333)):
        for w, ws in sample_region_pairs(rng, dim, count):
            rep = relu1.hessians(w, ws)
            theta = pair_geometry(w, ws).theta
            num_l2 = rep.spectrum_l2.lam_max / rep.spectrum_l2.lam_min
            num_h1 = rep.spectrum_h1.lam_max / rep.spectrum_h1.lam_min
            worst_rel = np.max([
                worst_rel,
                abs(num_l2 - rep.kappa_l2) / rep.kappa_l2,
                abs(num_h1 - rep.kappa_h1) / rep.kappa_h1,
            ])
            if theta > MIN_THETA:
                kappa_gap = np.maximum(kappa_gap, rep.kappa_h1 - rep.kappa_l2)
    judged("c1_condition_number_law", max_rel_err=worst_rel, max_kappa_gap=kappa_gap,
           seconds=time.time() - start)


def test_c02_hessian_spectra():
    rng = np.random.default_rng(202)
    worst = 0.0
    bulk_dev = 0.0
    for dim, count in ((2, 60), (8, 60), (32, 60)):
        for w, ws in sample_region_pairs(rng, dim, count):
            geom = pair_geometry(w, ws)
            rep = relu1.hessians(w, ws)
            cf = relu1.closed_form_eigs(geom)
            worst = np.maximum(worst, extreme_dev(rep.spectrum_l2.lam_max,
                                                  rep.spectrum_h1.lam_max))
            if dim > 2:
                # the (d-2)-th closest eigenvalue to the bulk value bounds multiplicity d-2
                for spec, kind in ((rep.spectrum_l2, "l2"), (rep.spectrum_h1, "h1")):
                    dev = np.sort(np.abs(spec.eigenvalues - cf[f"{kind}_bulk"]))[dim - 3]
                    bulk_dev = np.maximum(bulk_dev, dev)
    judged("c2_hessian_spectra", max_extreme_dev=worst, bulk_dev=bulk_dev)


def test_c03_one_step_gd():
    rng = np.random.default_rng(303)
    min_gain = math.inf
    excess = -math.inf
    for dim in (2, 8):
        ws_points, ws = basin_pairs(rng, dim, 250)
        for w in ws_points:
            c = relu1.gd_compare(w, ws, eta=1e-3).max_step_c
            rep = relu1.gd_compare(w, ws, eta=0.9 * c)
            min_gain = np.minimum(min_gain, rep.gain_f)
            excess = np.maximum(excess, rep.err_h1 - (rep.err_l2 - rep.gain_f))
    c_collinear = relu1.gd_compare(2.0 * ws, ws, eta=0.1).max_step_c
    judged("c3_one_step_gd", min_gain=min_gain, max_excess=excess,
           c_zero_angle_dev=abs(c_collinear - 4.0 / 3.0))


def test_c04_h1_flow_acceleration():
    start = time.time()
    rng = np.random.default_rng(404)
    w0, ws = basin_pairs(rng, 8, 100)
    v = {}
    for kind in ("l2", "h1"):
        v[kind] = rk4_integrate(
            lambda s, k=kind: relu1.flow_rhs(k, s, ws), w0, 1e-3, 10.0, ws, record_every=10
        ).v_values
    # the L2 side cannot reach the threshold: lambda_max(hess L) = 1/2 bounds
    # V(10) below by V(0) e^-10 (the mechanism of the judged entry)
    judged("c4_h1_flow_acceleration", ordering_excess=(v["h1"] - v["l2"]).max(),
           worst_final_v_h1=v["h1"][-1].max(), worst_final_v_l2=v["l2"][-1].max(),
           v_l2_spectral_floor=v["l2"][0].max() * math.exp(-10.0),
           seconds=time.time() - start)


def test_c05_flow_quadratic_forms():
    worst_lam = 0.0
    min_m, min_n, max_n5 = math.inf, math.inf, -math.inf
    for theta in np.linspace(0.0, math.pi / 2, 1000, endpoint=False):
        m1, m2, lam = relu1.flow_quadratic_forms(float(theta))
        worst_lam = np.maximum(worst_lam, abs(lam - symmetric_eigs(m2).lam_min))
        min_m = np.min([min_m, symmetric_eigs(m1).lam_min, symmetric_eigs(m2).lam_min])
        n1, n2, n3, n4, n5 = relu1.gd_quadratic_forms(float(theta))
        min_n = np.min([min_n, *(symmetric_eigs(m).lam_min for m in (n1, n2, n3, n4))])
        max_n5 = np.maximum(max_n5, symmetric_eigs(n5).lam_max)
    judged("c5_flow_quadratic_forms", max_lambda_dev=worst_lam, min_m_eig=min_m,
           min_n14_eig=min_n, max_n5_eig=max_n5)


def test_c06_relusq_descent():
    rng = np.random.default_rng(606)
    pts, ws = basin_pairs(rng, 4, 1000)
    worst_ip = -math.inf
    for w in pts:
        b = relusq.h2_gradients(w, ws)
        e = w - ws
        worst_ip = np.max([worst_ip, -(e @ b.grad_i1), -(e @ b.grad_i2), -(e @ b.grad_i3)])
    w0, ws2 = basin_pairs(rng, 4, 100, rmin=0.1, rmax=0.7)
    tr_h2 = rk4_integrate(relusq.h2_flow_field(ws2), w0, 1e-3, 3.0, ws2, record_every=20)
    tr_i1 = rk4_integrate(relusq.h2_flow_field(ws2, ("i1",)), w0, 1e-3, 3.0, ws2, record_every=20)
    judged("c6_relusq_descent", worst_inner_product=worst_ip,
           h2_excess=(tr_h2.v_values - tr_i1.v_values).max())


def test_c07_multinode_dynamics():
    rng = np.random.default_rng(707)
    saddle_dev = 0.0
    field_dev = 0.0
    decay_dev = 0.0
    for k in (2, 4, 8):
        x_l2, x_h1 = mn.saddle_points(k)
        saddle_dev = np.maximum(saddle_dev, saddle_formula_dev(k, x_l2, x_h1))
        f_l2 = mn.reduced_field("l2", mn.ReducedState(x=x_l2, y=x_l2, k=k))
        f_h1 = mn.reduced_field("h1", mn.ReducedState(x=x_h1, y=x_h1, k=k))
        field_dev = np.max([field_dev, *np.abs(f_l2), *np.abs(f_h1)])
        decay_dev = np.maximum(decay_dev, decay_rel_dev(
            k,
            mn.diagonal_decay("l2", k, 0.95, t_end=min(30.0 / k, 12.0)).exponent,
            mn.diagonal_decay("h1", k, 0.95, t_end=min(15.0 / k, 6.0)).exponent,
        ))

    x0 = rng.uniform(0.15, 1.0, size=100)
    y0 = np.array([rng.uniform(0.0, max(x - 0.05, 0.0)) for x in x0])
    trace = rk4_integrate(mn.reduced_flow_field("h1", 2), np.stack([x0, y0], axis=1),
                          1e-3, 60.0, np.array([1.0, 0.0]), record_every=1000)

    ratios = {}
    for k in (2, 4, 8):
        angs = rng.uniform(0.15, math.pi / 2 - 0.15, size=20)
        near = np.stack([1.0 - 1e-3 * np.cos(angs), 1e-3 * np.sin(angs)], axis=1)
        t_l2 = mn.times_to_threshold("l2", k, near, 1e-4)
        t_h1 = mn.times_to_threshold("h1", k, near, 1e-4)
        ratios[k] = float(np.median(t_l2 / t_h1))

    judged("c7_multinode_dynamics", saddle_formula_dev=saddle_dev, saddle_field_dev=field_dev,
           decay_rel_dev=decay_dev, max_final_dist=np.sqrt(trace.v_values[-1]).max(),
           time_ratio_range=[np.min(list(ratios.values())), np.max(list(ratios.values()))],
           time_ratios=ratios)


def test_c08_toeplitz_linearization():
    eig_devs = {}
    worst_2x = 0.0
    for k in (3, 5, 8):
        jacs = {kind: mn.toeplitz_jacobian(kind, k) for kind in ("l2", "h1")}
        eigs = np.sort(np.linalg.eigvals(-jacs["l2"]).real)
        _, expected = mn.toeplitz_linearization(k)
        eig_devs[k] = float(np.abs(eigs - np.sort(expected)).max())
        worst_2x = np.maximum(worst_2x, np.abs(jacs["h1"] - 2.0 * jacs["l2"]).max())
    judged("c8_toeplitz_linearization", worst_eig_dev=np.max(list(eig_devs.values())),
           h1_vs_2l2_maxdiff=worst_2x, eig_dev_by_k=eig_devs)


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
    mse_rise = -math.inf
    for model, kind in forms:
        for dim in dims:
            rows = convergence_study(model, kind, [dim], n_grid,
                                     trials=trials_for(model, kind, dim), seed=909)
            cells = sorted((n, mse) for _, n, mse in rows)
            slopes[f"{model}:{kind}:d{dim}"] = fit_loglog_slope(np.array([n for n, _ in cells]),
                                                                np.array([m for _, m in cells]))
            mse_rise = np.maximum(mse_rise, cells[-1][1] - cells[0][1])

    # pointwise agreement at N = 1e6, in standard errors, every closed form
    rng = np.random.default_rng(910)
    worst_z = 0.0
    for model, kind in forms:
        for dim in dims:
            cfg = McConfig(n_samples=10**6, seed=int(rng.integers(2**62)), dim=dim)
            if model == "multinode":
                w, ws = basin_node_pairs(rng, dim, 0.2, 0.8)
                est = mc_multinode_grad(w, ws, kind, cfg)
            else:
                ws = rng.standard_normal(dim)
                e = rng.standard_normal(dim)
                e *= rng.uniform(0.2, 0.8) * np.linalg.norm(ws) / np.linalg.norm(e)
                w = ws + e
                est = mc_loss_and_grad(model, kind, w, ws, cfg)
            closed = closed_form_grad(model, kind, w, ws)
            z = float(np.max(np.abs(est.mean - closed) / est.std_error))
            worst_z = np.maximum(worst_z, z)
    judged("c9_mc_verification",
           slope_range=[np.min(list(slopes.values())), np.max(list(slopes.values()))],
           max_mse_rise=mse_rise, worst_z=worst_z, seconds=time.time() - start, slopes=slopes)


def test_c10_empirical_sgd():
    start = time.time()
    finals = {"l2": [], "h1": []}
    kappa_excess = -math.inf
    for seed in range(12):
        traces = {}
        for kind in ("l2", "h1"):
            traces[kind] = sgd_run(
                SgdConfig(dim=16, batch_size=64, n_train=10_000, learning_rate=1e-2,
                          n_steps=3000, seed=seed, loss_kind=kind, log_every=20)
            )
            finals[kind].append(traces[kind].err_sq[-1])
        both = ~(np.isnan(traces["l2"].kappa) | np.isnan(traces["h1"].kappa))
        gap = traces["h1"].kappa[both] - traces["l2"].kappa[both]
        kappa_excess = np.maximum(kappa_excess, gap.max())
    med_l2 = float(np.median(finals["l2"]))
    med_h1 = float(np.median(finals["h1"]))
    judged("c10_empirical_sgd", median_gap=med_h1 - med_l2, kappa_excess=kappa_excess,
           seconds=time.time() - start, median_final_l2=med_l2, median_final_h1=med_h1)


def test_c11_linear_model():
    from sobolev_lab.linear import LinearProblem, conditioning, variance_study

    rng = np.random.default_rng(111)
    worst_rel = 0.0
    kappa_gap = var_gap = -math.inf
    for rep in range(3):
        X = rng.standard_normal((200, 8))
        ws = rng.standard_normal(8)
        for lam in (0.5, 1.0, 2.0):
            p = LinearProblem(x_matrix=X, wstar=ws, noise_sigma=1.0, ridge_lambda=lam)
            kl, kh = conditioning(p)
            ve_l2, ve_h1, vf_l2, vf_h1 = variance_study(p, trials=10_000, seed=112 + rep)
            worst_rel = np.max([worst_rel, abs(ve_l2 - vf_l2) / vf_l2, abs(ve_h1 - vf_h1) / vf_h1])
            kappa_gap = np.maximum(kappa_gap, kh - kl)
            var_gap = np.maximum(var_gap, ve_h1 - ve_l2)
    judged("c11_linear_model", max_kappa_gap=kappa_gap, max_var_gap=var_gap,
           worst_rel_var_err=worst_rel)


def test_c12_chebyshev_diff():
    from sobolev_lab.chebdiff import cheb_diff_matrix, cheb_points

    worst_ratio = 0.0
    for n in range(1, 21):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        worst = 0.0
        for k in range(n + 1):
            expected = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            worst = np.maximum(worst, np.abs(d @ x**k - expected).max())
        worst_ratio = np.maximum(worst_ratio, worst / (n * n))
    exact_n1 = bool(np.array_equal(cheb_diff_matrix(1), np.array([[0.5, -0.5], [0.5, -0.5]])))
    judged("c12_chebyshev_diff", worst_err_over_n2=worst_ratio, n1_exact=exact_n1)


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

    judged("c13_determinism", landscape_identical=same_land, convergence_identical=same_grad,
           flow_identical=same_flow)
