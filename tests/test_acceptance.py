"""Acceptance suite: one test per criterion, at the criterion's stated size.

Each test measures every clause of its criterion and hands the values to
``criteria.judge``, which holds the clauses and tolerances; the judged entry
goes to the terminal reporter (one line per criterion at the end of the run).
Every value a CSV carries is measured by the ``cli._measure_c*`` that
``summarize`` runs.  Where one subcommand run reproduces a criterion's
experiment (c4 ``flow``, c6 ``relusq``, c7 ``multinode``, c8 ``toeplitz``,
c10 ``sgd``, c12 ``chebyshev``), the test runs it through the CLI and takes
the values ``summarize`` measures from its CSVs.  c1, c2, c3, c9 and c11
draw their own samples at the criterion's size, build from them the columns
their subcommand writes (``landscape.csv``, ``gd_compare.csv``,
``convergence.csv``, ``linear.csv``) and hand those to the same extraction.
A test adds only what no CSV carries (``seconds``, c2's ``bulk_dev``, c3's
``c_zero_angle_dev``, c9's ``worst_z``, c12's ``n1_exact``); c5 and c13 are
measured here alone.  Three criteria encode idealized claims that
the exact closed-form fields provably violate; those tests fail by design,
and the assertion message carries the failed clauses with their values and
the mechanism.
"""

import math
import time

import numpy as np


from sobolev_lab import cli, relu1
from sobolev_lab.chebdiff import cheb_diff_matrix
from sobolev_lab.criteria import judge
from sobolev_lab.eigs import symmetric_eigs
from sobolev_lab.geometry import basin_node_pairs, basin_pairs, pair_geometry
from sobolev_lab.linear import LinearProblem, conditioning, variance_study
from sobolev_lab.mc import (
    McConfig,
    _convergence_tables,
    _persample,
    _reduce_cells,
    closed_form_grad,
)

from conftest import ACCEPTANCE_LOG


def judged(crit_id, **measured):
    """Judge one criterion on the measured values, record the entry, assert it.

    Worst cases are accumulated with numpy, which carries a NaN to the judge.
    """
    entry = ACCEPTANCE_LOG[crit_id] = judge(crit_id, measured)
    assert entry["unmeasured"] == []
    assert entry["status"] == "pass", f"{entry['failed']}; {entry.get('mechanism', '')}"


def measured_by_cli(out_dir, crit_id, *argv):
    """Run one subcommand into ``out_dir``; the values ``summarize`` measures for ``crit_id``."""
    assert cli.main([*argv, "--out-dir", str(out_dir)]) == 0
    return cli.summarize(out_dir)["criteria"][crit_id]["measured"]


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


def columns(header, rows):
    """A CSV's columns by name, as ``summarize`` reads them, from its rows."""
    return dict(zip(header, np.array(rows, dtype=float).T))


# the landscape.csv columns c1 and c2 read
LANDSCAPE = ("theta", "kappa_l2", "kappa_h1", "lam_min_l2", "lam_min_h1", "lam_max_l2",
             "lam_max_h1")


def landscape_row(rep):
    """The ``LANDSCAPE`` row of a one-pair ``relu1.hessians`` report."""
    return (rep.geometry.theta, rep.kappa_l2, rep.kappa_h1, rep.spectrum_l2.lam_min,
            rep.spectrum_h1.lam_min, rep.spectrum_l2.lam_max, rep.spectrum_h1.lam_max)


def test_c01_condition_number_law():
    start = time.time()
    rng = np.random.default_rng(101)
    # each pair has its own teacher, so each is its own hessians call
    rows = [landscape_row(relu1.hessians(w, ws))
            for dim, count in ((2, 334), (8, 333), (32, 333))
            for w, ws in sample_region_pairs(rng, dim, count)]
    judged("c1_condition_number_law", **cli._measure_c1(columns(LANDSCAPE, rows)),
           seconds=time.time() - start)


def test_c02_hessian_spectra():
    rng = np.random.default_rng(202)
    rows = []
    bulk_dev = 0.0
    for dim, count in ((2, 60), (8, 60), (32, 60)):
        for w, ws in sample_region_pairs(rng, dim, count):
            rep = relu1.hessians(w, ws)
            rows.append(landscape_row(rep))
            if dim > 2:
                # the (d-2)-th closest eigenvalue to the bulk value bounds multiplicity d-2
                cf = relu1.closed_form_eigs(rep.geometry)
                for spec, kind in ((rep.spectrum_l2, "l2"), (rep.spectrum_h1, "h1")):
                    dev = np.sort(np.abs(spec.eigenvalues - cf[f"{kind}_bulk"]))[dim - 3]
                    bulk_dev = np.maximum(bulk_dev, dev)
    judged("c2_hessian_spectra", **cli._measure_c2(columns(LANDSCAPE, rows)), bulk_dev=bulk_dev)


def test_c03_one_step_gd():
    rng = np.random.default_rng(303)
    reps = []
    for dim in (2, 8):
        points, ws = basin_pairs(rng, dim, 250)
        # each point steps 0.9 times its own bound C
        reps.append(relu1.gd_compare(points, ws, 0.9, relative=True))
    cols = {f: np.concatenate([getattr(rep, f) for rep in reps])
            for f in ("err_l2", "err_h1", "gain_f")}
    c_collinear = relu1.gd_compare(2.0 * ws, ws, eta=0.1).max_step_c
    judged("c3_one_step_gd", **cli._measure_c3(cols),
           c_zero_angle_dev=abs(c_collinear - 4.0 / 3.0))


def test_c04_h1_flow_acceleration(tmp_path):
    start = time.time()
    measured = measured_by_cli(tmp_path, "c4_h1_flow_acceleration", "flow", "--seed", "404")
    judged("c4_h1_flow_acceleration", **measured, seconds=time.time() - start)


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


def test_c06_relusq_descent(tmp_path):
    measured = measured_by_cli(tmp_path, "c6_relusq_descent",
                               "relusq", "--seed", "606", "--t-end", "3")
    judged("c6_relusq_descent", **measured)


def test_c07_multinode_dynamics(tmp_path):
    measured = measured_by_cli(tmp_path, "c7_multinode_dynamics", "multinode", "--seed", "707")
    judged("c7_multinode_dynamics", **measured)


def test_c08_toeplitz_linearization(tmp_path):
    measured = measured_by_cli(tmp_path, "c8_toeplitz_linearization", "toeplitz")
    judged("c8_toeplitz_linearization", **measured)


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

    # one shared-draw pass per (dim, trial count): the forms of a group apply
    # their kernels to the same blocks, and every table is the one
    # ``_convergence_tables`` gives that form alone
    tables = {}
    for dim in dims:
        groups: dict[int, list] = {}
        for form in forms:
            groups.setdefault(trials_for(*form, dim), []).append(form)
        for trials, group in groups.items():
            shared = _convergence_tables(group, [dim], n_grid, trials, seed=909, threads=2)
            tables.update(((form, dim), table) for form, table in zip(group, shared))

    # convergence.csv columns, measured as ``summarize`` measures them
    rows = [(model, kind, dim, math.log2(n), mse)
            for model, kind in forms for dim in dims for _, n, mse in tables[(model, kind), dim]]
    cols = dict(zip(("model", "kind", "dim", "log2_n", "mse"), map(np.array, zip(*rows))))

    # pointwise agreement at N = 1e6, in standard errors, every closed form; the
    # estimates run in one call on two workers, which moves no value
    rng = np.random.default_rng(910)
    cells, closed = [], []
    for model, kind in forms:
        for dim in dims:
            cfg = McConfig(n_samples=10**6, seed=int(rng.integers(2**62)), dim=dim)
            if model == "multinode":
                w, ws = basin_node_pairs(rng, dim, 0.2, 0.8)
            else:
                ws = rng.standard_normal(dim)
                e = rng.standard_normal(dim)
                e *= rng.uniform(0.2, 0.8) * np.linalg.norm(ws) / np.linalg.norm(e)
                w = ws + e
            cells.append((cfg, (_persample(model, kind, np.atleast_2d(w), np.atleast_2d(ws),
                                           "grad"),)))
            closed.append(closed_form_grad(model, kind, w, ws))
    worst_z = 0.0
    for [est], target in zip(_reduce_cells(cells, threads=2), closed):
        worst_z = np.maximum(worst_z, float(np.max(np.abs(est.mean - target) / est.std_error)))
    judged("c9_mc_verification", **cli._measure_c9(cols), worst_z=worst_z,
           seconds=time.time() - start)


def test_c10_empirical_sgd(tmp_path):
    start = time.time()
    measured = measured_by_cli(tmp_path, "c10_empirical_sgd",
                               "sgd", "--seed", "0", "--steps", "3000")
    judged("c10_empirical_sgd", **measured, seconds=time.time() - start)


def test_c11_linear_model():
    rng = np.random.default_rng(111)
    rows = []
    for rep in range(3):
        X = rng.standard_normal((200, 8))
        ws = rng.standard_normal(8)
        problems = [LinearProblem(x_matrix=X, wstar=ws, noise_sigma=1.0, ridge_lambda=lam)
                    for lam in (0.5, 1.0, 2.0)]
        # one study per design: each tuple is bit for bit its problem's study alone
        studies = variance_study(problems, trials=10_000, seed=112 + rep)
        rows += [(p.ridge_lambda, *conditioning(p), *study) for p, study in zip(problems, studies)]
    cols = columns(("lambda", "kappa_l2", "kappa_h1", "var_l2_emp", "var_h1_emp",
                    "var_l2_formula", "var_h1_formula"), rows)
    judged("c11_linear_model", **cli._measure_c11(cols))


def test_c12_chebyshev_diff(tmp_path):
    measured = measured_by_cli(tmp_path, "c12_chebyshev_diff", "chebyshev")
    exact_n1 = bool(np.array_equal(cheb_diff_matrix(1), np.array([[0.5, -0.5], [0.5, -0.5]])))
    judged("c12_chebyshev_diff", **measured, n1_exact=exact_n1)


def test_c13_determinism(tmp_path):
    a, b, c = (tmp_path / x for x in ("a", "b", "c"))
    land = ["landscape", "--dim", "4", "--theta-grid", "24"]
    assert cli.main(land + ["--out-dir", str(a)]) == 0
    assert cli.main(land + ["--out-dir", str(b)]) == 0
    same_land = (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()

    grad = ["verify-gradients", "--dims", "4,16", "--n-min", "10", "--n-max", "12",
            "--trials", "2", "--forms", "relu:h1"]
    assert cli.main(grad + ["--out-dir", str(a), "--threads", "1"]) == 0
    assert cli.main(grad + ["--out-dir", str(c), "--threads", "4"]) == 0
    same_grad = (a / "convergence.csv").read_bytes() == (c / "convergence.csv").read_bytes()

    flow = ["flow", "--kind", "both", "--dim", "4", "--inits", "6", "--t-end", "2"]
    assert cli.main(flow + ["--out-dir", str(b)]) == 0
    assert cli.main(flow + ["--out-dir", str(c)]) == 0
    same_flow = (b / "flow.csv").read_bytes() == (c / "flow.csv").read_bytes()

    judged("c13_determinism", landscape_identical=same_land, convergence_identical=same_grad,
           flow_identical=same_flow)
