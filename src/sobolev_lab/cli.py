"""Reproducible experiment runner.

Each subcommand maps one experiment family to CSV artifacts plus a
manifest.json recording the resolved configuration and code version;
``summarize`` measures the acceptance criteria from whatever CSVs are
present in an output directory, judges them with ``criteria.judge`` and
emits report.json with one entry per criterion, in table order.

Numbers are written with 17 significant digits (round-trip exact for
64-bit floats) so re-running a subcommand with identical configuration
yields byte-identical CSV bodies; worker count never changes results.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical error
(a singular point of a closed form or a blown-up trajectory), 1 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, criteria, mc, multinode as mn, relu1, relusq, sgd as sgd_mod
from .chebdiff import cheb_diff_matrix, cheb_points
from .exceptions import BlowUpError, SingularPointError
from .geometry import basin_pairs, pair_geometry
from .linear import LinearProblem, conditioning, variance_study
from .ode import rk4_integrate

ENV_THREADS = "SOBOLEV_LAB_THREADS"


def _fmt(x) -> str:
    if x is None:
        return "nan"
    xf = float(x)
    if not math.isfinite(xf):
        return repr(xf)  # nan, inf, -inf: each reads back through float()
    if xf == int(xf) and abs(xf) < 1e15:
        return repr(int(xf))
    return f"{xf:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _write_manifest(out_dir: Path, subcommand: str, cfg: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "package_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < --config JSON < explicit CLI flags."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, args.threads)
    env = os.environ.get(ENV_THREADS)
    return max(1, int(env)) if env else 1


# --------------------------------------------------------------------------
# subcommands


def cmd_landscape(args) -> list[Path]:
    cfg = _resolve(args, {"dim": 2, "theta_grid": 64, "norm_w": 1.0, "norm_wstar": 1.0,
                          "seed": 0, "out_dir": "out"})
    out = _prep_out(cfg)
    d = int(cfg["dim"])
    if d < 2:
        raise ValueError("landscape needs dim >= 2")
    n = int(cfg["theta_grid"])
    rows = []
    for i in range(1, n + 1):
        theta = i * (math.pi / 2) / (n + 1)
        w = np.zeros(d)
        w[0] = math.cos(theta) * cfg["norm_w"]
        w[1] = math.sin(theta) * cfg["norm_w"]
        wstar = np.zeros(d)
        wstar[0] = cfg["norm_wstar"]
        rep = relu1.hessians(w, wstar)
        geom = pair_geometry(w, wstar)
        rows.append(
            (
                theta,
                geom.alpha,
                rep.kappa_l2,
                rep.kappa_h1,
                rep.spectrum_l2.lam_min,
                rep.spectrum_h1.lam_min,
                rep.spectrum_l2.lam_max,
                rep.spectrum_h1.lam_max,
            )
        )
    path = out / "landscape.csv"
    _write_csv(path, ["theta", "alpha", "kappa_l2", "kappa_h1", "lam_min_l2", "lam_min_h1",
                      "lam_max_l2", "lam_max_h1"], rows)
    _write_manifest(out, "landscape", cfg)
    return [path]


def cmd_gd_compare(args) -> list[Path]:
    cfg = _resolve(args, {"dim": 8, "points": 500, "eta_factor": 0.9, "seed": 0, "out_dir": "out"})
    out = _prep_out(cfg)
    rng = np.random.default_rng(cfg["seed"])
    ws, wstar = basin_pairs(rng, int(cfg["dim"]), int(cfg["points"]))
    rows = []
    for i, w in enumerate(ws):
        pre = relu1.gd_compare(w, wstar, 1.0)  # probe C with any eta, then use it
        eta = cfg["eta_factor"] * pre.max_step_c
        rep = relu1.gd_compare(w, wstar, eta)
        rows.append(
            (i, pair_geometry(w, wstar).theta, rep.max_step_c, eta, rep.err_l2, rep.err_h1, rep.gain_f)
        )
    path = out / "gd_compare.csv"
    _write_csv(path, ["point_id", "theta", "max_step_c", "eta", "err_l2", "err_h1", "gain_f"], rows)
    _write_manifest(out, "gd-compare", cfg)
    return [path]


def cmd_flow(args) -> list[Path]:
    cfg = _resolve(
        args,
        {"kind": "both", "dim": 8, "inits": 100, "step": 1e-3, "t_end": 10.0,
         "record_every": 10, "seed": 0, "out_dir": "out"},
    )
    out = _prep_out(cfg)
    kinds = ["l2", "h1"] if cfg["kind"] == "both" else [cfg["kind"]]
    rng = np.random.default_rng(cfg["seed"])
    w0, wstar = basin_pairs(rng, int(cfg["dim"]), int(cfg["inits"]))
    rows = []
    for kind in kinds:
        trace = rk4_integrate(
            lambda s, k=kind: relu1.flow_rhs(k, s, wstar),
            w0,
            cfg["step"],
            cfg["t_end"],
            wstar,
            record_every=int(cfg["record_every"]),
        )
        for init_id in range(w0.shape[0]):
            for t, v in zip(trace.times, trace.v_values[:, init_id]):
                rows.append((init_id, kind, t, v))
    rows.sort(key=lambda r: (r[0], r[1]))
    path = out / "flow.csv"
    _write_csv(path, ["init_id", "kind", "t", "v"], rows)
    _write_manifest(out, "flow", cfg)
    return [path]


def cmd_relusq(args) -> list[Path]:
    cfg = _resolve(
        args,
        {"dim": 4, "points": 1000, "inits": 100, "step": 1e-3, "t_end": 4.0,
         "record_every": 20, "seed": 0, "out_dir": "out"},
    )
    out = _prep_out(cfg)
    rng = np.random.default_rng(cfg["seed"])
    ws, wstar = basin_pairs(rng, int(cfg["dim"]), int(cfg["points"]))
    rows = []
    for i, w in enumerate(ws):
        b = relusq.h2_gradients(w, wstar)
        e = w - wstar
        rows.append((i, -float(e @ b.grad_i1), -float(e @ b.grad_i2), -float(e @ b.grad_i3)))
    descent_path = out / "relusq_descent.csv"
    _write_csv(descent_path, ["point_id", "ip1", "ip2", "ip3"], rows)

    w0, wstar2 = basin_pairs(rng, int(cfg["dim"]), int(cfg["inits"]), rmin=0.1, rmax=0.7)
    flow_rows = []
    for variant, parts in (("h2", ("i1", "i2", "i3")), ("i1", ("i1",))):
        trace = rk4_integrate(relusq.h2_flow_field(wstar2, parts), w0, cfg["step"],
                              cfg["t_end"], wstar2, record_every=int(cfg["record_every"]))
        for init_id in range(w0.shape[0]):
            for t, v in zip(trace.times, trace.v_values[:, init_id]):
                flow_rows.append((init_id, variant, t, v))
    flow_rows.sort(key=lambda r: (r[0], r[1]))
    flow_path = out / "relusq_flow.csv"
    _write_csv(flow_path, ["init_id", "variant", "t", "v"], flow_rows)
    _write_manifest(out, "relusq", cfg)
    return [descent_path, flow_path]


def cmd_multinode(args) -> list[Path]:
    cfg = _resolve(
        args,
        {"k_list": "2,4,8", "starts": 100, "ratio_starts": 20, "step": 1e-3,
         "t_end": 60.0, "seed": 0, "out_dir": "out"},
    )
    out = _prep_out(cfg)
    ks = _parse_int_list(cfg["k_list"])
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for k in ks:
        x_l2, x_h1 = mn.saddle_points(k)
        f_l2 = mn.reduced_field("l2", mn.ReducedState(x=x_l2, y=x_l2, k=k))
        f_h1 = mn.reduced_field("h1", mn.ReducedState(x=x_h1, y=x_h1, k=k))
        exp_l2 = mn.diagonal_decay("l2", k, 0.95, t_end=min(30.0 / k, 12.0)).exponent
        exp_h1 = mn.diagonal_decay("h1", k, 0.95, t_end=min(15.0 / k, 6.0)).exponent

        # convergence of the H1 planar flow from random Omega starts
        n = int(cfg["starts"])
        x0 = rng.uniform(0.15, 1.0, size=n)
        y0 = np.array([rng.uniform(0.0, max(x - 0.05, 0.0)) for x in x0])
        starts = np.stack([x0, y0], axis=1)
        trace = rk4_integrate(mn.reduced_flow_field("h1", k), starts, cfg["step"],
                              cfg["t_end"], np.array([1.0, 0.0]), record_every=100)
        final_dist = np.sqrt(trace.v_values[-1])

        # near-fixed-point time-to-threshold ratio
        m = int(cfg["ratio_starts"])
        angs = rng.uniform(0.15, math.pi / 2 - 0.15, size=m)
        near = np.stack([1.0 - 1e-3 * np.cos(angs), 1e-3 * np.sin(angs)], axis=1)
        t_l2 = mn.times_to_threshold("l2", k, near, 1e-4, step=cfg["step"])
        t_h1 = mn.times_to_threshold("h1", k, near, 1e-4, step=cfg["step"])
        ratios = t_l2 / t_h1
        rows.append(
            (k, x_l2, x_h1, float(np.max(np.abs(f_l2))), float(np.max(np.abs(f_h1))),
             exp_l2, exp_h1, float(np.median(ratios)), float(final_dist.max()))
        )
    path = out / "multinode.csv"
    _write_csv(
        path,
        ["k", "x_saddle_l2", "x_saddle_h1", "saddle_field_l2", "saddle_field_h1",
         "decay_exp_l2", "decay_exp_h1", "time_ratio_median", "max_final_dist"],
        rows,
    )
    _write_manifest(out, "multinode", cfg)
    return [path]


def cmd_toeplitz(args) -> list[Path]:
    cfg = _resolve(args, {"k_list": "3,5,8", "seed": 0, "out_dir": "out"})
    out = _prep_out(cfg)
    rows = []
    for k in _parse_int_list(cfg["k_list"]):
        j_l2 = mn.toeplitz_jacobian("l2", k)
        j_h1 = mn.toeplitz_jacobian("h1", k)
        eigs = np.sort(np.linalg.eigvals(-j_l2).real)
        _, expected = mn.toeplitz_linearization(k)
        expected = np.sort(expected)
        maxdiff = float(np.abs(j_h1 - 2.0 * j_l2).max())
        for i in range(k):
            rows.append((k, i, float(eigs[i]), float(expected[i]), maxdiff))
    path = out / "toeplitz.csv"
    _write_csv(path, ["k", "eig_index", "eig_l2", "expected_eig", "h1_vs_2l2_maxdiff"], rows)
    _write_manifest(out, "toeplitz", cfg)
    return [path]


def cmd_sgd(args) -> list[Path]:
    cfg = _resolve(
        args,
        {"dim": 16, "lr": 1e-2, "batch": 64, "n_train": 10000, "steps": 2000,
         "seeds": 12, "log_every": 20, "seed": 0, "out_dir": "out"},
    )
    out = _prep_out(cfg)
    rows = []
    for s in range(int(cfg["seeds"])):
        for kind in ("l2", "h1"):
            trace = sgd_mod.sgd_run(
                sgd_mod.SgdConfig(
                    dim=int(cfg["dim"]),
                    batch_size=int(cfg["batch"]),
                    n_train=int(cfg["n_train"]),
                    learning_rate=cfg["lr"],
                    n_steps=int(cfg["steps"]),
                    seed=int(cfg["seed"]) * 1000 + s,
                    loss_kind=kind,
                    log_every=int(cfg["log_every"]),
                )
            )
            for st, err, kap in zip(trace.steps, trace.err_sq, trace.kappa):
                rows.append((s, kind, int(st), err, kap))
    path = out / "sgd.csv"
    _write_csv(path, ["seed", "kind", "step", "err_sq", "kappa"], rows)
    _write_manifest(out, "sgd", cfg)
    return [path]


def cmd_verify_gradients(args) -> list[Path]:
    # estimators whose per-sample gradients live in span{w, w*} have ~2
    # effective dof per trial, so their slope fits need ~25 trials; the
    # x-valued estimators are tame at any of the default dims
    cfg = _resolve(
        args,
        {"dims": "4,16,64", "n_min": 10, "n_max": 17, "trials": 25,
         "forms": "relu:l2,relu:h1_semi,relu_sq:i1,relu_sq:i2,relu_sq:i3,multinode:l2",
         "seed": 0, "out_dir": "out"},
    )
    out = _prep_out(cfg)
    dims = _parse_int_list(cfg["dims"])
    n_grid = [2**p for p in range(int(cfg["n_min"]), int(cfg["n_max"]) + 1)]
    threads = _threads(args)
    rows = []
    for token in str(cfg["forms"]).split(","):
        model, kind = token.strip().split(":")
        table = mc.convergence_study(model, kind, dims, n_grid, int(cfg["trials"]),
                                     int(cfg["seed"]), threads=threads)
        for dim, n, mse in table:
            rows.append((model, kind, dim, int(math.log2(n)), mse))
    path = out / "convergence.csv"
    _write_csv(path, ["model", "kind", "dim", "log2_n", "mse"], rows)
    _write_manifest(out, "verify-gradients", cfg)
    return [path]


def cmd_linear(args) -> list[Path]:
    cfg = _resolve(
        args,
        {"n": 200, "dim": 8, "sigma": 1.0, "lambdas": "0.5,1.0,2.0",
         "trials": 10000, "seed": 0, "out_dir": "out"},
    )
    out = _prep_out(cfg)
    rng = np.random.default_rng(cfg["seed"])
    X = rng.standard_normal((int(cfg["n"]), int(cfg["dim"])))
    wstar = rng.standard_normal(int(cfg["dim"]))
    rows = []
    for lam in _parse_float_list(cfg["lambdas"]):
        p = LinearProblem(x_matrix=X, wstar=wstar, noise_sigma=cfg["sigma"], ridge_lambda=lam)
        kl, kh = conditioning(p)
        ve_l2, ve_h1, vf_l2, vf_h1 = variance_study(p, int(cfg["trials"]), int(cfg["seed"]) + 1)
        rows.append((lam, kl, kh, ve_l2, ve_h1, vf_l2, vf_h1))
    path = out / "linear.csv"
    _write_csv(
        path,
        ["lambda", "kappa_l2", "kappa_h1", "var_l2_emp", "var_h1_emp", "var_l2_formula", "var_h1_formula"],
        rows,
    )
    _write_manifest(out, "linear", cfg)
    return [path]


def cmd_chebyshev(args) -> list[Path]:
    cfg = _resolve(args, {"n_max": 20, "seed": 0, "out_dir": "out"})
    out = _prep_out(cfg)
    rows = []
    for n in range(1, int(cfg["n_max"]) + 1):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        worst = 0.0
        for k in range(n + 1):
            expected = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            worst = max(worst, float(np.abs(d @ x**k - expected).max()))
        rows.append((n, worst, float(np.abs(d.sum(axis=1)).max())))
    path = out / "chebyshev.csv"
    _write_csv(path, ["n", "max_monomial_err", "row_sum_max"], rows)
    _write_manifest(out, "chebyshev", cfg)
    return [path]


# --------------------------------------------------------------------------
# summarize: measured values from the CSV artifacts, judged by ``criteria``


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [dict(r) for r in csv.DictReader(fh)]


def _col(rows, name) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _traces(rows, label) -> dict[str, np.ndarray]:
    """V traces (inits, times) per value of the ``label`` column."""
    by: dict = {}
    for r in rows:
        trace = by.setdefault(r[label], {}).setdefault(int(r["init_id"]), [])
        trace.append((float(r["t"]), float(r["v"])))
    return {lab: np.array([[v for _, v in sorted(tr)] for _, tr in sorted(d.items())])
            for lab, d in by.items()}


def _measure_c1(rows):
    kl, kh = _col(rows, "kappa_l2"), _col(rows, "kappa_h1")
    rel_l = np.abs(_col(rows, "lam_max_l2") / _col(rows, "lam_min_l2") - kl) / kl
    rel_h = np.abs(_col(rows, "lam_max_h1") / _col(rows, "lam_min_h1") - kh) / kh
    off = _col(rows, "theta") > criteria.MIN_THETA
    return {"max_rel_err": np.max([rel_l, rel_h]), "max_kappa_gap": (kh - kl)[off].max()}


def _measure_c2(rows):
    return {"max_extreme_dev": criteria.extreme_dev(_col(rows, "lam_max_l2"),
                                                    _col(rows, "lam_max_h1")).max()}


def _measure_c3(rows):
    gain = _col(rows, "gain_f")
    return {"min_gain": gain.min(),
            "max_excess": (_col(rows, "err_h1") - (_col(rows, "err_l2") - gain)).max()}


def _measure_c4(rows):
    v = _traces(rows, "kind")
    m = {f"worst_final_v_{kind}": tr[:, -1].max() for kind, tr in v.items()}
    if {"l2", "h1"} <= v.keys():
        m["ordering_excess"] = (v["h1"] - v["l2"]).max()
    return m


def _measure_c6(rows, flow_rows):
    m = {"worst_inner_product": np.max([_col(rows, c) for c in ("ip1", "ip2", "ip3")])}
    if flow_rows is not None:
        v = _traces(flow_rows, "variant")
        m["h2_excess"] = (v["h2"] - v["i1"]).max()
    return m


def _measure_c7(rows):
    ks = _col(rows, "k")
    ratios = _col(rows, "time_ratio_median")
    return {
        "saddle_formula_dev": criteria.saddle_formula_dev(
            ks, _col(rows, "x_saddle_l2"), _col(rows, "x_saddle_h1")).max(),
        "saddle_field_dev": np.max([_col(rows, "saddle_field_l2"), _col(rows, "saddle_field_h1")]),
        "decay_rel_dev": criteria.decay_rel_dev(
            ks, _col(rows, "decay_exp_l2"), _col(rows, "decay_exp_h1")).max(),
        "max_final_dist": _col(rows, "max_final_dist").max(),
        "time_ratio_range": [ratios.min(), ratios.max()],
    }


def _measure_c8(rows):
    return {"worst_eig_dev": np.abs(_col(rows, "eig_l2") - _col(rows, "expected_eig")).max(),
            "h1_vs_2l2_maxdiff": _col(rows, "h1_vs_2l2_maxdiff").max()}


def _measure_c9(rows):
    cells: dict = {}
    for r in rows:
        cells.setdefault("{}:{}:d{}".format(r["model"], r["kind"], r["dim"]), []).append(
            (int(r["log2_n"]), float(r["mse"])))
    slopes, rise = {}, []
    for key, pts in cells.items():
        ns, ms = np.array(sorted(pts)).T
        slopes[key] = mc.fit_loglog_slope(2.0**ns, ms)
        rise.append(ms[-1] - ms[0])
    values = list(slopes.values())
    return {"slope_range": [np.min(values), np.max(values)],
            "max_mse_rise": np.max(rise), "slopes": slopes}


def _measure_c10(rows):
    finals: dict = {}
    kappas: dict = {}
    for r in rows:
        key = (r["seed"], r["kind"])
        finals[key] = max(finals.get(key, (-1, 0.0)), (int(r["step"]), float(r["err_sq"])))
        kappas.setdefault((r["seed"], r["step"]), {})[r["kind"]] = float(r["kappa"])
    med = {kind: float(np.median([v for (_, k), (_, v) in finals.items() if k == kind]))
           for kind in ("l2", "h1")}
    # steps where either kappa was not computed carry NaN and are skipped, as in the suite
    gaps = [p["h1"] - p["l2"] for p in kappas.values()
            if len(p) == 2 and not (math.isnan(p["h1"]) or math.isnan(p["l2"]))]
    m = {"median_gap": med["h1"] - med["l2"],
         "median_final_l2": med["l2"], "median_final_h1": med["h1"]}
    if gaps:
        m["kappa_excess"] = np.max(gaps)
    return m


def _measure_c11(rows):
    emp = {n: _col(rows, f"var_{n}_emp") for n in ("l2", "h1")}
    form = {n: _col(rows, f"var_{n}_formula") for n in ("l2", "h1")}
    ridge = _col(rows, "lambda") > 0
    m = {"max_var_gap": (emp["h1"] - emp["l2"]).max(),
         "worst_rel_var_err": np.max([np.abs(emp[n] - form[n]) / form[n] for n in emp])}
    if ridge.any():
        m["max_kappa_gap"] = (_col(rows, "kappa_h1") - _col(rows, "kappa_l2"))[ridge].max()
    return m


def _measure_c12(rows):
    return {"worst_err_over_n2": (_col(rows, "max_monomial_err") / _col(rows, "n") ** 2).max()}


# criterion -> (the CSVs it is measured from, extraction taking one row list per CSV);
# the first CSV is required, a later one is None when absent.  c5 and c13 have no CSV.
SOURCES = {
    "c1_condition_number_law": (("landscape.csv",), _measure_c1),
    "c2_hessian_spectra": (("landscape.csv",), _measure_c2),
    "c3_one_step_gd": (("gd_compare.csv",), _measure_c3),
    "c4_h1_flow_acceleration": (("flow.csv",), _measure_c4),
    "c6_relusq_descent": (("relusq_descent.csv", "relusq_flow.csv"), _measure_c6),
    "c7_multinode_dynamics": (("multinode.csv",), _measure_c7),
    "c8_toeplitz_linearization": (("toeplitz.csv",), _measure_c8),
    "c9_mc_verification": (("convergence.csv",), _measure_c9),
    "c10_empirical_sgd": (("sgd.csv",), _measure_c10),
    "c11_linear_model": (("linear.csv",), _measure_c11),
    "c12_chebyshev_diff": (("chebyshev.csv",), _measure_c12),
}


def _measure(out_dir: Path, fnames, measure) -> dict:
    paths = [out_dir / f for f in fnames]
    if not paths[0].exists():
        return {}
    return measure(*(_read_csv(p) if p.exists() else None for p in paths))


def summarize(out_dir: Path) -> dict:
    """Judge every acceptance criterion on the CSV artifacts present in ``out_dir``."""
    report = {"out_dir": str(out_dir), "package_version": __version__, "criteria": {}}
    for crit in criteria.CRITERIA:
        try:
            measured = _measure(out_dir, *SOURCES[crit]) if crit in SOURCES else {}
            entry = criteria.judge(crit, measured)
        except Exception as exc:  # malformed CSV: report, don't crash the summary
            entry = {**criteria.judge(crit, {}), "status": "error", "note": str(exc)}
        if crit not in SOURCES:
            entry["note"] = "no CSV carries this criterion; the acceptance suite measures it"
        report["criteria"][crit] = entry
    return report


def cmd_summarize(args) -> list[Path]:
    out_dir = Path(args.out_dir_pos)
    if not out_dir.is_dir():
        raise ValueError(f"not a directory: {out_dir}")
    report = summarize(out_dir)
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)  # criteria in table order
        fh.write("\n")
    return [path]


# --------------------------------------------------------------------------
# plumbing


def _prep_out(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_int_list(s) -> list[int]:
    if isinstance(s, (list, tuple)):
        return [int(v) for v in s]
    return [int(tok) for tok in str(s).split(",") if tok.strip()]


def _parse_float_list(s) -> list[float]:
    if isinstance(s, (list, tuple)):
        return [float(v) for v in s]
    return [float(tok) for tok in str(s).split(",") if tok.strip()]


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    sp.add_argument("--out-dir", dest="out_dir", type=str, default=None,
                    help="output directory (default ./out)")
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file with defaults; explicit flags override it")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="Reproducible experiments for the Sobolev-training landscape laboratory.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("landscape", help="condition numbers and spectra over a theta grid")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--theta-grid", dest="theta_grid", type=int, default=None)
    sp.add_argument("--norm-w", dest="norm_w", type=float, default=None)
    sp.add_argument("--norm-wstar", dest="norm_wstar", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_landscape)

    sp = sub.add_parser("gd-compare", help="one-step GD comparison at random basin points")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--points", type=int, default=None)
    sp.add_argument("--eta-factor", dest="eta_factor", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_gd_compare)

    sp = sub.add_parser("flow", help="single-node gradient-flow traces")
    sp.add_argument("--kind", choices=["l2", "h1", "both"], default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--inits", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--record-every", dest="record_every", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("relusq", help="second-order descent checks and flows")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--points", type=int, default=None)
    sp.add_argument("--inits", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--record-every", dest="record_every", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_relusq)

    sp = sub.add_parser("multinode", help="planar multi-node dynamics")
    sp.add_argument("--k-list", dest="k_list", type=str, default=None)
    sp.add_argument("--starts", type=int, default=None)
    sp.add_argument("--ratio-starts", dest="ratio_starts", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_multinode)

    sp = sub.add_parser("toeplitz", help="cyclic-coefficient field Jacobians")
    sp.add_argument("--k-list", dest="k_list", type=str, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_toeplitz)

    sp = sub.add_parser("sgd", help="empirical SGD traces with conditioning")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--n-train", dest="n_train", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seeds", type=int, default=None)
    sp.add_argument("--log-every", dest="log_every", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_sgd)

    sp = sub.add_parser("verify-gradients", help="MC convergence study of the closed forms")
    sp.add_argument("--dims", type=str, default=None)
    sp.add_argument("--n-min", dest="n_min", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--forms", type=str, default=None)
    sp.add_argument("--threads", type=int, default=None,
                    help=f"worker cap (or ${ENV_THREADS}); never affects results")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_gradients)

    sp = sub.add_parser("linear", help="linear-model conditioning and variances")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--lambdas", type=str, default=None)
    sp.add_argument("--trials", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_linear)

    sp = sub.add_parser("chebyshev", help="differentiation-matrix exactness sweep")
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_chebyshev)

    sp = sub.add_parser("summarize", help="evaluate acceptance checks from CSVs in a directory")
    sp.add_argument("out_dir_pos", metavar="out_dir", type=str)
    sp.set_defaults(func=cmd_summarize)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        paths = args.func(args)
    except (SingularPointError, BlowUpError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
