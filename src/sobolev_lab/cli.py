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
from .geometry import _plane_coordinates, basin_pairs, pair_geometry
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


def _accepts(default, val) -> bool:
    """Whether a --config value has the type of the flag that ``default`` declares."""
    if isinstance(val, bool):
        return False
    if isinstance(default, float):
        return isinstance(val, (int, float))
    if isinstance(default, str) and "," in default:  # a comma list may also be a JSON list
        return isinstance(val, (str, list))
    return isinstance(val, type(default))


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < --config JSON < explicit CLI flags; a JSON value must have its flag's type."""
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config} must hold one JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            if not _accepts(defaults[key], val):
                raise ValueError(f"config key {key!r} must be {type(defaults[key]).__name__}, "
                                 f"got {val!r}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    for key, val in cfg.items():  # every count, size and interval; a seed may be any int
        if isinstance(defaults[key], int) and key != "seed" and val < 1:
            raise ValueError(f"{key} must be >= 1, got {val}")
    return cfg


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        return args.threads
    env = os.environ.get(ENV_THREADS)
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{ENV_THREADS} must be an integer >= 1 (worker threads), got {env!r}")
    return threads


# --------------------------------------------------------------------------
# subcommands


# One row per experiment subcommand: name -> (help, defaults).  Each key
# ``foo_bar`` of the defaults, and of COMMON, is the flag ``--foo-bar`` typed
# as its default and a key ``--config`` may set.  The runner is the module
# function ``cmd_<name with - as _>(cfg, out)``, looked up when the parser is
# built; ``main`` resolves cfg, makes ``out`` and writes the manifest.
EXPERIMENTS = {
    "landscape": ("condition numbers and spectra over a theta grid",
                  {"dim": 2, "theta_grid": 64, "norm_w": 1.0, "norm_wstar": 1.0}),
    "gd-compare": ("one-step GD comparison at random basin points",
                   {"dim": 8, "points": 500, "eta_factor": 0.9}),
    "flow": ("single-node gradient-flow traces",
             {"kind": "both", "dim": 8, "inits": 100, "step": 1e-3, "t_end": 10.0,
              "record_every": 10}),
    "relusq": ("second-order descent checks and flows",
               {"dim": 4, "points": 1000, "inits": 100, "step": 1e-3, "t_end": 4.0,
                "record_every": 20}),
    "multinode": ("planar multi-node dynamics",
                  {"k_list": "2,4,8", "starts": 100, "ratio_starts": 20, "step": 1e-3,
                   "t_end": 60.0}),
    "toeplitz": ("cyclic-coefficient field Jacobians", {"k_list": "3,5,8"}),
    "sgd": ("empirical SGD traces with conditioning",
            {"dim": 16, "lr": 1e-2, "batch": 64, "n_train": 10000, "steps": 2000, "seeds": 12,
             "log_every": 20}),
    # estimators whose per-sample gradients live in span{w, w*} have ~2
    # effective dof per trial, so their slope fits need ~25 trials; the
    # x-valued estimators are tame at any of the default dims
    "verify-gradients": ("MC convergence study of the closed forms",
                         {"dims": "4,16,64", "n_min": 10, "n_max": 17, "trials": 25,
                          "forms": "relu:l2,relu:h1_semi,relu_sq:i1,relu_sq:i2,relu_sq:i3,multinode:l2"}),
    "linear": ("linear-model conditioning and variances",
               {"n": 200, "dim": 8, "sigma": 1.0, "lambdas": "0.5,1.0,2.0", "trials": 10000}),
    "chebyshev": ("differentiation-matrix exactness sweep", {"n_max": 20}),
}
COMMON = {"seed": 0, "out_dir": "out"}
FLAG_HELP = {"seed": "base RNG seed (default 0)", "out_dir": "output directory (default ./out)"}
FLOW_KINDS = ["l2", "h1", "both"]


# Students per stacked Hessian eigensolve in ``landscape``: a whole grid of
# d x d matrices at once costs memory that grows with the grid, for no speed
LANDSCAPE_BLOCK = 32


def cmd_landscape(cfg: dict, out: Path) -> list[Path]:
    d = cfg["dim"]
    if d < 2:
        raise ValueError("landscape needs dim >= 2")
    for key in ("norm_w", "norm_wstar"):
        # a negative norm flips the pair's angle to pi - theta under the theta column
        if not cfg[key] >= 0.0:
            raise ValueError(f"{key} must be >= 0, got {cfg[key]}")
    n = cfg["theta_grid"]
    thetas = np.arange(1, n + 1) * (math.pi / 2) / (n + 1)
    ws = np.zeros((n, d))
    ws[:, 0] = np.cos(thetas) * cfg["norm_w"]
    ws[:, 1] = np.sin(thetas) * cfg["norm_w"]
    wstar = np.zeros(d)
    wstar[0] = cfg["norm_wstar"]
    rows = []
    for lo in range(0, n, LANDSCAPE_BLOCK):
        block = ws[lo : lo + LANDSCAPE_BLOCK]
        rep = relu1.hessians(block, wstar)
        rows += zip(thetas[lo : lo + LANDSCAPE_BLOCK], rep.geometry.alpha,
                    rep.kappa_l2, rep.kappa_h1, rep.spectrum_l2.lam_min, rep.spectrum_h1.lam_min,
                    rep.spectrum_l2.lam_max, rep.spectrum_h1.lam_max)
    path = out / "landscape.csv"
    _write_csv(path, ["theta", "alpha", "kappa_l2", "kappa_h1", "lam_min_l2", "lam_min_h1",
                      "lam_max_l2", "lam_max_h1"], rows)
    return [path]


def cmd_gd_compare(cfg: dict, out: Path) -> list[Path]:
    factor = cfg["eta_factor"]
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"eta_factor must be positive and finite, got {factor}")
    rng = np.random.default_rng(cfg["seed"])
    ws, wstar = basin_pairs(rng, cfg["dim"], cfg["points"])
    pre = relu1.gd_compare(ws, wstar, 1.0)  # probe C with any eta, then use it
    with np.errstate(over="ignore"):  # gd_compare reports a step that leaves the floats
        eta = factor * pre.max_step_c
    rep = relu1.gd_compare(ws, wstar, eta)
    rows = zip(range(len(ws)), pair_geometry(ws, wstar).theta, rep.max_step_c, eta,
               rep.err_l2, rep.err_h1, rep.gain_f)
    path = out / "gd_compare.csv"
    _write_csv(path, ["point_id", "theta", "max_step_c", "eta", "err_l2", "err_h1", "gain_f"], rows)
    return [path]


def _flow_rows(labels: list[str], make_field, w0: np.ndarray, wstar: np.ndarray,
               cfg: dict) -> list[tuple]:
    """Integrate every row of w0 under every label as one stacked run in the
    plane span{w0, w*}; rows (init_id, label, t, v) sorted by (init_id, label).

    Every single-node gradient is a combination of w and w*, so each
    trajectory stays in that plane.  Each start maps to plane coordinates
    p0 = (w0.u, |w0 - (w0.u) u|), u = w*/|w*|, and the teacher to
    p* = (|w*|, 0); the (m, 2) ensemble is integrated and V = |p - p*|^2,
    which equals |w - w*|^2, recorded.  ``make_field`` takes the label of
    each stacked row (p0 tiled once per label, in ``labels`` order) and
    |w*|, and returns the ensemble's plane field.
    """
    m = w0.shape[0]
    p0, pstar = _plane_coordinates(w0, wstar)
    trace = rk4_integrate(make_field(np.repeat(labels, m), pstar[0]), np.tile(p0, (len(labels), 1)),
                          cfg["step"], cfg["t_end"], pstar, record_every=cfg["record_every"])
    v = trace.v_values.reshape(len(trace.times), len(labels), m)
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    return [(init_id, labels[j], t, vj) for init_id in range(m) for j in by_label
            for t, vj in zip(trace.times, v[:, j, init_id])]


def cmd_flow(cfg: dict, out: Path) -> list[Path]:
    kinds = ["l2", "h1"] if cfg["kind"] == "both" else [cfg["kind"]]
    rng = np.random.default_rng(cfg["seed"])
    w0, wstar = basin_pairs(rng, cfg["dim"], cfg["inits"])
    rows = _flow_rows(kinds, relu1.plane_flow_field, w0, wstar, cfg)
    path = out / "flow.csv"
    _write_csv(path, ["init_id", "kind", "t", "v"], rows)
    return [path]


RELUSQ_VARIANTS = {"h2": ("i1", "i2", "i3"), "i1": ("i1",)}


def cmd_relusq(cfg: dict, out: Path) -> list[Path]:
    rng = np.random.default_rng(cfg["seed"])
    ws, wstar = basin_pairs(rng, cfg["dim"], cfg["points"])
    ips = relusq.descent_inner_products(ws, wstar)
    descent_path = out / "relusq_descent.csv"
    _write_csv(descent_path, ["point_id", "ip1", "ip2", "ip3"],
               ((i, *row) for i, row in enumerate(ips)))

    w0, wstar2 = basin_pairs(rng, cfg["dim"], cfg["inits"], rmin=0.1, rmax=0.7)
    rows = _flow_rows(list(RELUSQ_VARIANTS), lambda variants, norm_wstar: relusq.h2_plane_field(
        norm_wstar, [RELUSQ_VARIANTS[v] for v in variants]), w0, wstar2, cfg)
    flow_path = out / "relusq_flow.csv"
    _write_csv(flow_path, ["init_id", "variant", "t", "v"], rows)
    return [descent_path, flow_path]


def cmd_multinode(cfg: dict, out: Path) -> list[Path]:
    ks = _parse_list(cfg["k_list"], int)
    step = cfg["step"]

    # one draw of Omega starts shared by every K, then every K's near-fixed-point
    # angles; every run below, of every K, integrates as one ensemble
    rng = np.random.default_rng(cfg["seed"])
    x0 = rng.uniform(0.15, 1.0, size=cfg["starts"])
    y0 = np.array([rng.uniform(0.0, max(x - 0.05, 0.0)) for x in x0])
    angs = rng.uniform(0.15, math.pi / 2 - 0.15, size=len(ks) * cfg["ratio_starts"])
    near = np.stack([1.0 - 1e-3 * np.cos(angs), 1e-3 * np.sin(angs)], axis=1)
    k_rows = np.repeat(ks, cfg["ratio_starts"])
    decays = [mn.diagonal_rows(kind, k, 0.95, min(horizon / k, cap))
              for k in ks for kind, horizon, cap in (("l2", 30.0, 12.0), ("h1", 15.0, 6.0))]
    runs = [
        # convergence of the H1 planar flow from the Omega starts
        mn.PlanarRows("h1", np.repeat(ks, cfg["starts"]),
                      np.tile(np.stack([x0, y0], axis=1), (len(ks), 1)), step, cfg["t_end"]),
        # near-fixed-point time-to-threshold ratio
        mn.threshold_rows("l2", k_rows, near, 1e-4, step),
        mn.threshold_rows("h1", k_rows, near, 1e-4, step),
        *decays,
    ]
    omega, t_l2, t_h1, *decay_runs = mn.planar_flows(runs)
    final_dist = np.sqrt(omega.final_v).reshape(len(ks), -1)
    ratios = (t_l2.crossed / t_h1.crossed).reshape(len(ks), -1)
    exps = np.array([mn.decay_fit(r, run).exponent
                     for r, run in zip(decays, decay_runs)]).reshape(len(ks), 2)

    rows = []
    for k, (exp_l2, exp_h1), r, d in zip(ks, exps, ratios, final_dist):
        x_l2, x_h1 = mn.saddle_points(k)
        f_l2 = mn.reduced_flow_field("l2", k)(np.array([x_l2, x_l2]))
        f_h1 = mn.reduced_flow_field("h1", k)(np.array([x_h1, x_h1]))
        rows.append([k, x_l2, x_h1, float(np.max(np.abs(f_l2))), float(np.max(np.abs(f_h1))),
                     exp_l2, exp_h1, float(np.median(r)), float(d.max())])
    path = out / "multinode.csv"
    _write_csv(
        path,
        ["k", "x_saddle_l2", "x_saddle_h1", "saddle_field_l2", "saddle_field_h1",
         "decay_exp_l2", "decay_exp_h1", "time_ratio_median", "max_final_dist"],
        rows,
    )
    return [path]


def cmd_toeplitz(cfg: dict, out: Path) -> list[Path]:
    rows = []
    for k in _parse_list(cfg["k_list"], int):
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
    return [path]


def cmd_sgd(cfg: dict, out: Path) -> list[Path]:
    if not cfg["lr"] > 0.0:  # a zero or negative rate never descends
        raise ValueError(f"lr must be positive, got {cfg['lr']}")
    runs = [(s, kind) for s in range(cfg["seeds"]) for kind in ("l2", "h1")]
    traces = sgd_mod.sgd_run([
        sgd_mod.SgdConfig(
            dim=cfg["dim"],
            batch_size=cfg["batch"],
            n_train=cfg["n_train"],
            learning_rate=cfg["lr"],
            n_steps=cfg["steps"],
            seed=cfg["seed"] * 1000 + s,
            loss_kind=kind,
            log_every=cfg["log_every"],
        )
        for s, kind in runs
    ])
    rows = [(s, kind, int(st), err, kap) for (s, kind), trace in zip(runs, traces)
            for st, err, kap in zip(trace.steps, trace.err_sq, trace.kappa)]
    path = out / "sgd.csv"
    _write_csv(path, ["seed", "kind", "step", "err_sq", "kappa"], rows)
    return [path]


def cmd_verify_gradients(cfg: dict, out: Path, threads: int = 1) -> list[Path]:
    dims = _parse_list(cfg["dims"], int)
    n_grid = [2**p for p in range(cfg["n_min"], cfg["n_max"] + 1)]
    forms = []
    for token in _parse_list(cfg["forms"], str.strip):
        form = token.split(":")
        if len(form) != 2:
            raise ValueError(f"form {token!r} is not of the shape model:kind")
        forms.append(tuple(form))
    tables = mc._convergence_tables(forms, dims, n_grid, cfg["trials"], cfg["seed"], threads)
    rows = [(model, kind, dim, int(math.log2(n)), mse)
            for (model, kind), table in zip(forms, tables) for dim, n, mse in table]
    path = out / "convergence.csv"
    _write_csv(path, ["model", "kind", "dim", "log2_n", "mse"], rows)
    return [path]


def cmd_linear(cfg: dict, out: Path) -> list[Path]:
    rng = np.random.default_rng(cfg["seed"])
    X = rng.standard_normal((cfg["n"], cfg["dim"]))
    wstar = rng.standard_normal(cfg["dim"])
    problems = [LinearProblem(x_matrix=X, wstar=wstar, noise_sigma=cfg["sigma"], ridge_lambda=lam)
                for lam in _parse_list(cfg["lambdas"], float)]
    # one study: every lambda shares the noise draws and the least-squares fits
    studies = variance_study(problems, cfg["trials"], cfg["seed"] + 1)
    rows = [(p.ridge_lambda, *conditioning(p), *study) for p, study in zip(problems, studies)]
    path = out / "linear.csv"
    _write_csv(
        path,
        ["lambda", "kappa_l2", "kappa_h1", "var_l2_emp", "var_h1_emp", "var_l2_formula", "var_h1_formula"],
        rows,
    )
    return [path]


def cmd_chebyshev(cfg: dict, out: Path) -> list[Path]:
    rows = []
    for n in range(1, cfg["n_max"] + 1):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        worst = 0.0
        for k in range(n + 1):
            expected = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            worst = max(worst, float(np.abs(d @ x**k - expected).max()))
        rows.append((n, worst, float(np.abs(d.sum(axis=1)).max())))
    path = out / "chebyshev.csv"
    _write_csv(path, ["n", "max_monomial_err", "row_sum_max"], rows)
    return [path]


# --------------------------------------------------------------------------
# summarize: measured values from the CSV artifacts, judged by ``criteria``


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [dict(r) for r in csv.DictReader(fh)]


def _col(rows, name) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _traces(rows, label) -> dict[str, np.ndarray]:
    """V traces (inits, times) per value of the ``label`` column, in order of first appearance."""
    labels = np.array([r[label] for r in rows])
    init, t, v = _col(rows, "init_id"), _col(rows, "t"), _col(rows, "v")
    out = {}
    for lab in dict.fromkeys(labels.tolist()):
        sel = labels == lab
        order = np.lexsort((t[sel], init[sel]))
        out[lab] = v[sel][order].reshape(np.unique(init[sel]).size, -1)
    return out


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
    if "l2" in v:
        # lambda_max(hess L) = 1/2 bounds V_l2(t) below by V_l2(0) e^-t (the mechanism)
        t_last = max(float(r["t"]) for r in rows)
        m["v_l2_spectral_floor"] = v["l2"][:, 0].max() * math.exp(-t_last)
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
        "time_ratios": {int(k): r for k, r in zip(ks, ratios)},
    }


def _measure_c8(rows):
    ks = _col(rows, "k")
    dev = np.abs(_col(rows, "eig_l2") - _col(rows, "expected_eig"))
    return {"worst_eig_dev": dev.max(),
            "h1_vs_2l2_maxdiff": _col(rows, "h1_vs_2l2_maxdiff").max(),
            "eig_dev_by_k": {int(k): dev[ks == k].max() for k in np.unique(ks)}}


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
    out_dir = Path(args.out_dir)
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


def _parse_list(s, conv) -> list:
    """A comma-separated string or a JSON list, each item through ``conv``; never empty."""
    items = s if isinstance(s, list) else [tok for tok in s.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"empty list {s!r}")
    return [conv(v) for v in items]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="Reproducible experiments for the Sobolev-training landscape laboratory.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (help_, defaults) in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=help_)
        defaults = {**defaults, **COMMON}
        for key, default in defaults.items():
            if key == "seed" and name == "verify-gradients":
                sp.add_argument("--threads", type=int,
                                help=f"worker cap (or ${ENV_THREADS}); never affects results")
            sp.add_argument("--" + key.replace("_", "-"), type=type(default), help=FLAG_HELP.get(key),
                            choices=FLOW_KINDS if key == "kind" else None)
        sp.add_argument("--config", help="JSON file with defaults; explicit flags override it")
        sp.set_defaults(runner=globals()["cmd_" + name.replace("-", "_")], defaults=defaults)
    sp = sub.add_parser("summarize", help="evaluate acceptance checks from CSVs in a directory")
    sp.add_argument("out_dir")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "summarize":
            paths = cmd_summarize(args)
        else:
            cfg = _resolve(args, args.defaults)
            extra = {"threads": _threads(args)} if "threads" in args else {}
            out = Path(cfg["out_dir"])
            out.mkdir(parents=True, exist_ok=True)
            paths = args.runner(cfg, out, **extra)
            _write_manifest(out, args.subcommand, cfg)
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
