"""Reproducible experiment runner.

Each subcommand maps one experiment family to CSV artifacts plus a
manifest.json recording the resolved configuration and code version: its
runner, a function of that configuration alone, returns {file name:
{column name: column}}, and ``main`` writes the CSVs and then the manifest.
``summarize`` measures the acceptance criteria from whatever CSVs are
present in an output directory, judges them with ``criteria.judge`` and
emits report.json with one entry per criterion, in table order.

CSV I/O is columnar.  ``_write_csv`` takes one array of numbers, or one
sequence of labels, per column; each distinct value of a column is
formatted once, numbers with 17 significant digits (round-trip exact for
64-bit floats) and integers written as integers, and each line is joined
from its column strings with the bytes ``csv.writer`` writes, so re-running
a subcommand with identical configuration yields byte-identical CSV
bodies; worker count never changes results.  ``_read_csv`` parses a
CSV in one ``np.loadtxt`` pass into one array per column, and every
``_measure_c*`` works on those arrays.  A malformed CSV (a row with a cell
too many or too few, a number that does not parse, a column that is
missing) is an error whose message starts with the file's name and, for a
bad row, its line; ``summarize`` records it as the note of each criterion
measured from that file.

Exit codes: 0 success, 2 configuration/validation error (an out_dir that
cannot be made among them), 3 numerical error (a singular point of a closed
form or a blown-up trajectory), 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
import time
import warnings
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__, criteria, eigs, mc, multinode as mn, relu1, relusq, sgd as sgd_mod
from .chebdiff import cheb_diff_matrix, cheb_points
from .exceptions import BlowUpError, SingularPointError
from .geometry import _plane_coordinates, basin_pairs
from .linear import LinearProblem, conditioning, variance_study
from .ode import _dp45_rows


def _fmt_values(values: np.ndarray) -> np.ndarray:
    """The cells of float64 ``values``: integral values below 1e15 in
    magnitude as integers, other finite values with 17 significant digits
    (round-trip exact), and nan, inf and -inf as ``repr`` writes them, each
    of which reads back through float()."""
    cells = np.empty(len(values), dtype=object)
    finite = np.isfinite(values)
    integral = finite & (np.abs(values) < 1e15) & (values == np.trunc(values))
    fraction = finite & ~integral
    cells[integral] = [repr(int(v)) for v in values[integral].tolist()]
    cells[fraction] = [f"{v:.17g}" for v in values[fraction].tolist()]
    cells[~finite] = [repr(v) for v in values[~finite].tolist()]
    return cells


def _fmt(x) -> str:
    """One number's cell, as ``_fmt_values`` writes it; None is nan."""
    return _fmt_values(np.array([math.nan if x is None else float(x)]))[0]


def _quote(label: str) -> str:
    """A cell as ``csv.writer`` writes it among others: quoted, its quotes
    doubled, where it holds a comma, a quote or a line break."""
    if any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


def _write_csv(path: Path, table: dict) -> str:
    """Write ``table``'s equal-length columns under its keys as the header:
    each column an array of numbers, written by ``_fmt_values``, or a
    sequence of str labels, quoted by ``_quote``.  Each distinct value of a
    column is written once; each line joins its cells with commas and ends
    in CRLF, as ``csv.writer`` writes it, in UTF-8.  Returns the SHA-256 hex
    digest of the bytes written, hashed as they are written."""
    cells = []
    for col in table.values():
        col = np.asarray(col)
        if col.dtype.kind == "U":
            values, where = np.unique(col, return_inverse=True)
            text = np.array([_quote(v) for v in values.tolist()], dtype=object)
        else:
            # the float64 values of a column stand for its cells (float(x) of
            # each); None becomes nan, as _fmt writes it
            values, where = np.unique(col.astype(float), return_inverse=True)
            text = _fmt_values(values)
        cells.append(text[where].tolist())
    rows = map(",".join, zip(*cells, strict=True))
    digest = hashlib.sha256()

    def write(fh, text: str) -> None:  # its bytes are freed before the next lines are joined
        data = text.encode()
        digest.update(data)
        fh.write(data)

    with open(path, "wb") as fh:
        write(fh, ",".join(map(_quote, table)) + "\r\n")
        # a few thousand lines per write: the text of the whole file is never held
        while lines := list(islice(rows, 4096)):
            write(fh, "\r\n".join(lines) + "\r\n")
    return digest.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, cfg: dict, seconds: dict,
                    csv_sha256: dict) -> None:
    """manifest.json: the run's resolved config, its compute and CSV write
    seconds, the package, python and numpy versions and each CSV's SHA-256."""
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "package_version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "seconds": seconds,
        "csv_sha256": csv_sha256,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _accepts(default, val) -> bool:
    """Whether a --config value has the type of the flag that ``default`` declares."""
    if isinstance(default, list) and isinstance(val, list):  # and so has each item
        return all(_accepts(default[0], v) for v in val)
    # a float may be given as an int, and a comma list as a JSON list
    kinds = {float: (int, float), list: (str, list)}.get(type(default), type(default))
    return not isinstance(val, bool) and isinstance(val, kinds)


def _rule(rules: dict, key: str, default):
    """``key``'s rule: its entry in ``rules``, else its type's (a list's items' type)."""
    return rules.get(key, TYPE_RULES.get(type(default[0] if isinstance(default, list) else default)))


def _resolve(args: argparse.Namespace, defaults: dict, rules: dict) -> dict:
    """defaults < --config JSON < explicit CLI flags.  A JSON value must
    have its flag's type; a list becomes a list, and each value or item must obey its rule."""
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError(f"{args.config} must hold one JSON object")
        unknown = set(given) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in given.items():
            if not _accepts(defaults[key], val):
                raise ValueError(f"config key {key!r} must have the type of its default "
                                 f"{defaults[key]!r}, got {val!r}")
    given.update((key, getattr(args, key)) for key in defaults if getattr(args, key) is not None)
    cfg = {**defaults, **given}
    for key, default in defaults.items():
        is_list = isinstance(default, list)
        if is_list:
            cfg[key] = _parse_list(key, cfg[key], type(default[0]))
        rule = _rule(rules, key, default)
        for val in cfg[key] if is_list else [cfg[key]]:
            if rule is not None and not rule.admits(val):
                raise ValueError(f"{key}{' items' * is_list} must be {rule.text}, got {val!r}")
    return cfg


# --------------------------------------------------------------------------
# subcommands


class Rule(NamedTuple):
    """The legal values of a flag: ``text`` states them, ``admits`` tests one."""
    text: str
    admits: Callable[[Any], bool]


TYPE_RULES = {int: Rule("an integer >= 1", lambda v: v >= 1),
              float: Rule("a finite float > 0", lambda v: 0.0 < v < math.inf)}
AT_LEAST_2 = Rule("an integer >= 2", lambda v: v >= 2)
NON_NEGATIVE = Rule("a finite float >= 0", lambda v: 0.0 <= v < math.inf)
# a negative norm puts pi - theta under the theta column; an infinite one is singular
NORM = Rule("a float >= 0 or inf", lambda v: v >= 0.0)
# a teacher of norm 0 has no angle to a student; a learning rate of 0 never descends
POSITIVE_OR_INF = Rule("a float > 0 or inf", lambda v: v > 0.0)
# no step count bounds an adaptive run: the horizon bounds every flow, where
# multinode's threshold rows give up and a recorded grid holds t_end / dt rows
HORIZON = Rule(f"a float in (0, {mn._THRESHOLD_T_MAX:g}]",
               lambda v: 0.0 < v <= mn._THRESHOLD_T_MAX)


# One row per experiment subcommand: name -> (help, defaults, rules).  Each key
# ``foo_bar`` of the defaults, and of COMMON, is the flag ``--foo-bar`` typed as
# its default (a comma list for a list) and a key ``--config`` may set; its legal
# values are its ``rules`` entry, else its (items') type's in TYPE_RULES.  The
# runner is the module function ``cmd_<name with - as _>(cfg)``, looked up when the
# parser is built; ``main`` resolves cfg and writes the runner's tables and the manifest.
EXPERIMENTS = {
    "landscape": ("condition numbers and spectra over a theta grid",
                  {"dim": 2, "theta_grid": 64, "norm_w": 1.0, "norm_wstar": 1.0},
                  {"dim": AT_LEAST_2, "norm_w": NORM, "norm_wstar": POSITIVE_OR_INF}),
    "gd-compare": ("one-step GD comparison at random basin points",
                   {"dim": 8, "points": 500, "eta_factor": 0.9}, {}),
    "flow": ("single-node gradient-flow traces",
             {"kind": "both", "dim": 8, "inits": 100, "t_end": 10.0},
             {"kind": Rule("one of l2, h1, both", ("l2", "h1", "both").__contains__),
              "t_end": HORIZON}),
    "relusq": ("second-order descent checks and flows",
               {"dim": 4, "points": 1000, "inits": 100, "t_end": 4.0}, {"t_end": HORIZON}),
    "multinode": ("planar multi-node dynamics",
                  {"k_list": [2, 4, 8], "starts": 100, "ratio_starts": 20, "t_end": 60.0},
                  {"k_list": AT_LEAST_2, "t_end": HORIZON}),
    "toeplitz": ("cyclic-coefficient field Jacobians", {"k_list": [3, 5, 8]}, {"k_list": AT_LEAST_2}),
    "sgd": ("empirical SGD traces with conditioning",
            {"dim": 16, "lr": 1e-2, "batch": 64, "n_train": 10000, "steps": 2000, "seeds": 12,
             "log_every": 20}, {"lr": POSITIVE_OR_INF}),
    # estimators whose per-sample gradients live in span{w, w*} have ~2
    # effective dof per trial, so their slope fits need ~25 trials; the
    # x-valued estimators are tame at any of the default dims.  threads is
    # the Monte-Carlo worker cap and never affects results.  A cell of 2^32
    # samples is 65536 sampling blocks.
    "verify-gradients": ("MC convergence study of the closed forms",
                         {"dims": [4, 16, 64], "n_min": 10, "n_max": 17, "trials": 25,
                          "forms": ["relu:l2", "relu:h1_semi", "relu_sq:i1", "relu_sq:i2",
                                    "relu_sq:i3", "multinode:l2"], "threads": 1},
                         {"forms": Rule("of the shape model:kind", lambda v: v.count(":") == 1),
                          "n_max": Rule("an integer in [1, 32]", lambda v: 1 <= v <= 32)}),
    "linear": ("linear-model conditioning and variances",
               {"n": 200, "dim": 8, "sigma": 1.0, "lambdas": [0.5, 1.0, 2.0], "trials": 10000},
               {"sigma": NON_NEGATIVE, "lambdas": NON_NEGATIVE}),
    "chebyshev": ("differentiation-matrix exactness sweep", {"n_max": 20}, {}),
}
COMMON = {"seed": 0, "out_dir": "out"}
COMMON_RULES = {"seed": Rule("an integer >= 0", lambda v: v >= 0)}


def _joined(blocks: list[dict]) -> dict:
    """One table of ``blocks`` that share their column names: each column joined in block order."""
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


# Students per stacked Hessian eigensolve in ``landscape``: a whole grid of
# d x d matrices at once costs memory that grows with the grid, for no speed
LANDSCAPE_BLOCK = 32


def cmd_landscape(cfg: dict) -> dict:
    d = cfg["dim"]
    n = cfg["theta_grid"]
    thetas = np.arange(1, n + 1) * (math.pi / 2) / (n + 1)
    ws = np.zeros((n, d))
    ws[:, 0] = np.cos(thetas) * cfg["norm_w"]
    ws[:, 1] = np.sin(thetas) * cfg["norm_w"]
    wstar = np.zeros(d)
    wstar[0] = cfg["norm_wstar"]
    blocks = []
    for lo in range(0, n, LANDSCAPE_BLOCK):
        rep = relu1.hessians(ws[lo : lo + LANDSCAPE_BLOCK], wstar)
        blocks.append({"alpha": rep.geometry.alpha, "kappa_l2": rep.kappa_l2,
                       "kappa_h1": rep.kappa_h1, "lam_min_l2": rep.spectrum_l2.lam_min,
                       "lam_min_h1": rep.spectrum_h1.lam_min, "lam_max_l2": rep.spectrum_l2.lam_max,
                       "lam_max_h1": rep.spectrum_h1.lam_max})
    return {"landscape.csv": {"theta": thetas, **_joined(blocks)}}


def cmd_gd_compare(cfg: dict) -> dict:
    rng = np.random.default_rng(cfg["seed"])
    ws, wstar = basin_pairs(rng, cfg["dim"], cfg["points"])
    # each point steps eta_factor times its own bound C
    rep = relu1.gd_compare(ws, wstar, cfg["eta_factor"], relative=True)
    return {"gd_compare.csv": {"point_id": np.arange(len(ws)), "theta": rep.geometry.theta,
                               "max_step_c": rep.max_step_c, "eta": rep.eta, "err_l2": rep.err_l2,
                               "err_h1": rep.err_h1, "gain_f": rep.gain_f}}


# spacing of the recorded time grids of ``flow`` and of ``relusq``'s flows;
# a trajectory records t_end / dt + 1 rows
FLOW_RECORD_DT = 0.01
RELUSQ_RECORD_DT = 0.02


def _flow_rows(label: str, labels: list[str], make_field, w0: np.ndarray, wstar: np.ndarray,
               t_end: float, dt: float) -> dict:
    """Integrate every row of w0 under each of ``labels`` as one stacked run in
    the plane span{w0, w*}; the columns init_id, ``label``, t and v of its rows
    sorted by (init_id, label), with t = dt * i below ``t_end``, then ``t_end``.

    Every single-node gradient is a combination of w and w*, so each
    trajectory stays in that plane.  Each start maps to plane coordinates
    p0 = (w0.u, |w0 - (w0.u) u|), u = w*/|w*|, and the teacher to
    p* = (|w*|, 0); the (m, 2) ensemble is one recorded run of the adaptive
    Dormand-Prince loop ``ode._dp45_rows``, whose dense output gives the
    states on the grid, and V = |p - p*|^2, which equals |w - w*|^2, is
    recorded.  ``make_field`` takes the label of each stacked row (p0 tiled
    once per label, in ``labels`` order) and |w*|, and returns the
    ensemble's plane field.
    """
    m = w0.shape[0]
    p0, pstar = _plane_coordinates(w0, wstar)
    trace = _dp45_rows(make_field(np.repeat(labels, m), pstar[0]),
                       [(np.tile(p0, (len(labels), 1)), t_end, 0.0, dt)], pstar)[0].trace
    n_t, by_label = len(trace.times), np.argsort(labels)
    v = trace.v_values.reshape(n_t, len(labels), m)[:, by_label]
    return {"init_id": np.repeat(np.arange(m), len(labels) * n_t),
            label: np.tile(np.repeat(np.asarray(labels)[by_label], n_t), m),
            "t": np.tile(trace.times, m * len(labels)),
            "v": v.transpose(2, 1, 0).ravel()}


def cmd_flow(cfg: dict) -> dict:
    kinds = ["l2", "h1"] if cfg["kind"] == "both" else [cfg["kind"]]
    rng = np.random.default_rng(cfg["seed"])
    w0, wstar = basin_pairs(rng, cfg["dim"], cfg["inits"])
    return {"flow.csv": _flow_rows("kind", kinds, relu1.plane_flow_field, w0, wstar, cfg["t_end"],
                                   FLOW_RECORD_DT)}


def cmd_relusq(cfg: dict) -> dict:
    rng = np.random.default_rng(cfg["seed"])
    ws, wstar = basin_pairs(rng, cfg["dim"], cfg["points"])
    ip1, ip2, ip3 = relusq.descent_inner_products(ws, wstar).T
    w0, wstar2 = basin_pairs(rng, cfg["dim"], cfg["inits"], rmin=0.1, rmax=0.7)
    return {"relusq_descent.csv": {"point_id": np.arange(len(ws)), "ip1": ip1, "ip2": ip2,
                                   "ip3": ip3},
            "relusq_flow.csv": _flow_rows("variant", list(relusq.VARIANTS), relusq.h2_plane_field,
                                          w0, wstar2, cfg["t_end"], RELUSQ_RECORD_DT)}


def cmd_multinode(cfg: dict) -> dict:
    ks = cfg["k_list"]

    # one draw of Omega starts shared by every K, then every K's near-fixed-point
    # angles; every run below, of every K, integrates as one ensemble
    rng = np.random.default_rng(cfg["seed"])
    x0 = rng.uniform(0.15, 1.0, size=cfg["starts"])
    y0 = rng.uniform(0.0, np.maximum(x0 - 0.05, 0.0))
    angs = rng.uniform(0.15, math.pi / 2 - 0.15, size=len(ks) * cfg["ratio_starts"])
    near = np.stack([1.0 - 1e-3 * np.cos(angs), 1e-3 * np.sin(angs)], axis=1)
    k_rows = np.repeat(ks, cfg["ratio_starts"])
    decays = [mn.diagonal_rows(kind, k, 0.95, min(horizon / k, cap))
              for k in ks for kind, horizon, cap in (("l2", 30.0, 12.0), ("h1", 15.0, 6.0))]
    runs = [
        # convergence of the H1 planar flow from the Omega starts
        mn.PlanarRows("h1", np.repeat(ks, cfg["starts"]),
                      np.tile(np.stack([x0, y0], axis=1), (len(ks), 1)), cfg["t_end"]),
        # near-fixed-point time-to-threshold ratio
        mn.threshold_rows("l2", k_rows, near, 1e-4),
        mn.threshold_rows("h1", k_rows, near, 1e-4),
        *decays,
    ]
    omega, t_l2, t_h1, *decay_runs = mn.planar_flows(runs)
    final_dist = np.sqrt(omega.final_v).reshape(len(ks), -1)
    ratios = (t_l2.crossed / t_h1.crossed).reshape(len(ks), -1)
    exps = np.array(list(map(mn.decay_fit, decays, decay_runs))).reshape(len(ks), 2)

    saddles = np.array([mn.saddle_points(k) for k in ks])
    saddle_fields = np.array([[np.abs(mn.reduced_flow_field(kind, k)(np.array([x, x]))).max()
                               for kind, x in zip(("l2", "h1"), xs)] for k, xs in zip(ks, saddles)])
    return {"multinode.csv": {
        "k": ks, "x_saddle_l2": saddles[:, 0], "x_saddle_h1": saddles[:, 1],
        "saddle_field_l2": saddle_fields[:, 0], "saddle_field_h1": saddle_fields[:, 1],
        "decay_exp_l2": exps[:, 0], "decay_exp_h1": exps[:, 1],
        "time_ratio_median": np.median(ratios, axis=1), "max_final_dist": final_dist.max(axis=1)}}


def cmd_toeplitz(cfg: dict) -> dict:
    blocks = []
    for k in cfg["k_list"]:
        j_l2 = mn.toeplitz_jacobian("l2", k)
        j_h1 = mn.toeplitz_jacobian("h1", k)
        blocks.append({"k": np.full(k, k), "eig_index": np.arange(k),
                       "eig_l2": eigs.real_eigs(-j_l2).eigenvalues[::-1],
                       "expected_eig": np.sort(mn.toeplitz_linearization(k)[1]),
                       "h1_vs_2l2_maxdiff": np.full(k, np.abs(j_h1 - 2.0 * j_l2).max())})
    return {"toeplitz.csv": _joined(blocks)}


def cmd_sgd(cfg: dict) -> dict:
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
    seed, kind = (np.repeat(col, [len(trace.steps) for trace in traces]) for col in zip(*runs))
    return {"sgd.csv": {"seed": seed, "kind": kind,
                        **_joined([{"step": trace.steps, "err_sq": trace.err_sq,
                                    "kappa": trace.kappa} for trace in traces])}}


def cmd_verify_gradients(cfg: dict) -> dict:
    if cfg["n_min"] > cfg["n_max"]:
        raise ValueError(f"n_min must be <= n_max, got n_min={cfg['n_min']} and "
                         f"n_max={cfg['n_max']}")
    n_grid = [2**p for p in range(cfg["n_min"], cfg["n_max"] + 1)]
    forms = [tuple(form.split(":")) for form in cfg["forms"]]
    tables = mc._convergence_tables(forms, cfg["dims"], n_grid, cfg["trials"], cfg["seed"],
                                    cfg["threads"])
    model, kind = (np.repeat(col, [len(table) for table in tables]) for col in zip(*forms))
    dim, n, mse = np.concatenate(tables).T
    return {"convergence.csv": {"model": model, "kind": kind, "dim": dim, "log2_n": np.log2(n),
                                "mse": mse}}


def cmd_linear(cfg: dict) -> dict:
    rng = np.random.default_rng(cfg["seed"])
    X = rng.standard_normal((cfg["n"], cfg["dim"]))
    wstar = rng.standard_normal(cfg["dim"])
    problems = [LinearProblem(x_matrix=X, wstar=wstar, noise_sigma=cfg["sigma"], ridge_lambda=lam)
                for lam in cfg["lambdas"]]
    # one study: every lambda shares the noise draws and the least-squares fits
    studies = variance_study(problems, cfg["trials"], cfg["seed"] + 1)
    kappa_l2, kappa_h1 = np.array([conditioning(p) for p in problems]).T
    var_l2_emp, var_h1_emp, var_l2_formula, var_h1_formula = np.array(studies).T
    return {"linear.csv": {"lambda": cfg["lambdas"], "kappa_l2": kappa_l2, "kappa_h1": kappa_h1,
                           "var_l2_emp": var_l2_emp, "var_h1_emp": var_h1_emp,
                           "var_l2_formula": var_l2_formula, "var_h1_formula": var_h1_formula}}


def cmd_chebyshev(cfg: dict) -> dict:
    ns = np.arange(1, cfg["n_max"] + 1)
    worst, row_sum = np.zeros(len(ns)), np.zeros(len(ns))
    for i, n in enumerate(ns.tolist()):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        for k in range(n + 1):
            expected = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            worst[i] = max(worst[i], float(np.abs(d @ x**k - expected).max()))
        row_sum[i] = np.abs(d.sum(axis=1)).max()
    return {"chebyshev.csv": {"n": ns, "max_monomial_err": worst, "row_sum_max": row_sum}}


# --------------------------------------------------------------------------
# summarize: measured values from the CSV artifacts, judged by ``criteria``


# the columns that hold labels; every other column holds numbers
LABELS = ("kind", "variant", "model")


class Columns(dict):
    """The columns of one CSV by header name; a name it lacks is an error
    that names the file."""

    def __init__(self, fname: str, columns: dict):
        super().__init__(columns)
        self.fname = fname

    def __missing__(self, name):
        raise ValueError(f"{self.fname}: no column {name!r}")


def _first_fault(path: Path, header: list[str]) -> str | None:
    """'line N: ...' for the first row of ``path`` that has another number of
    cells than ``header`` or a number column cell that is no number, N its
    1-based line in the file (the header is line 1); None if every row parses."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            if not row:  # np.loadtxt skips a blank line
                continue
            if len(row) != len(header):
                return (f"line {rows.line_num}: the header requires {len(header)} columns "
                        f"but {len(row)} were found")
            for name, cell in zip(header, row):
                if name not in LABELS and not _is_float(cell):
                    return (f"line {rows.line_num}: could not convert string {cell!r} to "
                            f"float64 in column {name!r}")
    return None


def _is_float(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float64: what float() reads,
    less the non-ASCII digits and the underscores that only float() takes."""
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_csv(path: Path) -> Columns:
    """The columns of a CSV: a float array per number column, a str array per
    ``LABELS`` column.  One ``np.loadtxt`` pass parses every row against the
    header, so a row with a cell too many or too few, or a number that does
    not parse, is an error naming the file and the line (``_first_fault``),
    as is a file without rows."""
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        dtype = [(name, object if name in LABELS else float) for name in header]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: raised below
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                                   ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path.name}: {_first_fault(path, header) or exc}") from None
    if not table.size:
        raise ValueError(f"{path.name}: no rows")
    return Columns(path.name, {name: table[name].astype(str) if name in LABELS else table[name]
                               for name in header})


def _group_ids(*keys) -> np.ndarray:
    """Each row's group, rows with equal values in every ``keys`` column
    sharing one, numbered 0, 1, ... in order of first appearance."""
    codes = np.stack([np.unique(key, return_inverse=True)[1] for key in keys])
    _, first, group = np.unique(codes, axis=1, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[group]


def _groups(keys, order_by=()) -> list[np.ndarray]:
    """Row indices of each group of ``_group_ids(*keys)``, in group order,
    each group's rows sorted by the ``order_by`` columns (the first one first)."""
    group = _group_ids(*keys)
    rows = np.lexsort((*order_by[::-1], group))
    return np.split(rows, np.cumsum(np.bincount(group))[:-1])


def _traces(cols, label) -> dict[str, np.ndarray]:
    """V traces (inits, times) per value of the ``label`` column, in order of first appearance."""
    init = cols["init_id"]
    return {str(cols[label][rows[0]]): cols["v"][rows].reshape(np.unique(init[rows]).size, -1)
            for rows in _groups([cols[label]], [init, cols["t"]])}


def _measure_c1(cols):
    # outside the strict-convexity region a kappa is nan by design: such a row
    # leaves its kind's measurement where the numeric lambda_min is <= 0 too
    rel, kept, undefined = [], [], {}
    for kind in ("l2", "h1"):
        kappa, lam_min = cols[f"kappa_{kind}"], cols[f"lam_min_{kind}"]
        keep = ~(np.isnan(kappa) & (lam_min <= 0.0))
        rel.append(np.abs(cols[f"lam_max_{kind}"][keep] / lam_min[keep] - kappa[keep]) / kappa[keep])
        kept.append(keep)
        undefined[kind] = int(np.count_nonzero(~keep))
    rel = np.concatenate(rel)
    off = kept[0] & kept[1] & (cols["theta"] > criteria.MIN_THETA)
    m = {"max_rel_err": rel.max()} if rel.size else {}
    if off.any():
        m["max_kappa_gap"] = (cols["kappa_h1"] - cols["kappa_l2"])[off].max()
    return {**m, "undefined_kappa_rows": undefined} if any(undefined.values()) else m


def _measure_c2(cols):
    # numeric lambda_max against 1/2 (L2) and 1 (H1)
    dev = np.maximum(np.abs(cols["lam_max_l2"] - 0.5), np.abs(cols["lam_max_h1"] - 1.0))
    return {"max_extreme_dev": dev.max()}


def _measure_c3(cols):
    gain = cols["gain_f"]
    return {"min_gain": gain.min(), "max_excess": (cols["err_h1"] - (cols["err_l2"] - gain)).max()}


def _measure_c4(cols):
    v = _traces(cols, "kind")
    m = {f"worst_final_v_{kind}": tr[:, -1].max() for kind, tr in v.items()}
    if {"l2", "h1"} <= v.keys():
        m["ordering_excess"] = (v["h1"] - v["l2"]).max()
    if "l2" in v:
        # lambda_max(hess L) = 1/2 bounds V_l2(t) below by V_l2(0) e^-t (the mechanism)
        m["v_l2_spectral_floor"] = v["l2"][:, 0].max() * math.exp(-cols["t"].max())
    return m


def _measure_c6(cols, flow_cols):
    m = {"worst_inner_product": np.max([cols[c] for c in ("ip1", "ip2", "ip3")])}
    if flow_cols is not None:
        v = _traces(flow_cols, "variant")
        m["h2_excess"] = (v["h2"] - v["i1"]).max()
    return m


def _measure_c7(cols):
    ks = cols["k"]
    ratios = cols["time_ratio_median"]
    saddles = np.stack([cols["x_saddle_l2"], cols["x_saddle_h1"]], axis=-1)
    # diagonal decay exponents against -K/2 (L2) and -K (H1), relative
    decay_dev = np.maximum(np.abs(cols["decay_exp_l2"] + ks / 2.0) / (ks / 2.0),
                           np.abs(cols["decay_exp_h1"] + ks) / ks)
    return {
        "saddle_formula_dev": np.abs(saddles - [mn.saddle_points(k) for k in ks]).max(),
        "saddle_field_dev": np.max([cols["saddle_field_l2"], cols["saddle_field_h1"]]),
        "decay_rel_dev": decay_dev.max(),
        "max_final_dist": cols["max_final_dist"].max(),
        "time_ratio_range": [ratios.min(), ratios.max()],
        "time_ratios": {int(k): r for k, r in zip(ks, ratios)},
    }


def _measure_c8(cols):
    ks = cols["k"]
    dev = np.abs(cols["eig_l2"] - cols["expected_eig"])
    return {"worst_eig_dev": dev.max(),
            "h1_vs_2l2_maxdiff": cols["h1_vs_2l2_maxdiff"].max(),
            "eig_dev_by_k": {int(k): dev[ks == k].max() for k in np.unique(ks)}}


def _measure_c9(cols):
    model, kind, dim, log2_n, mse = (cols[c] for c in ("model", "kind", "dim", "log2_n", "mse"))
    slopes, rise, zero = {}, [], []
    for rows in _groups([model, kind, dim], [log2_n, mse]):
        first, ms = rows[0], mse[rows]
        if log2_n[first] == log2_n[rows[-1]]:
            continue  # one sample size: no slope and no rise to measure
        key = f"{model[first]}:{kind[first]}:d{_fmt(dim[first])}"
        rise.append(ms[-1] - ms[0])
        # an MSE of exactly 0 has no log: its cell is listed, not fitted, and a
        # group left with one sample size has no slope
        zero += [f"{key}:log2_n={_fmt(p)}" for p in log2_n[rows[ms == 0]]]
        fit = rows[ms != 0]
        if np.unique(log2_n[fit]).size > 1:
            slopes[key] = mc.fit_loglog_slope(2.0 ** log2_n[fit], mse[fit])
    if not rise:
        return {}
    values = list(slopes.values())
    m = {"slope_range": [np.min(values), np.max(values)]} if values else {}
    m.update(max_mse_rise=np.max(rise), slopes=slopes)
    return {**m, "zero_mse_cells": zero} if zero else m


def _measure_c10(cols):
    seed, kind, step, err = (cols[c] for c in ("seed", "kind", "step", "err_sq"))
    # each run's final error: its row of the last step
    final = np.array([rows[-1] for rows in _groups([seed, kind], [step, err])])
    med = {k: float(np.median(err[final][kind[final] == k])) for k in ("l2", "h1")}
    # both kinds' kappa at each (seed, step); a pair where either kappa was not
    # computed carries NaN and is skipped, as in the suite
    pair = _group_ids(seed, step)
    kappa = np.full((2, pair.max() + 1), np.nan)
    for i, k in enumerate(("l2", "h1")):
        kappa[i, pair[kind == k]] = cols["kappa"][kind == k]
    paired = ~np.isnan(kappa).any(axis=0)
    m = {"median_gap": med["h1"] - med["l2"],
         "median_final_l2": med["l2"], "median_final_h1": med["h1"]}
    if paired.any():
        m["kappa_excess"] = np.max(kappa[1, paired] - kappa[0, paired])
    return m


def _measure_c11(cols):
    emp, form = (np.concatenate([cols[f"var_l2_{s}"], cols[f"var_h1_{s}"]])
                 for s in ("emp", "formula"))
    ridge = cols["lambda"] > 0
    m = {"max_var_gap": (cols["var_h1_emp"] - cols["var_l2_emp"]).max()}
    # a formula variance of 0 (sigma^2 or its ridge sum underflowed) has no
    # relative error; a NaN one is kept, so that it reaches the judge
    cells = form != 0
    if cells.any():
        m["worst_rel_var_err"] = (np.abs(emp - form)[cells] / form[cells]).max()
    if ridge.any():
        m["max_kappa_gap"] = (cols["kappa_h1"] - cols["kappa_l2"])[ridge].max()
    return m


def _measure_c12(cols):
    return {"worst_err_over_n2": (cols["max_monomial_err"] / cols["n"] ** 2).max()}


# criterion -> (the CSVs it is measured from, extraction taking one ``Columns`` per CSV);
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


def _parse_list(key: str, s, conv) -> list:
    """``key``'s comma-separated string or JSON list, each item through ``conv``;
    neither the list nor any item of it is empty."""
    items = s if isinstance(s, list) else [tok.strip() for tok in s.split(",")]
    if not items or "" in items:
        raise ValueError(f"{key} must be a comma list without empty items, got {s!r}")
    return [conv(v) for v in items]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="Reproducible experiments for the Sobolev-training landscape laboratory.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (help_, defaults, rules) in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=help_)
        defaults, rules = {**defaults, **COMMON}, {**rules, **COMMON_RULES}
        for key, default in defaults.items():  # --help states each flag's rule and default
            rule = _rule(rules, key, default)
            legal = type(default).__name__ if rule is None else rule.text
            if isinstance(default, list):
                legal, default = f"comma list, each {legal}", ",".join(map(str, default))
            sp.add_argument("--" + key.replace("_", "-"), type=type(default),
                            help=f"{legal} (default {default})")
        sp.add_argument("--config", help="JSON file with defaults; explicit flags override it")
        sp.set_defaults(runner=globals()["cmd_" + name.replace("-", "_")], defaults=defaults,
                        rules=rules)
    sp = sub.add_parser("summarize", help="evaluate acceptance checks from CSVs in a directory")
    sp.add_argument("out_dir")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "summarize":
            paths = cmd_summarize(args)
        else:
            cfg = _resolve(args, args.defaults, args.rules)
            out = Path(cfg["out_dir"])
            try:  # before any compute, so that a bad --out-dir costs nothing
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"out_dir must name a directory, got {str(out)!r}: "
                                 f"{exc.strerror}") from None
            start = time.perf_counter()
            tables = args.runner(cfg)
            computed = time.perf_counter()
            digests = {name: _write_csv(out / name, table) for name, table in tables.items()}
            seconds = {"compute": computed - start, "write": time.perf_counter() - computed}
            _write_manifest(out, args.subcommand, cfg, seconds, digests)
            paths = [out / name for name in tables]
    except (SingularPointError, BlowUpError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal internal failure
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
