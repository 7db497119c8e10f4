import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sobolev_lab import cli, multinode as mn, relu1, relusq
from sobolev_lab.cli import _write_csv, main, summarize
from sobolev_lab.exceptions import SingularPointError
from sobolev_lab.geometry import _plane_coordinates, basin_pairs
from sobolev_lab.ode import rk4_integrate
from sobolev_lab.sgd import SgdConfig, sgd_run


def run(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_landscape_contract_and_header(tmp_path):
    out = tmp_path / "out"
    assert run("landscape", "--dim", "2", "--theta-grid", "16", "--out-dir", str(out)) == 0
    with open(out / "landscape.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == "theta,alpha,kappa_l2,kappa_h1,lam_min_l2,lam_min_h1,lam_max_l2,lam_max_h1"
    rows = read_rows(out / "landscape.csv")
    assert len(rows) == 16
    for r in rows:
        assert float(r["kappa_h1"]) < float(r["kappa_l2"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "landscape"
    assert manifest["config"]["theta_grid"] == 16


def test_verify_gradients_header_and_cells(tmp_path):
    out = tmp_path / "out"
    code = run(
        "verify-gradients", "--dims", "4", "--n-min", "10", "--n-max", "12",
        "--trials", "2", "--forms", "relu:l2", "--out-dir", str(out),
    )
    assert code == 0
    with open(out / "convergence.csv", newline="") as fh:
        assert fh.readline().strip() == "model,kind,dim,log2_n,mse"
    rows = read_rows(out / "convergence.csv")
    assert {(r["model"], r["kind"], r["dim"], r["log2_n"]) for r in rows} == {
        ("relu", "l2", "4", str(p)) for p in (10, 11, 12)
    }
    assert all(float(r["mse"]) > 0 for r in rows)


def test_verify_gradients_shares_draws_without_moving_a_row(tmp_path):
    # 2^17 samples span two blocks, so cells have more than one unit
    forms = ["relu:l2", "relu_sq:i3", "multinode:l2"]
    args = ("verify-gradients", "--dims", "4", "--n-min", "16", "--n-max", "17", "--trials", "2")

    def body(name, forms, threads):
        out = tmp_path / name
        assert run(*args, "--forms", ",".join(forms), "--threads", str(threads),
                   "--out-dir", str(out)) == 0
        return (out / "convergence.csv").read_text().splitlines()

    shared = body("t1", forms, 1)
    assert body("t3", forms, 3) == shared
    alone = [body(f"alone{i}", [form], 1) for i, form in enumerate(forms)]
    assert shared == alone[0][:1] + [row for rows in alone for row in rows[1:]]


def test_flow_header_and_ordering_property(tmp_path):
    out = tmp_path / "out"
    assert run("flow", "--kind", "both", "--dim", "4", "--inits", "4", "--t-end", "2",
               "--out-dir", str(out)) == 0
    with open(out / "flow.csv", newline="") as fh:
        assert fh.readline().strip() == "init_id,kind,t,v"
    rows = read_rows(out / "flow.csv")
    by = {}
    for r in rows:
        by.setdefault((r["init_id"], r["kind"]), []).append((float(r["t"]), float(r["v"])))
    for init in {k[0] for k in by}:
        for (t_l, v_l), (t_h, v_h) in zip(sorted(by[(init, "l2")]), sorted(by[(init, "h1")])):
            assert t_l == t_h
            assert v_h <= v_l + 1e-15


def test_flow_of_both_kinds_is_the_union_of_single_kind_runs(tmp_path):
    # both kinds integrate as one ensemble; every row is the row of its own kind's run
    args = ("flow", "--dim", "4", "--inits", "3", "--t-end", "0.5005")
    runs = {kind: tmp_path / kind for kind in ("both", "l2", "h1")}
    for kind, out in runs.items():
        assert run(*args, "--kind", kind, "--out-dir", str(out)) == 0
    both = read_rows(runs["both"] / "flow.csv")
    for kind in ("l2", "h1"):
        assert [r for r in both if r["kind"] == kind] == read_rows(runs[kind] / "flow.csv")


def _rk4_v(fields, w0, wstar, t_end, dt):
    """Each label's V trace (inits, times) from fixed RK4 steps of 1e-3 in the
    plane, recorded every dt: the reference the adaptive records must meet."""
    p0, pstar = _plane_coordinates(w0, wstar)
    return {label: rk4_integrate(make(pstar[0]), p0, 1e-3, t_end, pstar,
                                 record_every=round(dt / 1e-3)).v_values.T
            for label, make in fields.items()}


def test_single_node_flow_rows_match_a_fixed_step_rk4_reference(tmp_path):
    # the dense output on the grid is the flow to within 1e-8 in V
    flow, sq = tmp_path / "flow", tmp_path / "relusq"
    assert run("flow", "--inits", "100", "--t-end", "1", "--seed", "1",
               "--out-dir", str(flow)) == 0
    assert run("relusq", "--points", "2", "--inits", "100", "--seed", "1",
               "--out-dir", str(sq)) == 0
    w0, wstar = basin_pairs(np.random.default_rng(1), 8, 100)
    want_flow = _rk4_v({kind: lambda ns, kind=kind: relu1.plane_flow_field(kind, ns)
                        for kind in ("l2", "h1")}, w0, wstar, 1.0, cli.FLOW_RECORD_DT)
    rng = np.random.default_rng(1)
    basin_pairs(rng, 4, 2)  # the descent check's points come first
    w0, wstar = basin_pairs(rng, 4, 100, rmin=0.1, rmax=0.7)
    want_sq = _rk4_v({v: lambda ns, v=v: relusq.h2_plane_field(v, ns) for v in relusq.VARIANTS},
                     w0, wstar, 4.0, cli.RELUSQ_RECORD_DT)
    for path, label, want in ((flow / "flow.csv", "kind", want_flow),
                              (sq / "relusq_flow.csv", "variant", want_sq)):
        got = cli._traces(cli._read_csv(path), label)
        assert got.keys() == want.keys()
        for lab, v in want.items():
            assert got[lab].shape == v.shape
            assert np.abs(got[lab] - v).max() <= 1e-8, (path.name, lab)


def test_single_node_flow_times_are_the_grid_then_the_horizon(tmp_path):
    # t = dt * i exactly, then t_end, also when t_end is a grid multiple
    for name, argv, fname, label, dt, n in (
            ("flow", ("--dim", "3", "--inits", "2", "--t-end", "0.5005"), "flow.csv", "kind",
             cli.FLOW_RECORD_DT, 51),
            ("relusq", ("--points", "2", "--inits", "2", "--t-end", "1.3"), "relusq_flow.csv",
             "variant", cli.RELUSQ_RECORD_DT, 65)):
        out = tmp_path / name
        assert run(name, *argv, "--out-dir", str(out)) == 0
        times = {}
        for r in read_rows(out / fname):
            times.setdefault((r["init_id"], r[label]), []).append(float(r["t"]))
        assert len(times) == 4
        for key, t in times.items():
            assert t == [dt * i for i in range(n)] + [float(argv[-1])], (name, key)


def test_default_single_node_flows_evaluate_their_plane_field_at_most_3000_times(
        tmp_path, monkeypatch):
    # the step controllers take long steps on the smooth tails; fixed RK4
    # steps of 1e-3 took 40 000 (flow) and 16 000 (relusq) evaluations here
    for name, module, factory in (("flow", relu1, "plane_flow_field"),
                                  ("relusq", relusq, "h2_plane_field")):
        calls = []
        make = getattr(module, factory)

        def counted(*args, make=make, calls=calls):
            field = make(*args)
            return lambda p: calls.append(1) or field(p)

        monkeypatch.setattr(module, factory, counted)
        assert run(name, "--out-dir", str(tmp_path / name)) == 0
        assert 0 < len(calls) <= 3000, (name, len(calls))


def test_rerun_is_byte_identical_and_thread_invariant(tmp_path):
    a, b, c = (tmp_path / x for x in ("a", "b", "c"))
    args = ["verify-gradients", "--dims", "4", "--n-min", "10", "--n-max", "11",
            "--trials", "1", "--forms", "relu:h1_semi"]
    assert run(*args, "--out-dir", str(a), "--threads", "1") == 0
    assert run(*args, "--out-dir", str(b), "--threads", "1") == 0
    assert run(*args, "--out-dir", str(c), "--threads", "4") == 0
    body_a = (a / "convergence.csv").read_bytes()
    assert body_a == (b / "convergence.csv").read_bytes()
    assert body_a == (c / "convergence.csv").read_bytes()


def test_threads_come_only_from_the_flag_or_config(tmp_path, monkeypatch):
    # the worker count is a key like any other: no environment variable sets it
    monkeypatch.setenv("SOBOLEV_LAB_THREADS", "x")
    assert run("verify-gradients", *SMALL["verify-gradients"], "--out-dir", str(tmp_path)) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["threads"] == 1


def test_every_subcommand_is_built_from_its_table_row(tmp_path, monkeypatch):
    for name, (_, defaults, rules) in cli.EXPERIMENTS.items():
        keys = set(defaults) | set(cli.COMMON)
        assert set(rules) <= set(defaults), name
        parser_keys = {"subcommand", "runner", "defaults", "rules"}
        dests = set(vars(cli.build_parser().parse_args([name]))) - parser_keys
        assert dests == keys | {"config"}, name
        # the runner is read from the module when the parser is built, so a
        # patched cmd_* (as the span tracer installs) is the one that runs
        calls = []
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                            lambda cfg: calls.append(cfg) or {})
        out = tmp_path / name
        assert run(name, "--out-dir", str(out)) == 0
        # the manifest records the resolved configuration the runner got
        assert [json.loads((out / "manifest.json").read_text())["config"]] == calls, name
        assert set(calls[0]) == keys, name


def test_help_states_each_flags_rule_and_default(capsys):
    for argv, flag, text in ((["multinode"], "--k-list", "comma list, each an integer >= 2 "
                              "(default 2,4,8)"),
                             (["multinode"], "--t-end", "a float in (0, 120] (default 60.0)"),
                             (["landscape"], "--norm-w", "a float >= 0 or inf (default 1.0)"),
                             (["landscape"], "--norm-wstar", "a float > 0 or inf (default 1.0)"),
                             (["gd-compare"], "--eta-factor", "a finite float > 0 (default 0.9)"),
                             (["verify-gradients"], "--threads", "an integer >= 1 (default 1)"),
                             (["flow"], "--kind", "one of l2, h1, both (default both)")):
        with pytest.raises(SystemExit):
            run(*argv, "--help")
        out = " ".join(capsys.readouterr().out.split())
        assert f"{flag} {flag[2:].upper().replace('-', '_')} {text}" in out, (flag, out)


SMALL = {
    "landscape": ("--theta-grid", "3"),
    "gd-compare": ("--points", "3"),
    "flow": ("--inits", "2", "--t-end", "0.01", "--dim", "3"),
    "relusq": ("--points", "3", "--inits", "2", "--t-end", "0.01"),
    "multinode": ("--k-list", "2", "--starts", "2", "--ratio-starts", "1", "--t-end", "0.01"),
    "toeplitz": ("--k-list", "3"),
    "sgd": ("--seeds", "1", "--steps", "5", "--n-train", "100", "--batch", "8"),
    "verify-gradients": ("--dims", "2", "--n-min", "4", "--n-max", "5", "--trials", "1",
                         "--forms", "relu:l2,multinode:l2"),
    "linear": ("--trials", "10", "--n", "20", "--dim", "3"),
    "chebyshev": ("--n-max", "3"),
}


def test_manifest_config_reproduces_the_run(tmp_path):
    # every resolved key, threads included, lands in the manifest, and the
    # manifest's config fed back through --config gives the same CSV bodies
    assert set(SMALL) == set(cli.EXPERIMENTS)
    for name, argv in SMALL.items():
        if "threads" in cli.EXPERIMENTS[name][1]:
            argv = (*argv, "--threads", "2")
        first, again = tmp_path / name / "first", tmp_path / name / "again"
        assert run(name, *argv, "--seed", "3", "--out-dir", str(first)) == 0, name
        config = json.loads((first / "manifest.json").read_text())["config"]
        cfg = tmp_path / name / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(name, "--config", str(cfg), "--out-dir", str(again)) == 0, name
        replayed = json.loads((again / "manifest.json").read_text())["config"]
        assert replayed == {**config, "out_dir": str(again)}, name
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs and csvs == sorted(p.name for p in again.glob("*.csv")), name
        for fname in csvs:
            assert (first / fname).read_bytes() == (again / fname).read_bytes(), (name, fname)
        if "threads" in config:
            assert config["threads"] == 2, name


def test_manifest_records_the_cost_the_versions_and_each_csv_digest(tmp_path):
    # the digests are of the bytes written, and every subcommand's CSVs have one
    for name, argv in SMALL.items():
        out = tmp_path / name
        assert run(name, *argv, "--out-dir", str(out)) == 0, name
        manifest = json.loads((out / "manifest.json").read_text())
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert sorted(manifest["csv_sha256"]) == csvs, name
        for fname, digest in manifest["csv_sha256"].items():
            assert digest == hashlib.sha256((out / fname).read_bytes()).hexdigest(), (name, fname)
        seconds = manifest["seconds"]
        assert set(seconds) == {"compute", "write"}, name
        assert all(math.isfinite(v) and v >= 0.0 for v in seconds.values()), (name, seconds)
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__}, name


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_grid": 5, "dim": 3}))
    out = tmp_path / "out"
    assert run("landscape", "--config", str(cfg), "--theta-grid", "7", "--out-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["theta_grid"] == 7  # flag beats file
    assert manifest["config"]["dim"] == 3  # file beats default
    assert len(read_rows(out / "landscape.csv")) == 7


@pytest.mark.parametrize("entry", [{"norm_w": "2"}, {"theta_grid": 2.5}, {"dim": True}])
def test_config_value_of_the_wrong_type_is_validation_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert run("landscape", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
    assert repr(next(iter(entry))) in capsys.readouterr().err


def test_config_takes_an_int_for_a_float_and_a_list_for_a_comma_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambdas": [1, 2.5], "sigma": 2, "trials": 50}))
    assert run("linear", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
    assert [float(r["lambda"]) for r in read_rows(tmp_path / "linear.csv")] == [1.0, 2.5]


def test_unknown_config_key_is_validation_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("landscape", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
    cfg.write_text(json.dumps([["dim", 3]]))
    assert run("landscape", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2


def test_validation_failures_exit_2(tmp_path, capsys):
    assert run("landscape", "--dim", "1", "--out-dir", str(tmp_path / "o")) == 2
    assert run("summarize", str(tmp_path / "does-not-exist")) == 2
    # a zero logging interval is a bad configuration, not an internal error
    assert run("sgd", "--log-every", "0", "--seeds", "1", "--steps", "5",
               "--out-dir", str(tmp_path / "s")) == 2
    # a count below 1 or an empty list would write a header-only or nan CSV
    for argv in (("multinode", "--ratio-starts", "0"),
                 ("multinode", "--starts", "0"),
                 ("multinode", "--k-list", ""),
                 # an empty item would run a list other than the one typed
                 ("linear", "--lambdas", "1,,2"),
                 ("toeplitz", "--k-list", "8,16,"),
                 # a list item below its rule
                 ("multinode", "--k-list", "2,-1"),
                 ("toeplitz", "--k-list", "0"),
                 ("verify-gradients", "--dims", "0", "--n-min", "4", "--n-max", "4", "--trials", "1"),
                 ("linear", "--lambdas", "1,-0.5"),
                 ("flow", "--kind", "l1", "--inits", "2"),
                 ("flow", "--inits", "0"),
                 # a horizon or step that is not a finite float
                 ("flow", "--inits", "2", "--t-end", "inf"),
                 ("flow", "--inits", "2", "--t-end", "nan"),
                 ("relusq", "--points", "2", "--inits", "2", "--t-end", "inf"),
                 ("multinode", "--k-list", "2", "--t-end", "inf"),
                 ("multinode", "--k-list", "2", "--t-end", "nan"),
                 # a horizon past the threshold rows' 120, where they give up
                 ("multinode", "--k-list", "2", "--t-end", "120.5"),
                 # the K-node flows need K >= 2
                 ("toeplitz", "--k-list", "1"),
                 ("multinode", "--k-list", "1"),
                 ("verify-gradients", "--trials", "0"),
                 ("verify-gradients", "--n-min", "5", "--n-max", "3"),
                 # 2^70 samples per cell: its block list once ran out of memory (exit 1)
                 ("verify-gradients", "--n-min", "70", "--n-max", "70"),
                 ("sgd", "--batch", "0", "--seeds", "1", "--steps", "3"),
                 # a stepsize factor that is not positive and finite
                 ("gd-compare", "--points", "3", "--eta-factor", "inf"),
                 ("gd-compare", "--points", "3", "--eta-factor", "nan"),
                 ("gd-compare", "--points", "3", "--eta-factor", "0"),
                 ("gd-compare", "--points", "3", "--eta-factor", "-1"),
                 # a negative norm would put pi - theta under the theta column
                 ("landscape", "--theta-grid", "2", "--norm-w", "-1"),
                 ("landscape", "--theta-grid", "2", "--norm-wstar", "-1"),
                 ("landscape", "--theta-grid", "2", "--norm-w", "nan"),
                 # a noise level that is not finite, a rate that never descends
                 ("linear", "--sigma", "inf"),
                 ("sgd", "--lr", "0", "--seeds", "1", "--steps", "3"),
                 ("sgd", "--lr", "-1", "--seeds", "1", "--steps", "3"),
                 # a negative seed, where the subcommand draws and where it does not
                 ("linear", "--trials", "2", "--seed=-1"),
                 ("chebyshev", "--n-max", "3", "--seed=-1")):
        assert run(*argv, "--out-dir", str(tmp_path / "e")) == 2, argv
        assert not (tmp_path / "e" / "manifest.json").exists(), argv
    capsys.readouterr()
    # no step count bounds an adaptive run and a recorded grid holds
    # t_end / dt rows, so the horizon bounds every flow: one error line that
    # names it and no cast warning
    for argv in (("flow", "--t-end", "120.5", "--inits", "1"),
                 ("relusq", "--t-end", "1e300", "--points", "2", "--inits", "1"),
                 ("multinode", "--t-end", "1e300", "--k-list", "2", "--starts", "1",
                  "--ratio-starts", "1")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out-dir", str(tmp_path / "e")) == 2, argv
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "t_end" in err[0], argv
        assert not (tmp_path / "e" / "manifest.json").exists(), argv
    cfg = tmp_path / "cfg.json"
    # a count below 1, a list item below its rule or of the wrong type
    for entry, named in (({"ratio_starts": 0}, "ratio_starts"), ({"k_list": [2, 0]}, "k_list"),
                         ({"k_list": [2.7]}, "k_list"), ({"k_list": [True]}, "k_list")):
        cfg.write_text(json.dumps(entry))
        assert run("multinode", "--config", str(cfg), "--out-dir", str(tmp_path / "e")) == 2
        assert named in capsys.readouterr().err
    # an item that breaks its rule is named with the rule, as are a zero
    # teacher norm and a dimension too small for the two teachers of a
    # multinode form
    mc_small = ("verify-gradients", "--n-min", "4", "--n-max", "4", "--trials", "1")
    for argv, named in ((("multinode", "--k-list", "0"), ("k_list", "integer >= 2")),
                        (("linear", "--lambdas", "1,,2"), ("lambdas", "empty items", "'1,,2'")),
                        (("toeplitz", "--k-list", "8,16,"), ("k_list", "empty items", "'8,16,'")),
                        (("landscape", "--theta-grid", "2", "--norm-wstar", "0"),
                         ("norm_wstar", "a float > 0 or inf")),
                        ((*mc_small, "--dims", "0"), ("dims", "integer >= 1")),
                        ((*mc_small, "--dims", "1", "--forms", "multinode:l2"),
                         ("multinode", "dim >= 2")),
                        # the sample grid's bound, and the two ends of the grid
                        (("verify-gradients", "--n-min", "70", "--n-max", "70"),
                         ("n_max", "an integer in [1, 32]")),
                        (("verify-gradients", "--n-min", "12", "--n-max", "10"),
                         ("n_min=12", "n_max=10"))):
        assert run(*argv, "--out-dir", str(tmp_path / "e")) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and all(name in err[0] for name in named), err
    # a worker count below 1 and a form that is not model:kind: one error
    # line each, no run
    small = ("verify-gradients", "--dims", "2", "--n-min", "4", "--n-max", "4", "--trials", "1",
             "--out-dir", str(tmp_path / "v"))
    for extra, named in ((("--threads", "0"), ("threads",)),
                         (("--threads", "-3"), ("threads",)),
                         (("--forms", "relu"), ("'relu'", "model:kind")),
                         (("--forms", "relu:l2,relu_sq:i1:i2"), ("'relu_sq:i1:i2'", "model:kind")),
                         # the parts of relu_sq are three kinds, not one
                         (("--forms", "relu_sq:h2_parts"), ("'h2_parts'",))):
        assert run(*small, *extra) == 2, extra
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert all(name in err[0] for name in named), err
        assert not (tmp_path / "v" / "manifest.json").exists(), extra


def test_an_out_dir_that_cannot_be_made_exits_2(tmp_path, capsys):
    # a file, or a path under one, is a bad --out-dir, not an internal error
    afile = tmp_path / "afile"
    afile.write_text("kept")
    for out, reason in ((afile, "File exists"), (afile / "sub", "Not a directory")):
        assert run("chebyshev", "--out-dir", str(out)) == 2, out
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: out_dir must name a directory, got {str(out)!r}: {reason}"], err
    assert afile.read_text() == "kept"


EDGES = {float: ("0", "-1", "1e-300", "5e-324", "1e300", "inf", "-inf", "nan"),
         int: ("-1", "0", "1", "2")}


def _edge_cases():
    """(subcommand, --flag=value): every number and list item of every table
    row at each edge value, and a worker count that is no integer."""
    cases = []
    for name, (_, defaults, _) in cli.EXPERIMENTS.items():
        for key, default in {**defaults, **cli.COMMON}.items():
            kind = type(default[0]) if isinstance(default, list) else type(default)
            cases += [(name, f"--{key.replace('_', '-')}={v}") for v in EDGES.get(kind, ())]
    return cases + [("verify-gradients", "--threads=x")]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_edge_cases()))
# a K of 0 once divided by zero (exit 1); a dimension of 0 warned in the
# multinode form's pair draw
@example(("multinode", "--k-list=0"))
@example(("verify-gradients", "--dims=0"))
# a formula variance that underflowed to 0 once divided by zero in summarize
@example(("linear", "--sigma=0"))
@example(("linear", "--lambdas=1e300"))
def test_any_edge_value_exits_0_2_or_3_without_a_warning(case):
    # argparse reads a bare -inf as an option, hence --flag=value; its own
    # exit (a value that is not a number) counts as exit 2 and prints usage
    name, flag = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        out = Path(tmp) / "out"
        parsed = True
        try:
            code = run(name, *SMALL[name], flag, "--out-dir", str(out))
        except SystemExit as exc:
            code, parsed = exc.code, False
        wrote_manifest = (out / "manifest.json").exists()
        wrote_csv = any(out.glob("*.csv"))
        if code == 0:  # and summarize measures what the run wrote
            cli.summarize(out)
    assert code in (0, 2, 3), (case, err.getvalue())
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], case
    if code != 0:
        assert not wrote_manifest and not wrote_csv, case
        assert len(err.getvalue().splitlines()) == 1 or not parsed, (case, err.getvalue())


def test_an_internal_error_without_a_message_names_its_type(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_chebyshev", fail)
    assert run("chebyshev", "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == ["internal error: MemoryError"]
    assert not (tmp_path / "manifest.json").exists()


def test_a_subcommand_that_raises_writes_no_csv(tmp_path, capsys, monkeypatch):
    # relusq's descent table is computed before its flows: a flow that raised
    # once left relusq_descent.csv without a manifest, and summarize judged
    # c6 on it alone
    def singular(variants, norm_wstar):
        raise SingularPointError("a singular plane field")

    monkeypatch.setattr(relusq, "h2_plane_field", singular)
    assert run("relusq", *SMALL["relusq"], "--out-dir", str(tmp_path)) == 3
    assert capsys.readouterr().err.splitlines() == ["numerical error: a singular plane field"]
    assert list(tmp_path.iterdir()) == []


def test_numerical_failures_exit_3(tmp_path, capsys):
    # singular points are not configuration errors
    assert run("landscape", "--norm-w", "0", "--out-dir", str(tmp_path / "a")) == 3
    assert run("linear", "--n", "4", "--dim", "8", "--lambdas", "0",
               "--out-dir", str(tmp_path / "b")) == 3
    # an infinite student is a singular point, not a bad configuration
    assert run("landscape", "--norm-w", "inf", "--theta-grid", "2", "--out-dir", str(tmp_path / "c")) == 3
    # a diverging SGD run is a blow-up, not a CSV of inf errors
    assert run("sgd", "--lr", "1e6", "--seeds", "1", "--steps", "50",
               "--out-dir", str(tmp_path / "d")) == 3
    assert "numerical error:" in capsys.readouterr().err
    # variances that overflow the floats: one numerical error line, no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("linear", "--sigma", "1e300", "--trials", "10",
                   "--out-dir", str(tmp_path / "e")) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")
    # a stepsize whose squared errors overflow still has finite errors; a
    # stepped point that leaves the floats is one numerical error line
    for factor, code in (("1e160", 0), ("1e200", 0), ("1e300", 0), ("1e308", 3)):
        out = tmp_path / f"g{factor}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("gd-compare", "--eta-factor", factor, "--out-dir", str(out)) == code, factor
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], factor
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
            for r in read_rows(out / "gd_compare.csv"):
                assert all(math.isfinite(float(r[c])) for c in ("err_l2", "err_h1", "gain_f")), r
        else:
            assert len(err) == 1 and err[0].startswith("numerical error:"), err


def test_sgd_blow_up_reports_only_the_numerical_error(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("sgd", "--lr", "1e6", "--seeds", "1", "--steps", "50",
                   "--out-dir", str(tmp_path)) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")


def test_flow_blow_up_reports_only_the_numerical_error(tmp_path, capsys, monkeypatch):
    # the adaptive loop catches a row that leaves the finite floats, so
    # numpy's overflow warnings would only repeat it.  No legal flag makes a
    # single-node flow blow up, so its field becomes p' = p^2, which leaves
    # the floats at t = 1/b from a plane start (a, b) with b > 0
    monkeypatch.setattr(relu1, "plane_flow_field", lambda kind, norm_wstar: lambda p: p * p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("flow", "--inits", "2", "--t-end", "120", "--out-dir", str(tmp_path / "r")) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")


def test_toeplitz_complex_spectrum_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    # a Jacobian with a complex pair is not written out as its real part
    def rotation_block(kind, k):
        j = np.eye(k)
        j[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        return j

    monkeypatch.setattr(mn, "toeplitz_jacobian", rotation_block)
    assert run("toeplitz", "--k-list", "4", "--out-dir", str(tmp_path)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:"), err
    assert not (tmp_path / "toeplitz.csv").exists()


def test_tiny_nonzero_student_is_not_singular(tmp_path):
    # w.w underflows to 0 at |w| = 1e-300; the norm must not
    out = tmp_path / "out"
    assert run("landscape", "--norm-w", "1e-300", "--theta-grid", "2", "--out-dir", str(out)) == 0
    rows = read_rows(out / "landscape.csv")
    assert len(rows) == 2
    for r in rows:
        for col in ("alpha", "lam_min_l2", "lam_min_h1", "lam_max_l2", "lam_max_h1"):
            assert math.isfinite(float(r[col])), col
        # alpha = |w*| / (2 pi |w| sin theta)
        expected = 1.0 / (2 * math.pi * 1e-300 * math.sin(float(r["theta"])))
        assert float(r["alpha"]) == pytest.approx(expected, rel=1e-12)


def test_summarize_empty_dir_reports_all_missing(tmp_path):
    report = summarize(tmp_path)
    assert len(report["criteria"]) == 13
    assert all(v["status"] == "missing" for v in report["criteria"].values())


def test_summarize_partial_dir_evaluates_only_present(tmp_path):
    out = tmp_path / "out"
    assert run("landscape", "--theta-grid", "6", "--out-dir", str(out)) == 0
    assert run("summarize", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    crits = report["criteria"]
    assert crits["c1_condition_number_law"]["status"] == "pass"
    assert crits["c2_hessian_spectra"]["status"] == "pass"
    assert crits["c3_one_step_gd"]["status"] == "missing"
    assert crits["c9_mc_verification"]["status"] == "missing"


def test_c1_measures_each_kind_where_its_kappa_is_defined(tmp_path):
    # at |w| = 1/2, 27 of the 64 grid rows lie outside the L2 convexity region:
    # their kappa_l2 is nan by design and their numeric lambda_min_l2 is < 0.
    # They once made max_rel_err and max_kappa_gap NaN and c1 fail
    assert run("landscape", "--norm-w", "0.5", "--out-dir", str(tmp_path)) == 0
    c1 = summarize(tmp_path)["criteria"]["c1_condition_number_law"]
    assert c1["status"] == "pass", c1
    assert c1["measured"]["undefined_kappa_rows"] == {"l2": 27, "h1": 0}


def test_c1_fails_on_an_undefined_kappa_at_a_positive_lambda_min(tmp_path):
    # a nan kappa is excused only where the numeric spectrum is not positive
    rows = ["theta,kappa_l2,kappa_h1,lam_min_l2,lam_min_h1,lam_max_l2,lam_max_h1",
            "0.1,1.25,1.2,0.4,0.8333333333333334,0.5,1", "0.2,nan,1.2,0.4,0.8333333333333334,0.5,1"]
    (tmp_path / "landscape.csv").write_text("\n".join(rows) + "\n")
    c1 = summarize(tmp_path)["criteria"]["c1_condition_number_law"]
    assert c1["status"] == "fail", c1
    assert "undefined_kappa_rows" not in c1["measured"]


def test_summarize_leaves_c9_unmeasured_for_one_sample_size(tmp_path):
    # a log-log slope through one point is no measurement: it once came out of
    # a rank-deficient fit as "fail" (or "error" under a RuntimeWarning filter)
    out = tmp_path / "out"
    assert run("verify-gradients", "--dims", "4", "--n-min", "10", "--n-max", "10", "--trials", "1",
               "--forms", "relu:l2", "--out-dir", str(out)) == 0
    assert run("summarize", str(out)) == 0
    c9 = json.loads((out / "report.json").read_text())["criteria"]["c9_mc_verification"]
    assert c9["status"] == "missing" and c9["measured"] == {}, c9


def test_summarize_fits_c9_slopes_without_a_zero_mse_cell(tmp_path):
    # at dim 1 the span-count estimate equals the closed form whenever half
    # of the samples are active, so a cell's MSE can be exactly 0: it once
    # warned in log2 and made its slope NaN.  It is listed, not fitted
    assert run("verify-gradients", "--dims", "1", "--n-min", "1", "--n-max", "2", "--trials", "1",
               "--forms", "relu:l2,relu_sq:i3", "--out-dir", str(tmp_path)) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measured = summarize(tmp_path)["criteria"]["c9_mc_verification"]["measured"]
    assert not any(math.isnan(s) for s in measured["slopes"].values()), measured
    # relu_sq:i3 keeps one sample size, so it has no slope
    assert list(measured["slopes"]) == ["relu:l2:d1"], measured
    assert measured["zero_mse_cells"] == ["relu_sq:i3:d1:log2_n=2"], measured


def test_sgd_and_linear_and_toeplitz_subcommands(tmp_path):
    out = tmp_path / "out"
    assert run("sgd", "--seeds", "2", "--steps", "200", "--n-train", "1000",
               "--log-every", "50", "--out-dir", str(out)) == 0
    rows = read_rows(out / "sgd.csv")
    assert {r["kind"] for r in rows} == {"l2", "h1"}
    assert run("linear", "--trials", "2000", "--out-dir", str(out)) == 0
    lrows = read_rows(out / "linear.csv")
    assert all(float(r["kappa_h1"]) < float(r["kappa_l2"]) for r in lrows)
    assert run("toeplitz", "--k-list", "3", "--out-dir", str(out)) == 0
    trows = read_rows(out / "toeplitz.csv")
    assert len(trows) == 3
    # the exact Jacobian carries couplings the idealized matrix drops
    assert float(trows[0]["h1_vs_2l2_maxdiff"]) > 0.1


def test_sgd_rows_are_the_lone_runs(tmp_path):
    # the subcommand steps every (seed, kind) run as one ensemble
    assert run("sgd", "--seeds", "2", "--steps", "60", "--n-train", "200", "--batch", "16",
               "--dim", "5", "--log-every", "7", "--seed", "3", "--out-dir", str(tmp_path)) == 0
    expected = []
    for s in range(2):
        for kind in ("l2", "h1"):
            trace = sgd_run(SgdConfig(dim=5, batch_size=16, n_train=200, learning_rate=1e-2,
                                      n_steps=60, seed=3000 + s, loss_kind=kind, log_every=7))
            expected += [[str(s), kind, str(st), cli._fmt(e), cli._fmt(k)]
                         for st, e, k in zip(trace.steps, trace.err_sq, trace.kappa)]
    with open(tmp_path / "sgd.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == expected


def test_relusq_subcommand_descent_holds(tmp_path):
    out = tmp_path / "out"
    assert run("relusq", "--points", "50", "--inits", "5", "--t-end", "1.0",
               "--out-dir", str(out)) == 0
    for r in read_rows(out / "relusq_descent.csv"):
        assert max(float(r["ip1"]), float(r["ip2"]), float(r["ip3"])) < 0.0


def test_multinode_subcommand_columns(tmp_path):
    out = tmp_path / "out"
    assert run("multinode", "--k-list", "2", "--starts", "10", "--ratio-starts", "4",
               "--t-end", "40", "--out-dir", str(out)) == 0
    rows = read_rows(out / "multinode.csv")
    assert len(rows) == 1
    r = rows[0]
    assert abs(float(r["x_saddle_l2"]) - 0.5341549) < 1e-6
    assert abs(float(r["decay_exp_l2"]) + 1.0) < 0.02
    assert abs(float(r["decay_exp_h1"]) + 2.0) < 0.04
    assert float(r["max_final_dist"]) < 1e-6
    # the exact planar field contracts the slow mode faster than the
    # idealized quarter-rate, landing the ratio near 1.6 rather than 2
    assert 1.4 <= float(r["time_ratio_median"]) <= 1.8


def test_multinode_rows_do_not_depend_on_the_other_k(tmp_path):
    # every K shares one draw of Omega starts, and each K's near-fixed-point
    # angles follow those of the K before it, so adding K = 4 leaves K = 2 alone
    one, two, four = tmp_path / "one", tmp_path / "two", tmp_path / "four"
    args = ("multinode", "--starts", "5", "--ratio-starts", "3", "--t-end", "2")
    assert run(*args, "--k-list", "2", "--out-dir", str(one)) == 0
    assert run(*args, "--k-list", "2,4", "--out-dir", str(two)) == 0
    assert run(*args, "--k-list", "4", "--out-dir", str(four)) == 0
    lines = (two / "multinode.csv").read_text().splitlines()
    assert lines[:2] == (one / "multinode.csv").read_text().splitlines()
    rows = read_rows(two / "multinode.csv")
    assert [r["k"] for r in rows] == ["2", "4"]
    # K = 4 flows from the same Omega starts as in a run of K = 4 alone
    (alone,) = read_rows(four / "multinode.csv")
    assert rows[1]["max_final_dist"] == alone["max_final_dist"]
    measured = summarize(two)["criteria"]["c7_multinode_dynamics"]["measured"]
    assert measured["time_ratios"] == {r["k"]: float(r["time_ratio_median"]) for r in rows}


def test_multinode_takes_a_large_k(tmp_path):
    # the flow is stiff at large K (the diagonal decays at rate K, over a
    # horizon of 15 / K): each row's step controller keeps it stable and
    # exact, where fixed RK4 steps of 1e-3 overshot the horizon (K = 15001),
    # blew up (K = 5000) or fitted a rate off by 2% (K = 1000)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("multinode", "--k-list", "1000,20000", "--starts", "2", "--ratio-starts", "2",
                   "--t-end", "0.5", "--out-dir", str(out)) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    measured = summarize(out)["criteria"]["c7_multinode_dynamics"]["measured"]
    assert measured["decay_rel_dev"] <= 1e-4
    assert all(1.0 < r < 2.0 for r in measured["time_ratios"].values())


def test_default_multinode_evaluates_the_planar_field_at_most_3000_times(tmp_path, monkeypatch):
    # the step controllers take long steps on the flows' smooth tails; fixed
    # RK4 steps of 1e-3 took 240 006 evaluations here
    calls = []
    factory = mn.reduced_flow_field

    def counted(kind, k):
        field = factory(kind, k)
        return lambda s: calls.append(1) or field(s)

    monkeypatch.setattr(mn, "reduced_flow_field", counted)
    assert run("multinode", "--out-dir", str(tmp_path)) == 0
    assert 0 < len(calls) <= 3000


def test_multinode_saddle_field_covers_both_components(tmp_path):
    # at K = 16 (L2) the saddle's xdot is 0 while ydot is not
    out = tmp_path / "out"
    assert run("multinode", "--k-list", "16", "--starts", "2", "--ratio-starts", "2",
               "--t-end", "0.01", "--out-dir", str(out)) == 0
    (r,) = read_rows(out / "multinode.csv")
    for kind in ("l2", "h1"):
        x = float(r[f"x_saddle_{kind}"])
        f = mn.reduced_flow_field(kind, 16)(np.array([x, x]))
        assert float(r[f"saddle_field_{kind}"]) == max(abs(f[0]), abs(f[1]))
    assert float(r["saddle_field_l2"]) > 0.0
    assert "converged_frac" not in r


def test_float_format_roundtrips(tmp_path):
    out = tmp_path / "out"
    assert run("landscape", "--theta-grid", "3", "--out-dir", str(out)) == 0
    for r in read_rows(out / "landscape.csv"):
        v = float(r["kappa_l2"])
        assert f"{v:.17g}" == r["kappa_l2"]
    # non-finite values (max_step_c is inf where the step bound is vacuous)
    _write_csv(out / "nonfinite.csv", {"v": [math.inf, -math.inf, math.nan, 0.1]})
    back = [float(r["v"]) for r in read_rows(out / "nonfinite.csv")]
    assert back[:2] == [math.inf, -math.inf]
    assert math.isnan(back[2]) and back[3] == 0.1


# numbers _fmt writes in each of its ways: nan and the infinities, signed
# zeros, integers below and above its 1e15 bound, subnormals, the largest floats
SPECIAL = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308,
           1e15, -1e15, 1e15 - 1, 1e15 + 2, 2.0**53 + 2, 0.1)
_floats = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(-2e15, 2e15))
_ints = st.one_of(st.integers(-10**15 - 2, 10**15 + 2), st.integers(-2**62, 2**62))
# a cell is a Python or a numpy number
_numbers = st.one_of(_floats.flatmap(lambda x: st.sampled_from([x, np.float64(x)])),
                     _ints.flatmap(lambda i: st.sampled_from([i, np.int64(i)])))
# labels: printable ASCII with quotes, commas and spaces, but no line break
_labels = st.text(st.characters(codec="ascii", categories=["L", "N", "P", "Zs"]), max_size=6)


@st.composite
def _tables(draw):
    """{name: column}: 1-3 number columns and up to 2 label columns of one
    length, each number column a list or an array, each label column named
    as ``cli.LABELS`` names them."""
    n = draw(st.integers(1, 12))
    numbers = draw(st.lists(st.lists(_numbers, min_size=n, max_size=n), min_size=1, max_size=3))
    numbers = [np.asarray(col) if draw(st.booleans()) else col for col in numbers]
    labels = draw(st.lists(st.lists(_labels, min_size=n, max_size=n), max_size=2))
    named = [(f"x{i}", col) for i, col in enumerate(numbers)] + list(zip(cli.LABELS, labels))
    order = draw(st.permutations(range(len(named))))
    return dict(named[i] for i in order)


@settings(max_examples=200, deadline=None, database=None)
@given(_tables())
def test_columns_write_the_row_wise_bytes_and_read_back(table):
    # the columnar writer gives the bytes of csv.writer over _fmt cell by
    # cell, and the reader gives back every column
    header, columns = list(table), list(table.values())
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([v if isinstance(v, str) else cli._fmt(v) for v in row])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write_csv(path, table)
        assert path.read_bytes() == ref.getvalue().encode()
        back = cli._read_csv(path)
    assert list(back) == header
    for name, col in zip(header, columns):
        if name in cli.LABELS:
            assert back[name].tolist() == col
        else:
            assert np.array_equal(back[name], np.asarray(col, dtype=float), equal_nan=True), name


def _lines(edit):
    """A corruption of a CSV's text: ``edit`` maps its list of lines to another."""
    return lambda text: "\n".join(edit(text.splitlines())) + "\n"


@pytest.mark.parametrize("corrupt, fault", [
    (_lines(lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0]]), "requires 4 columns but 3 were found"),
    (_lines(lambda ls: ls[:3] + [ls[3] + ",0"] + ls[4:]), "requires 4 columns but 5 were found"),
    (_lines(lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0] + ",x"] + ls[6:]),
     "could not convert string 'x'"),
    (_lines(lambda ls: [line.rsplit(",", 1)[0] for line in ls]), "no column 'v'"),
    (_lines(lambda ls: ls[:1]), "no rows"),
], ids=["truncated-last-row", "extra-cell", "word-for-number", "missing-column", "no-rows"])
def test_a_malformed_csv_is_an_error_naming_the_file_and_the_fault(tmp_path, corrupt, fault):
    # a row with a cell too few or too many, a cell that is no number, a
    # missing column and no rows: an error note that starts with the file's
    # name, on exactly the criteria measured from that file; no column is
    # shortened to make the rows fit
    assert run("flow", "--inits", "2", "--t-end", "0.1", "--out-dir", str(tmp_path)) == 0
    assert run("landscape", "--theta-grid", "4", "--out-dir", str(tmp_path)) == 0
    flow = tmp_path / "flow.csv"
    flow.write_text(corrupt(flow.read_text()))
    statuses = {}
    for crit, entry in summarize(tmp_path)["criteria"].items():
        statuses[crit] = entry["status"]
        if crit == "c4_h1_flow_acceleration":
            assert entry["note"].startswith("flow.csv: ") and fault in entry["note"], entry["note"]
            assert entry["measured"] == {}
    assert statuses.pop("c4_h1_flow_acceleration") == "error"
    assert statuses.pop("c1_condition_number_law") == statuses.pop("c2_hessian_spectra") == "pass"
    assert set(statuses.values()) == {"missing"}


@pytest.mark.parametrize("text, note", [
    ("a,b\r\n1,2\r\n3,4\r\n5\r\n", "t.csv: line 4: the header requires 2 columns but 1 were found"),
    ("a,b\r\n1,2\r\n3,x\r\n", "t.csv: line 3: could not convert string 'x' to float64 in column 'b'"),
    # float() takes digit-group underscores, np.loadtxt does not
    ("a,b\r\n\r\n1,2\r\n1_0,4\r\n",
     "t.csv: line 4: could not convert string '1_0' to float64 in column 'a'"),
], ids=["short-row", "word-for-number", "underscore-after-a-blank-line"])
def test_a_csv_fault_is_named_by_its_line_in_the_file(tmp_path, text, note):
    # the header is line 1; both faults count lines the same way and carry no
    # advice on numpy's API
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as caught:
        cli._read_csv(path)
    assert str(caught.value) == note
