import csv
import json
import math
import warnings

import numpy as np
import pytest

from sobolev_lab import cli, multinode as mn
from sobolev_lab.cli import _write_csv, main, summarize
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
               "--record-every", "200", "--out-dir", str(out)) == 0
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
    args = ("flow", "--dim", "4", "--inits", "3", "--t-end", "0.5005", "--record-every", "100")
    runs = {kind: tmp_path / kind for kind in ("both", "l2", "h1")}
    for kind, out in runs.items():
        assert run(*args, "--kind", kind, "--out-dir", str(out)) == 0
    both = read_rows(runs["both"] / "flow.csv")
    for kind in ("l2", "h1"):
        assert [r for r in both if r["kind"] == kind] == read_rows(runs[kind] / "flow.csv")


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


def test_every_subcommand_is_built_from_its_table_row(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_THREADS, raising=False)
    for name, (_, defaults) in cli.EXPERIMENTS.items():
        keys = set(defaults) | set(cli.COMMON)
        dests = set(vars(cli.build_parser().parse_args([name]))) - {"subcommand", "runner", "defaults"}
        # only verify-gradients has Monte-Carlo workers to cap
        threads = name == "verify-gradients"
        assert dests == keys | {"config"} | ({"threads"} if threads else set()), name
        # the runner is read from the module when the parser is built, so a
        # patched cmd_* (as the span tracer installs) is the one that runs
        calls = []
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                            lambda cfg, out, **kw: calls.append(kw) or [])
        out = tmp_path / name
        assert run(name, "--out-dir", str(out)) == 0
        assert calls == [{"threads": 1} if threads else {}], name
        assert set(json.loads((out / "manifest.json").read_text())["config"]) == keys, name


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


def test_validation_failures_exit_2(tmp_path, capsys, monkeypatch):
    assert run("landscape", "--dim", "1", "--out-dir", str(tmp_path / "o")) == 2
    assert run("summarize", str(tmp_path / "does-not-exist")) == 2
    # a zero logging interval is a bad configuration, not an internal error
    assert run("sgd", "--log-every", "0", "--seeds", "1", "--steps", "5",
               "--out-dir", str(tmp_path / "s")) == 2
    # a count below 1 or an empty list would write a header-only or nan CSV
    for argv in (("multinode", "--ratio-starts", "0"),
                 ("multinode", "--starts", "0"),
                 ("multinode", "--k-list", ""),
                 ("flow", "--inits", "0"),
                 # a horizon or step that is not a finite float
                 ("flow", "--inits", "2", "--t-end", "inf"),
                 ("flow", "--inits", "2", "--t-end", "nan"),
                 ("relusq", "--points", "2", "--inits", "2", "--t-end", "inf"),
                 ("multinode", "--k-list", "2", "--t-end", "inf"),
                 ("multinode", "--k-list", "2", "--step", "nan"),
                 # the K-node flows need K >= 2
                 ("toeplitz", "--k-list", "1"),
                 ("multinode", "--k-list", "1"),
                 ("verify-gradients", "--trials", "0"),
                 ("verify-gradients", "--n-min", "5", "--n-max", "3"),
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
                 ("sgd", "--lr", "-1", "--seeds", "1", "--steps", "3")):
        assert run(*argv, "--out-dir", str(tmp_path / "e")) == 2, argv
        assert not (tmp_path / "e" / "manifest.json").exists(), argv
    capsys.readouterr()
    # a step count of 2**53 or more cannot be counted in floats: one error
    # line and no cast warning, where the flows once integrated nothing
    for argv in (("flow", "--step", "1e-300", "--t-end", "1", "--inits", "1"),
                 ("multinode", "--step", "1e-300", "--t-end", "1e-300", "--k-list", "2",
                  "--starts", "1", "--ratio-starts", "1")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out-dir", str(tmp_path / "e")) == 2, argv
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv
        assert not (tmp_path / "e" / "manifest.json").exists(), argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratio_starts": 0}))
    assert run("multinode", "--config", str(cfg), "--out-dir", str(tmp_path / "e")) == 2
    assert "ratio_starts" in capsys.readouterr().err
    # a worker count below 1, by flag or environment, and a form that is not
    # model:kind: one error line each, no run
    small = ("verify-gradients", "--dims", "2", "--n-min", "4", "--n-max", "4", "--trials", "1",
             "--out-dir", str(tmp_path / "v"))
    for extra, env, named in ((("--threads", "0"), None, ("threads",)),
                              (("--threads", "-3"), None, ("threads",)),
                              ((), "0", ("threads",)),
                              ((), "x", (cli.ENV_THREADS, "integer >= 1")),
                              (("--forms", "relu"), None, ("'relu'", "model:kind")),
                              (("--forms", "relu:l2,relu_sq:i1:i2"), None,
                               ("'relu_sq:i1:i2'", "model:kind"))):
        if env is not None:
            monkeypatch.setenv(cli.ENV_THREADS, env)
        assert run(*small, *extra) == 2, (extra, env)
        monkeypatch.delenv(cli.ENV_THREADS, raising=False)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert all(name in err[0] for name in named), err
        assert not (tmp_path / "v" / "manifest.json").exists(), extra


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


def test_flow_blow_up_reports_only_the_numerical_error(tmp_path, capsys):
    # the RK4 loop catches a row that leaves the finite floats, so numpy's
    # overflow warnings would only repeat it: an Omega row raises (exit 3),
    # a threshold row gives up with a nan time (exit 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("relusq", "--step", "1", "--points", "4", "--inits", "2",
                   "--out-dir", str(tmp_path / "r")) == 3
        err = capsys.readouterr().err.splitlines()
        assert run("multinode", "--step", "2", "--k-list", "8", "--starts", "2",
                   "--ratio-starts", "1", "--out-dir", str(tmp_path / "m")) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert len(err) == 1 and err[0].startswith("numerical error:")
    assert capsys.readouterr().err == ""
    (row,) = read_rows(tmp_path / "m" / "multinode.csv")
    assert math.isnan(float(row["time_ratio_median"]))


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
    args = ("multinode", "--starts", "5", "--ratio-starts", "3", "--step", "0.01", "--t-end", "2")
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
    _write_csv(out / "nonfinite.csv", ["v"], [(v,) for v in (math.inf, -math.inf, math.nan, 0.1)])
    back = [float(r["v"]) for r in read_rows(out / "nonfinite.csv")]
    assert back[:2] == [math.inf, -math.inf]
    assert math.isnan(back[2]) and back[3] == 0.1
