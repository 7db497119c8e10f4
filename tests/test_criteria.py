import math
import re
from pathlib import Path

from sobolev_lab import criteria
from sobolev_lab import multinode as mn
from sobolev_lab.cli import SOURCES, summarize


def test_table_summarize_and_suite_cover_the_same_ids(tmp_path):
    table = list(criteria.CRITERIA)
    assert len(table) == 13
    assert set(SOURCES) <= set(table)
    assert list(summarize(tmp_path)["criteria"]) == table
    suite = (Path(__file__).parent / "test_acceptance.py").read_text()
    judged = re.findall(r'judged\(\s*"(c\d+_\w+)"', suite)
    assert sorted(judged) == sorted(table)
    assert len(re.findall(r"^def test_c\d\d_", suite, flags=re.M)) == 13
    # a criterion a CSV carries takes its values from the extraction
    # ``summarize`` runs, through its subcommand or through that function
    tests = re.split(r"^def ", suite, flags=re.M)
    for crit, (_, measure) in SOURCES.items():
        [body] = [t for t in tests if re.search(rf'judged\(\s*"{crit}"', t)]
        assert (re.search(rf'measured_by_cli\([^)]*"{crit}"', body)
                or f"cli.{measure.__name__}(" in body), crit


def test_judge_status_rules():
    crit = "c8_toeplitz_linearization"
    assert criteria.judge(crit, {})["status"] == "missing"
    part = criteria.judge(crit, {"worst_eig_dev": 0.0})
    assert part["status"] == "pass"
    assert part["unmeasured"] == ["h1_vs_2l2_maxdiff <= 1e-06"]
    bad = criteria.judge(crit, {"worst_eig_dev": 0.5, "h1_vs_2l2_maxdiff": 0.0})
    assert bad["status"] == "fail"
    assert bad["failed"] == [{"clause": "worst_eig_dev <= 1e-06", "value": 0.5}]
    assert "mechanism" in bad
    nan_gap = criteria.judge("c1_condition_number_law", {"max_kappa_gap": float("nan")})
    assert nan_gap["status"] == "fail"


def test_range_clause_checks_both_ends():
    crit = "c7_multinode_dynamics"
    nan = float("nan")
    for lo, hi, status in ((1.9, 2.1, "pass"), (1.6, 2.0, "fail"), (1.9, 2.3, "fail"),
                           (1.9, nan, "fail"), (nan, 2.1, "fail")):
        assert criteria.judge(crit, {"time_ratio_range": [lo, hi]})["status"] == status


def test_nan_reaches_the_judge_through_worst_cases(tmp_path):
    # one NaN lam_max_h1 among exact rows of landscape.csv fails c2's extreme clause
    rows = ["lam_max_l2,lam_max_h1", "0.5,1", "0.5,nan", "0.5,1"]
    (tmp_path / "landscape.csv").write_text("\n".join(rows) + "\n")
    entry = summarize(tmp_path)["criteria"]["c2_hessian_spectra"]
    assert entry["status"] == "fail"
    assert [f["clause"] for f in entry["failed"]] == ["max_extreme_dev <= 1e-09"]
    assert math.isnan(entry["measured"]["max_extreme_dev"])
    # one NaN gain among good rows of gd_compare.csv fails c3's gain and excess clauses
    rows = ["gain_f,err_l2,err_h1", "0.1,0.5,0.3", "nan,0.5,0.3", "0.2,0.4,0.1"]
    (tmp_path / "gd_compare.csv").write_text("\n".join(rows) + "\n")
    entry = summarize(tmp_path)["criteria"]["c3_one_step_gd"]
    assert entry["status"] == "fail"
    assert [f["clause"] for f in entry["failed"]] == ["min_gain > 0.0", "max_excess <= 1e-15"]
    # one NaN saddle among exact ones in multinode.csv fails c7's saddle clause
    header = ("k,x_saddle_l2,x_saddle_h1,saddle_field_l2,saddle_field_h1,decay_exp_l2,"
              "decay_exp_h1,time_ratio_median,max_final_dist")
    (x2, y2), (x4, y4) = mn.saddle_points(2), mn.saddle_points(4)
    rows = [header, f"2,{x2!r},{y2!r},0,0,-1,-2,2,0", f"4,nan,{y4!r},0,0,-2,-4,2,0"]
    (tmp_path / "multinode.csv").write_text("\n".join(rows) + "\n")
    entry = summarize(tmp_path)["criteria"]["c7_multinode_dynamics"]
    assert entry["status"] == "fail"
    assert [f["clause"] for f in entry["failed"]] == ["saddle_formula_dev <= 1e-09"]
    assert math.isnan(entry["measured"]["saddle_formula_dev"])
    # one NaN decay exponent among exact ones fails c7's decay clause
    rows[2] = f"4,{x4!r},{y4!r},0,0,-2,nan,2,0"
    (tmp_path / "multinode.csv").write_text("\n".join(rows) + "\n")
    entry = summarize(tmp_path)["criteria"]["c7_multinode_dynamics"]
    assert [f["clause"] for f in entry["failed"]] == ["decay_rel_dev <= 0.02"]
    assert math.isnan(entry["measured"]["decay_rel_dev"])
    # a NaN formula variance in linear.csv fails c11's variance clause, and a
    # formula variance of 0 has no relative error to measure
    header = "lambda,kappa_l2,kappa_h1,var_l2_emp,var_h1_emp,var_l2_formula,var_h1_formula"
    rows = [header, "1,4,2,8,6,8,6", "2,4,2,8,0,8,nan"]
    (tmp_path / "linear.csv").write_text("\n".join(rows) + "\n")
    entry = summarize(tmp_path)["criteria"]["c11_linear_model"]
    assert [f["clause"] for f in entry["failed"]] == ["worst_rel_var_err <= 0.03"]
    assert math.isnan(entry["measured"]["worst_rel_var_err"])
    rows[2] = "2,4,2,8,0,8,0"
    (tmp_path / "linear.csv").write_text("\n".join(rows) + "\n")
    entry = summarize(tmp_path)["criteria"]["c11_linear_model"]
    assert entry["status"] == "pass" and entry["measured"]["worst_rel_var_err"] == 0.0
