"""The 13 acceptance criteria, each defined once.

A criterion is a title plus clauses over named measured values; this
module holds the clause table and ``judge`` and measures nothing.  Every
value a CSV carries is measured once, by the ``cli._measure_c*`` of its
criterion: ``cli.summarize`` runs them on the CSV artifacts, and the
acceptance suite runs them at the criterion's stated size, on the CSV of a
subcommand run (c4, c6, c7, c8, c10 and c12) or on the columns it builds
from its own draws (c1, c2, c3, c9 and c11).  Only c5 and c13, which no
CSV carries, are measured in the suite alone.  Both hand their values to
``judge``, which returns the one entry shape recorded in ``report.json``
and in the pytest cache:

* ``status``: ``pass`` when at least one clause is measured and every
  measured clause holds, ``fail`` when a measured clause does not hold,
  ``missing`` when no clause is measured;
* ``measured``: the values handed in, as plain JSON types;
* ``failed``: each failed clause with its value;
* ``unmeasured``: the clauses whose value was not handed in;
* ``mechanism`` (c4, c7, c8): why a clause fails by design.

Clauses compare unrounded values.  Per-point and per-cell conditions are
measured as their worst case, and a ``*_range`` value is the [min, max] of
its per-cell values.  Worst cases are taken with numpy reductions, which
carry a NaN through; a NaN fails every clause it reaches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# c1's ordering clause holds off the collinear configuration theta = 0
MIN_THETA = 1e-6

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda v, b: all(b[0] <= x <= b[1] for x in v),
}


@dataclass(frozen=True)
class Criterion:
    title: str
    clauses: tuple[tuple[str, str, object], ...]  # (measured key, operator, bound)
    mechanism: str | None = None


CRITERIA: dict[str, Criterion] = {
    "c1_condition_number_law": Criterion(
        "condition-number formulas match numeric lambda_max / lambda_min; kappa_h1 < kappa_l2",
        (("max_rel_err", "<=", 1e-8), ("max_kappa_gap", "<", 0.0), ("seconds", "<", 10.0)),
    ),
    "c2_hessian_spectra": Criterion(
        "numeric lambda_max = 1/2 resp. 1; bulk eigenvalues with multiplicity d - 2",
        (("max_extreme_dev", "<=", 1e-9), ("bulk_dev", "<=", 1e-9)),
    ),
    "c3_one_step_gd": Criterion(
        "one GD step at eta = 0.9 C: F > 0 and err_h1 <= err_l2 - F; C(theta = 0) = 4/3",
        (("min_gain", ">", 0.0), ("max_excess", "<=", 1e-15), ("c_zero_angle_dev", "<=", 1e-12)),
    ),
    "c4_h1_flow_acceleration": Criterion(
        "V_h1(t) <= V_l2(t) on the grid; both flows reach the final-V threshold by t = 10",
        (("ordering_excess", "<=", 1e-15), ("worst_final_v_h1", "<", 1e-8),
         ("worst_final_v_l2", "<", 1e-8), ("seconds", "<", 30.0)),
        "lambda_max of the L2 Hessian is 1/2 everywhere, so V_l2(t) >= V_l2(0) e^-t: "
        "from generic basin starts V_l2(10) is ~5e-5, far above the threshold",
    ),
    "c5_flow_quadratic_forms": Criterion(
        "lambda(theta) = lambda_min(M2); M1, M2 PSD; N1..N4 PSD, N5 NSD",
        (("max_lambda_dev", "<=", 1e-10), ("min_m_eig", ">=", -1e-10),
         ("min_n14_eig", ">=", -1e-10), ("max_n5_eig", "<=", 1e-10)),
    ),
    "c6_relusq_descent": Criterion(
        "second-order descent inner products < 0; the full H2 flow stays below the value-only flow",
        (("worst_inner_product", "<", 0.0), ("h2_excess", "<=", 1e-15)),
    ),
    "c7_multinode_dynamics": Criterion(
        "planar flow: saddles, diagonal rates -K/2 and -K, convergence, fixed-point time ratio",
        (("saddle_formula_dev", "<=", 1e-9), ("saddle_field_dev", "<=", 1e-10),
         ("decay_rel_dev", "<=", 0.02), ("max_final_dist", "<", 1e-6),
         ("time_ratio_range", "in", (1.8, 2.2))),
        "the exact planar Jacobians at (1, 0) are -(M3 + E) and -(2 M3 + E') with O(1/2pi) "
        "sine-sum couplings E, E' that the idealized linearization drops, so the slow-mode "
        "time ratio sits near 1.6 at K = 2 and decreases with K",
    ),
    "c8_toeplitz_linearization": Criterion(
        "cyclic-field Jacobian eigenvalues {(K+1)/4, 1/4 x (K-1)}; H1 Jacobian = 2x L2",
        (("worst_eig_dev", "<=", 1e-6), ("h1_vs_2l2_maxdiff", "<=", 1e-6)),
        "the exact Jacobian at e_1 is -(M + E) with E[0,0] = (K-1)/(2 pi) and one 1/(2 pi) "
        "coupling per later row; E scales with the student norms only, so the idealized "
        "spectrum and the 2x relation are off by O(1/2pi)",
    ),
    "c9_mc_verification": Criterion(
        "log-log MSE slopes near -1 with falling MSE; pointwise agreement in SE units at N = 1e6",
        (("slope_range", "in", (-1.2, -0.8)), ("max_mse_rise", "<", 0.0),
         ("worst_z", "<=", 4.0), ("seconds", "<", 300.0)),
    ),
    "c10_empirical_sgd": Criterion(
        "median final err_sq strictly smaller under H1; kappa traces ordered",
        (("median_gap", "<", 0.0), ("kappa_excess", "<=", 1e-12), ("seconds", "<", 120.0)),
    ),
    "c11_linear_model": Criterion(
        "ridge lowers conditioning and variance; empirical variances match the formulas",
        (("max_kappa_gap", "<", 0.0), ("max_var_gap", "<", 0.0),
         ("worst_rel_var_err", "<=", 0.03)),
    ),
    "c12_chebyshev_diff": Criterion(
        "differentiation matrix exact on monomials k <= n <= 20; n = 1 matrix exact",
        (("worst_err_over_n2", "<=", 1e-10), ("n1_exact", "==", True)),
    ),
    "c13_determinism": Criterion(
        "re-running subcommands yields byte-identical CSV bodies at any thread count",
        (("landscape_identical", "==", True), ("convergence_identical", "==", True),
         ("flow_identical", "==", True)),
    ),
}


def _plain(v):
    """JSON-ready copy: numpy scalars and arrays become Python floats, bools and lists."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_plain(x) for x in v]
    return v.item() if isinstance(v, np.generic) else v


def judge(crit_id: str, measured: dict) -> dict:
    """The entry of one criterion for the values measured so far (see module docstring)."""
    crit = CRITERIA[crit_id]
    measured = _plain(measured)
    failed, unmeasured = [], []
    for key, op, bound in crit.clauses:
        text = f"{key} {op} {list(bound) if op == 'in' else bound}"
        if key not in measured:
            unmeasured.append(text)
        elif not _OPS[op](measured[key], bound):
            failed.append({"clause": text, "value": measured[key]})
    status = "fail" if failed else "missing" if len(unmeasured) == len(crit.clauses) else "pass"
    entry = {"title": crit.title, "status": status, "measured": measured,
             "failed": failed, "unmeasured": unmeasured}
    if crit.mechanism:
        entry["mechanism"] = crit.mechanism
    return entry

