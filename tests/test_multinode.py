import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sobolev_lab import multinode as mn
from sobolev_lab import relu1
from sobolev_lab.exceptions import SingularPointError
from sobolev_lab.mc import McConfig, mc_multinode_grad
from sobolev_lab.ode import _rk4_step

TWO_PI = 2.0 * math.pi


def test_field_vanishes_at_teacher():
    rng = np.random.default_rng(1)
    for k in (2, 4):
        Wstar = np.linalg.qr(rng.standard_normal((k + 2, k + 2)))[0][:k]
        for kind in ("l2", "h1"):
            assert np.abs(mn.multinode_gradients(Wstar, Wstar, kind)).max() <= 1e-12


def test_single_node_reduces_to_flow_rhs():
    rng = np.random.default_rng(2)
    ws = rng.standard_normal(5)
    w = ws + 0.4 * rng.standard_normal(5)
    b = relu1.population_gradients(w, ws)
    for kind, grad in (("l2", b.grad_l2), ("h1", b.grad_h1)):
        full = mn.multinode_gradients(w[None, :], ws[None, :], kind)[0]
        assert full == pytest.approx(-grad, abs=1e-14)


def test_matches_mc_oracle_k2():
    rng = np.random.default_rng(3)
    d = 4
    Wstar = np.linalg.qr(rng.standard_normal((d, d)))[0][:2]
    t = rng.uniform(-0.2, 0.9, size=2)
    t[0] = 1.1
    W = Wstar * 0  # cyclic student in the teacher plane plus a generic tilt
    W = np.stack([t[0] * Wstar[0] + t[1] * Wstar[1], t[1] * Wstar[0] + t[0] * Wstar[1]])
    closed = mn.multinode_gradients(W, Wstar, "h1")
    est = mc_multinode_grad(W, Wstar, "h1", McConfig(n_samples=10**6, seed=55, dim=d))
    assert np.all(np.abs(est.mean - (-closed)) <= 4.0 * est.std_error)


def test_zero_node_flagged():
    W = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularPointError):
        mn.multinode_gradients(W, np.eye(2), "l2")


def test_tiny_nodes_are_not_singular():
    # every node norm squared underflows to 0 at 1e-300; the kernel's norms must not
    rng = np.random.default_rng(12)
    for k in (2, 5):
        t = rng.uniform(-0.4, 1.0, size=k)
        t[0] = 1.2
        W = mn.cyclic_students(t)
        for kind in ("l2", "h1"):
            g = mn.multinode_gradients(1e-300 * W, np.eye(k), kind)
            f = mn.toeplitz_field(kind, 1e-300 * t)
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(f))
            np.testing.assert_array_equal(f, g[0])


def test_huge_nodes_do_not_warn():
    # node norms near 1e200 square past the floats in the stacked norm; the
    # field is positively homogeneous of degree 1 in (W, W*)
    U = np.array([[0.3, 0.4, 0.1], [0.0, 0.2, 0.5]])
    Wstar = np.eye(3)[:2]
    for kind in ("l2", "h1"):
        g = mn.multinode_gradients(1e200 * U, Wstar, kind)
        np.testing.assert_allclose(g, 1e200 * mn.multinode_gradients(U, 1e-200 * Wstar, kind),
                                   rtol=1e-14)


def test_cyclic_closure_of_gradients():
    # on the cyclic parametrization every node field is the shift of node 1's
    rng = np.random.default_rng(4)
    for k in (2, 3, 5, 32):
        t = rng.uniform(-0.4, 1.0, size=k)
        t[0] = 1.2
        W = mn.cyclic_students(t)
        Wstar = np.eye(k)
        for kind in ("l2", "h1"):
            g = mn.multinode_gradients(W, Wstar, kind)
            for j in range(k):
                assert np.abs(g[j] - np.roll(g[0], j)).max() <= 1e-12


def planar_students(x: float, y: float, k: int) -> np.ndarray:
    """Students of the planar parametrization: t = (x, y, ..., y) shifted."""
    t = np.full(k, y, dtype=float)
    t[0] = x
    return mn.cyclic_students(t)


def test_reduced_field_is_projection_of_full_gradient():
    rng = np.random.default_rng(5)
    for k in (2, 3, 5, 32):
        for _ in range(10):
            x = rng.uniform(0.3, 1.0)
            y = rng.uniform(0.0, x - 0.05)
            W = planar_students(x, y, k)
            g = mn.multinode_gradients(W, np.eye(k), "l2")
            xdot, ydot = mn.reduced_flow_field("l2", k)(np.array([x, y]))
            assert abs(g[0, 0] - xdot) <= 1e-10
            assert abs(g[0, 1] - ydot) <= 1e-10
            xdot_h, ydot_h = mn.reduced_flow_field("h1", k)(np.array([x, y]))
            g_h = mn.multinode_gradients(W, np.eye(k), "h1")
            assert abs(g_h[0, 0] - xdot_h) <= 1e-10
            assert abs(g_h[0, 1] - ydot_h) <= 1e-10


def test_reduced_angles_match_cosine_relations():
    alpha_red, theta, phi_star, phi = mn._planar_angles(0.8, 0.3, *mn._k_factors(4))
    alpha = 1.0 / math.sqrt(0.8**2 + 3 * 0.3**2)
    assert alpha_red == pytest.approx(alpha, rel=1e-14)
    assert math.cos(theta) == pytest.approx(alpha * 0.8, rel=1e-12)
    assert math.cos(phi_star) == pytest.approx(alpha * 0.3, rel=1e-12)
    assert math.cos(phi) == pytest.approx(alpha**2 * (2 * 0.8 * 0.3 + 2 * 0.3**2), rel=1e-12)


def test_planar_theta_keeps_digits_next_to_fixed_point():
    # arccos(x / |w|) returns exactly 0 at (1, 1e-8); the two-argument form
    # keeps theta = atan(sqrt(K - 1) y / x) to full precision
    for y in (1e-8, 1e-6):
        theta = mn._planar_angles(1.0, y, *mn._k_factors(4))[1]
        assert theta == pytest.approx(math.atan(math.sqrt(3.0) * y), rel=1e-12)


def test_critical_point_and_origin():
    for k in (2, 5):
        for kind in ("l2", "h1"):
            assert np.array_equal(mn.reduced_flow_field(kind, k)(np.array([1.0, 0.0])), [0.0, 0.0])
    # the field is singular at the origin: it is not finite there, so a run
    # that reaches it fails its trial steps until it gives up or raises BlowUpError
    with np.errstate(all="ignore"):
        assert not np.isfinite(mn.reduced_flow_field("l2", 2)(np.zeros(2))).any()


def _field_reference(kind, k, s):
    """The planar field's expression as first written, kept verbatim: the
    closure may only rewrite it in ways that keep every rounding."""
    c = mn._kind_factor(kind)
    k = np.asarray(k, dtype=float)
    k1, k2 = k - 1.0, k - 2.0
    x = s[..., 0]
    y = s[..., 1]
    alpha = 1.0 / np.sqrt(x * x + k1 * y * y)
    theta = np.arctan2(np.sqrt(k1 * y * y), x)
    phi_star = np.arctan2(np.sqrt(x * x + k2 * y * y), y)
    phi = np.arctan2(np.abs(x - y) * np.sqrt((x + y) ** 2 + 2 * k2 * y * y),
                     2 * x * y + k2 * y * y)
    first = k1 * (alpha * np.sin(phi_star) - np.sin(phi)) + alpha * np.sin(theta)
    bx = -(np.pi - theta) + np.pi * x + (np.pi - phi) * k1 * y
    by = -(np.pi - phi_star) + np.pi * y + (np.pi - phi) * (x + k2 * y)
    return np.stack([(first * x - c * bx), (first * y - c * by)], axis=-1) / TWO_PI


def test_planar_field_keeps_its_expression_bitwise():
    rng = np.random.default_rng(14)
    diag = np.linspace(0.05, 1.0, 9)
    a = rng.uniform(0.0, 2 * math.pi, 9)
    x0 = rng.uniform(0.15, 1.0, 40)
    states = np.concatenate([
        [[1.0, 0.0]],
        np.stack([diag, diag], axis=1),  # the diagonal x = y
        np.stack([1.0 + 1e-9 * np.cos(a), 1e-9 * np.abs(np.sin(a))], axis=1),
        np.stack([diag, np.zeros_like(diag)], axis=1),  # y = 0
        np.stack([x0, x0 * rng.uniform(0.0, 0.95, 40)], axis=1),  # Omega
    ])
    m = states.shape[0]
    ks = rng.choice([2, 3, 8, 16], size=m)
    kinds = rng.choice(["l2", "h1"], size=m)
    for kind, k in [(kinds, ks), *((kd, kk) for kd in ("l2", "h1") for kk in (2, 3, 8, 16))]:
        got = mn.reduced_flow_field(kind, k)(states)
        assert got.shape == (m, 2)
        assert np.array_equal(got, _field_reference(kind, k, states)), (kind, k)
    for kd in ("l2", "h1"):
        for s in states[:12]:  # a single state (2,) through numpy's scalar path
            assert np.array_equal(mn.reduced_flow_field(kd, 8)(s), _field_reference(kd, 8, s))


def test_batched_field_vanishes_at_large_k_diagonal_saddles():
    # next to the diagonal arccos of the inter-student cosine loses half the
    # digits (residuals ~1e-9 at K = 32); the two-argument angle is exact there
    for k in (16, 32, 64):
        x_l2, x_h1 = mn.saddle_points(k)
        for kind, xs in (("l2", x_l2), ("h1", x_h1)):
            f = mn.reduced_flow_field(kind, k)(np.array([xs, xs]))
            assert np.abs(f).max() <= 1e-12, (kind, k, f)


def test_diagonal_field_values_k2():
    st = np.array([1.0, 1.0])
    x_l2, x_h1 = mn.saddle_points(2)
    xdot_l2 = mn.reduced_flow_field("l2", 2)(st)[0]
    xdot_h1 = mn.reduced_flow_field("h1", 2)(st)[0]
    assert xdot_l2 == pytest.approx(-(2 / 2) * (1.0 - x_l2), abs=1e-12)  # -0.4658
    assert xdot_h1 == pytest.approx(-2 * (1.0 - x_h1), abs=1e-12)  # -1.0908
    assert xdot_l2 == pytest.approx(-0.4658451, abs=1e-7)
    assert xdot_h1 == pytest.approx(-1.0908451, abs=1e-7)


def test_saddle_points_closed_form_k2():
    x_l2, x_h1 = mn.saddle_points(2)
    # (1 + 3 pi / 4) / (2 pi) and (1 + 3 pi / 2) / (4 pi)
    assert x_l2 == pytest.approx((1 + 3 * math.pi / 4) / TWO_PI, abs=1e-15)
    assert x_h1 == pytest.approx((1 + 3 * math.pi / 2) / (2 * TWO_PI), abs=1e-15)
    assert x_l2 == pytest.approx(0.5341549, abs=1e-7)
    assert x_h1 == pytest.approx(0.4545775, abs=1e-7)


def test_saddles_zero_the_diagonal_field_and_decrease_in_k():
    prev = (math.inf, math.inf)
    for k in range(2, 65):
        x_l2, x_h1 = mn.saddle_points(k)
        fx_l2 = mn.reduced_flow_field("l2", k)(np.array([x_l2, x_l2]))
        fx_h1 = mn.reduced_flow_field("h1", k)(np.array([x_h1, x_h1]))
        assert abs(fx_l2[0]) <= 1e-10 and abs(fx_l2[1]) <= 1e-10
        assert abs(fx_h1[0]) <= 1e-10 and abs(fx_h1[1]) <= 1e-10
        assert x_l2 < prev[0] and x_h1 < prev[1]
        prev = (x_l2, x_h1)


def test_diagonal_decay_exponents_k2():
    decays = [mn.diagonal_rows("l2", 2, 0.95, 15.0), mn.diagonal_rows("h1", 2, 0.95, 7.5)]
    runs = mn.planar_flows(decays)
    exp_l2, exp_h1 = map(mn.decay_fit, decays, runs)
    assert abs(exp_l2 + 1.0) <= 0.02  # -K/2
    assert abs(exp_h1 + 2.0) <= 0.04  # -K
    # a trajectory that drifts off the diagonal by more than 1e-9 max(1, x0) raises
    states = runs[0].trace.states.copy()
    states[-1, 0, 1] += 2e-9
    drifted = replace(runs[0], trace=replace(runs[0].trace, states=states))
    with pytest.raises(RuntimeError, match="left the diagonal"):
        mn.decay_fit(decays[0], drifted)


def test_boundary_field_signs():
    for k in (2, 3, 5):
        field = mn.reduced_flow_field("h1", k)
        for x in np.linspace(0.05, 1.0, 25):
            assert field(np.array([x, 0.0]))[1] >= 0.0
        for y in np.linspace(0.02, 1.0, 25):
            assert field(np.array([1.0, y]))[0] < 0.0
        for y in np.linspace(0.0, 0.9, 20):
            fx, fy = field(np.array([y + 0.05, y]))
            assert fx - fy >= 0.0


def test_omega_trajectories_stay_in_omega():
    rng = np.random.default_rng(8)
    k = 3
    x0 = rng.uniform(0.2, 1.0, size=30)
    y0 = np.array([rng.uniform(0.0, max(x - 0.06, 0.0)) for x in x0])
    starts = np.stack([x0, y0], axis=1)
    (run,) = mn.planar_flows([mn.PlanarRows("h1", k, starts, 20.0, record=True)])
    trace = run.trace
    assert trace.times.size == 2001 and trace.times[-1] == 20.0
    xs = trace.states[..., 0]
    ys = trace.states[..., 1]
    assert xs.min() >= -1e-9
    assert ys.min() >= -1e-9
    assert xs.max() <= 1.0 + 1e-9
    assert (xs - ys).min() >= -1e-9


def test_h1_planar_flow_converges_from_omega():
    rng = np.random.default_rng(9)
    k = 2
    x0 = rng.uniform(0.15, 1.0, size=30)
    y0 = np.array([rng.uniform(0.0, max(x - 0.05, 0.0)) for x in x0])
    starts = np.stack([x0, y0], axis=1)
    (run,) = mn.planar_flows([mn.PlanarRows("h1", k, starts, 50.0)])
    assert np.sqrt(run.final_v).max() < 1e-6


def _first_crossings(kind, k, starts, thresh, step=0.01):
    """Reference for the crossing rule: a plain loop of RK4 steps over one
    run, each time rounded up to the step grid.  A start already within
    ``thresh`` crosses at t = 0."""
    field = mn.reduced_flow_field(kind, k)
    s = np.array(starts, dtype=float)
    out = np.full(s.shape[0], np.nan)
    out[np.sum((s - [1.0, 0.0]) ** 2, axis=-1) < thresh * thresh] = 0.0
    t = 0.0
    while t < mn._THRESHOLD_T_MAX and np.isnan(out).any():
        s = _rk4_step(field, s, step)
        t += step
        hit = np.isnan(out) & (np.sum((s - [1.0, 0.0]) ** 2, axis=-1) < thresh * thresh)
        out[hit] = t
    return out


def _assert_within_a_step_before(times, rounded_up, step=0.01):
    # the crossing of the continuous extension lies in the RK4 step that
    # first ends within the radius (both integrations err by far below 1e-6)
    assert np.array_equal(times == 0.0, rounded_up == 0.0)
    assert (times <= rounded_up + 1e-6).all() and (times > rounded_up - step - 1e-6).all()


def _crossings(kind, k, starts, thresh):
    return mn.planar_flows([mn.threshold_rows(kind, k, starts, thresh)])[0].crossed


def test_per_row_k_matches_per_k_calls_bitwise():
    # one K per state row lets several K integrate as one ensemble; each row
    # must come out exactly as in a call with its own K
    ks = np.array([2, 8, 3, 2, 3, 8, 8])
    a = np.linspace(0.2, 1.3, ks.size)
    near = np.stack([1.0 - 0.05 * np.cos(a), 0.05 * np.sin(a)], axis=1)
    states = np.stack([np.linspace(0.3, 1.0, ks.size), np.linspace(0.0, 0.25, ks.size)], axis=1)
    for kind in ("l2", "h1"):
        field = mn.reduced_flow_field(kind, ks)(states)
        times = _crossings(kind, ks, near, 0.01)
        _assert_within_a_step_before(times, _first_crossings(kind, ks, near, 0.01))
        for k in (2, 3, 8):
            rows = ks == k
            assert np.array_equal(field[rows], mn.reduced_flow_field(kind, k)(states[rows]))
            assert np.array_equal(times[rows], _crossings(kind, k, near[rows], 0.01))
        assert np.isfinite(times).all()


def test_threshold_row_starting_within_crosses_at_zero_without_a_step():
    # rows at 1e-6 and 5e-3 from (1, 0) against radii 1e-4 and 1e-2: a row
    # already within crosses at t = 0 and keeps its start; the others step
    starts = np.array([[1 - 1e-6, 1e-6], [0.95, 0.05], [1 - 5e-3, 0.0]])
    for kind in ("l2", "h1"):
        (run,) = mn.planar_flows([mn.threshold_rows(kind, 4, starts[:1], 1e-4)])
        assert run.crossed.tolist() == [0.0]
        assert np.array_equal(run.final, starts[:1])
        times = _crossings(kind, 4, starts, 1e-2)
        assert times[0] == 0.0 and times[2] == 0.0 and times[1] > 0.0
        _assert_within_a_step_before(times, _first_crossings(kind, 4, starts, 1e-2))


def test_stacked_planar_runs_match_their_separate_runs_bitwise():
    # per-row kinds, K and horizons: Omega rows, threshold rows of both
    # kinds, and recorded diagonal-decay rows whose K = 16 H1 horizon 0.9375
    # is no multiple of the record grid; each row is its run of its own
    ks = np.array([2, 16, 3, 16])
    a = np.linspace(0.2, 1.3, ks.size)
    near = np.stack([1.0 - 0.05 * np.cos(a), 0.05 * np.sin(a)], axis=1)
    omega = np.stack([np.linspace(0.3, 1.0, ks.size), np.linspace(0.0, 0.25, ks.size)], axis=1)
    kinds = np.array(["h1", "l2", "l2", "h1"])
    decays = [mn.diagonal_rows(kind, k, 0.95, min(horizon / k, cap))
              for k in (8, 16) for kind, horizon, cap in (("l2", 30.0, 12.0), ("h1", 15.0, 6.0))]
    assert decays[3].t_end == 0.9375
    runs = [mn.PlanarRows(kinds, ks, omega, 1.005),
            mn.threshold_rows("l2", ks, near, 0.01),
            mn.threshold_rows("h1", ks, near, 0.01),
            *decays]
    stacked = mn.planar_flows(runs)

    for run, got in zip(runs, stacked):
        for row in range(run.starts.shape[0]):
            kind, k = (np.broadcast_to(v, (run.starts.shape[0],))[row] for v in (run.kind, run.k))
            (alone,) = mn.planar_flows([mn.PlanarRows(str(kind), int(k), run.starts[row:row + 1],
                                                      run.t_end, run.thresh, run.record)])
            assert np.array_equal(got.final[row], alone.final[0])
            assert np.array_equal(got.crossed[row], alone.crossed[0], equal_nan=True)
            if run.record:
                assert np.array_equal(got.trace.states[:, row], alone.trace.states[:, 0])
    for run, kind in zip(stacked[1:3], ("l2", "h1")):
        _assert_within_a_step_before(run.crossed, _first_crossings(kind, ks, near, 0.01))
        assert run.trace is None
    assert stacked[6].trace.times[-2:].tolist() == [0.93, 0.9375]
    for rows, run in zip(decays, stacked[3:]):
        rate = rows.k * (1.0 if rows.kind == "h1" else 0.5)
        assert abs(mn.decay_fit(rows, run) + rate) <= 1e-4 * rate


def test_planar_flows_validates_its_runs():
    start = np.array([[0.9, 0.1]])
    for bad in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError):
            mn.planar_flows([mn.PlanarRows("l2", 2, start, bad)])
    for bad in (dict(thresh=0.1, record=True), dict(thresh=-0.1), dict(thresh=math.nan)):
        with pytest.raises(ValueError):
            mn.planar_flows([mn.PlanarRows("l2", 2, start, 1.0, **bad)])
    for bad in (np.array([0.9, 0.1]), np.zeros((0, 2)), np.zeros((1, 3))):
        with pytest.raises(ValueError):
            mn.PlanarRows("l2", 2, bad, 1.0)
    with pytest.raises(ValueError):
        mn.reduced_flow_field(np.array(["l2", "l3"]), 2)


# --------------------------------------------------------------------------
# cyclic (Toeplitz) parametrization


def test_toeplitz_critical_point():
    for k in (2, 3, 6, 64):
        e1 = np.zeros(k)
        e1[0] = 1.0
        for kind in ("l2", "h1"):
            f = mn.toeplitz_field(kind, e1)
            assert np.abs(f).max() == 0.0


def test_toeplitz_field_is_projection_of_full_gradient():
    rng = np.random.default_rng(10)
    for k in (3, 4, 5, 32):
        t = rng.uniform(-0.3, 0.9, size=k)
        t[0] = 1.2
        W = mn.cyclic_students(t)
        Wstar = np.eye(k)
        for kind in ("l2", "h1"):
            f_t = mn.toeplitz_field(kind, t)
            f_full = mn.multinode_gradients(W, Wstar, kind)[0]
            assert np.abs(f_t - f_full).max() <= 1e-12


def test_toeplitz_zero_state_flagged():
    with pytest.raises(SingularPointError):
        mn.toeplitz_field("l2", np.zeros(3))


def test_toeplitz_planar_slice_matches_reduced_field():
    # t = (x, y, ..., y) must reproduce the planar dynamics: tdot_1 = xdot,
    # tdot_j = ydot for j >= 2
    rng = np.random.default_rng(11)
    for k in (2, 4, 32):
        x = rng.uniform(0.4, 1.0)
        y = rng.uniform(0.0, x - 0.1)
        t = np.full(k, y)
        t[0] = x
        for kind in ("l2", "h1"):
            f = mn.toeplitz_field(kind, t)
            xdot, ydot = mn.reduced_flow_field(kind, k)(np.array([x, y]))
            assert f[0] == pytest.approx(xdot, abs=1e-12)
            assert f[1:] == pytest.approx(np.full(k - 1, ydot), abs=1e-12)


def test_toeplitz_idealized_linearization_matrix():
    m, eigs = mn.toeplitz_linearization(3)
    assert np.allclose(m, 0.25 * np.eye(3) + 0.25 * np.ones((3, 3)))
    assert sorted(eigs) == pytest.approx([0.25, 0.25, 1.0])
    vals = np.sort(np.linalg.eigvalsh(m))
    assert vals == pytest.approx(np.sort(eigs), abs=1e-12)


def test_toeplitz_exact_jacobian_carries_extra_couplings():
    # the exact field's Jacobian at e1 is -(M + E) with E[0,0] = (K-1)/(2 pi)
    # and E[j, (k-j) mod k] = 1/(2 pi) for j >= 1 (0-based); the idealized
    # -M drops E.  The sine sums scale with the student norms but not the
    # teacher norms, which is exactly where E comes from.  Established by
    # central differences.
    for k in (3, 5):
        jac = mn.toeplitz_jacobian("l2", k)
        m_ideal, _ = mn.toeplitz_linearization(k)
        extra = np.zeros((k, k))
        extra[0, 0] = (k - 1) / TWO_PI
        for j in range(1, k):
            extra[j, (k - j) % k] = 1.0 / TWO_PI
        assert np.abs(-jac - (m_ideal + extra)).max() <= 1e-6


def _fd_points(k):
    h = mn._FD_STEP
    e1 = np.zeros(k)
    e1[0] = 1.0
    return np.concatenate([e1 + h * np.eye(k), e1 - h * np.eye(k)])


def test_stacked_toeplitz_rows_equal_their_one_vector_calls():
    rng = np.random.default_rng(12)
    for k in (2, 3, 5, 8, 16, 32, 64):
        stack = np.concatenate([rng.uniform(-0.3, 0.9, size=(5, k)), _fd_points(k)])
        for kind in ("l2", "h1"):
            f = mn.toeplitz_field(kind, stack)
            assert f.shape == stack.shape
            for row, t in zip(f, stack):
                assert np.array_equal(row, mn.toeplitz_field(kind, t)), (k, kind)


def _column_loop_jacobian(kind, k):
    # the one-column-at-a-time central difference the stacked version replaced
    h = mn._FD_STEP
    e1 = np.zeros(k)
    e1[0] = 1.0
    jac = np.zeros((k, k))
    for m in range(k):
        dp = e1.copy()
        dp[m] += h
        dm = e1.copy()
        dm[m] -= h
        jac[:, m] = (mn.toeplitz_field(kind, dp) - mn.toeplitz_field(kind, dm)) / (2.0 * h)
    return jac


def test_toeplitz_jacobian_equals_the_column_loop(monkeypatch):
    # from K = 64 on, the 2K points take several stacked calls
    for k in (2, 3, 8, 17, 64, 65):
        for kind in ("l2", "h1"):
            assert np.array_equal(mn.toeplitz_jacobian(kind, k), _column_loop_jacobian(kind, k))
    # 3 points per stacked call: 2K = 10 rows split into blocks of 3, 3, 3 and 1
    monkeypatch.setattr(mn, "_JACOBIAN_BLOCK", 3 * 5 * 5)
    calls = []
    field = mn.toeplitz_field
    monkeypatch.setattr(mn, "toeplitz_field",
                        lambda kind, t: calls.append(len(t)) or field(kind, t))
    for kind in ("l2", "h1"):
        assert np.array_equal(mn.toeplitz_jacobian(kind, 5), _column_loop_jacobian(kind, 5))
    assert calls[:4] == [3, 3, 3, 1]


def test_toeplitz_jacobian_temporaries_stay_small():
    # all 128 points at K = 64 in one stacked call would hold 16.5 MB
    tracemalloc.start()
    try:
        mn.toeplitz_jacobian("h1", 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"


def test_zero_row_anywhere_in_a_toeplitz_stack_flagged():
    stack = np.random.default_rng(13).uniform(0.1, 0.9, size=(4, 5))
    for r in range(len(stack)):
        bad = stack.copy()
        bad[r] = 0.0
        with pytest.raises(SingularPointError):
            mn.toeplitz_field("h1", bad)
