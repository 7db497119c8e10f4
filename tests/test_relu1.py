import math
import warnings

import numpy as np
import pytest

from sobolev_lab import multinode as mn
from sobolev_lab import relu1
from sobolev_lab.eigs import symmetric_eigs
from sobolev_lab.exceptions import SingularPointError
from sobolev_lab.geometry import _plane_coordinates, pair_geometry
from sobolev_lab.mc import McConfig, mc_loss_and_grad
from sobolev_lab.ode import rk4_integrate

TWO_PI = 2.0 * math.pi


def basin_pair(rng, dim, rmin=0.1, rmax=0.9):
    wstar = rng.standard_normal(dim)
    wstar *= rng.uniform(0.5, 2.0) / np.linalg.norm(wstar)
    e = rng.standard_normal(dim)
    e *= rng.uniform(rmin, rmax) * np.linalg.norm(wstar) / np.linalg.norm(e)
    return wstar + e, wstar


# --------------------------------------------------------------------------
# population gradients


def test_gradients_vanish_at_global_minimum():
    w = np.array([1.0, 0.0])
    b = relu1.population_gradients(w, w)
    assert np.all(b.grad_l2 == 0.0)
    assert np.all(b.grad_seminorm == 0.0)
    assert np.all(b.grad_h1 == 0.0)


def test_orthogonal_pair_closed_forms():
    b = relu1.population_gradients(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert b.grad_seminorm == pytest.approx([-0.25, 0.5], abs=1e-15)
    assert b.grad_l2 == pytest.approx([-0.25, 0.5 - 1.0 / TWO_PI], abs=1e-15)
    assert b.grad_l2[1] == pytest.approx(0.3408451, abs=1e-7)


def test_orthogonal_pair_against_mc_oracle():
    w = np.array([0.0, 1.0])
    ws = np.array([1.0, 0.0])
    closed = relu1.population_gradients(w, ws)
    cfg = McConfig(n_samples=10**6, seed=20240, dim=2)
    for kind, expected in (("l2", closed.grad_l2), ("h1_semi", closed.grad_seminorm)):
        est = mc_loss_and_grad("relu", kind, w, ws, cfg)
        assert np.all(np.abs(est.mean - expected) <= 3.0 * est.std_error)


def test_collinear_point_drops_angle_terms():
    ws = np.array([0.7, -0.4, 0.2])
    b = relu1.population_gradients(2.0 * ws, ws)
    assert b.grad_l2 == pytest.approx(0.5 * ws, abs=1e-15)
    assert b.grad_seminorm == pytest.approx(0.5 * ws, abs=1e-15)


def test_h1_gradient_is_exact_componentwise_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w, ws = basin_pair(rng, 6)
        b = relu1.population_gradients(w, ws)
        assert np.array_equal(b.grad_h1, b.grad_l2 + b.grad_seminorm)


def test_zero_student_is_flagged_singular():
    with pytest.raises(SingularPointError):
        relu1.population_gradients(np.zeros(2), np.array([1.0, 0.0]))


def test_tiny_nonzero_student_is_not_singular():
    # w.w underflows to 0 at |w| = 1e-300; the gradients' norm must not
    u, ws = np.array([0.6, 0.8, 0.0]), np.array([1.0, 0.0, 0.0])
    ref = relu1.population_gradients(1e-100 * u, ws)
    tiny = relu1.population_gradients(1e-300 * u, ws)
    for got, want in ((tiny.grad_l2, ref.grad_l2), (tiny.grad_seminorm, ref.grad_seminorm)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-99)
    # u and w* = e1 span the first two axes, so those are the plane coordinates
    stacked = relu1.plane_flow_field("l2", 1.0)(np.stack([1e-300 * u[:2], u[:2]]))
    np.testing.assert_allclose(stacked[0], -tiny.grad_l2[:2], rtol=1e-14, atol=1e-314)


def test_tiny_nonzero_teacher_is_not_singular():
    # w*.w* underflows to 0 at |w*| = 1e-300; the zero-teacher check must not.
    # Both gradients tend to w / 2 as w* -> 0.
    w = np.array([0.6, 0.8])
    tiny = relu1.population_gradients(w, 1e-300 * np.array([1.0, 0.0]))
    np.testing.assert_allclose(tiny.grad_l2, 0.5 * w, rtol=1e-14)
    np.testing.assert_allclose(tiny.grad_seminorm, 0.5 * w, rtol=1e-14)
    with pytest.raises(ValueError):
        relu1.population_gradients(w, np.zeros(2))


def test_gradients_match_mc_for_random_pairs():
    # moderate-N sweep; the full-size sweep runs in the acceptance suite
    rng = np.random.default_rng(81)
    cfg_n = 200_000
    for dim in (2, 8, 32):
        for rep in range(3):
            w, ws = basin_pair(rng, dim)
            closed = relu1.population_gradients(w, ws)
            for kind, expected in (("l2", closed.grad_l2), ("h1", closed.grad_h1)):
                cfg = McConfig(n_samples=cfg_n, seed=1000 + 10 * dim + rep, dim=dim)
                est = mc_loss_and_grad("relu", kind, w, ws, cfg)
                assert np.all(np.abs(est.mean - expected) <= 4.0 * est.std_error)


def test_finite_differences_of_mc_value_loss_match_gradient():
    # the value-loss integrand is continuous in w, so FD of the sampled loss
    # must agree with the sampled per-example gradient (common random numbers)
    rng = np.random.default_rng(17)
    w, ws = basin_pair(rng, 6)
    cfg = McConfig(n_samples=400_000, seed=99, dim=6)
    grad = mc_loss_and_grad("relu", "l2", w, ws, cfg)
    h = 1e-4
    for _ in range(5):
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        lp = mc_loss_and_grad("relu", "l2", w + h * d, ws, cfg, what="loss")
        lm = mc_loss_and_grad("relu", "l2", w - h * d, ws, cfg, what="loss")
        fd = (lp.mean - lm.mean) / (2.0 * h)
        directional = float(grad.mean @ d)
        se = float(np.linalg.norm(grad.std_error * d))
        # 4 SE for the sampling error of the gradient + an O(h) kink allowance
        assert abs(fd - directional) <= 4.0 * se + 5e-3 * h * cfg.n_samples**0


# --------------------------------------------------------------------------
# Hessians


def unit_pair_at_angle(theta, d=2, norm_w=1.0, norm_wstar=1.0):
    w = np.zeros(d)
    w[0] = math.cos(theta) * norm_w
    w[1] = math.sin(theta) * norm_w
    ws = np.zeros(d)
    ws[0] = norm_wstar
    return w, ws


def test_condition_numbers_at_thirty_degrees():
    w, ws = unit_pair_at_angle(math.pi / 6)
    rep = relu1.hessians(w, ws)
    assert rep.kappa_l2 == pytest.approx(1.0 / (1.0 - 1.0 / math.pi), rel=1e-12)  # 1.4669422
    assert rep.kappa_h1 == pytest.approx(1.0 / (1.0 - 3.0 / (4 * math.pi)), rel=1e-12)  # 1.3136...
    # numeric eigendecomposition confirms the closed forms to 1e-8
    num_l2 = rep.spectrum_l2.lam_max / rep.spectrum_l2.lam_min
    num_h1 = rep.spectrum_h1.lam_max / rep.spectrum_h1.lam_min
    assert num_l2 == pytest.approx(rep.kappa_l2, rel=1e-8)
    assert num_h1 == pytest.approx(rep.kappa_h1, rel=1e-8)


def test_student_direction_is_half_eigenvector_of_l2_hessian():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w, ws = basin_pair(rng, 5)
        hl, _ = relu1.hessian_matrices(w, ws)
        v = w / np.linalg.norm(w)
        assert np.abs(hl @ v - 0.5 * v).max() <= 1e-12


def test_kappas_approach_one_as_theta_vanishes():
    for theta in (1e-3, 1e-5):
        w, ws = unit_pair_at_angle(theta)
        rep = relu1.hessians(w, ws)
        assert rep.kappa_l2 == pytest.approx(1.0, abs=5 * theta)
        assert rep.kappa_h1 == pytest.approx(1.0, abs=5 * theta)
        assert rep.kappa_h1 < rep.kappa_l2


def test_l2_hessian_symmetric_h1_hessian_carries_known_skew():
    # hess L is symmetric; hess H as defined is not: its skew part is
    # exactly -alpha cos(theta) (v g^T - g v^T)/2 with g = u - cos(theta) v.
    rng = np.random.default_rng(23)
    for _ in range(10):
        w, ws = basin_pair(rng, 4)
        hl, hh = relu1.hessian_matrices(w, ws)
        assert np.abs(hl - hl.T).max() <= 1e-12
        geom = pair_geometry(w, ws)
        u = ws / geom.norm_wstar
        v = w / geom.norm_w
        g = u - geom.cos_theta * v
        skew_expected = -geom.alpha * geom.cos_theta * (np.outer(v, g) - np.outer(g, v)) / 2.0
        assert np.abs(0.5 * (hh - hh.T) - skew_expected).max() <= 1e-12


def test_hessians_are_jacobians_of_the_population_gradients():
    # an oracle independent of the spectra: central differences of the closed-form
    # gradients.  hess H is the Jacobian of grad L + grad J itself (rows = gradient
    # components); its transpose is off by the skew part.
    rng = np.random.default_rng(31)
    d, h = 6, 1e-6
    worst_l2 = worst_h1 = worst_h1_transposed = 0.0
    for _ in range(50):
        w, ws = rng.standard_normal(d), rng.standard_normal(d)
        fwd = [relu1.population_gradients(w + e, ws) for e in h * np.eye(d)]
        bwd = [relu1.population_gradients(w - e, ws) for e in h * np.eye(d)]
        jac_l2 = np.stack([(f.grad_l2 - b.grad_l2) / (2 * h) for f, b in zip(fwd, bwd)], axis=1)
        jac_h1 = np.stack([(f.grad_h1 - b.grad_h1) / (2 * h) for f, b in zip(fwd, bwd)], axis=1)
        hl, hh = relu1.hessian_matrices(w, ws)
        worst_l2 = max(worst_l2, np.abs(jac_l2 - hl).max())
        worst_h1 = max(worst_h1, np.abs(jac_h1 - hh).max())
        worst_h1_transposed = max(worst_h1_transposed, np.abs(jac_h1.T - hh).max())
    # measured worst cases: 2.0e-10 (L2), 4.4e-10 (H1), 0.11 (H1 transposed)
    assert worst_l2 <= 1e-9
    assert worst_h1 <= 1e-9
    assert worst_h1_transposed > 1e-2


def test_spectra_match_closed_forms_with_bulk_multiplicity():
    rng = np.random.default_rng(29)
    d = 8
    for _ in range(20):
        w, ws = basin_pair(rng, d)
        geom = pair_geometry(w, ws)
        rep = relu1.hessians(w, ws)
        cf = relu1.closed_form_eigs(geom)
        assert abs(rep.spectrum_l2.lam_max - 0.5) <= 1e-9
        assert abs(rep.spectrum_h1.lam_max - 1.0) <= 1e-9
        assert abs(rep.spectrum_l2.lam_min - cf["l2_min"]) <= 1e-9
        assert abs(rep.spectrum_h1.lam_min - cf["h1_min"]) <= 1e-9
        bulk_l = np.sum(np.abs(rep.spectrum_l2.eigenvalues - cf["l2_bulk"]) <= 1e-9)
        bulk_h = np.sum(np.abs(rep.spectrum_h1.eigenvalues - cf["h1_bulk"]) <= 1e-9)
        assert bulk_l >= d - 2
        assert bulk_h >= d - 2


def test_hessians_reject_singular_and_1d_inputs():
    with pytest.raises(SingularPointError):
        relu1.hessians(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        relu1.hessians(np.array([1.0]), np.array([2.0]))


def _mixed_stack(rng, d):
    """A teacher and students at random, near-collinear, tiny, huge and
    right-angle positions, each row at a different scale of the same kind."""
    ws = rng.standard_normal(d)
    ws /= np.linalg.norm(ws)
    rows = [basin_pair(rng, d)[0] for _ in range(4)]
    rows += [(1.0 + 0.3 * k) * ws + 10.0 ** (-3 - k) * rng.standard_normal(d) for k in range(2)]
    rows += [1e-160 * rng.standard_normal(d), 1e153 * rng.standard_normal(d)]
    perp = rng.standard_normal(d)
    perp -= (perp @ ws) * ws
    rows.append(perp)  # theta = pi/2 up to rounding
    return np.array(rows), ws


@pytest.mark.parametrize("d", [2, 6, 32])
def test_stacked_rows_are_the_one_vector_calls(d):
    # bit for bit: each row of a stack gives the numbers it gives alone
    ws_stack, ws = _mixed_stack(np.random.default_rng(d), d)
    hl, hh = relu1.hessian_matrices(ws_stack, ws)
    rep = relu1.hessians(ws_stack, ws)
    eta = np.linspace(0.1, 1.0, len(ws_stack))
    gd = relu1.gd_compare(ws_stack, ws, eta)
    for i, w in enumerate(ws_stack):
        one_l, one_h = relu1.hessian_matrices(w, ws)
        assert np.array_equal(hl[i], one_l) and np.array_equal(hh[i], one_h), i
        one = relu1.hessians(w, ws)
        for stacked, alone in ((rep.spectrum_l2, one.spectrum_l2), (rep.spectrum_h1, one.spectrum_h1)):
            assert np.array_equal(stacked.eigenvalues[i], alone.eigenvalues), i
        for stacked, alone in ((rep.kappa_l2, one.kappa_l2), (rep.kappa_h1, one.kappa_h1)):
            assert (math.isnan(stacked[i]) and alone is None) or stacked[i] == alone, i
        one_gd = relu1.gd_compare(w, ws, eta[i])
        for field in ("w_new_l2", "w_new_h1", "err_l2", "err_h1", "gain_f", "max_step_c", "eta",
                      "in_basin"):
            assert np.array_equal(getattr(gd, field)[i], getattr(one_gd, field)), (i, field)


def _one_pair_reference(w, ws, eta):
    """Hessians and GD numbers of one pair from its scalar geometry, np.outer,
    one-vector norms and the one-pair gradients: the arithmetic that every
    row of a stack must reproduce bit for bit."""
    g = pair_geometry(w, ws)
    u, v = ws / g.norm_wstar, w / g.norm_w
    eye = np.eye(len(w))
    proj = eye - np.outer(v, v)
    s2 = g.sin_theta * g.sin_theta
    hl = 0.5 * eye - g.alpha * ((np.outer(u, u) - g.cos_theta * np.outer(v, u) + s2 * eye) @ proj)
    hh = eye - g.alpha * ((2.0 * np.outer(u, u) - g.cos_theta * np.outer(v, u) + s2 * eye) @ proj)
    b = relu1.population_gradients(w, ws)
    num = -2.0 * float(b.grad_seminorm @ (w - ws))
    den = float(b.grad_l2 @ b.grad_l2) - float(b.grad_h1 @ b.grad_h1)
    errs = [float(np.sqrt(np.add.reduce(x * x)))
            for x in (w - eta * grad - ws for grad in (b.grad_l2, b.grad_h1))]
    return hl, hh, errs, num / den


def test_stacked_rows_keep_the_one_pair_arithmetic():
    # numpy's square and libm's pow (Python's float **) differ in the last bit
    # on about 1 input in 1000: the stack holds such angles, and every row
    # must take the square its pair takes alone
    rng = np.random.default_rng(77)
    ws = np.array([0.6, 0.8])
    stack = ws + rng.uniform(0.1, 0.9, (4000, 1)) * rng.standard_normal((4000, 2))
    sin = pair_geometry(stack, ws).sin_theta
    assert np.any(np.array([math.sin(t) ** 2 for t in pair_geometry(stack, ws).theta]) != sin * sin)
    eta = np.full(len(stack), 0.7)
    hl, hh = relu1.hessian_matrices(stack, ws)
    gd = relu1.gd_compare(stack, ws, eta)
    for i, w in enumerate(stack):
        ref_l, ref_h, (err_l2, err_h1), c = _one_pair_reference(w, ws, eta[i])
        assert np.array_equal(hl[i], ref_l) and np.array_equal(hh[i], ref_h), i
        assert (gd.err_l2[i], gd.err_h1[i], gd.max_step_c[i]) == (err_l2, err_h1, c), i


def test_near_collinear_hessian_asymmetry_is_a_singular_point():
    # hess L is symmetric in exact arithmetic; its rounding asymmetry grows
    # like alpha ~ 1/sin(theta) and, this close to the teacher's line, passes
    # the solver's tolerance: a numerical condition, not a bad input
    for d in (2, 8, 32):
        rng = np.random.default_rng(0)
        ws = rng.standard_normal(d)
        ws /= np.linalg.norm(ws)
        w = 1.3 * ws + 1e-7 * rng.standard_normal(d)
        with pytest.raises(SingularPointError, match="not symmetric"):
            relu1.hessians(w, ws)


def test_stacked_hessians_reject_a_singular_row():
    ws = np.array([1.0, 0.0, 0.0])
    stack = np.array([[0.3, 0.9, 0.1], [2.0, 0.0, 0.0], [0.5, -0.4, 0.2]])
    with pytest.raises(SingularPointError):
        relu1.hessians(stack, ws)
    with pytest.raises(SingularPointError):
        relu1.gd_compare(np.array([[0.3, 0.9, 0.1], [0.0, 0.0, 0.0]]), ws, 0.5)
    with pytest.raises(ValueError, match="positive"):
        relu1.gd_compare(stack, ws, np.array([0.1, 0.0, 0.2]))


def test_kappa_undefined_outside_convexity_region():
    # sin(theta)|w*|/|w| beyond pi/2 pushes the L2 minimum eigenvalue below 0
    w, ws = unit_pair_at_angle(1.2, norm_w=0.5, norm_wstar=2.0)
    rep = relu1.hessians(w, ws)
    assert rep.kappa_l2 is None
    assert rep.spectrum_l2.lam_min < 0


# --------------------------------------------------------------------------
# flow machinery


def test_lambda_closed_form_endpoints():
    _, _, lam0 = relu1.flow_quadratic_forms(0.0)
    assert lam0 == pytest.approx(0.0, abs=1e-12)
    theta = math.pi / 2 - 1e-12
    _, _, lam_end = relu1.flow_quadratic_forms(theta)
    assert lam_end == pytest.approx(math.pi, abs=1e-9)  # 3.1415927 at pi/2


def test_lambda_matches_numeric_m2_minimum():
    for theta in np.linspace(0.0, math.pi / 2, 200, endpoint=False):
        _, m2, lam = relu1.flow_quadratic_forms(float(theta))
        assert abs(lam - symmetric_eigs(m2).lam_min) <= 1e-10


def test_m_matrices_psd_on_grid():
    for theta in np.linspace(0.0, math.pi / 2, 1000, endpoint=False):
        m1, m2, _ = relu1.flow_quadratic_forms(float(theta))
        assert symmetric_eigs(m1).lam_min >= -1e-10
        assert symmetric_eigs(m2).lam_min >= -1e-10


def test_lambda_nonnegative_increasing_then_interior_maximum():
    # lambda grows from 0 but is NOT monotone on all of [0, pi/2): it peaks
    # near theta = 1.4441 (value ~3.27087) and falls back to pi at the right
    # endpoint.  Pin both the rising range and the tail decrease.
    grid = np.linspace(0.0, 1.44, 800)
    vals = [relu1.flow_quadratic_forms(float(t))[2] for t in grid]
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    peak = relu1.flow_quadratic_forms(1.4441)[2]
    near_end = relu1.flow_quadratic_forms(math.pi / 2 - 1e-6)[2]
    assert peak == pytest.approx(3.2708689, abs=1e-6)
    assert near_end < peak  # decreasing tail
    assert near_end == pytest.approx(math.pi, abs=1e-5)


def test_theta_domain_enforced():
    with pytest.raises(ValueError):
        relu1.flow_quadratic_forms(math.pi / 2)
    with pytest.raises(ValueError):
        relu1.flow_quadratic_forms(-0.1)


def test_n_matrices_signs_on_grid():
    for theta in np.linspace(0.0, math.pi / 2, 300, endpoint=False):
        n1, n2, n3, n4, n5 = relu1.gd_quadratic_forms(float(theta))
        # N2 and M1 are both the form of 2 grad L . (w - w*)
        assert np.array_equal(n2, relu1.flow_quadratic_forms(float(theta))[0])
        for m in (n1, n2, n3, n4):
            assert symmetric_eigs(m).lam_min >= -1e-10
        assert symmetric_eigs(n5).lam_max <= 1e-10


def test_flow_rhs_zero_at_minimum_and_doubles_at_collinearity():
    ns = float(np.linalg.norm([0.5, 1.5, -1.0]))
    pstar = np.array([[ns, 0.0]])
    l2, h1 = relu1.plane_flow_field("l2", ns), relu1.plane_flow_field("h1", ns)
    assert np.all(l2(pstar) == 0.0)
    assert np.all(h1(pstar) == 0.0)
    p = 1.7 * pstar
    assert h1(p) == pytest.approx(2.0 * l2(p), abs=1e-15)


def test_flow_rhs_descent_chain_on_basin():
    # -(w-w*) . grad H <= -(w-w*) . grad L - lambda(theta) (|w|^2+|w*|^2)/(4 pi),
    # the quadratic-form bound behind the accelerated dV/dt
    rng = np.random.default_rng(37)
    for _ in range(1000):
        w, ws = basin_pair(rng, 4)
        p, pstar = _plane_coordinates(w, ws)
        e = p - pstar
        theta = pair_geometry(w, ws).theta
        lam = relu1.flow_quadratic_forms(theta)[2]
        f_h1, f_l2 = relu1.plane_flow_field(np.array(["h1", "l2"]), pstar[0])(np.stack([p, p]))
        lhs = float(e @ f_h1)
        rhs = float(e @ f_l2) - lam * (
            float(w @ w) + float(ws @ ws)
        ) / (4.0 * math.pi)
        assert lhs <= rhs + 1e-12
        assert lhs < 0.0


def test_h1_flow_trace_dominated_by_l2_flow_trace():
    rng = np.random.default_rng(41)
    w0, ws = basin_pair(rng, 8, rmin=0.5, rmax=0.5)
    p0, pstar = _plane_coordinates(w0, ws)
    tr_l2, tr_h1 = (rk4_integrate(relu1.plane_flow_field(kind, pstar[0]), p0, 1e-3, 5.0, pstar,
                                  record_every=50) for kind in ("l2", "h1"))
    assert np.all(tr_h1.v_values <= tr_l2.v_values + 1e-15)


def test_per_row_kinds_match_single_kind_fields_bitwise():
    # a stack of both kinds is one field call; each row is the float the
    # field of its own kind gives on the same stack, and its kind's gradient
    # at that one point to rounding; a per-row unknown kind is an error.  In
    # d = 2 with w* on the first axis a student is its own plane point, also
    # below that axis
    rng = np.random.default_rng(43)
    ws = np.array([1.3, 0.0])
    w = ws + 0.4 * rng.standard_normal((6, 2))
    kinds = np.array(["l2", "h1", "h1", "l2", "h1", "l2"])
    stacked = relu1.plane_flow_field(kinds, ws[0])(w)
    for kind in ("l2", "h1"):
        alone = relu1.plane_flow_field(kind, ws[0])(w)
        assert np.array_equal(stacked[kinds == kind], alone[kinds == kind])
    for i, kind in enumerate(kinds):
        b = relu1.population_gradients(w[i], ws)
        np.testing.assert_allclose(stacked[i], -(b.grad_h1 if kind == "h1" else b.grad_l2),
                                   rtol=1e-14, atol=1e-15)
    with pytest.raises(ValueError):
        relu1.plane_flow_field(np.array(["l2", "h2"]), ws[0])


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_plane_flow_traces_match_the_d_dimensional_traces(d, plane_starts):
    # every gradient lies in span{w, w*}, so the (m, 2) plane flow is the
    # d-dimensional one up to rounding, for both kinds, on and next to the
    # teacher's line; a start on the line stays on it.  The d-dimensional
    # field is the K = 1 case of the K-node field, with its own arithmetic
    w0, ws = plane_starts(d, seed=50 + d)
    m = len(w0)
    p0, pstar = _plane_coordinates(w0, ws)
    assert p0[m - 2, 1] <= 1e-15
    p0[m - 2, 1] = 0.0
    kinds = np.repeat(["l2", "h1"], m)
    c = np.where(kinds == "h1", 2, 1)[:, None]  # kind factor of each row
    full = rk4_integrate(lambda s: mn._node_field(s, s[:, None, :], ws[None], c),
                         np.tile(w0, (2, 1)), 1e-2, 3.0, ws, record_every=10)
    plane = rk4_integrate(relu1.plane_flow_field(kinds, pstar[0]), np.tile(p0, (2, 1)), 1e-2, 3.0,
                          pstar, record_every=10)
    assert np.abs(plane.v_values - full.v_values).max() <= 1e-13
    assert (plane.states[:, [m - 2, 2 * m - 2], 1] == 0.0).all()
    with pytest.raises(SingularPointError):
        relu1.plane_flow_field("l2", 1.0)(np.array([[0.5, 0.0], [0.0, 0.0]]))


# --------------------------------------------------------------------------
# one-step GD comparison


def test_gd_compare_collinear_arithmetic():
    ws = np.array([1.0, 0.0])
    rep = relu1.gd_compare(2.0 * ws, ws, eta=0.5)
    assert rep.err_l2 == pytest.approx(0.75, abs=1e-15)
    assert rep.err_h1 == pytest.approx(0.5, abs=1e-15)
    assert rep.gain_f == pytest.approx(0.25, abs=1e-15)


def test_gd_compare_collinear_stepsize_bound():
    ws = np.array([0.0, 3.0, 0.0])
    rep = relu1.gd_compare(1.4 * ws, ws, eta=0.1)
    assert abs(rep.max_step_c - 4.0 / 3.0) <= 1e-12


def test_gd_compare_fixed_point_at_minimum():
    ws = np.array([1.0, 2.0])
    rep = relu1.gd_compare(ws.copy(), ws, eta=0.3)
    assert np.all(rep.w_new_l2 == ws)
    assert np.all(rep.w_new_h1 == ws)
    assert rep.gain_f == 0.0


def test_gd_compare_guarantee_on_random_basin_points():
    rng = np.random.default_rng(53)
    for _ in range(200):
        w, ws = basin_pair(rng, 6)
        c = relu1.gd_compare(w, ws, eta=1e-3).max_step_c
        rep = relu1.gd_compare(w, ws, eta=0.9 * c)
        assert rep.in_basin
        assert rep.gain_f > 0.0
        assert rep.err_h1 <= rep.err_l2 - rep.gain_f + 1e-15


def test_gd_compare_relative_step_is_the_probe_then_step_pair():
    # a relative stepsize is eta times each row's own C, bit for bit the
    # report of a probe call for C and a call at that stepsize; the report
    # carries the pair geometry it was formed from
    rng = np.random.default_rng(54)
    ws = rng.standard_normal(5)
    stack = np.stack([basin_pair(rng, 5)[0] for _ in range(6)])
    for w in (stack, stack[0]):
        rep = relu1.gd_compare(w, ws, 0.9, relative=True)
        c = relu1.gd_compare(w, ws, 1.0).max_step_c
        two = relu1.gd_compare(w, ws, 0.9 * np.asarray(c))
        for field in ("w_new_l2", "w_new_h1", "err_l2", "err_h1", "gain_f", "max_step_c", "eta",
                      "in_basin"):
            assert np.array_equal(getattr(rep, field), getattr(two, field)), field
        assert np.array_equal(rep.eta, 0.9 * np.asarray(c))
        assert np.array_equal(rep.geometry.theta, pair_geometry(w, ws).theta)


def test_gd_compare_flags_outside_basin():
    ws = np.array([1.0, 0.0])
    rep = relu1.gd_compare(np.array([-2.0, 0.5]), ws, eta=0.05)
    assert not rep.in_basin


# --------------------------------------------------------------------------
# convexity regions: S (L2 Hessian positive definite) and S' (H1) are where
# condition_numbers defines kappa_L2 and kappa_H1


def _regions(w, ws):
    """(in S, in S') from the condition numbers' definedness."""
    return tuple(k is not None for k in relu1.condition_numbers(pair_geometry(w, ws)))


def test_basin_classify_examples():
    ws = np.array([1.0, 0.0])
    assert _regions(ws, ws) == (True, True)
    # |w|=1, |w*|=2.5, theta=pi/2: fails both strict inequalities
    assert _regions(np.array([0.0, 1.0]), np.array([2.5, 0.0])) == (False, False)
    # |w|=1, |w*|=1.8, theta=pi/2: pi/3.6 < 1 fails S, 2pi/5.4 > 1 passes S'
    assert _regions(np.array([0.0, 1.0]), np.array([1.8, 0.0])) == (False, True)
    assert _regions(np.zeros(2), ws) == (False, False)


def test_basin_classify_is_scale_invariant_down_to_tiny_pairs():
    w, ws = np.array([0.6, 0.8]), np.array([1.0, 0.0])
    assert _regions(w, ws) == (True, True)
    assert _regions(1e-300 * w, 1e-300 * ws) == (True, True)
    with pytest.raises(ValueError):
        _regions(w, np.zeros(2))


def test_region_labels_match_hessian_minimum_eigenvalues():
    rng = np.random.default_rng(61)
    for _ in range(50):
        w = rng.standard_normal(3)
        ws = rng.standard_normal(3)
        if np.linalg.norm(ws) < 0.1 or pair_geometry(w, ws).sin_theta < 1e-6:
            continue
        in_s, in_sprime = _regions(w, ws)
        rep = relu1.hessians(w, ws)
        if in_s:
            assert rep.spectrum_l2.lam_min > -1e-12
        else:
            assert rep.spectrum_l2.lam_min < 1e-9
        if in_sprime:
            assert rep.spectrum_h1.lam_min > -1e-12
        else:
            assert rep.spectrum_h1.lam_min < 1e-9


def test_gd_compare_bound_at_huge_and_tiny_points_is_the_unscaled_bound():
    # C is degree 0 in (w, w*), so at lambda (w, w*) it is the float it is
    # at (w, w*), also where its dot products leave the floats, and a
    # relative step there is taken, with no warning
    rng = np.random.default_rng(56)
    ws = rng.standard_normal(5)
    w = ws + 0.6 * rng.standard_normal((40, 5))
    base = relu1.gd_compare(w, ws, 1.0).max_step_c
    assert np.isfinite(base).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (2.0**500, 2.0**-500, 2.0**900, 2.0**-900):
            assert np.array_equal(relu1.gd_compare(lam * w, lam * ws, 1.0).max_step_c, base), lam
            assert relu1.gd_compare(lam * w[7], lam * ws, 1.0).max_step_c == base[7], lam
            rep = relu1.gd_compare(lam * w, lam * ws, 0.9, relative=True)
            assert np.array_equal(rep.eta, 0.9 * base), lam
        huge = relu1.gd_compare(np.array([3e200, 4e200]), np.array([1.0, 0.5]), 1e-300)
        assert math.isfinite(huge.max_step_c)
