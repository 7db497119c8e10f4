import math

import numpy as np
import pytest

from sobolev_lab import relusq
from sobolev_lab.eigs import symmetric_eigs
from sobolev_lab.exceptions import SingularPointError
from sobolev_lab.mc import McConfig, mc_loss_and_grad
from sobolev_lab.ode import rk4_integrate


def basin_pair(rng, dim, rmin=0.1, rmax=0.9):
    wstar = rng.standard_normal(dim)
    wstar *= rng.uniform(0.5, 2.0) / np.linalg.norm(wstar)
    e = rng.standard_normal(dim)
    e *= rng.uniform(rmin, rmax) * np.linalg.norm(wstar) / np.linalg.norm(e)
    return wstar + e, wstar


def test_all_gradients_vanish_at_minimum():
    ws = np.array([0.8, -0.6, 1.1])
    b = relusq.h2_gradients(ws.copy(), ws)
    assert np.abs(b.grad_i1).max() <= 1e-12
    assert np.abs(b.grad_i2).max() <= 1e-12
    assert np.abs(b.grad_i3).max() <= 1e-12


def test_coefficient_identity_at_zero_angle():
    # G(0) = pi and H(0) = 2 pi force grad I1 to cancel exactly at w = w*
    g, h, g1 = relusq._coeffs(0.0)
    assert g == pytest.approx(math.pi, abs=1e-15)
    assert h == pytest.approx(2 * math.pi, abs=1e-15)
    assert g1 == pytest.approx(2 * math.pi, abs=1e-15)


def test_collinear_hessian_mismatch_gradient():
    # w = c w*: grad I3 = 4 |w*|^2 (c^3 - c) w*
    ws = np.array([1.5, 0.0])
    for c in (0.5, 1.0, 1.25):
        b = relusq.h2_gradients(c * ws, ws)
        expected = 4.0 * float(ws @ ws) * (c**3 - c) * ws
        assert b.grad_i3 == pytest.approx(expected, abs=1e-12)
    assert float(relusq.h2_gradients(0.5 * ws, ws).grad_i3 @ ws) < 0.0


def test_gradients_match_mc_oracle():
    w = np.array([0.8, 0.3])
    ws = np.array([1.0, 0.0])
    closed = relusq.h2_gradients(w, ws)
    cfg = McConfig(n_samples=10**6, seed=2718, dim=2)
    est = mc_loss_and_grad("relu_sq", "h2_parts", w, ws, cfg)
    stacked = np.stack([closed.grad_i1, closed.grad_i2, closed.grad_i3])
    assert np.all(np.abs(est.mean - stacked) <= 4.0 * est.std_error)


def test_zero_vectors_flagged_singular():
    with pytest.raises(SingularPointError):
        relusq.h2_gradients(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(SingularPointError):
        relusq.h2_gradients(np.array([1.0, 0.0]), np.zeros(2))


def test_tiny_nonzero_student_is_not_singular():
    # every gradient is c times a limit as w = c u -> 0, and |w|^2 underflows first
    u, ws = np.array([0.6, 0.8, 0.0]), np.array([1.0, 0.0, 0.0])
    ref = relusq.h2_gradients(1e-100 * u, ws)
    tiny = relusq.h2_gradients(1e-300 * u, ws)
    for part in ("grad_i1", "grad_i2", "grad_i3"):
        np.testing.assert_allclose(getattr(tiny, part) / 1e-300, getattr(ref, part) / 1e-100,
                                   rtol=1e-14, atol=1e-150)


def test_tiny_nonzero_teacher_flow_field_is_not_singular():
    # w*.w* underflows to 0 at |w*| = 1e-300; the field's zero-teacher check must not.
    # As w* -> 0 the three gradients tend to 3, 4 and 4 |w|^2 w.
    w = np.array([0.6, 0.8])
    f = relusq.h2_flow_field(1e-300 * np.array([1.0, 0.0]))(np.stack([w, 2.0 * w]))
    np.testing.assert_allclose(f, -11.0 * np.stack([w, 8.0 * w]), rtol=1e-14)
    with pytest.raises(SingularPointError):
        relusq.h2_flow_field(np.zeros(2))


def test_descent_everywhere_on_basin():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        w, ws = basin_pair(rng, 4)
        rep = relusq.descent_check(w, ws)
        assert rep.descent_i1 and rep.descent_i2 and rep.descent_i3
        assert not rep.degenerate
        assert not rep.guarantee_void


def test_descent_degenerate_and_void_flags():
    ws = np.array([1.0, 2.0, 0.0])
    rep = relusq.descent_check(ws.copy(), ws)
    assert rep.degenerate
    assert rep.descent_i1 and rep.descent_i2 and rep.descent_i3
    far = relusq.descent_check(np.array([-3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert far.guarantee_void


def test_proof_form_m2_psd_and_m_cone_restricted():
    # the I2 form is PSD on the whole angle range; the I1 form M loses
    # definiteness past theta ~ 1.02 (det goes negative) yet the descent
    # inequality itself keeps holding on the basin, where |w| < 2|w*|cos(theta)
    for theta in np.linspace(0.0, math.pi / 2, 500, endpoint=False):
        _, m2 = relusq.descent_quadratic_forms(float(theta))
        assert symmetric_eigs(m2).lam_min >= -1e-10
    for theta in np.linspace(0.0, 1.0, 200):
        m, _ = relusq.descent_quadratic_forms(float(theta))
        assert np.linalg.det(m) >= -1e-9
    m_late, _ = relusq.descent_quadratic_forms(1.45)
    assert np.linalg.det(m_late) < 0.0  # pinned counterexample


def test_h2_flow_stays_below_value_only_flow():
    rng = np.random.default_rng(99)
    ws = rng.standard_normal(4)
    ws /= np.linalg.norm(ws)
    dirs = rng.standard_normal((20, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    w0 = ws + rng.uniform(0.1, 0.7, size=20)[:, None] * dirs
    tr_h2 = rk4_integrate(relusq.h2_flow_field(ws), w0, 1e-3, 3.0, ws, record_every=50)
    tr_i1 = rk4_integrate(relusq.h2_flow_field(ws, ("i1",)), w0, 1e-3, 3.0, ws, record_every=50)
    assert np.all(tr_h2.v_values <= tr_i1.v_values + 1e-15)


def test_batched_field_matches_pointwise_rhs():
    rng = np.random.default_rng(7)
    ws = rng.standard_normal(3)
    field = relusq.h2_flow_field(ws)
    w = ws + 0.3 * rng.standard_normal((5, 3))
    batched = field(w)
    for i in range(5):
        assert batched[i] == pytest.approx(relusq.h2_flow_rhs(w[i], ws), rel=1e-12)


def test_per_row_parts_match_single_set_fields_bitwise():
    # the relusq experiment integrates h2 and i1 rows as one ensemble; each
    # row is the float the field of its own component set gives on the same
    # stack, and on a stack of that row alone
    rng = np.random.default_rng(11)
    ws = rng.standard_normal(4)
    w = ws + 0.3 * rng.standard_normal((6, 4))
    row_parts = [("i1", "i2", "i3"), ("i1",), ("i1",), ("i3", "i1"), ("i1", "i2", "i3"), ("i2",)]
    stacked = relusq.h2_flow_field(ws, row_parts)(w)
    for i, parts in enumerate(row_parts):
        assert np.array_equal(stacked[i], relusq.h2_flow_field(ws, parts)(w)[i])
        assert np.array_equal(stacked[i], relusq.h2_flow_field(ws, parts)(w[i:i + 1])[0])
    with pytest.raises(ValueError):
        relusq.h2_flow_field(ws, [("i1",), ()])
