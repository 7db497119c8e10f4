import math
import warnings

import numpy as np
import pytest

from sobolev_lab import relusq
from sobolev_lab.eigs import symmetric_eigs
from sobolev_lab.exceptions import SingularPointError
from sobolev_lab.geometry import _plane_coordinates, basin_pairs
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
    g, h, g1, sc = relusq._coeffs(0.0)
    assert g == pytest.approx(math.pi, abs=1e-15)
    assert h == pytest.approx(2 * math.pi, abs=1e-15)
    assert g1 == pytest.approx(2 * math.pi, abs=1e-15)
    assert sc == 0.0


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
    for kind in ("i1", "i2", "i3"):
        est = mc_loss_and_grad("relu_sq", kind, w, ws, cfg)
        target = getattr(closed, "grad_" + kind)
        assert np.all(np.abs(est.mean - target) <= 4.0 * est.std_error), kind


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


def test_gradients_that_leave_the_floats_raise():
    # at |w| ~ 1e150 the gradients are ~1e450: no float, so no NaN either;
    # at 1e100 they are finite and the descent inner products ~1e400 are not
    rng = np.random.default_rng(15)
    w, ws = rng.standard_normal(4), rng.standard_normal(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e150, 1e300):
            with pytest.raises(SingularPointError, match="leaves the floats"):
                relusq.h2_gradients(lam * w, lam * ws)
            with pytest.raises(SingularPointError, match="leaves the floats"):
                relusq.h2_gradients(np.stack([w, lam * w]), lam * ws)
            with pytest.raises(SingularPointError, match="leaves the floats"):
                relusq.descent_inner_products(lam * w[None], lam * ws)
        assert np.isfinite(relusq.h2_gradients(1e100 * w, 1e100 * ws).grad_i1).all()
        with pytest.raises(SingularPointError, match="descent inner product leaves the floats"):
            relusq.descent_inner_products(1e100 * w[None], 1e100 * ws)


def test_tiny_nonzero_teacher_flow_field_is_not_singular():
    # w*.w* underflows to 0 at |w*| = 1e-300; the zero-teacher checks must not.
    # As w* -> 0 the three gradients tend to 3, 4 and 4 |w|^2 w.  With w* on
    # the first axis of d = 2, a student is its own plane point.
    w = np.array([0.6, 0.8])
    f = relusq.h2_plane_field("h2", 1e-300)(np.stack([w, 2.0 * w]))
    np.testing.assert_allclose(f, -11.0 * np.stack([w, 8.0 * w]), rtol=1e-14)
    b = relusq.h2_gradients(2.0 * w, 1e-300 * np.array([1.0, 0.0]))
    np.testing.assert_allclose(b.grad_i1 + b.grad_i2 + b.grad_i3, 88.0 * w, rtol=1e-14)
    with pytest.raises(SingularPointError):
        relusq.h2_plane_field("h2", 0.0)


def test_descent_everywhere_on_basin():
    # -(w - w*).grad Ij < 0 for each component at points 0 < |w - w*| < |w*|
    rng = np.random.default_rng(14)
    for _ in range(1000):
        w, ws = basin_pair(rng, 4)
        e = w - ws
        assert 0.0 < np.linalg.norm(e) < np.linalg.norm(ws)
        b = relusq.h2_gradients(w, ws)
        assert -float(e @ b.grad_i1) < 0.0
        assert -float(e @ b.grad_i2) < 0.0
        assert -float(e @ b.grad_i3) < 0.0


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
    p0, pstar = _plane_coordinates(w0, ws)
    tr_h2 = rk4_integrate(relusq.h2_plane_field("h2", pstar[0]), p0, 1e-3, 3.0, pstar,
                          record_every=50)
    tr_i1 = rk4_integrate(relusq.h2_plane_field("i1", pstar[0]), p0, 1e-3, 3.0, pstar,
                          record_every=50)
    assert np.all(tr_h2.v_values <= tr_i1.v_values + 1e-15)


def test_batched_field_matches_pointwise_rhs():
    # in d = 2 with w* on the first axis a student is its own plane point,
    # also below that axis
    rng = np.random.default_rng(7)
    ws = np.array([1.2, 0.0])
    field = relusq.h2_plane_field("h2", ws[0])
    w = ws + 0.3 * rng.standard_normal((5, 2))
    batched = field(w)
    for i in range(5):
        b = relusq.h2_gradients(w[i], ws)
        assert batched[i] == pytest.approx(-(b.grad_i1 + b.grad_i2 + b.grad_i3), rel=1e-12)


def test_per_row_variants_match_single_variant_fields_bitwise():
    # the relusq experiment integrates h2 and i1 rows as one ensemble; each
    # row is the float the field of its own variant gives on the same stack,
    # and on a stack of that row alone
    rng = np.random.default_rng(11)
    ws = rng.standard_normal(4)
    w = ws + 0.3 * rng.standard_normal((6, 4))
    p, pstar = _plane_coordinates(w, ws)
    variants = ["h2", "i1", "i1", "h2", "h2", "i1"]
    stacked = relusq.h2_plane_field(variants, pstar[0])(p)
    for i, variant in enumerate(variants):
        assert np.array_equal(stacked[i], relusq.h2_plane_field(variant, pstar[0])(p)[i])
        assert np.array_equal(stacked[i], relusq.h2_plane_field(variant, pstar[0])(p[i:i + 1])[0])
    for bad in ("i3", ["i1", "h1"]):
        with pytest.raises(ValueError, match="unknown relusq variant"):
            relusq.h2_plane_field(bad, pstar[0])


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_plane_flow_traces_match_the_d_dimensional_traces(d, plane_starts):
    # both variants of the relusq experiment, in one ensemble, on and
    # next to the teacher's line: the (m, 2) plane flow is the d-dimensional
    # one, one stacked ``h2_gradients`` call per stage, up to rounding, and a
    # start on the line stays on it
    w0, ws = plane_starts(d, seed=60 + d)
    m = len(w0)
    p0, pstar = _plane_coordinates(w0, ws)
    p0[m - 2, 1] = 0.0
    variants = ["h2"] * m + ["i1"] * m
    h2_rows = np.repeat([True, False], m)[:, None]

    def stacked_field(w):
        b = relusq.h2_gradients(w, ws)
        return -np.where(h2_rows, b.grad_i1 + b.grad_i2 + b.grad_i3, b.grad_i1)

    full = rk4_integrate(stacked_field, np.tile(w0, (2, 1)), 1e-2, 3.0, ws, record_every=10)
    plane = rk4_integrate(relusq.h2_plane_field(variants, pstar[0]), np.tile(p0, (2, 1)), 1e-2,
                          3.0, pstar, record_every=10)
    assert np.abs(plane.v_values - full.v_values).max() <= 1e-13
    assert (plane.states[:, [m - 2, 2 * m - 2], 1] == 0.0).all()
    with pytest.raises(SingularPointError):
        relusq.h2_plane_field("h2", 0.0)


def test_stacked_gradients_are_the_one_pair_gradients():
    # bit for bit, over ordinary, tiny, huge, collinear and opposite students
    # at d = 2..64; a zero student, in a stack or alone, or a zero teacher is
    # singular, and a student whose |w|^2 w leaves the floats raises
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 16, 64):
        ws = rng.standard_normal(d)
        rows = np.stack([*rng.standard_normal((4, d)), 1e-300 * rng.standard_normal(d),
                         1e100 * rng.standard_normal(d), 2.0 * ws, -0.5 * ws, ws])
        stacked = relusq.h2_gradients(rows, ws)
        alone = [relusq.h2_gradients(w, ws) for w in rows]
        for part in ("grad_i1", "grad_i2", "grad_i3"):
            assert getattr(stacked, part).shape == rows.shape
            np.testing.assert_array_equal(getattr(stacked, part),
                                          [getattr(b, part) for b in alone], err_msg=part)
        huge = 1e300 * rng.standard_normal(d)
        for w in (huge, np.concatenate([rows, huge[None]])):
            with pytest.raises(SingularPointError, match="leaves the floats"):
                relusq.h2_gradients(w, ws)
        with pytest.raises(SingularPointError):
            relusq.h2_gradients(np.concatenate([rows[:2], np.zeros((1, d))]), ws)
        with pytest.raises(SingularPointError):
            relusq.h2_gradients(rows, np.zeros(d))
    with pytest.raises(ValueError):
        relusq.h2_gradients(rows, rows)


@pytest.mark.parametrize("d", [2, 4, 8, 9, 32])
def test_stacked_descent_rows_are_the_one_pair_rows(d):
    for seed in range(6):
        ws, wstar = basin_pairs(np.random.default_rng(seed), d, 40)
        stacked = relusq.descent_inner_products(ws, wstar)
        assert stacked.shape == (40, 3)
        for w, row in zip(ws, stacked):
            b = relusq.h2_gradients(w, wstar)
            e = w - wstar
            assert np.array_equal(row, [-float(e @ g) for g in (b.grad_i1, b.grad_i2, b.grad_i3)])
    with pytest.raises(SingularPointError):
        relusq.descent_inner_products(np.zeros((2, 3)), np.ones(3))
