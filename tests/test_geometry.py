import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sobolev_lab.geometry import _angle_norms, pair_geometry


def test_identical_directions_flag_infinite_alpha():
    g = pair_geometry(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert g.theta == 0.0
    assert math.isinf(g.alpha)
    # cancelled products stay finite at the removable singularity
    assert g.alpha_sin == pytest.approx(1.0 / (2 * math.pi))
    assert g.alpha_sin_sq == 0.0


def test_orthogonal_unit_vectors():
    g = pair_geometry(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert g.theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert g.alpha == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)


def test_thirty_degree_pair_against_arccos():
    w = np.array([math.sqrt(3) / 2, 0.5])
    ws = np.array([1.0, 0.0])
    g = pair_geometry(w, ws)
    # independent angle: arccos of the explicitly normalized inner product
    expected = math.acos(float(w @ ws) / (np.linalg.norm(w) * np.linalg.norm(ws)))
    assert g.theta == pytest.approx(expected, abs=1e-15)
    assert g.theta == pytest.approx(math.pi / 6, abs=1e-15)
    assert g.alpha == pytest.approx(1.0 / math.pi, rel=1e-14)  # 0.3183099


def test_dimension_mismatch_and_zero_teacher_rejected():
    with pytest.raises(ValueError):
        pair_geometry(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        pair_geometry(np.array([1.0, 0.0]), np.zeros(2))


def test_zero_student_flags_infinite_alpha():
    g = pair_geometry(np.zeros(3), np.array([1.0, 2.0, 2.0]))
    assert math.isinf(g.alpha)
    assert math.isinf(g.alpha_sin)


def test_angle_stays_accurate_at_collinearity():
    # plain arccos of the inner product loses half the digits here (errors
    # around 1e-8); the two-argument form keeps full precision
    w = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    assert _angle_norms(2.0 * w, w)[0] == 0.0  # power-of-two scaling is exact
    assert _angle_norms(7.0 * w, w)[0] <= 1e-15
    assert _angle_norms(-w, w)[0] == pytest.approx(math.pi, abs=1e-12)


@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    cstar=st.floats(min_value=1e-3, max_value=1e3),
)
def test_angle_invariant_under_positive_scaling(c, cstar):
    w = np.array([0.3, -1.2, 0.7])
    ws = np.array([1.0, 0.4, -0.2])
    base = pair_geometry(w, ws).theta
    scaled = pair_geometry(c * w, cstar * ws).theta
    assert scaled == pytest.approx(base, abs=1e-12)


# properties at the singular boundaries of the pair geometry

_unit_ish = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1)


@given(t=st.floats(min_value=0.0, max_value=1e-3), r=st.floats(min_value=1e-3, max_value=1e3))
def test_cancelled_alpha_forms_stay_finite_as_theta_vanishes(t, r):
    g = pair_geometry(np.array([r * math.cos(t), r * math.sin(t), 0.0]), np.array([1.0, 0.0, 0.0]))
    assert g.theta == pytest.approx(t, abs=1e-15)
    assert g.alpha_sin == pytest.approx(1.0 / (2 * math.pi * r), rel=1e-14)
    # alpha sin^2 = alpha_sin sin(theta) goes to 0 with theta instead of 0 * inf
    assert 0.0 <= g.alpha_sin_sq <= g.alpha_sin * (t + 1e-15)
    if math.isfinite(g.alpha):
        assert g.alpha * g.sin_theta == pytest.approx(g.alpha_sin, rel=1e-12)
    else:  # sin(theta) = 0, or a subnormal theta takes alpha past the largest float
        assert g.sin_theta == 0.0 or g.alpha_sin / g.sin_theta > 1.7e308


@given(c=st.floats(min_value=1e-300, max_value=1.0), v=_unit_ish)
def test_tiny_students_keep_norm_and_angle(c, v):
    w = np.array(v)
    ws = np.array([1.0, 0.4, -0.2])
    base = pair_geometry(w, ws)
    g = pair_geometry(c * w, ws)
    assert g.norm_w == pytest.approx(c * base.norm_w, rel=1e-14)
    assert g.theta == pytest.approx(base.theta, abs=1e-12)
    assert g.alpha_sin * g.norm_w == pytest.approx(base.alpha_sin * base.norm_w, rel=1e-14)
    # the row-reduction norm of a stack is as scale-safe as the one-vector norm
    assert _angle_norms(np.stack([c * w, w]), ws)[0] == pytest.approx([base.theta] * 2, abs=1e-12)


@given(c=st.floats(min_value=1e-3, max_value=1e3), v=_unit_ish)
def test_collinear_pairs(c, v):
    ws = np.array(v)
    same = pair_geometry(c * ws, ws)
    assert same.theta <= 1e-15
    assert same.alpha_sin == pytest.approx(same.norm_wstar / (2 * math.pi * same.norm_w), rel=1e-15)
    assert same.alpha_sin_sq <= 1e-15 * same.alpha_sin
    opposite = pair_geometry(-c * ws, ws)
    assert opposite.theta == pytest.approx(math.pi, abs=1e-15)
    assert opposite.alpha_sin_sq <= 1e-15 * opposite.alpha_sin
