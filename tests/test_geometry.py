import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sobolev_lab import multinode as mn, relu1, relusq
from sobolev_lab.geometry import (_angle_norms, _norm, _plane_angle_norms, _plane_coordinates,
                                  basin_pairs, pair_geometry)


def test_identical_directions_flag_infinite_alpha():
    g = pair_geometry(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert g.theta == 0.0
    assert math.isinf(g.alpha)
    # the cancelled product stays finite at the removable singularity
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
    assert math.isinf(g.alpha_sin_sq)


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
    alpha_sin = g.norm_wstar / (2 * math.pi * g.norm_w)  # |w*| / (2 pi |w|)
    # alpha sin^2 = alpha_sin sin(theta) goes to 0 with theta instead of 0 * inf
    assert 0.0 <= g.alpha_sin_sq <= alpha_sin * (t + 1e-15)
    if math.isfinite(g.alpha):
        assert g.alpha * g.sin_theta == pytest.approx(alpha_sin, rel=1e-12)
    else:  # sin(theta) = 0, or a subnormal theta takes alpha past the largest float
        assert g.sin_theta == 0.0 or alpha_sin > 1.7e308 * g.sin_theta


@given(c=st.floats(min_value=1e-300, max_value=1.0), v=_unit_ish)
def test_tiny_students_keep_norm_and_angle(c, v):
    w = np.array(v)
    ws = np.array([1.0, 0.4, -0.2])
    base = pair_geometry(w, ws)
    g = pair_geometry(c * w, ws)
    assert g.norm_w == pytest.approx(c * base.norm_w, rel=1e-14)
    assert g.theta == pytest.approx(base.theta, abs=1e-12)
    # the row-reduction norm of a stack is as scale-safe as the one-vector norm
    assert _angle_norms(np.stack([c * w, w]), ws)[0] == pytest.approx([base.theta] * 2, abs=1e-12)


@given(c=st.floats(min_value=1e-3, max_value=1e3), v=_unit_ish)
def test_collinear_pairs(c, v):
    ws = np.array(v)
    same = pair_geometry(c * ws, ws)
    assert same.theta <= 1e-15
    assert same.alpha_sin_sq <= 1e-15 * same.norm_wstar / (2 * math.pi * same.norm_w)
    opposite = pair_geometry(-c * ws, ws)
    assert opposite.theta == pytest.approx(math.pi, abs=1e-15)
    assert opposite.alpha_sin_sq <= 1e-15 * opposite.norm_wstar / (2 * math.pi * opposite.norm_w)


def test_stacked_norm_mixes_zero_tiny_huge_and_ordinary_rows():
    # a zero row has norm 0 without the scale-safe path; a nonzero row whose
    # square under- or overflows takes it; every row is the float a stack of
    # that row alone gives
    u = np.array([0.6, 0.8, 0.0])
    rows = np.stack([np.zeros(3), 1e-300 * u, np.array([1.0, -2.0, 2.0]), 1e300 * u, 0.5 * u])
    norms = _norm(rows)
    alone = [(_norm(row[None, :])[0], _norm(row)) for row in rows]
    stacked = _norm(rows.reshape(1, 5, 3))
    assert norms[0] == 0.0
    assert norms[1] == pytest.approx(1e-300, rel=1e-15)
    assert norms[3] == pytest.approx(1e300, rel=1e-15)
    assert norms[[2, 4]] == pytest.approx([3.0, 0.5], rel=1e-15)
    for norm, (in_stack, vector) in zip(norms, alone):
        assert norm == in_stack == vector
    np.testing.assert_array_equal(stacked, norms[None, :])


def test_norm_of_one_vector_whose_square_leaves_the_floats():
    # a (d,) vector takes the scale-safe path as a stack's row does, and the
    # overflow of its square is handled, not warned about (the suite turns
    # every RuntimeWarning into an error)
    for x in (np.array([3e200, 4e200]), np.array([3e-200, 4e-200])):
        assert _norm(x) == math.hypot(*x) == _norm(x[None, :])[0]
    assert _norm(np.zeros(3)) == 0.0
    # an ordinary vector: the square root of its one row reduction
    x = np.random.default_rng(5).standard_normal(7)
    assert _norm(x) == np.sqrt(np.add.reduce(x * x)) == _norm(x[None, :])[0]


def test_stacked_norm_of_a_huge_row_does_not_warn():
    # the stack's squares overflow before the scaled fallback measures the
    # row; that is handled, not warned about
    assert _norm(np.array([[3e200, 4e200]]))[0] == math.hypot(3e200, 4e200) == pytest.approx(5e200)
    norms = _norm(np.array([[[3e200, 4e200], [3.0, 4.0]], [[0.0, 0.0], [3e-200, 4e-200]]]))
    np.testing.assert_array_equal(norms, [[math.hypot(3e200, 4e200), 5.0],
                                          [0.0, math.hypot(3e-200, 4e-200)]])


def test_gradients_of_a_huge_student_do_not_warn():
    # the one-vector norm of |w| ~ 5e200 went through a dot product that
    # overflowed with a warning before its scaled fallback
    bundle = relu1.population_gradients(np.array([3e200, 4e200]), np.array([1.0, 0.5]))
    assert np.isfinite(bundle.grad_h1).all()


def _closed_forms(scale, w, ws, W, Ws, p):
    """Every public closed form, name -> (degree p in (w, w*), values), each
    taken at its inputs scaled by ``scale(p)``: students w (m, d) against one
    teacher ws (d,), K-node sets W, Ws (K, d) and plane points p (m, 2)."""
    a, b = scale(1) * w, scale(1) * ws  # degrees 0 and 1 share one scaling
    g = pair_geometry(a, b)
    h = relu1.hessians(a, b)
    gd = relu1.gd_compare(a, b, 0.5, relative=True)
    grad = relu1.population_gradients(a[0], b)
    forms = {
        **{f: (0, getattr(g, f)) for f in ("theta", "alpha", "alpha_sin_sq")},
        **{f: (1, getattr(g, f)) for f in ("norm_w", "norm_wstar")},
        **dict(zip(("hessian_matrices_l2", "hessian_matrices_h1"),
                   ((0, m) for m in relu1.hessian_matrices(a, b)))),
        "kappa_l2": (0, h.kappa_l2), "kappa_h1": (0, h.kappa_h1),
        **{f"{s}_eigenvalues": (0, getattr(h, s).eigenvalues) for s in ("spectrum_l2", "spectrum_h1")},
        "max_step_c": (0, gd.max_step_c),
        **{f: (1, getattr(gd, f)) for f in ("err_l2", "err_h1", "w_new_l2", "w_new_h1")},
        **{f: (1, getattr(grad, f)) for f in ("grad_l2", "grad_seminorm", "grad_h1")},
        "multinode_gradients": (1, mn.multinode_gradients(scale(1) * W, scale(1) * Ws, "h1")),
        "plane_flow_field": (1, relu1.plane_flow_field(["l2", "h1", "h1"], scale(1) * _norm(ws))(
            scale(1) * p)),
        "h2_plane_field": (3, relusq.h2_plane_field(["h2", "i1", "h2"], scale(3) * _norm(ws))(
            scale(3) * p)),
        "descent_inner_products": (4, relusq.descent_inner_products(scale(4) * w, scale(4) * ws)),
    }
    h2 = relusq.h2_gradients(scale(3) * w, scale(3) * ws)
    forms.update({f: (3, getattr(h2, f)) for f in ("grad_i1", "grad_i2", "grad_i3")})
    return forms


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), k=st.integers(-900, 900))
@example(seed=0, d=2, k=900)
@example(seed=0, d=8, k=-900)
def test_closed_forms_are_exactly_homogeneous_under_power_of_two_scaling(seed, d, k):
    # each form of degree p at 2^j (inputs) is 2^(j p) times its value, to the
    # bit: j = k for degrees 0 and 1 (up to 2^+-900, where squares leave the
    # floats), and for p > 1 the j that keeps 2^(j p) times the value normal
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 2.0)  # a basin pair at a scale that is no power of two
    w, ws = (c * x for x in basin_pairs(rng, d, 3))
    W, Ws = rng.standard_normal((2, 3, d))
    p = rng.standard_normal((3, 2))
    j = {deg: k if deg <= 1 else int(k / deg) for deg in (0, 1, 3, 4)}
    base = _closed_forms(lambda deg: 1.0, w, ws, W, Ws, p)
    scaled = _closed_forms(lambda deg: 2.0 ** j[deg], w, ws, W, Ws, p)
    for name, (deg, value) in base.items():
        expected = np.asarray(value) * 2.0 ** (j[deg] * deg)
        assert np.array_equal(scaled[name][1], expected, equal_nan=True), (name, k)


def test_stacked_pair_geometry_rows_are_the_one_pair_values():
    # bit for bit, over zero, tiny, huge, collinear, opposite and right-angle
    # students, against one teacher and against one teacher per row
    rng = np.random.default_rng(8)
    ws = np.array([0.6, -0.8, 0.0])
    rows = np.stack([rng.standard_normal(3), np.zeros(3), 1e-300 * rng.standard_normal(3),
                     1e300 * rng.standard_normal(3), 2.0 * ws, -3.0 * ws, np.array([0.8, 0.6, 0.5])])
    teachers = rng.standard_normal(rows.shape)
    for teacher in (ws, teachers):
        g = pair_geometry(rows, teacher)
        for i, w in enumerate(rows):
            one = pair_geometry(w, teacher if teacher.ndim == 1 else teacher[i])
            for field in ("norm_w", "norm_wstar", "theta", "alpha", "alpha_sin_sq",
                          "sin_theta", "cos_theta"):
                assert np.array_equal(getattr(g, field)[i], getattr(one, field)), (i, field)
    with pytest.raises(ValueError, match="dimension"):
        pair_geometry(rows, teachers[:2])
    with pytest.raises(ValueError, match="nonzero"):
        pair_geometry(rows[:2], np.stack([ws, np.zeros(3)]))


@pytest.mark.parametrize("d", [3, 32])
def test_pair_geometry_angle_and_norms_are_the_k_node_reduction(d):
    # single-node and K-node pairs share one reduction: over random, zero,
    # tiny, huge, collinear, opposite and right-angle students, against one
    # teacher and against one teacher per row, pair_geometry's angle and
    # norms are those of _angle_norms to the bit
    rng = np.random.default_rng(d)
    ws = np.zeros(d)
    ws[:2] = [0.6, -0.8]
    right = rng.standard_normal(d)
    right[:2] = [0.8, 0.6]
    rows = np.stack([*rng.standard_normal((200, d)), np.zeros(d), 1e-300 * rng.standard_normal(d),
                     1e300 * rng.standard_normal(d), 2.0 * ws, -3.0 * ws, right])
    for teacher in (ws, rng.standard_normal(rows.shape)):
        g = pair_geometry(rows, teacher)
        theta, nw, ns = _angle_norms(rows, teacher)
        assert np.array_equal(g.theta, theta)
        assert np.array_equal(g.norm_w, nw)
        assert np.array_equal(g.norm_wstar, np.broadcast_to(ns, nw.shape))
    assert pair_geometry(right, ws).theta == pytest.approx(math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_plane_coordinates_keep_distance_angle_and_norms(d):
    rng = np.random.default_rng(d)
    w0, ws = basin_pairs(rng, d, 50)
    ws = 1.7 * ws
    p0, pstar = _plane_coordinates(w0, ws)
    assert p0.shape == (50, 2) and (p0[:, 1] >= 0.0).all()
    assert pstar[0] == _norm(ws) and pstar[1] == 0.0
    dist = np.sqrt(np.sum((w0 - ws) ** 2, axis=-1))
    np.testing.assert_allclose(np.sqrt(np.sum((p0 - pstar) ** 2, axis=-1)), dist, rtol=4e-16 * d)
    theta, nw = _plane_angle_norms(p0)
    ref_theta, ref_nw, _ = _angle_norms(w0, ws)
    np.testing.assert_allclose(nw, ref_nw, rtol=4e-16 * d)
    np.testing.assert_allclose(theta, ref_theta, rtol=1e-14, atol=1e-15)


def test_plane_angle_is_mirror_symmetric_and_exact_on_the_axis():
    p = np.array([[2.0, 0.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 0.0], [1e-300, 1e-300], [3e300, 4e300]])
    theta, nw = _plane_angle_norms(p)
    assert theta[0] == 0.0 and theta[3] == math.pi
    assert theta[1] == theta[2] == theta[4] == math.pi / 4
    assert nw.tolist() == [2.0, math.sqrt(2.0), math.sqrt(2.0), 1.0, math.hypot(1e-300, 1e-300), 5e300]
