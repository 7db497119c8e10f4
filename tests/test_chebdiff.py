import numpy as np
import pytest

from sobolev_lab.chebdiff import cheb_diff_matrix, cheb_points


def test_point_examples():
    assert cheb_points(1) == pytest.approx([1.0, -1.0], abs=1e-15)
    assert cheb_points(2) == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)
    s = np.sqrt(2.0) / 2.0
    assert cheb_points(4) == pytest.approx([1.0, s, 0.0, -s, -1.0], abs=1e-15)
    with pytest.raises(ValueError):
        cheb_points(0)


def test_points_strictly_decreasing():
    for n in (1, 5, 33):
        x = cheb_points(n)
        assert x[0] == 1.0 and x[-1] == -1.0
        assert np.all(np.diff(x) < 0)


def test_n1_matrix_exact():
    # exactness on a + b x forces [[1/2, -1/2], [1/2, -1/2]]
    assert cheb_diff_matrix(1) == pytest.approx(np.array([[0.5, -0.5], [0.5, -0.5]]), abs=0)


def test_quadratic_derivative_at_n2():
    d = cheb_diff_matrix(2)
    vals = cheb_points(2) ** 2  # (1, 0, 1)
    assert d @ vals == pytest.approx([2.0, 0.0, -2.0], abs=1e-13)


def test_row_sums_vanish():
    for n in (1, 4, 9, 20):
        d = cheb_diff_matrix(n)
        assert np.abs(d.sum(axis=1)).max() <= 1e-12


def test_corner_entries():
    for n in (3, 8, 15):
        d = cheb_diff_matrix(n)
        corner = (2.0 * n * n + 1.0) / 6.0
        assert d[0, 0] == pytest.approx(corner, rel=1e-12)
        assert d[n, n] == pytest.approx(-corner, rel=1e-12)


def test_monomial_exactness_up_to_order():
    for n in range(1, 21):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        worst = 0.0
        for k in range(n + 1):
            expected = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            worst = max(worst, float(np.abs(d @ x**k - expected).max()))
        assert worst <= 1e-10 * n * n


def test_second_derivative_spectral_contraction():
    # use an oscillatory target so truncation (not rounding) dominates at
    # n=12; plain sin(x) is already at the rounding floor there, which makes
    # a 1e3 contraction unobservable
    def err(n):
        x = cheb_points(n)
        d = cheb_diff_matrix(n)
        return float(np.abs(d @ (d @ np.sin(5 * x)) - (-25.0 * np.sin(5 * x))).max())

    assert err(12) / err(24) >= 1e3
