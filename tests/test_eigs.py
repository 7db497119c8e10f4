import math

import numpy as np
import pytest

from sobolev_lab import cli, relu1
from sobolev_lab.eigs import real_eigs, symmetric_eigs
from sobolev_lab.exceptions import SingularPointError


def test_identity_spectrum():
    rep = symmetric_eigs(np.eye(3))
    assert np.allclose(rep.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)


def test_two_by_two_closed_form():
    # eigenvalues of [[1/2, 1/4], [1/4, 1/2]] are 1/2 +- 1/4 by the quadratic formula
    rep = symmetric_eigs(np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert rep.eigenvalues == pytest.approx([0.75, 0.25], abs=1e-14)


def test_diagonal_matrix_sorted_descending():
    rep = symmetric_eigs(np.diag([5.0, 2.0, -1.0]))
    assert rep.eigenvalues == pytest.approx([5.0, 2.0, -1.0], abs=1e-14)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigs(np.ones((2, 3)))


def test_spectrum_invariant_under_orthogonal_conjugation():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((12, 12))
    a = 0.5 * (a + a.T)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    base = symmetric_eigs(a).eigenvalues
    conj = symmetric_eigs(q @ a @ q.T).eigenvalues
    assert np.abs(base - conj).max() <= 1e-9


def test_real_eigs_on_nonnormal_matrix_with_real_spectrum():
    # triangular: spectrum is the diagonal regardless of the huge off-diagonal
    a = np.array([[2.0, 100.0], [0.0, 1.0]])
    rep = real_eigs(a)
    assert rep.eigenvalues == pytest.approx([2.0, 1.0], abs=1e-12)


def test_real_eigs_rejects_rotation():
    with pytest.raises(ValueError, match="complex"):
        real_eigs(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_stacked_spectra_are_the_one_matrix_spectra():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 9, 9))
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    # real spectra of non-normal matrices: similarity transforms of diagonals
    q = np.eye(9) + 0.3 * rng.standard_normal((6, 9, 9))
    nonnormal = q @ (rng.uniform(-2.0, 2.0, (6, 9))[:, :, None] * np.linalg.inv(q))
    for solve, stack in ((symmetric_eigs, sym), (real_eigs, nonnormal)):
        rep = solve(stack)
        assert rep.eigenvalues.shape == (6, 9)
        for i, m in enumerate(stack):
            one = solve(m)
            assert np.array_equal(rep.eigenvalues[i], one.eigenvalues)
            assert rep.lam_max[i] == one.lam_max and rep.lam_min[i] == one.lam_min


def test_stacks_check_every_matrix():
    good = np.stack([np.eye(3), np.diag([3.0, 2.0, 1.0])])
    bad_entry = good.copy()
    bad_entry[1, 0, 2] = np.inf
    for solve in (symmetric_eigs, real_eigs):
        with pytest.raises(SingularPointError, match="non-finite"):
            solve(bad_entry)
    asym = good.copy()
    asym[1, 0, 2] = 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigs(asym)
    rotation = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])])
    with pytest.raises(SingularPointError, match="complex"):
        real_eigs(rotation)
    for empty in (np.zeros((0, 0)), np.zeros((2, 0, 0))):
        for solve in (symmetric_eigs, real_eigs):
            with pytest.raises(ValueError, match="n >= 1, got shape"):
                solve(empty)


def _landscape_pairs(d, norm_w, norm_wstar, n=48):
    # the students of ``landscape``: span{e1, e2} at angles in (0, pi/2) to the teacher e1
    thetas = np.arange(1, n + 1) * (math.pi / 2) / (n + 1)
    ws = np.zeros((n, d))
    ws[:, 0], ws[:, 1] = norm_w * np.cos(thetas), norm_w * np.sin(thetas)
    wstar = np.zeros(d)
    wstar[0] = norm_wstar
    return ws, wstar


@pytest.mark.parametrize("d", [2, 32, 100])
@pytest.mark.parametrize("norm_w, norm_wstar", [(1.0, 1.0), (1e-3, 7.0)])
def test_landscape_spectra_are_the_vector_routines_bits(d, norm_w, norm_wstar):
    # the values-only routines give landscape's Hessians the bits the vector
    # routines give them, so landscape.csv does not depend on which one runs
    hl, hh = relu1.hessian_matrices(*_landscape_pairs(d, norm_w, norm_wstar))
    sym = 0.5 * (hl + np.swapaxes(hl, -1, -2))
    ref_l2 = np.sort(np.linalg.eigh(sym)[0], axis=-1)[:, ::-1]
    ref_h1 = np.sort(np.linalg.eig(hh)[0].real, axis=-1)[:, ::-1]
    assert np.array_equal(symmetric_eigs(hl).eigenvalues, ref_l2)
    assert np.array_equal(real_eigs(hh).eigenvalues, ref_h1)


def test_reading_only_eigenvalues_never_forms_vectors(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvector routine ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    rep = relu1.hessians(*_landscape_pairs(32, 1.0, 1.0))
    assert np.isfinite(rep.spectrum_l2.lam_min).all() and np.isfinite(rep.spectrum_h1.lam_max).all()
    # every subcommand that takes a spectrum: landscape (Hessians), toeplitz
    # (field Jacobians) and linear (Gram matrices)
    for argv in (["landscape", "--dim", "32", "--theta-grid", "64"], ["toeplitz", "--k-list", "3,5"],
                 ["linear"]):
        assert cli.main(argv + ["--out-dir", str(tmp_path / argv[0])]) == 0, argv
