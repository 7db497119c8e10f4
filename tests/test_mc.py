import math
import tracemalloc

import numpy as np
import pytest

from sobolev_lab import mc, relu1
from sobolev_lab.geometry import basin_node_pairs
from sobolev_lab.mc import (
    BLOCK,
    McConfig,
    _FORMS,
    _convergence_tables,
    _persample,
    _reduce_cells,
    _relu_grad,
    block_normals,
    closed_form_grad,
    fit_loglog_slope,
    mc_loss_and_grad,
    mc_multinode_grad,
)


def test_block_normals_are_deterministic_and_gaussian():
    a = block_normals(123, 0, 4096, 8)
    b = block_normals(123, 0, 4096, 8)
    assert np.array_equal(a, b)
    c = block_normals(123, 1, 4096, 8)
    assert not np.array_equal(a, c)
    big = block_normals(7, 0, BLOCK, 4)
    assert abs(big.mean()) < 0.01
    assert abs(big.var() - 1.0) < 0.01
    assert np.all(np.isfinite(big))


def test_identical_config_is_bit_identical():
    w = np.array([0.3, -1.0, 0.5])
    ws = np.array([1.0, 0.2, 0.0])
    cfg = McConfig(n_samples=200_000, seed=42, dim=3)
    a = mc_loss_and_grad("relu", "h1", w, ws, cfg)
    b = mc_loss_and_grad("relu", "h1", w, ws, cfg)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std_error, b.std_error)


def test_estimate_independent_of_chunking_and_threads():
    w = np.array([0.3, -1.0, 0.5])
    ws = np.array([1.0, 0.2, 0.0])
    base = mc_loss_and_grad("relu", "l2", w, ws, McConfig(n_samples=3 * BLOCK + 17, seed=9, dim=3))
    for threads in (1, 3):
        est = mc_loss_and_grad(
            "relu", "l2", w, ws, McConfig(n_samples=3 * BLOCK + 17, seed=9, dim=3), threads=threads
        )
        assert np.array_equal(est.mean, base.mean)
        assert np.array_equal(est.std_error, base.std_error)


def test_std_error_stable_when_mean_dominates():
    # sum-of-squares minus n mean^2 cancels catastrophically at |mean| / std = 1e8
    n = 2 * BLOCK + 17
    [[est]] = _reduce_cells([(McConfig(n_samples=n, seed=5, dim=2), (lambda x: 1e8 + x[:, :1],))],
                            threads=1)
    counts = (BLOCK, BLOCK, 17)
    vals = np.concatenate([1e8 + block_normals(5, b, c, 2)[:, :1] for b, c in enumerate(counts)])
    ref = np.sqrt(np.sum((vals - vals.mean()) ** 2) / (n - 1) / n)
    assert est.std_error[0] == pytest.approx(ref, rel=1e-6)


def test_each_block_is_drawn_once_for_every_form(monkeypatch):
    drawn = mc._normal_chunks
    calls = []

    def counted(seed, block, count, dim):
        calls.append((seed, block))
        return drawn(seed, block, count, dim)

    monkeypatch.setattr(mc, "_normal_chunks", counted)
    n_grid, trials = [100, BLOCK + 5, 2 * BLOCK + 1], 2
    blocks_per_dim = trials * sum((n + BLOCK - 1) // BLOCK for n in n_grid)
    forms = [("relu", "l2"), ("relu_sq", "i3"), ("multinode", "l2")]
    for used in (forms[:1], forms):
        calls.clear()
        _convergence_tables(used, [3, 5], n_grid, trials, seed=11, threads=2)
        assert len(calls) == 2 * blocks_per_dim
        assert len(set(calls)) == len(calls)


def test_tables_are_bit_identical_at_any_thread_count(monkeypatch):
    # every form over dims and block counts that mix unit sizes, so the
    # largest-first dispatch reorders the units
    forms = [(model, kind) for model, kinds in _FORMS.items() for kind in kinds]
    args = (forms, [3, 17], [100, BLOCK + 5, 2 * BLOCK + 1], 1)
    base = _convergence_tables(*args, seed=19, threads=1)
    for threads in (2, 3):
        assert _convergence_tables(*args, seed=19, threads=threads) == base
    # the study's kernels fold the sums alone; the moments path gives the same tables
    built = mc._persample
    monkeypatch.setattr(mc, "_persample", lambda *a, spread: built(*a))
    assert _convergence_tables(*args, seed=19, threads=2) == base


def test_units_run_largest_first(monkeypatch):
    drawn = mc._normal_chunks
    sizes = []

    def counted(seed, block, count, dim):
        sizes.append(count * dim)
        return drawn(seed, block, count, dim)

    monkeypatch.setattr(mc, "_normal_chunks", counted)
    cells = [(McConfig(n_samples=n, seed=s, dim=d), (lambda x: x,))
             for s, (n, d) in enumerate([(100, 8), (2 * BLOCK + 3, 2), (BLOCK + 1, 8), (7, 40)])]
    _reduce_cells(cells, threads=1)
    assert sizes == sorted(sizes, reverse=True) and len(sizes) == 7


def _whole_block_normals(seed, block, count, dim):
    """Box-Muller over one whole-block draw of substream (seed, block); the
    products are written into one array instead of concatenated, which keeps
    their bits and saves a block of memory."""
    gen = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, block]))
    n_pairs = (dim + 1) // 2
    u = gen.random((count, n_pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    a = 2.0 * np.pi * u[..., 1]
    del u
    z = np.empty((count, 2 * n_pairs))
    np.multiply(r, np.cos(a), out=z[:, :n_pairs])
    np.multiply(r, np.sin(a), out=z[:, n_pairs:])
    return z[:, :dim]


@pytest.mark.parametrize("dim", [1, 2, 3, 63, 64, 65, 200])
def test_chunks_are_the_rows_of_one_whole_block_draw(dim):
    rows = mc._chunk_rows(dim)
    assert rows & (rows - 1) == 0 and BLOCK % rows == 0
    for count in (1, 17, 1023, 1024, 1025, BLOCK):
        whole = _whole_block_normals(dim, 3, count, dim)
        start = 0
        for z in mc._normal_chunks(dim, 3, count, dim):
            # every chunk starts at a multiple of the chunk size; only the last
            # differs from it, and then it is longer, or the whole of a short block
            assert start % rows == 0
            assert len(z) == rows or start + len(z) == count and len(z) < 2 * rows
            assert len(z) >= rows or start == 0
            assert np.array_equal(z, whole[start:start + len(z)]), (count, start)
            start += len(z)
        assert start == count
        assert np.array_equal(block_normals(dim, 3, count, dim), whole)


def _one_shot(kernel, x):
    """(sum, centred sum of squares) of one whole block in one pass: numpy's
    row-ordered sum of the per-sample values, and a span part's counts."""
    if isinstance(kernel, mc._SpanCounts):
        return kernel.moments(kernel.fold(None, x), len(x))
    vals = kernel.f(x)
    s = vals.sum(axis=0)
    vals -= s / len(vals)
    return s, np.square(vals, out=vals).sum(axis=0)


@pytest.mark.parametrize("dim", [3, 64, 65, 200])
def test_streamed_means_are_the_one_shot_block_means(dim):
    # a tail shorter than a chunk is folded into the chunk before it, so
    # every product runs on wide chunks, and the means keep their bits.  At
    # d = 200 a one-shot 65536-row reference of the K-node h1 form holds
    # ~0.8 GB, so n stops at 5000 there (chunks of 1024 rows, a 1928-row tail)
    ns = (1023, 1024, 1025, 5000) + (() if dim == 200 else (BLOCK + 17, 2 * BLOCK + 1))
    forms = [(model, kind) for model, kinds in _FORMS.items() for kind in kinds]
    kernels = []
    for model, kind in forms:
        w, wstar = mc._basin_pair(model, dim, dim, 0)
        kernels.append(_persample(model, kind, np.atleast_2d(w), np.atleast_2d(wstar), "grad"))
    for i, n in enumerate(ns):
        cfg = McConfig(n_samples=n, seed=100 * dim + i, dim=dim)
        counts = mc._block_counts(n)
        partials = [[] for _ in kernels]
        for b, count in enumerate(counts):
            x = _whole_block_normals(cfg.seed, b, count, dim)
            for k, kernel in enumerate(kernels):
                partials[k].append(_one_shot(kernel, x))
            del x
        for (model, kind), part, est in zip(forms, partials, _reduce_cells([(cfg, kernels)], 1)[0]):
            ref = mc._merge(part, counts, n)
            assert np.array_equal(est.mean, ref.mean), (model, kind, n)
            np.testing.assert_allclose(est.std_error, ref.std_error, rtol=1e-12, atol=0.0,
                                       err_msg=f"{model}:{kind} n={n}")


def _moments_fold(kernel, chunks):
    """One block's (sum, centred sum of squares) as the moments path folds
    it, written out: over the block's ``chunks`` a gradient chunk's first row
    carries the running sum and each chunk's centred sum of squares is
    merged with Chan, Golub & LeVeque's update; a span kind's come from its
    three indicator counts."""
    count = sum(map(len, chunks))
    if isinstance(kernel, mc._SpanCounts):
        p = np.concatenate([x @ kernel.proj for x in chunks])
        on = p[:, 0] > 0
        n11 = np.count_nonzero(on & (p[:, 1] > 0))
        n10 = np.count_nonzero(on) - n11
        s = n10 * kernel.u + n11 * kernel.v
        mean = s / count
        return s, ((count - n10 - n11) * mean**2 + n10 * (kernel.u - mean) ** 2
                   + n11 * (kernel.v - mean) ** 2)
    total = m2 = None
    seen = 0
    for x in chunks:
        vals = kernel.f(x)
        carried = vals.copy()
        if total is not None:
            carried[0] += total
        new_total = carried.sum(axis=0)
        s = new_total if total is None else new_total - total
        dev = vals - s / len(vals)
        chunk_m2 = (dev * dev).sum(axis=0)
        if m2 is None:
            m2 = chunk_m2
        else:
            delta = s / len(vals) - total / seen
            m2 = m2 + chunk_m2 + delta**2 * (seen * len(vals) / (seen + len(vals)))
        total, seen = new_total, seen + len(vals)
    return total, m2


def _moments_merge(partials, counts, n):
    """The mean and standard error of block partials, merged in block order."""
    total, m2 = partials[0]
    seen = counts[0]
    for (s, s2), count in zip(partials[1:], counts[1:]):
        delta = s / count - total / seen
        m2 = m2 + s2 + delta**2 * (seen * count / (seen + count))
        total, seen = total + s, seen + count
    return total / n, np.sqrt(m2 / (n - 1) / n)


@pytest.mark.parametrize("dim", [1, 3, 64, 65])
def test_means_only_cells_keep_the_means_and_carry_no_standard_error(dim):
    # a cell that folds the sums alone gives the moments path's means bit for
    # bit and no standard error; the moments path keeps its standard errors
    forms = [(model, kind) for model, kinds in _FORMS.items() for kind in kinds]
    # two orthonormal teachers need d >= 2, so at d = 1 the multinode forms
    # take the relu pair as a one-node stack
    pairs = {model: mc._basin_pair(model if dim > 1 else "relu", dim, dim, 0) for model in _FORMS}
    both = []
    for spread in (True, False):
        both.append([_persample(model, kind, np.atleast_2d(pairs[model][0]),
                                np.atleast_2d(pairs[model][1]), "grad", spread=spread)
                     for model, kind in forms])
    for i, n in enumerate((1023, BLOCK + 17, 2 * BLOCK + 1)):
        cfg = McConfig(n_samples=n, seed=50 * dim + i, dim=dim)
        counts = mc._block_counts(n)
        moments = _reduce_cells([(cfg, both[0])], threads=1)[0]
        sums = _reduce_cells([(cfg, both[1])], threads=2)[0]
        partials = [[] for _ in forms]
        for b, count in enumerate(counts):
            chunks = list(mc._normal_chunks(cfg.seed, b, count, dim))
            for part, kernel in zip(partials, both[0]):
                part.append(_moments_fold(kernel, chunks))
        for (model, kind), part, est, est_sums in zip(forms, partials, moments, sums):
            mean, se = _moments_merge(part, counts, n)
            assert np.array_equal(est.mean, mean), (model, kind, n)
            assert np.array_equal(est.std_error, se), (model, kind, n)
            assert np.array_equal(est_sums.mean, est.mean), (model, kind, n)
            assert est_sums.std_error is None, (model, kind, n)


def test_a_block_streams_in_small_chunks():
    # one 65536 x 64 cell of the benchmark's six forms; a whole-block pass peaked at ~128 MiB
    forms = [("relu", "l2"), ("relu", "h1_semi"), ("relu_sq", "i1"), ("relu_sq", "i2"),
             ("relu_sq", "i3"), ("multinode", "l2")]
    kernels = []
    for model, kind in forms:
        w, wstar = mc._basin_pair(model, 1, 64, 0)
        kernels.append(_persample(model, kind, np.atleast_2d(w), np.atleast_2d(wstar), "grad"))
    cfg = McConfig(n_samples=BLOCK, seed=1, dim=64)
    tracemalloc.start()
    try:
        _reduce_cells([(cfg, kernels)], threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_kernel_returning_a_view_of_the_block_leaves_it_shared():
    def view(x):
        return x[:, :1]

    def other(x):
        return x.sum(axis=1, keepdims=True)

    cfg = McConfig(n_samples=BLOCK + 9, seed=3, dim=2)
    alone = {k: _reduce_cells([(cfg, (k,))], threads=1)[0][0] for k in (view, other)}
    for kernels in ((view, other), (other, view)):
        for k, est in zip(kernels, _reduce_cells([(cfg, kernels)], threads=2)[0]):
            assert np.array_equal(est.mean, alone[k].mean)
            assert np.array_equal(est.std_error, alone[k].std_error)


def test_zero_residual_at_teacher_is_exact():
    ws = np.array([0.7, -0.2, 1.0, 0.4])
    cfg = McConfig(n_samples=50_000, seed=1, dim=4)
    for model in ("relu", "relu_sq"):
        for what in ("grad", "loss"):
            est = mc_loss_and_grad(model, "h1", ws, ws, cfg, what=what)
            assert np.all(est.mean == 0.0)
            assert np.all(est.std_error == 0.0)
    # the span kinds reduce from indicator counts: v = 0 and no sample gives u
    for model, kind in (("relu", "h1_semi"), ("relu_sq", "i3")):
        est = mc_loss_and_grad(model, kind, ws, ws, McConfig(n_samples=BLOCK + 17, seed=1, dim=4))
        assert np.all(est.mean == 0.0) and np.all(est.std_error == 0.0), kind


def _exact_moments(vals):
    """Mean and standard error of each column of ``vals``, with exactly rounded sums."""
    n = len(vals)
    mean = np.array([math.fsum(col.tolist()) / n for col in vals.T])
    m2 = np.array([math.fsum(((col - m) ** 2).tolist()) for col, m in zip(vals.T, mean)])
    return mean, np.sqrt(m2 / (n - 1) / n)


@pytest.mark.parametrize("dim", [4, 64])
def test_span_kinds_match_an_exactly_rounded_sum(dim):
    # the same draws summed with math.fsum: the array path is off by ~5e-13
    # relative to max|mean|, the indicator counts by ~1e-16
    rng = np.random.default_rng(dim)
    ws = rng.standard_normal(dim)
    ws /= np.linalg.norm(ws)
    w = ws + 0.5 * rng.standard_normal(dim) / math.sqrt(dim)
    n, counts = 2 * BLOCK + 17, (BLOCK, BLOCK, 17)
    x = np.concatenate([block_normals(13, b, c, dim) for b, c in enumerate(counts)])
    on, both = x @ w > 0, (x @ w > 0) & (x @ ws > 0)
    vals = {
        ("relu", "h1_semi"): _relu_grad(x, w[None], ws[None], ("semi",))[0][:, 0],
        ("relu_sq", "i3"): 8.0 * ((on * (w @ w))[:, None] * w - (both * (w @ ws))[:, None] * ws),
    }
    for (model, kind), v in vals.items():
        mean, se = _exact_moments(v)
        est = mc_loss_and_grad(model, kind, w, ws, McConfig(n_samples=n, seed=13, dim=dim))
        assert np.max(np.abs(est.mean - mean)) <= 1e-14 * np.max(np.abs(mean)), kind
        np.testing.assert_allclose(est.std_error, se, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("dim", [3, 64])
def test_loss_means_match_an_exactly_rounded_sum(dim):
    # numpy sums a (B,) chunk pairwise; carrying the running sum into its
    # first row put a loss mean ~1e-14 relative from math.fsum of the same draws
    rng = np.random.default_rng(dim)
    ws = rng.standard_normal(dim)
    ws /= np.linalg.norm(ws)
    w = ws + 0.5 * rng.standard_normal(dim) / math.sqrt(dim)
    n, counts = 3 * BLOCK + 5, (BLOCK, BLOCK, BLOCK, 5)
    forms = [(model, kind) for model in ("relu", "relu_sq") for kind in _FORMS[model]]
    kernels = [_persample(model, kind, w[None], ws[None], "loss") for model, kind in forms]
    vals = [[] for _ in forms]
    for b, c in enumerate(counts):
        x = block_normals(13, b, c, dim)
        for v, kernel in zip(vals, kernels):
            v.append(kernel.f(x))
    ests = _reduce_cells([(McConfig(n_samples=n, seed=13, dim=dim), kernels)], threads=1)[0]
    for (model, kind), v, est in zip(forms, vals, ests):
        exact = math.fsum(np.concatenate(v).tolist()) / n
        assert est.mean.shape == () and est.mean > 0.0, (model, kind)
        assert abs(est.mean - exact) <= 1e-15 * exact, (model, kind, est.mean / exact - 1.0)


def test_span_values_are_the_per_sample_values():
    # each sample's array-path gradient is exactly 0, u or v, as its indicators say
    rng = np.random.default_rng(4)
    w, ws = rng.standard_normal(6), rng.standard_normal(6)
    x = block_normals(2, 0, 5000, 6)
    on, star = x @ w > 0, x @ ws > 0
    both = on & star
    dots = (float(w @ w), float(w @ ws), float(ws @ ws))
    semi = _relu_grad(x, w[None], ws[None], ("semi",))[0][:, 0]
    i3 = mc._part_value("grad", "i3", w, ws, dots, x, on, star, None, None)
    for part, vals in (("semi", semi), ("i3", i3)):
        u, v = mc._span_values(part, w, ws, dots)
        assert np.all(vals[~on] == 0.0), part
        assert np.array_equal(vals[on & ~both], np.broadcast_to(u, vals[on & ~both].shape)), part
        assert np.array_equal(vals[both], np.broadcast_to(v, vals[both].shape)), part


def test_seminorm_gradient_example():
    w = np.array([0.0, 1.0])
    ws = np.array([1.0, 0.0])
    est = mc_loss_and_grad("relu", "h1_semi", w, ws, McConfig(n_samples=10**6, seed=5, dim=2))
    assert np.all(np.abs(est.mean - np.array([-0.25, 0.5])) <= 4.0 * est.std_error)


def test_loss_values_match_closed_forms():
    # L = (|w|^2 + |w*|^2)/4 - |w||w*| (sin t + (pi - t) cos t)/(2 pi)
    # J = (|w|^2 + |w*|^2)/4 - (pi - t)/(2 pi) w.w*
    rng = np.random.default_rng(3)
    w = rng.standard_normal(3)
    ws = rng.standard_normal(3)
    t = float(np.arccos(np.clip(w @ ws / (np.linalg.norm(w) * np.linalg.norm(ws)), -1, 1)))
    nw, ns = np.linalg.norm(w), np.linalg.norm(ws)
    l_closed = (nw**2 + ns**2) / 4 - nw * ns * (np.sin(t) + (np.pi - t) * np.cos(t)) / (2 * np.pi)
    j_closed = (nw**2 + ns**2) / 4 - (np.pi - t) / (2 * np.pi) * float(w @ ws)
    cfg = McConfig(n_samples=10**6, seed=31, dim=3)
    est_l = mc_loss_and_grad("relu", "l2", w, ws, cfg, what="loss")
    est_j = mc_loss_and_grad("relu", "h1_semi", w, ws, cfg, what="loss")
    assert abs(est_l.mean - l_closed) <= 4.0 * est_l.std_error
    assert abs(est_j.mean - j_closed) <= 4.0 * est_j.std_error


def test_multinode_estimator_shape_and_determinism():
    Wstar = np.eye(3)[:2]
    W = Wstar + 0.2
    cfg = McConfig(n_samples=100_000, seed=8, dim=3)
    a = mc_multinode_grad(W, Wstar, "l2", cfg)
    b = mc_multinode_grad(W, Wstar, "l2", cfg, threads=2)
    assert a.mean.shape == (2, 3)
    assert np.array_equal(a.mean, b.mean)


def test_mse_halves_when_samples_double():
    [rows] = _convergence_tables([("relu", "l2")], dims=[4], n_grid=[2**10, 2**12, 2**14],
                                 trials=4, seed=77)
    by_n = {n: mse for _, n, mse in rows}
    assert by_n[2**14] < by_n[2**10]
    slope = fit_loglog_slope(np.array(sorted(by_n)), np.array([by_n[n] for n in sorted(by_n)]))
    assert -1.5 <= slope <= -0.5  # coarse grid; the acceptance run pins [-1.2, -0.8]


def test_validation_errors():
    cfg = McConfig(n_samples=100, seed=0, dim=2)
    with pytest.raises(ValueError):
        mc_loss_and_grad("relu", "nope", np.ones(2), np.ones(2), cfg)
    with pytest.raises(ValueError):
        mc_loss_and_grad("gelu", "l2", np.ones(2), np.ones(2), cfg)
    # the first-order names are not relu_sq kinds, and the parts are not one kind
    for kind in ("l2", "h1_semi", "h2_parts"):
        with pytest.raises(ValueError, match=kind):
            mc_loss_and_grad("relu_sq", kind, np.ones(2), np.ones(2), cfg)
    with pytest.raises(ValueError):
        mc_loss_and_grad("relu", "l2", np.ones(3), np.ones(3), cfg)
    with pytest.raises(ValueError):
        McConfig(n_samples=0, seed=0, dim=2)


def test_tiny_nonzero_teacher_is_estimated():
    # w*.w* underflows to 0 at |w*| = 1e-300; the zero-teacher check must not
    cfg = McConfig(n_samples=1000, seed=0, dim=2)
    est = mc_loss_and_grad("relu", "l2", np.array([0.6, 0.8]), 1e-300 * np.array([1.0, 0.0]), cfg)
    assert np.all(np.isfinite(est.mean))
    with pytest.raises(ValueError):
        mc_loss_and_grad("relu", "l2", np.ones(2), np.zeros(2), cfg)


def test_first_order_kernel_matches_per_node_loop():
    # reference: one node at a time; the semi node sums run in another order
    rng = np.random.default_rng(21)
    W, Wstar = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    x = block_normals(4, 0, 1000, 5)
    l2, semi = _relu_grad(x, W, Wstar, ("l2", "semi"))
    assert l2.shape == semi.shape == (1000, 3, 5)
    pw, ps = x @ W.T, x @ Wstar.T
    resid = np.maximum(pw, 0.0).sum(axis=1) - np.maximum(ps, 0.0).sum(axis=1)
    total = (pw > 0) @ W - (ps > 0) @ Wstar
    for j in range(3):
        on = (pw[:, j] > 0)[:, None]
        assert np.array_equal(l2[:, j], resid[:, None] * on * x)
        np.testing.assert_allclose(semi[:, j], on * total, rtol=0.0, atol=1e-14)


def test_first_order_kernel_with_leading_axes_is_its_2d_slices():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 2, 50, 4))
    W, Wstar = rng.standard_normal((3, 2, 2, 4)), rng.standard_normal((3, 2, 2, 4))
    stacked = _relu_grad(x, W, Wstar, ("l2", "semi"))
    for idx in np.ndindex(3, 2):
        for part, alone in zip(stacked, _relu_grad(x[idx], W[idx], Wstar[idx], ("l2", "semi"))):
            assert part.shape == (3, 2, 50, 2, 4)
            assert np.array_equal(part[idx], alone), idx


def test_one_node_multinode_estimate_is_the_relu_estimate():
    # one first-order kernel serves both estimators; with K = 1 they coincide
    w = np.array([0.3, -1.0, 0.5])
    ws = np.array([1.0, 0.2, 0.0])
    cfg = McConfig(n_samples=BLOCK + 17, seed=12, dim=3)
    for kind in ("l2", "h1"):
        single = mc_loss_and_grad("relu", kind, w, ws, cfg)
        stacked = mc_multinode_grad(w[None], ws[None], kind, cfg)
        assert np.array_equal(stacked.mean[0], single.mean)
        assert np.array_equal(stacked.std_error[0], single.std_error)


def test_grad_oracle_agreement_sweep():
    rng = np.random.default_rng(15)
    for dim in (2, 8):
        ws = rng.standard_normal(dim)
        w = ws + 0.4 * rng.standard_normal(dim)
        closed = relu1.population_gradients(w, ws)
        est = mc_loss_and_grad("relu", "h1", w, ws, McConfig(n_samples=400_000, seed=100 + dim, dim=dim))
        assert np.all(np.abs(est.mean - closed.grad_h1) <= 4.0 * est.std_error)


def test_fifty_pairs_million_samples_every_closed_form():
    # every closed-form gradient, 50 random basin pairs across d in
    # {2, 8, 32}, million-sample estimates in one call on two workers
    # (bit-identical to one estimate at a time on one), 4 standard errors
    rng = np.random.default_rng(5150)
    forms = [("relu", "l2"), ("relu", "h1_semi"), ("relu", "h1"),
             ("relu_sq", "i1"), ("relu_sq", "i2"), ("relu_sq", "i3")]
    dims = (2, 8, 32)
    cells, closed = [], []
    for i in range(45):
        model, kind = forms[i % len(forms)]
        dim = dims[i % len(dims)]
        ws = rng.standard_normal(dim)
        ws /= np.linalg.norm(ws)
        e = rng.standard_normal(dim)
        e *= rng.uniform(0.1, 0.9) / np.linalg.norm(e)
        w = ws + e
        cells.append((McConfig(n_samples=10**6, seed=7000 + i, dim=dim),
                      (_persample(model, kind, w[None], ws[None], "grad"),)))
        closed.append(closed_form_grad(model, kind, w, ws))
    for i in range(5):
        dim = 4
        W, Wstar = basin_node_pairs(rng, dim, 0.2, 0.8)
        kind = "l2" if i % 2 == 0 else "h1"
        cells.append((McConfig(n_samples=10**6, seed=8000 + i, dim=dim),
                      (_persample("multinode", kind, W, Wstar, "grad"),)))
        closed.append(closed_form_grad("multinode", kind, W, Wstar))
    worst_z = 0.0
    for [est], target in zip(_reduce_cells(cells, threads=2), closed):
        worst_z = max(worst_z, float(np.max(np.abs(est.mean - target) / est.std_error)))
    assert worst_z <= 4.0, f"worst z-score {worst_z:.2f}"
