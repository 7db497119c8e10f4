"""Independent Monte-Carlo ground truth for every closed-form population quantity.

Sampling is organized in fixed 65536-sample substream blocks.  Block b of a
run with seed s draws from a Philox counter-based generator keyed (s, b),
and normals come from Box-Muller applied to that block's uniform stream, so
an estimate depends only on (seed, n_samples, dim) - never on which worker
thread draws a block or how many workers there are.  Partial block sums are
reduced in block order, which makes repeated runs bit-identical.  Estimates
of one cell (seed, n_samples, dim) share its draws: each block is drawn once
and every kernel of the cell is applied to it.  The worker pool takes the
(cell, block) units largest first; that order never changes a result.
Box-Muller writes the cos and sin halves of each chunk straight into one
array, so no normal is copied after it is formed.

A unit streams its block: it draws the rows in ordered chunks of about
CHUNK doubles from the block's one generator and folds each chunk into
every kernel's partial before drawing the next, so it never holds a whole
block.  The chunks are the rows of one whole-block draw, and each gradient
chunk's first row carries the running sum, so a gradient mean is bit for
bit that of a one-pass block sum (numpy sums a (B, ...) array's rows in
order).  numpy sums a (B,) loss pairwise, so a loss chunk is summed on its
own and added to the running sum.  The centred sums of squares of chunks,
and then of blocks, are merged with Chan, Golub & LeVeque's update.  The
convergence study reads only the means, so its kernels fold the sums alone
(``spread=False``): the same means bit for bit, and no standard error.

Per-sample gradients use the indicator identities of the closed-form
derivations (ReLU derivative 1{t>0}), e.g. for the first-order model:

  value loss:      (relu(w.x) - relu(w*.x)) 1{w.x>0} x
  seminorm loss:   1{w.x>0} w - 1{w.x>0} 1{w*.x>0} w*

so the sample mean estimates exactly the expectation the closed forms
integrate.  One first-order kernel computes these for K stacked students
(the single node is K = 1); the multi-node estimator uses it too, and SGD's
minibatch gradient takes its value part and the seminorm part's span
values.  (For the discontinuous-integrand seminorm this expectation is the
defined population gradient; it differs from the gradient of the scalar
population loss by a boundary term, so finite-difference checks are only
meaningful for the continuous-integrand losses.)

The seminorm gradient and the second-order "i3" gradient depend on x only
through the two indicators, so each takes one of three values (0, u, v) in
span{w, w*}.  For the kinds that are such a part alone ("h1_semi" and
"i3"), a block's sum and centred sum of squares come from the counts of the
three cases instead of a (B, d) array.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import multinode as mn
from . import relu1, relusq
from .geometry import basin_node_pairs, basin_pairs

BLOCK = 65536
CHUNK = 1 << 16  # doubles per chunk of a block's normals
# A product of fewer rows with a few columns can take BLAS's small-matrix
# kernel, which rounds otherwise than the whole block's product.
MIN_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration: sample count, substream seed and input dimension."""

    n_samples: int
    seed: int
    dim: int

    def __post_init__(self):
        if self.n_samples < 1 or self.dim < 1:
            raise ValueError("n_samples and dim must be positive")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with elementwise standard errors (std / sqrt(n)); the
    standard error is None where the kernel folded the sums alone."""

    mean: np.ndarray
    std_error: np.ndarray | None
    n: int


def _chunk_rows(dim: int) -> int:
    """Rows of a chunk at ``dim``: the largest power of two with at most CHUNK
    doubles, and at least MIN_CHUNK_ROWS."""
    return max(1 << max((CHUNK // dim).bit_length() - 1, 0), MIN_CHUNK_ROWS)


def _normal_chunks(seed: int, block: int, count: int, dim: int) -> Iterator[np.ndarray]:
    """Standard normals of substream (seed, block) via Box-Muller, in consecutive row chunks.

    Chunk i starts at row i * ``_chunk_rows(dim)`` and has that many rows; the
    last also takes a shorter remainder, so no chunk is a short tail.  The
    ``gen.random`` calls continue one Philox stream and Box-Muller maps each
    row on its own, so the chunks are the rows of one whole-block draw.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, block]))
    n_pairs = (dim + 1) // 2
    rows = _chunk_rows(dim)
    start = 0
    while start < count:
        size = count - start if count - start < 2 * rows else rows
        u = gen.random((size, n_pairs, 2))
        r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))  # 1-u in (0,1]: log stays finite
        a = 2.0 * np.pi * u[..., 1]
        z = np.empty((size, 2 * n_pairs))
        np.multiply(r, np.cos(a), out=z[:, :n_pairs])
        np.multiply(r, np.sin(a), out=z[:, n_pairs:])
        yield z[:, :dim]
        start += size


def block_normals(seed: int, block: int, count: int, dim: int) -> np.ndarray:
    """Standard normals (count, dim) of substream (seed, block): its chunks, concatenated."""
    return np.concatenate(list(_normal_chunks(seed, block, count, dim)))


def _block_counts(n: int) -> list[int]:
    n_blocks = (n + BLOCK - 1) // BLOCK
    return [BLOCK] * (n_blocks - 1) + [n - BLOCK * (n_blocks - 1)]


def _chan_m2(m2_a, sum_a, n_a: int, m2_b, sum_b, n_b: int):
    """Centred sum of squares of two merged sample sets from each one's sum and
    centred sum of squares (Chan, Golub & LeVeque 1979): accurate when |mean|
    is much larger than the spread."""
    delta = sum_b / n_b - sum_a / n_a
    return m2_a + m2_b + delta**2 * (n_a * n_b / (n_a + n_b))


def _merge(partials: list, counts: list[int], n: int) -> McEstimate:
    """One estimate from its block partials (sum, centred sum of squares), in block order.

    The mean is the plain block-ordered sum over n; the centred sums of
    squares are merged with ``_chan_m2``.  Partials whose centred sums of
    squares are None (sums only) give an estimate without a standard error.
    """
    total = partials[0][0].astype(float)
    if partials[0][1] is None:
        for s, _ in partials[1:]:
            total = total + s
        return McEstimate(mean=total / n, std_error=None, n=n)
    m2 = partials[0][1].astype(float)
    seen = counts[0]
    for (s, s2), count in zip(partials[1:], counts[1:]):
        m2 = _chan_m2(m2, total, seen, s2, s, count)
        total = total + s
        seen += count
    mean = total / n
    var = m2 / (n - 1) if n > 1 else np.zeros_like(mean)
    return McEstimate(mean=mean, std_error=np.sqrt(var / n), n=n)


class _Kernel:
    """A kernel streamed over the chunks of a unit's block.

    ``fold(acc, x)`` folds chunk x into the unit's accumulator (None before
    the first chunk); ``moments(acc, count)`` is the unit's (sum, centred sum
    of squares) over its ``count`` samples.  A kernel made with
    ``spread=False`` folds the sums alone, and its centred sum of squares is
    None.
    """


class _Values(_Kernel):
    """A kernel given per sample: ``f(x)`` maps a chunk x (B, d) to values (B, ...).

    The accumulator is (sum, centred sum of squares, rows).  numpy sums the
    rows of a (B, ...) array in order, so adding the running sum to a chunk's
    first row continues the block's row-ordered sum bit for bit.  A (B,)
    array numpy sums pairwise, where the carried sum would cost digits, so
    its chunk sum is added to the total instead.  Each chunk's centred sum
    of squares is merged in with ``_chan_m2``; without ``spread`` the
    accumulator's centred sum of squares is None.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], spread: bool = True):
        self.f = f
        self.spread = spread

    def fold(self, acc, x: np.ndarray):
        vals = self.f(x)
        if np.may_share_memory(vals, x):
            vals = vals.copy()  # every kernel of the cell reads this chunk
        rows = len(vals)
        if acc is None:
            total = s = vals.sum(axis=0)
        elif vals.ndim == 1:
            s = vals.sum()
            total = acc[0] + s
        else:
            first = vals[0].copy()
            vals[0] += acc[0]
            total = vals.sum(axis=0)
            vals[0] = first
            s = total - acc[0]
        if not self.spread:
            return total, None, None
        vals -= s / rows
        m2 = np.square(vals, out=vals).sum(axis=0)
        if acc is None:
            return total, m2, rows
        return total, _chan_m2(acc[1], acc[0], acc[2], m2, s, rows), acc[2] + rows

    def moments(self, acc, count: int):
        return acc[0], acc[1]


class _SpanCounts(_Kernel):
    """A per-sample value that is 0 where w.x <= 0, u where only w.x > 0, and v
    where w.x > 0 and w*.x > 0, reduced from the counts of the three cases.

    One product x @ [w, w*] per chunk gives the counts n1 (w.x > 0) and n11
    (both), which add up over the unit; then the sum is n10 u + n11 v and the
    centred sum of squares is sum_t n_t (v_t - sum / count)^2: no (B, d)
    array, and the sum is exact up to a few roundings.
    """

    def __init__(self, w: np.ndarray, wstar: np.ndarray, u: np.ndarray, v: np.ndarray,
                 spread: bool = True):
        self.proj = np.stack([w, wstar], axis=1)
        self.u, self.v = u, v
        self.spread = spread

    def fold(self, acc, x: np.ndarray):
        p = x @ self.proj
        on = p[:, 0] > 0
        n1, n11 = acc or (0, 0)
        return n1 + np.count_nonzero(on), n11 + np.count_nonzero(on & (p[:, 1] > 0))

    def moments(self, acc, count: int):
        n1, n11 = acc
        n10, n00 = n1 - n11, count - n1
        u, v = self.u, self.v
        s = n10 * u + n11 * v
        if not self.spread:
            return s, None
        mean = s / count
        return s, n00 * mean**2 + n10 * (u - mean) ** 2 + n11 * (v - mean) ** 2


def _reduce_cells(cells: list[tuple], threads: int) -> list[list[McEstimate]]:
    """Estimates [cell][kernel] for cells (McConfig, kernels).

    A kernel is a per-sample callable x (B, d) -> values (B, ...), or a
    ``_Kernel``.  The unit of work is one (cell, block) pair: it draws the
    block's chunks in order and folds each chunk into every kernel of its
    cell before drawing the next.  All units of a call share one thread pool,
    which takes them largest (count x dim) first, and each cell's partials
    are merged per kernel in block order.
    """
    cells = [(cfg, [k if isinstance(k, _Kernel) else _Values(k) for k in kernels])
             for cfg, kernels in cells]
    counts = [_block_counts(cfg.n_samples) for cfg, _ in cells]
    # a stable sort; the order units run in never changes a result
    units = sorted(((c, b) for c, cell_counts in enumerate(counts) for b in range(len(cell_counts))),
                   key=lambda u: -counts[u[0]][u[1]] * cells[u[0]][0].dim)

    def work(unit):
        c, b = unit
        cfg, kernels = cells[c]
        accs = [None] * len(kernels)
        for x in _normal_chunks(cfg.seed, b, counts[c][b], cfg.dim):
            accs = [k.fold(acc, x) for k, acc in zip(kernels, accs)]
        return [k.moments(acc, counts[c][b]) for k, acc in zip(kernels, accs)]

    if threads > 1 and len(units) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = dict(zip(units, pool.map(work, units)))
    else:
        partials = {unit: work(unit) for unit in units}
    return [[_merge([partials[c, b][k] for b in range(len(cell_counts))], cell_counts, cfg.n_samples)
             for k in range(len(kernels))]
            for c, ((cfg, kernels), cell_counts) in enumerate(zip(cells, counts))]


# --------------------------------------------------------------------------
# per-sample kernels

# Every (model, kind) as the component parts it sums.  First-order parts:
# the value gradient "l2" and the seminorm gradient "semi" (relu losses use
# the same names); second-order parts: the value, input-gradient and
# input-Hessian mismatches "i1", "i2", "i3".
_FORMS = {
    "relu": {"l2": ("l2",), "h1_semi": ("semi",), "h1": ("l2", "semi")},
    "relu_sq": {"i1": ("i1",), "i2": ("i2",), "i3": ("i3",), "h1": ("i1", "i2")},
    "multinode": {"l2": ("l2",), "h1": ("l2", "semi")},
}


def _parts(model: str, kind: str) -> tuple[str, ...]:
    if model not in _FORMS:
        raise ValueError(f"unknown model {model!r}")
    if kind not in _FORMS[model]:
        raise ValueError(f"unknown kind {kind!r} for {model}")
    return _FORMS[model][kind]


def _combine(vals: list[np.ndarray]) -> np.ndarray:
    """The sum of the parts, in order."""
    out = vals[0]
    for v in vals[1:]:
        out = out + v
    return out


def _projections(x: np.ndarray, W: np.ndarray, Wstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projections w_k.x and w*_k.x (..., B, K), one product per weight
    stack: at K = 1 each is a matrix-vector product, which rounds otherwise
    than one matrix product of x with [w, w*]."""
    return x @ np.swapaxes(W, -1, -2), x @ np.swapaxes(Wstar, -1, -2)


def _value_part(x: np.ndarray, pw: np.ndarray, ps: np.ndarray, on: np.ndarray) -> np.ndarray:
    """``_relu_grad``'s "l2" part r 1{w_j.x>0} x (..., B, K, d) from the
    projections pw, ps and the indicators on = pw > 0 (..., B, K)."""
    resid = np.maximum(pw, 0.0).sum(axis=-1) - np.maximum(ps, 0.0).sum(axis=-1)
    return (resid[..., None] * on)[..., None] * x[..., :, None, :]


def _relu_grad(x: np.ndarray, W: np.ndarray, Wstar: np.ndarray, parts: tuple[str, ...]):
    """Per-sample first-order gradient parts (B, K, d) of K ReLU students, in ``parts`` order.

    With r = sum_k relu(w_k.x) - sum_k relu(w*_k.x), node j gets
      "l2":   r 1{w_j.x>0} x
      "semi": 1{w_j.x>0} (sum_k 1{w_k.x>0} w_k - sum_k 1{w*_k.x>0} w*_k)
    which for K = 1 are the single-node value and seminorm gradients.

    Leading axes stack independent problems: x (..., B, d) with W and W*
    (..., K, d) give parts (..., B, K, d), and each problem's slice is bit
    for bit what its 2-d arrays give alone.
    """
    pw, ps = _projections(x, W, Wstar)
    on = pw > 0
    out = []
    for p in parts:
        if p == "l2":
            out.append(_value_part(x, pw, ps, on))
        else:
            # both node sums in one matmul over the 2K indicators
            iw = on.astype(float)
            semi = (np.concatenate([iw, ps > 0], axis=-1)
                    @ np.concatenate([W, -Wstar], axis=-2))
            out.append(iw[..., None] * semi[..., None, :])
    return out


def _part_value(what: str, part: str, w, wstar, dots, x, iw, istar, sw, ss):
    """Per-sample loss of any part, or gradient of a second-order part, at one student."""
    nw2, dot, ns2 = dots
    if what == "loss":
        if part == "l2":
            return 0.5 * (sw - ss) ** 2
        if part == "semi":
            return 0.5 * (iw * nw2 - 2.0 * (iw & istar) * dot + istar * ns2)
        if part == "i1":
            return 0.5 * (sw**2 - ss**2) ** 2
        if part == "i2":
            return 2.0 * (sw**2 * nw2 - 2.0 * sw * ss * dot + ss**2 * ns2)
        return 2.0 * (iw * nw2**2 - 2.0 * (iw & istar) * dot**2 + istar * ns2**2)
    if part == "i1":
        return (2.0 * (sw**2 - ss**2) * sw)[:, None] * x
    if part == "i2":
        # grouped so every factor cancels exactly at w = w*
        return 4.0 * (
            (sw * nw2 - ss * iw * dot)[:, None] * x
            + (sw * sw)[:, None] * w[None, :]
            - (sw * ss)[:, None] * wstar[None, :]
        )
    return 8.0 * (
        (iw * nw2)[:, None] * w[None, :] - ((iw & istar) * dot)[:, None] * wstar[None, :]
    )


def _span_values(part: str, w: np.ndarray, wstar: np.ndarray, dots) -> tuple[np.ndarray, np.ndarray]:
    """The values (u, v) of a span part's per-sample gradient: u where only
    w.x > 0, v where w.x > 0 and w*.x > 0 (0 where w.x <= 0)."""
    if part == "semi":  # ``_relu_grad``'s seminorm part at K = 1
        return w, w - wstar
    nw2, dot, _ = dots  # "i3": ``_part_value``'s gradient at those indicators
    return 8.0 * (nw2 * w), 8.0 * (nw2 * w - dot * wstar)


# Gradient parts that depend on x only through 1{w.x>0} and 1{w*.x>0}, so lie
# in span{w, w*}; a kind that is one of them alone reduces from the
# indicator counts.
_SPAN_PARTS = ("semi", "i3")


def _persample(model: str, kind: str, W: np.ndarray, Wstar: np.ndarray, what: str,
               spread: bool = True):
    """Kernel of (model, kind) at students W and teachers W* (K, d).

    First-order gradients are (B, K, d) for "multinode" and (B, d) for "relu";
    everything else is one student: (B, d) gradients, (B,) losses.  The
    gradient of a single-node kind that is one part in ``_SPAN_PARTS`` alone
    ("h1_semi", "i3") is a ``_SpanCounts`` over the indicator counts; every
    other kernel is a per-sample ``_Values``.  Without ``spread`` the kernel
    folds the sums alone, and its estimate has no standard error.
    """
    parts = _parts(model, kind)
    if what == "grad" and model == "multinode":
        return _Values(lambda x: _combine(_relu_grad(x, W, Wstar, parts)), spread)
    w, wstar = W[0], Wstar[0]
    dots = (float(w @ w), float(w @ wstar), float(wstar @ wstar))
    if what == "grad" and len(parts) == 1 and parts[0] in _SPAN_PARTS:
        return _SpanCounts(w, wstar, *_span_values(parts[0], w, wstar, dots), spread)

    if what == "grad" and model == "relu":
        def kernel(x: np.ndarray) -> np.ndarray:
            return _combine([v[:, 0] for v in _relu_grad(x, W, Wstar, parts)])
    else:
        def kernel(x: np.ndarray) -> np.ndarray:
            pw = x @ w
            ps = x @ wstar
            iw = pw > 0
            istar = ps > 0
            sw = np.where(iw, pw, 0.0)
            ss = np.where(istar, ps, 0.0)
            return _combine([_part_value(what, p, w, wstar, dots, x, iw, istar, sw, ss)
                             for p in parts])
    return _Values(kernel, spread)


def mc_loss_and_grad(
    model: str,
    kind: str,
    w: np.ndarray,
    wstar: np.ndarray,
    cfg: McConfig,
    what: str = "grad",
    threads: int = 1,
) -> McEstimate:
    """Unbiased Monte-Carlo estimate of a population loss or its w-gradient.

    ``model`` is "relu" or "relu_sq"; ``kind`` is "l2", "h1_semi" or "h1"
    for relu, and "i1", "i2", "i3" or "h1" (= i1 + i2) for relu_sq.  ``what``
    selects "grad" or "loss".  A one-cell ``_reduce_cells``.
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.shape != (cfg.dim,) or wstar.shape != (cfg.dim,):
        raise ValueError("w and w* must match cfg.dim")
    if not wstar.any():
        raise ValueError("teacher vector must be nonzero")
    if what not in ("grad", "loss"):
        raise ValueError("what must be 'grad' or 'loss'")
    model = model.lower()
    if model == "multinode":
        raise ValueError("multinode estimates come from mc_multinode_grad")
    kernel = _persample(model, kind.lower(), w[None], wstar[None], what)
    return _reduce_cells([(cfg, (kernel,))], threads)[0][0]


def mc_multinode_grad(
    W: np.ndarray,
    Wstar: np.ndarray,
    kind: str,
    cfg: McConfig,
    threads: int = 1,
) -> McEstimate:
    """Monte-Carlo estimate of the per-node population gradients, shape (K, d).

    Estimates +E grad_{w_j}; the closed-form field returns the negation.
    """
    W = np.asarray(W, dtype=float)
    Wstar = np.asarray(Wstar, dtype=float)
    if W.ndim != 2 or W.shape != Wstar.shape or W.shape[1] != cfg.dim:
        raise ValueError("W and W* must both have shape (K, dim)")
    kernel = _persample("multinode", kind.lower(), W, Wstar, "grad")
    return _reduce_cells([(cfg, (kernel,))], threads)[0][0]


# --------------------------------------------------------------------------
# closed forms matching each (model, kind), used by the convergence study


def closed_form_grad(model: str, kind: str, w: np.ndarray, wstar: np.ndarray) -> np.ndarray:
    """The closed form an MC estimate of (model, kind) converges to.

    For "multinode", ``w`` and ``wstar`` are the stacked (K, d) nodes.
    """
    model = model.lower()
    kind = kind.lower()
    parts = _parts(model, kind)
    if model == "multinode":
        return -mn.multinode_gradients(w, wstar, kind)
    if model == "relu":
        b = relu1.population_gradients(w, wstar)
        closed = {"l2": b.grad_l2, "semi": b.grad_seminorm}
    else:
        b = relusq.h2_gradients(w, wstar)
        closed = {"i1": b.grad_i1, "i2": b.grad_i2, "i3": b.grad_i3}
    return _combine([closed[p] for p in parts])


def _basin_pair(model: str, seed: int, dim: int, trial: int):
    pair_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(dim, trial)))
    if model == "multinode":
        if dim < 2:  # two orthonormal teachers
            raise ValueError(f"multinode forms need dim >= 2, got {dim}")
        return basin_node_pairs(pair_rng, dim, 0.05, 0.95)
    # a unit teacher keeps per-trial MSE scales comparable: the second-order
    # gradients scale like the sixth power of the norms, so one large-norm
    # trial would dominate the average
    ws, wstar = basin_pairs(pair_rng, dim, 1, 0.05, 0.95)
    return ws[0], wstar


def _convergence_tables(
    forms: list[tuple[str, str]],
    dims: Iterable[int],
    n_grid: Iterable[int],
    trials: int,
    seed: int,
    threads: int = 1,
) -> list[list[tuple[int, int, float]]]:
    """MSE between closed forms and MC estimates on a (dim, n) grid, one table per
    (model, kind) in ``forms``.

    A table has rows (dim, n, mse) with the MSE averaged over ``trials``
    independent basin pairs per dim.  A cell's substream seed depends only on
    (seed, dim, trial, i), so cells are statistically independent and every
    form's kernel is applied to one draw of each block.  Only the means enter
    the MSE, so the kernels fold the sums alone.
    """
    forms = [(model.lower(), kind.lower()) for model, kind in forms]
    dims, n_grid = list(dims), list(n_grid)
    if trials < 1 or not forms or not dims or not n_grid:
        raise ValueError("a convergence study needs trials >= 1 and non-empty dims and n_grid")
    cells, targets = [], []
    for dim in dims:
        for trial in range(trials):
            pairs = [_basin_pair(model, seed, dim, trial) for model, _ in forms]
            kernels = [_persample(model, kind, np.atleast_2d(w), np.atleast_2d(wstar), "grad",
                                  spread=False)
                       for (model, kind), (w, wstar) in zip(forms, pairs)]
            closed = [closed_form_grad(model, kind, w, wstar)
                      for (model, kind), (w, wstar) in zip(forms, pairs)]
            for i, n in enumerate(n_grid):
                cell_seed = int(
                    np.random.SeedSequence(entropy=seed, spawn_key=(dim, trial, i)).generate_state(1)[0]
                )
                cells.append((McConfig(n_samples=int(n), seed=cell_seed, dim=dim), kernels))
                targets.append(closed)
    # average each form's per-trial MSEs cellwise
    aggs: list[dict[tuple[int, int], list[float]]] = [{} for _ in forms]
    for (cfg, _), closed, ests in zip(cells, targets, _reduce_cells(cells, threads)):
        for agg, target, est in zip(aggs, closed, ests):
            mse = float(np.mean((est.mean - target) ** 2))
            agg.setdefault((int(cfg.dim), cfg.n_samples), []).append(mse)
    return [[(dim, n, float(np.mean(v))) for (dim, n), v in sorted(agg.items())] for agg in aggs]


def fit_loglog_slope(ns: np.ndarray, mses: np.ndarray) -> float:
    """Least-squares slope of log2(mse) against log2(n)."""
    return float(np.polyfit(np.log2(np.asarray(ns, float)), np.log2(np.asarray(mses, float)), 1)[0])
