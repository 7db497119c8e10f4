"""Independent Monte-Carlo ground truth for every closed-form population quantity.

Sampling is organized in fixed 65536-sample substream blocks.  Block b of a
run with seed s draws from a Philox counter-based generator keyed (s, b),
and normals come from Box-Muller applied to that block's uniform stream, so
an estimate depends only on (seed, n_samples, dim) - never on which worker
thread draws a block or how many workers there are.  Partial block sums are
reduced in block order, which makes repeated runs bit-identical.

Per-sample gradients use the indicator identities of the closed-form
derivations (ReLU derivative 1{t>0}), e.g. for the first-order model:

  value loss:      (relu(w.x) - relu(w*.x)) 1{w.x>0} x
  seminorm loss:   1{w.x>0} w - 1{w.x>0} 1{w*.x>0} w*

so the sample mean estimates exactly the expectation the closed forms
integrate.  (For the discontinuous-integrand seminorm this expectation is
the defined population gradient; it differs from the gradient of the
scalar population loss by a boundary term, so finite-difference checks
are only meaningful for the continuous-integrand losses.)
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import multinode as mn
from . import relu1, relusq
from .geometry import basin_pairs

BLOCK = 65536

_RELU_KINDS = ("l2", "h1_semi", "h1")
_RELUSQ_KINDS = ("l2", "h1_semi", "h1", "h2_parts", "i1", "i2", "i3")


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
    """Sample mean with elementwise standard errors (std / sqrt(n))."""

    mean: np.ndarray
    std_error: np.ndarray
    n: int


def block_normals(seed: int, block: int, count: int, dim: int) -> np.ndarray:
    """Standard normals (count, dim) from substream (seed, block) via Box-Muller."""
    gen = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, block]))
    n_pairs = (dim + 1) // 2
    u = gen.random((count, n_pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))  # 1-u in (0,1]: log stays finite
    a = 2.0 * np.pi * u[..., 1]
    z = np.concatenate([r * np.cos(a), r * np.sin(a)], axis=1)
    return z[:, :dim]


def _reduce_blocks(
    persample: Callable[[np.ndarray], np.ndarray],
    seed: int,
    n: int,
    dim: int,
    threads: int,
):
    """Accumulate (sum, centred sum of squares) over blocks, reduced in block order.

    Block statistics are merged pairwise (Chan, Golub & LeVeque 1979), so the
    variance stays accurate when |mean| is much larger than the spread; the
    mean is the plain block-ordered sum over n.
    """
    n_blocks = (n + BLOCK - 1) // BLOCK
    counts = [BLOCK] * (n_blocks - 1) + [n - BLOCK * (n_blocks - 1)]

    def work(b: int):
        vals = persample(block_normals(seed, b, counts[b], dim))
        s = vals.sum(axis=0)
        dev = vals - s / counts[b]
        return s, np.square(dev, out=dev).sum(axis=0)

    if threads > 1 and n_blocks > 1:
        partials = [None] * n_blocks
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for b, res in zip(range(n_blocks), pool.map(work, range(n_blocks))):
                partials[b] = res
    else:
        partials = [work(b) for b in range(n_blocks)]

    total = partials[0][0].astype(float)
    m2 = partials[0][1].astype(float)
    seen = counts[0]
    for b, (s, s2) in enumerate(partials[1:], start=1):
        delta = s / counts[b] - total / seen
        m2 = m2 + s2 + delta**2 * (seen * counts[b] / (seen + counts[b]))
        total = total + s
        seen += counts[b]
    mean = total / n
    var = m2 / (n - 1) if n > 1 else np.zeros_like(mean)
    return McEstimate(mean=mean, std_error=np.sqrt(var / n), n=n)


# --------------------------------------------------------------------------
# per-sample kernels


def _relu_persample(kind: str, w: np.ndarray, wstar: np.ndarray, what: str):
    nw2 = float(w @ w)
    ns2 = float(wstar @ wstar)
    dot = float(w @ wstar)

    def kernel(x: np.ndarray) -> np.ndarray:
        pw = x @ w
        ps = x @ wstar
        iw = pw > 0
        istar = ps > 0
        sw = np.where(iw, pw, 0.0)
        ss = np.where(istar, ps, 0.0)
        if what == "grad":
            if kind == "l2":
                return ((sw - ss) * iw)[:, None] * x
            if kind == "h1_semi":
                return iw[:, None] * w[None, :] - (iw & istar)[:, None] * wstar[None, :]
            return ((sw - ss) * iw)[:, None] * x + (
                iw[:, None] * w[None, :] - (iw & istar)[:, None] * wstar[None, :]
            )
        l2 = 0.5 * (sw - ss) ** 2
        semi = 0.5 * (iw * nw2 - 2.0 * (iw & istar) * dot + istar * ns2)
        if kind == "l2":
            return l2
        if kind == "h1_semi":
            return semi
        return l2 + semi

    return kernel


def _relusq_part_grad(part: str, w, wstar, x, pw, ps, iw, istar, sw, ss):
    if part == "i1":
        return (2.0 * (sw**2 - ss**2) * sw)[:, None] * x
    if part == "i2":
        nw2 = float(w @ w)
        dot = float(w @ wstar)
        # grouped so every factor cancels exactly at w = w*
        return 4.0 * (
            (sw * nw2 - ss * iw * dot)[:, None] * x
            + (sw * sw)[:, None] * w[None, :]
            - (sw * ss)[:, None] * wstar[None, :]
        )
    nw2 = float(w @ w)
    dot = float(w @ wstar)
    return 8.0 * (
        (iw * nw2)[:, None] * w[None, :] - ((iw & istar) * dot)[:, None] * wstar[None, :]
    )


def _relusq_part_loss(part: str, w, wstar, pw, ps, iw, istar, sw, ss):
    if part == "i1":
        return 0.5 * (sw**2 - ss**2) ** 2
    if part == "i2":
        nw2 = float(w @ w)
        ns2 = float(wstar @ wstar)
        dot = float(w @ wstar)
        return 2.0 * (sw**2 * nw2 - 2.0 * sw * ss * dot + ss**2 * ns2)
    nw2 = float(w @ w)
    ns2 = float(wstar @ wstar)
    dot = float(w @ wstar)
    return 2.0 * (iw * nw2**2 - 2.0 * (iw & istar) * dot**2 + istar * ns2**2)


def _relusq_persample(kind: str, w: np.ndarray, wstar: np.ndarray, what: str):
    parts = {
        "l2": ("i1",),
        "i1": ("i1",),
        "h1_semi": ("i2",),
        "i2": ("i2",),
        "i3": ("i3",),
        "h1": ("i1", "i2"),
        "h2_parts": ("i1", "i2", "i3"),
    }[kind]
    stacked = kind == "h2_parts"

    def kernel(x: np.ndarray) -> np.ndarray:
        pw = x @ w
        ps = x @ wstar
        iw = pw > 0
        istar = ps > 0
        sw = np.where(iw, pw, 0.0)
        ss = np.where(istar, ps, 0.0)
        if what == "grad":
            vals = [_relusq_part_grad(p, w, wstar, x, pw, ps, iw, istar, sw, ss) for p in parts]
            if stacked:
                return np.stack(vals, axis=1)  # (B, 3, d)
            out = vals[0]
            for v in vals[1:]:
                out = out + v
            return out
        vals = [_relusq_part_loss(p, w, wstar, pw, ps, iw, istar, sw, ss) for p in parts]
        if stacked:
            return np.stack(vals, axis=1)  # (B, 3)
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out

    return kernel


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
    (for relu_sq also "i1"/"i2"/"i3" and "h2_parts", the latter stacking
    the three component estimates).  ``what`` selects "grad" or "loss".
    """
    w = np.asarray(w, dtype=float)
    wstar = np.asarray(wstar, dtype=float)
    if w.shape != (cfg.dim,) or wstar.shape != (cfg.dim,):
        raise ValueError("w and w* must match cfg.dim")
    if float(np.linalg.norm(wstar)) == 0.0:
        raise ValueError("teacher vector must be nonzero")
    if what not in ("grad", "loss"):
        raise ValueError("what must be 'grad' or 'loss'")
    model = model.lower()
    kind = kind.lower()
    if model == "relu":
        if kind not in _RELU_KINDS:
            raise ValueError(f"unknown kind {kind!r} for relu")
        kernel = _relu_persample(kind, w, wstar, what)
    elif model == "relu_sq":
        if kind not in _RELUSQ_KINDS:
            raise ValueError(f"unknown kind {kind!r} for relu_sq")
        kernel = _relusq_persample(kind, w, wstar, what)
    else:
        raise ValueError(f"unknown model {model!r}")
    return _reduce_blocks(kernel, cfg.seed, cfg.n_samples, cfg.dim, threads)


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
    kind = kind.lower()
    if kind not in ("l2", "h1"):
        raise ValueError("kind must be 'l2' or 'h1'")
    K = W.shape[0]

    def kernel(x: np.ndarray) -> np.ndarray:
        pw = x @ W.T  # (B, K)
        ps = x @ Wstar.T
        iw = (pw > 0).astype(float)
        istar = (ps > 0).astype(float)
        resid = np.where(pw > 0, pw, 0.0).sum(axis=1) - np.where(ps > 0, ps, 0.0).sum(axis=1)
        semi = iw @ W - istar @ Wstar if kind == "h1" else None
        out = np.empty((x.shape[0], K, W.shape[1]))
        for j in range(K):
            g = (resid * iw[:, j])[:, None] * x
            if semi is not None:
                g = g + iw[:, j, None] * semi
            out[:, j, :] = g
        return out

    return _reduce_blocks(kernel, cfg.seed, cfg.n_samples, cfg.dim, threads)


# --------------------------------------------------------------------------
# closed forms matching each (model, kind), used by the convergence study


def closed_form_grad(model: str, kind: str, w: np.ndarray, wstar: np.ndarray) -> np.ndarray:
    model = model.lower()
    kind = kind.lower()
    if model == "relu":
        b = relu1.population_gradients(w, wstar)
        return {"l2": b.grad_l2, "h1_semi": b.grad_semi, "h1": b.grad_h1}[kind]
    if model == "relu_sq":
        b = relusq.h2_gradients(w, wstar)
        table = {
            "l2": b.grad_i1,
            "i1": b.grad_i1,
            "h1_semi": b.grad_i2,
            "i2": b.grad_i2,
            "i3": b.grad_i3,
            "h1": b.grad_i1 + b.grad_i2,
            "h2_parts": np.stack([b.grad_i1, b.grad_i2, b.grad_i3]),
        }
        return table[kind]
    raise ValueError(f"unknown model {model!r}")


def convergence_study(
    model: str,
    kind: str,
    dims: Iterable[int],
    n_grid: Iterable[int],
    trials: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[int, int, float]]:
    """MSE between closed forms and MC estimates on a (dim, n) grid.

    Returns rows (dim, n, mse) with the MSE averaged over ``trials``
    independent basin pairs per dim; every cell uses its own substream
    family so cells are statistically independent.
    """
    rows = []
    for dim in dims:
        for trial in range(trials):
            pair_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(dim, trial))
            )
            if model == "multinode":
                # two orthonormal teachers, cyclic-free random students
                Wstar = np.linalg.qr(pair_rng.standard_normal((dim, dim)))[0][:2].copy()
                E = pair_rng.standard_normal((2, dim))
                E *= (pair_rng.uniform(0.05, 0.95, size=2) / np.linalg.norm(E, axis=1))[:, None]
                W = Wstar + E
                closed = -mn.multinode_gradients(W, Wstar, kind)
            else:
                # a unit teacher keeps per-trial MSE scales comparable: the
                # second-order gradients scale like the sixth power of the
                # norms, so one large-norm trial would dominate the average
                ws, wstar = basin_pairs(pair_rng, dim, 1, 0.05, 0.95)
                w = ws[0]
                closed = closed_form_grad(model, kind, w, wstar)
            for i, n in enumerate(n_grid):
                cell_seed = int(
                    np.random.SeedSequence(entropy=seed, spawn_key=(dim, trial, i)).generate_state(1)[0]
                )
                cfg = McConfig(n_samples=int(n), seed=cell_seed, dim=dim)
                if model == "multinode":
                    est = mc_multinode_grad(W, Wstar, kind, cfg, threads=threads)
                else:
                    est = mc_loss_and_grad(model, kind, w, wstar, cfg, threads=threads)
                mse = float(np.mean((est.mean - closed) ** 2))
                rows.append((int(dim), int(n), mse))
    # average the per-trial MSEs cellwise
    agg: dict[tuple[int, int], list[float]] = {}
    for dim, n, mse in rows:
        agg.setdefault((dim, n), []).append(mse)
    return [(dim, n, float(np.mean(v))) for (dim, n), v in sorted(agg.items())]


def fit_loglog_slope(ns: np.ndarray, mses: np.ndarray) -> float:
    """Least-squares slope of log2(mse) against log2(n)."""
    return float(np.polyfit(np.log2(np.asarray(ns, float)), np.log2(np.asarray(mses, float)), 1)[0])
