"""Layer probes: direct timed calls into one public function each.

Every probe reports the median of several timed repetitions.  The kernel
probes time ``mc_loss_and_grad`` / ``mc_multinode_grad`` on one 65536 x 64
block with ``mc.block_normals`` rebound to return a block drawn beforehand,
so they measure the per-sample kernel plus the block reduction and no
normal generation; the caller checks that the rebinding is undone.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

from sobolev_lab import mc, relu1
from sobolev_lab import multinode as mn
from sobolev_lab import ode

KERNEL_FORMS = (("relu", "l2"), ("relu", "h1_semi"), ("relu_sq", "i1"), ("relu_sq", "i2"),
                ("relu_sq", "i3"), ("multinode", "l2"), ("multinode", "h1"))


def _median_s(fn, reps: int, batch: int = 1) -> float:
    samples = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for _ in range(batch):
            fn()
        samples.append((perf_counter_ns() - t0) / batch)
    return statistics.median(samples) / 1e9


def _basin_pair(rng: np.random.Generator, dim: int):
    wstar = rng.standard_normal(dim)
    wstar /= np.linalg.norm(wstar)
    e = rng.standard_normal(dim)
    return wstar + 0.5 * e / np.linalg.norm(e), wstar


def _multinode_pair(rng: np.random.Generator, k: int, dim: int):
    wstar = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:k].copy()
    e = rng.standard_normal((k, dim))
    return wstar + 0.5 * e / np.linalg.norm(e, axis=1, keepdims=True), wstar


def run_probes(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    blocks = iter(range(1, 1 << 20))
    for d in (4, 16, 64):
        out[f"probe.block_normals.d{d}_ms"] = 1e3 * _median_s(
            lambda: mc.block_normals(seed, next(blocks), mc.BLOCK, d), reps=5)

    d = 64
    block = mc.block_normals(seed, 0, mc.BLOCK, d)
    cfg = mc.McConfig(n_samples=mc.BLOCK, seed=seed, dim=d)
    w, wstar = _basin_pair(rng, d)
    W, Wstar = _multinode_pair(rng, 2, d)
    drawn = mc.block_normals
    mc.block_normals = lambda s, b, count, dim: block[:count, :dim]
    try:
        for model, kind in KERNEL_FORMS:
            if model == "multinode":
                call = lambda: mc.mc_multinode_grad(W, Wstar, kind, cfg)  # noqa: E731
            else:
                call = lambda: mc.mc_loss_and_grad(model, kind, w, wstar, cfg)  # noqa: E731
            out[f"probe.kernel.{model}_{kind}_ms"] = 1e3 * _median_s(call, reps=3)
    finally:
        mc.block_normals = drawn

    field = mn.reduced_flow_field("h1", 4)
    x = rng.uniform(0.15, 1.0, size=100)
    states = np.stack([x, x * rng.uniform(0.0, 0.9, size=100)], axis=1)
    target = np.array([1.0, 0.0])
    out["probe.reduced_flow_field.m100_us"] = 1e6 * _median_s(lambda: field(states), reps=15, batch=50)
    out["probe.rk4_step.m100_us"] = 1e6 * _median_s(
        lambda: ode.rk4_integrate(field, states, 1e-3, 1e-3, target), reps=15, batch=20)

    w, wstar = _basin_pair(rng, 32)
    out["probe.relu1_hessians.d32_us"] = 1e6 * _median_s(lambda: relu1.hessians(w, wstar), reps=15, batch=20)

    for k in (2, 8, 32):
        W, Wstar = _multinode_pair(rng, k, k)
        out[f"probe.multinode_gradients.k{k}_us"] = 1e6 * _median_s(
            lambda: mn.multinode_gradients(W, Wstar, "l2"), reps=9, batch=max(1, 64 // (k * k)))
    return out
