"""Classic fixed-step fourth-order Runge-Kutta for the gradient flows.

Fixed step (no adaptivity) keeps traces bit-reproducible for regression
tests.  ``_rk4_rows`` is the one stepping loop: it integrates several runs
of rows as one stacked ensemble, each run with its own step, horizon, stop
radius and recording.  ``rk4_integrate`` is its one-run view, and
``multinode.planar_flows`` hands it every planar run at once.  States may be
a single vector ``(d,)`` or a stack ``(m, d)`` of independent trajectories
sharing the same field; the error tracking ``v = ||state - target||^2`` is
taken along the last axis either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import BlowUpError


@dataclass(frozen=True)
class FlowTrace:
    """Recorded trajectory of a flow integration.

    ``times`` is strictly increasing and starts at 0.  ``states[i]`` is the
    state at ``times[i]`` and ``v_values[i]`` its squared distance to
    ``target`` (per trajectory row for stacked states).
    """

    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray
    target: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_v(self) -> np.ndarray:
        return self.v_values[-1]


@dataclass(frozen=True)
class FlowRun:
    """What the stacked RK4 loop gives back for one run of rows.

    ``final`` holds each row's state where it stopped and ``final_v`` its
    squared distance to the target, ``crossed`` its first time within the
    run's stop radius (nan for a row that never got there, or that left the
    finite floats first), and ``trace`` the recorded states of a recorded
    run (None otherwise).
    """

    final: np.ndarray
    final_v: np.ndarray
    crossed: np.ndarray
    trace: FlowTrace | None


def _v(state: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.sum((state - target) ** 2, axis=-1)


def _rk4_step(field: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of size ``h`` from ``x``."""
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _schedule(step, t_end):
    """Full steps and short last step (n_full, rem) of each (step, t_end), elementwise.

    ``step`` and ``t_end`` are floats or arrays; both must be finite with
    0 < step <= t_end.  ``rem`` is 0 when ``t_end`` is a step multiple up
    to 1e-9 of a step.
    """
    step = np.asarray(step, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    if not (np.isfinite(step).all() and np.isfinite(t_end).all()):
        raise ValueError("step and t_end must be finite")
    if (step <= 0.0).any():
        raise ValueError("step must be positive")
    if (t_end <= 0.0).any() or (step > t_end * (1.0 + 1e-12)).any():
        raise ValueError("need 0 < step <= t_end")
    n_full = (t_end / step).astype(np.int64)
    rem = t_end - n_full * step
    return n_full, np.where(rem < step * 1e-9, 0.0, rem)


def _rk4_rows(field: Callable[[np.ndarray], np.ndarray], runs: list[tuple],
              target: np.ndarray) -> list[FlowRun]:
    """The one RK4 loop: integrate every run as one stacked ensemble; one ``FlowRun`` per run.

    Each run is (starts, step, t_end, thresh, record_every) with starts
    (m, d); a run of its own may also hold a single state (d,), which the
    field then receives as (d,) arrays.  Each row steps with its run's step
    up to its run's horizon, taking a short last step when the horizon is
    not a step multiple, or until it comes within ``thresh`` > 0 of
    ``target``.  The loop lasts as long as the longest row, and a row that
    has stopped keeps its state, so every row comes out as it would in a run
    of its own.  A run with ``record_every`` > 0 records its states every
    that many steps, plus the first and last.  A row without a stop radius
    that leaves the finite floats raises ``BlowUpError`` at the earliest
    such time; a row with one can never cross and stops.
    """
    target = np.array(target, dtype=float)
    starts = [np.array(r[0], dtype=float) for r in runs]
    s = np.concatenate(starts)
    rows = s.shape[:-1]
    sizes = [x[..., 0].size for x in starts]
    bounds = np.cumsum([0] + sizes)

    def of_run(x: np.ndarray, j: int) -> np.ndarray:
        return x if len(runs) == 1 else x[bounds[j]:bounds[j + 1]]

    params = np.array([r[1:4] for r in runs], dtype=float)  # step, t_end, thresh
    step, t_end, thresh = np.repeat(params, sizes, axis=0).T.reshape((3,) + rows)
    n_full, rem = _schedule(step, t_end)
    n_steps = n_full + (rem > 0.0)
    stops = thresh > 0.0
    # a recorded run's rows share one schedule: its first row's steps
    recorded = [(j, r[4], n_steps.flat[bounds[j]]) for j, r in enumerate(runs) if r[4]]
    records = {j: [(0.0, starts[j])] for j, _, _ in recorded}

    t = np.zeros(rows)
    crossed = np.full(rows, np.nan)
    done = np.zeros(rows, dtype=bool)
    for i in range(int(n_steps.max())):
        stepping = ~done & (i < n_steps)
        if not stepping.any():
            break
        h = np.where(stepping, np.where(i < n_full, step, rem), 0.0)
        new = _rk4_step(field, s, h[..., None])
        t += h
        finite = np.isfinite(new).all(axis=-1)
        blown = stepping & ~finite
        if blown.any():
            if (blown & ~stops).any():
                t_blow = t[blown & ~stops].min()
                raise BlowUpError(f"trajectory blew up at t={t_blow:.6g}", time=float(t_blow))
            stepping = stepping & finite
            done |= blown
        s = np.where(stepping[..., None], new, s)
        hit = stepping & (_v(s, target) < thresh * thresh)
        crossed[hit] = t[hit]
        done |= hit
        for j, every, n in recorded:
            if i < n and ((i + 1) % every == 0 or i == n - 1):
                records[j].append((t.flat[bounds[j]], of_run(s, j).copy()))

    out = []
    for j in range(len(runs)):
        trace = None
        if j in records:
            times = np.array([tj for tj, _ in records[j]])
            states = np.array([sj for _, sj in records[j]])
            trace = FlowTrace(times=times, states=states, v_values=_v(states, target), target=target)
        final = of_run(s, j)
        out.append(FlowRun(final, _v(final, target), of_run(crossed, j), trace))
    return out


def rk4_integrate(
    field: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    step: float,
    t_end: float,
    target: np.ndarray,
    record_every: int = 1,
) -> FlowTrace:
    """Integrate ``dx/dt = field(x)`` from 0 to ``t_end`` with classic RK4.

    ``step`` and ``t_end`` must be finite with 0 < step <= t_end; a shorter
    final step is taken when ``t_end`` is not a step multiple.  Every
    ``record_every``-th state is recorded (plus the initial and final ones).
    Raises ``BlowUpError`` with the offending time if the state leaves the
    finite floats.  One run of ``_rk4_rows``.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    return _rk4_rows(field, [(x0, step, t_end, 0.0, record_every)], target)[0].trace
