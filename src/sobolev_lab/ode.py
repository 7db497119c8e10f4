"""Integrators for the gradient flows: an adaptive Dormand-Prince 5(4) pair and fixed-step RK4.

``_dp45_rows`` is the Dormand-Prince 5(4) pair with one error controller per
row and dense output (Dormand & Prince 1980; Hairer, Norsett & Wanner,
*Solving ODEs I*, II.4-II.6).  It integrates several runs of rows as one
stacked ensemble, each run with its own horizon, stop radius and recorded
time grid, and every experiment flow goes through it: ``flow`` and
``relusq`` hand it their plane ensembles as one recorded run each, and
``multinode.planar_flows`` hands it every planar run at once.
``rk4_integrate`` is classic fixed-step fourth-order Runge-Kutta; no
experiment calls it, and it serves as the fixed-step reference of the tests
and of perfbench's one-step probe.

Both are deterministic.  The step controller has fixed constants, and each
row carries its own step size, error norm and step history.  No operation
reduces across rows: the stages are explicit scaled sums of per-row arrays,
as in ``_rk4_step``, and every norm is taken along a row's own components.
So a row comes out bit for bit as in a run of its own, whatever its stack.
States are stacks ``(m, d)`` of independent trajectories sharing the same
field (``rk4_integrate`` also takes a single vector ``(d,)``); the error
tracking ``v = ||state - target||^2`` is taken along the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import BlowUpError


@dataclass(frozen=True)
class FlowTrace:
    """Recorded trajectory of a flow integration.

    ``times`` is strictly increasing and starts at 0.  ``states[i]`` is the
    state at ``times[i]`` and ``v_values[i]`` its squared distance to the
    flow's target (per trajectory row for stacked states).
    """

    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray


@dataclass(frozen=True)
class FlowRun:
    """What the stacked adaptive loop gives back for one run of rows.

    ``final`` holds each row's state where it stopped and ``final_v`` its
    squared distance to the target, ``crossed`` its first time within the
    run's stop radius (nan for a row that never got there, or that blew up
    first), and ``trace`` the recorded states of a recorded run (None
    otherwise).
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


def _schedule(step: float, t_end: float) -> tuple[int, float]:
    """Full steps and short last step (n_full, rem) of a run of ``step`` up to ``t_end``.

    Both must be finite with 0 < step <= t_end, and t_end / step must be
    below 2**53, where step counts are still exact floats.  ``rem`` is 0
    when ``t_end`` is a step multiple up to 1e-9 of a step.
    """
    step, t_end = float(step), float(t_end)
    if not (math.isfinite(step) and math.isfinite(t_end)):
        raise ValueError("step and t_end must be finite")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t_end <= 0.0 or step > t_end * (1.0 + 1e-12):
        raise ValueError("need 0 < step <= t_end")
    ratio = t_end / step
    if not ratio < 2.0**53:
        raise ValueError("step too small for t_end: need t_end / step < 2**53")
    n_full = int(ratio)
    rem = t_end - n_full * step
    return n_full, (0.0 if rem < step * 1e-9 else rem)


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
    finite floats.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_full, rem = _schedule(step, t_end)
    step = float(step)
    n_steps = n_full + (rem > 0.0)
    target = np.array(target, dtype=float)
    s = np.array(x0, dtype=float)
    t = 0.0
    times, states = [t], [s]
    # a state that leaves the finite floats is caught below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            h = step if i < n_full else rem
            s = _rk4_step(field, s, h)
            t += h
            if not np.isfinite(s).all():
                raise BlowUpError(f"trajectory blew up at t={t:.6g}", time=t)
            if (i + 1) % record_every == 0 or i == n_steps - 1:
                times.append(t)
                states.append(s)
    states = np.array(states)
    return FlowTrace(times=np.array(times), states=states, v_values=_v(states, target))


# --------------------------------------------------------------------------
# Dormand-Prince 5(4) with one step controller per row

# Butcher rows of stages 2..6, the fifth-order weights (FSAL: stage 7 is the
# field at the new state), the error weights (fifth- minus fourth-order) and
# the weights of the fourth-order continuous extension's last term (Hairer,
# Norsett & Wanner, Solving ODEs I, Table II.5.2 and II.6).
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)
_RTOL = 1e-10
_ATOL = 1e-12
_FIRST_STEP = 1e-3
_SAFETY = 0.9
_MIN_FACTOR, _MAX_FACTOR = 0.2, 5.0
_BISECTIONS = 52  # halvings of a step's [0, 1] that locate a crossing to a float's resolution


def _combo(weights, ks):
    """sum_i weights[i] * ks[i] as explicit scaled sums (zero weights skipped)."""
    out = None
    for w, k in zip(weights, ks):
        if w:
            out = w * k if out is None else out + w * k
    return out


def _dp_trial(field, y, k1, h):
    """One Dormand-Prince trial step of sizes ``h`` (m, 1) from ``y`` with
    k1 = field(y): the fifth-order state and the seven stages, the last of
    which is the field at that state."""
    ks = [k1]
    for a in _DP_A:
        ks.append(field(y + h * _combo(a, ks)))
    y1 = y + h * _combo(_DP_B, ks)
    ks.append(field(y1))
    return y1, ks


def _dense(y, y1, ks, h):
    """Coefficients of the step's fourth-order continuous extension (rows of
    y, y1, the stages and h picked by the caller)."""
    dy = y1 - y
    slope0 = h * ks[0] - dy
    return y, dy, slope0, dy - h * ks[6] - slope0, h * _combo(_DP_D, ks)


def _interpolate(coef, theta):
    """The continuous extension at the step fractions ``theta`` (broadcast against the state)."""
    r1, r2, r3, r4, r5 = coef
    return r1 + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))


def _record_times(t_end: float, dt: float) -> np.ndarray:
    """A recorded run's grid: t = dt * i below ``t_end`` (up to 1e-9 of dt), then ``t_end``."""
    grid = dt * np.arange(1, int(np.ceil(t_end / dt - 1e-9)))
    return np.append(grid, t_end)


def _crossing(y, y1, ks, hh, t, t_new, thresh2, target, hit):
    """First times within the stop radius of the ``hit`` rows, which were
    outside at the step's start and are inside at its end: bisection of
    v(theta) - thresh^2 on each row's continuous extension."""
    coef = _dense(y[hit], y1[hit], [k[hit] for k in ks], hh[hit][:, None])
    lo = np.zeros(int(hit.sum()))
    hi = np.ones_like(lo)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        inside = _v(_interpolate(coef, mid[:, None]), target) < thresh2[hit]
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return np.where(hi == 1.0, t_new[hit], t[hit] + hi * hh[hit])


def _dp45_rows(field: Callable[[np.ndarray], np.ndarray], runs: list[tuple],
               target: np.ndarray) -> list[FlowRun]:
    """The adaptive loop: integrate every run as one stacked ensemble; one ``FlowRun`` per run.

    Each run is (starts, t_end, thresh, record_dt) with starts (m, d).  Each
    row steps up to its run's horizon ``t_end``, or until it comes within
    ``thresh`` > 0 of ``target``; its crossing time is found by bisection on
    the step's continuous extension, and a row that starts within crosses
    at t = 0 and takes no step.  A run with ``record_dt`` > 0 records its
    states at t = record_dt * i and at ``t_end`` from the continuous
    extension (the last one is the final state itself): in each iteration
    one extension over every row whose accepted step passed a grid time,
    evaluated once per grid index pending in any of those rows.

    Each row has its own step size, starting at ``_FIRST_STEP``.  A trial
    step passes when the RMS over the row's components of
    err / (``_ATOL`` + ``_RTOL`` max(|y0|, |y1|)) is at most 1; a state or
    error that is not finite fails it.  Either way the next step is scaled
    by ``_SAFETY`` err**(-1/5) clipped to [0.2, 5], with no growth right
    after a failure.  A failed row retries while the other rows
    advance.  A row whose step no longer moves its time has blown up: a row
    without a stop radius raises ``BlowUpError`` at the earliest such time
    of the iteration that found it, and a row with one gives up (nan
    crossing, last accepted state).  The loop lasts until every row is
    done; a done row takes steps of size 0, so it keeps its state bit for
    bit.
    """
    target = np.array(target, dtype=float)
    starts = [np.array(r[0], dtype=float) for r in runs]
    if any(x.ndim != 2 for x in starts):
        raise ValueError("starts must have shape (m, d)")
    params = np.array([r[1:4] for r in runs], dtype=float)  # t_end, thresh, record_dt
    if not (np.isfinite(params).all() and (params[:, 0] > 0.0).all()
            and (params[:, 1:] >= 0.0).all()):
        raise ValueError("need a finite t_end > 0 and finite thresh, record_dt >= 0")
    if ((params[:, 1] > 0.0) & (params[:, 2] > 0.0)).any():
        raise ValueError("a recorded run cannot stop at a threshold")
    sizes = [x.shape[0] for x in starts]
    bounds = np.cumsum([0] + sizes)
    t_end, thresh, _ = np.repeat(params, sizes, axis=0).T
    stops = thresh > 0.0
    thresh2 = thresh * thresh

    # every run's grid (empty when not recorded), each followed by inf, in one
    # array, so a row's next record time is grid_inf[grid_at + filled]; record
    # i of a row (i = 0 at t = 0) is records[rec_at + i * rec_stride], so a
    # run's records are one contiguous (grid + 1, m, d) block
    grids = [_record_times(r[1], r[3]) if r[3] > 0.0 else np.empty(0) for r in runs]
    n_rec = [g.size + 1 for g in grids]
    grid_inf = np.concatenate([np.append(g, np.inf) for g in grids])
    grid_at = np.repeat(np.cumsum([0] + n_rec)[:-1], sizes)
    rec_base = np.cumsum([0] + [n * m for n, m in zip(n_rec, sizes)])
    rec_at = np.repeat(rec_base[:-1] - bounds[:-1], sizes) + np.arange(bounds[-1])
    rec_stride = np.repeat(sizes, sizes)
    filled = np.zeros(bounds[-1], dtype=np.int64)  # records a row has passed, t = 0 not counted
    next_record = grid_inf[grid_at]

    y = np.concatenate(starts)
    records = np.empty((rec_base[-1], y.shape[1]))
    records[rec_at] = y
    t = np.zeros(y.shape[0])
    h = np.full(y.shape[0], _FIRST_STEP)
    failed = np.zeros(y.shape[0], dtype=bool)  # the row's last trial step failed
    crossed = np.full(y.shape[0], np.nan)
    # a trial step that leaves the finite floats fails below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        done = stops & (_v(y, target) < thresh2)  # within its stop radius from the start
        crossed[done] = 0.0
        k1 = field(y)
        while not done.all():
            hh = np.where(done, 0.0, np.minimum(h, t_end - t))
            blown = ~done & (t + hh == t)
            if blown.any():
                if (blown & ~stops).any():
                    t_blow = t[blown & ~stops].min()
                    raise BlowUpError(f"trajectory blew up at t={t_blow:.6g}",
                                      time=float(t_blow))
                done |= blown
                hh[blown] = 0.0
            y1, ks = _dp_trial(field, y, k1, hh[:, None])
            scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y1))
            err = np.sqrt(np.mean((hh[:, None] * _combo(_DP_E, ks) / scale) ** 2, axis=-1))
            err[~(np.isfinite(y1).all(axis=-1) & (err < np.inf))] = np.inf
            factor = np.clip(_SAFETY * err ** -0.2, _MIN_FACTOR, _MAX_FACTOR)
            ok = ~done & (err <= 1.0)
            h = np.where(done, h, hh * np.where(ok & failed, np.minimum(factor, 1.0), factor))
            failed = ~done & ~ok
            if not ok.any():
                continue
            last = ok & (hh == t_end - t)
            t_new = np.where(last, t_end, t + hh)

            hit = ok & stops & (_v(y1, target) < thresh2)
            if hit.any():
                crossed[hit] = _crossing(y, y1, ks, hh, t, t_new, thresh2, target, hit)
            due = np.flatnonzero(ok & (next_record <= t_new))
            if due.size:  # one pass per record index the due rows' steps passed
                coef = _dense(y[due], y1[due], [k[due] for k in ks], hh[due, None])
                pending = np.arange(due.size)
                while pending.size:
                    r = due[pending]
                    state = _interpolate([c[pending] for c in coef],
                                         ((next_record[r] - t[r]) / hh[r])[:, None])
                    end = next_record[r] == t_new[r]
                    state[end] = y1[r[end]]
                    filled[r] += 1
                    records[rec_at[r] + filled[r] * rec_stride[r]] = state
                    next_record[r] = grid_inf[grid_at[r] + filled[r]]
                    pending = pending[next_record[r] <= t_new[r]]

            y = np.where(ok[:, None], y1, y)
            k1 = np.where(ok[:, None], ks[6], k1)
            t = np.where(ok, t_new, t)
            done |= hit | last

    out = []
    for j in range(len(runs)):
        rows = slice(bounds[j], bounds[j + 1])
        trace = None
        if runs[j][3] > 0.0:
            states = records[rec_base[j]:rec_base[j + 1]].reshape(-1, sizes[j], y.shape[1])
            trace = FlowTrace(times=np.append(0.0, grids[j]), states=states, v_values=_v(states, target))
        out.append(FlowRun(y[rows], _v(y[rows], target), crossed[rows], trace))
    return out

