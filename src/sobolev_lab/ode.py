"""Classic fixed-step fourth-order Runge-Kutta for the gradient flows.

Fixed step (no adaptivity) keeps traces bit-reproducible for regression
tests.  States may be a single vector ``(d,)`` or a stack ``(m, d)`` of
independent trajectories sharing the same field; the error tracking
``v = ||state - target||^2`` is taken along the last axis either way.
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
    n_full, rem = _schedule(step, t_end)
    n_full, rem = int(n_full), float(rem)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    x = np.array(x0, dtype=float)
    target = np.asarray(target, dtype=float)

    times = [0.0]
    states = [x.copy()]
    t = 0.0
    for i in range(n_full + (1 if rem else 0)):
        h = step if i < n_full else rem
        x = _rk4_step(field, x, h)
        t += h
        if not np.all(np.isfinite(x)):
            raise BlowUpError(f"trajectory blew up at t={t:.6g}", time=t)
        if (i + 1) % record_every == 0 or i == n_full + (1 if rem else 0) - 1:
            times.append(t)
            states.append(x.copy())

    times_arr = np.asarray(times)
    states_arr = np.asarray(states)
    return FlowTrace(
        times=times_arr,
        states=states_arr,
        v_values=_v(states_arr, target),
        target=target,
    )
