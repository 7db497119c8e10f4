import math

import numpy as np
import pytest

from sobolev_lab.exceptions import BlowUpError
from sobolev_lab.ode import rk4_integrate


def test_exponential_decay_matches_closed_form():
    trace = rk4_integrate(lambda x: -x, np.array([1.0]), 1e-3, 1.0, np.zeros(1))
    assert abs(trace.final_state[0] - math.exp(-1.0)) <= 1e-9  # 0.3678794...
    assert trace.times[0] == 0.0
    assert np.all(np.diff(trace.times) > 0)


def test_double_rate_squares_the_decay():
    trace = rk4_integrate(lambda x: -2.0 * x, np.array([1.0]), 1e-3, 1.0, np.zeros(1))
    assert abs(trace.final_state[0] - math.exp(-2.0)) <= 1e-8  # 0.1353353...


def test_zero_field_is_constant():
    x0 = np.array([1.5, -2.0])
    trace = rk4_integrate(lambda x: np.zeros_like(x), x0, 0.1, 1.0, np.zeros(2))
    assert np.all(trace.states == x0)
    assert np.all(trace.v_values == float(x0 @ x0))


def test_v_values_track_squared_distance_to_target():
    target = np.array([2.0, 0.0])
    trace = rk4_integrate(lambda x: -(x - target), np.array([0.0, 0.0]), 1e-2, 2.0, target)
    d = trace.states - target
    assert np.allclose(trace.v_values, np.sum(d * d, axis=-1), atol=0)


def test_fourth_order_convergence():
    # global error on x' = -x should drop ~16x per halving; accept [12, 20]
    def err(h):
        t = rk4_integrate(lambda x: -x, np.array([1.0]), h, 1.0, np.zeros(1))
        return abs(t.final_state[0] - math.exp(-1.0))

    ratio = err(0.1) / err(0.05)
    assert 12.0 <= ratio <= 20.0


def test_stacked_states_integrate_rowwise():
    x0 = np.array([[1.0], [2.0], [3.0]])
    trace = rk4_integrate(lambda x: -x, x0, 1e-3, 1.0, np.zeros(1))
    assert trace.final_state == pytest.approx(x0 * math.exp(-1.0), abs=1e-8)
    assert trace.v_values.shape == (len(trace.times), 3)


def test_partial_final_step_hits_t_end():
    trace = rk4_integrate(lambda x: -x, np.array([1.0]), 0.3, 1.0, np.zeros(1))
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(trace.final_state[0] - math.exp(-1.0)) <= 1e-4


def test_blowup_reports_time():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as exc:
            rk4_integrate(lambda x: x * x, np.array([1.0]), 0.05, 5.0, np.zeros(1))
    assert 0.0 < exc.value.time <= 5.0


def test_validates_step_arguments():
    with pytest.raises(ValueError):
        rk4_integrate(lambda x: -x, np.array([1.0]), 0.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError):
        rk4_integrate(lambda x: -x, np.array([1.0]), 2.0, 1.0, np.zeros(1))
    # a horizon or step that is not a finite float is a bad argument, not an overflow
    for step, t_end in ((1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            rk4_integrate(lambda x: -x, np.array([1.0]), step, t_end, np.zeros(1))
