import math
import warnings

import numpy as np
import pytest

from sobolev_lab.exceptions import BlowUpError
from sobolev_lab.ode import _dp45_rows, _rk4_step, _schedule, rk4_integrate


def test_exponential_decay_matches_closed_form():
    trace = rk4_integrate(lambda x: -x, np.array([1.0]), 1e-3, 1.0, np.zeros(1))
    assert abs(trace.states[-1][0] - math.exp(-1.0)) <= 1e-9  # 0.3678794...
    assert trace.times[0] == 0.0
    assert np.all(np.diff(trace.times) > 0)


def test_double_rate_squares_the_decay():
    trace = rk4_integrate(lambda x: -2.0 * x, np.array([1.0]), 1e-3, 1.0, np.zeros(1))
    assert abs(trace.states[-1][0] - math.exp(-2.0)) <= 1e-8  # 0.1353353...


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
        return abs(t.states[-1][0] - math.exp(-1.0))

    ratio = err(0.1) / err(0.05)
    assert 12.0 <= ratio <= 20.0


def test_stacked_states_integrate_rowwise():
    x0 = np.array([[1.0], [2.0], [3.0]])
    trace = rk4_integrate(lambda x: -x, x0, 1e-3, 1.0, np.zeros(1))
    assert trace.states[-1] == pytest.approx(x0 * math.exp(-1.0), abs=1e-8)
    assert trace.v_values.shape == (len(trace.times), 3)


def test_partial_final_step_hits_t_end():
    trace = rk4_integrate(lambda x: -x, np.array([1.0]), 0.3, 1.0, np.zeros(1))
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(trace.states[-1][0] - math.exp(-1.0)) <= 1e-4


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
    with pytest.raises(ValueError):
        rk4_integrate(lambda x: -x, np.array([1.0]), 1e-3, 1.0, np.zeros(1), record_every=0)
    # a horizon or step that is not a finite float is a bad argument, not an overflow
    for step, t_end in ((1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            rk4_integrate(lambda x: -x, np.array([1.0]), step, t_end, np.zeros(1))


def test_single_state_field_sees_single_states_and_one_step_records_two():
    shapes = set()

    def field(x):
        shapes.add(x.shape)
        return -x

    trace = rk4_integrate(field, np.array([1.0, 2.0]), 0.3, 1.0, np.zeros(2))
    assert shapes == {(2,)}
    assert trace.states.shape == (len(trace.times), 2)
    # one step over 100 stacked rows: the initial and the final state
    x0 = np.linspace(0.0, 1.0, 200).reshape(100, 2)
    trace = rk4_integrate(lambda x: -x, x0, 1e-3, 1e-3, np.zeros(2))
    assert trace.times.tolist() == [0.0, 1e-3]
    assert trace.states.shape == (2, 100, 2)


def test_step_counts_beyond_exact_floats_are_rejected():
    # a count of 1e300 steps is no int64, and a float count >= 2**53 is no
    # longer exact, so the schedule refuses every count >= 2**53
    assert _schedule(1.0, 2.0**53 - 1.0) == (2**53 - 1, 0.0)
    n_full, rem = _schedule(0.3, 1.0)
    assert type(n_full) is int and type(rem) is float and n_full == 3
    assert rem == 1.0 - 3 * 0.3
    assert _schedule(np.float64(0.25), 1.0) == (4, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step, t_end in ((1.0, 2.0**53), (1e-300, 1.0), (1e-10, 1e308), (5e-324, 1.0)):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                _schedule(step, t_end)
        with pytest.raises(ValueError):
            rk4_integrate(lambda x: -x, np.array([1.0]), 1e-300, 1.0, np.zeros(1))


def _field(x):  # nonlinear, row by row
    return -x + 0.3 * np.sin(x[..., ::-1]) * x


def test_rk4_rows_match_a_plain_reference_loop_bitwise():
    # the stacked rows of a recorded run with a short last step are each a
    # plain loop of RK4 steps from their own start
    x0 = np.random.default_rng(12).uniform(-1.0, 1.0, (4, 2))
    trace = rk4_integrate(_field, x0, 0.07, 0.5, np.zeros(2), record_every=3)
    for row in range(4):
        s, t, times, states = x0[row], 0.0, [0.0], [x0[row]]
        for i, h in enumerate([0.07] * 7 + [0.5 - 7 * 0.07]):
            s = _rk4_step(_field, s, h)
            t += h
            if (i + 1) % 3 == 0 or i == 7:
                times.append(t)
                states.append(s)
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.states[:, row], states)


# --------------------------------------------------------------------------
# the Dormand-Prince 5(4) loop


def test_dp45_decay_records_and_crossings_match_the_exponential():
    # x' = -x: x(t) = e^-t x0, and |x| first comes within r at t = ln(|x0| / r)
    x0 = np.array([[1.0, 0.5], [-3.0, 2.0], [0.4, 0.1], [2.5, -0.3]])
    r = 0.05
    crossing, recorded = _dp45_rows(lambda x: -x, [(x0, 4.0, r, 0.0), (x0, 4.0, 0.0, 0.01)],
                                    np.zeros(2))
    want = np.log(np.linalg.norm(x0, axis=1) / r)
    assert want[1] > 4.0 and np.isnan(crossing.crossed[1])  # it gave up at the horizon
    keep = want < 4.0
    assert np.abs(crossing.crossed[keep] / want[keep] - 1.0).max() <= 1e-9
    trace = recorded.trace
    assert np.array_equal(trace.times[:3], [0.0, 0.01, 0.02]) and trace.times[-1] == 4.0
    assert trace.times.size == 401 and np.array_equal(trace.states[-1], recorded.final)
    assert np.abs(trace.states / (np.exp(-trace.times)[:, None, None] * x0) - 1.0).max() <= 1e-9
    # a horizon that is not a grid multiple is the last record
    (short,) = _dp45_rows(lambda x: -x, [(x0, 0.0375, 0.0, 0.01)], np.zeros(2))
    assert short.trace.times.tolist() == [0.0, 0.01, 0.02, 0.03, 0.0375]


def test_dp45_blow_up_raises_or_gives_up():
    # x' = x^2 from x0 > 0 blows up at t = 1/x0.  A row without a stop radius
    # raises there; a row with one gives up with nan while the others finish
    with pytest.raises(BlowUpError) as exc:
        _dp45_rows(lambda x: x * x, [(np.array([[0.5], [2.0]]), 5.0, 0.0, 0.0)], np.zeros(1))
    assert exc.value.time == pytest.approx(0.5, rel=1e-9)
    runs = [(np.array([[2.0], [-1.0]]), 3.0, 1e-3, 0.0), (np.array([[0.25]]), 3.0, 0.0, 0.5)]
    gave_up, finished = _dp45_rows(lambda x: x * x, runs, np.zeros(1))
    assert np.isnan(gave_up.crossed[0]) and gave_up.final[0, 0] > 1e6
    # x(t) = x0 / (1 - x0 t) for the rows that finish
    assert gave_up.final[1, 0] == pytest.approx(-1.0 / 4.0, rel=1e-9)
    assert finished.trace.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert finished.trace.states[:, 0, 0] == pytest.approx(
        0.25 / (1.0 - 0.25 * finished.trace.times), rel=1e-9)


def _assert_stacked_rows_are_lone_runs(field, runs, target):
    stacked = _dp45_rows(field, runs, target)
    for run, got in zip(runs, stacked):
        for row in range(run[0].shape[0]):
            (alone,) = _dp45_rows(field, [(run[0][row:row + 1], *run[1:])], target)
            assert np.array_equal(got.final[row], alone.final[0])
            assert np.array_equal(got.final_v[row], alone.final_v[0])
            assert np.array_equal(got.crossed[row], alone.crossed[0], equal_nan=True)
            if run[3]:
                assert np.array_equal(got.trace.times, alone.trace.times)
                assert np.array_equal(got.trace.states[:, row], alone.trace.states[:, 0])
            else:
                assert got.trace is None
    return stacked


def test_dp45_stacked_rows_are_their_lone_runs_bitwise():
    # every row has its own step controller, so its steps do not depend on
    # the rows stacked with it: mixed horizons, stop radii (one row starts
    # within), recorded grids, and rows that give up next to rows that finish
    rng = np.random.default_rng(12)
    a, b, c = (rng.uniform(-1.0, 1.0, (m, 2)) for m in (3, 2, 4))
    starts = np.concatenate([rng.uniform(0.2, 1.5, (5, 2)), [[1e-3, 0.0]]])
    got = _assert_stacked_rows_are_lone_runs(
        _field, [(a, 1.05, 0.0, 0.0), (starts, 4.0, 0.1, 0.0), (b, 0.5, 0.0, 0.07),
                 (c, 2.3, 0.0, 0.3)], np.zeros(2))
    crossed = got[1].crossed
    assert crossed[-1] == 0.0 and np.array_equal(got[1].final[-1], starts[-1])
    assert np.unique(crossed[:-1]).size == 5 and np.isfinite(crossed).all()
    grow = [(np.array([[3.0, 3.0], [0.5, 0.2]]), 2.0, 1e-3, 0.0),
            (np.array([[-1.0, -2.0], [0.1, 0.3]]), 2.0, 0.0, 0.25)]
    got = _assert_stacked_rows_are_lone_runs(lambda x: x * x, grow, np.zeros(2))
    assert np.isnan(got[0].crossed).all() and np.isfinite(got[0].final).all()


def test_dp45_validates_its_runs():
    x0 = np.array([[1.0]])
    for bad in ((x0, math.inf, 0.0, 0.0), (x0, math.nan, 0.0, 0.0), (x0, 0.0, 0.0, 0.0),
                (x0, 1.0, -0.1, 0.0), (x0, 1.0, math.nan, 0.0), (x0, 1.0, 0.0, -0.1),
                (x0, 1.0, 0.1, 0.1), (np.array([1.0]), 1.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            _dp45_rows(lambda x: -x, [bad], np.zeros(1))
