import math
import warnings

import numpy as np
import pytest

from sobolev_lab.exceptions import BlowUpError
from sobolev_lab.ode import _rk4_rows, _rk4_step, _schedule, _v, rk4_integrate


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
    # (t_end / step).astype(int64) is INT64_MIN for 1e300 steps; such a run
    # would integrate nothing, so the schedule refuses every count >= 2**53
    assert _schedule(1.0, 2.0**53 - 1.0)[0] == 2**53 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step, t_end in ((1.0, 2.0**53), (1e-300, 1.0), (1e-10, 1e308),
                            (np.array([1e-3, 1e-300]), np.array([1.0, 120.0]))):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                _schedule(step, t_end)
        with pytest.raises(ValueError):
            rk4_integrate(lambda x: -x, np.array([1.0]), 1e-300, 1.0, np.zeros(1))


def _reference_rows(field, runs, target):
    """The loop's rules written out plainly: every step recomputes which rows
    step, their step sizes, the merge and the stop-radius test."""
    target = np.asarray(target, dtype=float)
    starts = [np.array(r[0], dtype=float) for r in runs]
    s = np.concatenate(starts)
    rows = s.shape[:-1]
    sizes = [x[..., 0].size for x in starts]
    bounds = np.cumsum([0] + sizes)
    cut = (lambda x, j: x) if len(runs) == 1 else (lambda x, j: x[bounds[j]:bounds[j + 1]])
    per_row = [np.repeat([r[q] for r in runs], sizes).astype(float).reshape(rows) for q in (1, 2, 3)]
    step, t_end, thresh = per_row
    n_full, rem = _schedule(step, t_end)
    n_steps = n_full + (rem > 0.0)
    t = np.zeros(rows)
    crossed = np.full(rows, np.nan)
    done = (thresh > 0.0) & (_v(s, target) < thresh * thresh)
    crossed[done] = 0.0
    records = {j: [(0.0, starts[j])] for j, r in enumerate(runs) if r[4]}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(int(n_steps.max())):
            stepping = ~done & (i < n_steps)
            if not stepping.any():
                break
            h = np.where(stepping, np.where(i < n_full, step, rem), 0.0)
            new = _rk4_step(field, s, h[..., None])
            t += h
            finite = np.isfinite(new).all(axis=-1)
            blown = stepping & ~finite
            if (blown & (thresh == 0.0)).any():
                t_blow = t[blown & (thresh == 0.0)].min()
                raise BlowUpError(f"trajectory blew up at t={t_blow:.6g}", time=float(t_blow))
            stepping = stepping & finite
            done = done | blown
            s = np.where(stepping[..., None], new, s)
            hit = stepping & (_v(s, target) < thresh * thresh)
            crossed[hit] = t[hit]
            done = done | hit
            for j in records:
                n, every = n_steps.flat[bounds[j]], runs[j][4]
                if i < n and ((i + 1) % every == 0 or i == n - 1):
                    records[j].append((t.flat[bounds[j]], cut(s, j).copy()))
    return [(cut(s, j), _v(cut(s, j), target), cut(crossed, j),
             None if j not in records else (np.array([a for a, _ in records[j]]),
                                            np.array([b for _, b in records[j]])))
            for j in range(len(runs))]


def _assert_rows_match_reference(field, runs, target):
    got = _rk4_rows(field, runs, target)
    want = _reference_rows(field, runs, target)
    assert len(got) == len(want)
    for run, (final, final_v, crossed, trace) in zip(got, want):
        assert np.array_equal(run.final, final)
        assert np.array_equal(run.final_v, final_v)
        assert np.array_equal(run.crossed, crossed, equal_nan=True)
        if trace is None:
            assert run.trace is None
        else:
            assert np.array_equal(run.trace.times, trace[0])
            assert np.array_equal(run.trace.states, trace[1])
    return got


def test_rk4_rows_match_a_plain_reference_loop_bitwise():
    def field(x):  # nonlinear, row by row
        return -x + 0.3 * np.sin(x[..., ::-1]) * x

    rng = np.random.default_rng(12)
    a, b, c = (rng.uniform(-1.0, 1.0, (m, 2)) for m in (3, 2, 4))
    target = np.zeros(2)
    # steps and horizons whose short last steps fall at steps 10, 7 and 6
    _assert_rows_match_reference(field, [(a, 0.1, 1.05, 0.0, 0), (b, 0.07, 0.5, 0.0, 3),
                                         (c, 0.13, 0.8, 0.0, 0)], target)
    # threshold rows cross at different steps while a fixed-horizon run and a
    # recorded run keep stepping; one threshold row starts within its radius
    starts = np.concatenate([rng.uniform(0.2, 1.5, (5, 2)), [[1e-3, 0.0]]])
    got = _assert_rows_match_reference(
        lambda x: -x, [(starts, 0.01, 4.0, 0.1, 0), (a, 0.02, 1.01, 0.0, 0),
                       (b, 0.01, 0.5, 0.0, 7)], target)
    crossed = got[0].crossed
    assert crossed[-1] == 0.0 and np.unique(crossed[:-1]).size == 5 and np.isfinite(crossed).all()
    # stop-radius rows that leave the finite floats stop; the others continue
    grow = [(np.array([[3.0, 3.0], [0.5, 0.2]]), 0.05, 2.0, 1e-3, 0),
            (np.array([[-1.0, -2.0]]), 0.05, 2.0, 0.0, 4)]
    got = _assert_rows_match_reference(lambda x: x * x, grow, target)
    assert np.isnan(got[0].crossed).all() and np.isfinite(got[0].final).all()
    # ... and a row without one raises at the same time in both loops
    grow[0] = (np.array([[2.0, 1.0]]), 0.05, 2.0, 0.0, 0)
    with pytest.raises(BlowUpError) as exc:
        _rk4_rows(lambda x: x * x, grow, target)
    with pytest.raises(BlowUpError) as ref:
        _reference_rows(lambda x: x * x, grow, target)
    assert exc.value.time == ref.value.time
    # a lone (d,) state, recorded, with a short last step
    _assert_rows_match_reference(field, [(np.array([0.7, -0.4]), 0.03, 1.0, 0.0, 5)], target)
