"""Contract of the Dormand-Prince solver, independent of the geodesic flows."""

import math

import numpy as np
import pytest

from osclab import ode


def decay(t, y):
    return -y


class Counted:
    """A right-hand side that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t, y):
        self.calls += 1
        return self.f(t, y)


class TestStopping:
    @pytest.mark.parametrize("t_span", [(0.5, 0.5 + 2e-14), (1.0, 1.0 - 5e-14)])
    def test_span_shorter_than_h_min_lands_on_its_end(self, t_span):
        res = ode.solve_rk45(decay, t_span, np.array([1.0]))
        assert res.status == ode.COMPLETED
        assert res.ts.tolist() == list(t_span) and res.n_steps == 1

    def test_backward_integration(self):
        res = ode.solve_rk45(decay, (0.0, -1.0), np.array([1.0]))
        assert res.status == ode.COMPLETED
        assert np.all(np.diff(res.ts) < 0)
        assert res.ts[-1] == -1.0
        assert abs(res.ys[-1, 0] - math.e) <= 1e-9 * math.e

    def test_zero_span_returns_the_initial_state_without_stepping(self):
        f = Counted(decay)
        res = ode.solve_rk45(f, (2.0, 2.0), np.array([1.0, -3.0]))
        assert res.status == ode.COMPLETED
        assert res.ts.tolist() == [2.0] and res.ys.tolist() == [[1.0, -3.0]]
        assert (res.n_steps, res.n_rejected, f.calls) == (0, 0, 0)

    def test_step_budget_raises(self):
        with pytest.raises(RuntimeError, match="step budget 5 exhausted"):
            ode.solve_rk45(decay, (0.0, 100.0), np.array([1.0]), max_steps=5)

    def test_non_finite_growth_is_a_blowup(self):
        # Without a threshold or a step floor, y' = y^2 runs until the state
        # overflows next to its pole at t = 1.
        with np.errstate(over="ignore", invalid="ignore"):
            res = ode.solve_rk45(lambda t, y: y * y, (0.0, 2.0), np.array([1.0]),
                                 rtol=1e-6, atol=1e-8, h_min=0.0,
                                 blowup_threshold=math.inf)
        assert res.status == ode.BLOWUP
        assert "left the finite range" in res.message
        assert abs(res.t_detected - 1.0) < 1e-6
        assert np.all(np.isfinite(res.ys))

    def test_underflow_with_growing_norm_is_reported(self):
        res = ode.solve_rk45(lambda t, y: y ** 3, (0.0, 2.0), np.array([1.0]),
                             blowup_threshold=math.inf)
        assert res.status == ode.STEP_UNDERFLOW
        assert abs(res.t_detected - 0.5) < 1e-6

    def test_underflow_without_norm_growth_raises(self):
        def kicked(t, y):  # smooth decay, then a forcing no step above h_min resolves
            return -y if t < 1.0 else -y + 1e8 * np.cos(1e9 * t)
        with pytest.raises(RuntimeError, match="without norm growth"):
            ode.solve_rk45(kicked, (0.0, 2.0), np.array([1.0]), h_min=1e-6)


class TestWork:
    def test_six_rhs_calls_per_attempted_step(self):
        # Two calls choose the first step; every attempt, accepted or
        # rejected, then costs six (the seventh stage is reused, FSAL).
        f = Counted(lambda t, y: y * y)
        res = ode.solve_rk45(f, (0.0, 0.99), np.array([1.0]), rtol=1e-6, atol=1e-8)
        assert res.status == ode.COMPLETED and res.n_rejected > 0
        assert f.calls == 2 + 6 * (res.n_steps + res.n_rejected)

    def test_samples_are_one_per_accepted_step(self):
        res = ode.solve_rk45(decay, (0.0, 3.0), np.array([1.0, 2.0]))
        assert res.ts.shape == (res.n_steps + 1,)
        assert res.ys.shape == (res.n_steps + 1, 2)
        assert not np.shares_memory(res.ys[0], res.ys[1])


class TestInputGuards:
    @pytest.mark.parametrize("rtol, atol", [(-1e-10, 1e-12), (1e-10, -1e-12),
                                            (0.0, 0.0), (math.nan, 1e-12)])
    def test_bad_tolerances(self, rtol, atol):
        f = Counted(decay)
        with pytest.raises(ode.SolverInputError, match="tolerance|rtol"):
            ode.solve_rk45(f, (0.0, 1.0), np.array([1.0]), rtol=rtol, atol=atol)
        assert f.calls == 0

    @pytest.mark.parametrize("t_span", [(0.0, math.nan), (0.0, math.inf),
                                        (-math.inf, 0.0), (math.nan, math.nan)])
    def test_non_finite_time_span(self, t_span):
        f = Counted(decay)
        with pytest.raises(ode.SolverInputError, match="time span"):
            ode.solve_rk45(f, t_span, np.array([1.0]))
        assert f.calls == 0

    @pytest.mark.parametrize("y0", [[math.nan, 0.0], [0.0, math.inf]])
    def test_non_finite_initial_state(self, y0):
        with pytest.raises(ode.SolverInputError, match="initial state"):
            ode.solve_rk45(decay, (0.0, 1.0), np.array(y0))

    def test_input_errors_are_value_errors(self):
        assert issubclass(ode.SolverInputError, ValueError)

    def test_one_zero_tolerance_is_allowed(self):
        for rtol, atol in ((0.0, 1e-12), (1e-10, 0.0)):
            res = ode.solve_rk45(decay, (0.0, 1.0), np.array([1.0]), rtol=rtol, atol=atol)
            assert res.status == ode.COMPLETED
