"""Contract of the DOP853 solver, independent of the geodesic flows."""

import math

import numpy as np
import pytest

from osclab import ode
from osclab.algebra import LambdaSpec
from osclab.flows import FlowProblem
from osclab.metrics import k_lambda, metric_from_iso, parse_sym_iso


def decay(t, y):
    return -y


def geodesic_rhs(descriptor):
    """The euler-form geodesic right-hand side of a metric on lambda = (1,)."""
    spec = LambdaSpec((1.0,))
    metric = metric_from_iso(k_lambda(spec), parse_sym_iso(spec, descriptor))
    return FlowProblem(metric, np.zeros(4), (0.0, 1.0)).rhs


class Counted:
    """A right-hand side that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t, y):
        self.calls += 1
        return self.f(t, y)


class TestTableau:
    def test_coefficients_equal_hairers_dop853(self):
        from scipy.integrate._ivp import dop853_coefficients as ref
        assert np.array_equal(ode._C, ref.C[:13])
        for i, row in enumerate(ode._A):
            assert np.array_equal(row, ref.A[i, :i])
        for ours, theirs in ((ode._A[12], ref.B), (ode._E5, ref.E5), (ode._E3, ref.E3)):
            assert np.array_equal(ours, theirs)

    def test_order_conditions_of_the_weights(self):
        # Rows 9 and 10 hold entries up to 43, whose rounded doubles sum
        # to c_i only within 1.8e-15: the bound scales with sum_j |a_ij|.
        for c, row in zip(ode._C, ode._A):
            assert abs(math.fsum(row) - c) <= 1e-15 * max(1.0, math.fsum(abs(row)))
        assert abs(math.fsum(ode._A[12]) - 1.0) <= 1e-15
        # Differences of two consistent weight vectors: each sums to zero.
        assert abs(math.fsum(ode._E5)) <= 1e-15 and abs(math.fsum(ode._E3)) <= 1e-15


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

    def test_step_budget_raises(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 5)
        with pytest.raises(RuntimeError, match="step budget 5 exhausted"):
            ode.solve_rk45(decay, (0.0, 100.0), np.array([1.0]))

    def test_non_finite_trial_is_a_rejected_step(self):
        # The dim-4 index-2 geodesic flow under tolerances of 1e52: trial
        # steps overflow, are rejected without a warning (RuntimeWarnings
        # are errors in this suite), and the smaller steps that follow cross
        # the threshold at an accepted step.  No singularity test is given,
        # so the crossing is unbounded growth.
        rhs = geodesic_rhs({"kind": "u2_dim4"})
        x0 = [4.13259793472436, -232.50307746388344, -21.87916639325457, -124.59109472530652]
        non_finite_inputs = []

        def f(t, y):
            if not np.all(np.isfinite(y)):
                non_finite_inputs.append(t)
            return rhs(t, y)
        res = ode.solve_rk45(f, (0.0, 10.0), np.array(x0), rtol=1e52, atol=1e52)
        assert len(non_finite_inputs) > 0 and res.n_rejected > 0
        assert res.status == ode.UNBOUNDED_GROWTH and res.t_detected is None
        assert np.max(np.abs(res.ys[-1])) > ode.BLOWUP_THRESHOLD
        assert np.all(np.isfinite(res.ys))

    def test_error_norm_whose_terms_underflow_to_zero(self):
        # Under tolerances of 1e158 a trial's scaled 5th-order error squares
        # to 0 and 0.01 times the 3rd-order one underflows to 0 as well: the
        # error is 0, not a ZeroDivisionError.
        rhs = geodesic_rhs({"kind": "diagonal_sym", "eta": [-0.3], "eta_check": [2.7],
                            "rho": 0.5})
        x0 = np.array([0.10669348670051791, 0.00476727312116796,
                       0.09166547888245957, 0.03709468350944103])
        res = ode.solve_rk45(rhs, (0.0, 1e6), x0, rtol=1e158, atol=1e158)
        assert res.status in (ode.COMPLETED, ode.UNBOUNDED_GROWTH, ode.STEP_UNDERFLOW)
        assert res.n_steps > 0 and np.all(np.isfinite(res.ys))

    def test_underflow_with_growing_norm_is_reported(self, monkeypatch):
        monkeypatch.setattr(ode, "BLOWUP_THRESHOLD", math.inf)
        res = ode.solve_rk45(lambda t, y: y ** 3, (0.0, 2.0), np.array([1.0]))
        assert res.status == ode.STEP_UNDERFLOW
        assert abs(res.t_detected - 0.5) < 1e-6

    def test_underflow_without_norm_growth_raises(self, monkeypatch):
        def kicked(t, y):  # smooth decay, then a forcing no step above H_MIN resolves
            return -y if t < 1.0 else -y + 1e8 * np.cos(1e9 * t)
        monkeypatch.setattr(ode, "H_MIN", 1e-6)
        with pytest.raises(RuntimeError, match="without norm growth") as caught:
            ode.solve_rk45(kicked, (0.0, 2.0), np.array([1.0]))
        assert isinstance(caught.value, ode.SolverRefusal)  # the class cli.main catches


def half_square(t, y):
    return 0.5 * y * y  # y(t) = 2 / (2/y0 - t): a pole at t = 2/y0


class TestSingularityTest:
    def test_called_at_the_first_state_past_each_decade(self):
        calls = []

        def never(t, y, direction):
            calls.append((t, direction))
            return None
        plain = ode.solve_rk45(half_square, (0.0, 8.0), np.array([2.0]))
        res = ode.solve_rk45(half_square, (0.0, 8.0), np.array([2.0]), singularity=never)
        # Without a located singularity the run crosses the threshold as
        # before, step for step: a decision only reads the state.
        assert res.status == plain.status == ode.UNBOUNDED_GROWTH
        assert res.t_detected is None
        assert np.array_equal(res.ts, plain.ts) and np.array_equal(res.ys, plain.ys)
        norms = np.abs(plain.ys[:, 0])
        first = sorted({int(np.argmax(norms > 10.0 ** j)) for j in range(2, 8)})
        assert calls == [(t, 1.0) for t in plain.ts[first].tolist()]
        assert len(calls) == 6

    def test_a_located_singularity_stops_the_run(self):
        calls = []

        def located(t, y, direction):
            calls.append(direction)
            return t + direction * 0.25
        # Backward from y(0) = -2: y(t) = -2 / (1 + t), a pole at t = -1.
        res = ode.solve_rk45(half_square, (0.0, -8.0), np.array([-2.0]),
                             singularity=located)
        assert calls == [-1.0]
        assert res.status == ode.BLOWUP and res.t_detected == res.ts[-1] - 0.25
        assert abs(res.ys[-1, 0]) > 1e2 and abs(res.ys[-2, 0]) <= 1e2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_singularity_past_the_span_end_is_no_stop(self, sign):
        # y(t) = 2 / (1 - t) passes 1e2 and 1e3 before t = 0.999; pole at t = 1.
        y0, span = np.array([2.0 * sign]), (0.0, 0.999 * sign)
        calls = []

        def past_end(t, y, direction):
            calls.append(t)
            return span[1] + direction * 1e-3
        plain = ode.solve_rk45(half_square, span, y0)
        res = ode.solve_rk45(half_square, span, y0, singularity=past_end)
        assert res.status == plain.status == ode.COMPLETED and res.t_detected is None
        assert np.array_equal(res.ts, plain.ts) and np.array_equal(res.ys, plain.ys)
        assert len(calls) == 2
        at_end = ode.solve_rk45(half_square, span, y0, singularity=lambda t, y, d: span[1])
        assert at_end.status == ode.BLOWUP and at_end.t_detected == span[1]

    def test_completing_run_makes_no_call(self):
        calls = []
        res = ode.solve_rk45(decay, (0.0, 3.0), np.array([50.0]),
                             singularity=lambda *a: calls.append(a))
        assert res.status == ode.COMPLETED and calls == []


class TestWork:
    def test_twelve_rhs_calls_per_attempted_step(self):
        # Two calls choose the first step; every attempt, accepted or
        # rejected, then costs twelve (the thirteenth stage is reused, FSAL).
        f = Counted(lambda t, y: y * y)
        res = ode.solve_rk45(f, (0.0, 0.99), np.array([1.0]), rtol=1e-6, atol=1e-8)
        assert res.status == ode.COMPLETED and res.n_rejected > 0
        assert f.calls == 2 + 12 * (res.n_steps + res.n_rejected)

    def test_samples_are_one_per_accepted_step(self):
        res = ode.solve_rk45(decay, (0.0, 3.0), np.array([1.0, 2.0]))
        assert res.ts.shape == (res.n_steps + 1,)
        assert res.ys.shape == (res.n_steps + 1, 2)
        assert not np.shares_memory(res.ys[0], res.ys[1])


class TestInputGuards:
    @pytest.mark.parametrize("rtol, atol", [(-1e-10, 1e-12), (1e-10, -1e-12),
                                            (0.0, 0.0), (math.nan, 1e-12),
                                            (1e-10, math.inf), (math.inf, math.inf),
                                            (1e-10, math.nan)])
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

    def test_initial_state_beyond_the_blowup_threshold(self, monkeypatch):
        # (f0 / scale) ** 2 would overflow in the first-step guess and make
        # it zero; the state is refused before any right-hand side call.
        f = Counted(decay)
        with pytest.raises(ode.SolverInputError, match="already exceeds the blow-up"):
            ode.solve_rk45(f, (0.0, 1.0), np.array([1e100, 1.0]))
        assert f.calls == 0
        monkeypatch.setattr(ode, "BLOWUP_THRESHOLD", math.inf)
        res = ode.solve_rk45(decay, (0.0, 1.0), np.array([1e100, 1.0]))
        assert res.status == ode.COMPLETED

    def test_input_errors_are_value_errors(self):
        assert issubclass(ode.SolverInputError, ValueError)

    def test_one_zero_tolerance_is_allowed(self):
        for rtol, atol in ((0.0, 1e-12), (1e-10, 0.0)):
            res = ode.solve_rk45(decay, (0.0, 1.0), np.array([1.0]), rtol=rtol, atol=atol)
            assert res.status == ode.COMPLETED
