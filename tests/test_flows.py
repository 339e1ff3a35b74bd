import math
from functools import partial

import numpy as np
import pytest

from osclab import flows, ode
from osclab.algebra import LambdaSpec, basis_brackets, basis_vector
from osclab.connection import levi_civita
from osclab.flows import (BODY, EULER, LAX, FlowProblem, analytic_gamma1,
                          analytic_gamma1_velocity, cartan_adapted_frame,
                          completeness_probe, euler_coadjoint_residual,
                          first_integrals, gamma1_residual, integrate,
                          random_initial_state, scalar_blowup_probe,
                          scalar_blowup_time, trajectory_csv)
from osclab.metrics import (COMPLETE_CARTAN, COMPLETE_CENTER, NotKSymmetric, SymIso,
                            completeness_criteria, k_lambda, metric_from_iso,
                            named_family, random_k_symmetric, stabilizes_cartan)


def metric(spec, name, **params):
    return metric_from_iso(k_lambda(spec), named_family(spec, name, **params))


@pytest.fixture
def u1_metric(spec1):
    return metric(spec1, "u1_dim4")


@pytest.fixture
def u2_metric(spec1):
    return metric(spec1, "u2_dim4")


class TestRhs:
    def test_lax_is_stationary_for_the_bi_invariant_metric(self, spec1, rng):
        m = metric(spec1, "diagonal_sym")
        prob = FlowProblem(m, rng.standard_normal(4), (0, 1), form=LAX)
        assert np.all(prob.rhs(0.0, prob.x0) == 0.0)

    def test_u2_component_equations(self, u2_metric, rng):
        for _ in range(10):
            x = rng.standard_normal(4)
            xm1, x0, x1, xc1 = x
            expected = np.array([-xm1 * x0 + x1 ** 2,
                                 -x1 * xc1 + xm1 ** 2,
                                 0.0,
                                 -x1 * xm1 + x0 * xc1])
            got = FlowProblem(u2_metric, x, (0, 1)).rhs(0.0, x)
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_euler_and_lax_agree_under_transport(self, spec12, rng):
        m = metric(spec12, "diagonal_sym", eta=[0.4, 1.7], eta_check=[0.6, 1.7])
        u = m.iso.matrix
        pe = FlowProblem(m, basis_vector(spec12, 0), (0, 1), form=EULER)
        pl = FlowProblem(m, basis_vector(spec12, 0), (0, 1), form=LAX)
        for _ in range(10):
            x = rng.standard_normal(spec12.dim)
            np.testing.assert_allclose(u @ pe.rhs(0.0, x),
                                       pl.rhs(0.0, u @ x), atol=1e-13)

    def test_body_form_matches_euler(self, spec12, rng):
        m = metric(spec12, "diagonal_sym", eta=[0.4, 1.7], eta_check=[0.6, 0.8])
        pb = FlowProblem(m, basis_vector(spec12, 0), (0, 1), form=BODY)
        pe = FlowProblem(m, basis_vector(spec12, 0), (0, 1), form=EULER)
        for _ in range(10):
            x = rng.standard_normal(spec12.dim)
            np.testing.assert_allclose(pb.rhs(0.0, x), pe.rhs(0.0, x),
                                       atol=1e-11)

    def test_rejects_unknown_form(self, u1_metric):
        with pytest.raises(ValueError, match="form"):
            FlowProblem(u1_metric, np.zeros(4), (0, 1), form="hamiltonian")


def reference_rhs(m, form):
    """FlowProblem.rhs written with np.matmul (@): the reference that the
    bound-ndarray.dot closure must equal bit for bit."""
    spec = m.spec
    d = spec.dim
    u = m.iso.matrix
    if form == BODY:
        lflat = -levi_civita(m).coeffs.reshape(d * d, d)
        return lambda t, x: (x[:, None] * x).ravel() @ lflat
    bflat = basis_brackets(spec).reshape(d * d, d)
    uinv = m.iso.inv
    if form == EULER:
        table = np.ascontiguousarray(bflat @ uinv.T)
        return lambda t, x: ((u @ x)[:, None] * x).ravel() @ table
    return lambda t, y: (y[:, None] * (uinv @ y)).ravel() @ bflat


RHS_LAMBDAS = [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0), (0.5, 1.0, 3.0, 4.0),
               (1.0, 1.5, 2.0, 2.5, 3.0), (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]


@pytest.mark.parametrize("form", [BODY, EULER, LAX])
@pytest.mark.parametrize("lams", RHS_LAMBDAS, ids=lambda lams: f"n{len(lams)}")
class TestRhsBits:
    def test_rhs_equals_the_matmul_reference(self, lams, form, rng):
        spec = LambdaSpec(lams)
        n = spec.n
        isos = [named_family(spec, "diagonal_sym", eta=rng.uniform(0.3, 2.0, n),
                             eta_check=rng.uniform(-2.0, -0.3, n), rho=0.9),
                random_k_symmetric(spec, rng),  # a dense u
                random_k_symmetric(spec, rng, fix_center_line=True)]
        for iso in isos:
            m = metric_from_iso(k_lambda(spec), iso)
            f = FlowProblem(m, np.zeros(spec.dim), (0, 1), form=form).rhs
            ref = reference_rhs(m, form)
            states = rng.standard_normal((40, spec.dim)) * rng.uniform(1e-3, 1e3, (40, 1))
            for x in states:
                np.testing.assert_array_equal(f(0.0, x), ref(0.0, x))

    def test_rhs_returns_a_fresh_array_every_call(self, lams, form, rng):
        spec = LambdaSpec(lams)
        m = metric_from_iso(k_lambda(spec), random_k_symmetric(spec, rng))
        f = FlowProblem(m, np.zeros(spec.dim), (0, 1), form=form).rhs
        x = rng.standard_normal(spec.dim)
        a, b = f(0.0, x), f(0.0, 2.0 * x)
        assert not np.shares_memory(a, b) and not np.shares_memory(a, x)
        np.testing.assert_array_equal(a, f(0.0, x))


class TestIntegrate:
    def test_constant_lax_solution(self, spec1):
        m = metric(spec1, "diagonal_sym")
        traj = integrate(FlowProblem(m, basis_vector(spec1, 2), (0.0, 10.0),
                                     form=LAX))
        assert traj.completed
        assert np.max(np.abs(traj.ys - traj.ys[0])) == 0.0
        assert traj.invariant_drift()["E"] == 0.0

    @pytest.mark.parametrize("c, rho", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
    def test_gamma1_seeded_problem_locates_the_pole(self, u1_metric, c, rho):
        pole = math.pi / (2 * rho)
        traj = integrate(FlowProblem(u1_metric, analytic_gamma1(c, rho, 0.0),
                                     (0.0, 2 * pole)))
        assert traj.status == ode.BLOWUP
        assert abs(traj.t_detected - pole) <= 1e-9 * pole
        # The run stops at the first decade the series confirms, |x| ~ 1e2.
        assert traj.ts[-1] < traj.t_detected
        assert 1e2 < np.max(np.abs(traj.ys[-1])) < 1e3

    def test_diagonal_family_completes(self, spec12, rng):
        m = metric(spec12, "diagonal_sym", eta=[0.3, 1.1], eta_check=[0.7, 1.1])
        traj = integrate(FlowProblem(m, random_initial_state(spec12, rng),
                                     (0.0, 50.0)))
        assert traj.completed
        assert max(traj.invariant_drift().values()) <= 1e-8

    def test_time_reversal_returns_to_the_start(self, spec12, rng):
        m = metric(spec12, "diagonal_sym", eta=[0.4, 0.9], eta_check=[0.6, 0.9])
        x0 = random_initial_state(spec12, rng)
        fwd = integrate(FlowProblem(m, x0, (0.0, 10.0)))
        back = integrate(FlowProblem(m, fwd.ys[-1], (10.0, 0.0)))
        assert np.max(np.abs(back.ys[-1] - x0)) <= 1e-7

    def test_forms_agree_on_a_common_grid(self, spec1, rng):
        m = metric(spec1, "lattice_dim4", alpha=0.8)
        x0 = random_initial_state(spec1, rng)
        u = m.iso.matrix
        for t_end in np.linspace(0.5, 4.5, 9):
            te = integrate(FlowProblem(m, x0, (0.0, t_end), form=EULER))
            tl = integrate(FlowProblem(m, u @ x0, (0.0, t_end), form=LAX))
            assert te.ts[-1] == tl.ts[-1] == t_end
            assert np.max(np.abs(u @ te.ys[-1] - tl.ys[-1])) <= 1e-7

    def test_nan_in_rhs_aborts_with_diagnostic(self, spec1):
        def bad(t, y):
            return np.full(1, np.nan)
        with pytest.raises(ode.SolverInputError, match="not finite"):
            ode.solve_rk45(bad, (0.0, 1.0), np.array([1.0]))


class TestSingularityTest:
    def test_completing_run_makes_no_decision(self, spec1, monkeypatch):
        calls = []
        real = flows.locate_singularity
        monkeypatch.setattr(flows, "locate_singularity",
                            lambda *a: calls.append(a) or real(*a))
        m = metric(spec1, "diagonal_sym", eta=[0.3], eta_check=[0.7], rho=0.9)
        traj = integrate(FlowProblem(m, [0.5, 0.1, 0.6, -0.4], (0.0, 5.0)))
        assert traj.completed and calls == []
        traj = integrate(FlowProblem(metric(spec1, "u1_dim4"),
                                     analytic_gamma1(1.0, 1.0, 0.0), (0.0, 3.0)))
        assert traj.status == ode.BLOWUP and len(calls) == 1

    @pytest.mark.parametrize("form", [BODY, EULER, LAX])
    def test_exponential_growth_has_no_singularity(self, spec1, form):
        # A complete_center metric whose linear flow grows exponentially: entire in t.
        m = metric(spec1, "diagonal_sym", eta=[0.5], eta_check=[2.0])
        x = np.array([30.0, 0.4, 80.0, -120.0])
        prob = FlowProblem(m, x, (0.0, 1.0), form=form)
        for start in (x, -x):  # from -x: the run backward from x, mirrored
            assert prob.singularity(0.0, start) is None

    @pytest.mark.parametrize("t_max", [1.5, -1.5])
    def test_pole_past_the_span_end_completes(self, u1_metric, monkeypatch, t_max):
        # gamma1 at (c, rho) = (1, 1) passes |x| = 1e2 before |t| = 1.5 and has
        # its pole at +-pi/2: located, but no stop, so the run keeps the bits
        # of a run that makes no decision.  The backward run is the forward
        # run from -x0 mirrored, whose pole lies at +pi/2.
        located = []
        real = flows.locate_singularity
        monkeypatch.setattr(flows, "locate_singularity",
                            lambda *a: located.append(real(*a)) or located[-1])
        prob = FlowProblem(u1_metric, analytic_gamma1(1.0, 1.0, 0.0), (0.0, t_max))
        traj = integrate(prob)
        sign = math.copysign(1.0, t_max)
        plain = ode.solve_rk45(prob.rhs, (0.0, abs(t_max)), sign * prob.x0, rtol=prob.rtol,
                               atol=prob.atol)
        assert traj.completed and traj.t_detected is None
        assert np.array_equal(traj.ts, sign * plain.ts)
        assert np.array_equal(traj.ys, sign * plain.ys)
        assert located and all(abs(t - math.pi / 2) <= 1e-9 * math.pi / 2 for t in located)

    def test_scalar_pole_ahead_and_none_behind(self):
        table = (None, None, np.array([[0.5]]))
        # x' = x^2 / 2 from x(t) = 200 has its pole at t + 2/200.
        got = flows.locate_singularity(table, 3.0, np.array([200.0]))
        assert abs(got - 3.01) <= 1e-15 * 3.01
        # Behind x(3) = +-200 are the poles ahead of x(-3) = -+200, mirrored:
        # none ahead of -200, and 2.99 behind x(3) = -200.
        assert flows.locate_singularity(table, -3.0, np.array([-200.0])) is None
        assert flows.locate_singularity(table, -3.0, np.array([200.0])) == \
            pytest.approx(-2.99, rel=1e-15)

    @pytest.mark.parametrize("form", [BODY, EULER, LAX])
    def test_equilibrium_has_no_singularity(self, spec1, form, monkeypatch):
        # The field vanishes on the center line, so the series' first
        # coefficient is zero; 1e3 e_0 is past the first decision's max-norm.
        located = []
        real = flows.locate_singularity
        monkeypatch.setattr(flows, "locate_singularity",
                            lambda *a: located.append(real(*a)) or located[-1])
        x0 = 1e3 * basis_vector(spec1, 1)
        prob = FlowProblem(metric(spec1, "diagonal_sym"), x0, (0.0, 1.0), form=form)
        assert prob.singularity(0.0, prob.x0) is None
        traj = integrate(prob)
        assert traj.completed and np.all(traj.ys == x0)
        assert located == [None, None]  # the call above, then the run's one decision

    def test_time_direction_flips_the_located_pole(self, u1_metric):
        prob = FlowProblem(u1_metric, analytic_gamma1(1.0, 1.0, 0.0), (0.0, 3.0))
        t = 1.5
        x = analytic_gamma1(1.0, 1.0, t)
        assert abs(prob.singularity(t, x) - math.pi / 2) <= 1e-12
        back = integrate(FlowProblem(u1_metric, analytic_gamma1(1.0, 1.0, 0.0), (0.0, -3.0)))
        assert back.status == ode.BLOWUP
        assert abs(back.t_detected + math.pi / 2) <= 1e-9 * math.pi / 2


class TestBackwardSpan:
    """A backward span is the forward run from -x0 with every time and state
    negated: x(t) = -x~(-t) solves x' = B(x, x) whenever x~ does."""

    def test_backward_run_is_the_mirrored_forward_run(self, spec1, spec12):
        rng = np.random.default_rng(31)
        metrics = [metric_from_iso(k_lambda(spec), random_k_symmetric(spec, rng))
                   for spec in (spec1, spec12, LambdaSpec((0.7, 1.3, 2.9)))]
        metrics += [metric(spec1, "u1_dim4"), metric(spec1, "u2_dim4"),
                    metric(spec12, "direct_sum", core="u2", blocks=[[[1.1, 0.2], [0.2, 0.8]]])]
        statuses = []
        for m in metrics:
            integrals = first_integrals(m)
            for t0, t1 in ((0.0, -2.0), (1.5, -3.0)):
                x0 = 2.0 * random_initial_state(m.spec, rng)
                # A +0.0 coordinate that stays 0 would come back as -0.0.
                assert np.all(x0 != 0.0)
                for form in (BODY, EULER, LAX):
                    start = m.iso.matrix @ x0 if form == LAX else x0
                    back = integrate(FlowProblem(m, start, (t0, t1), form=form))
                    fwd = integrate(FlowProblem(m, -start, (-t0, -t1), form=form))
                    statuses.append(back.status)
                    assert (back.status, back.n_steps, back.n_rejected) == \
                        (fwd.status, fwd.n_steps, fwd.n_rejected)
                    assert np.array_equal(back.ts, -fwd.ts) and np.array_equal(back.ys, -fwd.ys)
                    assert back.t_detected == (None if fwd.t_detected is None
                                               else -fwd.t_detected)
                    assert np.array_equal(back.euler_states, -fwd.euler_states)
                    for name, fn in integrals.items():
                        assert np.array_equal(back.invariant_log[name], fn(back.euler_states))
                    # The same bytes as the forward solve of the time-reversed
                    # field y' = -B(y, y) from x0, whose y(s) is x(-s).
                    p, q, table = back.problem.bilinear
                    rev = ode.solve_rk45(lambda t, y: -back.problem.rhs(t, y), (-t0, -t1), start,
                                         singularity=partial(flows.locate_singularity,
                                                             (p, q, -table)))
                    assert back.ts.tobytes() == (-rev.ts).tobytes()
                    assert back.ys.tobytes() == rev.ys.tobytes()
                    assert (back.status, back.n_steps, back.n_rejected) == \
                        (rev.status, rev.n_steps, rev.n_rejected)
                    assert back.t_detected == (None if rev.t_detected is None
                                               else -rev.t_detected)
        assert statuses.count(ode.BLOWUP) == 12 and statuses.count(ode.COMPLETED) == 24

    def test_backward_probe_samples_are_forward_runs_from_minus_x0(self, spec1, spec12):
        for m in (metric(spec1, "u1_dim4"), metric(spec1, "u2_dim4"),
                  metric(spec12, "direct_sum", core="u2", blocks=[[[1.1, 0.2], [0.2, 0.8]]])):
            rep = completeness_probe(m, 4, 5.0, seed=3)
            prob = FlowProblem(m, np.zeros(m.spec.dim), (0.0, 5.0))
            children = np.random.SeedSequence(3).spawn(4)
            assert [s.orientation for s in rep.samples] == [1, -1] * 4
            for s in rep.samples[1::2]:
                st = random_initial_state(m.spec, np.random.default_rng(children[s.index]))
                res = ode.solve_rk45(prob.rhs, (0.0, 5.0), -st, singularity=prob.singularity)
                assert s.status == res.status
                assert s.t_detected == (None if res.t_detected is None else -res.t_detected)
                assert s.t_detected is None or s.t_detected < 0.0
            assert any(s.status == ode.BLOWUP for s in rep.samples[1::2])

    def test_a_negative_probe_horizon_swaps_the_orientations(self, u1_metric):
        pos = completeness_probe(u1_metric, 4, 5.0, seed=3).samples
        neg = completeness_probe(u1_metric, 4, -5.0, seed=3).samples
        swapped = [s for plus, minus in zip(neg[::2], neg[1::2]) for s in (minus, plus)]
        assert [(s.index, -s.orientation, s.status, s.t_detected) for s in swapped] == \
            [(s.index, s.orientation, s.status, s.t_detected) for s in pos]
        assert any(s.status == ode.BLOWUP for s in neg)

    def test_span_shorter_than_h_min_lands_on_its_end(self, u1_metric):
        t_span = (1.0, 1.0 - 5e-14)
        traj = integrate(FlowProblem(u1_metric, [0.5, 0.1, 0.6, -0.4], t_span))
        assert traj.completed
        assert traj.ts.tolist() == list(t_span) and traj.n_steps == 1

    @pytest.mark.parametrize("t_span", [(0.0, -math.inf), (math.inf, 1.0)])
    def test_a_non_finite_span_is_refused_naming_the_callers_times(self, u1_metric, t_span):
        with pytest.raises(ode.SolverInputError) as caught:
            integrate(FlowProblem(u1_metric, [0.5, 0.1, 0.6, -0.4], t_span))
        assert str(caught.value) == f"time span endpoints must be finite, got {t_span!r}"

    def test_an_exhausted_budget_names_the_callers_time(self, u1_metric, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 3)
        prob = FlowProblem(u1_metric, [0.5, 0.1, 0.6, -0.4], (0.0, -1e300))
        with pytest.raises(ode.SolverRefusal) as caught:
            integrate(prob)
        with pytest.raises(ode.SolverRefusal) as mirrored:
            ode.solve_rk45(prob.rhs, (0.0, 1e300), -prob.x0)
        t = float(str(mirrored.value).rsplit("=", 1)[1])
        assert t > 0.0 and str(caught.value) == f"step budget 3 exhausted at t={-t!r}"


class TestTrajectoryRecord:
    def test_counters_equal_the_solvers_own(self, u1_metric):
        prob = FlowProblem(u1_metric, analytic_gamma1(1.0, 1.0, 0.0), (0.0, 3.0),
                           rtol=1e-6, atol=1e-8)
        traj = integrate(prob)
        res = ode.solve_rk45(prob.rhs, prob.t_span, prob.x0, rtol=prob.rtol,
                             atol=prob.atol, singularity=prob.singularity)
        assert (traj.n_steps, traj.n_rejected) == (res.n_steps, res.n_rejected)
        assert traj.n_rejected > 0 and traj.ts.size == traj.n_steps + 1

    def test_lax_euler_states_match_the_logged_conversion(self, spec12, rng):
        # A non-diagonal u, where states @ inv.T and inv @ s differ in the
        # last bits: the invariant log and euler_states must agree exactly.
        u = np.eye(spec12.dim)
        u[0, 1] = 0.7
        u[1, 0] = 0.3
        u[2:, 2:] = np.diag([0.9, -1.4, 2.2, 0.5])
        m = metric_from_iso(k_lambda(spec12), SymIso(spec12, u, "cartan_test"))
        x0 = random_initial_state(spec12, rng)
        traj = integrate(FlowProblem(m, u @ x0, (0.0, 5.0), form=LAX))
        inv = m.iso.inv
        per_row = np.array([inv @ s for s in traj.ys])
        assert np.array_equal(traj.euler_states, per_row)
        for name, fn in first_integrals(m).items():
            assert np.array_equal(traj.invariant_log[name],
                                  [fn(x[None])[0] for x in traj.euler_states])


def _scalar_integrals(m):
    """The first integrals written one state at a time with numpy scalars:
    the reference the stacked evaluation must equal bit for bit."""
    gram, u, spec = m.form.gram, m.iso.matrix, m.spec
    gu, uT_g_u = gram @ u, u.T @ gram @ u
    ue0 = gram @ (u @ basis_vector(spec, 1))
    ref = {"E": lambda x: float(x @ gu @ x), "A": lambda x: float(x @ uT_g_u @ x),
           "C": lambda x: float(ue0 @ x)}
    if m.iso.kind == "u2_dim4":
        ref["P1"] = lambda x: float(2 * x[2] * x[3] + x[0] ** 2 + x[1] ** 2)
        ref["P2"] = lambda x: float(x[0] * x[3] + x[1] * x[2])
    else:
        binv, mu = cartan_adapted_frame(m)
        a, alpha, b = float(u[0, 1]), float(u[1, 1]), float(u[1, 0])
        beta = (a * b - alpha ** 2) / (a * mu)
        def q(j, x):
            xb = binv @ x
            cx = float(ue0 @ x)
            quad = float(np.sum(mu * (mu[j] - mu) * xb[2:] ** 2))
            return float(beta[j] * (mu[j] * xb[0] - cx) ** 2 + quad)
        for j in range(mu.size):
            ref[f"Q{j + 1}"] = lambda x, j=j: q(j, x)
    return ref


def test_stacked_integrals_equal_the_scalar_reference(u2_metric, spec12, rng):
    u = np.eye(spec12.dim)
    u[0, 1], u[1, 0] = 0.7, 0.3
    u[2:, 2:] = np.diag([0.9, -1.4, 2.2, 0.5])
    cartan = metric_from_iso(k_lambda(spec12), SymIso(spec12, u, "cartan_test"))
    for m in (u2_metric, cartan):
        xs = rng.standard_normal((4000, m.spec.dim)) * rng.uniform(0.1, 10.0, (4000, 1))
        ref = _scalar_integrals(m)
        fis = first_integrals(m)
        assert sorted(ref) == sorted(fis)
        for name, fn in fis.items():
            assert np.array_equal(fn(xs), [ref[name](x) for x in xs]), name


class TestFirstIntegrals:
    def test_generic_set_always_registered(self, u1_metric):
        names = list(first_integrals(u1_metric))
        assert names[:3] == ["E", "A", "C"]

    def test_u2_invariants_conserved_until_blowup(self, u2_metric):
        x0 = np.array([0.0, 1.0, 0.5, -2.0])
        fi = first_integrals(u2_metric)
        assert {"P1", "P2"} <= set(fi)
        traj = integrate(FlowProblem(u2_metric, x0, (0.0, 5.0)), fi)
        assert traj.status == ode.BLOWUP
        keep = traj.ts <= 0.9 * traj.t_detected
        for name in ("P1", "P2"):
            vals = traj.invariant_log[name][keep]
            drift = np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0]))
            assert drift <= 1e-8

    def test_center_pairing_is_conserved_for_every_metric(self, u2_metric, rng):
        traj = integrate(FlowProblem(u2_metric, rng.standard_normal(4), (0.0, 1.0)))
        vals = traj.invariant_log["C"]
        assert np.max(np.abs(vals - vals[0])) <= 1e-10

    def test_cartan_stabilizer_gets_the_quadratic_family(self, spec12, rng):
        u = np.zeros((spec12.dim, spec12.dim))
        u[0, 0] = u[1, 1] = 1.1
        u[0, 1] = 0.7
        u[1, 0] = 0.3
        for i, v in zip(range(2, 6), [0.9, -1.4, 2.2, 0.5]):
            u[i, i] = v
        m = metric_from_iso(k_lambda(spec12), SymIso(spec12, u, "cartan_test"))
        fi = first_integrals(m)
        assert {"Q1", "Q2", "Q3", "Q4"} <= set(fi)
        traj = integrate(FlowProblem(m, random_initial_state(spec12, rng),
                                     (0.0, 20.0)), fi)
        assert traj.completed
        assert max(traj.invariant_drift().values()) <= 1e-8

    def test_center_fixing_metric_skips_the_family(self, spec1):
        m = metric(spec1, "diagonal_sym", eta=[0.5], eta_check=[0.5])
        fi = first_integrals(m)
        assert not any(n.startswith("Q") for n in fi)
        cartan_adapted_frame(m)  # the frame exists: the complete_center verdict skips the family
        assert m.iso.matrix[0, 1] == 0.0

    def test_asymmetric_euclidean_block_is_refused(self):
        # u stabilizes the Cartan subalgebra, but its Euclidean block is 5e-8
        # off symmetric in k's orthonormal frame (5e-11 in the Gram frame).
        # Accepted, it registered E, which then drifted 6.3e-6 in one time unit.
        spec = LambdaSpec((1e3,))
        u = np.zeros((4, 4))
        u[:2, :2] = [[1.1, 0.7], [0.3, 1.1]]
        u[2:, 2:] = [[0.9, 0.5], [0.5 + 5e-8, 1.2]]
        with pytest.raises(NotKSymmetric, match="residual 5.000e-08"):
            metric_from_iso(k_lambda(spec), SymIso(spec, u, "cartan_test"))

    def test_adapted_frame_requires_cartan_stability(self, u1_metric):
        with pytest.raises(ValueError, match="Cartan"):
            cartan_adapted_frame(u1_metric)

    def test_frame_exists_exactly_where_the_cartan_predicate_holds(self, spec1, spec12, rng):
        isos = [named_family(spec1, name) for name in ("u1_dim4", "u2_dim4", "lattice_dim4")]
        # u moves the center by 5e-11 only: complete_center, so no Q family.
        isos += [SymIso(spec1, np.array([[1.1, 5e-11, 0, 0], [0.3, 1.1, 0, 0],
                                         [0, 0, 0.9, 0.5], [0, 0, 0.5, 1.2]]))]
        isos += [named_family(spec12, "diagonal_sym", eta=[0.3, 1.7], eta_check=[0.7, 1.7],
                              rho=0.4)]
        isos += [named_family(spec12, "direct_sum", core=core, blocks=[[[1.0, 0.2], [0.2, 0.5]]])
                 for core in ("u1", "u2")]
        for k in range(102):  # every (n, fix_center_line) with n = 1..3, 17 times
            spec = LambdaSpec(tuple(float(j) for j in range(1, 2 + k % 3)))
            isos.append(random_k_symmetric(spec, rng, fix_center_line=bool(k % 2)))
            # A k-symmetric u with u(e_0) = a e_-1 + p e_0 and u(e_-1) = p e_-1 + b e_0.
            u = np.diag(rng.uniform(0.5, 2.0, spec.dim))
            u[1, 1] = u[0, 0]
            u[0, 1], u[1, 0] = rng.uniform(-0.4, 0.4, 2)
            isos.append(SymIso(spec, u))
        held, verdicts = [], []
        for iso in isos:
            m = metric_from_iso(k_lambda(iso.spec), iso)
            try:
                cartan_adapted_frame(m)
                framed = True
            except ValueError:
                framed = False
            held.append(stabilizes_cartan(iso.matrix))
            verdicts.append(completeness_criteria(iso))
            assert framed == held[-1]
            assert framed or verdicts[-1] != COMPLETE_CARTAN
            q_names = [f"Q{j + 1}" for j in range(2 * iso.spec.n)]
            registered = [name for name in first_integrals(m) if name.startswith("Q")]
            assert registered == (q_names if verdicts[-1] == COMPLETE_CARTAN else [])
        assert any(held) and not all(held) and COMPLETE_CARTAN in verdicts
        assert verdicts[3] == COMPLETE_CENTER and held[3]


class TestAnalyticCurve:
    def test_value_at_zero(self):
        np.testing.assert_allclose(analytic_gamma1(1.0, 1.0, 0.0),
                                   [1.0, 1.0, -1.0, 0.0], atol=0)

    def test_solves_the_euler_equation(self):
        for t in np.linspace(-1.2, 1.2, 100):
            assert gamma1_residual(1.0, 1.0, t) <= 1e-10

    def test_general_parameters(self):
        for t in np.linspace(0.05, 0.6, 25):
            assert gamma1_residual(-2.0, 1.5, t) <= 1e-10

    def test_pole_raises(self):
        with pytest.raises(ValueError, match="pole"):
            analytic_gamma1(1.0, 1.0, math.pi / 2)
        with pytest.raises(ValueError):
            analytic_gamma1_velocity(1.0, 2.0, math.pi / 4)

    def test_coordinates_diverge_near_the_pole(self):
        close = analytic_gamma1(1.0, 1.0, math.pi / 2 - 1e-6)
        assert np.max(np.abs(close)) > 1e10

    @pytest.mark.parametrize("c, rho", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
    def test_integrated_run_follows_the_curve(self, u1_metric, c, rho):
        # Every accepted state up to 90% of the blow-up time, not only the
        # time the blow-up is detected at.
        pole = math.pi / (2 * rho)
        traj = integrate(FlowProblem(u1_metric, analytic_gamma1(c, rho, 0.0),
                                     (0.0, 2 * pole)))
        assert traj.status == ode.BLOWUP
        keep = traj.ts <= 0.9 * pole
        assert keep.sum() > 10
        for t, x in zip(traj.ts[keep], traj.ys[keep]):
            ref = analytic_gamma1(c, rho, t)
            assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))


class TestScalarOracle:
    def test_analytic_time(self):
        assert scalar_blowup_time(2.0) == 1.0
        assert scalar_blowup_time(1.0) == 2.0
        assert scalar_blowup_time(-1.0) == math.inf

    @pytest.mark.parametrize("x0", [2.0, 0.5, 3.7])
    def test_numeric_detection_locates_the_time(self, x0):
        res = scalar_blowup_probe(x0)
        assert res.status == ode.BLOWUP
        assert abs(res.t_detected - 2.0 / x0) <= 1e-9 * (2.0 / x0)
        assert res.ts[-1] < res.t_detected


class TestProbe:
    def test_complete_family_has_no_blowups(self, spec12, rng):
        m = metric(spec12, "diagonal_sym", eta=[0.3, 1.5], eta_check=[0.7, 1.5])
        rep = completeness_probe(m, 5, 20.0, seed=11)
        assert rep.verdict == "complete_center"
        assert rep.n_blowup == 0 and rep.n_underflow == 0
        assert len(rep.samples) == 10  # both orientations

    def test_seeded_incomplete_direction_is_found(self, u1_metric):
        x0 = analytic_gamma1(1.0, 1.0, 0.0)
        for ori in (+1, -1):
            traj = integrate(FlowProblem(u1_metric, x0, (0.0, ori * 3.0)))
            assert traj.status == ode.BLOWUP

    def test_incomplete_family_reports_its_earliest_blowup(self, u1_metric):
        rep = completeness_probe(u1_metric, 4, 5.0, seed=0)
        assert rep.verdict == "undetermined"
        blown = [abs(s.t_detected) for s in rep.samples if s.status == ode.BLOWUP]
        assert rep.n_blowup == len(blown) > 0
        assert rep.earliest_blowup == min(blown)

    def test_direct_sum_extension_carries_the_blowup(self):
        spec = LambdaSpec((1.0, 2.0))
        m = metric(spec, "direct_sum", core="u2",
                   blocks=[[[1.1, 0.2], [0.2, 0.8]]])
        gamma = np.array([0.0, 1.0, 0.5, 0.0, -2.0, 0.0])  # (u2 seed, 0) embedded
        for ori in (+1, -1):
            traj = integrate(FlowProblem(m, gamma, (0.0, ori * 5.0)))
            assert traj.status == ode.BLOWUP

    def test_no_blowup_is_counted_past_t_max(self, u1_metric):
        # Sample 0's forward run passes |x| = 1e2 before t = 2.1 and has its
        # pole at t = 2.1243: it completes, and only sample 6 blows up.
        rep = completeness_probe(u1_metric, 8, 2.1, seed=0)
        blown = [s for s in rep.samples if s.status == ode.BLOWUP]
        assert [(s.index, s.orientation) for s in blown] == [(6, 1), (6, -1)]
        assert rep.n_blowup == 2 and all(abs(s.t_detected) <= 2.1 for s in blown)
        assert rep.samples[0].status == ode.COMPLETED

    @pytest.mark.parametrize("core, lams, blocks, crossed", [
        ("u1", (1.0, 2.0), [[[1.1, 0.2], [0.2, 0.8]]],
         [None, None, 2.564615, -6.698694, 7.722079, -5.021869, 4.035020, -3.118787]),
        ("u2", (1.0, 2.0, 3.0), [[[1.1, 0.2], [0.2, 0.8]], [[-0.6, 0.5], [0.5, 1.3]]],
         [1.565055, -2.132451, 2.458265, -3.562919, 2.524260, -5.962721, 2.085523, -4.074393]),
    ])
    def test_every_threshold_blowup_is_confirmed(self, core, lams, blocks, crossed):
        # Undetermined direct sums at n = 2 and 3.  `crossed` holds, per
        # sample, the time at which the run crossed |x| = 1e8 when that
        # crossing alone was reported as a blow-up.  The series confirms each
        # one, a little past its crossing, and no other run.
        spec = LambdaSpec(lams)
        m = metric(spec, "direct_sum", core=core, blocks=blocks)
        rep = completeness_probe(m, 4, 10.0, seed=0)
        assert rep.verdict == "undetermined"
        assert rep.n_blowup == sum(t is not None for t in crossed)
        for s, t_cross in zip(rep.samples, crossed):
            if t_cross is None:
                assert s.status == ode.COMPLETED
            else:
                assert s.status == ode.BLOWUP
                assert 0 < (s.t_detected - t_cross) * s.orientation < 1e-3 * abs(t_cross)

    def test_same_seed_probes_give_equal_samples(self, spec1):
        m = metric(spec1, "diagonal_sym", eta=[0.4], eta_check=[0.6])
        a = completeness_probe(m, 4, 10.0, seed=9)
        b = completeness_probe(m, 4, 10.0, seed=9)
        assert a.samples == b.samples


class TestCoadjointConsistency:
    def test_residual_is_tiny_for_random_states(self, spec12, rng):
        m = metric(spec12, "diagonal_sym", eta=[0.8, 1.2], eta_check=[0.2, 1.2])
        for _ in range(20):
            assert euler_coadjoint_residual(m, rng.standard_normal(spec12.dim)) <= 1e-9


class TestCsv:
    def test_header_rows_and_status_line(self, u1_metric):
        traj = integrate(FlowProblem(u1_metric, analytic_gamma1(1.0, 1.0, 0.0),
                                     (0.0, 3.0)))
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0].startswith("t,x_-1,x_0,x_1,xc_1,E,A,C")
        assert lines[-1].startswith("# status=blowup t_detected=")
        assert len(lines) == traj.ts.size + 2
        # full precision round-trips
        first = [float(v) for v in lines[1].split(",")]
        assert first[1:5] == [1.0, 1.0, -1.0, 0.0]
