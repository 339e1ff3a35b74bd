import math

import numpy as np
import pytest

from osclab import ode
from osclab.algebra import LambdaSpec, basis_vector
from osclab.flows import (BODY, EULER, LAX, FlowProblem, analytic_gamma1,
                          analytic_gamma1_velocity, cartan_adapted_frame,
                          completeness_probe, euler_coadjoint_residual,
                          first_integrals, gamma1_residual, integrate,
                          random_initial_state, scalar_blowup_probe,
                          scalar_blowup_time, trajectory_csv)
from osclab.metrics import SymIso, k_lambda, metric_from_iso, named_family


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


class TestIntegrate:
    def test_constant_lax_solution(self, spec1):
        m = metric(spec1, "diagonal_sym")
        traj = integrate(FlowProblem(m, basis_vector(spec1, 2), (0.0, 10.0),
                                     form=LAX))
        assert traj.completed
        assert np.max(np.abs(traj.states - traj.states[0])) == 0.0
        assert traj.invariant_drift()["E"] == 0.0

    def test_gamma1_seeded_problem_blows_up_before_pi_half(self, u1_metric):
        x0 = analytic_gamma1(1.0, 1.0, 0.0)
        traj = integrate(FlowProblem(u1_metric, x0, (0.0, 3.0)))
        assert traj.status == ode.BLOWUP
        assert math.pi / 2 - 0.01 < traj.t_detected < math.pi / 2

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
        back = integrate(FlowProblem(m, fwd.states[-1], (10.0, 0.0)))
        assert np.max(np.abs(back.states[-1] - x0)) <= 1e-7

    def test_forms_agree_on_a_common_grid(self, spec1, rng):
        m = metric(spec1, "lattice_dim4", alpha=0.8)
        x0 = random_initial_state(spec1, rng)
        u = m.iso.matrix
        for t_end in np.linspace(0.5, 4.5, 9):
            te = integrate(FlowProblem(m, x0, (0.0, t_end), form=EULER))
            tl = integrate(FlowProblem(m, u @ x0, (0.0, t_end), form=LAX))
            assert te.ts[-1] == tl.ts[-1] == t_end
            assert np.max(np.abs(u @ te.states[-1] - tl.states[-1])) <= 1e-7

    def test_nan_in_rhs_aborts_with_diagnostic(self, spec1):
        def bad(t, y):
            return np.full(1, np.nan)
        with pytest.raises(FloatingPointError, match="not finite"):
            ode.solve_rk45(bad, (0.0, 1.0), np.array([1.0]))


class TestTrajectoryRecord:
    def test_counters_equal_the_solvers_own(self, u1_metric):
        prob = FlowProblem(u1_metric, analytic_gamma1(1.0, 1.0, 0.0), (0.0, 3.0),
                           rtol=1e-6, atol=1e-8)
        traj = integrate(prob)
        res = ode.solve_rk45(prob.rhs, prob.t_span, prob.x0, rtol=prob.rtol,
                             atol=prob.atol)
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
        per_row = np.array([inv @ s for s in traj.states])
        assert np.array_equal(traj.euler_states, per_row)
        for fi in first_integrals(m).integrals:
            assert np.array_equal(traj.invariant_log[fi.name],
                                  [fi(x) for x in traj.euler_states])


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
        fr = cartan_adapted_frame(m)
        mu = fr.mu
        beta = (fr.a * fr.b - fr.alpha ** 2) / (fr.a * mu)
        def q(j, x):
            xb = fr.basis_inv @ x
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
        fis = first_integrals(m).integrals
        assert sorted(ref) == sorted(fi.name for fi in fis)
        for fi in fis:
            assert np.array_equal(fi.fn(xs), [ref[fi.name](x) for x in xs]), fi.name


class TestFirstIntegrals:
    def test_generic_set_always_registered(self, u1_metric):
        names = first_integrals(u1_metric).names
        assert names[:3] == ("E", "A", "C")

    def test_u2_invariants_conserved_until_blowup(self, u2_metric):
        x0 = np.array([0.0, 1.0, 0.5, -2.0])
        fi = first_integrals(u2_metric)
        assert {"P1", "P2"} <= set(fi.names)
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
        assert {"Q1", "Q2", "Q3", "Q4"} <= set(fi.names)
        traj = integrate(FlowProblem(m, random_initial_state(spec12, rng),
                                     (0.0, 20.0)), fi)
        assert traj.completed
        assert max(traj.invariant_drift().values()) <= 1e-8

    def test_center_fixing_metric_skips_the_family(self, spec1):
        m = metric(spec1, "diagonal_sym", eta=[0.5], eta_check=[0.5])
        fi = first_integrals(m)
        assert not any(n.startswith("Q") for n in fi.names)
        assert any("a = 0" in note for note in fi.notes)

    def test_adapted_frame_requires_cartan_stability(self, u1_metric):
        with pytest.raises(ValueError, match="Cartan"):
            cartan_adapted_frame(u1_metric)


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


class TestScalarOracle:
    def test_analytic_time(self):
        assert scalar_blowup_time(2.0) == 1.0
        assert scalar_blowup_time(1.0) == 2.0
        assert scalar_blowup_time(-1.0) == math.inf

    def test_numeric_detection_brackets_the_time(self):
        res = scalar_blowup_probe(2.0)
        assert res.status == ode.BLOWUP
        assert 0.99 < res.t_detected < 1.0


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
