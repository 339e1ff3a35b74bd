"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All tolerances are fixed here; nothing is calibrated at
run time.
"""

import math
import time
from fractions import Fraction

import numpy as np

from osclab import ode
from osclab.algebra import (LambdaSpec, ad, basis_vector, bracket, cartan,
                            center, derived_ideal, jacobi_residual)
from osclab.connection import (affine_product, associator_symmetry_residual,
                               closed_form_L, curvature, flatness_residual,
                               levi_civita, local_symmetry_residual, torsion_residual)
from osclab.flows import (FlowProblem, analytic_gamma1, completeness_probe,
                          first_integrals, gamma1_residual, integrate,
                          random_initial_state, scalar_blowup_probe,
                          scalar_blowup_time)
from osclab.isometry import (GroupRows, IsomElem, commensurability_oracle,
                             curv_isometry_from_matrix, g_exp, g_log, g_mul,
                             geodesic_exponential, identity_isometry, isom_dim,
                             isom_inv, isom_mul, isometry_parametrization_dim,
                             lattice_criterion, o_r_distance_from_identity,
                             orthogonality_residual, polar,
                             random_curv_isometry, triple_bracket_residual)
from osclab.metrics import (k_lambda, ad_invariance_residual, metric_from_iso,
                            named_family, random_k_symmetric)

ALGEBRA_SPECS = [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0), (1.0, math.sqrt(2.0), 3.0)]
LOCSYM_SPECS = [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0)]


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _metric(spec, name, **params):
    return metric_from_iso(k_lambda(spec), named_family(spec, name, **params))


def _random_locsym_family(spec, rng, rho=0.0):
    eta, etc = [], []
    for _ in range(spec.n):
        h = rng.uniform(0.2, 2.2)
        if rng.random() < 0.5:           # condition: eta + etc = 1
            while min(abs(1 - h), abs(h)) < 0.1:
                h = rng.uniform(0.2, 2.2)
            eta.append(h)
            etc.append(1.0 - h)
        else:                            # condition: eta = etc
            s = -1.0 if rng.random() < 0.3 else 1.0
            eta.append(s * max(h, 0.3))
            etc.append(s * max(h, 0.3))
    return _metric(spec, "diagonal_sym", eta=eta, eta_check=etc, rho=rho)


def test_criterion_01_algebra_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    dims_ok = True
    for lams in ALGEBRA_SPECS:
        spec = LambdaSpec(lams)
        for _ in range(1000):
            x, y, z = rng.standard_normal((3, spec.dim))
            x, y, z = (v / np.linalg.norm(v) for v in (x, y, z))
            worst = max(worst, jacobi_residual(spec, x, y, z))
        dims_ok &= center(spec).dim == 1
        dims_ok &= derived_ideal(spec).dim == 2 * spec.n + 1
        dims_ok &= cartan(spec).dim == 2
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and dims_ok and elapsed < 1.0
    _report(1, ok, f"jacobi worst {worst:.2e} (tol 1e-12), subspace dims "
                   f"{'ok' if dims_ok else 'BAD'}, {elapsed:.2f}s (< 1s)")


def test_criterion_02_orthogonality():
    worst = 0.0
    index_ok = True
    for lams in ALGEBRA_SPECS:
        spec = LambdaSpec(lams)
        form = k_lambda(spec)
        worst = max(worst, ad_invariance_residual(form))
        index_ok &= _metric(spec, "diagonal_sym").index == 1
    ok = worst <= 1e-12 and index_ok
    _report(2, ok, f"ad-invariance worst {worst:.2e} (tol 1e-12), "
                   f"index-1 {'ok' if index_ok else 'BAD'}")


def test_criterion_03_connection_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_cf = 0.0
    for lams in ALGEBRA_SPECS:
        spec = LambdaSpec(lams)
        form = k_lambda(spec)
        for _ in range(50):
            metric = metric_from_iso(form, random_k_symmetric(spec, rng))
            table = levi_civita(metric)
            for a in range(spec.dim):
                e_a = basis_vector(spec, a)
                worst_cf = max(worst_cf, float(np.max(np.abs(
                    table.left_mult[a] - closed_form_L(metric, e_a)))))
    worst_r = 0.0
    for lams in ALGEBRA_SPECS:
        spec = LambdaSpec(lams)
        table = levi_civita(_metric(spec, "diagonal_sym"))
        for _ in range(20):
            x, y = rng.standard_normal((2, spec.dim))
            expected = 0.25 * ad(spec, bracket(spec, x, y))
            worst_r = max(worst_r, float(np.max(np.abs(
                curvature(table, x, y) - expected))))
    elapsed = time.perf_counter() - t0
    ok = worst_cf <= 1e-11 and worst_r <= 1e-12 and elapsed < 10.0
    _report(3, ok, f"koszul vs closed form {worst_cf:.2e} (tol 1e-11), "
                   f"quarter-ad curvature {worst_r:.2e} (tol 1e-12), "
                   f"{elapsed:.1f}s (< 10s)")


def test_criterion_04_flat_affine_structure():
    worst_assoc = worst_skew = worst_flat = worst_nilp = 0.0
    rng = np.random.default_rng(404)
    for n in range(1, 6):
        lams = tuple(sorted(rng.uniform(0.5, 3.0, size=n)))
        for spec in (LambdaSpec(lams), LambdaSpec((1.0,) * n)):
            prod = affine_product(spec)
            worst_assoc = max(worst_assoc, associator_symmetry_residual(prod))
            worst_skew = max(worst_skew, torsion_residual(prod))
            worst_flat = max(worst_flat, flatness_residual(prod))
            for a in range(spec.dim):
                m = prod.right_mult_of(basis_vector(spec, a))
                worst_nilp = max(worst_nilp, float(np.max(np.abs(
                    np.linalg.matrix_power(m, spec.dim)))))
    ok = (worst_assoc <= 1e-13 and worst_skew == 0.0
          and worst_flat <= 1e-13 and worst_nilp <= 1e-12)
    _report(4, ok, f"associator {worst_assoc:.2e} (tol 1e-13), skew-bracket "
                   f"{worst_skew:.1e} (exact), flatness {worst_flat:.2e} "
                   f"(tol 1e-13), nilpotency {worst_nilp:.2e} (tol 1e-12)")


def test_criterion_05_locally_symmetric_families():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_ls = 0.0
    for lams in LOCSYM_SPECS:
        spec = LambdaSpec(lams)
        for k in range(200):  # 100 draws per condition, conditions mixed per index
            metric = _random_locsym_family(spec, rng, rho=0.0 if k % 2 else 0.9)
            worst_ls = max(worst_ls, local_symmetry_residual(levi_civita(metric)))

    worst_curv = 0.0
    for _ in range(20):
        lam = rng.uniform(0.5, 2.2)
        eta = rng.uniform(0.4, 2.5)
        spec = LambdaSpec((lam,))
        table = levi_civita(_metric(spec, "diagonal_sym", eta=[eta],
                                    eta_check=[eta]))
        e0 = basis_vector(spec, 0)
        lm = table.left_mult_of(e0)
        r = curvature(table, e0, basis_vector(spec, 2))
        got = (lm @ r - r @ lm) @ e0
        expected = (lam**3 / (8 * eta**3)) * (2 * eta - 1) * basis_vector(spec, 3)
        worst_curv = max(worst_curv, float(np.max(np.abs(got - expected))))

    blowups = 0
    samples = 0
    for lams in LOCSYM_SPECS:
        spec = LambdaSpec(lams)
        rep = completeness_probe(_random_locsym_family(spec, rng), 34, 100.0,
                                 seed=550 + spec.n)
        blowups += rep.n_blowup + rep.n_underflow
        samples += len(rep.samples) // 2
    elapsed = time.perf_counter() - t0
    ok = (worst_ls <= 1e-10 and worst_curv <= 1e-10 and blowups == 0
          and samples >= 100 and elapsed < 120.0)
    _report(5, ok, f"local symmetry {worst_ls:.2e} (tol 1e-10), curvature value "
                   f"{worst_curv:.2e} (tol 1e-10), {blowups} blow-ups in "
                   f"{samples} samples, {elapsed:.0f}s (< 120s)")


def test_criterion_06_no_flat_lorentzian_evidence():
    rng = np.random.default_rng(606)
    spec = LambdaSpec((1.0,))
    form = k_lambda(spec)
    smallest = math.inf
    for i in range(1000):
        iso = random_k_symmetric(spec, rng, index=1,
                                 fix_center_line=bool(i % 2))
        res = flatness_residual(levi_civita(metric_from_iso(form, iso)))
        smallest = min(smallest, res)
    ok = smallest > 1e-6
    _report(6, ok, f"1000 random index-1 metrics, smallest curvature norm "
                   f"{smallest:.3e} (> 1e-6); both center regimes sampled")


def test_criterion_07_geodesic_flow():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    worst_drift = 0.0
    for lams in [(1.0,), (1.0, 2.0)]:
        spec = LambdaSpec(lams)
        metric = _random_locsym_family(spec, rng)
        for _ in range(3):
            traj = integrate(FlowProblem(metric, random_initial_state(spec, rng),
                                         (0.0, 50.0)))
            assert traj.completed
            worst_drift = max(worst_drift, max(traj.invariant_drift().values()))

    worst_g1 = max(gamma1_residual(1.0, 1.0, t)
                   for t in np.linspace(-1.4, 1.4, 100))

    # Blow-up times: the located singularity against the pole of gamma1,
    # at three (c, rho), and against 2/x0 for the scalar equation.
    spec1 = LambdaSpec((1.0,))
    g1_rel, g1_ok = 0.0, True
    for c, rho in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        pole = math.pi / (2 * rho)
        traj = integrate(FlowProblem(_metric(spec1, "u1_dim4"),
                                     analytic_gamma1(c, rho, 0.0), (0.0, 2 * pole)))
        g1_ok = g1_ok and traj.status == "blowup"
        g1_rel = max(g1_rel, abs(traj.t_detected - pole) / pole)

    # u2 has no closed form: the time located at the first decision (the
    # stop) must agree with the one located at the last decision, 1e7.
    m2 = _metric(spec1, "u2_dim4")
    fi2 = first_integrals(m2)
    prob2 = FlowProblem(m2, np.array([0.0, 1.0, 0.5, -2.0]), (0.0, 5.0))
    traj2 = integrate(prob2, fi2)
    located = []
    ode.solve_rk45(prob2.rhs, prob2.t_span, prob2.x0,
                   singularity=lambda t, x: located.append(prob2.singularity(t, x)))
    u2_rel = abs(traj2.t_detected - located[-1]) / located[-1]
    keep = traj2.ts <= 0.9 * traj2.t_detected
    worst_u2 = 0.0
    for name in ("P1", "P2"):
        vals = traj2.invariant_log[name][keep]
        worst_u2 = max(worst_u2, float(np.max(np.abs(vals - vals[0])))
                       / max(1.0, abs(vals[0])))
    u2_ok = (traj2.status == "blowup" and located[0] == traj2.t_detected
             and len(located) == 6 and worst_u2 <= 1e-8)

    res = scalar_blowup_probe(2.0)
    scalar_rel = abs(res.t_detected - scalar_blowup_time(2.0)) / scalar_blowup_time(2.0)
    scalar_ok = res.status == "blowup"

    elapsed = time.perf_counter() - t0
    ok = (worst_drift <= 1e-8 and worst_g1 <= 1e-10 and g1_ok and u2_ok
          and scalar_ok and max(g1_rel, u2_rel, scalar_rel) <= 1e-9 and elapsed < 60.0)
    _report(7, ok, f"drift {worst_drift:.2e} (tol 1e-8), curve residual "
                   f"{worst_g1:.2e} (tol 1e-10), blow-up times off by "
                   f"{g1_rel:.1e}/{u2_rel:.1e}/{scalar_rel:.1e} (gamma1/u2/scalar, "
                   f"tol 1e-9), index-2 invariants {worst_u2:.2e} (tol 1e-8), "
                   f"{elapsed:.0f}s (< 60s)")


def test_criterion_08_group_exponential():
    rng = np.random.default_rng(808)
    worst_exp = 0.0
    for lams in [(1.0,), (1.0, 2.0)]:
        spec = LambdaSpec(lams)
        metric = _metric(spec, "diagonal_sym")
        for _ in range(100):
            x = rng.standard_normal(spec.dim)
            got = geodesic_exponential(metric, x)
            want = g_exp(spec, x)
            worst_exp = max(worst_exp, abs(got.t - want.t), abs(got.s - want.s),
                            float(np.max(np.abs(got.z - want.z))))

    worst_log = 0.0
    for lams in [(1.0,), (1.0, 2.0)]:
        spec = LambdaSpec(lams)
        for _ in range(100):
            x = rng.standard_normal(spec.dim)
            x[0] = rng.uniform(-1, 1) * 5.0 / max(lams)
            worst_log = max(worst_log, float(np.max(np.abs(
                g_log(spec, g_exp(spec, x)) - x))))

    worst_polar = 0.0
    spec = LambdaSpec((1.0, 1.0, 2.0))
    for _ in range(50):
        u = random_curv_isometry(spec, rng)
        t = rng.uniform(-0.9, 0.9) * math.pi
        g = GroupRows(t, rng.uniform(-2, 2),
                      tuple(rng.standard_normal(spec.n)
                            + 1j * rng.standard_normal(spec.n)))
        p1 = polar(spec, u, g)
        p2 = g_exp(spec, u.matrix @ g_log(spec, g))
        worst_polar = max(worst_polar, abs(p1.t - p2.t), abs(p1.s - p2.s),
                          float(np.max(np.abs(p1.z - p2.z))))
    ok = worst_exp <= 1e-6 and worst_log <= 1e-11 and worst_polar <= 1e-9
    _report(8, ok, f"group vs geodesic exponential {worst_exp:.2e} (tol 1e-6), "
                   f"log-exp roundtrip {worst_log:.2e} (tol 1e-11), "
                   f"polar closed form {worst_polar:.2e} (tol 1e-9)")


def test_criterion_09_isometry_suite():
    rng = np.random.default_rng(909)
    worst_orth = worst_triple = worst_round = 0.0
    for lams in [(1.0, 2.0), (1.0, 1.0, 2.0), (1.0, 1.0, 1.0)]:
        spec = LambdaSpec(lams)
        form = k_lambda(spec)
        for _ in range(10):
            u = random_curv_isometry(spec, rng, identity_component=False)
            m = u.matrix
            worst_orth = max(worst_orth, orthogonality_residual(form, m))
            worst_triple = max(worst_triple, triple_bracket_residual(spec, m))
            back = curv_isometry_from_matrix(spec, m)
            worst_round = max(worst_round, float(np.max(np.abs(back.matrix - m))))

    spec = LambdaSpec((1.0, 1.0, 2.0))
    worst_assoc = 0.0

    def rand_isom(sp):
        z = tuple(rng.standard_normal(sp.n) + 1j * rng.standard_normal(sp.n))
        sig = GroupRows(rng.uniform(-2, 2), rng.uniform(-2, 2), z)
        return IsomElem(sig, random_curv_isometry(sp, rng))

    for _ in range(200):
        a, b, c = (rand_isom(spec) for _ in range(3))
        lhs, rhs = isom_mul(isom_mul(a, b), c), isom_mul(a, isom_mul(b, c))
        worst_assoc = max(
            worst_assoc, abs(lhs.sigma.t - rhs.sigma.t),
            abs(lhs.sigma.s - rhs.sigma.s),
            float(np.max(np.abs(lhs.sigma.z - rhs.sigma.z))),
            float(np.max(np.abs(lhs.iso.matrix - rhs.iso.matrix))))

    spec_inc = LambdaSpec((1.0, 2.0, 3.0))
    worst_auto = 0.0
    for _ in range(20):
        u = random_curv_isometry(spec_inc, rng)
        a = GroupRows(rng.uniform(-2, 2), rng.uniform(-2, 2),
                      tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        b = GroupRows(rng.uniform(-2, 2), rng.uniform(-2, 2),
                      tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        lhs = polar(spec_inc, u, g_mul(spec_inc, a, b))
        rhs = g_mul(spec_inc, polar(spec_inc, u, a), polar(spec_inc, u, b))
        worst_auto = max(worst_auto, abs(lhs.t - rhs.t), abs(lhs.s - rhs.s),
                         float(np.max(np.abs(lhs.z - rhs.z))))

    spec_eq = LambdaSpec((1.0, 1.0, 1.0))
    min_conj = math.inf
    for _ in range(20):
        a = rand_isom(spec_eq)
        b = IsomElem(GroupRows(rng.uniform(-2, 2), rng.uniform(-2, 2),
                               tuple(rng.standard_normal(3)
                                     + 1j * rng.standard_normal(3))),
                     identity_isometry(spec_eq))
        conj = isom_mul(isom_mul(a, b), isom_inv(a))
        min_conj = min(min_conj, o_r_distance_from_identity(conj.iso))

    def compositions(n):
        if n == 0:
            yield ()
            return
        for head in range(1, n + 1):
            for rest in compositions(n - head):
                yield (head,) + rest

    dims_ok = True
    for n in range(1, 7):
        for comp in compositions(n):
            lams = []
            for i, r in enumerate(comp):
                lams += [float(i + 1)] * r
            sp = LambdaSpec(tuple(lams))
            dims_ok &= isom_dim(sp) == isometry_parametrization_dim(sp)

    ok = (worst_orth <= 1e-12 and worst_triple <= 1e-10 and worst_round <= 1e-12
          and worst_assoc <= 1e-10 and worst_auto <= 1e-10 and min_conj >= 1e-3
          and dims_ok)
    _report(9, ok, f"orthogonality {worst_orth:.2e} (tol 1e-12), triple bracket "
                   f"{worst_triple:.2e} (tol 1e-10), roundtrip {worst_round:.2e} "
                   f"(tol 1e-12), associativity {worst_assoc:.2e} (tol 1e-10), "
                   f"automorphism {worst_auto:.2e} (tol 1e-10), conjugation "
                   f"moves isotropy by >= {min_conj:.2e} (>= 1e-3), dimension "
                   f"formula {'ok' if dims_ok else 'BAD'}")


def test_criterion_10_lattice_criterion():
    v1 = lattice_criterion([1, 2, 3])
    v2 = lattice_criterion(["2/3", "1", "5/3"])
    v3 = lattice_criterion([1.0, math.sqrt(2.0)])
    examples_ok = (v1.discrete is True and v2.discrete is True
                   and v3.decidable is False and v3.discrete is None)
    rng = np.random.default_rng(1010)
    agree = True
    for _ in range(50):
        k = int(rng.integers(1, 7))
        vals = [Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 13)))
                for _ in range(k)]
        verdict = lattice_criterion(vals)
        agree &= verdict.discrete == commensurability_oracle(vals, verdict.generator)
    ok = examples_ok and agree
    _report(10, ok, f"named examples {'ok' if examples_ok else 'BAD'}, "
                    f"oracle agreement on 50 random rational tuples "
                    f"{'ok' if agree else 'BAD'}")
