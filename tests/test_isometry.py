import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_dist, isom_dist, paper_basis_brackets
from osclab import cli, flows
from osclab.algebra import LambdaSpec, basis_brackets, basis_vector
from osclab.isometry import (GroupRows, IsomElem, IsometryRows,
                             act_sigma_on_u, commensurability_oracle, compose,
                             curv_isometry_from_json, curv_isometry_from_matrix,
                             g_exp, g_inv, g_log, g_mul, geodesic_exponential,
                             group_to_alg_coords, identity_elem,
                             identity_isometry, isom_dim, isom_identity,
                             MAX_EXACT_EXPONENT, isom_inv, isom_mul,
                             isometry_parametrization_dim,
                             lattice_criterion, o_r_distance_from_identity,
                             orthogonality_residual, polar,
                             polar_transport_residuals, random_curv_isometries,
                             random_curv_isometry, triple_bracket_residual,
                             _exp_multiplier, _rot, _s_correction)
from osclab.metrics import k_lambda, metric_from_iso, named_family


def rand_group_elem(spec, rng, t_range=2.0):
    z = tuple(rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    return GroupRows(rng.uniform(-t_range, t_range), rng.uniform(-2, 2), z)


def rand_isom(spec, rng):
    return IsomElem(rand_group_elem(spec, rng), random_curv_isometry(spec, rng))


class TestGroupOps:
    def test_central_slice_is_a_direct_factor(self, spec12):
        a = GroupRows(0.4, 1.1, (0.0, 0.0))
        b = GroupRows(-0.3, 0.2, (0.0, 0.0))
        c = g_mul(spec12, a, b)
        assert group_dist(c, GroupRows(0.1, 1.3, (0.0, 0.0))) <= 1e-15

    def test_quarter_turn_product(self, spec1):
        got = g_mul(spec1, GroupRows(math.pi / 2, 0.0, (1.0,)),
                    GroupRows(0.0, 0.0, (1.0,)))
        assert group_dist(got, GroupRows(math.pi / 2, 0.5, (1.0 + 1.0j,))) <= 1e-15

    def test_inverse_law(self, spec112, rng):
        for _ in range(50):
            a = rand_group_elem(spec112, rng)
            assert group_dist(g_mul(spec112, a, g_inv(spec112, a)),
                              identity_elem(spec112)) <= 1e-14

    def test_associativity(self, spec112, rng):
        worst = 0.0
        for _ in range(500):
            a, b, c = (rand_group_elem(spec112, rng) for _ in range(3))
            worst = max(worst, group_dist(g_mul(spec112, g_mul(spec112, a, b), c),
                                          g_mul(spec112, a, g_mul(spec112, b, c))))
        assert worst <= 1e-12


class TestExpLog:
    def test_t_axis_is_a_one_parameter_subgroup(self, spec12):
        g = g_exp(spec12, np.array([1.7, 0, 0, 0, 0, 0]))
        assert group_dist(g, GroupRows(1.7, 0.0, (0.0, 0.0))) == 0.0

    def test_zero_t_limit_is_the_identity_chart(self, spec12, rng):
        x = rng.standard_normal(spec12.dim)
        x[0] = 0.0
        g = g_exp(spec12, x)
        assert group_dist(g, GroupRows(0.0, x[1], tuple(x[2:4] + 1j * x[4:]))) \
            <= 1e-15

    def test_value_at_pi(self, spec1):
        g = g_exp(spec1, np.array([math.pi, 0.0, 1.0, 0.0]))
        assert abs(g.t - math.pi) == 0.0
        assert abs(g.s - 1.0 / (2 * math.pi)) <= 1e-15
        assert abs(g.z[0] - 2j / math.pi) <= 1e-15

    def test_exp_is_a_homomorphism_in_t(self, spec112, rng):
        x = rng.standard_normal(spec112.dim)
        one = g_exp(spec112, x)
        two = g_exp(spec112, 2 * x)
        assert group_dist(two, g_mul(spec112, one, one)) <= 1e-13

    def test_series_and_closed_branches_agree_at_the_switch(self):
        # Both branches match a high-order reference on either side of their
        # switch points, so the branches agree with each other to 1e-14.
        def ref_mult(theta):
            w = 1j * theta
            return sum(w ** k / math.factorial(k + 1) for k in range(12))

        def ref_corr(theta):
            return sum((-1) ** k * theta ** (2 * k + 1) / math.factorial(2 * k + 3)
                       for k in range(8))

        for sign in (1.0, -1.0):
            for theta in (sign * 0.999e-4, sign * 1.0001e-4):
                assert abs(_exp_multiplier(np.array([theta]))[0]
                           - ref_mult(theta)) <= 1e-14
            for theta in (sign * 0.0499, sign * 0.0501):
                assert abs(_s_correction(np.array([theta]))[0]
                           - ref_corr(theta)) <= 1e-14

    def test_log_of_identity_is_zero(self, spec12):
        assert np.all(g_log(spec12, identity_elem(spec12)) == 0.0)

    def test_roundtrip_on_the_restricted_domain(self, spec12, rng):
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(spec12.dim)
            x[0] = rng.uniform(-2.5, 2.5)  # |t * lam_max| <= 5 < 2 pi
            back = g_log(spec12, g_exp(spec12, x))
            worst = max(worst, float(np.max(np.abs(back - x))))
        assert worst <= 1e-11

    def test_log_domain_error_names_the_block(self, spec12):
        g = GroupRows(math.pi, 0.0, (0.1, 0.1))  # t*lam_2 = 2 pi
        with pytest.raises(ValueError, match="block 2"):
            g_log(spec12, g)

    def test_log_domain_error_names_the_oscillator_and_its_block(self, spec112):
        g = GroupRows(3.2, 0.0, (0.1, 0.1, 0.1))  # t*lam_3 = 6.4: oscillator 3 is in block 2
        with pytest.raises(ValueError, match=r"\|t\*l_3\| = 6\.4 >= 2\*pi: .* 3 \(block 2\)"):
            g_log(spec112, g)

    def test_log_domain_error_on_a_stack_names_the_first_bad_row(self, spec112):
        # Row 0 is in the domain; row 1 leaves it at oscillator 3 only, row 2 at all three.
        g = GroupRows([1.0, 3.2, 6.5], [0.0, 0.0, 0.0], np.full((3, 3), 0.1 + 0.0j))
        with pytest.raises(ValueError, match=r"\|t\*l_3\| = 6\.4 >= 2\*pi: .* 3 \(block 2\)"):
            g_log(spec112, g)

    def test_group_exp_matches_geodesic_exp(self, spec12, rng):
        metric = metric_from_iso(k_lambda(spec12), named_family(spec12, "diagonal_sym"))
        for _ in range(5):
            x = rng.standard_normal(spec12.dim)
            got = geodesic_exponential(metric, x)
            want = g_exp(spec12, x)
            assert group_dist(got, want) <= 1e-6

    def test_pole_after_time_one_is_no_failure(self, spec1, monkeypatch):
        # gamma1 at (c, rho) = (1, 1.5): |x| passes 1e2 before t = 1, pole at
        # pi/3 > 1.  The located pole stops nothing, so the endpoint is that
        # of a run that makes no decision.
        metric = metric_from_iso(k_lambda(spec1), named_family(spec1, "u1_dim4"))
        x = flows.analytic_gamma1(1.0, 1.5, 0.0)
        located = []
        real = flows.locate_singularity
        monkeypatch.setattr(flows, "locate_singularity",
                            lambda *a: located.append(real(*a)) or located[-1])
        got = geodesic_exponential(metric, x)
        assert located and all(abs(t - math.pi / 3) <= 1e-9 for t in located)
        monkeypatch.setattr(flows, "locate_singularity", lambda *a: None)
        assert group_dist(got, geodesic_exponential(metric, x)) == 0.0


class TestCurvIsometry:
    def test_matrix_columns_match_the_parametrization(self, spec112, rng):
        u = random_curv_isometry(spec112, rng)
        m = u.matrix
        np.testing.assert_allclose(m @ basis_vector(spec112, 1),
                                   u.rho * basis_vector(spec112, 1), atol=0)
        img = m @ basis_vector(spec112, 0)
        assert img[0] == u.rho
        assert abs(img[1] - u.alpha) <= 1e-15

    @pytest.mark.parametrize("identity_component", [True, False])
    def test_membership_residuals(self, spec112, rng, identity_component):
        form = k_lambda(spec112)
        for _ in range(10):
            u = random_curv_isometry(spec112, rng,
                                     identity_component=identity_component)
            assert orthogonality_residual(form, u.matrix) <= 1e-12
            assert triple_bracket_residual(spec112, u.matrix) <= 1e-10

    def test_roundtrip_through_the_matrix(self, spec112, rng):
        u = random_curv_isometry(spec112, rng, identity_component=False)
        back = curv_isometry_from_matrix(spec112, u.matrix)
        assert back.rho == u.rho
        assert np.max(np.abs(back.matrix - u.matrix)) <= 1e-12

    def test_block_swapping_orthogonal_map_is_rejected(self, spec12):
        # k-orthogonal but mixes the two frequency blocks
        m = np.eye(spec12.dim)
        m[2, 2] = m[3, 3] = m[4, 4] = m[5, 5] = 0.0
        m[3, 2] = math.sqrt(2.0)   # e_1 -> sqrt(2) e_2
        m[2, 3] = 1 / math.sqrt(2.0)
        m[5, 4] = math.sqrt(2.0)
        m[4, 5] = 1 / math.sqrt(2.0)
        assert orthogonality_residual(k_lambda(spec12), m) <= 1e-12
        assert triple_bracket_residual(spec12, m) > 1e-3
        with pytest.raises(ValueError, match="parametrization"):
            curv_isometry_from_matrix(spec12, m)

    def test_reflection_and_sign_components_still_preserve_brackets(self, spec12, rng):
        form = k_lambda(spec12)
        u = random_curv_isometry(spec12, rng, identity_component=False)
        refl = IsometryRows(spec12, -1, u.vs, u.us)
        assert orthogonality_residual(form, refl.matrix) <= 1e-12
        assert triple_bracket_residual(spec12, refl.matrix) <= 1e-10

    def test_json_parsing(self, spec112):
        obj = {"rho": 1, "blocks": [
            {"v": [[0.1, 0.2], [0.3, -0.4]], "u": np.eye(4).tolist()},
            {"v": [[0.0, 0.0]], "u": [[0.0, -1.0], [1.0, 0.0]]},
        ]}
        u = curv_isometry_from_json(spec112, obj)
        assert u.rho == 1
        np.testing.assert_allclose(u.vs[0], [0.1, 0.2, 0.3, -0.4])
        with pytest.raises(ValueError, match="blocks"):
            curv_isometry_from_json(spec112, {"rho": 1, "blocks": []})

    def test_rejects_non_orthogonal_block(self, spec1):
        with pytest.raises(ValueError, match="orthogonal"):
            IsometryRows(spec1, 1, (np.zeros(2),), (np.array([[1.0, 0.0],
                                                              [0.0, 2.0]]),))

    def test_rejects_translation_parts_whose_alpha_overflows(self, spec12):
        # Each v_i is finite, but |v_1|^2 / l_1 is not: alpha would be -inf.
        with pytest.raises(ValueError, match="alpha"):
            IsometryRows(spec12, 1, (np.array([1e200, 1.2]), np.zeros(2)),
                         (np.eye(2), np.eye(2)))

    def test_compose_matches_matrix_product(self, spec112, rng):
        a = random_curv_isometry(spec112, rng, identity_component=False)
        b = random_curv_isometry(spec112, rng, identity_component=False)
        np.testing.assert_allclose(compose(a, b).matrix, a.matrix @ b.matrix,
                                   atol=1e-13)
        inv = a.inverse()
        np.testing.assert_allclose(compose(a, inv).matrix,
                                   np.eye(spec112.dim), atol=1e-13)


class TestPolar:
    def test_identity_map(self, spec112, rng):
        g = rand_group_elem(spec112, rng)
        assert group_dist(polar(spec112, identity_isometry(spec112), g), g) <= 1e-14

    def test_fixes_the_identity_element(self, spec112, rng):
        u = random_curv_isometry(spec112, rng)
        assert group_dist(polar(spec112, u, identity_elem(spec112)),
                          identity_elem(spec112)) == 0.0

    def test_matches_exp_transport_log(self, spec112, rng):
        worst = 0.0
        for _ in range(50):
            u = random_curv_isometry(spec112, rng)
            g = rand_group_elem(spec112, rng, t_range=0.9 * math.pi)
            p1 = polar(spec112, u, g)
            p2 = g_exp(spec112, u.matrix @ g_log(spec112, g))
            worst = max(worst, group_dist(p1, p2))
        assert worst <= 1e-9

    def test_is_a_metric_isometry_to_first_order(self, spec12, rng):
        # transported geodesic offsets preserve pairwise products; the
        # differential is taken by a central difference in the identity chart
        form = k_lambda(spec12)
        u = random_curv_isometry(spec12, rng)
        g = rand_group_elem(spec12, rng, t_range=1.0)
        eps = 1e-4
        vs = [rng.standard_normal(spec12.dim) for _ in range(3)]
        base = polar(spec12, u, g)

        def transported(v):
            plus = polar(spec12, u, g_mul(spec12, g, g_exp(spec12, eps * v)))
            minus = polar(spec12, u, g_mul(spec12, g, g_exp(spec12, -eps * v)))
            dp = group_to_alg_coords(spec12, g_mul(spec12, g_inv(spec12, base), plus))
            dm = group_to_alg_coords(spec12, g_mul(spec12, g_inv(spec12, base), minus))
            return (dp - dm) / (2 * eps)

        imgs = [transported(v) for v in vs]
        for i in range(3):
            for j in range(3):
                want = form.value(vs[i], vs[j])
                got = form.value(imgs[i], imgs[j])
                assert abs(want - got) <= 2e-6 * max(1.0, abs(want))

    def test_rejects_the_reflected_component(self, spec1, rng):
        u = random_curv_isometry(spec1, rng)
        refl = IsometryRows(spec1, -1, u.vs, u.us)
        with pytest.raises(ValueError, match="identity component"):
            polar(spec1, refl, identity_elem(spec1))

    def test_rejects_a_non_finite_rotation_angle(self, spec12, rng):
        u = random_curv_isometry(spec12, rng)
        with pytest.raises(ValueError, match="t\\*l_1 is not finite"):
            polar(spec12, u, GroupRows(math.inf, 0.0, (1.0, 1.0)))

    def test_non_finite_angle_names_the_oscillator_and_its_block(self, spec112, rng):
        u = random_curv_isometry(spec112, rng)
        # t*l_1 = t*l_2 = 1e308 is finite; t*l_3 = 2e308 is not.
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="t\\*l_3 is not finite: block 2 rotation"):
            polar(spec112, u, GroupRows(1e308, 0.0, (1.0, 1.0, 1.0)))


class TestActions:
    def test_matched_pair_identity(self, spec112, rng):
        # P_u(sigma g) = P_u(sigma) . P_{sigma.u}(g)
        for _ in range(10):
            u = random_curv_isometry(spec112, rng)
            sigma = rand_group_elem(spec112, rng)
            g = rand_group_elem(spec112, rng)
            lhs = polar(spec112, u, g_mul(spec112, sigma, g))
            rhs = g_mul(spec112, polar(spec112, u, sigma),
                        polar(spec112, act_sigma_on_u(spec112, sigma, u), g))
            assert group_dist(lhs, rhs) <= 1e-12

    def test_action_is_trivial_for_distinct_frequencies(self, rng):
        spec = LambdaSpec((1.0, 2.0, 3.0))
        u = random_curv_isometry(spec, rng)
        sigma = rand_group_elem(spec, rng)
        acted = act_sigma_on_u(spec, sigma, u)
        assert max(float(np.max(np.abs(a - b)))
                   for a, b in zip(acted.vs, u.vs)) <= 1e-13
        assert max(float(np.max(np.abs(a - b)))
                   for a, b in zip(acted.us, u.us)) <= 1e-13

    def test_trivial_isotropy_acts_as_the_identity(self, spec112, rng):
        sigma = rand_group_elem(spec112, rng)
        got = polar(spec112, identity_isometry(spec112), sigma)
        assert group_dist(got, sigma) <= 1e-14


class TestIsometryGroup:
    def test_identity_element(self, spec112, rng):
        a = rand_isom(spec112, rng)
        assert isom_dist(isom_mul(isom_identity(spec112), a), a) <= 1e-13
        assert isom_dist(isom_mul(a, isom_identity(spec112)), a) <= 1e-13

    def test_inverse(self, spec112, rng):
        for _ in range(10):
            a = rand_isom(spec112, rng)
            ident = isom_identity(spec112)
            assert isom_dist(isom_mul(a, isom_inv(a)), ident) <= 1e-10
            assert isom_dist(isom_mul(isom_inv(a), a), ident) <= 1e-10

    def test_associativity(self, spec112, rng):
        worst = 0.0
        for _ in range(50):
            a, b, c = (rand_isom(spec112, rng) for _ in range(3))
            worst = max(worst, isom_dist(isom_mul(isom_mul(a, b), c),
                                         isom_mul(a, isom_mul(b, c))))
        assert worst <= 1e-10

    def test_product_realizes_composition_of_mappings(self, spec112, rng):
        a, b = rand_isom(spec112, rng), rand_isom(spec112, rng)
        g = rand_group_elem(spec112, rng)
        assert group_dist(isom_mul(a, b).apply(g), a.apply(b.apply(g))) <= 1e-12

    def test_polars_are_automorphisms_for_distinct_frequencies(self, rng):
        spec = LambdaSpec((1.0, 2.0, 3.0))
        u = random_curv_isometry(spec, rng)
        worst = 0.0
        for _ in range(20):
            a, b = rand_group_elem(spec, rng), rand_group_elem(spec, rng)
            lhs = polar(spec, u, g_mul(spec, a, b))
            rhs = g_mul(spec, polar(spec, u, a), polar(spec, u, b))
            worst = max(worst, group_dist(lhs, rhs))
        assert worst <= 1e-10

    def test_group_factor_is_not_normal_for_equal_frequencies(self, rng):
        # conjugating a pure translation moves the isotropy component
        spec = LambdaSpec((1.0, 1.0, 1.0))
        hits = 0
        for _ in range(20):
            a = rand_isom(spec, rng)
            b = IsomElem(rand_group_elem(spec, rng), identity_isometry(spec))
            conj = isom_mul(isom_mul(a, b), isom_inv(a))
            if o_r_distance_from_identity(conj.iso) >= 1e-3:
                hits += 1
        assert hits == 20

    def test_reflected_components_are_kept_out(self, spec1, rng):
        u = random_curv_isometry(spec1, rng)
        bad = IsometryRows(spec1, -1, u.vs, u.us)
        with pytest.raises(ValueError, match="rho"):
            IsomElem(identity_elem(spec1), bad)


class TestDimension:
    def test_small_cases(self):
        assert isom_dim(LambdaSpec((1.0,))) == 7
        assert isom_dim(LambdaSpec((1.0, 1.0, 2.0))) == 21

    def test_formula_matches_parametrization_for_all_compositions(self):
        def compositions(n):
            if n == 0:
                yield ()
                return
            for head in range(1, n + 1):
                for rest in compositions(n - head):
                    yield (head,) + rest

        for n in range(1, 7):
            for comp in compositions(n):
                lams = []
                for i, r in enumerate(comp):
                    lams += [float(i + 1)] * r
                spec = LambdaSpec(tuple(lams))
                assert tuple(r for _, r in spec.blocks) == comp
                assert isom_dim(spec) == isometry_parametrization_dim(spec)


class TestLattice:
    def test_integer_frequencies(self):
        v = lattice_criterion([1, 2, 3])
        assert v.decidable and v.discrete and v.generator == 1

    def test_rational_strings(self):
        v = lattice_criterion(["2/3", "1", "5/3"])
        assert v.decidable and v.discrete and v.generator == Fraction(1, 3)

    def test_floats_are_undecidable(self):
        v = lattice_criterion([1.0, math.sqrt(2.0)])
        assert not v.decidable and v.discrete is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            lattice_criterion([0, 1])

    def test_decimal_exponents_are_bounded_before_parsing(self):
        assert MAX_EXACT_EXPONENT == 4300
        v = lattice_criterion(["1e4300", "2", "1.5E+2"])
        assert v.decidable and v.generator == 2
        for big in ("1e4301", "1E-4301", "2.5e+0010000000"):
            with pytest.raises(ValueError, match="decimal exponents are bounded by 4300"):
                lattice_criterion([big, "2"])

    @given(st.one_of(
        st.lists(st.fractions(min_value=Fraction(1, 12), max_value=20,
                              max_denominator=12), min_size=1, max_size=6),
        st.lists(st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
                 min_size=1, max_size=6)))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_the_brute_force_oracle(self, values):
        v = lattice_criterion(values)
        assert v.decidable
        assert v.discrete == commensurability_oracle(values, v.generator)

    @pytest.mark.parametrize("generator, ok", [(Fraction(1, 3), True), (Fraction(2, 3), False),
                                               (Fraction(1, 6), False)])
    def test_oracle_refuses_a_wrong_generator(self, generator, ok):
        # 1 is no multiple of 2/3, and the multiples 4, 6, 10 of 1/6 share 2.
        assert commensurability_oracle(["2/3", "1", "5/3"], generator) is ok


def test_drawn_rotations_are_special_orthogonal(rng):
    for r in (1, 2, 3):
        for q in random_curv_isometries(LambdaSpec((1.0,) * r), rng, 20).us[0]:
            assert np.max(np.abs(q.T @ q - np.eye(2 * r))) <= 1e-12
            assert np.linalg.det(q) > 0


# -- stacked rows, bit for bit against the single-element functions --------------

# n = 1..6, most with a repeated block.
ROW_LAMBDAS = [(1.0,), (1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0),
               (1 / 3, 1 / 3, 1 / 3, 2.0, 2.5), (0.5, 1.0, 1.0, 2.0, 3.0, 4.0)]


def mixed_rows(spec, rng, count, rho=None):
    """A stack of maps with random rho and reflected blocks (det u_i = -1)
    mixed in; ``rho`` forces the sign."""
    rows = random_curv_isometries(spec, rng, count, identity_component=False)
    return rows if rho is None else IsometryRows(spec, np.full(count, rho), rows.vs, rows.us)


def mixed_isometries(spec, rng, count, rho=None):
    """The maps of ``mixed_rows`` one by one."""
    return list(mixed_rows(spec, rng, count, rho))


def rand_rows(spec, rng, count):
    """Group elements on the log domain, some at t = 0 and near it (the
    series branches)."""
    t = rng.uniform(-0.9, 0.9, count) * 2 * np.pi / max(spec.lambdas)
    t[:3] = [0.0, 1e-6, -3e-3][:count]
    z = rng.standard_normal((count, spec.n)) + 1j * rng.standard_normal((count, spec.n))
    return GroupRows(t, rng.uniform(-2, 2, count), z)


def row_elems(g):
    return [GroupRows(t, s, tuple(z)) for t, s, z in zip(g.t, g.s, g.z)]


def assert_rows_equal(rows, elems):
    np.testing.assert_array_equal(rows.t, [e.t for e in elems])
    np.testing.assert_array_equal(rows.s, [e.s for e in elems])
    np.testing.assert_array_equal(rows.z, [e.z for e in elems])


def per_column_matrix(u):
    """The induced matrix built one basis column at a time."""
    spec = u.spec
    m = np.zeros((spec.dim, spec.dim))
    m[1, 1] = m[0, 0] = u.rho
    m[1, 0] = u.alpha
    for (lam, _), idx, ui, vi in zip(spec.blocks, spec.block_indices, u.us, u.vs):
        rows = [k for j in idx for k in (spec.e_index(j), spec.ec_index(j))]
        m[rows, 0] += vi
        for col, w in zip(rows, np.eye(len(rows))):
            img = ui @ w
            m[rows, col] = img
            m[1, col] = -u.rho * float(img @ vi) / lam
    return m


def stack_elems(elems):
    return GroupRows(np.array([e.t for e in elems]), np.array([e.s for e in elems]),
                     np.array([e.z for e in elems]))


# Single-element references: the closed forms written for one element with
# scalar math.cos/sin, a 1-D gemv and a 1-D dot, independent of the stacked
# code that g_exp, g_log and polar run for stacks and single elements alike.

def reference_g_exp(spec, x):
    t, s = float(x[0]), float(x[1])
    z = x[2 : 2 + spec.n] + 1j * x[2 + spec.n :]
    theta = t * spec.lam
    s_out = s + 0.5 * float(np.sum(np.abs(z) ** 2 * _s_correction(theta)))
    return GroupRows(t, s_out, tuple(_exp_multiplier(theta) * z))


def reference_g_log(spec, g):
    theta = g.t * spec.lam
    z = g.z / _exp_multiplier(theta)
    s = g.s - 0.5 * float(np.sum(np.abs(z) ** 2 * _s_correction(theta)))
    return np.concatenate([[g.t, s], z.real, z.imag])


def _c2r(z):
    """Complex (r,) to real interleaved (2r,), by copy."""
    out = np.empty(2 * len(z))
    out[0::2], out[1::2] = np.real(z), np.imag(z)
    return out


def _r2c(w):
    return w[0::2] + 1j * w[1::2]


def reference_polar(spec, u, g):
    z = g.z
    out = np.empty(spec.n, dtype=complex)
    s_corr = 0.0
    for i, ((lam, _), idx) in enumerate(zip(spec.blocks, spec.block_indices)):
        theta = g.t * lam
        zb = z[[j - 1 for j in idx]]
        vi = _r2c(u.vs[i])
        rot = complex(math.cos(0.5 * theta), math.sin(0.5 * theta))
        inner = _r2c(u.us[i] @ _c2r(np.conj(rot) * zb))
        out[[j - 1 for j in idx]] = (2.0 / lam) * math.sin(0.5 * theta) * rot * vi \
            + rot * inner
        a_i = (math.sin(theta) / (2.0 * lam)) * vi + math.cos(0.5 * theta) * inner
        s_corr += float(u.vs[i] @ _c2r(a_i)) / lam
    return GroupRows(g.t, g.s - s_corr, tuple(out))


def reference_act_sigma_on_u(spec, sigma, u):
    """act_sigma_on_u with each block's coordinates gathered and copied."""
    vs, us = [], []
    for i, ((lam, r), idx) in enumerate(zip(spec.blocks, spec.block_indices)):
        theta = 0.5 * sigma.t * lam
        jm = _rot(0.5 * math.pi, r)
        q_part = 0.5 * (u.us[i] + jm @ u.us[i] @ jm)
        zb = _c2r(sigma.z[[j - 1 for j in idx]])
        vs.append(u.vs[i] + lam * (jm @ (q_part @ zb)))
        us.append(_rot(-theta, r) @ u.us[i] @ _rot(theta, r))
    return vs, us


@pytest.mark.parametrize("lams", ROW_LAMBDAS, ids=lambda lams: f"n{len(lams)}")
def test_act_sigma_on_u_equals_the_copy_based_reference(lams, rng):
    # The block coordinates are read as float views of sigma.z, also when the
    # element was built from a strided z.
    spec = LambdaSpec(lams)
    for _ in range(5):
        u = random_curv_isometry(spec, rng)
        elem = rand_group_elem(spec, rng)
        wide = np.zeros(2 * spec.n, dtype=complex)
        wide[::2] = elem.z
        for sigma in (elem, GroupRows(elem.t, elem.s, wide[::2])):
            acted = act_sigma_on_u(spec, sigma, u)
            vs, us = reference_act_sigma_on_u(spec, sigma, u)
            for got, want in zip(acted.vs + acted.us, vs + us):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("lams", ROW_LAMBDAS, ids=lambda lams: f"n{len(lams)}")
class TestStackedRows:
    def test_g_exp_rows_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        x = rng.standard_normal((60, spec.dim))
        x[:3, 0] = [0.0, 1e-6, -3e-3]
        want = [reference_g_exp(spec, row) for row in x]
        assert_rows_equal(g_exp(spec, x), want)
        assert_rows_equal(stack_elems([g_exp(spec, row) for row in x]), want)

    def test_g_log_rows_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        g = rand_rows(spec, rng, 60)
        want = [reference_g_log(spec, e) for e in row_elems(g)]
        np.testing.assert_array_equal(g_log(spec, g), want)
        np.testing.assert_array_equal([g_log(spec, e) for e in row_elems(g)], want)

    def test_group_law_rows_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        a, b = rand_rows(spec, rng, 20), rand_rows(spec, rng, 20)
        pairs = list(zip(row_elems(a), row_elems(b)))
        assert_rows_equal(g_mul(spec, a, b), [g_mul(spec, x, y) for x, y in pairs])
        assert_rows_equal(g_inv(spec, a), [g_inv(spec, x) for x, _ in pairs])
        np.testing.assert_array_equal(group_to_alg_coords(spec, a),
                                      [group_to_alg_coords(spec, x) for x, _ in pairs])

    def test_polar_rows_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        rows = mixed_rows(spec, rng, 60, rho=1)
        isos = list(rows)
        g = rand_rows(spec, rng, 60)
        want = [reference_polar(spec, u, e) for u, e in zip(isos, row_elems(g))]
        assert_rows_equal(polar(spec, rows, g), want)
        assert_rows_equal(stack_elems([polar(spec, u, e)
                                       for u, e in zip(isos, row_elems(g))]), want)

    def test_transport_residuals_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        rows = mixed_rows(spec, rng, 20, rho=1)[np.repeat(np.arange(20), 5)]
        g = rand_rows(spec, rng, len(rows))
        want = []
        for u, e in zip(rows, row_elems(g)):
            p1 = reference_polar(spec, u, e)
            p2 = reference_g_exp(spec, u.matrix @ reference_g_log(spec, e))
            want.append(max(abs(p1.t - p2.t), abs(p1.s - p2.s),
                            float(np.max(np.abs(p1.z - p2.z)))))
        got = polar_transport_residuals(spec, rows, g)
        np.testing.assert_array_equal(got, want)
        assert float(np.max(got)) <= 1e-9

    def test_matrix_equals_the_per_column_reference(self, lams, rng):
        spec = LambdaSpec(lams)
        isos = mixed_isometries(spec, rng, 30)
        isos += mixed_isometries(spec, rng, 10, rho=-1)
        isos.append(identity_isometry(spec))
        for u in isos:
            np.testing.assert_array_equal(u.matrix, per_column_matrix(u))

    def test_cached_triple_tensor_equals_the_fresh_build(self, lams, rng):
        spec = LambdaSpec(lams)
        T = dense_triple_brackets(spec)
        a, b, c, q, val, _, _ = spec.triple_support
        assert [v.tolist() for v in np.nonzero(T)] == [a.tolist(), b.tolist(), c.tolist(),
                                                      q.tolist()]
        np.testing.assert_array_equal(val, T[a, b, c, q])
        for u in mixed_isometries(spec, rng, 8) + mixed_isometries(spec, rng, 4, rho=-1):
            m = u.matrix
            lhs = np.einsum("mq,abcq->abcm", m, T)
            rhs = np.einsum("ia,jb,kc,ijkm->abcm", m, m, m, T, optimize=True)
            assert triple_bracket_residual(spec, m) == float(np.max(np.abs(lhs - rhs)))

    def test_plans_per_spec_stay_bounded(self, lams, rng):
        spec, m = LambdaSpec(lams), mixed_isometries(LambdaSpec(lams), rng, 1)[0].matrix
        masked = [m * (rng.random(m.shape) < 0.7) for _ in range(24)]
        assert len({(mk != 0).tobytes() for mk in masked}) > 16
        for mk in masked:
            assert triple_bracket_residual(spec, mk) == triple_bracket_residual(
                LambdaSpec(lams), mk)
        assert len(spec.__dict__["_residual_plans"]) == 16


# -- maps as one stack ---------------------------------------------------------------

def reference_random_curv_isometry(spec, rng, identity_component):
    """The per-map draw: per block one QR, sign fix and det, and a reflected
    block as a product with diag(-1, 1, ..., 1)."""
    vs, us = [], []
    for _, r in spec.blocks:
        vs.append(rng.standard_normal(2 * r))
        q, rr = np.linalg.qr(rng.standard_normal((2 * r, 2 * r)))
        q = q * np.sign(np.diag(rr))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        if not identity_component and rng.random() < 0.5:
            q = q @ np.diag([-1.0] + [1.0] * (2 * r - 1))
        us.append(q)
    return (1 if identity_component else int(rng.choice([-1, 1]))), vs, us


@pytest.mark.parametrize("lams", ROW_LAMBDAS, ids=lambda lams: f"n{len(lams)}")
class TestIsometryRows:
    @pytest.mark.parametrize("identity_component", [True, False])
    def test_stack_rows_equal_successive_single_draws(self, lams, identity_component):
        spec = LambdaSpec(lams)
        rngs = [np.random.default_rng(17) for _ in range(3)]
        rows = random_curv_isometries(spec, rngs[0], 40, identity_component)
        singles = [random_curv_isometry(spec, rngs[1], identity_component)
                   for _ in range(40)]
        for k, u in enumerate(singles):
            np.testing.assert_array_equal(rows.matrix[k], u.matrix)
            rho, vs, us = reference_random_curv_isometry(spec, rngs[2], identity_component)
            assert rows.rho[k] == u.rho == rho
            for i in range(len(spec.blocks)):
                np.testing.assert_array_equal(rows.vs[i][k], vs[i])
                np.testing.assert_array_equal(rows.us[i][k], us[i])
            np.testing.assert_array_equal(u.matrix, IsometryRows(spec, rho, vs, us).matrix)
        # The three generators stand at the same place in the stream.
        assert len({rng.random() for rng in rngs}) == 1

    @pytest.mark.parametrize("identity_component", [True, False])
    def test_indexing_carries_the_matrix_rows_it_would_compute(self, lams, rng,
                                                               identity_component):
        spec = LambdaSpec(lams)
        rows = random_curv_isometries(spec, rng, 12, identity_component)
        idxs = [3, slice(2, 9), slice(None, None, 3), [5, 0, 5, 11], rng.random(12) < 0.5]
        computed = [rows[idx].matrix for idx in idxs]  # before the stack's matrix exists
        assert "matrix" not in rows.__dict__
        rows.matrix
        for idx, want in zip(idxs, computed):
            part = rows[idx]
            assert "matrix" in part.__dict__  # carried, not computed again
            np.testing.assert_array_equal(part.matrix, want)
            assert not part.matrix.flags.writeable and part.matrix.flags.c_contiguous
        np.testing.assert_array_equal(rows[3][None].matrix, computed[0][None])

    def test_round_trip_of_a_stack_is_exact(self, lams, rng):
        spec, d = LambdaSpec(lams), 2 * len(lams) + 2
        rows = mixed_rows(spec, rng, 40)
        m = rows.matrix
        big = np.zeros((80, d + 3, d + 2))
        big[::2, 2 : d + 2, 1 : d + 1] = m
        sliced = big[::2, 2 : d + 2, 1 : d + 1]
        for stack in (m, sliced, np.asfortranarray(m)):
            back = curv_isometry_from_matrix(spec, stack)
            assert float(np.max(np.abs(back.matrix - stack))) == 0.0
            np.testing.assert_array_equal(back.rho, rows.rho)
        for k in range(len(rows)):
            single = curv_isometry_from_matrix(spec, sliced[k])
            assert float(np.max(np.abs(single.matrix - m[k]))) == 0.0

    def test_orthogonality_of_a_stack_is_the_worst_row(self, lams, rng):
        spec = LambdaSpec(lams)
        form, m = k_lambda(spec), mixed_rows(spec, rng, 30).matrix
        assert orthogonality_residual(form, m) == max(orthogonality_residual(form, mk)
                                                      for mk in m)


class TestIsometryRowsContract:
    @pytest.mark.parametrize("part, block, value, needle", [
        ("u", 0, 1e-3, "u is not orthogonal"), ("u", 1, math.nan, "u is not orthogonal"),
        ("v", 0, math.inf, "v must be finite"), ("v", 1, math.nan, "v must be finite"),
    ])
    def test_a_bad_row_is_refused_by_row_and_block(self, spec112, rng, part, block,
                                                   value, needle):
        rows = random_curv_isometries(spec112, rng, 6)
        vs, us = [v.copy() for v in rows.vs], [u.copy() for u in rows.us]
        if part == "u":
            us[block][3, 0, 1] += value
        else:
            vs[block][3, 1] = value
        with pytest.raises(ValueError, match=rf"^row 3, block {block}: {needle}"):
            IsometryRows(spec112, rows.rho, vs, us)

    def test_a_bad_sign_or_overflowing_alpha_names_the_row(self, spec12, rng):
        rows = random_curv_isometries(spec12, rng, 5)
        with pytest.raises(ValueError, match=r"^row 2: rho must be \+1 or -1, got 0"):
            IsometryRows(spec12, [1, -1, 0, 1, 1], rows.vs, rows.us)
        vs = [v.copy() for v in rows.vs]
        vs[0][4] = [1e200, 1.2]
        with pytest.raises(ValueError, match=r"^row 4: .* alpha is -inf"):
            IsometryRows(spec12, rows.rho, vs, rows.us)

    def test_shapes_are_checked_per_block(self, spec12, rng):
        rows = random_curv_isometries(spec12, rng, 3)
        for rho, vs, us in ((rows.rho[:, None], rows.vs, rows.us),
                            (rows.rho, rows.vs[:1], rows.us[:1])):
            with pytest.raises(ValueError, match=r"need rho of shape \(N,\) and one "):
                IsometryRows(spec12, rho, vs, us)
        with pytest.raises(ValueError, match="block 1: each of 3 rows"):
            IsometryRows(spec12, rows.rho, (rows.vs[0], rows.vs[1][:2]), rows.us)

    def test_the_stack_is_read_only_and_contiguous(self, spec112, rng):
        m = random_curv_isometries(spec112, rng, 4).matrix
        rows = curv_isometry_from_matrix(spec112, m)
        for a in (rows.rho, *rows.vs, *rows.us, rows.matrix):
            assert not a.flags.writeable and a.flags.c_contiguous
        single = rows[2]
        np.testing.assert_array_equal(single.matrix, m[2])
        assert single[None].matrix.shape == (1, spec112.dim, spec112.dim)
        for idx in (slice(1, 3), [1, 2], np.array([False, True, True, False])):
            np.testing.assert_array_equal(rows[idx].matrix, m[1:3])
        # A step slice is copied: a strided view would sum matrix's row dots
        # in another order.
        stepped = rows[::2]
        for a in (stepped.rho, *stepped.vs, *stepped.us, stepped.matrix):
            assert not a.flags.writeable and a.flags.c_contiguous
        np.testing.assert_array_equal(stepped.matrix, m[::2])
        assert len(list(rows)) == 4

    def test_indexing_a_validated_stack_validates_nothing(self, spec112, rng, monkeypatch):
        rows = random_curv_isometries(spec112, rng, 4)
        m, single = rows.matrix, rows[2]
        validated = []
        post_init = IsometryRows.__post_init__
        monkeypatch.setattr(IsometryRows, "__post_init__",
                            lambda self: validated.append(np.shape(self.rho)) or post_init(self))
        taken = {1: rows[1], (1, 2): rows[1:3], (0, 2): rows[::2], (2,): single[None]}
        g = rand_group_elem(spec112, rng)
        p = polar(spec112, single, g)
        assert validated == []
        for idx, part in taken.items():
            np.testing.assert_array_equal(part.matrix, m[1] if idx == 1 else m[list(idx)])
        assert type(taken[1].rho) is int and taken[(2,)].rho.shape == (1,)
        assert group_dist(p, reference_polar(spec112, single, g)) == 0.0
        with pytest.raises(IndexError):
            rows[None]
        with pytest.raises(IndexError):
            single[0]


def test_single_maps_and_elements_keep_the_fields_the_benchmark_reads(spec112, rng):
    # perfbench/workloads.py writes a random map as an isometry-polar
    # descriptor with json.dumps, and reads t, s and zvec of g_exp and of
    # geodesic_exponential for one element.
    iso = random_curv_isometry(spec112, rng)
    assert type(iso.rho) is int
    assert [v.ndim for v in iso.vs] == [1, 1] and [u.ndim for u in iso.us] == [2, 2]
    desc = {"rho": iso.rho,
            "blocks": [{"v": v.reshape(-1, 2).tolist(), "u": u.tolist()}
                       for v, u in zip(iso.vs, iso.us)]}
    back = curv_isometry_from_json(spec112, json.loads(json.dumps(desc)))
    np.testing.assert_array_equal(back.matrix, iso.matrix)
    x = rng.standard_normal(spec112.dim)
    metric = metric_from_iso(k_lambda(spec112), named_family(spec112, "diagonal_sym"))
    for g in (g_exp(spec112, x), geodesic_exponential(metric, x)):
        assert np.ndim(g.t) == np.ndim(g.s) == 0 and g.zvec.shape == (spec112.n,)
        json.dumps([g.t, g.s])


# -- the triple-bracket residual over the nonzeros of T ----------------------------

# n = 1..6 with distinct frequencies, and with repeated ones.
SUPPORT_LAMBDAS = [(2.5,), (1.0, 2.0), (0.5, 1.0, 3.0), (1.0, 1.5, 2.0, 4.0),
                   (1.0, 1.5, 2.0, 3.0, 5.0), (1.0, 1.5, 2.0, 2.5, 3.0, 4.0),
                   (1.0,), (1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 2.0),
                   (1.0, 1.5, 2.0, 3.0, 3.0), (0.5, 1.0, 1.0, 2.0, 3.0, 4.0)]
# l_1^2 = 1e-400 underflows to 0: T has no nonzero where that product stands.
UNDERFLOW_LAMBDAS = (1e-200, 1.0)


def dense_triple_brackets(spec):
    """T[a, b, c, :] = [e_a, [e_b, e_c]] as one dense einsum over the paper's brackets."""
    B = paper_basis_brackets(spec)
    return np.einsum("bcp,apq->abcq", B, B)


def dense_triple_bracket_residual(spec, m):
    """The residual as the two dense einsums over T = [e_a, [e_b, e_c]]."""
    T = dense_triple_brackets(spec)
    lhs = np.einsum("mq,abcq->abcm", m, T)
    rhs = np.einsum("ia,jb,kc,ijkm->abcm", m, m, m, T, optimize=True)
    return float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("lams", SUPPORT_LAMBDAS, ids=lambda lams: "_".join(map(str, lams)))
class TestTripleBracketResidual:
    def test_t_has_one_nonzero_per_support_row_and_column(self, lams):
        check_support_against_dense_t(LambdaSpec(lams))

    def test_residual_equals_the_dense_einsums_bit_for_bit(self, lams, rng):
        spec = LambdaSpec(lams)
        for m in residual_test_maps(spec, rng):
            with np.errstate(all="ignore"):
                got = triple_bracket_residual(spec, m)
                want = dense_triple_bracket_residual(spec, m)
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_stacked_residual_equals_the_dense_einsums_bit_for_bit(self, lams, rng,
                                                                    monkeypatch):
        # The 165 maps shuffled into one stack: zero patterns, the scalings that
        # could overflow y and the non-finite maps side by side, so each map must
        # take its rows by its own entries, not by the stack's.
        spec = LambdaSpec(lams)
        ms = np.array(residual_test_maps(spec, rng))[rng.permutation(165)]
        with np.errstate(all="ignore"):
            want = [dense_triple_bracket_residual(spec, m) for m in ms]
            patterns = {(m != 0).tobytes() for m in ms}  # and at most one all-true
            products, matmul = [], np.matmul
            monkeypatch.setattr(np, "matmul",
                                lambda *args, **kw: products.append(1) or matmul(*args, **kw))
            got = triple_bracket_residual(spec, ms)
        assert got.shape == (165,)
        np.testing.assert_array_equal(got, want)  # NaN meets NaN
        # Two products per chunk: some pattern's maps took more than one chunk.
        assert len(products) > 2 * (len(patterns) + 1)

    def test_random_maps_are_not_contracted_over_every_row(self, lams, rng, monkeypatch):
        # The dense kernel multiplies all d^3 rows (a, b, m) of the residual by U.
        spec = LambdaSpec(lams)
        ms = random_curv_isometries(spec, rng, 4).matrix
        rows, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda x, *args, **kw:
                            rows.append(x.shape[-2]) or matmul(x, *args, **kw))
        triple_bracket_residual(spec, ms)
        assert rows and max(rows) < spec.dim ** 3


def test_a_map_that_could_overflow_takes_every_row_alone(rng, monkeypatch):
    # The fallback to every residual row is decided per map: one map whose y
    # could overflow leaves the other maps of its stack on their own rows.
    spec = LambdaSpec((0.5, 1.0, 1.0, 2.0))
    ms = random_curv_isometries(spec, rng, 4).matrix.copy()
    ms[2] *= 1e200
    rows, matmul = [], np.matmul
    with np.errstate(all="ignore"):
        triple_bracket_residual(spec, ms)  # the plans, built once, multiply too
        monkeypatch.setattr(np, "matmul", lambda x, *args, **kw:
                            rows.append(x.shape[-2]) or matmul(x, *args, **kw))
        triple_bracket_residual(spec, ms)
    residual_rows = rows[1::2]  # each chunk multiplies x into y, then y's rows into r
    assert spec.dim ** 3 in residual_rows and min(residual_rows) < spec.dim ** 3


def test_residual_temporaries_do_not_grow_with_the_stack(rng, monkeypatch):
    # One 12x12 block, 36 KB of residual rows per map: 8 maps fill more than
    # one chunk, so 400 maps take more chunks, none larger.
    spec = LambdaSpec((1.0,) * 6)
    stacks = [random_curv_isometries(spec, rng, count).matrix for count in (8, 400)]
    sizes, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kw:
                        (lambda out: sizes.append(out.size) or out)(matmul(*args, **kw)))
    largest = []
    for ms in stacks:
        sizes.clear()
        triple_bracket_residual(spec, ms)
        largest.append(max(sizes))
    assert largest[0] == largest[1]


def residual_test_maps(spec, rng):
    """165 maps: isometries, rho = -1 maps and reflected blocks, random
    matrices scaled 1e-3 to 1e3, and maps whose zero pattern, overflow or
    non-finite entries decide which residual rows are contracted."""
    d = spec.dim
    ms = [u.matrix for u in mixed_isometries(spec, rng, 40)]
    ms += [u.matrix for u in mixed_isometries(spec, rng, 15, rho=-1)]
    ms += [random_curv_isometry(spec, rng).matrix for _ in range(15)]
    ms += [rng.standard_normal((d, d)) * scale
           for scale in (1e-3, 1e-1, 1.0, 1e1, 1e2, 1e3) for _ in range(5)]
    isos = mixed_rows(spec, rng, 12)
    ms += [identity_isometry(spec).matrix, np.zeros((d, d))]
    for at in [(1, 2), (2, 1), (2, 3)]:  # U T alone reaches rows (a, b, e_0)
        ms.append(np.zeros((d, d)))
        ms[-1][at] = 0.5
    ms += list(IsometryRows(spec, isos.rho, tuple(np.zeros_like(v) for v in isos.vs),
                            isos.us).matrix)
    ms += [np.where(m != 0, rng.standard_normal((d, d)), 0.0) for m in isos.matrix]
    ms += [np.where(rng.random((d, d)) < p, 2 * rng.standard_normal((d, d)), 0.0)
           for p in (0.1, 0.2, 0.3, 0.5) for _ in range(3)]
    for scale in (1e3, 1e150, 1e300, 1e307):
        for m in isos.matrix[:3]:
            m = m.copy()
            m[2:, 0] *= scale  # the translation column, and the e_0 row with alpha
            m[1] *= scale
            ms.append(m)
    for bad in (np.inf, -np.inf, np.nan):
        for at in [(0, 0), (1, 1), (d - 1, 2), tuple(rng.integers(d, size=2))]:
            m = isos.matrix[int(rng.integers(12))].copy()
            m[at] = bad
            ms.append(m)
    return ms


def check_support_against_dense_t(spec):
    """triple_support holds the nonzeros of the dense T, in np.nonzero order,
    one per row (a, b, c) and per column (b, c, q), read-only."""
    T = dense_triple_brackets(spec)
    nz = T != 0
    assert nz.sum(axis=3).max() == 1 and nz.sum(axis=0).max() == 1
    a, b, c, q, val, _, _ = spec.triple_support
    np.testing.assert_array_equal(np.ravel_multi_index((a, b, c, q), T.shape),
                                  np.flatnonzero(nz))
    rebuilt = np.zeros_like(T)
    rebuilt[a, b, c, q] = val
    np.testing.assert_array_equal(rebuilt, T)
    assert all(not v.flags.writeable for v in spec.triple_support)


def test_a_product_that_underflows_is_no_nonzero_of_t():
    spec = LambdaSpec(UNDERFLOW_LAMBDAS)
    check_support_against_dense_t(spec)
    b, c, p, v = spec.bracket_support
    products = int(np.count_nonzero(p[:, None] == c))
    assert spec.triple_support[4].size < products


# For spec12 (d = 6: e_-1, e_0, e_1, e_2, ec_1, ec_2), one extra bracket entry.
# [e_2, e_1] = ec_1 puts T[e_2, e_-1, ec_1, ec_1] beside T[e_-1, e_-1, ec_1, ec_1]
# in one column.  A second entry for (e_1, ec_1), [e_1, ec_1] = e_0 + e_-1, gives
# the row T[e_1, e_-1, e_1] = l_1 (e_0 + e_-1) two nonzeros.
@pytest.mark.parametrize("extra", [(3, 2, 4), (2, 4, 0)], ids=["column", "row"])
def test_triple_support_refuses_two_nonzeros_in_a_row_or_column(spec12, extra):
    spec = LambdaSpec(spec12.lambdas)
    spec.__dict__["bracket_support"] = tuple(  # what the cached property would hold
        np.append(col, value) for col, value in zip(spec12.bracket_support, (*extra, 1.0)))
    with pytest.raises(ArithmeticError, match="two nonzeros"):
        spec.triple_support


def test_block_rows_are_cached_read_only(spec112):
    assert spec112.block_rows is spec112.block_rows
    assert [r.tolist() for r in spec112.block_rows] == [[2, 5, 3, 6], [4, 7]]
    assert all(not r.flags.writeable for r in spec112.block_rows)


class TestStackedRowsContract:
    def test_g_log_rows_raise_outside_the_domain(self, spec12, rng):
        g = rand_rows(spec12, rng, 8)
        g.t[5] = math.pi  # t * lam_2 = 2 pi
        with pytest.raises(ValueError, match="block 2"):
            g_log(spec12, g)

    def test_polar_rows_need_one_identity_component_map_per_row(self, spec12, rng):
        g = rand_rows(spec12, rng, 4)
        isos = mixed_rows(spec12, rng, 4, rho=1)
        with pytest.raises(ValueError, match="one map per row"):
            polar(spec12, isos[[0, 1, 2]], g)
        with pytest.raises(ValueError, match="rho"):
            polar(spec12, IsometryRows(spec12, [1, 1, 1, -1], isos.vs, isos.us), g)

    def test_polar_reads_any_layout_and_keeps_signed_zeros(self, spec112, rng, capsys):
        # A strided or Fortran-ordered z gives the bits of the copy-based reference,
        # and so does isometry-polar on -0.0 coordinates, signs of zeros included.
        rows = mixed_rows(spec112, rng, 6, rho=1)
        g = rand_rows(spec112, rng, 6)
        want = [reference_polar(spec112, u, e) for u, e in zip(rows, row_elems(g))]
        wide = np.zeros((6, 2 * spec112.n), dtype=complex)
        wide[:, ::2] = g.z
        for z in (wide[:, ::2], np.asfortranarray(g.z)):
            assert_rows_equal(polar(spec112, rows, GroupRows(g.t, g.s, z)), want)
        assert_rows_equal(stack_elems([polar(spec112, rows[0], GroupRows(
            g.t[0], g.s[0], wide[0, ::2]))]), want[:1])
        u = rows[1]
        desc = json.dumps({"rho": 1, "blocks": [{"v": v.reshape(-1, 2).tolist(),
                                                 "u": m.tolist()} for v, m in zip(u.vs, u.us)]})
        for coords in ([-0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -0.0],
                       [0.0, 0.0, -0.0, 1.5, -0.0, -0.0, 0.7, -0.0],
                       [-0.0, 0.4, 0.3, -0.0, -0.0, 0.0, -0.0, 2.0]):
            assert cli.main(["isometry-polar", "--lambda", "1,1,2", "--u", desc,
                             "--g", ",".join(map(repr, coords))]) == 0
            image = json.loads(capsys.readouterr().out)["image"]
            ref = reference_polar(spec112, u, GroupRows(coords[0], coords[1], [
                complex(re, im) for re, im in zip(coords[2::2], coords[3::2])]))
            got = np.array([image["t"], image["s"], *np.ravel(image["z"])])
            exp = np.array([ref.t, ref.s, *_c2r(ref.z)])
            np.testing.assert_array_equal(got, exp)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(exp))

    @pytest.mark.parametrize("shape", ["z_columns", "t_rows", "s_rows", "t_2d"])
    def test_rows_must_match_the_spec(self, spec12, rng, shape):
        g = rand_rows(spec12, rng, 2)
        t, s, z = {
            "z_columns": (g.t[:1], g.s[:1], np.ones((1, 3), dtype=complex)),
            "t_rows": (g.t, g.s[:1], g.z[:1]),
            "s_rows": (g.t[:1], g.s, g.z[:1]),
            "t_2d": (g.t[:, None], g.s, g.z),
        }[shape]
        bad = GroupRows(t, s, z)
        isos = mixed_rows(spec12, rng, len(t), rho=1)
        with pytest.raises(ValueError, match="group rows need"):
            polar(spec12, isos, bad)
        with pytest.raises(ValueError, match="group rows need"):
            g_log(spec12, bad)

    def test_structure_tensors_are_cached_read_only(self, spec112):
        assert basis_brackets(spec112) is spec112.basis_brackets
        assert spec112.triple_support is spec112.triple_support
        for t in (spec112.basis_brackets, *spec112.triple_support):
            assert not t.flags.writeable
        assert LambdaSpec((1.0, 1.0, 2.0)).basis_brackets is not spec112.basis_brackets
