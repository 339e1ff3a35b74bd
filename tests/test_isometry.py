import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_dist, isom_dist, paper_basis_brackets
from osclab.algebra import LambdaSpec, basis_brackets, basis_vector
from osclab.isometry import (CurvIsometry, GroupElem, GroupRows, IsomElem,
                             act_sigma_on_u, commensurability_oracle, compose,
                             curv_isometry_from_json, curv_isometry_from_matrix,
                             g_exp, g_inv, g_log, g_mul, geodesic_exponential,
                             group_to_alg_coords, identity_elem,
                             identity_isometry, isom_dim, isom_identity,
                             isom_inv, isom_mul, isometry_parametrization_dim,
                             lattice_criterion, o_r_distance_from_identity,
                             orthogonality_residual, polar,
                             polar_transport_residuals, random_curv_isometry,
                             random_rotation, triple_bracket_residual,
                             _c2r, _exp_multiplier, _r2c, _s_correction)
from osclab.metrics import k_lambda, metric_from_iso, named_family


def rand_group_elem(spec, rng, t_range=2.0):
    z = tuple(rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    return GroupElem(rng.uniform(-t_range, t_range), rng.uniform(-2, 2), z)


def rand_isom(spec, rng):
    return IsomElem(rand_group_elem(spec, rng), random_curv_isometry(spec, rng))


class TestGroupOps:
    def test_central_slice_is_a_direct_factor(self, spec12):
        a = GroupElem(0.4, 1.1, (0.0, 0.0))
        b = GroupElem(-0.3, 0.2, (0.0, 0.0))
        c = g_mul(spec12, a, b)
        assert group_dist(c, GroupElem(0.1, 1.3, (0.0, 0.0))) <= 1e-15

    def test_quarter_turn_product(self, spec1):
        got = g_mul(spec1, GroupElem(math.pi / 2, 0.0, (1.0,)),
                    GroupElem(0.0, 0.0, (1.0,)))
        assert group_dist(got, GroupElem(math.pi / 2, 0.5, (1.0 + 1.0j,))) <= 1e-15

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
        assert group_dist(g, GroupElem(1.7, 0.0, (0.0, 0.0))) == 0.0

    def test_zero_t_limit_is_the_identity_chart(self, spec12, rng):
        x = rng.standard_normal(spec12.dim)
        x[0] = 0.0
        g = g_exp(spec12, x)
        assert group_dist(g, GroupElem(0.0, x[1], tuple(x[2:4] + 1j * x[4:]))) \
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
        g = GroupElem(math.pi, 0.0, (0.1, 0.1))  # t*lam_2 = 2 pi
        with pytest.raises(ValueError, match="block 2"):
            g_log(spec12, g)

    def test_group_exp_matches_geodesic_exp(self, spec12, rng):
        metric = metric_from_iso(k_lambda(spec12), named_family(spec12, "diagonal_sym"))
        for _ in range(5):
            x = rng.standard_normal(spec12.dim)
            got = geodesic_exponential(metric, x)
            want = g_exp(spec12, x)
            assert group_dist(got, want) <= 1e-6


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
        refl = CurvIsometry(spec12, -1, u.vs, u.us)
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
            CurvIsometry(spec1, 1, (np.zeros(2),), (np.array([[1.0, 0.0],
                                                              [0.0, 2.0]]),))

    def test_rejects_translation_parts_whose_alpha_overflows(self, spec12):
        # Each v_i is finite, but |v_1|^2 / l_1 is not: alpha would be -inf.
        with pytest.raises(ValueError, match="alpha"):
            CurvIsometry(spec12, 1, (np.array([1e200, 1.2]), np.zeros(2)),
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
        refl = CurvIsometry(spec1, -1, u.vs, u.us)
        with pytest.raises(ValueError, match="identity component"):
            polar(spec1, refl, identity_elem(spec1))

    def test_rejects_a_non_finite_rotation_angle(self, spec12, rng):
        u = random_curv_isometry(spec12, rng)
        with pytest.raises(ValueError, match="t\\*l_1 is not finite"):
            polar(spec12, u, GroupElem(math.inf, 0.0, (1.0, 1.0)))


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
        bad = CurvIsometry(spec1, -1, u.vs, u.us)
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

    @given(st.lists(st.fractions(min_value=Fraction(1, 12), max_value=20,
                                 max_denominator=12), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_brute_force_oracle(self, values):
        v = lattice_criterion(values)
        assert v.decidable
        assert v.discrete == commensurability_oracle(values)


def test_random_rotation_is_special_orthogonal(rng):
    for m in (2, 4, 6):
        q = random_rotation(m, rng)
        assert np.max(np.abs(q.T @ q - np.eye(m))) <= 1e-12
        assert np.linalg.det(q) > 0


# -- stacked rows, bit for bit against the single-element functions --------------

# n = 1..6, most with a repeated block.
ROW_LAMBDAS = [(1.0,), (1.0, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0),
               (1 / 3, 1 / 3, 1 / 3, 2.0, 2.5), (0.5, 1.0, 1.0, 2.0, 3.0, 4.0)]


def mixed_isometries(spec, rng, count, rho=None):
    """Maps with random rho and reflected blocks (det u_i = -1) mixed in;
    ``rho`` forces the sign."""
    out = []
    for _ in range(count):
        u = random_curv_isometry(spec, rng, identity_component=False)
        out.append(u if rho is None else CurvIsometry(spec, rho, u.vs, u.us))
    return out


def rand_rows(spec, rng, count):
    """Group elements on the log domain, some at t = 0 and near it (the
    series branches)."""
    t = rng.uniform(-0.9, 0.9, count) * 2 * np.pi / max(spec.lambdas)
    t[:3] = [0.0, 1e-6, -3e-3][:count]
    z = rng.standard_normal((count, spec.n)) + 1j * rng.standard_normal((count, spec.n))
    return GroupRows(t, rng.uniform(-2, 2, count), z)


def row_elems(g):
    return [GroupElem(t, s, tuple(z)) for t, s, z in zip(g.t, g.s, g.z)]


def assert_rows_equal(rows, elems):
    np.testing.assert_array_equal(rows.t, [e.t for e in elems])
    np.testing.assert_array_equal(rows.s, [e.s for e in elems])
    np.testing.assert_array_equal(rows.z, [e.zvec for e in elems])


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
                     np.array([e.zvec for e in elems]))


# Single-element references: the closed forms written for one element with
# scalar math.cos/sin, a 1-D gemv and a 1-D dot, independent of the stacked
# code that g_exp, g_log and polar run for stacks and single elements alike.

def reference_g_exp(spec, x):
    t, s = float(x[0]), float(x[1])
    z = x[2 : 2 + spec.n] + 1j * x[2 + spec.n :]
    theta = t * spec.lam
    s_out = s + 0.5 * float(np.sum(np.abs(z) ** 2 * _s_correction(theta)))
    return GroupElem(t, s_out, tuple(_exp_multiplier(theta) * z))


def reference_g_log(spec, g):
    theta = g.t * spec.lam
    z = g.zvec / _exp_multiplier(theta)
    s = g.s - 0.5 * float(np.sum(np.abs(z) ** 2 * _s_correction(theta)))
    return np.concatenate([[g.t, s], z.real, z.imag])


def reference_polar(spec, u, g):
    z = g.zvec
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
    return GroupElem(g.t, g.s - s_corr, tuple(out))


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

    def test_polar_rows_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        isos = mixed_isometries(spec, rng, 60, rho=1)
        g = rand_rows(spec, rng, 60)
        want = [reference_polar(spec, u, e) for u, e in zip(isos, row_elems(g))]
        assert_rows_equal(polar(spec, isos, g), want)
        assert_rows_equal(stack_elems([polar(spec, u, e)
                                       for u, e in zip(isos, row_elems(g))]), want)

    def test_transport_residuals_equal_the_single_loop(self, lams, rng):
        spec = LambdaSpec(lams)
        isos = mixed_isometries(spec, rng, 20, rho=1)
        rows = [u for u in isos for _ in range(5)]
        g = rand_rows(spec, rng, len(rows))
        want = []
        for u, e in zip(rows, row_elems(g)):
            p1 = reference_polar(spec, u, e)
            p2 = reference_g_exp(spec, u.matrix @ reference_g_log(spec, e))
            want.append(max(abs(p1.t - p2.t), abs(p1.s - p2.s),
                            float(np.max(np.abs(p1.zvec - p2.zvec)))))
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
        B = paper_basis_brackets(spec)
        T = np.einsum("bcp,apq->abcq", B, B)
        for u in mixed_isometries(spec, rng, 8) + mixed_isometries(spec, rng, 4, rho=-1):
            m = u.matrix
            lhs = np.einsum("mq,abcq->abcm", m, T)
            rhs = np.einsum("ia,jb,kc,ijkm->abcm", m, m, m, T, optimize=True)
            assert triple_bracket_residual(spec, m) == float(np.max(np.abs(lhs - rhs)))


class TestStackedRowsContract:
    def test_g_log_rows_raise_outside_the_domain(self, spec12, rng):
        g = rand_rows(spec12, rng, 8)
        g.t[5] = math.pi  # t * lam_2 = 2 pi
        with pytest.raises(ValueError, match="block 2"):
            g_log(spec12, g)

    def test_polar_rows_need_one_identity_component_map_per_row(self, spec12, rng):
        g = rand_rows(spec12, rng, 4)
        isos = mixed_isometries(spec12, rng, 4, rho=1)
        with pytest.raises(ValueError, match="one map per row"):
            polar(spec12, isos[:3], g)
        with pytest.raises(ValueError, match="rho"):
            polar(spec12, isos[:3] + mixed_isometries(spec12, rng, 1, rho=-1), g)

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
        isos = mixed_isometries(spec12, rng, len(t), rho=1)
        with pytest.raises(ValueError, match="group rows need"):
            polar(spec12, isos, bad)
        with pytest.raises(ValueError, match="group rows need"):
            g_log(spec12, bad)

    def test_structure_tensors_are_cached_read_only(self, spec112):
        assert basis_brackets(spec112) is spec112.basis_brackets
        assert spec112.triple_brackets is spec112.triple_brackets
        for t in (spec112.basis_brackets, spec112.triple_brackets):
            assert not t.flags.writeable
        assert LambdaSpec((1.0, 1.0, 2.0)).basis_brackets is not spec112.basis_brackets
