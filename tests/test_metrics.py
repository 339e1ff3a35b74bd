import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab.algebra import DimensionMismatch, LambdaSpec, basis_vector, bracket
from osclab.connection import levi_civita
from osclab.flows import FlowProblem
from osclab.metrics import (DegenerateMetric, NotKSymmetric, SymIso,
                            ad_invariance_residual, completeness_criteria,
                            k_lambda, k_symmetry_residual, locsym_conditions,
                            metric_from_iso, named_family, parse_sym_iso,
                            random_k_symmetric, signature)


class TestBiInvariantForm:
    def test_gram_entries_lambda1(self, spec1):
        g = k_lambda(spec1).gram
        assert g[0, 1] == 1.0 and g[1, 0] == 1.0
        assert g[2, 2] == 1.0 and g[3, 3] == 1.0
        assert np.sum(np.abs(g)) == 4.0

    def test_inverse_frequency_coefficients(self):
        spec = LambdaSpec((2.0,))
        g = k_lambda(spec).gram
        assert g[2, 2] == 0.5 and g[3, 3] == 0.5

    def test_index_is_one(self, spec112):
        form = k_lambda(spec112)
        metric = metric_from_iso(form, named_family(spec112, "diagonal_sym"))
        assert metric.index == 1

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0),
                                      (1.0, np.sqrt(2.0), 3.0)])
    def test_ad_invariance(self, lams):
        form = k_lambda(LambdaSpec(lams))
        assert ad_invariance_residual(form) <= 1e-12


    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0), (0.5, 1.0, 1.0, 3.0)])
    def test_ad_invariance_equals_the_scalar_loop(self, lams, seed):
        form = k_lambda(LambdaSpec(lams))
        spec, rng = form.spec, np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            x, y, z = rng.standard_normal((3, spec.dim))
            r = form.value(bracket(spec, x, y), z) + form.value(y, bracket(spec, x, z))
            worst = max(worst, abs(r))
        assert ad_invariance_residual(form, seed=seed) == worst


class TestSingleElementInputs:
    """The single-element APIs reject a stack of one element."""

    def test_forms_and_metrics(self, spec12, rng):
        form = k_lambda(spec12)
        metric = metric_from_iso(form, named_family(spec12, "diagonal_sym"))
        row, x = rng.standard_normal((1, spec12.dim)), rng.standard_normal(spec12.dim)
        for value in (form.value, metric.value):
            with pytest.raises(DimensionMismatch):
                value(row, x)
        # left_mult_of and right_mult_of take stacks: a stack of one gives one row.
        table = levi_civita(metric)
        for mult in (table.left_mult_of, table.right_mult_of):
            np.testing.assert_array_equal(mult(row), mult(row[0])[None])

    def test_flow_problem_rejects_a_row_vector(self, spec1, rng):
        metric = metric_from_iso(k_lambda(spec1), named_family(spec1, "diagonal_sym"))
        with pytest.raises(DimensionMismatch):
            FlowProblem(metric, rng.standard_normal((1, spec1.dim)), (0.0, 1.0))


class TestMetricFromIso:
    def test_identity_reproduces_the_form(self, spec12):
        form = k_lambda(spec12)
        metric = metric_from_iso(form, named_family(spec12, "diagonal_sym"))
        assert np.all(metric.gram_u == form.gram)
        assert metric.index == 1 and metric.lorentzian

    def test_dim4_examples_have_index_one_and_two(self, spec1):
        form = k_lambda(spec1)
        m1 = metric_from_iso(form, named_family(spec1, "u1_dim4"))
        m2 = metric_from_iso(form, named_family(spec1, "u2_dim4"))
        assert m1.index == 1
        assert m2.index == 2

    def test_rejects_non_symmetric_matrix(self, spec1):
        bad = np.eye(spec1.dim)
        bad[0, 2] = 0.5  # pairs e_-1 with e_1: not k-symmetric
        with pytest.raises(NotKSymmetric, match="residual"):
            metric_from_iso(k_lambda(spec1), SymIso(spec1, bad))

    @pytest.mark.parametrize("lambdas", [(1e-3,), (1.0,), (1e3,), (0.5, 8.0)])
    def test_k_symmetry_is_decided_in_k_frame_at_every_lambda(self, lambdas):
        # u = K^-1 W^-1 S W^-1, W = diag(w) k's orthonormal frame, so that
        # W K u W = S: a symmetric S but for delta at entry (2, 3), which is
        # (e_1, ec_1) on one oscillator and couples e_1 and e_2 on two.
        spec = LambdaSpec(lambdas)
        form = k_lambda(spec)
        w = np.concatenate([[1.0, 1.0], np.sqrt(spec.lam), np.sqrt(spec.lam)])
        s = np.eye(spec.dim)[[1, 0, *range(2, spec.dim)]]  # W K W
        s[2:, 2:] += 0.2
        isos = {}
        for delta in (1e-11, 1e-9):
            sd = s.copy()
            sd[2, 3] += delta
            isos[delta] = SymIso(spec, np.linalg.solve(form.gram, sd / np.outer(w, w)))
        metric_from_iso(form, isos[1e-11])
        with pytest.raises(NotKSymmetric, match="residual 1.000e-09"):
            metric_from_iso(form, isos[1e-9])
        for delta, iso in isos.items():
            assert k_symmetry_residual(form, iso.matrix) == pytest.approx(delta, rel=1e-3)

    def test_rejects_singular_matrix(self, spec1):
        sing = np.zeros((spec1.dim, spec1.dim))
        with pytest.raises(DegenerateMetric):
            metric_from_iso(k_lambda(spec1), SymIso(spec1, sing))


def _direct_sum_u2(block):
    """u2 on (e_-1, e_0, e_1, ec_1) plus ``block`` on (e_2, ec_2), at n = 2."""
    u = np.zeros((6, 6))
    u[[4, 2, 0, 1], [0, 1, 2, 4]] = 1.0
    u[np.ix_([3, 5], [3, 5])] = block
    return u


class TestNamedFamilies:
    def test_diagonal_identity(self, spec1):
        iso = named_family(spec1, "diagonal_sym", eta=[1.0], eta_check=[1.0])
        assert np.all(iso.matrix == np.eye(4))

    def test_lattice_quadratic_form(self, spec1):
        # alpha x_-1^2 + 2 x_-1 x_0 + x_1^2 + xc_1^2
        alpha = 0.75
        iso = named_family(spec1, "lattice_dim4", alpha=alpha)
        metric = metric_from_iso(k_lambda(spec1), iso)
        x = np.array([1.3, -0.4, 0.8, 2.1])
        expected = alpha * x[0] ** 2 + 2 * x[0] * x[1] + x[2] ** 2 + x[3] ** 2
        assert abs(metric.value(x, x) - expected) <= 1e-14
        assert metric.index == 1

    def test_u2_is_a_basis_permutation_and_k_symmetric(self, spec1):
        iso = named_family(spec1, "u2_dim4")
        m = iso.matrix
        assert np.all(np.sort(np.abs(m).sum(axis=0)) == 1.0)
        assert np.all((m == 0.0) | (m == 1.0))
        assert k_symmetry_residual(k_lambda(spec1), m) == 0.0

    def test_condition_flags(self, spec12):
        iso = named_family(spec12, "diagonal_sym", eta=[0.3, 1.7],
                           eta_check=[0.7, 1.7])
        assert locsym_conditions(iso) == ("a", "b")
        iso = named_family(spec12, "diagonal_sym", eta=[2.0, 0.7],
                           eta_check=[5.0, 0.7])
        assert locsym_conditions(iso) == (None, "b")

    def test_dim4_families_require_unit_frequency(self):
        spec = LambdaSpec((2.0,))
        with pytest.raises(NotKSymmetric, match="u1_dim4 is not k-symmetric: residual 7.071e-01"):
            metric_from_iso(k_lambda(spec), named_family(spec, "u1_dim4"))
        spec2 = LambdaSpec((1.0, 2.0))
        with pytest.raises(ValueError, match="dim-4"):
            named_family(spec2, "u2_dim4")

    def test_direct_sum_blocks(self):
        spec = LambdaSpec((1.0, 2.0))
        iso = named_family(spec, "direct_sum", core="u2",
                           blocks=[[[1.2, 0.1], [0.1, 0.9]]])
        assert k_symmetry_residual(k_lambda(spec), iso.matrix) == 0.0
        with pytest.raises(NotKSymmetric, match="direct_sum is not k-symmetric"):
            metric_from_iso(k_lambda(spec), named_family(spec, "direct_sum", core="u2",
                                                         blocks=[[[1.0, 0.3], [0.1, 1.0]]]))

    def test_zero_eta_rejected(self, spec1):
        with pytest.raises(DegenerateMetric, match="singular"):
            metric_from_iso(k_lambda(spec1), named_family(spec1, "diagonal_sym",
                                                          eta=[0.0], eta_check=[1.0]))

    @pytest.mark.parametrize("lambdas, name, params, u", [
        # Invertible, with a block determinant of 1e-13; then asymmetric by 5e-11,
        # under K_SYMMETRY_TOL.
        ((1.0, 2.0), "direct_sum", {"core": "u2", "blocks": [np.diag([1e-7, 1e-6])]},
         _direct_sum_u2(np.diag([1e-7, 1e-6]))),
        ((1.0, 2.0), "direct_sum", {"core": "u2", "blocks": [[[1.0, 0.3], [0.3 + 5e-11, 1.0]]]},
         _direct_sum_u2([[1.0, 0.3], [0.3 + 5e-11, 1.0]])),
        ((2.0,), "u1_dim4", {}, np.eye(4)[[1, 2, 0, 3]]),
        ((1.0,), "diagonal_sym", {"eta": [0.0], "eta_check": [1.0]}, np.diag([1.0, 1.0, 0.0, 1.0])),
    ], ids=["small_block", "asymmetric_block", "u1_at_lambda_2", "zero_eta"])
    def test_a_family_and_its_matrix_are_judged_alike(self, lambdas, name, params, u):
        spec = LambdaSpec(lambdas)

        def verdict(iso):
            try:
                return metric_from_iso(k_lambda(spec), iso).gram_u
            except ValueError as err:
                return type(err)

        iso = named_family(spec, name, **params)
        assert np.array_equal(iso.matrix, u)
        family = verdict(iso)
        matrix = verdict(parse_sym_iso(spec, {"kind": "matrix", "rows": u.tolist()}))
        if isinstance(family, np.ndarray) and isinstance(matrix, np.ndarray):
            assert np.array_equal(family, matrix)
        else:
            assert family is matrix


class TestSignature:
    def test_bi_invariant_signature_n2(self, spec12):
        metric = metric_from_iso(k_lambda(spec12), named_family(spec12, "diagonal_sym"))
        assert signature(metric) == (5, 1)

    def test_u2_signature(self, spec1):
        metric = metric_from_iso(k_lambda(spec1), named_family(spec1, "u2_dim4"))
        assert signature(metric) == (2, 2)

    def test_negating_a_riemannian_block_flips_its_count(self, spec1):
        form = k_lambda(spec1)
        plus = metric_from_iso(form, named_family(
            spec1, "diagonal_sym", eta=[1.0], eta_check=[1.0]))
        minus = metric_from_iso(form, named_family(
            spec1, "diagonal_sym", eta=[-1.0], eta_check=[1.0]))
        assert signature(plus) == (3, 1)
        assert signature(minus) == (2, 2)

    def test_sylvester_invariance_under_orthogonal_congruence(self, spec12, rng):
        metric = metric_from_iso(k_lambda(spec12),
                                 named_family(spec12, "diagonal_sym",
                                              eta=[0.5, -1.2], eta_check=[2.0, 0.7]))
        pos, neg = signature(metric)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((spec12.dim, spec12.dim)))
            w = np.linalg.eigvalsh(q.T @ metric.gram_u @ q)
            assert (int(np.sum(w > 0)), int(np.sum(w < 0))) == (pos, neg)


class TestCompleteness:
    def test_diagonal_family_stabilizes_the_center(self, spec12):
        iso = named_family(spec12, "diagonal_sym", eta=[0.3, 2.0],
                           eta_check=[0.7, 2.0])
        assert completeness_criteria(iso) == "complete_center"

    def test_identity_stabilizes_the_center(self):
        assert completeness_criteria(np.eye(4)) == "complete_center"

    def test_u1_moves_the_center_and_the_cartan(self, spec1):
        iso = named_family(spec1, "u1_dim4")
        assert completeness_criteria(iso) == "undetermined"

    def test_cartan_stabilizer_detected(self, spec12):
        u = np.zeros((spec12.dim, spec12.dim))
        u[0, 0] = u[1, 1] = 1.1
        u[0, 1] = 0.7   # u(e_0) has an e_-1 component: center moves
        u[1, 0] = 0.3
        for i, v in zip(range(2, 6), [0.9, -1.4, 2.2, 0.5]):
            u[i, i] = v
        assert k_symmetry_residual(k_lambda(spec12), u) == 0.0
        assert completeness_criteria(u) == "complete_cartan"


class TestJsonAndSampling:
    def test_parse_all_kinds(self, spec1):
        assert parse_sym_iso(spec1, {"kind": "u1_dim4"}).kind == "u1_dim4"
        assert parse_sym_iso(spec1, {"kind": "lattice_dim4", "alpha": 2.0}) \
            .params["alpha"] == 2.0
        d = parse_sym_iso(spec1, {"kind": "diagonal_sym", "eta": [0.5],
                                  "eta_check": [0.5]})
        assert d.params["eta"] == (0.5,)
        m = parse_sym_iso(spec1, {"kind": "matrix",
                                  "rows": np.eye(4).tolist()})
        assert np.all(m.matrix == np.eye(4))
        with pytest.raises(ValueError, match="unknown metric kind"):
            parse_sym_iso(spec1, {"kind": "nope"})
        with pytest.raises(ValueError, match="missing"):
            parse_sym_iso(spec1, {"kind": "diagonal_sym"})

    @pytest.mark.parametrize("desc", [
        {"kind": "diagonal_sym", "eta": [1], "eta_check": [1], "rho": None},
        {"kind": "diagonal_sym", "eta": [1], "eta_check": [1], "rho": [1]},
        {"kind": "diagonal_sym", "eta": {"a": 1}, "eta_check": [1]},
        {"kind": "lattice_dim4", "alpha": None},
        {"kind": "matrix", "rows": [[1, 0, 0, {}], [0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1]]},
        # JSON booleans and numeric strings, which float() and numpy coerce
        {"kind": "diagonal_sym", "eta": [True], "eta_check": [1]},
        {"kind": "diagonal_sym", "eta": ["1"], "eta_check": [1]},
        {"kind": "diagonal_sym", "eta": [1], "eta_check": [1], "rho": "0.5"},
        {"kind": "lattice_dim4", "alpha": "2"},
        {"kind": "matrix", "rows": [[1, 0, 0, "1"], [0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1]]},
        {"kind": "matrix", "rows": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1]]},
        {"kind": "lattice_dim4", "alpha": 10**400},  # float() overflows
    ])
    def test_non_numeric_parameters_are_value_errors(self, spec1, desc):
        with pytest.raises(ValueError, match="non-numeric parameter"):
            parse_sym_iso(spec1, desc)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_metrics_have_requested_index(self, seed):
        gen = np.random.default_rng(seed)
        spec = LambdaSpec((1.0, 2.0))
        index = int(gen.integers(0, spec.dim + 1))
        iso = random_k_symmetric(spec, gen, index=index)
        metric = metric_from_iso(k_lambda(spec), iso)
        assert metric.index == index

    def test_center_line_sampler(self, spec1, rng):
        iso = random_k_symmetric(spec1, rng, index=1, fix_center_line=True)
        col = iso.matrix[:, 1]
        assert np.max(np.abs(col - col[1] * basis_vector(spec1, 1))) <= 1e-12
        assert metric_from_iso(k_lambda(spec1), iso).index == 1
