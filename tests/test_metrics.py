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
        assert ad_invariance_residual(form, n_samples=200) <= 1e-12


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
        assert ad_invariance_residual(form, n_samples=200, seed=seed) == worst

    def test_ad_invariance_over_no_samples_is_zero(self, spec1):
        assert ad_invariance_residual(k_lambda(spec1), n_samples=0) == 0.0


class TestSingleElementInputs:
    """The single-element APIs reject a stack of one element."""

    def test_forms_and_metrics(self, spec12, rng):
        form = k_lambda(spec12)
        metric = metric_from_iso(form, named_family(spec12, "diagonal_sym"))
        row, x = rng.standard_normal((1, spec12.dim)), rng.standard_normal(spec12.dim)
        for value in (form.value, metric.value):
            with pytest.raises(DimensionMismatch):
                value(row, x)
        with pytest.raises(DimensionMismatch):
            levi_civita(metric).left_mult_of(row)

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

    def test_rejects_singular_matrix(self, spec1):
        sing = np.zeros((spec1.dim, spec1.dim))
        with pytest.raises(DegenerateMetric):
            metric_from_iso(k_lambda(spec1), SymIso(spec1, sing))


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
        with pytest.raises(ValueError, match="frequency"):
            named_family(spec, "u1_dim4")
        spec2 = LambdaSpec((1.0, 2.0))
        with pytest.raises(ValueError, match="dim-4"):
            named_family(spec2, "u2_dim4")

    def test_direct_sum_blocks(self):
        spec = LambdaSpec((1.0, 2.0))
        iso = named_family(spec, "direct_sum", core="u2",
                           blocks=[[[1.2, 0.1], [0.1, 0.9]]])
        assert k_symmetry_residual(k_lambda(spec), iso.matrix) == 0.0
        with pytest.raises(ValueError, match="symmetric"):
            named_family(spec, "direct_sum", core="u2",
                         blocks=[[[1.0, 0.3], [0.1, 1.0]]])

    def test_zero_eta_rejected(self, spec1):
        with pytest.raises(ValueError, match="nonzero"):
            named_family(spec1, "diagonal_sym", eta=[0.0], eta_check=[1.0])


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
        assert completeness_criteria(spec12, iso) == "complete_center"

    def test_identity_stabilizes_the_center(self, spec1):
        assert completeness_criteria(spec1, np.eye(4)) == "complete_center"

    def test_u1_moves_the_center_and_the_cartan(self, spec1):
        iso = named_family(spec1, "u1_dim4")
        assert completeness_criteria(spec1, iso) == "undetermined"

    def test_cartan_stabilizer_detected(self, spec12):
        u = np.zeros((spec12.dim, spec12.dim))
        u[0, 0] = u[1, 1] = 1.1
        u[0, 1] = 0.7   # u(e_0) has an e_-1 component: center moves
        u[1, 0] = 0.3
        for i, v in zip(range(2, 6), [0.9, -1.4, 2.2, 0.5]):
            u[i, i] = v
        assert k_symmetry_residual(k_lambda(spec12), u) == 0.0
        assert completeness_criteria(spec12, u) == "complete_cartan"


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
