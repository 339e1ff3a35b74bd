import math
import tracemalloc

import numpy as np
import pytest

from osclab.algebra import LambdaSpec, ad, basis_brackets, basis_vector, bracket
from osclab.connection import (ConnTable, affine_product, associator_symmetry_residual,
                               closed_form_L, compatibility_residual,
                               connection_report, curvature, curvature_basis,
                               curvature_norms, flatness_residual, levi_civita,
                               local_symmetry_residual,
                               right_mult_nilpotency_residual, torsion_residual)
from osclab.metrics import (k_lambda, metric_from_iso, named_family,
                            random_k_symmetric)


def e(spec, i):
    return basis_vector(spec, i)


def identity_metric(spec):
    return metric_from_iso(k_lambda(spec), named_family(spec, "diagonal_sym"))


class TestLeviCivita:
    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0)])
    def test_bi_invariant_product_is_half_bracket(self, lams):
        spec = LambdaSpec(lams)
        table = levi_civita(identity_metric(spec))
        for a in range(spec.dim):
            for b in range(spec.dim):
                np.testing.assert_allclose(
                    table.coeffs[a, b],
                    0.5 * bracket(spec, e(spec, a), e(spec, b)), atol=1e-14)

    def test_diagonal_family_product_values(self, spec1):
        eta, etc = 0.7, 1.9
        metric = metric_from_iso(k_lambda(spec1), named_family(
            spec1, "diagonal_sym", eta=[eta], eta_check=[etc]))
        table = levi_civita(metric)
        assert np.max(np.abs(table.left_mult_of(e(spec1, 1)))) <= 1e-14
        np.testing.assert_allclose(table.product(e(spec1, 3), e(spec1, 2)),
                                   -0.5 * (eta - etc + 1) * e(spec1, 1),
                                   atol=1e-13)

    def test_condition_a_kills_the_e_minus_one_row(self, spec12):
        metric = metric_from_iso(k_lambda(spec12), named_family(
            spec12, "diagonal_sym", eta=[0.3, 1.4], eta_check=[0.7, -0.4]))
        table = levi_civita(metric)
        for j in (1, 2):
            assert np.max(np.abs(table.product(e(spec12, 0),
                                               e(spec12, spec12.e_index(j))))) <= 1e-13
            assert np.max(np.abs(table.product(e(spec12, 0),
                                               e(spec12, spec12.ec_index(j))))) <= 1e-13

    def test_case_b_closed_form_column(self):
        lam, eta = 1.5, 0.85
        spec = LambdaSpec((lam,))
        metric = metric_from_iso(k_lambda(spec), named_family(
            spec, "diagonal_sym", eta=[eta], eta_check=[eta]))
        m = closed_form_L(metric, e(spec, 0))
        np.testing.assert_allclose(m @ e(spec, 2),
                                   (lam / (2 * eta)) * (2 * eta - 1) * e(spec, 3),
                                   atol=1e-13)

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0),
                                      (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)])
    def test_koszul_solution_is_torsion_free_and_compatible(self, lams, rng):
        spec = LambdaSpec(lams)
        for _ in range(10):
            metric = metric_from_iso(k_lambda(spec), random_k_symmetric(spec, rng))
            table = levi_civita(metric)
            assert torsion_residual(table) <= 1e-10
            assert compatibility_residual(table) <= 1e-10

    def test_closed_form_agrees_with_koszul(self, spec12, rng):
        for _ in range(10):
            metric = metric_from_iso(k_lambda(spec12), random_k_symmetric(spec12, rng))
            table = levi_civita(metric)
            for _ in range(5):
                x = rng.standard_normal(spec12.dim)
                np.testing.assert_allclose(table.left_mult_of(x),
                                           closed_form_L(metric, x), atol=1e-11)


class TestCurvature:
    def test_quarter_ad_for_the_bi_invariant_metric(self, spec12, rng):
        table = levi_civita(identity_metric(spec12))
        for _ in range(10):
            x, y = rng.standard_normal((2, spec12.dim))
            expected = 0.25 * ad(spec12, bracket(spec12, x, y))
            assert np.max(np.abs(curvature(table, x, y) - expected)) <= 1e-12

    def test_central_pair_is_flat_at_identity(self, spec1):
        table = levi_civita(identity_metric(spec1))
        assert np.max(np.abs(curvature(table, e(spec1, 2), e(spec1, 3)))) == 0.0

    def test_antisymmetry_in_the_arguments(self, spec12, rng):
        metric = metric_from_iso(k_lambda(spec12), random_k_symmetric(spec12, rng))
        table = levi_civita(metric)
        x, y = rng.standard_normal((2, spec12.dim))
        np.testing.assert_array_equal(curvature(table, x, y),
                                      -curvature(table, y, x))

    def test_case_b_iterated_commutator_value(self, rng):
        # [L_{e_-1}, R(e_-1, e_i)] e_-1 = (l^3 / 8 eta^3)(2 eta - 1) ec_i
        for _ in range(5):
            lam = rng.uniform(0.5, 2.0)
            eta = rng.uniform(0.4, 2.5)
            spec = LambdaSpec((lam,))
            metric = metric_from_iso(k_lambda(spec), named_family(
                spec, "diagonal_sym", eta=[eta], eta_check=[eta]))
            table = levi_civita(metric)
            lm = table.left_mult_of(e(spec, 0))
            r = curvature(table, e(spec, 0), e(spec, 2))
            got = (lm @ r - r @ lm) @ e(spec, 0)
            expected = (lam**3 / (8 * eta**3)) * (2 * eta - 1) * e(spec, 3)
            np.testing.assert_allclose(got, expected, atol=1e-10)


class TestFlatness:
    def test_bi_invariant_metric_is_not_flat(self, spec1):
        table = levi_civita(identity_metric(spec1))
        assert flatness_residual(table) > 0.1

    def test_random_lorentzian_metrics_are_not_flat(self, spec1, rng):
        for _ in range(50):
            metric = metric_from_iso(k_lambda(spec1),
                                     random_k_symmetric(spec1, rng, index=1))
            assert flatness_residual(levi_civita(metric)) > 1e-6

    def test_dim4_metrics_of_any_index_resist_flatness(self, spec1, rng):
        # evidence collection only: a zero here would falsify the run
        for _ in range(200):
            index = int(rng.integers(0, spec1.dim + 1))
            metric = metric_from_iso(k_lambda(spec1),
                                     random_k_symmetric(spec1, rng, index=index))
            assert flatness_residual(levi_civita(metric)) > 1e-6


class TestLocalSymmetry:
    def test_bi_invariant_metric_is_locally_symmetric(self, spec12):
        assert local_symmetry_residual(levi_civita(identity_metric(spec12))) <= 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.7])
    def test_diagonal_families_are_locally_symmetric(self, rho, rng):
        # both conditions, mixed per index, with and without the free rho
        for lams in [(1.0,), (1.0, 2.0)]:
            spec = LambdaSpec(lams)
            for _ in range(10):
                eta, etc = [], []
                for _ in range(spec.n):
                    h = rng.uniform(0.2, 2.2)
                    if rng.random() < 0.5:
                        while abs(1 - h) < 0.1:
                            h = rng.uniform(0.2, 2.2)
                        eta.append(h)
                        etc.append(1.0 - h)
                    else:
                        eta.append(h)
                        etc.append(h)
                metric = metric_from_iso(k_lambda(spec), named_family(
                    spec, "diagonal_sym", eta=eta, eta_check=etc, rho=rho))
                assert local_symmetry_residual(levi_civita(metric)) <= 1e-10

    def test_violating_both_conditions_breaks_local_symmetry(self, spec1):
        metric = metric_from_iso(k_lambda(spec1), named_family(
            spec1, "diagonal_sym", eta=[2.0], eta_check=[5.0]))
        assert local_symmetry_residual(levi_civita(metric)) > 1e-3


def dense_curvature_reference(table):
    """R[a, b] = L_{[e_a, e_b]} - [L_{e_a}, L_{e_b}] as two dense einsums;
    ``curvature_basis`` must give its values (zeros may differ in sign)."""
    B = basis_brackets(table.spec)
    M = table.coeffs.transpose(0, 2, 1)
    comm = np.einsum("aij,bjk->abik", M, M)
    return np.einsum("abc,cxy->abxy", B, M) - (comm - comm.transpose(1, 0, 2, 3))


def dense_locsym_reference(table, R=None):
    """The dense four-einsum form of the local-symmetry residual, over all
    basis triples, on the dense curvature or the given R;
    ``local_symmetry_residual`` must give its bits."""
    L, M = table.coeffs, table.left_mult
    R = dense_curvature_reference(table) if R is None else R
    lhs = np.einsum("zij,xyjk->zxyik", M, R) - np.einsum("xyij,zjk->zxyik", R, M)
    rhs = np.einsum("zxc,cyik->zxyik", L, R) + np.einsum("zyc,xcik->zxyik", L, R)
    return float(np.max(np.abs(lhs - rhs)))


_LAMBDA_POOL = (0.5, 1.0, 1.0, 1.5, 2.0, 3.0, 4.0)


def sample_table(n, kind, rng, lams=None):
    """A Levi-Civita table at n oscillators from one metric family:
    locally symmetric diagonal (conditions (a)/(b) mixed, rho = 0 or 0.9),
    generic diagonal, dense matrix (with or without a fixed centre line),
    or u1/u2 (``u1_dim4``/``u2_dim4`` at n = 1, their direct sums above).
    The frequencies are drawn unless ``lams`` is given."""
    if lams is None:
        lams = tuple(sorted(rng.choice(_LAMBDA_POOL, n)))
        if kind in ("u1", "u2"):
            lams = (1.0,) + tuple(sorted(rng.choice(_LAMBDA_POOL[1:], n - 1)))
    spec = LambdaSpec(lams)
    if kind in ("locsym", "locsym_rho"):
        eta = rng.uniform(0.2, 2.2, n) * rng.choice([-1.0, 1.0], n)
        etc = np.where(rng.random(n) < 0.5, 1.0 - eta, eta)
        iso = named_family(spec, "diagonal_sym", eta=eta, eta_check=etc,
                           rho=0.9 if kind == "locsym_rho" else 0.0)
    elif kind == "generic":
        iso = named_family(spec, "diagonal_sym", eta=rng.uniform(-2, 2, n),
                           eta_check=rng.uniform(-2, 2, n), rho=rng.uniform(-1, 1))
    elif kind in ("matrix", "matrix_center"):
        iso = random_k_symmetric(spec, rng, fix_center_line=kind == "matrix_center")
    elif n == 1:
        iso = named_family(spec, f"{kind}_dim4")
    else:
        blocks = [np.diag(rng.uniform(0.5, 2.0, 2)) + rng.uniform(-0.3, 0.3)
                  * (1 - np.eye(2)) for _ in range(n - 1)]
        iso = named_family(spec, "direct_sum", core=kind, blocks=blocks)
    return levi_civita(metric_from_iso(k_lambda(spec), iso))


_KINDS = ("locsym", "locsym_rho", "generic", "matrix", "matrix_center", "u1", "u2")


def pairwise_norms_reference(table):
    """``curvature_norms`` as a loop over the basis pairs a < b."""
    names, R = table.spec.basis_names, table.curvature
    return {f"R({names[a]},{names[b]})": float(np.max(np.abs(R[a, b])))
            for a in range(table.spec.dim) for b in range(a + 1, table.spec.dim)}


class TestLocalSymmetryResidualBits:
    """The curvature and the residual are taken on the nonzeros of their
    tensors only; these tests pin that they equal the dense formulas exactly."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_dense_formula(self, n, kind):
        rng = np.random.default_rng([n, _KINDS.index(kind)])
        for _ in range(3):
            table = sample_table(n, kind, rng)
            assert np.array_equal(curvature_basis(table), dense_curvature_reference(table))
            assert local_symmetry_residual(table) == dense_locsym_reference(table)
            norms = list(curvature_norms(table).items())
            assert norms == list(pairwise_norms_reference(table).items())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_curvature_is_exactly_antisymmetric(self, n):
        rng = np.random.default_rng(n)
        for kind in _KINDS:
            R = curvature_basis(sample_table(n, kind, rng))
            assert np.array_equal(R, -R.transpose(1, 0, 2, 3))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_flat_and_zero_tables(self, n):
        spec = LambdaSpec(tuple(float(j) for j in range(1, n + 1)))
        flat = affine_product(spec)
        zero = ConnTable(spec, np.zeros((spec.dim,) * 3))
        assert flatness_residual(flat) <= 1e-13
        for table in (flat, zero):
            assert local_symmetry_residual(table) == dense_locsym_reference(table)
        assert local_symmetry_residual(zero) == 0.0


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_non_finite_coefficient_gives_nan(self, n, value):
        # At every position, as the dense formulas do.
        base = sample_table(n, "generic", np.random.default_rng(n))
        with np.errstate(invalid="ignore", over="ignore"):
            for pos in np.ndindex(base.coeffs.shape):
                coeffs = base.coeffs.copy()
                coeffs[pos] = value
                table = ConnTable(base.spec, coeffs)
                assert math.isnan(flatness_residual(table))
                assert math.isnan(local_symmetry_residual(table))
                assert math.isnan(dense_locsym_reference(table))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_non_finite_curvature_entry_where_l_is_zero(self, n, value):
        # No L_z e_w has an e_-1 component on these metrics, so every slice
        # R(e_-1, e_y) meets only zeros of L: 0 * inf must still give NaN.
        rng = np.random.default_rng([n, 11])
        with np.errstate(invalid="ignore", over="ignore"):
            for kind in ("locsym", "locsym_rho", "generic"):
                base = sample_table(n, kind, rng)
                assert not base.coeffs[:, :, 0].any()
                for y in range(1, base.spec.dim):
                    i, k = rng.integers(base.spec.dim, size=2)
                    R = base.curvature.copy()
                    R[0, y, i, k], R[y, 0, i, k] = value, -value
                    table = ConnTable(base.spec, base.coeffs, base.metric)
                    table.__dict__["curvature"] = R  # what the cached property would hold
                    got, want = local_symmetry_residual(table), dense_locsym_reference(table, R)
                    assert got == want or (math.isnan(got) and math.isnan(want))

    def test_inf_where_l_is_zero_gives_nan_not_inf(self):
        # L_{e_1} e_2 = ec_1 alone, and R(e_-1, e_0) = inf at (e_2, ec_1): every
        # product a cut kernel keeps is inf, and the dense formula has 0 * inf.
        spec = LambdaSpec((1.0, 2.0, 3.0))
        L = np.zeros((spec.dim,) * 3)
        L[2, 3, 5] = 1.0
        R = np.zeros((spec.dim,) * 4)
        R[0, 1, 3, 5], R[1, 0, 3, 5] = math.inf, -math.inf
        table = ConnTable(spec, L)
        table.__dict__["curvature"] = R
        with np.errstate(invalid="ignore"):
            assert math.isnan(dense_locsym_reference(table, R))
            assert math.isnan(local_symmetry_residual(table))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_no_dense_commutator_or_whole_t3_rows(self, n, monkeypatch):
        # The connection_report_n6 metric, cut to its first n oscillators.  A
        # dense kernel built the commutator as (d, k, d, d) and R(L_z e_w, .)
        # as (rows, d, d, d).
        spec = LambdaSpec((1.0, 1.5, 2.0, 2.5, 3.0, 4.0)[:n])
        table = levi_civita(metric_from_iso(k_lambda(spec), named_family(
            spec, "diagonal_sym", eta=[0.4, 1.3, 0.7, 2.1, 0.9, 1.6][:n],
            eta_check=[0.6, 0.5, 1.9, 0.8, -1.2, 0.3][:n])))
        table.curvature
        shapes, einsum = [], np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kw: shapes.append(
            (out := einsum(*args, **kw)).shape) or out)
        local_symmetry_residual(table)
        assert shapes and max(map(len, shapes)) == 3

    def test_transient_memory_at_n6(self):
        # The connection_report_n6 metric: 399 of its 1,274 (z, x < y)
        # blocks can be nonzero; gathering all of them took 4.85 MB.
        spec = LambdaSpec((1.0, 1.5, 2.0, 2.5, 3.0, 4.0))
        table = levi_civita(metric_from_iso(k_lambda(spec), named_family(
            spec, "diagonal_sym", eta=[0.4, 1.3, 0.7, 2.1, 0.9, 1.6],
            eta_check=[0.6, 0.5, 1.9, 0.8, -1.2, 0.3])))
        table.curvature
        tracemalloc.start()
        try:
            local_symmetry_residual(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_transient_memory_on_a_dense_n6_table(self):
        # A dense matrix metric keeps about 2,700 live slices R(e_c, e_y) at
        # d = 14: gathered in one piece they took 60 MB, and the call 69 MB.
        table = sample_table(6, "matrix", np.random.default_rng(5))
        table.curvature
        tracemalloc.start()
        try:
            local_symmetry_residual(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6


class TestCurvatureCache:
    def test_table_curvature_is_read_only_and_equals_the_basis_tensor(self, spec12, rng):
        table = levi_civita(metric_from_iso(k_lambda(spec12),
                                            random_k_symmetric(spec12, rng)))
        R = table.curvature
        assert R is table.curvature and not R.flags.writeable
        np.testing.assert_array_equal(R, curvature_basis(table))

    def test_connection_report_computes_the_curvature_once(self, spec12, rng, monkeypatch):
        import osclab.connection as connection

        calls = []

        def counted(table):
            calls.append(table)
            return curvature_basis(table)

        monkeypatch.setattr(connection, "curvature_basis", counted)
        connection_report(levi_civita(metric_from_iso(k_lambda(spec12),
                                                      random_k_symmetric(spec12, rng))))
        assert len(calls) == 1


class TestAffineProduct:
    def test_product_values(self, spec12):
        prod = affine_product(spec12)
        np.testing.assert_allclose(prod.product(e(spec12, 2), e(spec12, 4)),
                                   0.5 * e(spec12, 1), atol=1e-15)
        assert np.all(prod.product(e(spec12, 2), e(spec12, 0)) == 0.0)
        np.testing.assert_allclose(prod.product(e(spec12, 0), e(spec12, 2)),
                                   1.0 * e(spec12, 4), atol=1e-15)

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, np.sqrt(2.0), 3.0)])
    def test_left_symmetric_and_flat(self, lams):
        prod = affine_product(LambdaSpec(lams))
        assert associator_symmetry_residual(prod) <= 1e-13
        assert torsion_residual(prod) == 0.0
        assert flatness_residual(prod) <= 1e-13

    def test_right_multiplications_are_nilpotent(self, spec1, rng):
        prod = affine_product(spec1)
        for a in range(spec1.dim):
            m = prod.right_mult_of(e(spec1, a))
            assert np.max(np.abs(np.linalg.matrix_power(m, 4))) <= 1e-13
        assert right_mult_nilpotency_residual(prod) <= 1e-12


def test_connection_report_keys(spec1):
    rep = connection_report(levi_civita(identity_metric(spec1)))
    assert set(rep) == {"torsion_residual", "compat_residual",
                        "flatness_residual", "locsym_residual", "curvature_norms"}
    assert rep["locsym_residual"] <= 1e-12
    assert rep["curvature_norms"]["R(e_-1,e_1)"] > 0.1


def test_connection_report_task_solves_the_koszul_system_once(capsys, monkeypatch):
    import osclab.cli as cli
    import osclab.connection as connection

    calls = []

    def counted(metric):
        calls.append(metric)
        return levi_civita(metric)

    monkeypatch.setattr(cli, "levi_civita", counted)
    monkeypatch.setattr(connection, "levi_civita", counted)
    assert cli.main(["connection-report", "--lambda", "1,2", "--metric",
                     '{"kind":"diagonal_sym","eta":[0.4,1.1],"eta_check":[0.6,1.1]}']) == 0
    capsys.readouterr()
    assert len(calls) == 1


def old_closed_form_L(metric, x):
    """``closed_form_L`` on one element as written before it took stacks."""
    spec, u, uinv = metric.spec, metric.iso.matrix, metric.iso.inv
    adx, adux = ad(spec, x), ad(spec, u @ x)
    return 0.5 * (adx - uinv @ adux + uinv @ adx @ u)


def closed_form_residual_reference(table, seed):
    """``connection-report``'s closed_form residual as the loop over ten
    single draws it was before the check took one stack."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(table.spec.dim)
        worst = max(worst, float(np.max(np.abs(
            np.einsum("a,abc->cb", x, table.coeffs) - old_closed_form_L(table.metric, x)))))
    return worst


_STACK_KINDS = ("locsym", "generic", "matrix", "u1", "u2")


class TestStackedClosedForm:
    """``closed_form_L``, ``left_mult_of`` and ``right_mult_of`` on an (N, d)
    stack give, row by row, the bits of the single-element calls; n = 1 takes the u1_dim4 and
    u2_dim4 metrics, n > 1 their direct sums."""

    @pytest.mark.parametrize("repeated", [False, True], ids=["sampled", "repeated"])
    @pytest.mark.parametrize("kind", _STACK_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_equal_single_calls(self, n, kind, repeated):
        rng = np.random.default_rng([25, n, _STACK_KINDS.index(kind), repeated])
        table = sample_table(n, kind, rng, lams=(1.0,) * n if repeated else None)
        X = rng.standard_normal((20, table.spec.dim))
        stack_l, stack_c = table.left_mult_of(X), closed_form_L(table.metric, X)
        assert stack_l.shape == stack_c.shape == (20, table.spec.dim, table.spec.dim)
        for x, row_l, row_c in zip(X, stack_l, stack_c):
            np.testing.assert_array_equal(row_l, table.left_mult_of(x))
            np.testing.assert_array_equal(row_l, np.einsum("a,abc->cb", x, table.coeffs))
            np.testing.assert_array_equal(row_c, closed_form_L(table.metric, x))
            np.testing.assert_array_equal(row_c, old_closed_form_L(table.metric, x))
        for y, row_r in zip(X, table.right_mult_of(X)):
            np.testing.assert_array_equal(row_r, np.einsum("b,abc->ca", y, table.coeffs))

    def test_leading_axes_broadcast(self, rng):
        table = sample_table(3, "matrix", rng)
        X = rng.standard_normal((2, 3, table.spec.dim))
        flat = closed_form_L(table.metric, X.reshape(6, -1))
        np.testing.assert_array_equal(closed_form_L(table.metric, X).reshape(flat.shape), flat)
        np.testing.assert_array_equal(table.left_mult_of(X).reshape(flat.shape),
                                      table.left_mult_of(X.reshape(6, -1)))

    def test_wrong_last_axis_is_a_dimension_mismatch(self, spec12):
        from osclab.algebra import DimensionMismatch

        table = levi_civita(identity_metric(spec12))
        with pytest.raises(DimensionMismatch):
            closed_form_L(table.metric, np.zeros((3, 4)))
        with pytest.raises(DimensionMismatch):
            table.left_mult_of(np.zeros((3, 4)))

    @pytest.mark.parametrize("kind", _STACK_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_report_residual_equals_the_per_sample_loop(self, capsys, n, kind):
        import json

        import osclab.cli as cli

        rng = np.random.default_rng([251, n, _STACK_KINDS.index(kind)])
        sampled = sample_table(n, kind, rng)
        lam = ",".join(repr(v) for v in sampled.spec.lambdas)
        desc = json.dumps({"kind": "matrix", "rows": sampled.metric.iso.matrix.tolist()})
        seed = int(rng.integers(2**31))
        assert cli.main(["connection-report", "--lambda", lam, "--seed", str(seed),
                         "--metric", desc]) in (0, 1)
        rep = json.loads(capsys.readouterr().out)
        got = [c["residual"] for c in rep["checks"] if c["name"] == "closed_form"]
        table = levi_civita(cli._parse_metric(LambdaSpec(sampled.spec.lambdas), desc))
        assert got == [closed_form_residual_reference(table, seed)]
