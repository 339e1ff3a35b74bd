import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_basis_brackets
from osclab.algebra import (DimensionMismatch, LambdaSpec, ad, basis_brackets,
                            basis_vector, bracket, cartan, center, derived_ideal,
                            jacobi_residual, ker_ad)


def e(spec, i):
    return basis_vector(spec, i)


class TestLambdaSpec:
    def test_blocks_group_equal_frequencies(self):
        spec = LambdaSpec((1.0, 1.0, 2.0))
        assert spec.blocks == ((1.0, 2), (2.0, 1))
        assert spec.block_indices == ((1, 2), (3,))
        assert spec.n == 3 and spec.dim == 8

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError, match="positive"):
            LambdaSpec((0.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            LambdaSpec((-1.0,))
        with pytest.raises(ValueError, match="non-decreasing"):
            LambdaSpec((2.0, 1.0))

    # n = 1..6, with repeated, irrational and widely spread frequencies.
    @pytest.mark.parametrize("lams", [
        (1.0,), (2.0, 2.0), (1.0, math.sqrt(2.0), math.sqrt(2.0)),
        (0.5, 1.0, 1.0, math.pi), (1.0, 1.0, 1.0, 2.0, 3.0),
        (1e-3, 0.5, 1.0, 1.0, 2.0, 1e3)])
    def test_basis_brackets_equal_the_paper_table(self, lams):
        spec = LambdaSpec(lams)
        assert basis_brackets(spec).tobytes() == paper_basis_brackets(spec).tobytes()


class TestBracket:
    def test_structure_constants_lambda1(self, spec1):
        # [e_-1, e_1] = ec_1 and [e_1, ec_1] = e_0
        np.testing.assert_array_equal(bracket(spec1, e(spec1, 0), e(spec1, 2)),
                                      e(spec1, 3))
        np.testing.assert_array_equal(bracket(spec1, e(spec1, 2), e(spec1, 3)),
                                      e(spec1, 1))

    def test_lambda_scales_the_rotation(self):
        spec = LambdaSpec((2.0,))
        np.testing.assert_array_equal(bracket(spec, e(spec, 0), e(spec, 3)),
                                      -2.0 * e(spec, 2))

    def test_self_bracket_vanishes(self, spec12, rng):
        x = rng.standard_normal(spec12.dim)
        assert np.all(bracket(spec12, x, x) == 0.0)

    def test_antisymmetry_is_exact(self, spec112, rng):
        for _ in range(50):
            x, y = rng.standard_normal((2, spec112.dim))
            lhs = bracket(spec112, x, y)
            rhs = bracket(spec112, y, x)
            assert np.all(lhs + rhs == 0.0)

    def test_rejects_mixed_specs(self, spec1, spec12):
        with pytest.raises(DimensionMismatch):
            bracket(spec1, e(spec1, 0), e(spec12, 0))

    @given(st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_jacobi_for_any_size(self, n, seed):
        gen = np.random.default_rng(seed)
        lams = np.sort(gen.uniform(0.3, 4.0, size=n))
        spec = LambdaSpec(tuple(lams))
        x, y, z = gen.standard_normal((3, spec.dim))
        x, y, z = (v / np.linalg.norm(v) for v in (x, y, z))
        assert jacobi_residual(spec, x, y, z) <= 1e-12

    def test_jacobi_on_basis_triples(self, spec12):
        worst = max(jacobi_residual(spec12, e(spec12, a), e(spec12, b), e(spec12, c))
                    for a in range(6) for b in range(6) for c in range(6))
        assert worst <= 1e-13

    def test_jacobi_irrational_frequencies(self, rng):
        spec = LambdaSpec((1.0, np.sqrt(2.0), 3.0))
        worst = 0.0
        for _ in range(100):
            x, y, z = rng.standard_normal((3, spec.dim))
            worst = max(worst, jacobi_residual(spec, x, y, z))
        assert worst <= 1e-12


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


def random_spec(n, gen):
    return LambdaSpec(tuple(np.sort(gen.uniform(0.3, 4.0, size=n))))


def reference_bracket(spec, x, y):
    """The single-element closed form, with 1-D dot products."""
    n, lam = spec.n, spec.lam
    x1, xc, y1, yc = x[2:2 + n], x[2 + n:], y[2:2 + n], y[2 + n:]
    out = np.zeros(spec.dim)
    out[1] = x1 @ yc - xc @ y1
    out[2:2 + n] = -lam * (x[0] * yc - y[0] * xc)
    out[2 + n:] = lam * (x[0] * y1 - y[0] * x1)
    return out


class TestStackedBracket:
    @pytest.mark.parametrize("rows", [1, 7, 1000])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_stack_equals_per_row_brackets(self, n, rows):
        gen = np.random.default_rng(1000 * n + rows)
        spec = random_spec(n, gen)
        x, y = gen.standard_normal((2, rows, spec.dim))
        want = np.array([reference_bracket(spec, a, b) for a, b in zip(x, y)])
        np.testing.assert_array_equal(bracket(spec, x, y), want)
        assert_same_bits(bracket(spec, x, y), want)
        assert_same_bits(np.array([bracket(spec, a, b) for a, b in zip(x, y)]), want)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_single_element_broadcasts_against_a_stack(self, n):
        gen = np.random.default_rng(n)
        spec = random_spec(n, gen)
        x, ys = gen.standard_normal(spec.dim), gen.standard_normal((4, 5, spec.dim))
        got = bracket(spec, x, ys)
        assert got.shape == (4, 5, spec.dim)
        want = np.array([[reference_bracket(spec, x, y) for y in row] for row in ys])
        assert_same_bits(got, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_antisymmetry_is_exact_on_stacks(self, n):
        gen = np.random.default_rng(n)
        spec = random_spec(n, gen)
        x, y = gen.standard_normal((2, 500, spec.dim))
        np.testing.assert_array_equal(bracket(spec, y, x), -bracket(spec, x, y))

    def test_jacobi_residual_is_the_max_over_rows(self, spec112, rng):
        x, y, z = rng.standard_normal((3, 300, spec112.dim))
        want = max(jacobi_residual(spec112, a, b, c) for a, b, c in zip(x, y, z))
        assert jacobi_residual(spec112, x, y, z) == want

    def test_mismatched_last_axis_raises(self, spec1, spec12, rng):
        with pytest.raises(DimensionMismatch):
            bracket(spec1, rng.standard_normal((5, spec1.dim)),
                    rng.standard_normal((5, spec12.dim)))
        with pytest.raises(DimensionMismatch):
            bracket(spec12, rng.standard_normal((3, spec12.dim + 1)),
                    rng.standard_normal(spec12.dim))
        with pytest.raises(DimensionMismatch):
            bracket(spec1, 1.0, e(spec1, 0))


class TestAdjoint:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ad_equals_the_column_stacked_basis_brackets(self, n):
        gen = np.random.default_rng(n)
        spec = random_spec(n, gen)
        x = gen.standard_normal(spec.dim)
        cols = [reference_bracket(spec, x, e(spec, b)) for b in range(spec.dim)]
        got = ad(spec, x)
        assert_same_bits(got, np.column_stack(cols))
        assert got.flags.c_contiguous

    def test_ad_takes_a_single_element_only(self, spec12, rng):
        with pytest.raises(DimensionMismatch):
            ad(spec12, rng.standard_normal((1, spec12.dim)))

    def test_center_element_acts_trivially(self, spec12):
        assert np.all(ad(spec12, e(spec12, 1)) == 0.0)

    def test_ad_e_minus_one_is_a_rotation_generator(self, spec1):
        m = ad(spec1, e(spec1, 0))
        np.testing.assert_array_equal(m @ e(spec1, 2), e(spec1, 3))
        np.testing.assert_array_equal(m @ e(spec1, 3), -e(spec1, 2))

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0, 3.0), (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)])
    def test_ad_of_a_basis_vector_is_a_slice_of_the_table(self, lams):
        spec = LambdaSpec(lams)
        for a in range(spec.dim):
            assert np.all(ad(spec, e(spec, a)) == spec.basis_brackets[a].T)

    def test_ad_annihilates_its_argument(self, spec112, rng):
        x = rng.standard_normal(spec112.dim)
        assert np.max(np.abs(ad(spec112, x) @ x)) <= 1e-13


class TestSubspaces:
    def test_distinguished_dimensions(self, spec12):
        assert center(spec12).dim == 1
        assert derived_ideal(spec12).dim == 2 * spec12.n + 1
        assert cartan(spec12).dim == 2

    def test_center_is_spanned_by_e0(self, spec112):
        c = center(spec112)
        assert c.contains(e(spec112, 1))
        assert not c.contains(e(spec112, 0))

    def test_cartan_is_the_kernel_of_ad_e_minus_one(self, spec1):
        c = cartan(spec1)
        assert c.contains(e(spec1, 0)) and c.contains(e(spec1, 1))
        assert not c.contains(e(spec1, 2))
        k = ker_ad(spec1, e(spec1, 0))
        assert k.dim == 2

    def test_center_inside_derived_inside_algebra(self, spec112):
        c, d = center(spec112), derived_ideal(spec112)
        for col in c.basis.T:
            assert d.contains(col)

    def test_derived_ideal_brackets_into_center(self, spec112, rng):
        d, c = derived_ideal(spec112), center(spec112)
        for _ in range(20):
            x = d.project(rng.standard_normal(spec112.dim))
            y = d.project(rng.standard_normal(spec112.dim))
            assert c.contains(bracket(spec112, x, y), tol=1e-10)

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0), (1.0, 1.0, 2.0), (1.0, 2.0, 2.0, 3.0),
                                      (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)])
    def test_table_subspaces_match_the_stacked_ad_construction(self, lams):
        # Reference: every ad(e_a) stacked, with a full SVD of each stack.
        spec = LambdaSpec(lams)
        ads = [ad(spec, e(spec, a)) for a in range(spec.dim)]

        def null_space(m):
            _, s, vt = np.linalg.svd(m)
            return vt[int(np.sum(s > 1e-10 * s[0])):].T

        def column_space(m):
            u, s, _ = np.linalg.svd(m)
            return u[:, :int(np.sum(s > 1e-10 * s[0]))]

        refs = (null_space(np.vstack(ads)), column_space(np.hstack(ads)), null_space(ads[0]))
        got = (center(spec), derived_ideal(spec), cartan(spec))
        assert [g.dim for g in got] == [r.shape[1] for r in refs] == [1, 2 * spec.n + 1, 2]
        for g, r in zip(got, refs):
            np.testing.assert_allclose(g.basis @ g.basis.T, r @ r.T, rtol=0, atol=1e-12)
