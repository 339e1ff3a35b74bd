"""Levi-Civita product, curvature, and the flat left-symmetric product.

Both are one type, ``ConnTable``: a left-invariant product with torsion
L_x y - L_y x - [x, y].  The Levi-Civita product is computed at algebra
level from the Koszul identity

    k_u(L_x y, z) = 1/2 (k_u([x,y],z) - k_u([y,z],x) + k_u([z,x],y)),

stored as a rank-3 coefficient array L[a,b,c] with L_{e_a} e_b = sum_c
L[a,b,c] e_c.

Curvature sign convention: R(x,y) = L_{[x,y]} - [L_x, L_y]. The opposite
sign is common elsewhere; this one makes R(x,y) = 1/4 ad_{[x,y]} for the
bi-invariant metric (u = id).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .algebra import LambdaSpec, _as_elem, ad, basis_brackets, bracket
from .metrics import Metric


@dataclass(frozen=True)
class ConnTable:
    """A left-invariant product as a coefficient array; the Levi-Civita
    product carries its metric, the flat left-symmetric product has none."""

    spec: LambdaSpec
    coeffs: np.ndarray  # L[a, b, c]
    metric: Metric | None = None

    @cached_property
    def left_mult(self) -> np.ndarray:
        """M[a] = matrix of L_{e_a} (columns indexed by the argument)."""
        m = np.ascontiguousarray(self.coeffs.transpose(0, 2, 1))
        m.setflags(write=False)
        return m

    @cached_property
    def curvature(self) -> np.ndarray:
        """Read-only R[a, b] = R(e_a, e_b), computed once per table."""
        R = curvature_basis(self)
        R.setflags(write=False)
        return R

    def left_mult_of(self, x) -> np.ndarray:
        """Matrix of L_x for an arbitrary element x."""
        x = _as_elem(self.spec, x)
        return np.einsum("a,abc->cb", x, self.coeffs)

    def right_mult_of(self, y) -> np.ndarray:
        """Matrix of x -> L_x y."""
        y = _as_elem(self.spec, y)
        return np.einsum("b,abc->ca", y, self.coeffs)

    def product(self, x, y) -> np.ndarray:
        """L_x y."""
        x, y = _as_elem(self.spec, x), _as_elem(self.spec, y)
        return np.einsum("a,abc,b->c", x, self.coeffs, y)


def levi_civita(metric: Metric) -> ConnTable:
    """Solve the Koszul linear system for every basis pair.

    One LU factorization of the k_u Gram matrix is shared by all
    right-hand sides.
    """
    spec = metric.spec
    B = basis_brackets(spec)
    gram = metric.gram_u
    # K[a, b, z] = k_u([e_a, e_b], e_z)
    K = np.einsum("abk,kz->abz", B, gram)
    rhs = 0.5 * (K - K.transpose(2, 0, 1) + K.transpose(1, 2, 0))
    lu = scipy.linalg.lu_factor(gram)
    flat = rhs.reshape(spec.dim * spec.dim, spec.dim).T
    coeffs = scipy.linalg.lu_solve(lu, flat).T.reshape(spec.dim, spec.dim, spec.dim)
    coeffs.setflags(write=False)
    return ConnTable(spec, coeffs, metric)


def torsion_residual(table: ConnTable) -> float:
    """max |L_x y - L_y x - [x, y]| over basis pairs."""
    B = basis_brackets(table.spec)
    r = table.coeffs - table.coeffs.transpose(1, 0, 2) - B
    return float(np.max(np.abs(r)))


def compatibility_residual(table: ConnTable) -> float:
    """max |k_u(L_x y, z) + k_u(y, L_x z)| over basis triples."""
    gram = table.metric.gram_u
    t = np.einsum("abk,kc->abc", table.coeffs, gram)
    return float(np.max(np.abs(t + t.transpose(0, 2, 1))))


def closed_form_L(metric: Metric, x) -> np.ndarray:
    """Matrix of L_x via 1/2 (ad_x - u^-1 ad_{u(x)} + u^-1 ad_x u).

    Valid whenever the base form is the bi-invariant one; must agree with
    the Koszul table columns.
    """
    spec = metric.spec
    x = _as_elem(spec, x)
    u = metric.iso.matrix
    uinv = metric.iso.inv
    adx = ad(spec, x)
    adux = ad(spec, u @ x)
    return 0.5 * (adx - uinv @ adux + uinv @ adx @ u)


def curvature(table: ConnTable, x, y) -> np.ndarray:
    """The matrix of R(x, y) = L_{[x,y]} - [L_x, L_y]."""
    spec = table.spec
    x, y = _as_elem(spec, x), _as_elem(spec, y)
    mx, my = table.left_mult_of(x), table.left_mult_of(y)
    mbr = table.left_mult_of(bracket(spec, x, y))
    return mbr - (mx @ my - my @ mx)


def curvature_basis(table: ConnTable) -> np.ndarray:
    """R[a, b] over all basis pairs."""
    B = basis_brackets(table.spec)
    M = table.coeffs.transpose(0, 2, 1)
    l_br = np.einsum("abc,cxy->abxy", B, M)
    comm = np.einsum("aij,bjk->abik", M, M)
    comm = comm - comm.transpose(1, 0, 2, 3)
    return l_br - comm


def flatness_residual(table: ConnTable) -> float:
    """max-entry norm of R(e_a, e_b) over all basis pairs; 0 means flat."""
    return float(np.max(np.abs(table.curvature)))


def curvature_norms(table: ConnTable) -> dict[str, float]:
    """Per basis pair a < b, the max-entry norm of R(e_a, e_b)."""
    spec = table.spec
    R = table.curvature
    names = spec.basis_names
    out = {}
    for a in range(spec.dim):
        for b in range(a + 1, spec.dim):
            out[f"R({names[a]},{names[b]})"] = float(np.max(np.abs(R[a, b])))
    return out


def local_symmetry_residual(table: ConnTable) -> float:
    """max residual of [L_z, R(x,y)] = R(L_z x, y) + R(x, L_z y) over basis triples.

    Each entry has, up to sign, the bits of the dense formula

        lhs = einsum("zij,xyjk->zxyik", M, R) - einsum("xyij,zjk->zxyik", R, M)
        rhs = einsum("zxc,cyik->zxyik", L, R) + einsum("zyc,xcik->zxyik", L, R)

    at less cost.  R(e_y, e_x) = -R(e_x, e_y) bit for bit, so the entry at
    (z, y, x) is minus the one at (z, x, y) and zero at x = y: only x < y is
    evaluated, and R(x, L_z y) is -R(L_z y, x).  A zero slice on an axis that
    is not summed gives exact zeros, so lhs is taken only where
    R(e_x, e_y) != 0 and R(L_z e_w, .) only where L_z e_w != 0.  No summed
    axis is cut, so einsum sums each computed entry in the same order.
    """
    d = table.spec.dim
    L, M, R = table.coeffs, table.left_mult, table.curvature
    x, y = np.triu_indices(d, 1)
    # t3[row[z, w]] = R(L_z e_w, .), with a last zero row where L_z e_w = 0.
    z, w = np.nonzero(L.any(axis=2))
    row = np.full((d, d), len(z))
    row[z, w] = np.arange(len(z))
    t3 = np.zeros((len(z) + 1, d, d, d))
    t3[:-1] = np.einsum("pc,cyik->pyik", L[z, w], R)
    res = t3[row[:, x], y] - t3[row[:, y], x]
    nz = np.flatnonzero(R[x, y].any(axis=(1, 2)))
    rp = R[x[nz], y[nz]]
    res[:, nz] -= np.einsum("zij,pjk->zpik", M, rp) - np.einsum("pij,zjk->zpik", rp, M)
    return float(np.max(np.abs(res), initial=0.0))


def affine_product(spec: LambdaSpec) -> ConnTable:
    """The complete flat left-invariant product:

    r(x, y) = 1/2 [x, y] on the derived ideal, r(e_-1, y) = [e_-1, y],
    r(., e_-1) = 0. Its skew part is the bracket, its associator is
    symmetric in the first two slots, and right multiplications are
    nilpotent, so the induced connection is flat and complete.
    """
    B = basis_brackets(spec)
    r = 0.5 * B
    r[0, :, :] = B[0, :, :]
    r[:, 0, :] = 0.0
    r.setflags(write=False)
    return ConnTable(spec, r)


def associator_symmetry_residual(prod: ConnTable) -> float:
    """max |A(x,y,z) - A(y,x,z)| with A(x,y,z) = r(x, r(y,z)) - r(r(x,y), z)."""
    r = prod.coeffs
    a1 = np.einsum("bcm,amk->abck", r, r)
    a2 = np.einsum("abm,mck->abck", r, r)
    assoc = a1 - a2
    return float(np.max(np.abs(assoc - assoc.transpose(1, 0, 2, 3))))


def right_mult_nilpotency_residual(prod: ConnTable, seed: int = 0) -> float:
    """max |R_y^dim| over basis vectors and ten random y; 0 certifies completeness."""
    spec = prod.spec
    rng = np.random.default_rng(seed)
    worst = 0.0
    ys = [np.eye(spec.dim)[a] for a in range(spec.dim)]
    ys += [rng.standard_normal(spec.dim) for _ in range(10)]
    for y in ys:
        m = prod.right_mult_of(y)
        worst = max(worst, float(np.max(np.abs(np.linalg.matrix_power(m, spec.dim)))))
    return worst


def connection_report(table: ConnTable) -> dict:
    """Residual summary of a Levi-Civita table, used by the CLI."""
    return {
        "torsion_residual": torsion_residual(table),
        "compat_residual": compatibility_residual(table),
        "flatness_residual": flatness_residual(table),
        "locsym_residual": local_symmetry_residual(table),
        "curvature_norms": curvature_norms(table),
    }
