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

from .algebra import LambdaSpec, _as_elem, _as_stack, basis_brackets, bracket
from .metrics import Metric

# local_symmetry_residual gathers R(e_c, e_y) at most this many bytes at a time: a dense
# n = 6 table has about 2,700 live slices (60 MB), a diagonal_sym one at most 24 (0.53
# MB at d = 14, one chunk), and 256 KB chunks made a dense n = 6 call about 1.7x slower.
_GATHER_BYTES = 8 << 20


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
        """Matrix of L_x for an element or a stack of elements x, shape
        ``(..., d)``; each row has the bits of the single-element call."""
        x = _as_stack(self.spec, x)
        return np.einsum("...a,abc->...cb", x, self.coeffs)

    def right_mult_of(self, y) -> np.ndarray:
        """Matrix of x -> L_x y, for y of shape ``(..., d)`` as in ``left_mult_of``."""
        y = _as_stack(self.spec, y)
        return np.einsum("...b,abc->...ca", y, self.coeffs)

    def product(self, x, y) -> np.ndarray:
        """L_x y."""
        x, y = _as_elem(self.spec, x), _as_elem(self.spec, y)
        return np.einsum("a,abc,b->c", x, self.coeffs, y)


def levi_civita(metric: Metric) -> ConnTable:
    """Solve the Koszul linear system for every basis pair.

    One ``np.linalg.solve`` with the k_u Gram matrix covers all d^2
    right-hand sides.
    """
    spec = metric.spec
    B = basis_brackets(spec)
    gram = metric.gram_u
    # K[a, b, z] = k_u([e_a, e_b], e_z)
    K = np.einsum("abk,kz->abz", B, gram)
    rhs = 0.5 * (K - K.transpose(2, 0, 1) + K.transpose(1, 2, 0))
    flat = rhs.reshape(spec.dim * spec.dim, spec.dim).T
    coeffs = np.linalg.solve(gram, flat).T.reshape(spec.dim, spec.dim, spec.dim)
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
    the Koszul table columns.  x is an element or a stack, shape ``(..., d)``;
    each row has the bits of the single-element call (ad as in ``algebra.ad``,
    u x by gemv).
    """
    spec = metric.spec
    x = _as_stack(spec, x)
    u = metric.iso.matrix
    uinv = metric.iso.inv
    eye = np.eye(spec.dim)
    adx, adux = (np.ascontiguousarray(bracket(spec, v[..., None, :], eye).swapaxes(-1, -2))
                 for v in (x, (u @ x[..., None])[..., 0]))
    return 0.5 * (adx - uinv @ adux + uinv @ adx @ u)


def curvature(table: ConnTable, x, y) -> np.ndarray:
    """The matrix of R(x, y) = L_{[x,y]} - [L_x, L_y]."""
    spec = table.spec
    x, y = _as_elem(spec, x), _as_elem(spec, y)
    mx, my = table.left_mult_of(x), table.left_mult_of(y)
    mbr = table.left_mult_of(bracket(spec, x, y))
    return mbr - (mx @ my - my @ mx)


def curvature_basis(table: ConnTable) -> np.ndarray:
    """R[a, b] over all basis pairs.

    [e_a, e_b] has one nonzero coefficient B[a, b, c] at most, so L_{[e_a, e_b]}
    is a scatter of B[a, b, c] M[c], equal to the dense einsum over c except
    for the sign of exact zeros."""
    M = table.coeffs.transpose(0, 2, 1)
    comm = np.einsum("aij,bjk->abik", M, M)
    R = comm.transpose(1, 0, 2, 3) - comm
    a, b, c, value = table.spec.bracket_support
    R[a, b] += value[:, None, None] * M[c]
    return R


def flatness_residual(table: ConnTable) -> float:
    """max-entry norm of R(e_a, e_b) over all basis pairs; 0 means flat."""
    return float(np.max(np.abs(table.curvature)))


def curvature_norms(table: ConnTable) -> dict[str, float]:
    """Per basis pair a < b, the max-entry norm of R(e_a, e_b)."""
    names = table.spec.basis_names
    a, b = table.spec.basis_pairs
    norms = np.max(np.abs(table.curvature[a, b]), axis=(1, 2))
    return {f"R({names[i]},{names[j]})": v for i, j, v in zip(a, b, norms.tolist())}


def local_symmetry_residual(table: ConnTable) -> float:
    """max residual of [L_z, R(x,y)] = R(L_z x, y) + R(x, L_z y) over basis triples.

    The reference is the dense formula, max |lhs - rhs| with

        lhs = einsum("zij,xyjk->zxyik", M, R) - einsum("xyij,zjk->zxyik", R, M)
        rhs = einsum("zxc,cyik->zxyik", L, R) + einsum("zyc,xcik->zxyik", L, R),

    which a table with a non-finite L or R gets as written (0 * inf gives NaN).
    A finite table gets each entry's bits, up to sign, at less cost.
    R(e_y, e_x) = -R(e_x, e_y) bit for bit, so only x < y is evaluated, and
    R(x, L_z y) is -R(L_z y, x).  An entry whose products are all zero is zero:
    R(L_z e_w, e_y) is taken only where some L_z e_w[c] R(e_c, e_y) != 0, and lhs
    only where R(e_x, e_y) != 0, with M_z R(e_x, e_y) and R(e_x, e_y) M_z only on
    the rows and columns where M_z != 0, into one zero array (lhs is still
    fl(t1 - t2)).  No summed axis is cut, so einsum sums each computed entry in
    the same order.
    """
    d = table.spec.dim
    L, M, R = table.coeffs, table.left_mult, table.curvature
    if not (np.isfinite(L).all() and np.isfinite(R).all()):
        lhs = np.einsum("zij,xyjk->zxyik", M, R) - np.einsum("xyij,zjk->zxyik", R, M)
        rhs = np.einsum("zxc,cyik->zxyik", L, R) + np.einsum("zyc,xcik->zxyik", L, R)
        return float(np.max(np.abs(lhs - rhs)))
    rnz = R.any(axis=(2, 3))
    z, w = np.nonzero(L.any(axis=2))
    live3 = np.zeros((d, d, d), bool)
    live3[z, w] = (L[z, w] != 0).astype(float) @ rnz.astype(float) > 0
    zs, ws, ys = np.nonzero(live3)
    slot = np.full((d, d, d), len(zs))  # t3[slot[z, w, y]] = R(L_z e_w, e_y), or 0
    slot[zs, ws, ys] = np.arange(len(zs))
    t3 = np.zeros((len(zs) + 1, d, d))
    step = max(1, _GATHER_BYTES // R[:, 0].nbytes)
    for a in range(0, len(zs), step):
        s = slice(a, a + step)
        t3[:-1][s] = np.einsum("sc,csik->sik", L[zs[s], ws[s]], np.take(R, ys[s], axis=1))
    # The k pairs with R(e_x, e_y) != 0 go first; live at every z, they fill res[:k d].
    x, y = table.spec.basis_pairs
    pnz = rnz[x, y]
    order, k = np.argsort(~pnz, kind="stable"), np.count_nonzero(pnz)
    x, y = x[order], y[order]
    live = live3[:, x, y] | live3[:, y, x]
    live[:, :k] = True
    bp, bz = np.nonzero(live.T)
    res = t3[slot[bz, x[bp], y[bp]]]
    res -= t3[slot[bz, y[bp], x[bp]]]
    rp = R[x[:k], y[:k]]
    lhs = np.zeros((k, d, d, d))
    zr, ir = np.nonzero(L.any(axis=1))
    lhs[:, zr, ir] = np.einsum("rj,pjk->rpk", M[zr, ir], rp).transpose(1, 0, 2)
    lhs[:, z, :, w] -= np.einsum("pij,jr->rpi", rp, np.ascontiguousarray(M[z, :, w].T))
    res[:k * d].reshape(k, d, d, d)[...] -= lhs
    return float(np.max(np.abs(res, out=res), initial=0.0))


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


def right_mult_nilpotency_residual(prod: ConnTable) -> float:
    """max |R_y^dim| over basis vectors and ten random y; 0 certifies completeness."""
    d = prod.spec.dim
    ys = np.vstack([np.eye(d), np.random.default_rng(0).standard_normal((10, d))])
    return float(np.max(np.abs(np.linalg.matrix_power(prod.right_mult_of(ys), d))))


def connection_report(table: ConnTable) -> dict:
    """Residual summary of a Levi-Civita table, used by the CLI."""
    return {
        "torsion_residual": torsion_residual(table),
        "compat_residual": compatibility_residual(table),
        "flatness_residual": flatness_residual(table),
        "locsym_residual": local_symmetry_residual(table),
        "curvature_norms": curvature_norms(table),
    }
