"""Oscillator Lie algebras.

The algebra attached to a frequency vector ``lam = (l_1 <= ... <= l_n)``,
all ``l_j > 0``, lives on R^(2n+2) with ordered basis

    (e_-1, e_0, e_1, ..., e_n, ec_1, ..., ec_n)

and brackets [e_-1, e_j] = l_j ec_j, [e_j, ec_j] = e_0,
[e_-1, ec_j] = -l_j e_j (all others zero, extended antisymmetrically).
Elements are plain float vectors of length 2n+2 in this basis; ``ec_j``
denotes the checked partner of ``e_j``.

Every value here is immutable after construction and every operation is a
pure function, so everything is safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Rank decisions are made relative to the largest singular value.
RANK_RTOL = 1e-10


class DimensionMismatch(ValueError):
    """Elements of different oscillator algebras were combined."""


def is_json_number(v) -> bool:
    """A float, or an int float() takes; JSON true and false are not numbers."""
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= float(np.finfo(float).max))


def check_json_numbers(obj: dict, what: str, scalars, arrays):
    """ValueError unless each of ``scalars`` is a number and each of ``arrays``
    a nested list of numbers; float() and numpy would coerce true and "1"."""
    def numeric(v, nested):
        if nested and isinstance(v, list):
            return all(numeric(w, True) for w in v)
        return is_json_number(v)
    for key in (*scalars, *arrays):
        if key in obj and not numeric(obj[key], key in arrays):
            raise ValueError(f"{what} has a non-numeric parameter {key!r}: {obj[key]!r}")


@dataclass(frozen=True)
class LambdaSpec:
    """Frequency vector with its multiplicity blocks.

    ``blocks`` groups equal frequencies: a tuple of (value, multiplicity)
    pairs with strictly increasing values. Repeated frequencies are allowed
    and tracked; they matter for the isometry group.
    """

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        if not lam:
            raise ValueError("need at least one frequency")
        if any(not np.isfinite(v) or v <= 0 for v in lam):
            raise ValueError(f"frequencies must be positive reals, got {lam}")
        if any(a > b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"frequencies must be non-decreasing, got {lam}")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def dim(self) -> int:
        return 2 * self.n + 2

    @cached_property
    def lam(self) -> np.ndarray:
        return _read_only(np.asarray(self.lambdas, dtype=float))

    @cached_property
    def blocks(self) -> tuple[tuple[float, int], ...]:
        out: list[list] = []
        for v in self.lambdas:
            if out and out[-1][0] == v:
                out[-1][1] += 1
            else:
                out.append([v, 1])
        return tuple((v, r) for v, r in out)

    @cached_property
    def block_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per block, the 1-based oscillator indices j sharing that frequency."""
        out, j = [], 1
        for _, r in self.blocks:
            out.append(tuple(range(j, j + r)))
            j += r
        return tuple(out)

    @cached_property
    def block_rows(self) -> tuple[np.ndarray, ...]:
        """Per block, the read-only coordinates of its (e_j, ec_j, e_j', ec_j', ...)."""
        return tuple(_read_only(np.array([k for j in idx for k in (1 + j, 1 + self.n + j)]))
                     for idx in self.block_indices)

    def e_index(self, j: int) -> int:
        """Coordinate index of e_j, 1 <= j <= n."""
        if not 1 <= j <= self.n:
            raise IndexError(f"j={j} outside 1..{self.n}")
        return 1 + j

    def ec_index(self, j: int) -> int:
        """Coordinate index of ec_j, 1 <= j <= n."""
        if not 1 <= j <= self.n:
            raise IndexError(f"j={j} outside 1..{self.n}")
        return 1 + self.n + j

    @cached_property
    def basis_names(self) -> tuple[str, ...]:
        names = ["e_-1", "e_0"]
        names += [f"e_{j}" for j in range(1, self.n + 1)]
        names += [f"ec_{j}" for j in range(1, self.n + 1)]
        return tuple(names)

    @cached_property
    def basis_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays (a, b) of the basis pairs a < b, row by row."""
        return tuple(map(_read_only, np.triu_indices(self.dim, 1)))

    @cached_property
    def basis_brackets(self) -> np.ndarray:
        """Dense read-only table B with B[a, b, :] = [e_a, e_b], from the
        closed-form ``bracket``; ``+ 0.0`` turns its -0.0 entries into 0.0."""
        eye = np.eye(self.dim)
        return _read_only(bracket(self, eye[:, None], eye) + 0.0)

    @cached_property
    def bracket_support(self) -> tuple[np.ndarray, ...]:
        """Read-only (a, b, c, value) over the nonzeros B[a, b, c] = value, one at
        most per (a, b): [e_a, e_b] is a multiple of one basis vector."""
        B = self.basis_brackets
        return tuple(map(_read_only, (*np.nonzero(B), B[B != 0])))

    @cached_property
    def triple_support(self) -> tuple[np.ndarray, ...]:
        """Read-only (a, b, c, q, value, x_cols, z_cols) over the nonzeros T[a, b, c, q] =
        value of T = [e_a, [e_b, e_c]] in np.nonzero order, one at most per (a, b, c) and per
        (b, c, q), each a product of two bracket_support values; x_cols is l d + b for the
        l-th live pair (c, q), with T[:, :, c, q] != 0, and z_cols is q d + c per pair."""
        b, c, p, v = self.bracket_support
        d = self.dim
        i, j = np.nonzero(p[:, None] == c)  # [e_b, e_c] = v_i e_p, [e_a, e_p] = v_j e_q
        val = v[i] * v[j]
        keep = np.flatnonzero(val)  # a product that underflows to 0 is no nonzero
        flat = (((b[j] * d + b[i]) * d + c[i]) * d + p[j])[keep]
        order = np.argsort(flat)
        flat, val = flat[order], val[keep[order]]
        if max(np.bincount(flat // d).max(initial=0), np.bincount(flat % d**3).max(initial=0)) > 1:
            raise ArithmeticError("a row or column of T holds two nonzeros")
        live = np.bincount(flat % d**2, minlength=d * d) > 0
        live_c, live_q = np.divmod(np.flatnonzero(live), d)
        slot = (np.cumsum(live) - 1)[flat % d**2]
        a, b, c, q = np.unravel_index(flat, (d,) * 4)
        return tuple(map(_read_only, (a, b, c, q, val, slot * d + b, live_q * d + live_c)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def basis_vector(spec: LambdaSpec, index: int) -> np.ndarray:
    v = np.zeros(spec.dim)
    v[index] = 1.0
    return v


def _as_elem(spec: LambdaSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise DimensionMismatch(
            f"element of shape {x.shape} does not belong to a dim-{spec.dim} algebra"
        )
    return x


def _as_stack(spec: LambdaSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != spec.dim:
        raise DimensionMismatch(
            f"elements of shape {x.shape} do not belong to a dim-{spec.dim} algebra"
        )
    return x


# Bit-stable stacked products.  Each row of a stacked matmul runs the same
# BLAS kernel as the single-element product (vector dot for a @ b, gemv for
# m @ x), so every row has the bits of a per-row loop; einsum, X @ m.T and
# (a * b).sum(-1) sum in another order.

def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for every pair of rows, over any leading axes."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _rowwise(m: np.ndarray, X: np.ndarray) -> np.ndarray:
    """m @ x for every row x of X; m is a matrix or a vector."""
    return (m @ X[:, :, None])[..., 0]


def _row_bilinear(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ m) @ b for every pair of rows of a and b."""
    return ((a[:, None, :] @ m) @ b[:, :, None])[:, 0, 0]


def bracket(spec: LambdaSpec, x, y) -> np.ndarray:
    """Lie bracket [x, y], the structure-constant contraction.

    ``x`` and ``y`` are elements or stacks of elements, shape ``(..., d)``;
    leading axes broadcast, and every row of the result has the bits of the
    bracket of the corresponding single elements.  Antisymmetry holds
    exactly at coefficient level: bracket(y, x) is the floating-point
    negation of bracket(x, y).
    """
    x, y = _as_stack(spec, x), _as_stack(spec, y)
    n, lam = spec.n, spec.lam
    x0, x1, xc = x[..., :1], x[..., 2 : 2 + n], x[..., 2 + n :]
    y0, y1, yc = y[..., :1], y[..., 2 : 2 + n], y[..., 2 + n :]
    out = np.zeros(np.broadcast(x, y).shape)
    out[..., 1] = _row_dot(x1, yc) - _row_dot(xc, y1)
    out[..., 2 : 2 + n] = -lam * (x0 * yc - y0 * xc)
    out[..., 2 + n :] = lam * (x0 * y1 - y0 * x1)
    return out


def ad(spec: LambdaSpec, x) -> np.ndarray:
    """Matrix of bracket(x, .) in the canonical basis."""
    x = _as_elem(spec, x)
    # Row b of bracket(x, I) is [x, e_b], column b of ad(x); kept
    # C-contiguous so products with it run the same BLAS kernels.
    return np.ascontiguousarray(bracket(spec, x, np.eye(spec.dim)).T)


def basis_brackets(spec: LambdaSpec) -> np.ndarray:
    """Dense read-only table B with B[a, b, :] = [e_a, e_b], built once per spec."""
    return spec.basis_brackets


def jacobi_residual(spec: LambdaSpec, x, y, z) -> float:
    """Max-abs coefficient of [x,[y,z]] + [y,[z,x]] + [z,[x,y]], over every
    row when x, y, z are stacks of shape ``(..., d)``."""
    s = (
        bracket(spec, x, bracket(spec, y, z))
        + bracket(spec, y, bracket(spec, z, x))
        + bracket(spec, z, bracket(spec, x, y))
    )
    return float(np.max(np.abs(s)))


@dataclass(frozen=True)
class Subspace:
    """Subspace given by an orthonormal basis (columns)."""

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(x, dtype=float))

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.max(np.abs(x))))
        return float(np.max(np.abs(x - self.project(x)))) <= tol * scale


def _svd_rank(s: np.ndarray) -> int:
    """Singular values above RANK_RTOL times the largest; 0 for an empty matrix."""
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0


def _null_space(m: np.ndarray) -> Subspace:
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    return Subspace(vt[_svd_rank(s):].T.copy())


def center(spec: LambdaSpec) -> Subspace:
    """Common kernel of all adjoint maps ad(e_a) = basis_brackets[a].T, stacked
    as rows; equals span{e_0}."""
    return _null_space(spec.basis_brackets.transpose(0, 2, 1).reshape(-1, spec.dim))


def derived_ideal(spec: LambdaSpec) -> Subspace:
    """Column space of all adjoint maps ad(e_a) = basis_brackets[a].T, side by
    side; equals span{e_0, e_j, ec_j}."""
    u, s, _ = np.linalg.svd(spec.basis_brackets.reshape(-1, spec.dim).T,
                            full_matrices=False)
    return Subspace(u[:, :_svd_rank(s)].copy())


def ker_ad(spec: LambdaSpec, x) -> Subspace:
    """Kernel of ad(x) for a supplied element x."""
    return _null_space(ad(spec, x))


def cartan(spec: LambdaSpec) -> Subspace:
    """The canonical Cartan subalgebra Ker ad(e_-1) = span{e_-1, e_0}, with
    ad(e_-1) read from the bracket table."""
    return _null_space(spec.basis_brackets[0].T)
