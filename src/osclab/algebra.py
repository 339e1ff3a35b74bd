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

    @classmethod
    def from_json(cls, obj) -> "LambdaSpec":
        """Parse {"lambda": [1.0, 1.0, 2.0]}."""
        if not isinstance(obj, dict) or "lambda" not in obj:
            raise ValueError('expected an object with a "lambda" array')
        lam = obj["lambda"]
        if not isinstance(lam, (list, tuple)) or not lam:
            raise ValueError('"lambda" must be a non-empty array of positive reals')
        return cls(tuple(lam))

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def dim(self) -> int:
        return 2 * self.n + 2

    @cached_property
    def lam(self) -> np.ndarray:
        a = np.asarray(self.lambdas, dtype=float)
        a.setflags(write=False)
        return a

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
    def basis_brackets(self) -> np.ndarray:
        """Dense read-only table B with B[a, b, :] = [e_a, e_b], from the
        closed-form ``bracket``; ``+ 0.0`` turns its -0.0 entries into 0.0."""
        eye = np.eye(self.dim)
        B = bracket(self, eye[:, None], eye) + 0.0
        B.setflags(write=False)
        return B

    @cached_property
    def triple_brackets(self) -> np.ndarray:
        """Read-only T with T[a, b, c, :] = [e_a, [e_b, e_c]]."""
        B = self.basis_brackets
        T = np.einsum("bcp,apq->abcq", B, B)
        T.setflags(write=False)
        return T

    @cached_property
    def triple_image_path(self) -> list:
        """Contraction path of ``einsum("ia,jb,kc,ijkm->abcm", m, m, m, T)``,
        which depends on the shapes alone."""
        m = np.empty((self.dim, self.dim))
        return np.einsum_path("ia,jb,kc,ijkm->abcm", m, m, m, self.triple_brackets,
                              optimize=True)[0]


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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A stack of (1, n) @ (n, 1) products runs numpy's vector dot per row,
    # so each row has the bits of the 1-D ``a @ b``; einsum and
    # ``(a * b).sum(-1)`` sum in another order.
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


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
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
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
    _, s, vt = np.linalg.svd(m)
    return Subspace(vt[_svd_rank(s):].T.copy())


def _column_space(m: np.ndarray) -> Subspace:
    u, s, _ = np.linalg.svd(m)
    return Subspace(u[:, :_svd_rank(s)].copy())


def center(spec: LambdaSpec) -> Subspace:
    """Common kernel of all adjoint maps; equals span{e_0}."""
    stacked = np.vstack([ad(spec, basis_vector(spec, a)) for a in range(spec.dim)])
    return _null_space(stacked)


def derived_ideal(spec: LambdaSpec) -> Subspace:
    """Column space of all adjoint maps; equals span{e_0, e_j, ec_j}."""
    stacked = np.hstack([ad(spec, basis_vector(spec, a)) for a in range(spec.dim)])
    return _column_space(stacked)


def ker_ad(spec: LambdaSpec, x) -> Subspace:
    """Kernel of ad(x) for a supplied element x."""
    return _null_space(ad(spec, x))


def cartan(spec: LambdaSpec) -> Subspace:
    """The canonical Cartan subalgebra Ker ad(e_-1) = span{e_-1, e_0}."""
    return ker_ad(spec, basis_vector(spec, 0))
