"""The oscillator group, its exponential, and its isometry group.

Group elements are (t, s, z) in R x R x C^n with the twisted product

    (t,s,z) (t',s',z') = (t+t', s+s' + 1/2 sum Im(conj(z_j) e^{i t l_j} z'_j),
                          ..., z_j + e^{i t l_j} z'_j, ...).

The isotropy of the isometry group at the identity consists of the
orthogonal maps of the algebra preserving the curvature tensor.  They are
parametrized by a sign rho and, per frequency block, a translation part
v_i in V_i (identified with C^{r_i}) and an orthogonal map u_i of V_i;
each such map extends to a global isometry, its polar, in closed form.
Identity-component elements (rho = +1, rotational u_i) combine with group
translations into the full isometry group.

Within a block, V_i carries real interleaved coordinates
(Re z_1, Im z_1, Re z_2, ...), the float view of its complex ones, in which
the block inner product is the Euclidean one divided by the block frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import ode
from .flows import BODY, FlowProblem
from .algebra import LambdaSpec, _as_stack, _read_only, _row_dot, _rowwise, check_json_numbers
from .metrics import BiInvariantForm, Metric

# Series branches near theta = 0 (removable singularities).  Switch points
# are placed where the series and closed branches agree to 1e-14: the
# multiplier's closed form is cancellation-free, so 1e-4 works there, while
# the s-correction subtracts sin(theta) from theta and needs a wider series
# window.
_MULT_SWITCH = 1e-4
_CORR_SWITCH = 5e-2
ORTHOGONALITY_TOL = 1e-10
# Largest entry-wise deviation of a matrix from the map it is recovered as.
ROUNDTRIP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GroupRows:
    """Group elements over a leading shape S: t and s of shape S, z of shape
    S + (n,), C-contiguous for float views.  S = (N,) is a stack of N elements
    and S = () one element, whose t and s are float64 scalars."""

    t: np.ndarray
    s: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name, dtype in (("t", float), ("s", float), ("z", complex)):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype, order="C")[()])

    @property
    def zvec(self) -> np.ndarray:
        """z, under the name perfbench's geodesic-exponential check reads."""
        return self.z


def identity_elem(spec: LambdaSpec) -> GroupRows:
    return GroupRows(0.0, 0.0, np.zeros(spec.n))


def _check_rows(spec: LambdaSpec, g: GroupRows):
    shapes = np.shape(g.t), np.shape(g.s), np.shape(g.z)
    if len(shapes[0]) > 1 or shapes[1:] != (shapes[0], shapes[0] + (spec.n,)):
        raise ValueError(f"group rows need t and s of shape S and z of shape S + ({spec.n},), "
                         f"S = (N,) or (); got {', '.join(map(str, shapes))}")


def g_mul(spec: LambdaSpec, a: GroupRows, b: GroupRows) -> GroupRows:
    """The group product a b, row by row on a stack."""
    _check_rows(spec, a)
    _check_rows(spec, b)
    w = np.exp(1j * a.t[..., None] * spec.lam) * b.z
    s = a.s + b.s + 0.5 * np.sum(np.imag(np.conj(a.z) * w), axis=-1)
    return GroupRows(a.t + b.t, s, a.z + w)


def g_inv(spec: LambdaSpec, a: GroupRows) -> GroupRows:
    _check_rows(spec, a)
    return GroupRows(-a.t, -a.s, -np.exp(-1j * a.t[..., None] * spec.lam) * a.z)


def group_to_alg_coords(spec: LambdaSpec, g: GroupRows) -> np.ndarray:
    _check_rows(spec, g)
    return np.concatenate([g.t[..., None], g.s[..., None], g.z.real, g.z.imag], axis=-1)


def _exp_multiplier(theta: np.ndarray) -> np.ndarray:
    """(e^{i theta} - 1) / (i theta) = e^{i theta/2} sin(theta/2)/(theta/2),
    with a series branch near 0."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < _MULT_SWITCH
    half = np.where(small, 1.0, 0.5 * theta)
    closed = np.exp(1j * half) * (np.sin(half) / half)
    w = 1j * theta
    series = 1.0 + w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w / 120)))
    return np.where(small, series, closed)


def _s_correction(theta: np.ndarray) -> np.ndarray:
    """(theta - sin theta) / theta^2 with a series branch near 0."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < _CORR_SWITCH
    safe = np.where(small, 1.0, theta)
    closed = (safe - np.sin(safe)) / (safe * safe)
    t2 = theta * theta
    series = theta * (1 / 6 - t2 * (1 / 120 - t2 * (1 / 5040 - t2 / 362880)))
    return np.where(small, series, closed)


def g_exp(spec: LambdaSpec, x) -> GroupRows:
    """Group exponential; coincides with the geodesic exponential of the
    bi-invariant metric at the identity.  x of shape S + (d,), S = (N,) or (),
    gives GroupRows of shape S."""
    x = _as_stack(spec, x)
    n = spec.n
    z = x[..., 2 : 2 + n] + 1j * x[..., 2 + n :]
    theta = x[..., :1] * spec.lam
    s_out = x[..., 1] + 0.5 * np.sum(np.abs(z) ** 2 * _s_correction(theta), axis=-1)
    return GroupRows(x[..., 0], s_out, _exp_multiplier(theta) * z)


def g_log(spec: LambdaSpec, g: GroupRows) -> np.ndarray:
    """Inverse of g_exp on the domain |t l_j| < 2 pi (hard error outside:
    the j-th multiplier vanishes at 2 pi / l_j).  GroupRows of shape S give
    an array of shape S + (d,)."""
    _check_rows(spec, g)
    theta = g.t[..., None] * spec.lam
    bad = np.argwhere(np.abs(theta) >= 2.0 * math.pi)
    if bad.size:
        j, th = bad[0, -1] + 1, theta[tuple(bad[0])]
        raise ValueError(f"|t*l_{j}| = {abs(th):.6g} >= 2*pi: the multiplier of oscillator {j} "
                         f"(block {len(set(spec.lambdas[:j]))}) is singular; "
                         "the logarithm is undefined here")
    z = g.z / _exp_multiplier(theta)
    s = g.s - 0.5 * np.sum(np.abs(z) ** 2 * _s_correction(theta), axis=-1)
    return np.concatenate([g.t[..., None], s[..., None], z.real, z.imag], axis=-1)


def geodesic_exponential(metric: Metric, x0, rtol: float = 1e-10,
                         atol: float = 1e-12) -> GroupRows:
    """Geodesic exponential of k_u at the identity (the time-1 flow), by
    numeric integration.

    Integrates the body equation for the velocity (the right-hand side of a
    body-form FlowProblem) together with the frame reconstruction on the
    group, so it is an independent oracle for g_exp when u = id.
    """
    spec = metric.spec
    n, d = spec.n, spec.dim
    lam = spec.lam
    problem = FlowProblem(metric, x0, (0.0, 1.0), form=BODY)

    # state = (x, t, s, Re z_1, Im z_1, ...): state[d + 2:].view(complex) is z, and
    # ph.view(float) its derivative; w = re_im @ (Re w, Im w) from x's split layout.
    re_im = np.array([1.0, 1j])

    def f(tau, state):
        x = state[:d]
        ph = np.exp(1j * state[d] * lam) * (re_im @ x[2:].reshape(2, n))
        ds = x[1] + 0.5 * np.vdot(state[d + 2 :].view(complex), ph).imag
        return np.concatenate([problem.rhs(tau, x), x[:1], [ds], ph.view(float)])

    state0 = np.concatenate([problem.x0, np.zeros(d)])
    res = ode.solve_rk45(f, (0.0, 1.0), state0, rtol=rtol, atol=atol,
                         singularity=lambda t, y, sign: problem.singularity(t, y[:d], sign))
    if res.status != ode.COMPLETED:
        raise RuntimeError(f"geodesic did not reach t=1: {res.status}")
    end = res.ys[-1]
    return GroupRows(end[d], end[d + 1], end[d + 2 :].view(complex))


# -- block helpers --------------------------------------------------------------

def _rot(theta: float, r: int) -> np.ndarray:
    """Multiplication by e^{i theta} on interleaved real coordinates."""
    c, s, i = math.cos(theta), math.sin(theta), np.arange(0, 2 * r, 2)
    m = np.zeros((2 * r, 2 * r))
    m[i, i], m[i, i + 1], m[i + 1, i], m[i + 1, i + 1] = c, -s, s, c
    return m


def _special_orthogonal(a: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Per (m, m) matrix of a, Q of its QR with R's diagonal made positive and
    Q's first column flipped where det Q < 0, other than where ``flip`` is set."""
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[(np.linalg.det(q) < 0) ^ flip, :, 0] *= -1
    return q


def _refuse_rows(bad: np.ndarray, message) -> None:
    """ValueError naming the first row where the mask ``bad`` is set."""
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"row {k}" + message(k))


@dataclass(frozen=True, eq=False)
class IsometryRows:
    """Curvature-preserving maps over a leading shape S, S = (N,) for a stack
    of N and S = () for one map: rho in {-1, +1} of shape S (an int for one
    map) and, per frequency block, the translation part v_i of shape
    S + (2r,) (real interleaved coordinates on V_i) and the orthogonal map
    u_i of V_i of shape S + (2r, 2r).

    ``__post_init__`` is the one validator, taking one map as a one-row
    stack; rows indexed out of a stack are not validated again.  ``matrix``
    is the induced map on the algebra, of shape S + (d, d), and ``alpha``
    the e_0 component of the image of e_-1, forced by isotropy."""

    spec: LambdaSpec
    rho: np.ndarray
    vs: tuple[np.ndarray, ...]
    us: tuple[np.ndarray, ...]

    def __post_init__(self):
        rho, blocks = np.asarray(self.rho), self.spec.blocks
        if rho.ndim > 1 or len(self.vs) != len(blocks) or len(self.us) != len(blocks):
            raise ValueError(f"need rho of shape (N,) and one (v, u) pair per frequency block "
                             f"({len(blocks)} blocks), or for one map rho of shape ()")
        lift = slice(None) if rho.ndim else None  # one map is checked as a one-row stack
        rho = rho[lift]
        _refuse_rows((rho != 1) & (rho != -1), lambda k: f": rho must be +1 or -1, got {rho[k]}")
        vs = tuple(np.array(v, dtype=float, order="C")[lift] for v in self.vs)
        us = tuple(np.array(u, dtype=float, order="C")[lift] for u in self.us)
        for i, ((_, r), v, u) in enumerate(zip(blocks, vs, us)):
            if v.shape != (rho.size, 2 * r) or u.shape != (rho.size, 2 * r, 2 * r):
                raise ValueError(f"block {i}: each of {rho.size} rows needs v of shape "
                                 f"({2 * r},) and u of shape ({2 * r}, {2 * r})")
            _refuse_rows(~np.isfinite(v).all(axis=1), lambda k: f", block {i}: v must be finite")
            res = np.max(np.abs(np.swapaxes(u, 1, 2) @ u - np.eye(2 * r)), axis=(1, 2))
            _refuse_rows(~(res <= ORTHOGONALITY_TOL),  # also refuses NaN entries
                         lambda k: f", block {i}: u is not orthogonal (residual {res[k]:.2e})")
        rho = rho.astype(int)
        with np.errstate(over="ignore"):
            alpha = -0.5 * rho * sum(_row_dot(v, v) / lam for (lam, _), v in zip(blocks, vs))
        _refuse_rows(~np.isfinite(alpha), lambda k: ": translation parts overflow: "
                     f"the e_0 coefficient alpha is {alpha[k]}")
        self._take(self.spec, 0 if lift is None else lift, rho, vs, us, alpha)

    def _take(self, spec, idx, rho, vs, us, alpha):
        """Set the fields to rows idx of validated parts, as read-only C-contiguous
        arrays: ``matrix`` takes each row's dots from them, and a strided slice
        would sum in another order.  One map keeps an int rho and a float alpha."""
        rho, alpha = rho[idx], alpha[idx]
        if np.ndim(rho) > 1:
            raise IndexError("maps stack along one axis")
        one = np.ndim(rho) == 0
        part = lambda a: _read_only(np.ascontiguousarray(a))
        for name, value in (("spec", spec), ("rho", int(rho) if one else part(rho)),
                            ("vs", tuple(part(v[idx]) for v in vs)),
                            ("us", tuple(part(u[idx]) for u in us)),
                            ("alpha", float(alpha) if one else part(alpha))):
            object.__setattr__(self, name, value)

    def __getitem__(self, idx) -> "IsometryRows":
        """Rows of a stack by index, slice, index array or mask, or one map as a
        one-row stack by ``[None]``; a computed ``matrix`` is indexed along."""
        out = object.__new__(IsometryRows)
        out._take(self.spec, idx, np.asarray(self.rho), self.vs, self.us, np.asarray(self.alpha))
        if "matrix" in self.__dict__:  # each row's bits do not depend on the others
            out.__dict__["matrix"] = _read_only(np.ascontiguousarray(self.matrix[idx]))
        return out

    def __len__(self) -> int:
        return len(self.rho)

    @cached_property
    def matrix(self) -> np.ndarray:
        spec, rho = self.spec, np.asarray(self.rho)
        u = np.zeros(rho.shape + (spec.dim, spec.dim))
        u[..., 0, 0] = u[..., 1, 1] = rho
        u[..., 1, 0] = self.alpha
        for (lam, _), rows, ui, vi in zip(spec.blocks, spec.block_rows, self.us, self.vs):
            u[..., rows, 0] = vi
            u[..., rows[:, None], rows] = ui
            # The e_0 row is -rho k(u_i w, v_i) / lam per basis vector w: a
            # vector dot per column of u_i, taken as contiguous rows so each
            # has the bits of the 1-D dot.
            u[..., 1, rows] = -rho[..., None] * _row_dot(
                np.ascontiguousarray(np.swapaxes(ui, -1, -2)), vi[..., None, :]) / lam
        return _read_only(u)

    @property
    def identity_component(self) -> bool:
        """Whether one map has rho = +1 and rotational block maps."""
        return self.rho == 1 and all(np.linalg.det(u) > 0 for u in self.us)

    def inverse(self) -> "IsometryRows":
        """The inverse of one map."""
        vs = tuple(-self.rho * (u.T @ v) for v, u in zip(self.vs, self.us))
        return IsometryRows(self.spec, self.rho, vs, tuple(u.T for u in self.us))


def identity_isometry(spec: LambdaSpec) -> IsometryRows:
    vs = tuple(np.zeros(2 * r) for _, r in spec.blocks)
    us = tuple(np.eye(2 * r) for _, r in spec.blocks)
    return IsometryRows(spec, 1, vs, us)


def compose(outer: IsometryRows, inner: IsometryRows) -> IsometryRows:
    """Composition of one map each: matrix(outer) @ matrix(inner)."""
    if outer.spec != inner.spec:
        raise ValueError("cannot compose maps over different specs")
    rho = outer.rho * inner.rho
    vs = tuple(inner.rho * v + u @ w
               for v, u, w in zip(outer.vs, outer.us, inner.vs))
    us = tuple(u @ m for u, m in zip(outer.us, inner.us))
    return IsometryRows(outer.spec, rho, vs, us)


def curv_isometry_from_matrix(spec: LambdaSpec, m) -> IsometryRows:
    """Recover (rho, (v_i, u_i)) from induced matrices of shape S + (d, d),
    S = (N,) or (); exact round-trip.  A single matrix is a one-row stack.

    Raises when a matrix is not of the parametrized shape (which is the
    membership test failing, not a numeric accident)."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 2:
        return curv_isometry_from_matrix(spec, m[None])[0]
    if m.shape[1:] != (spec.dim, spec.dim):
        raise ValueError(f"expected {spec.dim}x{spec.dim} matrices, got shape {m.shape}")
    rho_f = m[:, 1, 1]
    _refuse_rows(~(np.abs(np.abs(rho_f) - 1.0) <= ROUNDTRIP_TOL),
                 lambda k: f": center eigenvalue {rho_f[k]} is not a unit sign")
    try:
        cand = IsometryRows(spec, np.where(rho_f > 0, 1, -1),
                            tuple(m[:, rows, 0] for rows in spec.block_rows),
                            tuple(m[:, rows[:, None], rows] for rows in spec.block_rows))
    except ValueError as err:
        raise ValueError("matrix is not in the curvature-isometry "
                         f"parametrization: {err}") from err
    res = np.max(np.abs(cand.matrix - m), axis=(1, 2))
    _refuse_rows(~(res <= ROUNDTRIP_TOL), lambda k: ": matrix is not in the curvature-isometry "
                 f"parametrization (residual {res[k]:.3e})")
    return cand


def curv_isometry_from_json(spec: LambdaSpec, obj) -> IsometryRows:
    """Parse {"rho": 1, "blocks": [{"v": [[re, im], ...], "u": [[...]]}]};
    ``IsometryRows`` validates the map."""
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
        raise ValueError('expected an object with "rho" and a "blocks" list')
    check_json_numbers(obj, "isometry descriptor", scalars=("rho",), arrays=())
    vs, us = [], []
    for i, blk in enumerate(obj["blocks"]):
        if not isinstance(blk, dict) or "v" not in blk or "u" not in blk:
            raise ValueError(f'block {i}: expected an object with "v" and "u"')
        check_json_numbers(blk, f"block {i}", scalars=(), arrays=("v", "u"))
        pairs = np.asarray(blk["v"], dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f'block {i}: "v" must be a list of [re, im] pairs')
        vs.append(pairs.reshape(-1))
        us.append(np.asarray(blk["u"], dtype=float))
    return IsometryRows(spec, obj.get("rho", 1), tuple(vs), tuple(us))


def random_curv_isometries(spec: LambdaSpec, rng: np.random.Generator, count: int,
                           identity_component: bool = True) -> IsometryRows:
    """count random maps, drawn map by map as count single draws would take
    the numbers; the rotations are then made per block as one stack."""
    sizes = [2 * r for _, r in spec.blocks]
    ends = np.cumsum([m + m * m for m in sizes])  # per map and block: v, then u
    flips = np.zeros((count, len(sizes)), bool)
    if identity_component:  # the numbers of the map-by-map draws, in one call
        draws, rho = rng.standard_normal((count, ends[-1])), np.ones(count, int)
    else:
        draws, rho = np.empty((count, ends[-1])), []
        for k in range(count):
            for i, (m, e) in enumerate(zip(sizes, ends)):
                draws[k, e - m - m * m : e] = rng.standard_normal(m + m * m)
                flips[k, i] = rng.random() < 0.5
            rho.append(int(rng.choice([-1, 1])))
    return IsometryRows(spec, rho, tuple(draws[:, e - m - m * m : e - m * m]
                                         for m, e in zip(sizes, ends)),
                        tuple(_special_orthogonal(draws[:, e - m * m : e].reshape(-1, m, m), f)
                              for m, e, f in zip(sizes, ends, flips.T)))


def random_curv_isometry(spec: LambdaSpec, rng: np.random.Generator,
                         identity_component: bool = True) -> IsometryRows:
    return random_curv_isometries(spec, rng, 1, identity_component)[0]


def orthogonality_residual(form: BiInvariantForm, m) -> float:
    """max |m^T K m - K| over a matrix or a stack of them."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(np.swapaxes(m, -1, -2) @ form.gram @ m - form.gram)))


def _residual_plan(spec: LambdaSpec, nz: np.ndarray) -> tuple:
    """Cached per nonzero pattern nz of U: the number of rows (a, live km) of y read by the
    residual rows (a, b, m) that y or U T reach, those rows as y indices per column k (one
    past y reads 0), and x and U T on them as (flat index, flat index into U, value)."""
    plans, key = spec.__dict__.setdefault("_residual_plans", {}), nz.tobytes()
    if key not in plans:
        if len(plans) >= 16:  # a spec lives on in the CLI's cache: keep the newest 16
            del plans[next(iter(plans))]
        (a, b, c, q, val, x_cols, z_cols), d = spec.triple_support, spec.dim
        ut_n, ut_m = np.nonzero(nz[:, q].T)  # (U T)[a, b, c, m] = value U[m, q]
        ut_rows = (a[ut_n] * d + b[ut_n]) * d + ut_m
        xs = np.zeros((d, z_cols.size * d))  # > 0 where U's nonzeros reach x, y, then z
        xs[:, x_cols] = nz[a].T
        ys = np.matmul(xs.reshape(d, -1, d), nz.astype(float)).transpose(0, 2, 1)
        zs = np.matmul(ys, np.eye(d)[z_cols // d]).ravel() + np.bincount(ut_rows, minlength=d**3)
        live = (zs > 0) | nz.all()  # every row for a dense U
        live[:2] |= np.count_nonzero(live) < 2  # two rows at least: a gemm, not a gemv
        rows = np.flatnonzero(live)
        zi = np.full((d, d, d * d), xs.size)  # z as indices into y
        zi[:, :, z_cols] = np.arange(xs.size).reshape(d, -1, d).transpose(0, 2, 1)
        gather = zi.reshape(-1, d)[rows]
        used = np.bincount(gather.ravel() // d, minlength=xs.size // d + 1)[:-1] > 0
        used[:2] |= np.count_nonzero(used) < 2
        slot = np.append(np.cumsum(used) - 1, np.count_nonzero(used))  # y's rows, the zero
        x_at = np.arange(xs.size).reshape(d, -1)[:, x_cols]  # x[:, x_cols] = U[a].T * value
        keep = used[x_at // d]
        plans[key] = (int(slot[-1]), *map(_read_only, (
            slot[gather // d] * d + gather % d, (slot[x_at // d] * d + x_at % d)[keep],
            (a * d + np.arange(d)[:, None])[keep], np.broadcast_to(val, x_at.shape)[keep],
            np.searchsorted(rows, ut_rows) * d + c[ut_n], ut_m * d + q[ut_n], val[ut_n])))
    return plans[key]


# Maps go in chunks of at most this many bytes per temporary, which bounds the memory of any
# stack.  For 20 maps with one 12x12 block (36 KB each), 256 KB ran fastest: 0.5-4 MB chunks
# were 1.1-1.5x slower (fresh pages per temporary), 16-64 KB paid more calls (Xeon, 1 thread).
_CHUNK_BYTES = 1 << 18


def triple_bracket_residual(spec: LambdaSpec, m):
    """max over basis triples of |U[x,[y,z]] - [Ux,[Uy,Uz]]| per matrix U of m, of shape
    S + (d, d): a float for S = (), else an array of shape S.

    With orthogonality, the membership test for the curvature-preserving group.  Each
    entry has the bits of the dense einsums ``mq,abcq->abcm`` and the optimized
    ``ia,jb,kc,ijkm->abcm`` over T: sums of one nonzero term are single products, the
    others one gemm per map.  Only the residual rows that U's zero pattern reaches, and the
    rows of x and y they read, are built: while y is finite, so is U, and other rows read 0.
    So a map takes every row unless it is finite with d max|T| max|U|^2 < 1e300, which
    bounds y.  A gemm entry is an FMA chain over k on any rows; one row goes to gemv."""
    m, d = np.asarray(m, dtype=float), spec.dim
    if m.ndim == 2:
        return float(triple_bracket_residual(spec, m[None])[0])
    flat = m.reshape(len(m), d * d)
    dense = ~(np.max(np.abs(flat), axis=1, initial=0.0)
              < math.sqrt(1e300 / (d * np.max(np.abs(spec.triple_support[4])))))
    groups, out = {}, np.empty(len(m))
    for k, nz in enumerate((flat != 0) | dense[:, None]):
        groups.setdefault(nz.tobytes(), (nz, []))[1].append(k)
    for nz, maps in groups.values():
        ny, gather, xi, xu, xval, ui, uu, uval = _residual_plan(spec, nz.reshape(d, d))
        step = max(1, _CHUNK_BYTES // (8 * d * max(ny + 1, len(gather))))
        for part in (maps[k : k + step] for k in range(0, len(maps), step)):
            mk = flat[part]  # a C-contiguous copy, so each product runs one gemm per map
            x = np.zeros((len(part), ny * d))  # ijkm,ia->ajkm on the plan's rows of y
            x[:, xi] = mk[:, xu] * xval
            y = np.zeros((len(part), ny + 1, d))  # ajkm,jb->abkm, and a zero row
            np.matmul(x.reshape(-1, ny, d), mk.reshape(-1, d, d), out=y[:, :-1])
            r = np.matmul(np.take(y.reshape(len(part), -1), gather, axis=1), mk.reshape(-1, d, d))
            r.reshape(len(part), -1)[:, ui] -= mk[:, uu] * uval  # U[e_a,[e_b,e_c]] = value U e_q
            out[part] = np.max(np.abs(r, out=r), axis=(1, 2))
    return out


# -- polar isometries and the group of isometries --------------------------------

def polar(spec: LambdaSpec, u: IsometryRows, g: GroupRows) -> GroupRows:
    """The global isometry extending u, in closed form (no logarithm involved,
    so there is no domain restriction).  Identity component only.

    u holds one map per row of g, of the same shape S."""
    _check_rows(spec, g)
    if np.shape(u.rho) != np.shape(g.t):
        raise ValueError(f"need one map per row: maps {np.shape(u.rho)}, rows {np.shape(g.t)}")
    if np.any(u.rho != 1):
        raise ValueError("closed-form polars cover the identity component (rho = +1)")
    # Per row: math.cos/sin per element (numpy's may differ in the last
    # bit), one gemv for u_i w and one vector dot.
    theta = np.multiply.outer([lam for lam, _ in spec.blocks], g.t)[..., None]  # per block
    bad = np.flatnonzero(~np.isfinite(theta).reshape(len(theta), -1).all(axis=1))
    if bad.size:
        j = spec.block_indices[bad[0]][0]
        raise ValueError(f"t*l_{j} is not finite: block {bad[0] + 1} rotation is undefined")
    trig = (np.fromiter(map(f, a.ravel().tolist()), float).reshape(theta.shape) for f, a in
            ((math.sin, 0.5 * theta), (math.cos, 0.5 * theta), (math.sin, theta)))
    out = np.empty(g.z.shape, dtype=complex)
    s_corr = 0.0
    for (lam, _), idx, vs, us, sin_half, cos_half, sin_full in zip(
            spec.blocks, spec.block_indices, u.vs, u.us, *trig):
        cols = slice(idx[0] - 1, idx[-1])
        rot = np.empty(sin_half.shape, dtype=complex)
        rot.real, rot.imag = cos_half, sin_half
        vi = vs.view(complex)
        w = (np.conj(rot) * g.z[..., cols]).view(float)
        inner = np.matmul(us, w[..., None])[..., 0].view(complex)
        out[..., cols] = ((2.0 / lam) * sin_half) * rot * vi + rot * inner
        a_i = (sin_full / (2.0 * lam)) * vi + cos_half * inner
        s_corr = s_corr + _row_dot(vs, a_i.view(float)) / lam
    return GroupRows(g.t, g.s - s_corr, out)


def polar_transport_residuals(spec: LambdaSpec, isos: IsometryRows,
                              g: GroupRows) -> np.ndarray:
    """Per row, the max deviation of the closed-form polar P_u(g) from
    exp(u log g), u being the map of that row."""
    p1 = polar(spec, isos, g)
    # One gemv per row, as u.matrix @ g_log(spec, g) for a single element;
    # logs @ matrix^T would sum in another order.
    p2 = g_exp(spec, _rowwise(isos.matrix, g_log(spec, g)))
    return np.maximum(np.maximum(np.abs(p1.t - p2.t), np.abs(p1.s - p2.s)),
                      np.max(np.abs(p1.z - p2.z), axis=1))


def act_sigma_on_u(spec: LambdaSpec, sigma: GroupRows, u: IsometryRows) -> IsometryRows:
    """The group action of one element on the isotropy factor of one map.

    Per block the rotation part is conjugated, u_i -> R(-t l_i/2) u_i
    R(t l_i/2), and the translation part picks up l_i J Q(z_i) from the
    complex-antilinear part Q of u_i (zero whenever u_i commutes with the
    block rotations, in particular on multiplicity-one blocks).  This is
    the unique map satisfying P_u(sigma g) = P_u(sigma) P_{sigma.u}(g).
    """
    if u.rho != 1:
        raise ValueError("the action is defined on the identity component (rho = +1)")
    _check_rows(spec, sigma)
    vs, us = [], []
    for i, ((lam, r), idx) in enumerate(zip(spec.blocks, spec.block_indices)):
        theta = 0.5 * sigma.t * lam
        jm = _rot(0.5 * math.pi, r)  # multiplication by i
        q_part = 0.5 * (u.us[i] + jm @ u.us[i] @ jm)
        zb = sigma.z[idx[0] - 1 : idx[-1]].view(float)
        vs.append(u.vs[i] + lam * (jm @ (q_part @ zb)))
        us.append(_rot(-theta, r) @ u.us[i] @ _rot(theta, r))
    return IsometryRows(spec, 1, tuple(vs), tuple(us))


@dataclass(frozen=True)
class IsomElem:
    """Identity-component isometry (sigma, u), acting as L_sigma o P_u."""

    sigma: GroupRows
    iso: IsometryRows

    def __post_init__(self):
        if not self.iso.identity_component:
            raise ValueError("isometry-group elements need rho = +1 and "
                             "rotational block maps")
        _check_rows(self.iso.spec, self.sigma)

    @property
    def spec(self) -> LambdaSpec:
        return self.iso.spec

    def apply(self, g: GroupRows) -> GroupRows:
        spec = self.spec
        return g_mul(spec, self.sigma, polar(spec, self.iso, g))


def isom_identity(spec: LambdaSpec) -> IsomElem:
    return IsomElem(identity_elem(spec), identity_isometry(spec))


def isom_mul(a: IsomElem, b: IsomElem) -> IsomElem:
    """(sigma, u)(sigma', u') = (sigma (u . sigma'), (sigma' . u) o u')."""
    spec = a.spec
    if spec != b.spec:
        raise ValueError("cannot multiply isometries over different specs")
    sig = g_mul(spec, a.sigma, polar(spec, a.iso, b.sigma))  # u . sigma' = P_u(sigma')
    iso = compose(act_sigma_on_u(spec, b.sigma, a.iso), b.iso)
    return IsomElem(sig, iso)


def isom_inv(a: IsomElem) -> IsomElem:
    spec = a.spec
    sig = polar(spec, a.iso.inverse(), g_inv(spec, a.sigma))
    return IsomElem(sig, act_sigma_on_u(spec, sig, a.iso).inverse())


def o_r_distance_from_identity(iso: IsometryRows) -> float:
    """Max deviation of (v_i, u_i) from (0, Id); zero iff iso is trivial."""
    worst = 0.0 if iso.rho == 1 else 2.0
    for v, u in zip(iso.vs, iso.us):
        worst = max(worst, float(np.max(np.abs(v))),
                    float(np.max(np.abs(u - np.eye(u.shape[0])))))
    return worst


def isom_dim(spec: LambdaSpec) -> int:
    """Dimension of the isometry group: 3n + 2 + 2 sum r_i^2."""
    return 3 * spec.n + 2 + 2 * sum(r * r for _, r in spec.blocks)


def isometry_parametrization_dim(spec: LambdaSpec) -> int:
    """Group dimension plus per-block translation and rotation parameters;
    must agree with isom_dim."""
    iso_part = sum(2 * r + r * (2 * r - 1) for _, r in spec.blocks)
    return spec.dim + iso_part


# -- lattice criterion -----------------------------------------------------------

@dataclass(frozen=True)
class LatticeVerdict:
    decidable: bool
    discrete: bool | None
    generator: Fraction | None
    reason: str


# Fraction("1e<k>") expands 10**|k| in time superlinear in k, and past Python's
# default int-to-str digit limit (sys.int_info.default_max_str_digits, 4300 since
# 3.11) no exact report could print the value anyway.
MAX_EXACT_EXPONENT = 4300


def _to_exact(values) -> list[Fraction] | None:
    out = []
    for v in values:
        if isinstance(v, bool):
            return None
        if not isinstance(v, (int, Fraction, str)):
            return None  # floats and anything else are inexact: refuse to guess
        exponent = v.lower().partition("e")[2] if isinstance(v, str) else ""
        if exponent and abs(int(exponent)) > MAX_EXACT_EXPONENT:  # checked before parsing
            raise ValueError(f"decimal exponents are bounded by {MAX_EXACT_EXPONENT}")
        out.append(Fraction(v))
    return out


def lattice_criterion(values) -> LatticeVerdict:
    """Whether the frequencies generate a discrete subgroup of (R, +).

    Decidable only for exact rational input (ints, Fractions, or strings like
    "2/3" or "1.5e3", |exponent| <= MAX_EXACT_EXPONENT); floats yield an
    undecidable verdict rather than a guess.
    """
    try:
        exact = _to_exact(values)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"cannot parse frequency list: {err}") from err
    if exact is None:
        return LatticeVerdict(False, None, None,
                              "inexact input: commensurability is undecidable "
                              "from floating-point frequencies")
    if not exact or any(v <= 0 for v in exact):
        raise ValueError("frequencies must be positive")
    # Exact rationals are pairwise commensurable, so the generated subgroup is gen Z,
    # discrete, with gen = gcd(p_i)/lcm(q_i) over the reduced fractions p_i/q_i.
    gen = Fraction(math.gcd(*(v.numerator for v in exact)),
                   math.lcm(*(v.denominator for v in exact)))
    return LatticeVerdict(True, True, gen,
                          f"all frequencies are integer multiples of {gen}")


def commensurability_oracle(values, generator) -> bool:
    """Brute-force check that ``generator`` generates the additive subgroup
    of the frequencies: each is an integer multiple of it, and the integers
    have gcd 1."""
    exact = _to_exact(values)
    if exact is None:
        raise ValueError("oracle needs exact rational input")
    multiples = [v / Fraction(generator) for v in exact]
    return (all(k.denominator == 1 for k in multiples)
            and math.gcd(*(k.numerator for k in multiples)) == 1)
