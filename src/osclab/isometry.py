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
(Re z_1, Im z_1, Re z_2, ...), in which the block inner product is the
Euclidean one divided by the block frequency.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import ode
from .flows import BODY, FlowProblem
from .algebra import LambdaSpec, _as_elem, _as_stack, _row_dot
from .metrics import BiInvariantForm, Metric, check_json_numbers

# Series branches near theta = 0 (removable singularities).  Switch points
# are placed where the series and closed branches agree to 1e-14: the
# multiplier's closed form is cancellation-free, so 1e-4 works there, while
# the s-correction subtracts sin(theta) from theta and needs a wider series
# window.
_MULT_SWITCH = 1e-4
_CORR_SWITCH = 5e-2
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class GroupElem:
    """A group element (t, s, z_1..z_n)."""

    t: float
    s: float
    z: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "z", tuple(complex(w) for w in self.z))

    @property
    def zvec(self) -> np.ndarray:
        return np.asarray(self.z, dtype=complex)


@dataclass(frozen=True, eq=False)
class GroupRows:
    """A stack of N group elements: t and s of shape (N,), z of shape (N, n).

    ``g_exp``, ``g_log`` and ``polar`` compute on stacks only; a single
    element goes through them as a one-row stack."""

    t: np.ndarray
    s: np.ndarray
    z: np.ndarray


def identity_elem(spec: LambdaSpec) -> GroupElem:
    return GroupElem(0.0, 0.0, (0.0,) * spec.n)


def _check_elem(spec: LambdaSpec, g: GroupElem):
    if len(g.z) != spec.n:
        raise ValueError(f"group element has {len(g.z)} oscillator coordinates, "
                         f"spec needs {spec.n}")


def _check_rows(spec: LambdaSpec, g: GroupRows):
    shapes = np.shape(g.t), np.shape(g.s), np.shape(g.z)
    if len(shapes[0]) != 1 or shapes[1:] != (shapes[0], shapes[0] + (spec.n,)):
        raise ValueError(f"group rows need t and s of shape (N,) and z of shape "
                         f"(N, {spec.n}); got {', '.join(map(str, shapes))}")


def _one_row(spec: LambdaSpec, g: GroupElem) -> GroupRows:
    _check_elem(spec, g)
    return GroupRows(np.array([g.t]), np.array([g.s]), g.zvec[None])


def _row0(g: GroupRows) -> GroupElem:
    return GroupElem(g.t[0], g.s[0], tuple(g.z[0]))


def g_mul(spec: LambdaSpec, a: GroupElem, b: GroupElem) -> GroupElem:
    _check_elem(spec, a)
    _check_elem(spec, b)
    w = np.exp(1j * a.t * spec.lam) * b.zvec
    s = a.s + b.s + 0.5 * float(np.sum(np.imag(np.conj(a.zvec) * w)))
    return GroupElem(a.t + b.t, s, tuple(a.zvec + w))


def g_inv(spec: LambdaSpec, a: GroupElem) -> GroupElem:
    _check_elem(spec, a)
    return GroupElem(-a.t, -a.s, tuple(-np.exp(-1j * a.t * spec.lam) * a.zvec))


def group_to_alg_coords(spec: LambdaSpec, g: GroupElem) -> np.ndarray:
    _check_elem(spec, g)
    z = g.zvec
    return np.concatenate([[g.t, g.s], z.real, z.imag])


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


def g_exp(spec: LambdaSpec, x) -> GroupElem | GroupRows:
    """Group exponential; coincides with the geodesic exponential of the
    bi-invariant metric at the identity.  A stack x of shape (N, d) gives
    GroupRows; a single element is a one-row stack."""
    if np.ndim(x) != 2:
        return _row0(g_exp(spec, _as_elem(spec, x)[None]))
    x = _as_stack(spec, x)
    n = spec.n
    z = x[:, 2 : 2 + n] + 1j * x[:, 2 + n :]
    theta = x[:, :1] * spec.lam
    s_out = x[:, 1] + 0.5 * np.sum(np.abs(z) ** 2 * _s_correction(theta), axis=1)
    return GroupRows(x[:, 0], s_out, _exp_multiplier(theta) * z)


def _log_domain_error(i: int, th: float) -> ValueError:
    return ValueError(f"|t*l_{i+1}| = {abs(th):.6g} >= 2*pi: block {i+1} multiplier "
                      "is singular; the logarithm is undefined here")


def g_log(spec: LambdaSpec, g: GroupElem | GroupRows) -> np.ndarray:
    """Inverse of g_exp on the domain |t l_j| < 2 pi (hard error outside:
    the j-th multiplier vanishes at 2 pi / l_j).  GroupRows give a stack of
    shape (N, d); a single element is a one-row stack."""
    if not isinstance(g, GroupRows):
        return g_log(spec, _one_row(spec, g))[0]
    _check_rows(spec, g)
    theta = g.t[:, None] * spec.lam
    bad = np.argwhere(np.abs(theta) >= 2.0 * math.pi)
    if bad.size:
        row, i = bad[0]
        raise _log_domain_error(i, theta[row, i])
    z = g.z / _exp_multiplier(theta)
    s = g.s - 0.5 * np.sum(np.abs(z) ** 2 * _s_correction(theta), axis=1)
    return np.concatenate([g.t[:, None], s[:, None], z.real, z.imag], axis=1)


def geodesic_exponential(metric: Metric, x0, t_end: float = 1.0,
                         rtol: float = 1e-10, atol: float = 1e-12) -> GroupElem:
    """Geodesic exponential of k_u at the identity, by numeric integration.

    Integrates the body equation for the velocity (the right-hand side of a
    body-form FlowProblem) together with the frame reconstruction on the
    group, so it is an independent oracle for g_exp when u = id.
    """
    spec = metric.spec
    n, d = spec.n, spec.dim
    lam = spec.lam
    problem = FlowProblem(metric, x0, (0.0, t_end), form=BODY)

    # state = (x, t, s, Re z, Im z)
    def f(tau, state):
        x = state[:d]
        t = state[d]
        w = x[2 : 2 + n] + 1j * x[2 + n :]
        z = state[d + 2 : d + 2 + n] + 1j * state[d + 2 + n :]
        ph = np.exp(1j * t * lam) * w
        ds = x[1] + 0.5 * float(np.sum(np.imag(np.conj(z) * ph)))
        out = np.empty(state.size)
        out[:d] = problem.rhs(tau, x)
        out[d] = x[0]
        out[d + 1] = ds
        out[d + 2 : d + 2 + n] = ph.real
        out[d + 2 + n :] = ph.imag
        return out

    state0 = np.concatenate([problem.x0, np.zeros(d)])
    res = ode.solve_rk45(f, (0.0, t_end), state0, rtol=rtol, atol=atol)
    if res.status != ode.COMPLETED:
        raise RuntimeError(f"geodesic did not reach t={t_end}: {res.status}")
    end = res.ys[-1]
    return GroupElem(end[d], end[d + 1],
                     tuple(end[d + 2 : d + 2 + n] + 1j * end[d + 2 + n :]))


# -- block helpers --------------------------------------------------------------

def _c2r(z: np.ndarray) -> np.ndarray:
    """Complex (..., r) to real interleaved (..., 2r)."""
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = np.real(z)
    out[..., 1::2] = np.imag(z)
    return out


def _r2c(w: np.ndarray) -> np.ndarray:
    return w[..., 0::2] + 1j * w[..., 1::2]


def _block_rows(spec: LambdaSpec) -> list[np.ndarray]:
    """Per block, the algebra coordinates of its real interleaved
    coordinates (e_j, ec_j, e_j', ec_j', ...)."""
    return [np.array([k for j in idx for k in (spec.e_index(j), spec.ec_index(j))])
            for idx in spec.block_indices]


def _rot(theta: float, r: int) -> np.ndarray:
    """Multiplication by e^{i theta} on interleaved real coordinates."""
    c, s = math.cos(theta), math.sin(theta)
    m = np.zeros((2 * r, 2 * r))
    for i in range(r):
        m[2 * i, 2 * i] = c
        m[2 * i, 2 * i + 1] = -s
        m[2 * i + 1, 2 * i] = s
        m[2 * i + 1, 2 * i + 1] = c
    return m


def _jmat(r: int) -> np.ndarray:
    return _rot(0.5 * math.pi, r)


def random_rotation(m: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@dataclass(frozen=True)
class CurvIsometry:
    """Orthogonal map of the algebra preserving the curvature tensor.

    Parametrized by rho in {-1, +1} and per frequency block a translation
    part v_i (real interleaved coordinates on V_i) and an orthogonal matrix
    u_i acting on V_i.  ``matrix`` is the induced linear map on the algebra.
    """

    spec: LambdaSpec
    rho: int
    vs: tuple[np.ndarray, ...]
    us: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.rho not in (-1, 1):
            raise ValueError(f"rho must be +1 or -1, got {self.rho}")
        blocks = self.spec.block_indices
        if len(self.vs) != len(blocks) or len(self.us) != len(blocks):
            raise ValueError(f"need one (v, u) pair per frequency block "
                             f"({len(blocks)} blocks)")
        vs, us = [], []
        for i, idx in enumerate(blocks):
            r = len(idx)
            v = np.asarray(self.vs[i], dtype=float).copy()
            u = np.asarray(self.us[i], dtype=float).copy()
            if v.shape != (2 * r,):
                raise ValueError(f"block {i}: v must have shape ({2*r},)")
            if u.shape != (2 * r, 2 * r):
                raise ValueError(f"block {i}: u must have shape ({2*r},{2*r})")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"block {i}: v must be finite")
            res = float(np.max(np.abs(u.T @ u - np.eye(2 * r))))
            if not res <= ORTHOGONALITY_TOL:  # also refuses NaN entries
                raise ValueError(f"block {i}: u is not orthogonal (residual {res:.2e})")
            v.setflags(write=False)
            u.setflags(write=False)
            vs.append(v)
            us.append(u)
        object.__setattr__(self, "vs", tuple(vs))
        object.__setattr__(self, "us", tuple(us))
        with np.errstate(over="ignore"):
            alpha = self.alpha
        if not math.isfinite(alpha):
            raise ValueError("translation parts overflow: the e_0 coefficient "
                             f"alpha is {alpha}")

    @property
    def alpha(self) -> float:
        """e_0 component of the image of e_-1, forced by isotropy of that image."""
        total = sum(float(v @ v) / lam for (lam, _), v in zip(self.spec.blocks, self.vs))
        return -0.5 * self.rho * total

    @property
    def rotational(self) -> bool:
        return all(np.linalg.det(u) > 0 for u in self.us)

    @property
    def identity_component(self) -> bool:
        return self.rho == 1 and self.rotational

    @cached_property
    def matrix(self) -> np.ndarray:
        spec = self.spec
        u = np.zeros((spec.dim, spec.dim))
        u[0, 0] = u[1, 1] = float(self.rho)
        u[1, 0] = self.alpha
        for (lam, _), rows, ui, vi in zip(spec.blocks, _block_rows(spec),
                                          self.us, self.vs):
            u[rows, 0] = vi
            u[rows[:, None], rows] = ui
            # The e_0 row is -rho k(u_i w, v_i) / lam per basis vector w: a
            # vector dot per column of u_i, taken as contiguous rows so each
            # has the bits of the 1-D dot.
            u[1, rows] = -self.rho * _row_dot(np.ascontiguousarray(ui.T), vi) / lam
        u.setflags(write=False)
        return u

    def apply(self, x) -> np.ndarray:
        return self.matrix @ _as_elem(self.spec, x)

    def inverse(self) -> "CurvIsometry":
        vs = tuple(-self.rho * (u.T @ v) for v, u in zip(self.vs, self.us))
        return CurvIsometry(self.spec, self.rho, vs, tuple(u.T for u in self.us))


def identity_isometry(spec: LambdaSpec) -> CurvIsometry:
    vs = tuple(np.zeros(2 * r) for _, r in spec.blocks)
    us = tuple(np.eye(2 * r) for _, r in spec.blocks)
    return CurvIsometry(spec, 1, vs, us)


def compose(outer: CurvIsometry, inner: CurvIsometry) -> CurvIsometry:
    """Composition of induced maps: matrix(outer) @ matrix(inner)."""
    if outer.spec != inner.spec:
        raise ValueError("cannot compose maps over different specs")
    rho = outer.rho * inner.rho
    vs = tuple(inner.rho * v + u @ w
               for v, u, w in zip(outer.vs, outer.us, inner.vs))
    us = tuple(u @ m for u, m in zip(outer.us, inner.us))
    return CurvIsometry(outer.spec, rho, vs, us)


def curv_isometry_from_matrix(spec: LambdaSpec, m, tol: float = 1e-10) -> CurvIsometry:
    """Recover (rho, (v_i, u_i)) from an induced matrix; exact round-trip.

    Raises when the matrix is not of the parametrized shape (which is the
    membership test failing, not a numeric accident)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (spec.dim, spec.dim):
        raise ValueError(f"expected a {spec.dim}x{spec.dim} matrix")
    rho_f = m[1, 1]
    if abs(abs(rho_f) - 1.0) > tol:
        raise ValueError(f"center eigenvalue {rho_f} is not a unit sign")
    rho = 1 if rho_f > 0 else -1
    vs, us = [], []
    for rows in _block_rows(spec):
        vs.append(m[rows, 0])
        us.append(m[rows[:, None], rows])
    try:
        cand = CurvIsometry(spec, rho, tuple(vs), tuple(us))
    except ValueError as err:
        raise ValueError("matrix is not in the curvature-isometry "
                         f"parametrization: {err}") from err
    res = float(np.max(np.abs(cand.matrix - m)))
    if res > tol:
        raise ValueError(f"matrix is not in the curvature-isometry "
                         f"parametrization (residual {res:.3e})")
    return cand


def curv_isometry_from_json(spec: LambdaSpec, obj) -> CurvIsometry:
    """Parse {"rho": 1, "blocks": [{"v": [[re, im], ...], "u": [[...]]}]}."""
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError('expected an object with "rho" and "blocks"')
    check_json_numbers(obj, "isometry descriptor", scalars=("rho",), arrays=())
    rho = obj.get("rho", 1)
    if rho not in (-1, 1):
        raise ValueError(f'"rho" must be +1 or -1, got {rho!r}')
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or len(blocks) != len(spec.blocks):
        raise ValueError(f'"blocks" must be a list of {len(spec.blocks)} blocks')
    vs, us = [], []
    for i, blk in enumerate(blocks):
        if not isinstance(blk, dict) or "v" not in blk or "u" not in blk:
            raise ValueError(f'block {i}: expected an object with "v" and "u"')
        check_json_numbers(blk, f"block {i}", scalars=(), arrays=("v", "u"))
        pairs = np.asarray(blk["v"], dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f'block {i}: "v" must be a list of [re, im] pairs')
        vs.append(pairs.reshape(-1))
        us.append(np.asarray(blk["u"], dtype=float))
    return CurvIsometry(spec, int(rho), tuple(vs), tuple(us))


def random_curv_isometry(spec: LambdaSpec, rng: np.random.Generator,
                         identity_component: bool = True) -> CurvIsometry:
    vs, us = [], []
    for _, r in spec.blocks:
        vs.append(rng.standard_normal(2 * r))
        u = random_rotation(2 * r, rng)
        if not identity_component and rng.random() < 0.5:
            u = u @ np.diag([-1.0] + [1.0] * (2 * r - 1))
        us.append(u)
    rho = 1 if identity_component else int(rng.choice([-1, 1]))
    return CurvIsometry(spec, rho, tuple(vs), tuple(us))


def orthogonality_residual(form: BiInvariantForm, m) -> float:
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m.T @ form.gram @ m - form.gram)))


def triple_bracket_residual(spec: LambdaSpec, m) -> float:
    """max over basis triples of |U[x,[y,z]] - [Ux,[Uy,Uz]]|.

    Together with orthogonality this is the membership test for the
    curvature-preserving group."""
    m = np.asarray(m, dtype=float)
    T = spec.triple_brackets  # T[a,b,c] = [e_a, [e_b, e_c]]
    lhs = np.einsum("mq,abcq->abcm", m, T)
    rhs = np.einsum("ia,jb,kc,ijkm->abcm", m, m, m, T,
                    optimize=spec.triple_image_path)
    return float(np.max(np.abs(lhs - rhs)))


# -- polar isometries and the group of isometries --------------------------------

def polar(spec: LambdaSpec, u: CurvIsometry | Sequence[CurvIsometry],
          g: GroupElem | GroupRows) -> GroupElem | GroupRows:
    """The global isometry extending u, in closed form (no logarithm involved,
    so there is no domain restriction).  Identity component only.

    With GroupRows, u is a sequence of maps, one per row; a single element
    is a one-row stack."""
    if not isinstance(g, GroupRows):
        return _row0(polar(spec, [u], _one_row(spec, g)))
    _check_rows(spec, g)
    if len(u) != len(g.t):
        raise ValueError(f"need one map per row: {len(u)} maps, {len(g.t)} rows")
    if any(ui.rho != 1 for ui in u):
        raise ValueError("closed-form polars cover the identity component (rho = +1)")
    # Per row: math.cos/sin per element (numpy's may differ in the last
    # bit), one gemv for u_i w and one vector dot.
    out = np.empty(g.z.shape, dtype=complex)
    s_corr = 0.0
    for i, ((lam, _), idx) in enumerate(zip(spec.blocks, spec.block_indices)):
        cols = [j - 1 for j in idx]
        theta = g.t * lam
        if not np.isfinite(theta).all():
            raise ValueError(f"t*l_{i+1} is not finite: block {i+1} rotation "
                             "is undefined")
        sin_half, cos_half = (np.fromiter(map(f, 0.5 * theta), float)[:, None]
                              for f in (math.sin, math.cos))
        rot = np.empty(sin_half.shape, dtype=complex)
        rot.real, rot.imag = cos_half, sin_half
        vs = np.stack([ui.vs[i] for ui in u])
        us = np.stack([ui.us[i] for ui in u])
        vi = _r2c(vs)
        inner = _r2c(np.matmul(us, _c2r(np.conj(rot) * g.z[:, cols])[..., None])[..., 0])
        out[:, cols] = ((2.0 / lam) * sin_half) * rot * vi + rot * inner
        a_i = (np.fromiter(map(math.sin, theta), float)[:, None] / (2.0 * lam)) * vi \
            + cos_half * inner
        s_corr = s_corr + _row_dot(vs, _c2r(a_i)) / lam
    return GroupRows(g.t, g.s - s_corr, out)


def polar_transport_residuals(spec: LambdaSpec, isos: Sequence[CurvIsometry],
                              g: GroupRows) -> np.ndarray:
    """Per row, the max deviation of the closed-form polar P_u(g) from
    exp(u log g), u being the map of that row."""
    p1 = polar(spec, isos, g)
    logs = g_log(spec, g)
    # One gemv per row, as u.matrix @ g_log(spec, g) for a single element;
    # a stacked matmul sums in another order.
    p2 = g_exp(spec, np.array([u.matrix @ x for u, x in zip(isos, logs)]))
    return np.maximum(np.maximum(np.abs(p1.t - p2.t), np.abs(p1.s - p2.s)),
                      np.max(np.abs(p1.z - p2.z), axis=1))


def act_sigma_on_u(spec: LambdaSpec, sigma: GroupElem,
                   u: CurvIsometry) -> CurvIsometry:
    """The group action on the isotropy factor.

    Per block the rotation part is conjugated, u_i -> R(-t l_i/2) u_i
    R(t l_i/2), and the translation part picks up l_i J Q(z_i) from the
    complex-antilinear part Q of u_i (zero whenever u_i commutes with the
    block rotations, in particular on multiplicity-one blocks).  This is
    the unique map satisfying P_u(sigma g) = P_u(sigma) P_{sigma.u}(g).
    """
    if u.rho != 1:
        raise ValueError("the action is defined on the identity component (rho = +1)")
    _check_elem(spec, sigma)
    z = sigma.zvec
    vs, us = [], []
    for i, ((lam, r), idx) in enumerate(zip(spec.blocks, spec.block_indices)):
        theta = 0.5 * sigma.t * lam
        rot_m, rot_p = _rot(-theta, r), _rot(theta, r)
        ui = rot_m @ u.us[i] @ rot_p
        jm = _jmat(r)
        q_part = 0.5 * (u.us[i] + jm @ u.us[i] @ jm)
        zb = _c2r(z[[j - 1 for j in idx]])
        vs.append(u.vs[i] + lam * (jm @ (q_part @ zb)))
        us.append(ui)
    return CurvIsometry(spec, 1, tuple(vs), tuple(us))


@dataclass(frozen=True)
class IsomElem:
    """Identity-component isometry (sigma, u), acting as L_sigma o P_u."""

    sigma: GroupElem
    iso: CurvIsometry

    def __post_init__(self):
        if not self.iso.identity_component:
            raise ValueError("isometry-group elements need rho = +1 and "
                             "rotational block maps")
        _check_elem(self.iso.spec, self.sigma)

    @property
    def spec(self) -> LambdaSpec:
        return self.iso.spec

    def apply(self, g: GroupElem) -> GroupElem:
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
    u_inv = a.iso.inverse()
    sig = polar(spec, u_inv, g_inv(spec, a.sigma))
    return IsomElem(sig, act_sigma_on_u(spec, sig, a.iso).inverse())


def o_r_distance_from_identity(iso: CurvIsometry) -> float:
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


def _to_exact(values) -> list[Fraction] | None:
    out = []
    for v in values:
        if isinstance(v, bool):
            return None
        if isinstance(v, (int, Fraction)):
            out.append(Fraction(v))
        elif isinstance(v, str):
            out.append(Fraction(v))
        else:
            return None  # floats and anything else are inexact: refuse to guess
    return out


def lattice_criterion(values) -> LatticeVerdict:
    """Whether the frequencies generate a discrete subgroup of (R, +).

    Decidable only for exact rational input (ints, Fractions, or strings
    like "2/3"); floats yield an undecidable verdict rather than a guess.
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
    # Exact rationals are pairwise commensurable, so the generated subgroup
    # is (gcd) Z and in particular discrete.
    gen = exact[0]
    for v in exact[1:]:
        gen = _fraction_gcd(gen, v)
    return LatticeVerdict(True, True, gen,
                          f"all frequencies are integer multiples of {gen}")


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator,
                             b.numerator * a.denominator),
                    a.denominator * b.denominator)


def commensurability_oracle(values) -> bool:
    """Brute-force check that the generated additive subgroup is discrete:
    scale by the common denominator and verify every frequency is an
    integer multiple of the integer gcd."""
    exact = _to_exact(values)
    if exact is None:
        raise ValueError("oracle needs exact rational input")
    lcm = 1
    for v in exact:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [v * lcm for v in exact]
    if any(i.denominator != 1 for i in ints):
        return False
    g = 0
    for i in ints:
        g = math.gcd(g, i.numerator)
    step = Fraction(g, lcm)
    return g > 0 and all((v / step).denominator == 1 for v in exact)
