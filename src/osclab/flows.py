"""Geodesic flows on oscillator groups, reduced to the Lie algebra.

Three equivalent right-hand sides are provided:

    body      xdot = -L_x x, contracted from the connection table
    euler_u   u(xdot) = [u(x), x]
    lax       ydot = [y, u^-1(y)]  with y = u(x)

Solutions of the three forms are related by y = u(x).  Trajectories carry
a log of registered conserved quantities so integrator drift is auditable,
and blow-up detection distinguishes norm explosion from step underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ode
from .algebra import LambdaSpec, _as_elem, ad, basis_brackets, basis_vector, bracket
from .connection import levi_civita
from .metrics import Metric, completeness_criteria, named_family

BODY = "body"
EULER = "euler_u"
LAX = "lax"
_FORMS = (BODY, EULER, LAX)


@dataclass(frozen=True)
class FlowProblem:
    """A geodesic initial value problem in one of the three forms."""

    metric: Metric
    x0: np.ndarray
    t_span: tuple[float, float]
    form: str = EULER
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"form must be one of {_FORMS}, got {self.form!r}")
        object.__setattr__(self, "x0", _as_elem(self.metric.spec, self.x0).copy())

    @cached_property
    def rhs(self):
        """The selected vector field as f(t, state).

        Each form is reduced to one flattened bilinear contraction against a
        precomputed (dim^2, dim) table, which keeps the per-call cost at a
        few vector operations.
        """
        spec = self.metric.spec
        d = spec.dim
        u = self.metric.iso.matrix
        if self.form == BODY:
            lflat = -levi_civita(self.metric).coeffs.reshape(d * d, d)
            def f(t, x):
                return (x[:, None] * x).ravel() @ lflat
            return f
        bflat = basis_brackets(spec).reshape(d * d, d)
        uinv = self.metric.iso.inv  # u factored once, reused every call
        if self.form == EULER:
            table = np.ascontiguousarray(bflat @ uinv.T)
            def f(t, x):
                return ((u @ x)[:, None] * x).ravel() @ table
            return f
        def f(t, y):
            return (y[:, None] * (uinv @ y)).ravel() @ bflat
        return f

    def to_euler_states(self, states: np.ndarray) -> np.ndarray:
        """Map a stack of raw samples of this problem to euler (x) coordinates."""
        if self.form == LAX:
            return _rowwise(self.metric.iso.inv, states)
        return states


# Stacked products.  Each row of a stacked matmul runs the same BLAS kernel
# as the single-state product (gemv for m @ x, dot for w @ x), so the values
# are bit-equal to a per-row loop; X @ m.T or einsum are not.

def _rowwise(m, X):
    """m @ x for every row x of X; m is a matrix or a vector."""
    return (m @ X[:, :, None])[..., 0]


def _quadratic(m, X):
    """x @ m @ x for every row x of X."""
    return (X[:, None, :] @ m @ X[:, :, None])[:, 0, 0]


def _sq(v):
    # libm pow(v, 2), the rounding the pinned invariant logs were made with
    # (a scalar v ** 2 calls it); array v ** 2 computes v * v instead, which
    # differs in the last bit for about 0.1% of inputs.
    return np.float_power(v, 2)


@dataclass(frozen=True)
class FirstIntegral:
    name: str
    fn: object  # callable on an (N, dim) stack of euler-coordinates states

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)[None])[0])


@dataclass(frozen=True)
class FirstIntegralSet:
    integrals: tuple[FirstIntegral, ...]
    notes: tuple[str, ...] = ()

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.integrals)


@dataclass(frozen=True)
class AdaptedFrame:
    """k-orthonormal eigenframe of u on the Euclidean complement of the
    canonical Cartan subalgebra, plus the Cartan block of u."""

    basis_inv: np.ndarray  # inverse of the frame with columns (e_-1, e_0, E_1..E_2n)
    mu: np.ndarray     # eigenvalues of u on the complement, ascending
    a: float           # u(e_0)   = a e_-1 + alpha e_0
    alpha: float
    b: float           # u(e_-1)  = alpha e_-1 + b e_0


def cartan_adapted_frame(metric: Metric, tol: float = 1e-10) -> AdaptedFrame:
    """Requires u to stabilize the canonical Cartan subalgebra span{e_-1, e_0}."""
    spec = metric.spec
    u = metric.iso.matrix
    d = spec.dim
    for col in (0, 1):
        if float(np.max(np.abs(u[2:, col]))) > tol * max(1.0, float(np.max(np.abs(u[:, col])))):
            raise ValueError("u does not stabilize the canonical Cartan subalgebra")
    lam_rep = np.concatenate([spec.lam, spec.lam])
    scale = np.sqrt(1.0 / lam_rep)          # Cholesky factor of the diagonal Gram
    a_w = u[2:, 2:]
    a_f = (a_w / scale[None, :]) * scale[:, None]
    sym_res = float(np.max(np.abs(a_f - a_f.T)))
    if sym_res > 1e-8:
        raise ValueError(f"u restricted to the Euclidean factor is not symmetric ({sym_res:.2e})")
    mu, vecs = np.linalg.eigh(0.5 * (a_f + a_f.T))
    E = np.zeros((d, 2 * spec.n))
    E[2:, :] = vecs / scale[:, None]
    basis = np.column_stack([basis_vector(spec, 0), basis_vector(spec, 1), E])
    return AdaptedFrame(np.linalg.inv(basis), mu,
                        a=float(u[0, 1]), alpha=float(u[1, 1]), b=float(u[1, 0]))


def first_integrals(metric: Metric) -> FirstIntegralSet:
    """The conserved quantities applicable to this metric's geodesic flow.

    Always registered: E = k_u(x,x) and A = k(ux,ux) (the two Lax-form
    integrals transported by y = u(x)) and the center pairing
    C = k(x, u(e_0)).  When u stabilizes the canonical Cartan subalgebra
    and moves the center (a != 0), the quadratic family Q_j built in the
    adapted eigenframe is added.  The dim-4 index-2 example carries its two
    special polynomial integrals.
    """
    spec = metric.spec
    gram = metric.form.gram
    u = metric.iso.matrix
    gu = gram @ u
    ue0 = gram @ (u @ basis_vector(spec, 1))
    uT_g_u = u.T @ gram @ u

    out = [
        FirstIntegral("E", lambda X, m=gu: _quadratic(m, X)),      # k_u(x, x)
        FirstIntegral("A", lambda X, m=uT_g_u: _quadratic(m, X)),  # k(u x, u x)
        FirstIntegral("C", lambda X, w=ue0: _rowwise(w, X)),       # k(x, u(e_0))
    ]
    notes: list[str] = []

    try:
        frame = cartan_adapted_frame(metric)
    except ValueError:
        frame = None
        notes.append("u does not stabilize the canonical Cartan subalgebra; "
                     "only the generic integrals are registered")
    if frame is not None:
        mu = frame.mu
        if mu.size > 1 and float(np.min(np.abs(np.diff(mu)))) < 1e-10:
            notes.append("repeated eigenvalues on the Euclidean factor; "
                         "the adapted eigenframe is not unique")
        if abs(frame.a) > 1e-12:
            beta_den = frame.a * mu
            beta = (frame.a * frame.b - frame.alpha**2) / beta_den
            binv, ue0w = frame.basis_inv, ue0
            def make_q(j):
                def q(X):
                    xb = _rowwise(binv, X)
                    cx = _rowwise(ue0w, X)
                    quad = np.sum(mu * (mu[j] - mu) * xb[:, 2:] ** 2, axis=1)
                    return beta[j] * _sq(mu[j] * xb[:, 0] - cx) + quad
                return q
            for j in range(2 * spec.n):
                out.append(FirstIntegral(f"Q{j + 1}", make_q(j)))
        else:
            notes.append("u fixes the center line (a = 0); the quadratic "
                         "family degenerates and is skipped")

    if metric.iso.kind == "u2_dim4":
        # P1 = 2 x_1 xc_1 + x_-1^2 + x_0^2 and P2 = x_-1 xc_1 + x_0 x_1
        out.append(FirstIntegral(
            "P1", lambda X: 2 * X[:, 2] * X[:, 3] + _sq(X[:, 0]) + _sq(X[:, 1])))
        out.append(FirstIntegral("P2", lambda X: X[:, 0] * X[:, 3] + X[:, 1] * X[:, 2]))
    return FirstIntegralSet(tuple(out), tuple(notes))


@dataclass(frozen=True)
class Trajectory:
    problem: FlowProblem
    ts: np.ndarray
    states: np.ndarray            # raw samples in the problem's own form
    status: str
    t_detected: float | None
    invariant_log: dict[str, np.ndarray]
    n_steps: int                  # accepted steps, as counted by the solver
    n_rejected: int

    @property
    def completed(self) -> bool:
        return self.status == ode.COMPLETED

    @cached_property
    def euler_states(self) -> np.ndarray:
        return self.problem.to_euler_states(self.states)

    def invariant_drift(self) -> dict[str, float]:
        """Per integral, max |I(t) - I(0)| / max(|I(0)|, 1)."""
        out = {}
        for name, vals in self.invariant_log.items():
            denom = max(abs(float(vals[0])), 1.0)
            out[name] = float(np.max(np.abs(vals - vals[0]))) / denom
        return out


def integrate(problem: FlowProblem, integrals: FirstIntegralSet | None = None) -> Trajectory:
    """Run the adaptive integrator and log registered conserved quantities."""
    if integrals is None:
        integrals = first_integrals(problem.metric)
    res = ode.solve_rk45(problem.rhs, problem.t_span, problem.x0,
                         rtol=problem.rtol, atol=problem.atol)
    xs = problem.to_euler_states(res.ys)
    log = {i.name: i.fn(xs) for i in integrals.integrals}
    return Trajectory(problem, res.ts, res.ys, res.status, res.t_detected, log,
                      res.n_steps, res.n_rejected)


# -- analytic references -------------------------------------------------------

def analytic_gamma1(c: float, rho: float, t: float) -> np.ndarray:
    """The explicit incomplete solution of the dim-4 index-1 example:
    (c, c, c - (2 rho^2/c) sec^2(rho t), -2 rho tan(rho t)).  Defined for
    cos(rho t) != 0; c must be nonzero."""
    if c == 0.0:
        raise ValueError("c must be nonzero")
    ct = math.cos(rho * t)
    if abs(ct) < 1e-12:
        raise ValueError(f"t={t} is a pole of the solution (cos(rho t) = 0)")
    sec2 = 1.0 / (ct * ct)
    return np.array([c, c, c - (2.0 * rho**2 / c) * sec2,
                     -2.0 * rho * math.tan(rho * t)])


def analytic_gamma1_velocity(c: float, rho: float, t: float) -> np.ndarray:
    ct = math.cos(rho * t)
    if abs(ct) < 1e-12:
        raise ValueError(f"t={t} is a pole of the solution")
    sec2 = 1.0 / (ct * ct)
    return np.array([0.0, 0.0,
                     -(4.0 * rho**3 / c) * sec2 * math.tan(rho * t),
                     -2.0 * rho**2 * sec2])


def gamma1_residual(c: float, rho: float, t: float) -> float:
    """|u1(gamma1') - [u1(gamma1), gamma1]| at time t (frequency vector (1,))."""
    spec = LambdaSpec((1.0,))
    u1 = named_family(spec, "u1_dim4").matrix
    g = analytic_gamma1(c, rho, t)
    gdot = analytic_gamma1_velocity(c, rho, t)
    return float(np.max(np.abs(u1 @ gdot - bracket(spec, u1 @ g, g))))


def scalar_blowup_time(x0: float) -> float:
    """Blow-up time of xdot = x^2/2 from x(0) = x0: 2/x0 for x0 > 0, else inf."""
    return 2.0 / x0 if x0 > 0 else math.inf


def scalar_blowup_probe(x0: float, rtol: float = 1e-10,
                        atol: float = 1e-12) -> ode.IntegrationResult:
    """Numeric integration of the scalar comparison equation, for calibrating
    the blow-up detector against the known time 2/x0."""
    return ode.solve_rk45(lambda t, y: 0.5 * y * y, (0.0, 4.0 * scalar_blowup_time(x0)),
                          np.array([float(x0)]), rtol=rtol, atol=atol)


def euler_coadjoint_residual(metric: Metric, x) -> float:
    """Pointwise consistency of the euler form with its coadjoint version.

    Transporting x by xi = Gram u x, the coadjoint equation requires
    xi' = ad_x^T xi; the residual compares that with Gram u xdot.
    """
    spec = metric.spec
    x = _as_elem(spec, x)
    gram = metric.form.gram
    u = metric.iso.matrix
    xdot = metric.iso.inv @ bracket(spec, u @ x, x)
    lhs = gram @ (u @ xdot)
    rhs = ad(spec, x).T @ (gram @ (u @ x))
    return float(np.max(np.abs(lhs - rhs)))


# -- completeness probe --------------------------------------------------------

@dataclass(frozen=True)
class ProbeSample:
    index: int
    orientation: int              # +1 forward, -1 backward
    status: str
    t_detected: float | None


@dataclass(frozen=True)
class ProbeReport:
    metric_kind: str
    verdict: str                  # sufficient-condition verdict for completeness
    sample_count: int
    t_max: float
    samples: tuple[ProbeSample, ...]
    n_blowup: int
    n_underflow: int
    earliest_blowup: float | None

    @property
    def blown_fraction(self) -> float:
        return (self.n_blowup + self.n_underflow) / max(1, len(self.samples))


def random_initial_state(spec: LambdaSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm direction on the Euclidean factor plus bounded Cartan part.

    The canonical form is indefinite, so there is no compact unit sphere;
    the Euclidean factor is sampled uniformly on its unit ellipsoid and the
    e_-1, e_0 components uniformly in [-1, 1].
    """
    n = spec.n
    w = rng.standard_normal(2 * n)
    lam_rep = np.concatenate([spec.lam, spec.lam])
    knorm = math.sqrt(float(np.sum(w * w / lam_rep)))
    x = np.empty(spec.dim)
    x[0], x[1] = rng.uniform(-1.0, 1.0, size=2)
    x[2:] = w / knorm
    return x


def completeness_probe(metric: Metric, sample_count: int, t_max: float,
                       seed: int = 0, rtol: float = 1e-10,
                       atol: float = 1e-12) -> ProbeReport:
    """Integrate the euler form from random initial conditions in both time
    orientations and tally blow-ups."""
    spec = metric.spec
    children = np.random.SeedSequence(seed).spawn(sample_count)
    states = [random_initial_state(spec, np.random.default_rng(s)) for s in children]
    rhs = FlowProblem(metric, np.zeros(spec.dim), (0.0, t_max), form=EULER).rhs

    results = []
    for i, st in enumerate(states):
        for ori in (+1, -1):
            res = ode.solve_rk45(rhs, (0.0, ori * t_max), st, rtol=rtol, atol=atol)
            results.append(ProbeSample(i, ori, res.status, res.t_detected))

    blow = [s for s in results if s.status == ode.BLOWUP]
    under = [s for s in results if s.status == ode.STEP_UNDERFLOW]
    times = [abs(s.t_detected) for s in blow + under if s.t_detected is not None]
    return ProbeReport(
        metric_kind=metric.iso.kind,
        verdict=completeness_criteria(spec, metric.iso),
        sample_count=sample_count,
        t_max=t_max,
        samples=tuple(results),
        n_blowup=len(blow),
        n_underflow=len(under),
        earliest_blowup=min(times) if times else None,
    )


# -- CSV export ---------------------------------------------------------------

def trajectory_csv(traj: Trajectory) -> str:
    """Full-precision CSV: t, coordinates, one column per logged integral;
    the final comment line records the status and any detected time."""
    spec = traj.problem.metric.spec
    names = ["t", "x_-1", "x_0"]
    names += [f"x_{j}" for j in range(1, spec.n + 1)]
    names += [f"xc_{j}" for j in range(1, spec.n + 1)]
    names += list(traj.invariant_log.keys())
    lines = [",".join(names)]
    fmt = ",".join(["%.17g"] * len(names))
    table = np.column_stack([traj.ts, traj.states, *traj.invariant_log.values()])
    lines += [fmt % tuple(row.tolist()) for row in table]
    tail = f"# status={traj.status}"
    if traj.t_detected is not None:
        tail += f" t_detected={traj.t_detected:.17g}"
    lines.append(tail)
    return "\n".join(lines) + "\n"
