"""Geodesic flows on oscillator groups, reduced to the Lie algebra.

Three equivalent right-hand sides are provided:

    body      xdot = -L_x x, contracted from the connection table
    euler_u   u(xdot) = [u(x), x]
    lax       ydot = [y, u^-1(y)]  with y = u(x)

Solutions of the three forms are related by y = u(x).  Trajectories carry
a log of registered conserved quantities so integrator drift is auditable.
Each form is a homogeneous quadratic field x' = B(x, x), and a run is
reported as a blow-up only where a Taylor series of that field locates a
finite-time singularity ahead (``locate_singularity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import ode
from .algebra import (LambdaSpec, _as_elem, _row_bilinear, _rowwise, ad, basis_brackets,
                      basis_vector, bracket)
from .connection import levi_civita
from .metrics import (COMPLETE_CARTAN, Metric, completeness_criteria, named_family,
                      stabilizes_cartan)

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
    def bilinear(self):
        """The field as x' = B(x, x) with B(x, y) = ((P x) outer (Q y)).ravel()
        @ table: the triple (P, Q, table), None standing for the identity."""
        spec = self.metric.spec
        d = spec.dim
        if self.form == BODY:
            return None, None, -levi_civita(self.metric).coeffs.reshape(d * d, d)
        bflat = basis_brackets(spec).reshape(d * d, d)
        uinv = self.metric.iso.inv  # u factored once, reused every call
        if self.form == EULER:
            return self.metric.iso.matrix, None, np.ascontiguousarray(bflat @ uinv.T)
        return None, uinv, bflat

    @cached_property
    def rhs(self):
        """The selected vector field as f(t, state): one flattened bilinear
        contraction against the (P, Q, table) of ``bilinear``, by bound ``.dot``
        calls (the gemv of ``@`` at less dispatch cost), returning a fresh array.
        """
        p, q, table = self.bilinear

        def f(t, x):
            return ((x if p is None else p.dot(x))[:, None]
                    * (x if q is None else q.dot(x))).ravel().dot(table)
        return f

    def singularity(self, t, x, direction):
        """``locate_singularity`` for this field: the solver's blow-up test."""
        return locate_singularity(self.bilinear, t, x, direction)


def _sq(v):
    # libm pow(v, 2), the rounding the pinned invariant logs were made with
    # (a scalar v ** 2 calls it); array v ** 2 computes v * v instead, which
    # differs in the last bit for about 0.1% of inputs.
    return np.float_power(v, 2)


def cartan_adapted_frame(metric: Metric) -> tuple[np.ndarray, np.ndarray]:
    """``(basis_inv, mu)``: the inverse of the frame (e_-1, e_0, E_1..E_2n), E_j a
    k-orthonormal eigenframe of u on the Euclidean complement of the canonical
    Cartan subalgebra span{e_-1, e_0}, and u's eigenvalues there, ascending.
    Raises ValueError unless u stabilizes span{e_-1, e_0}; on E, u is symmetric
    to ``K_SYMMETRY_TOL`` in this frame, as ``metric_from_iso`` accepted it."""
    spec = metric.spec
    u = metric.iso.matrix
    if not stabilizes_cartan(u):
        raise ValueError("u does not stabilize the canonical Cartan subalgebra")
    lam_rep = np.concatenate([spec.lam, spec.lam])
    scale = np.sqrt(1.0 / lam_rep)          # Cholesky factor of the diagonal Gram
    a_f = (u[2:, 2:] / scale[None, :]) * scale[:, None]
    mu, vecs = np.linalg.eigh(0.5 * (a_f + a_f.T))
    E = np.zeros((spec.dim, 2 * spec.n))
    E[2:, :] = vecs / scale[:, None]
    basis = np.column_stack([basis_vector(spec, 0), basis_vector(spec, 1), E])
    return np.linalg.inv(basis), mu


def first_integrals(metric: Metric) -> dict:
    """The conserved quantities applicable to this metric's geodesic flow, as
    a dict from name to a function of an (N, dim) stack of euler-coordinates
    states, in registration order.

    Always registered: E = k_u(x,x) and A = k(ux,ux) (the two Lax-form
    integrals transported by y = u(x)) and the center pairing
    C = k(x, u(e_0)).  Exactly when the verdict of ``completeness_criteria``
    is complete_cartan, the quadratic family Q1..Q2n built in the adapted
    frame follows.  The dim-4 index-2 example carries its two special
    polynomial integrals P1, P2.
    """
    spec = metric.spec
    gram = metric.form.gram
    u = metric.iso.matrix
    gu = gram @ u
    ue0 = gram @ (u @ basis_vector(spec, 1))
    with np.errstate(over="ignore"):  # a huge u overflows k(ux, ux); its drift reads NaN
        uT_g_u = u.T @ gram @ u

    out = {
        "E": lambda X, m=gu: _row_bilinear(X, m, X),      # k_u(x, x)
        "A": lambda X, m=uT_g_u: _row_bilinear(X, m, X),  # k(u x, u x)
        "C": lambda X, w=ue0: _rowwise(w, X),             # k(x, u(e_0))
    }
    if completeness_criteria(metric.iso) == COMPLETE_CARTAN:
        # u(e_0) = a e_-1 + alpha e_0 and u(e_-1) = alpha e_-1 + b e_0 on the
        # Cartan subalgebra, with a != 0 (u moves the center line).
        a, alpha, b = float(u[0, 1]), float(u[1, 1]), float(u[1, 0])
        binv, mu = cartan_adapted_frame(metric)
        beta = (a * b - alpha**2) / (a * mu)
        def make_q(j):
            def q(X):
                xb = _rowwise(binv, X)
                cx = _rowwise(ue0, X)
                quad = np.sum(mu * (mu[j] - mu) * xb[:, 2:] ** 2, axis=1)
                return beta[j] * _sq(mu[j] * xb[:, 0] - cx) + quad
            return q
        for j in range(2 * spec.n):
            out[f"Q{j + 1}"] = make_q(j)

    if metric.iso.kind == "u2_dim4":
        # P1 = 2 x_1 xc_1 + x_-1^2 + x_0^2 and P2 = x_-1 xc_1 + x_0 x_1
        out["P1"] = lambda X: 2 * X[:, 2] * X[:, 3] + _sq(X[:, 0]) + _sq(X[:, 1])
        out["P2"] = lambda X: X[:, 0] * X[:, 3] + X[:, 1] * X[:, 2]
    return out


@dataclass(frozen=True, kw_only=True)
class Trajectory(ode.IntegrationResult):
    """A solver run of ``problem``: ``ys`` holds the samples in the problem's
    own form and ``euler_states`` the same samples in euler (x) coordinates,
    on which ``invariant_log`` evaluates each integral."""

    problem: FlowProblem
    euler_states: np.ndarray
    invariant_log: dict[str, np.ndarray]

    def invariant_drift(self) -> dict[str, float]:
        """Per integral, max |I(t) - I(0)| / max(|I(0)|, 1)."""
        out = {}
        for name, vals in self.invariant_log.items():
            denom = max(abs(float(vals[0])), 1.0)
            with np.errstate(invalid="ignore"):  # inf - inf: a NaN drift fails its check
                out[name] = float(np.max(np.abs(vals - vals[0]))) / denom
        return out


def integrate(problem: FlowProblem, integrals: dict | None = None) -> Trajectory:
    """Run the adaptive integrator and log ``integrals`` (name to stacked function)."""
    res = ode.solve_rk45(problem.rhs, problem.t_span, problem.x0,
                         rtol=problem.rtol, atol=problem.atol,
                         singularity=problem.singularity)
    if integrals is None:  # built after the solver, which may refuse the run
        integrals = first_integrals(problem.metric)
    xs = _rowwise(problem.metric.iso.inv, res.ys) if problem.form == LAX else res.ys
    return Trajectory(**vars(res), problem=problem, euler_states=xs,
                      invariant_log={name: fn(xs) for name, fn in integrals.items()})


# -- blow-up test ---------------------------------------------------------------

# Taylor orders of the series, ratios per fit window, and the relative
# agreement the two windows' intercepts need for a confirmed singularity.
_ORDERS = 30
_WINDOW = 9
_AGREE = 1e-9


def locate_singularity(bilinear, t: float, x: np.ndarray, direction: float) -> float | None:
    """The time of a finite-time singularity ahead of the state x of
    x' = B(x, x) at time t, or None when none is confirmed.

    ``bilinear`` is (P, Q, table) as in ``FlowProblem.bilinear``.  The Taylor
    coefficients follow from a_{k+1} = (1/(k+1)) sum_i B(a_i, a_{k-i}), B's
    sign following the time direction, with the state and time rescaled so
    that a_0 and a_1 have unit max-norm (homogeneity undoes both at the end).
    The ratios a_k / a_{k-1} of the component largest at the last order are
    fitted as alpha + beta / k (Domb and Sykes) over two windows of orders.
    A singularity at distance R ahead gives alpha = 1/R in both; an entire
    solution, such as exponential growth, gives alpha -> 0 with windows that
    disagree, and a nearest singularity behind or off the real axis gives
    alternating or oscillating ratios.  A confirmed singularity needs a
    positive intercept on which the two windows agree to ``_AGREE``.
    """
    p, q, table = bilinear
    m = float(np.max(np.abs(x)))
    a = np.zeros((_ORDERS + 1, x.size))
    a[0] = x / m
    pa = a if p is None else np.zeros_like(a)
    qa = a if q is None else np.zeros_like(a)
    scale = direction
    with np.errstate(all="ignore"):  # a runaway series fails the tests below
        for k in range(_ORDERS):
            if p is not None:
                pa[k] = p.dot(a[k])
            if q is not None:
                qa[k] = q.dot(a[k])
            a[k + 1] = (pa[:k + 1].T @ qa[k::-1]).ravel().dot(table) * (scale / (k + 1))
            if k == 0:
                sigma = float(np.max(np.abs(a[1])))
                if not 0.0 < sigma < math.inf:
                    return None
                a[1] /= sigma
                scale = direction / sigma
        c = a[:, int(np.argmax(np.abs(a[-1])))]
        r = (c[1:] / c[:-1])[-2 * _WINDOW:].reshape(2, _WINDOW)
        inv_k = 1.0 / np.arange(_ORDERS - 2 * _WINDOW + 1, _ORDERS + 1).reshape(2, _WINDOW)
        du = inv_k - inv_k.mean(axis=1, keepdims=True)
        beta = (du * r).sum(axis=1) / (du * du).sum(axis=1)
        alpha = r.mean(axis=1) - beta * inv_k.mean(axis=1)
    if not (alpha[1] > 0.0 and abs(alpha[0] - alpha[1]) <= _AGREE * alpha[1]):
        return None
    return t + direction / (float(alpha[1]) * sigma * m)


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
    coeff = 0.5  # x' = coeff x^2: the one statement of the field for rhs and series
    return ode.solve_rk45(lambda t, y: coeff * y * y, (0.0, 4.0 * scalar_blowup_time(x0)),
                          np.array([float(x0)]), rtol=rtol, atol=atol,
                          singularity=partial(locate_singularity,
                                              (None, None, np.array([[coeff]]))))


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
    verdict: str                  # sufficient-condition verdict for completeness
    samples: tuple[ProbeSample, ...]  # two per initial state, forward then backward
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
    problem = FlowProblem(metric, np.zeros(spec.dim), (0.0, t_max), form=EULER)

    results = []
    for i, st in enumerate(states):
        for ori in (+1, -1):
            res = ode.solve_rk45(problem.rhs, (0.0, ori * t_max), st, rtol=rtol, atol=atol,
                                 singularity=problem.singularity)
            results.append(ProbeSample(i, ori, res.status, res.t_detected))

    blow = [s for s in results if s.status == ode.BLOWUP]
    under = [s for s in results if s.status == ode.STEP_UNDERFLOW]
    times = [abs(s.t_detected) for s in blow + under if s.t_detected is not None]
    return ProbeReport(
        verdict=completeness_criteria(metric.iso),
        samples=tuple(results),
        n_blowup=len(blow),
        n_underflow=len(under),
        earliest_blowup=min(times) if times else None,
    )


# -- CSV export ---------------------------------------------------------------

def trajectory_csv(traj: Trajectory) -> str:
    """Full-precision CSV: t, coordinates, one column per logged integral;
    the final comment line records the status and any detected time."""
    names = ["t", *(e.replace("e", "x", 1) for e in traj.problem.metric.spec.basis_names),
             *traj.invariant_log]
    fmt = ",".join(["%.17g"] * len(names))
    table = np.column_stack([traj.ts, traj.ys, *traj.invariant_log.values()])
    # One % over the flat table: per-row tuples cost more, and a list per
    # row kept alive at once sets off the garbage collector.
    rows = "\n".join([fmt] * len(table)) % tuple(table.ravel().tolist())
    tail = f"# status={traj.status}"
    if traj.t_detected is not None:
        tail += f" t_detected={traj.t_detected:.17g}"
    return "\n".join([",".join(names), rows, tail]) + "\n"
