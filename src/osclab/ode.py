"""Adaptive embedded Runge-Kutta 8(5,3) integrator with blow-up detection.

Hairer's DOP853: 12 stages plus FSAL, so 12 right-hand-side calls per
attempted step, an error estimate that combines the embedded 5th- and
3rd-order estimates, and PI step-size control.  Termination is explicit
about why integration stopped:

    completed         reached the end of the time span
    blowup            the caller's singularity test located a finite-time
                      singularity between an accepted state and the end
                      of the span
    unbounded_growth  an accepted step's max-norm exceeded the blow-up
                      threshold with no singularity located on the way
    step_underflow    controller pushed the step below H_MIN while the norm
                      was increasing

The singularity test is called when an accepted state's max-norm first
passes each decade from DECIDE_FROM to DECIDE_UNTIL; it reads the state and
nothing else, so a run it does not stop keeps its step sequence.  A trial
step whose state is not finite has an infinite error estimate and is
rejected like any step that misses the tolerance (its overflow warnings are
silenced).  Time runs forward only.  Two classes are raised.
``SolverInputError``, a ``ValueError``, refuses up front inputs that could
only produce a meaningless status: negative, non-finite or all-zero
tolerances, a non-finite or backward time span, a non-finite initial state,
an initial state beyond the blow-up threshold, a non-finite f(t0, y0), or a
y0 or f(t0, y0) whose ratio to the tolerance scale overflows or is 0/0, so
that no first step can be guessed.  ``SolverRefusal``, a ``RuntimeError``,
stops a run with no status to report: a step underflow with non-increasing
norm (stiffness or a bug, not incompleteness evidence), or a span that
``MAX_STEPS`` (300,000) accepted steps do not cover.

A right-hand side returns a fresh array on every call, never a shared
buffer, and leaves its input alone: the solver keeps references to its
stage inputs and outputs (accepted states are stored uncopied).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hairer's dop853.f.  Row 12 holds the order-8 weights at node 1: stage 12's
# input is the new state and its output the next step's first stage (FSAL).
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2]),
    np.array([2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
              9.24834003261792003115737966543e-1]),
    np.array([3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
              1.25467687566822425016691814123e-1]),
    np.array([3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
              6.02165389804559606850219397283e-2, -1.7578125e-2]),
    np.array([3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
              1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
              8.27378916381402288758473766002e-3]),
    np.array([6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
              -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
              2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]),
    np.array([4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
              -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
              1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
              -2.03312017085086261358222928593e-2]),
    np.array([-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
              1.09143734899672957818500254654, -8.14978701074692612513997267357,
              -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
              2.49360555267965238987089396762, -3.0467644718982195003823669022]),
    np.array([2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
              -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
              2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
              -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
              6.43392746015763530355970484046e-1]),
    np.array([5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
              1.89151789931450038304281599044, -5.8012039600105847814672114227,
              3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
              2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]),
]
_E5 = np.array([0.1312004499419488073250102996e-1, 0, 0, 0, 0,
                -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
                0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1, 0])
_E3 = np.append(_A[12], 0.0) - np.array(
    [0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
     0.733846688281611857341361741547, 0, 0, 0.220588235294117647058823529412e-1, 0])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for an order-8 propagator.
_ALPHA = 0.7 / 8
_BETA = 0.4 / 8

# Solver limits: the step floor, the max-norm at which an unconfirmed run
# stops as unbounded growth, and the accepted-step budget.  Read once per
# solve_rk45 call.
H_MIN = 1e-13
BLOWUP_THRESHOLD = 1e8
MAX_STEPS = 300_000
# The singularity test runs at the first accepted state past each decade
# DECIDE_FROM, 10 DECIDE_FROM, ..., DECIDE_UNTIL of the max-norm.
DECIDE_FROM = 1e2
DECIDE_UNTIL = 1e7

COMPLETED = "completed"
BLOWUP = "blowup"
UNBOUNDED_GROWTH = "unbounded_growth"
STEP_UNDERFLOW = "step_underflow"


class _NamesTimes(Exception):  # args: a format string, then the times it names
    def __str__(self):
        message, *times = self.args
        return message.format(*times) if times else message


class SolverInputError(_NamesTimes, ValueError):
    """Tolerances, time span, initial state or f(t0, y0) that no integration can honour."""


class SolverRefusal(_NamesTimes, RuntimeError):
    """A run that stopped without a status: the step budget ran out, or the
    step underflowed while the norm was not growing."""


@dataclass(frozen=True)
class IntegrationResult:
    ts: np.ndarray
    ys: np.ndarray
    status: str
    t_detected: float | None = None
    n_steps: int = 0                # accepted steps
    n_rejected: int = 0

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED


def _check_inputs(t0, t1, y0, rtol, atol, blowup_threshold):
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise SolverInputError(f"tolerances must be finite and non-negative, "
                               f"got rtol={rtol!r}, atol={atol!r}")
    if rtol == 0.0 and atol == 0.0:
        raise SolverInputError("rtol and atol are both zero; no step can meet that tolerance")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise SolverInputError("time span endpoints must be finite, got ({!r}, {!r})", t0, t1)
    if t1 < t0:
        raise SolverInputError("backward time span ({!r}, {!r}): steps go forward only", t0, t1)
    if not np.all(np.isfinite(y0)):
        raise SolverInputError("initial state has non-finite entries")
    norm = float(np.max(np.abs(y0), initial=0.0))
    if norm > blowup_threshold:  # a blowup verdict at t0 would mean nothing
        raise SolverInputError(f"initial state max-norm {norm:.3e} already exceeds "
                               f"the blow-up threshold {blowup_threshold:g}")


def _initial_step(f, t0, y0, f0, rtol, atol):
    # Hairer-style two-stage guess.
    scale = atol + rtol * np.abs(y0)
    with np.errstate(all="ignore"):  # a guess of 0 or NaN is refused below
        d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # 0 would be divided by below, and no step of NaN size ends
        raise SolverInputError(f"no first step at t={{}} (guess {h0}): y0 or f(t0, y0) over "
                               "the tolerance scale atol + rtol |y0| overflows or is 0/0", t0)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1)


def solve_rk45(f, t_span, y0, rtol=1e-10, atol=1e-12,
               singularity=None) -> IntegrationResult:
    """Integrate y' = f(t, y) forward over t_span = (t0, t1), recording every
    accepted step; a backward span (t1 < t0) is refused.

    Steps stop only at the end of the span or at a blow-up, unbounded-growth
    or underflow verdict.  ``singularity(t, y)`` returns the time of a
    finite-time singularity it locates ahead of the accepted state (t, y), or
    None; a located one no later than t1 stops the run as ``blowup`` with
    ``t_detected`` that time.  Without it no run can stop as ``blowup``.
    """
    h_min, blowup_threshold, max_steps = H_MIN, BLOWUP_THRESHOLD, MAX_STEPS
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    _check_inputs(t0, t1, y, rtol, atol, blowup_threshold)
    span = t1 - t0
    if span == 0.0:
        return IntegrationResult(np.array([t0]), y[None, :].copy(), COMPLETED)

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        f0 = f(t0, y)
    if not np.all(np.isfinite(f0)):
        raise SolverInputError("right-hand side not finite at t={}: "
                               "f(t0, y0) overflows the float range", t0)
    h = min(_initial_step(f, t0, y, f0, rtol, atol), span)

    # Stage arrays are fresh from each step, so samples are stored uncopied.
    ts, ys = [t0], [y]
    t = t0
    k = np.empty((13, y.size))
    k[12] = f0  # FSAL slot holds f(t, y)
    stages = [(i, _C[i], _A[i].dot, k[:i]) for i in range(1, 13)]
    err_prev = 1.0
    n_steps = n_rejected = 0
    abs_y = np.abs(y)
    norm = norm_prev = float(abs_y.max())  # max-norms of y and its predecessor
    status, t_detected = COMPLETED, None
    next_decision = DECIDE_FROM if singularity is not None else math.inf

    # A non-finite trial is a rejected step: its overflow warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1:
            if n_steps >= max_steps:
                raise SolverRefusal(f"step budget {max_steps} exhausted at t={{}}", t)
            # Floor first: an end closer than h_min is landed on, not stepped over.
            h = min(max(h, h_min), t1 - t)
            k[0] = k[12]
            failed_before = False
            while True:
                # Bound .dot, the array first in a product and ufunc.reduce run
                # the kernels of @, h * v and .sum() / .max() on the same operands
                # (same bits) at less dispatch cost: reverting them is a slowdown,
                # not a style fix.
                for i, c, a_dot, k_prev in stages:
                    yi = y + a_dot(k_prev) * h
                    k[i] = f(t + c * h, yi)
                y_new = yi  # stage 12's input is the order-8 solution
                abs_new = np.abs(y_new)
                norm_new = float(np.maximum.reduce(abs_new))  # NaN or inf unless finite
                if math.isfinite(norm_new):
                    # Hairer's error: the RMS of h*e5 times |e5| / sqrt(|e5|^2 + 0.01 |e3|^2).
                    scale = np.maximum(abs_y, abs_new) * rtol + atol
                    e5, e3 = _E5.dot(k) / scale, _E3.dot(k) / scale
                    n5, n3 = float(np.add.reduce(e5 * e5)), float(np.add.reduce(e3 * e3))
                    err = h * n5 / math.sqrt(e5.size * (n5 + 0.01 * n3)) if n5 else 0.0
                else:
                    err = math.inf  # a non-finite trial is a rejected step
                if err <= 1.0:
                    break
                n_rejected += 1
                failed_before = True
                factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ALPHA))
                h *= factor
                if h < h_min:
                    if norm < norm_prev:
                        raise SolverRefusal("step size underflow at t={} without norm "
                                            "growth; refusing to report incompleteness", t)
                    status, t_detected = STEP_UNDERFLOW, t
                    break
            if status != COMPLETED:
                break

            # Accepted.
            n_steps += 1
            t, y, abs_y = t + h, y_new, abs_new
            norm_prev, norm = norm, norm_new
            ts.append(t)
            ys.append(y)
            if norm > next_decision:
                t_hat = singularity(t, y)
                # A singularity past the end of the span is no stop: the run
                # keeps stepping and may still complete.
                if t_hat is not None and t_hat <= t1:
                    status, t_detected = BLOWUP, t_hat
                    break
                while next_decision < norm:
                    next_decision *= 10.0
                if next_decision > DECIDE_UNTIL:
                    next_decision = math.inf
            if norm > blowup_threshold:
                status = UNBOUNDED_GROWTH
                break
            factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA if err > 0 else _MAX_FACTOR
            if failed_before:
                factor = min(1.0, factor)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)

    return IntegrationResult(np.array(ts), np.array(ys), status, t_detected,
                             n_steps, n_rejected)
