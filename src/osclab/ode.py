"""Adaptive embedded Runge-Kutta 5(4) integrator with blow-up detection.

Dormand-Prince pair, FSAL, PI step-size control. Termination is explicit
about why integration stopped:

    completed       reached the end of the time span
    blowup          solution max-norm exceeded the blow-up threshold
    step_underflow  controller pushed the step below h_min while the norm
                    was increasing

A step underflow with non-increasing norm raises instead, since that is
stiffness or a bug, not incompleteness evidence, and so does a span that
``max_steps`` accepted steps do not cover (``StepBudgetExhausted``).
Inputs that could only produce a meaningless status (negative or all-zero
tolerances, a non-finite time span or initial state) raise
``SolverInputError``, a ``ValueError``, up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Dormand-Prince coefficients.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for an order-5 propagator.
_ALPHA = 0.7 / 5
_BETA = 0.4 / 5

COMPLETED = "completed"
BLOWUP = "blowup"
STEP_UNDERFLOW = "step_underflow"


class SolverInputError(ValueError):
    """Tolerances, time span or initial state that no integration can honour."""


class StepBudgetExhausted(RuntimeError):
    """max_steps accepted steps did not reach the end of the span."""


@dataclass
class IntegrationResult:
    ts: np.ndarray
    ys: np.ndarray
    status: str
    t_detected: float | None = None
    n_steps: int = 0
    n_rejected: int = 0
    message: str = ""


def _error_norm(err, abs_old, abs_new, rtol, atol):
    q = err / (atol + rtol * np.maximum(abs_old, abs_new))
    return math.sqrt(float((q * q).sum()) / q.size)


def _check_inputs(t0, t1, y0, rtol, atol):
    if not (rtol >= 0.0 and atol >= 0.0):
        raise SolverInputError(f"tolerances must be non-negative, got rtol={rtol!r}, atol={atol!r}")
    if rtol == 0.0 and atol == 0.0:
        raise SolverInputError("rtol and atol are both zero; no step can meet that tolerance")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise SolverInputError(f"time span endpoints must be finite, got ({t0!r}, {t1!r})")
    if not np.all(np.isfinite(y0)):
        raise SolverInputError("initial state has non-finite entries")


def _initial_step(f, t0, y0, f0, direction, rtol, atol):
    # Hairer-style two-stage guess.
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def solve_rk45(f, t_span, y0, rtol=1e-10, atol=1e-12, h_min=1e-13,
               blowup_threshold=1e8, max_steps=2_000_000) -> IntegrationResult:
    """Integrate y' = f(t, y) over t_span, recording every accepted step.

    Steps stop only at the end of the span or at a blow-up or underflow
    verdict.  Backward integration (t1 < t0) is supported.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    _check_inputs(t0, t1, y, rtol, atol)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return IntegrationResult(np.array([t0]), y[None, :].copy(), COMPLETED)

    f0 = f(t0, y)
    if not np.all(np.isfinite(f0)):
        raise FloatingPointError(f"right-hand side not finite at t={t0}")
    h = min(_initial_step(f, t0, y, f0, direction, rtol, atol), span)

    # Stage arrays are fresh from each step, so samples are stored uncopied.
    ts, ys = [t0], [y]
    t = t0
    k = np.empty((7, y.size))
    k[6] = f0  # FSAL slot holds f(t, y)
    stages = [(_C[i], _A[i], k[:i], k[i]) for i in range(1, 7)]
    err_prev = 1.0
    n_steps = n_rejected = 0
    abs_y = np.abs(y)
    norm = norm_prev = float(abs_y.max())  # max-norms of y and its predecessor
    status, message = COMPLETED, ""

    while (t1 - t) * direction > 0:
        if n_steps >= max_steps:
            raise StepBudgetExhausted(f"step budget {max_steps} exhausted at t={t}")
        # Floor first: an end closer than h_min is landed on, not stepped over.
        h = min(max(h, h_min), abs(t1 - t))
        k[0] = k[6]
        failed_before = False
        while True:
            hd = h * direction
            for c, a, k_prev, k_out in stages:
                yi = y + hd * np.dot(a, k_prev)
                k_out[:] = f(t + c * hd, yi)
            y_new = yi  # stage 7 input equals the order-5 solution
            abs_new = np.abs(y_new)
            norm_new = float(abs_new.max())  # NaN or inf unless y_new is finite
            if not math.isfinite(norm_new):
                if norm < norm_prev:
                    raise FloatingPointError(
                        f"non-finite state near t={t + hd} with non-growing norm")
                status, message = BLOWUP, "state left the finite range while growing"
                break
            err = _error_norm(hd * np.dot(_E, k), abs_y, abs_new, rtol, atol)
            if err <= 1.0:
                break
            n_rejected += 1
            failed_before = True
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ALPHA))
            h *= factor
            if h < h_min:
                if norm < norm_prev:
                    raise RuntimeError(
                        f"step size underflow at t={t} without norm growth; "
                        "refusing to report incompleteness")
                status = STEP_UNDERFLOW
                message = f"step underflow below h_min={h_min:g} with growing norm"
                break
        if status != COMPLETED:
            break

        # Accepted.
        n_steps += 1
        t, y, abs_y = t + h * direction, y_new, abs_new
        norm_prev, norm = norm, norm_new
        ts.append(t)
        ys.append(y)
        if norm > blowup_threshold:
            status, message = BLOWUP, f"max-norm {norm:.3e} exceeded threshold"
            break
        factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA if err > 0 else _MAX_FACTOR
        if failed_before:
            factor = min(1.0, factor)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-10)

    t_detected = None if status == COMPLETED else t
    return IntegrationResult(np.array(ts), np.array(ys), status, t_detected,
                             n_steps, n_rejected, message)
