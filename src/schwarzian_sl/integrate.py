"""Adaptive integration of complex-valued first-order ODE systems.

The engine is an embedded Dormand-Prince 5(4) pair with PI step-size
control, operating on tuples of Python complex scalars (the systems here
have dimension <= 4, where scalar arithmetic beats array overhead).
Integration runs along a real independent variable in either direction.
``integrate_lanes`` runs the same pair and controller over many parameter
values at once, one lane each: the independent samples of a web or of a
real scan grid, with an optional per-lane terminal event.

One step attempt, ``_dp_attempt``, serves both engines.  It combines the
stages one component at a time: each Python complex of the scalar state,
or the whole (dim, n) lane block as a single component.  Its stages are
spelled out, not looped over tableau rows: on the scalar path such a loop
made a dim-3 attempt two to three times slower (15 us unrolled against
21-35 us, 2 vCPUs, Python 3.11).  Lanes match scalar calls only to about
1e-13, because numpy and Python complex arithmetic can differ in the last
bit.  Step-size control stays per engine, so that the scalar step stays a
Python float.

Stopping semantics:

* ``ReachedEnd``   -- the target abscissa was reached.
* ``EventFired``   -- a user predicate became true at an accepted step.
* ``StepFailure``  -- the proposed step size fell below ``min_step`` or
  was NaN (typically while fighting a pole of the right-hand side), or
  the step budget ran out; the last accepted state is returned, never
  NaN.  Callers that read the terminal state turn this into a
  ``StepFailure`` error through ``raise_if_stalled``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import SchwarzianSLError

ComplexVector = tuple[complex, ...]
RhsFunction = Callable[[float, ComplexVector, complex], Sequence[complex]]
EventPredicate = Callable[[float, ComplexVector], bool]
# lane form: (original indices of the live lanes, x (n,), y (dim, n)) -> (n,) bool
LaneEventPredicate = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class DimensionMismatch(ValueError):
    """State or rhs output length disagrees with the declared dimension."""


class NonFiniteRhs(SchwarzianSLError):
    """The right-hand side is NaN/inf already at the launch point."""


class StepFailure(SchwarzianSLError):
    """A leg whose terminal state is needed stalled before its end."""


class SingularSurface(SchwarzianSLError):
    """A continuous-spectrum resonance denominator vanished."""


class StopReason(Enum):
    REACHED_END = "ReachedEnd"
    EVENT_FIRED = "EventFired"
    STEP_FAILURE = "StepFailure"


@dataclass(frozen=True)
class Tolerances:
    """Local error control: per step, error <= abs + rel*|y| componentwise."""

    rel: float = 1e-8
    abs: float = 1e-10
    max_steps: int = 100_000
    min_step: float = 1e-12

    def __post_init__(self) -> None:
        if self.rel <= 0.0 or self.abs <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class OdeSystem:
    dimension: int
    rhs: RhsFunction
    # the same rhs over lanes: x (n,), y (dim, n), lam (..., n) -> f, singular (n,)
    lanes: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None


@dataclass
class Trajectory:
    """Accepted-step samples of one integration leg.

    ``xs`` is strictly monotone in the direction of integration and
    ``ys[k]`` is the state at ``xs[k]``.
    """

    xs: np.ndarray
    ys: np.ndarray
    terminal: tuple[float, ComplexVector]
    stop_reason: StopReason

    @property
    def x_end(self) -> float:
        return self.terminal[0]

    @property
    def y_end(self) -> ComplexVector:
        return self.terminal[1]


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Hairer-style PI controller.
_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_MIN_FACTOR = 0.2  # strongest shrink per step
_MAX_FACTOR = 10.0  # strongest growth per step

_ARITHMETIC_ERRORS = (OverflowError, ZeroDivisionError, FloatingPointError)


def _dp_attempt(
    rhs: Callable, x, y: Sequence, f: Sequence, hd, x_new, lam,
) -> tuple[tuple, Sequence, tuple]:
    """One Dormand-Prince 5(4) step attempt of size hd from (x, y), where
    f = rhs(x, y, lam); returns (y_new, k7 = rhs(x_new, y_new, lam), err).

    y, f and every stage are sequences of components (Python complexes, or
    one (dim, n) lane block with x, hd and x_new of shape (n,)).
    """
    k2 = rhs(x + _C2 * hd, tuple([a + hd * (_A21 * b) for a, b in zip(y, f)]), lam)
    k3 = rhs(x + _C3 * hd, tuple([a + hd * (_A31 * b + _A32 * c)
                                  for a, b, c in zip(y, f, k2)]), lam)
    k4 = rhs(x + _C4 * hd, tuple([a + hd * (_A41 * b + _A42 * c + _A43 * d)
                                  for a, b, c, d in zip(y, f, k2, k3)]), lam)
    k5 = rhs(x + _C5 * hd, tuple([a + hd * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
                                  for a, b, c, d, e in zip(y, f, k2, k3, k4)]), lam)
    k6 = rhs(x + hd, tuple([a + hd * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
                            for a, b, c, d, e, g in zip(y, f, k2, k3, k4, k5)]), lam)
    y_new = tuple([a + hd * (_B1 * b + _B3 * d + _B4 * e + _B5 * g + _B6 * j)
                   for a, b, d, e, g, j in zip(y, f, k3, k4, k5, k6)])
    k7 = rhs(x_new, y_new, lam)  # FSAL: the next step's f
    err = tuple([hd * (_E1 * b + _E3 * d + _E4 * e + _E5 * g + _E6 * j + _E7 * m)
                 for b, d, e, g, j, m in zip(f, k3, k4, k5, k6, k7)])
    return y_new, k7, err


def _rms(values: list[float]) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _initial_step(
    rhs: RhsFunction,
    x0: float,
    y0: ComplexVector,
    f0: ComplexVector,
    lam: complex,
    direction: float,
    span: float,
    tol: Tolerances,
) -> float:
    scale = [tol.abs + tol.rel * abs(v) for v in y0]
    d0 = _rms([abs(y0[i]) / scale[i] for i in range(len(y0))])
    d1 = _rms([abs(f0[i]) / scale[i] for i in range(len(y0))])
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    try:
        y1 = tuple(y0[i] + direction * h0 * f0[i] for i in range(len(y0)))
        f1 = tuple(rhs(x0 + direction * h0, y1, lam))
        d2 = _rms([abs(f1[i] - f0[i]) / scale[i] for i in range(len(y0))]) / h0
    except _ARITHMETIC_ERRORS:
        d2 = 0.0
    d_max = max(d1, d2)
    h1 = (0.01 / d_max) ** 0.2 if d_max > 1e-15 else max(1e-6 * span, h0 * 1e3)
    return min(100.0 * h0, h1)


def integrate(
    sys: OdeSystem,
    x0: float,
    x1: float,
    y0: Sequence[complex],
    lam: complex = 0j,
    tol: Tolerances = Tolerances(),
    event: EventPredicate | None = None,
    store_path: bool = True,
) -> Trajectory:
    """Integrate ``sys`` from x0 to x1 starting at state ``y0``.

    Stops early when ``event`` becomes true at an accepted step endpoint
    (no sub-step localization) or when the controller cannot keep the local
    error within tolerance without shrinking below ``tol.min_step``.
    """
    if x0 == x1:
        raise ValueError("x0 and x1 must differ")
    n = sys.dimension
    if len(y0) != n:
        raise DimensionMismatch(f"state has length {len(y0)}, system dimension {n}")
    rhs = sys.rhs
    y = tuple(complex(v) for v in y0)
    f = tuple(complex(v) for v in rhs(x0, y, lam))
    if len(f) != n:
        raise DimensionMismatch(f"rhs returned length {len(f)}, expected {n}")
    if not all(map(cmath.isfinite, f)):
        raise NonFiniteRhs(f"rhs is not finite at x={x0}")

    direction = 1.0 if x1 > x0 else -1.0
    span = abs(x1 - x0)
    h = _initial_step(rhs, x0, y, f, lam, direction, span, tol)

    xs = [x0]
    ys = [y]
    x = x0
    fac_old = 1e-4
    reason = StopReason.STEP_FAILURE

    steps = 0
    while steps < tol.max_steps:
        steps += 1
        # The controller's proposal, before the clamp to the remaining span;
        # the negated test also stops on a NaN step.
        if not h >= tol.min_step:
            break
        remaining = abs(x1 - x)
        last = h >= remaining
        if last:
            h = remaining
        hd = direction * h

        x_new = x1 if last else x + hd
        try:
            y_new, k7, err = _dp_attempt(rhs, x, y, f, hd, x_new, lam)
            bad = not all(map(cmath.isfinite, y_new + err))
        except _ARITHMETIC_ERRORS:
            bad = True

        if bad:
            h *= 0.1
            continue

        err_norm = _rms([abs(e) / (tol.abs + tol.rel * max(abs(a), abs(b)))
                         for e, a, b in zip(err, y, y_new)])

        if err_norm <= 1.0:
            x = x_new
            y = y_new
            f = tuple(k7)  # FSAL
            if store_path:
                xs.append(x)
                ys.append(y)
            if event is not None and event(x, y):
                reason = StopReason.EVENT_FIRED
                break
            if last:
                reason = StopReason.REACHED_END
                break
            fac11 = max(err_norm, 1e-10) ** _EXPO
            factor = fac11 / fac_old**_BETA / _SAFETY
            factor = max(1.0 / _MAX_FACTOR, min(1.0 / _MIN_FACTOR, factor))
            h = h / factor
            fac_old = max(err_norm, 1e-4)
        else:
            fac11 = err_norm**_EXPO
            h = h / min(1.0 / _MIN_FACTOR, fac11 / _SAFETY)

    if not store_path:
        xs = [x0, x] if x != x0 else [x0]
        ys = [ys[0], y] if x != x0 else [ys[0]]
    return Trajectory(
        xs=np.asarray(xs, dtype=float),
        ys=np.asarray(ys, dtype=complex),
        terminal=(x, y),
        stop_reason=reason,
    )


def _lane_rms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=0) / v.shape[0])


def integrate_lanes(
    sys: OdeSystem, x0: float, x1: float, y0: Sequence[complex] | np.ndarray,
    lam: np.ndarray, tol: Tolerances = Tolerances(),
    event: LaneEventPredicate | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`integrate` from x0 to x1 once per parameter in ``lam``, as lanes.

    Lane j starts from y0 ((dim,), or (dim, n) per lane) with lam[..., j]
    and takes the steps `integrate` takes, with its own x, h, PI-controller
    memory and step budget (Hairer, Norsett and Wanner, *Solving ODEs I*,
    section II.4); it leaves the batch when it ends.  ``lam`` is (n,), or
    (k, n) for k parameters per lane, lane axis last.  ``sys.lanes`` maps
    x (n,), y (dim, n) and the live lanes' lam to f (dim, n) and a mask of
    lanes where the rhs is singular.

    ``event(lane, x, y)`` is tested as `integrate` tests its event: on the
    accepted state at each accepted step end, with no localization.  It
    gets the original indices of the live lanes (so it can read per-lane
    data such as a threshold) and their x (n,) and y (dim, n), and returns
    the lanes where it fired; such a lane ends there as if it had reached
    its end, on the step where `integrate` fires.  Last-bit differences
    between numpy and Python arithmetic move the step sizes a little, so
    an event x inside the range matches the scalar one to about 1e-11
    only.  Returns the terminal x (n,) and y (dim, n), and per lane None
    when it reached x1 or its event, else the error that ended it:
    NonFiniteRhs at the launch, SingularSurface where the rhs was
    singular, or StepFailure for a stall (whose terminal state is the last
    accepted one).
    """
    if x0 == x1:
        raise ValueError("x0 and x1 must differ")
    lam = np.asarray(lam, dtype=complex)
    rhs, dim, n = sys.lanes, sys.dimension, lam.shape[-1]
    y = np.empty((dim, n), dtype=complex)
    y[...] = np.asarray(y0, dtype=complex).reshape(dim, -1)
    x = np.full(n, float(x0))
    x_end, y_end, failure = x.copy(), y.copy(), np.full(n, None, dtype=object)
    direction, span = (1.0 if x1 > x0 else -1.0), abs(x1 - x0)
    with np.errstate(all="ignore"):
        f, at_launch = rhs(x, y, lam)
        failure[~np.isfinite(f).all(axis=0)] = NonFiniteRhs
        # _initial_step, per lane; d2 is 0 where scalar arithmetic raises
        scale = tol.abs + tol.rel * np.abs(y)
        d0, d1 = _lane_rms(np.abs(y) / scale), _lane_rms(np.abs(f) / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6 * span, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1, at_probe = rhs(x0 + direction * h0, y + direction * h0 * f, lam)
        d2 = _lane_rms(np.abs(f1 - f) / scale) / h0
        d_max = np.maximum(d1, np.where(np.isfinite(d2), d2, 0.0))
        h1 = np.where(d_max > 1e-15, (0.01 / d_max) ** 0.2, np.maximum(1e-6 * span, h0 * 1e3))
        h = np.minimum(100.0 * h0, h1)
        failure[at_launch | (at_probe & ~failure.astype(bool))] = SingularSurface
        lane = np.arange(n)  # the original index of each live lane

        def stage(xs, ys, lam):  # one lane block; ORs its singular lanes into hit
            nonlocal hit
            k, at = rhs(xs, ys[0], lam)
            hit |= at
            return (k,)

        steps, fac_old, ended = np.zeros(n, dtype=int), np.full(n, 1e-4), failure.astype(bool)
        while True:
            stalled = ~ended & ((steps >= tol.max_steps) | ~(h >= tol.min_step))
            failure[lane[stalled]] = StepFailure
            ended |= stalled
            if ended.any():
                out = lane[ended]
                x_end[out], y_end[:, out] = x[ended], y[:, ended]
                lane, x, y, f, h, lam, steps, fac_old = (
                    a[..., ~ended] for a in (lane, x, y, f, h, lam, steps, fac_old))
            if not lane.size:
                break
            steps += 1
            remaining = np.abs(x1 - x)
            last = h >= remaining
            h = np.where(last, remaining, h)
            hd = direction * h
            hit = np.zeros(lane.size, dtype=bool)
            x_new = np.where(last, x1, x + hd)
            (y_new,), (k7,), (err,) = _dp_attempt(stage, x, (y,), (f,), hd, x_new, lam)
            bad = ~(np.isfinite(y_new).all(axis=0) & np.isfinite(err).all(axis=0))
            scale = tol.abs + tol.rel * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = _lane_rms(np.abs(err) / scale)
            accept = ~hit & ~bad & (err_norm <= 1.0)
            grow = np.clip(np.maximum(err_norm, 1e-10) ** _EXPO / fac_old**_BETA / _SAFETY,
                           1.0 / _MAX_FACTOR, 1.0 / _MIN_FACTOR)
            shrink = np.minimum(1.0 / _MIN_FACTOR, err_norm**_EXPO / _SAFETY)
            h = np.where(bad, h * 0.1, h / np.where(accept, grow, shrink))
            fac_old = np.where(accept, np.maximum(err_norm, 1e-4), fac_old)
            x = np.where(accept, x_new, x)
            y = np.where(accept, y_new, y)
            f = np.where(accept, k7, f)
            failure[lane[hit]] = SingularSurface
            ended = hit | (accept & last)
            if event is not None:
                ended |= accept & event(lane, x, y)
    return x_end, y_end, failure


def raise_if_stalled(*legs: Trajectory) -> None:
    """Raise StepFailure if any leg stopped on ``StopReason.STEP_FAILURE``.

    Its terminal state is then the last accepted one, not the value the
    caller asked for.
    """
    for leg in legs:
        if leg.stop_reason is StopReason.STEP_FAILURE:
            raise StepFailure(f"integration stalled at x={leg.x_end}")


def merge_legs(low: Trajectory, high: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of two legs launched from one point, in ascending x.

    ``low`` runs toward the lower cut and is reversed; the launch sample
    that opens ``high`` is dropped, so it appears once.
    """
    xs = np.concatenate([low.xs[::-1], high.xs[1:]])
    ys = np.concatenate([low.ys[::-1], high.ys[1:]])
    return xs, ys
