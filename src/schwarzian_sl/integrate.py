"""Adaptive integration of complex-valued first-order ODE systems.

The engine is DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand and
Prince, with Hairer's error norm and step-size control (``dop853.f``),
operating on tuples of Python complex scalars (the systems here have
dimension <= 4, where scalar arithmetic beats array overhead).
Integration runs along a real independent variable in either direction.
``integrate_lanes`` runs the same pair and controller over many parameter
values at once, one lane each: the independent samples of a web or of a
real scan grid, with an optional per-lane terminal event.

The tableau is data.  One generator, ``_attempt(dim)``, compiles it on
first use into a straight-line step attempt per state dimension, zero
coefficients skipped; ``integrate_lanes`` uses the dimension-1 attempt on
the whole (dim, n) lane block as a single component.  A system with a
``stage``, its rhs as source, gets an attempt with that source inlined at
every evaluation, whose steps are bit for bit those of calling the rhs.
Every leg the package runs is built by ``_compiled_system`` from one rhs
text, a check that sets singular and a source that assigns dy, into its
scalar rhs, its lane rhs and its stage.  What differs between systems (a
jet segment's factors and constants, an SL problem's p, q and gauge)
reaches them through lam or the names bound to each rhs (cmath's and
math's functions to the scalar one, numpy's to the lanes), never the text,
so one attempt per text serves them all.
A step of size h has the error err = |h| s5 / sqrt(n (s5 + 0.01 s3)),
where s5 and s3 sum (|e_i| / sc_i)^2 of the 5th- and 3rd-order estimates
over the n components and sc_i = abs + rel max(|y_i|, |y_new_i|).  It is
accepted when err <= 1; the next step is h 0.9 / err^(1/8), within 0.2 h
to 10 h (I control, beta = 0).

Stopping semantics:

* ``ReachedEnd``   -- the target abscissa was reached.
* ``EventFired``   -- a user predicate became true at an accepted step.
* ``StepFailure``  -- the proposed step size fell below ``MIN_STEP`` or
  was NaN (typically while fighting a pole of the right-hand side), or
  the step budget ran out; the last accepted state is returned, never
  NaN.  Callers that read the terminal state turn this into a
  ``StepFailure`` error through ``raise_if_stalled``.
"""

from __future__ import annotations

import cmath
import functools
import math
import textwrap
import types
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import P_FLOOR, SchwarzianSLError, ZeroCoefficient

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

    def __post_init__(self) -> None:
        if not (0.0 < self.rel < math.inf and 0.0 < self.abs < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class OdeSystem:
    dimension: int
    rhs: RhsFunction
    # the same rhs over lanes: x (n,), y (dim, n), lam (..., n) -> f, singular (n,) or one bool
    lanes: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None
    # the same rhs as source for `_attempt`: statements that read lam and rhs
    # (run once per attempt), a blank line, then statements that read t and the
    # state components u0, u1, ... they name and assign the derivative tuple dy
    stage: str | None = None


@dataclass
class Trajectory:
    """Accepted-step samples of one integration leg, from its launch.

    ``xs`` is strictly monotone in the direction of integration and
    ``ys[k]`` is the state at ``xs[k]``; the last sample is where the leg
    ended, for the reason ``stop_reason``.
    """

    xs: np.ndarray
    ys: np.ndarray
    stop_reason: StopReason

    @property
    def x_end(self) -> float:
        return float(self.xs[-1])

    @property
    def y_end(self) -> ComplexVector:
        return tuple(self.ys[-1].tolist())


# DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince as
# Hairer codes it (Hairer, Norsett and Wanner, *Solving ODEs I*, 2nd ed.,
# Springer 1993, section II.10; Hairer's dop853.f).  Stage s + 1 is
# evaluated at x + _C[s] h on y + h sum_j _A[s][j] k_(j+1); _B weights the
# 12 stages of the 8th-order solution.  The error rows _E5 and _E3 weight
# the 12 stages and, last, f(x + h, y_new).
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
_E3 = tuple(b - bhh for b, bhh in zip(_B + (0.0,), (  # b minus dop853.f's bhh
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1, 0.0)))

# Step-size control of dop853.f, with beta = 0 (no PI memory): h grows by
# _SAFETY / err**(1/8), within these bounds.
_SAFETY = 0.9
_MIN_FACTOR = 0.2  # strongest shrink per step
_MAX_FACTOR = 10.0  # strongest growth per step
MIN_STEP = 1e-12  # smallest step the controller may propose; below it a leg stalls

_ARITHMETIC_ERRORS = (OverflowError, ZeroDivisionError, FloatingPointError)


# The lane engine repeats the scalar arithmetic bit for bit, so that a
# lane takes the scalar steps.  DOP853's error sums cancel to about 1e-10
# of their terms, so one differing last bit in a stage moves err by about
# 1e-6 and the following steps by about 1e-8.  So |z| is np.hypot, as
# Python's abs(complex) is (np.abs differs), and err**(1/8) is three
# correctly rounded square roots (numpy's power and the C library's differ).
def _root8(v: float) -> float:
    return math.sqrt(math.sqrt(math.sqrt(v)))


def _lane_root8(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sqrt(np.sqrt(v)))


def _lane_abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _lane_rms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=0) / v.shape[0])


# The names generated code sees besides the builtins: a stage, and the
# functions `_function` compiles.
_SCOPE = {"math": math, "cmath": cmath, "np": np, "P_FLOOR": P_FLOOR,
          "SingularSurface": SingularSurface, "ZeroCoefficient": ZeroCoefficient}


@functools.cache
def _function(name: str, args: str, source: str, result: str) -> Callable:
    """``def name(args)`` that runs the statements ``source`` and returns
    ``result``, with `_SCOPE` in scope, compiled once per text."""
    namespace = dict(_SCOPE)
    text = f"def {name}({args}):\n{textwrap.indent(source, '    ')}\n    return {result}\n"
    exec(compile(text, f"<{name}>", "exec"), namespace)
    return namespace[name]


def _compiled_system(dimension: int, check: str, source: str, error: str, scalar: dict,
                     lanes: dict, head: str = "", lane_head: str = "") -> OdeSystem:
    """The system whose rhs is ``check``, which sets singular, then
    ``source``, which assigns the derivative tuple dy.  Both read t, lam,
    the state components u0, u1, ... that ``source`` names, and the names
    of ``scalar``: its values in the scalar rhs and the stage, and in the
    lane rhs those of ``lanes`` where it names them (numpy's functions for
    cmath's).  ``head`` runs first in each (once per attempt in the stage),
    ``lane_head`` after it in the lane rhs only.

    Where singular is true the scalar rhs raises ``error``, an exception
    expression; the lane rhs returns (np.array(dy), singular).  The names
    are bound to each rhs, not written into its text, so each text compiles
    once; the stage's head reads them from ``rhs.__defaults__``, so its
    attempt steps bit for bit as one calling the rhs.
    """
    names = ", ".join(scalar)
    args, stage_head = f"t, u, lam, {names}", f"{names}, = rhs.__defaults__\n{head}".strip()
    unpack = "".join(f"u{i}, " for i in range(dimension) if f"u{i}" in source) + "*_ = u"
    text = f"{check}\nif singular:\n    raise {error}\n{source}"
    rhs = _function("rhs", args, "\n".join((unpack, head, text)), "dy")
    lane_rhs = _function("lanes", args, "\n".join((unpack, head, lane_head, check, source)),
                         "np.array(dy), singular")

    def bound(fn, values):
        return types.FunctionType(fn.__code__, fn.__globals__, fn.__name__, tuple(values))

    return OdeSystem(dimension, bound(rhs, scalar.values()),
                     bound(lane_rhs, (lanes.get(name, v) for name, v in scalar.items())),
                     f"{stage_head}\n\n{text}")


@functools.cache
def _attempt(dim: int, stage: str | None = None) -> Callable:
    """The DOP853 step attempt for states of ``dim`` components.

    ``attempt(rhs, x, y, f, hd, x_new, lam) -> (y_new, k13, e5, e3)`` takes
    one step of size hd from (x, y), where f = rhs(x, y, lam).  k13 =
    rhs(x_new, y_new, lam) is the next step's f, and e5 and e3 are the
    error rows' sums over the stages, not yet times h.  y, f and every
    stage are sequences of ``dim`` components: Python complexes, or one
    (dim, n) lane block with x, hd and x_new of shape (n,).  The attempt is
    straight-line code compiled from the tableau rows, zero coefficients
    skipped; its source is ``attempt.source``.  A ``stage`` is inlined at
    every evaluation instead, rhs then read only by its head (for the values
    bound to it); it sees `_SCOPE` and assigns none of rhs, x, y, f, hd,
    x_new, lam, y_*, k*.
    The code's file name holds dim and the CRC-32 of the stage, so that
    profilers, which key by file, tell the staged attempts apart.
    """
    comps = range(dim)

    def tup(items) -> str:
        return "(" + ", ".join(items) + ",)"

    def combo(weights, i: int) -> str:  # sum_j w_j k_(j+1) of component i
        (j, w), *rest = [(j, w) for j, w in enumerate(weights) if w]
        return f"k{j + 1}_{i} * {w!r}" + "".join(
            f" {'-' if w < 0 else '+'} k{j + 1}_{i} * {abs(w)!r}" for j, w in rest)

    def evaluate(k: str, at: str, state: list[str], name: str = "") -> None:  # k = f(at, state)
        lines.extend([f"    {k} = rhs({at}, {name or tup(state)}, lam)"] if stage is None else [
            f"    t = {at}", *(f"    u{i} = {c}" for i, c in enumerate(state) if f"u{i}" in body),
            textwrap.indent(body, "    "), f"    {k} = dy"])

    head, body = stage.split("\n\n", 1) if stage else ("", "")
    lines = ["def attempt(rhs, x, y, f, hd, x_new, lam):",
             f"    {tup(f'y_{i}' for i in comps)} = y",
             f"    {tup(f'k1_{i}' for i in comps)} = f", textwrap.indent(head, "    ")]
    for s in range(1, len(_C)):
        at = "x + hd" if _C[s] == 1.0 else f"x + {_C[s]!r} * hd"
        evaluate(tup(f"k{s + 1}_{i}" for i in comps), at,
                 [f"y_{i} + ({combo(_A[s], i)}) * hd" for i in comps])
    lines.append(f"    y_new = {tup(f'y_{i} + ({combo(_B, i)}) * hd' for i in comps)}")
    evaluate("k13", "x_new", [f"y_new[{i}]" for i in comps], "y_new")  # both error rows weight it 0
    lines.append(f"    return y_new, k13, {tup(combo(_E5, i) for i in comps)}, "
                 f"{tup(combo(_E3, i) for i in comps)}")
    source = "\n".join(lines) + "\n"
    namespace = dict(_SCOPE)
    tag = f", stage {zlib.crc32(stage.encode()):08x}" if stage else ""
    exec(compile(source, f"<DOP853 attempt, dim {dim}{tag}>", "exec"), namespace)
    attempt = namespace["attempt"]
    attempt.source = source
    return attempt


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
    """The first step: HINIT of dop853.f (iord = 8), with RMS norms."""
    scale = [tol.abs + tol.rel * abs(v) for v in y0]

    def rms(v: Sequence[complex]) -> float:
        scaled = [abs(a) / s for a, s in zip(v, scale)]
        return math.sqrt(sum([t * t for t in scaled]) / len(scaled))

    d0, d1 = rms(y0), rms(f0)
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    try:
        y1 = tuple(y0[i] + direction * h0 * f0[i] for i in range(len(y0)))
        f1 = tuple(rhs(x0 + direction * h0, y1, lam))
        d2 = rms([a - b for a, b in zip(f1, f0)]) / h0
    except _ARITHMETIC_ERRORS:
        d2 = 0.0
    d_max = max(d1, d2)
    h1 = _root8(0.01 / d_max) if d_max > 1e-15 else max(1e-6 * span, h0 * 1e3)
    return min(100.0 * h0, h1)


def integrate(
    sys: OdeSystem,
    x0: float,
    x1: float,
    y0: Sequence[complex],
    lam: complex = 0j,
    tol: Tolerances = Tolerances(),
    event: EventPredicate | None = None,
) -> Trajectory:
    """Integrate ``sys`` from x0 to x1 starting at state ``y0``.

    Stops early when ``event`` becomes true at an accepted step endpoint
    (no sub-step localization) or when the controller cannot keep the local
    error within tolerance without shrinking below ``MIN_STEP``.
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
    reason = StopReason.STEP_FAILURE
    attempt = _attempt(n) if sys.stage is None else _attempt(n, sys.stage)

    steps = 0
    while steps < tol.max_steps:
        steps += 1
        # The controller's proposal, before the clamp to the remaining span;
        # the negated test also stops on a NaN step.
        if not h >= MIN_STEP:
            break
        remaining = abs(x1 - x)
        last = h >= remaining
        if last:
            h = remaining
        hd = direction * h

        x_new = x1 if last else x + hd
        try:
            y_new, k13, e5, e3 = attempt(rhs, x, y, f, hd, x_new, lam)
            bad = not all(map(cmath.isfinite, y_new + e5 + e3))
        except _ARITHMETIC_ERRORS:
            bad = True

        if bad:
            h *= 0.1
            continue

        s5 = s3 = 0.0
        for a, b, p, q in zip(y, y_new, e5, e3):
            scale = tol.abs + tol.rel * max(abs(a), abs(b))
            p, q = abs(p) / scale, abs(q) / scale
            s5 += p * p
            s3 += q * q
        deno = s5 + 0.01 * s3
        err = h * s5 / math.sqrt(n * (deno if deno > 0.0 else 1.0))

        if err <= 1.0:
            x = x_new
            y = y_new
            f = tuple(k13)  # FSAL
            xs.append(x)
            ys.append(y)
            if event is not None and event(x, y):
                reason = StopReason.EVENT_FIRED
                break
            if last:
                reason = StopReason.REACHED_END
                break
        h = h / max(1.0 / _MAX_FACTOR, min(1.0 / _MIN_FACTOR, _root8(err) / _SAFETY))

    return Trajectory(np.asarray(xs, dtype=float), np.asarray(ys, dtype=complex), reason)


def integrate_lanes(
    sys: OdeSystem, x0: float, x1: float, y0: Sequence[complex] | np.ndarray,
    lam: np.ndarray, tol: Tolerances = Tolerances(),
    event: LaneEventPredicate | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`integrate` from x0 to x1 once per parameter in ``lam``, as lanes.

    Lane j starts from y0 ((dim,), or (dim, n) per lane) with lam[..., j]
    and takes the steps `integrate` takes, with its own x, h and step
    budget (Hairer, Norsett and Wanner, *Solving ODEs I*, section II.4); it
    leaves the batch when it ends.  ``lam`` is (n,), or (k, n) for k
    parameters per lane, lane axis last.  ``sys.lanes`` maps x (n,),
    y (dim, n) and the live lanes' lam to f (dim, n) and a mask of lanes
    where the rhs is singular, (n,) or one bool for all of them.

    ``event(lane, x, y)`` is tested as `integrate` tests its event: on the
    accepted state at each accepted step end, with no localization.  It
    gets the original indices of the live lanes (so it can read per-lane
    data such as a threshold) and their x (n,) and y (dim, n), and returns
    the lanes where it fired; such a lane ends there as if it had reached
    its end, on the step where `integrate` fires.  A lane rhs that differs
    from the scalar one in the last bit (numpy and Python complex products
    can) moves the step sizes a little, so an event x inside the range may
    then match the scalar one only to about 1e-8.  Returns the terminal x
    (n,) and y (dim, n), and per lane None when it reached x1 or its
    event, else the error that ended it: NonFiniteRhs at the launch,
    SingularSurface where the rhs was singular, or StepFailure for a stall
    (whose terminal state is the last accepted one).
    """
    if x0 == x1:
        raise ValueError("x0 and x1 must differ")
    lam = np.asarray(lam, dtype=complex)
    rhs, dim, n = sys.lanes, sys.dimension, lam.shape[-1]
    y0 = np.asarray(y0, dtype=complex)
    if y0.shape[:1] != (dim,):
        raise DimensionMismatch(f"state has shape {y0.shape}, system dimension {dim}")
    y = np.array(np.broadcast_to(y0.reshape(dim, -1), (dim, n)))
    x = np.full(n, float(x0))
    x_end, y_end, failure = x.copy(), y.copy(), np.full(n, None, dtype=object)
    direction, span = (1.0 if x1 > x0 else -1.0), abs(x1 - x0)
    with np.errstate(all="ignore"):
        f, at_launch = rhs(x, y, lam)
        failure[~np.isfinite(f).all(axis=0)] = NonFiniteRhs
        # _initial_step, per lane; d2 is 0 where scalar arithmetic raises
        scale = tol.abs + tol.rel * _lane_abs(y)
        d0, d1 = _lane_rms(_lane_abs(y) / scale), _lane_rms(_lane_abs(f) / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6 * span, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1, at_probe = rhs(x0 + direction * h0, y + direction * h0 * f, lam)
        d2 = _lane_rms(_lane_abs(f1 - f) / scale) / h0
        d_max = np.maximum(d1, np.where(np.isfinite(d2), d2, 0.0))
        h1 = np.where(d_max > 1e-15, _lane_root8(0.01 / d_max), np.maximum(1e-6 * span, h0 * 1e3))
        h = np.minimum(100.0 * h0, h1)
        failure[at_launch | (at_probe & ~failure.astype(bool))] = SingularSurface
        lane = np.arange(n)  # the original index of each live lane

        def stage(xs, ys, lam):  # one lane block; ORs its singular lanes into hit
            nonlocal hit
            k, at = rhs(xs, ys[0], lam)
            hit |= at
            return (k,)

        steps, ended = np.zeros(n, dtype=int), failure.astype(bool)
        attempt = _attempt(1)
        while True:
            stalled = ~ended & ((steps >= tol.max_steps) | ~(h >= MIN_STEP))
            failure[lane[stalled]] = StepFailure
            ended |= stalled
            if ended.any():
                out = lane[ended]
                x_end[out], y_end[:, out] = x[ended], y[:, ended]
                lane, x, y, f, h, lam, steps = (
                    a[..., ~ended] for a in (lane, x, y, f, h, lam, steps))
            if not lane.size:
                break
            steps += 1
            remaining = np.abs(x1 - x)
            last = h >= remaining
            h = np.where(last, remaining, h)
            hd = direction * h
            hit = np.zeros(lane.size, dtype=bool)
            x_new = np.where(last, x1, x + hd)
            (y_new,), (k13,), (e5,), (e3,) = attempt(stage, x, (y,), (f,), hd, x_new, lam)
            bad = ~np.isfinite(np.concatenate([y_new, e5, e3])).all(axis=0)
            scale = tol.abs + tol.rel * np.maximum(_lane_abs(y), _lane_abs(y_new))
            p, q = _lane_abs(e5) / scale, _lane_abs(e3) / scale
            s5, s3 = (p * p).sum(axis=0), (q * q).sum(axis=0)
            deno = s5 + 0.01 * s3
            err = h * s5 / np.sqrt(dim * np.where(deno > 0.0, deno, 1.0))
            accept = ~hit & ~bad & (err <= 1.0)
            factor = np.clip(_lane_root8(err) / _SAFETY, 1.0 / _MAX_FACTOR, 1.0 / _MIN_FACTOR)
            h = np.where(bad, h * 0.1, h / factor)
            x = np.where(accept, x_new, x)
            y = np.where(accept, y_new, y)
            f = np.where(accept, k13, f)
            failure[lane[hit]] = SingularSurface
            ended = hit | (accept & last)
            if event is not None:
                ended |= accept & event(lane, x, y)
    return x_end, y_end, failure


def lane_failures(values: np.ndarray, *failures: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """``values`` with NaN where a lane failed, and per lane None or the name
    of the error its scalar call raises.  ``failures`` are per-lane rows of
    None or an error class, in the order that call meets them: it raises
    the first that is not a StepFailure at once, and StepFailure for a stall
    only after its last leg (`raise_if_stalled`)."""
    names: list[str | None] = []
    for row in zip(*failures):
        raised = [f for f in row if f is not None]
        error = next((f for f in raised if f is not StepFailure), raised[0] if raised else None)
        names.append(None if error is None else error.__name__)
    values[[name is not None for name in names]] = np.nan
    return values, names


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
