"""Schwarzian reformulations of the Sturm-Liouville problem.

The general Riccati solution F = p f'/f is split into a particular part
plus the Moebius freedom of the underlying Schwarz equation.  Two
equivalent splittings are carried:

g approach       F = F_p + e^{-2 Lam} / (g + C2/C1)
                 F_p' = -F_p^2/p - q,  Lam' = F_p/p,  g' = e^{-2 Lam}/p

Phi approach     F = F1 + F2 cot((Phi + C)/2)
                 F1' = (F2^2 - F1^2)/p - q,  F2' = -2 F1 F2/p,  Phi' = 2 F2/p

One boundary condition fixes the free constant, the other becomes the
eigenvalue condition.  On asymptotic ends the non-diverging branch is
selected by the quantization conditions g|2 - g|1 = 0 or
(Phi|2 - Phi|1)/2pi integer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    P_FLOOR,
    BoundaryKind,
    SchwarzianSLError,
    SLProblem,
    ZeroCoefficient,
    default_fd_step,
    kappa_squared,
)
from .integrate import (
    OdeSystem,
    SingularSurface,
    StepFailure,
    Tolerances,
    Trajectory,
    integrate,
    integrate_lanes,
    raise_if_stalled,
)

_SINGULAR_TOL = 1e-12
DEFAULT_DECAY = 1e-8  # |F2| (or e^{-2 Lam}) fraction of launch value that
# counts as "asymptotically frozen"


class Approach(Enum):
    G = "g"
    PHI = "phi"


class DegenerateLaunch(SchwarzianSLError):
    """Launch state with a vanishing gauge component."""


class DegenerateBoundary(SchwarzianSLError):
    """Boundary value coincides with a singular direction of the split."""


class NotAsymptotic(SchwarzianSLError):
    """Quantization requested on an end without a Quantization spec."""


class ZeroDerivative(SchwarzianSLError):
    """g' vanished where the Schwarzian derivative is needed."""


class GState(NamedTuple):
    F_p: complex
    Lam: complex
    g: complex


class PhiState(NamedTuple):
    F1: complex
    F2: complex
    Phi: complex


@dataclass
class SampledFunction:
    """Eigenfunction samples on a trajectory grid (arbitrary overall scale)."""

    xs: np.ndarray
    f: np.ndarray
    F: np.ndarray


def g_system(problem: SLProblem) -> OdeSystem:
    """F_p' = -F_p^2/p - q, Lam' = F_p/p, g' = e^{-2 Lam}/p."""
    p_checked = problem.coefficients.p_checked
    q = problem.coefficients.q

    def rhs(x: float, y: tuple[complex, ...], lam: complex) -> tuple[complex, ...]:
        p = p_checked(x, lam)
        f_p = y[0]
        return (-f_p * f_p / p - q(x, lam), f_p / p, cmath.exp(-2.0 * y[1]) / p)

    return OdeSystem(dimension=3, rhs=rhs)


def _phi_rhs(p, q, f1, f2) -> tuple:
    """(F1', F2', Phi') from p, q, F1 and F2 at one point; lanes pass arrays."""
    return (f2 * f2 - f1 * f1) / p - q, -2.0 * f1 * f2 / p, 2.0 * f2 / p


def phi_system(problem: SLProblem) -> OdeSystem:
    """F1' = (F2^2 - F1^2)/p - q, F2' = -2 F1 F2/p, Phi' = 2 F2/p.

    The lane form marks lanes where p vanishes as singular; p and q then
    take arrays of x and lam.
    """
    c = problem.coefficients
    p_fn, p_checked, q = c.p, c.p_checked, c.q

    def rhs(x: float, y: tuple[complex, ...], lam: complex) -> tuple[complex, ...]:
        return _phi_rhs(p_checked(x, lam), q(x, lam), y[0], y[1])

    def lanes(x: np.ndarray, y: np.ndarray, lam: np.ndarray):
        p = p_fn(x, lam)
        f = np.array(_phi_rhs(p, q(x, lam), y[0], y[1]))
        return f, np.broadcast_to(np.abs(p) < P_FLOOR, x.shape)

    return OdeSystem(dimension=3, rhs=rhs, lanes=lanes)


def default_initial_state(problem: SLProblem, x0: float, lam: complex) -> PhiState:
    """Launch values F1 = -p'/2, F2 = p kappa, Phi = 0.

    This choice makes Phi'' = Phi''' = 0 at the launch point, keeping the
    phase speed as constant as the problem allows.
    """
    c = problem.coefficients
    h = default_fd_step(x0)
    p = c.p_checked(x0, lam)
    if c.p_prime is not None:
        dp = c.p_prime(x0, lam)
    else:
        dp = (c.p(x0 + h, lam) - c.p(x0 - h, lam)) / (2.0 * h)
    kappa = cmath.sqrt(kappa_squared(c, x0, lam, h))
    f2 = p * kappa
    if abs(f2) < 1e-140:
        raise DegenerateLaunch(
            f"kappa^2({x0}, {lam}) = 0 gives a zero gauge launch"
        )
    return PhiState(-dp / 2.0, f2, 0j)


def default_g_initial_state(problem: SLProblem, x0: float, lam: complex) -> GState:
    """Complex launch F_p = i sqrt(q), Lam = 0, g = 0.

    Working in the complex domain keeps F away from the real-axis poles
    that real oscillatory solutions would produce.
    """
    q0 = problem.coefficients.q(x0, lam)
    return GState(1j * cmath.sqrt(q0), 0j, 0j)


def solve_constant_from_bc(
    state_at_end: Sequence[complex], f_bc: complex, approach: Approach
) -> complex:
    """Free constant of the split from the boundary value F = f_bc.

    An infinite f_bc (f = 0 at the end, or a fully decayed asymptotic end)
    yields C2/C1 = -g resp. C = -Phi.
    """
    if approach is Approach.G:
        f_p, lam_var, g = state_at_end
        if cmath.isinf(f_bc):
            return -g
        denom = f_bc - f_p
        if abs(denom) < _SINGULAR_TOL * max(1.0, abs(f_bc), abs(f_p)):
            raise DegenerateBoundary("F_BC coincides with the particular solution F_p")
        return cmath.exp(-2.0 * lam_var) / denom - g
    f1, f2, phi = state_at_end
    if cmath.isinf(f_bc):
        return -phi
    t = (f_bc - f1) / f2
    if abs(t - 1j) < _SINGULAR_TOL or abs(t + 1j) < _SINGULAR_TOL:
        raise DegenerateBoundary("F_BC = F1 +- i F2 is a degenerate direction")
    return 2.0 * cmath.atan(1.0 / t) - phi


def reconstruct_F(
    state: Sequence[complex], constant: complex, approach: Approach
) -> complex:
    """Evaluate the split solution F at one state.

    On the singular set (denominator ~ 0) the asymptotic L'Hopital limit is
    returned: -F_p for the g approach, -F1 for the Phi approach (both are
    the non-diverging branch there).
    """
    if approach is Approach.G:
        f_p, lam_var, g = state
        denom = g + constant
        if abs(denom) < _SINGULAR_TOL * max(1.0, abs(g), abs(constant)):
            return -f_p
        return f_p + cmath.exp(-2.0 * lam_var) / denom
    f1, f2, phi = state
    w = (phi + constant) / 2.0
    s = cmath.sin(w)
    c = cmath.cos(w)
    if abs(s) < _SINGULAR_TOL * max(1.0, abs(c)):
        return -f1
    return f1 + f2 * c / s


def decay_event(approach: Approach, launch: Sequence[complex] | np.ndarray, decay: float):
    """Predicate that fires once the split has frozen asymptotically.

    Phi approach: |F2| fell below ``decay`` times its launch value.
    g approach: |e^{-2 Lam}| fell below ``decay`` times its launch value.
    For one launch state the predicate is `integrate`'s ``fired(x, y)``;
    for a (dim, n) block of lane launch states it is `integrate_lanes`'s
    ``fired(lane, x, y)``, which tests each live lane against its own
    launch.
    """
    if approach is Approach.PHI:
        limit = decay * abs(launch[1])

        def frozen(y, limit):
            return abs(y[1]) < limit

    else:
        # |e^{-2 Lam}| = e^{-2 Re Lam}; compare exponents to avoid overflow
        limit = launch[1].real - 0.5 * math.log(decay)

        def frozen(y, limit):
            return y[1].real > limit

    if np.ndim(launch) == 2:
        return lambda lane, x, y: frozen(y, limit[lane])
    return lambda x, y: frozen(y, limit)


def _check_asymptotic(problem: SLProblem) -> None:
    """NotAsymptotic unless both ends carry a Quantization spec; ValueError
    unless the start lies between the cuts."""
    d = problem.domain
    for which, spec in enumerate(problem.boundaries):
        if spec.kind is not BoundaryKind.QUANTIZATION:
            end = d.lower if which == 0 else d.upper
            raise NotAsymptotic(f"end x={end} carries no Quantization spec")
    if not d.lower_cut < d.start < d.upper_cut:
        raise ValueError(f"start {d.start} must lie between the cuts")


def solve_asymptotic(
    problem: SLProblem,
    lam: complex,
    approach: Approach = Approach.PHI,
    tol: Tolerances = Tolerances(),
    launch: Sequence[complex] | None = None,
    decay: float = DEFAULT_DECAY,
    store_path: bool = False,
) -> tuple[Trajectory, Trajectory, complex]:
    """Launch from the start point toward both cuts and quantize.

    Returns (toward the lower cut, toward the upper cut, value) with the
    single asymptotic eigenvalue condition read from the terminal states:
    g approach: value = g|high - g|low, eigenvalues at value = 0.
    Phi approach: value = (Phi|high - Phi|low)/2pi, eigenvalues at integers.

    Both ends must carry a Quantization spec (else NotAsymptotic).  When an
    integration direction hits the decay event early the terminal values
    are frozen and stand in for the asymptotic ones (the functions no
    longer vary significantly there).  A leg that stalls before its cut or
    event raises StepFailure: its last state is not asymptotic.
    """
    _check_asymptotic(problem)
    d = problem.domain
    if launch is None:
        if approach is Approach.PHI:
            launch = default_initial_state(problem, d.start, lam)
        else:
            launch = default_g_initial_state(problem, d.start, lam)
    event = decay_event(approach, launch, decay) if decay else None
    sys = phi_system(problem) if approach is Approach.PHI else g_system(problem)
    low = integrate(sys, d.start, d.lower_cut, launch, lam, tol, event, store_path)
    high = integrate(sys, d.start, d.upper_cut, launch, lam, tol, event, store_path)
    raise_if_stalled(low, high)
    value = high.y_end[2] - low.y_end[2]
    if approach is Approach.PHI:
        value /= 2.0 * math.pi
    return low, high, value


def phi_winding_value(
    problem: SLProblem, lam: complex, tol: Tolerances = Tolerances()
) -> complex:
    return solve_asymptotic(problem, lam, Approach.PHI, tol)[2]


@dataclass(frozen=True)
class AsymptoticWinding:
    """lam -> (Phi|2 - Phi|1)/2pi of the Phi approach with the default
    launch and decay event, for a problem with Quantization at both ends:
    its crossings of the integers n are the eigenvalues (the state with
    n - 1 nodes)."""

    problem: SLProblem
    tol: Tolerances = Tolerances()

    def __call__(self, lam: complex) -> complex:
        return phi_winding_value(self.problem, lam, self.tol)

    def lanes(self, lams: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
        """`__call__` at many lam, as one lane-batched integration per leg:
        the values (NaN where an evaluation failed) and per lam None or the
        name of the error `__call__` raises there.

        Each lane starts from `default_initial_state` and stops on its own
        decay event; p and q must take arrays of x and lam.  A problem that
        `solve_asymptotic` refuses outright raises here too.
        """
        problem, d = self.problem, self.problem.domain
        _check_asymptotic(problem)
        lam = np.asarray(lams, dtype=complex)
        values = np.full(lam.size, np.nan, dtype=complex)
        failure = np.full(lam.size, None, dtype=object)
        launch = np.zeros((3, lam.size), dtype=complex)
        for j, w in enumerate(lam.tolist()):
            try:
                launch[:, j] = default_initial_state(problem, d.start, w)
            except SchwarzianSLError as exc:
                failure[j] = type(exc)
        live = np.flatnonzero(~failure.astype(bool))
        sys, launch = phi_system(problem), launch[:, live]
        event = decay_event(Approach.PHI, launch, DEFAULT_DECAY)
        _, y_low, low = integrate_lanes(
            sys, d.start, d.lower_cut, launch, lam[live], self.tol, event)
        _, y_high, high = integrate_lanes(
            sys, d.start, d.upper_cut, launch, lam[live], self.tol, event)
        # the scalar path raises the low leg's error, then the high leg's,
        # then a stall of either; the rhs is singular only where p vanishes,
        # which p_checked raises as ZeroCoefficient
        for j, a, b in zip(live.tolist(), low, high):
            raised = [f for f in (a, b) if f not in (None, StepFailure)]
            failure[j] = raised[0] if raised else (a or b)
        failure[failure == SingularSurface] = ZeroCoefficient
        values[live] = (y_high[2] - y_low[2]) / (2.0 * math.pi)
        values[failure.astype(bool)] = np.nan
        return values, [None if f is None else f.__name__ for f in failure]


def g_difference_value(
    problem: SLProblem, lam: complex, tol: Tolerances = Tolerances()
) -> complex:
    return solve_asymptotic(problem, lam, Approach.G, tol)[2]


def branch_tracked_sqrt(values: np.ndarray) -> np.ndarray:
    """Square root whose branch follows the unwrapped argument.

    The branch flips whenever Arg of the input crosses the cut between
    consecutive samples, avoiding false discontinuities in Im[sqrt].
    """
    values = np.asarray(values, dtype=complex)
    angles = np.unwrap(np.angle(values))
    return np.sqrt(np.abs(values)) * np.exp(0.5j * angles)


def eigenfunction(
    xs: np.ndarray,
    ys: np.ndarray,
    constant: complex,
    approach: Approach,
) -> SampledFunction:
    """Sample f and F at the states ``ys`` taken at ``xs`` (one free
    overall constant).

    g approach: f = (g + C2/C1) e^{Lam}.
    Phi approach: f = sin((Phi + C)/2) / sqrt(F2) with branch-tracked root.
    For two legs pass ``*merge_legs(low, high)``, so the branch of the root
    is tracked continuously through the launch point.
    """
    if approach is Approach.G:
        f = (ys[:, 2] + constant) * np.exp(ys[:, 1])
    else:
        root = branch_tracked_sqrt(ys[:, 1])
        f = np.sin((ys[:, 2] + constant) / 2.0) / root
    F = np.array([reconstruct_F(tuple(s), constant, approach) for s in ys])
    return SampledFunction(xs=xs.copy(), f=f, F=F)


def schwarzian_derivative(g_samples: Sequence[complex], h: float) -> np.ndarray:
    """{g, x} = g'''/g' - (3/2)(g''/g')^2 on a uniform grid.

    Fourth-order central stencils; the result covers the interior points
    (three-sample margin at each end).  Used by the property-test suite.
    """
    g = np.asarray(g_samples, dtype=complex)
    if g.size < 7:
        raise ValueError("need at least 7 uniformly spaced samples")
    if h <= 0.0:
        raise ValueError("h must be positive")
    gm3, gm2, gm1 = g[:-6], g[1:-5], g[2:-4]
    g0 = g[3:-3]
    gp1, gp2, gp3 = g[4:-2], g[5:-1], g[6:]
    d1 = (-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * h)
    d2 = (-gp2 + 16.0 * gp1 - 30.0 * g0 + 16.0 * gm1 - gm2) / (12.0 * h * h)
    d3 = (-gp3 + 8.0 * gp2 - 13.0 * gp1 + 13.0 * gm1 - 8.0 * gm2 + gm3) / (
        8.0 * h**3
    )
    if np.any(np.abs(d1) < 1e-200):
        raise ZeroDerivative("g' vanishes on the interior grid")
    ratio = d2 / d1
    return d3 / d1 - 1.5 * ratio * ratio
