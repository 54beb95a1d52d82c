"""First-order reformulation F = p f'/f and its trigonometric substitution.

The Riccati form F' = -F^2/p - q halves the integration state but F runs
through infinities wherever f = 0.  Substituting
F = F1 + F2 cot(Phi/2) with gauge constants F1, F2 of our choice turns
those infinities into ordinary points of Phi (zeros of f sit at
Phi = 2 n pi) and the phase obeys a first-order equation in Phi alone.
A boundary condition F = f_bc at an end becomes the phase with
cot(Phi/2) = (f_bc - F1)/F2 there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import P_FLOOR, SLProblem, ZeroCoefficient
from .integrate import (
    OdeSystem,
    SingularSurface,
    Tolerances,
    integrate,
    integrate_lanes,
    raise_if_stalled,
)
from .schwarzian import Approach, DegenerateBoundary, solve_constant_from_bc


class ZeroGauge(ZeroCoefficient):
    """The gauge constant F2 vanishes."""


@dataclass(frozen=True)
class PhiSubstitution:
    """Gauge constants for F = F1 + F2 cot(Phi/2); F2 must not vanish."""

    F1: complex = 0j
    F2: complex = 1 + 0j

    def __post_init__(self) -> None:
        if abs(self.F2) < P_FLOOR:
            raise ZeroGauge(f"F2 = {self.F2}")


DEFAULT_GAUGE = PhiSubstitution()  # F1 = 0, F2 = 1, the simplest choice

_GAUGE_SAMPLES = 64


def _gauge_points(problem: SLProblem) -> np.ndarray:
    """The midpoints of _GAUGE_SAMPLES equal cells of the interval."""
    lo, hi = problem.domain.lower, problem.domain.upper
    return lo + (np.arange(_GAUGE_SAMPLES) + 0.5) * ((hi - lo) / _GAUGE_SAMPLES)


def scaled_gauge(problem: SLProblem, lam: complex) -> PhiSubstitution:
    """Scaled Pruefer gauge F1 = 0, F2 = kappa.

    kappa = sqrt(max(mean of Re q/p over the interval, 1)) matches F2 to
    the mean wavenumber, so the phase advances almost uniformly instead
    of oscillating and the step count no longer grows like sqrt(lam).
    Any real positive constant F2 keeps the zeros of f at Phi = 2 n pi,
    so eigenvalue crossings do not depend on kappa.
    """
    c = problem.coefficients
    total = 0.0
    for x in _gauge_points(problem).tolist():
        total += (c.q(x, lam) / c.p_checked(x, lam)).real
    return PhiSubstitution(0j, complex(math.sqrt(max(total / _GAUGE_SAMPLES, 1.0))))


def riccati_system(problem: SLProblem) -> OdeSystem:
    """F' = -F^2/p - q."""
    p_checked = problem.coefficients.p_checked
    q = problem.coefficients.q

    def rhs(x: float, y: tuple[complex, ...], lam: complex) -> tuple[complex]:
        F = y[0]
        return (-F * F / p_checked(x, lam) - q(x, lam),)

    return OdeSystem(dimension=1, rhs=rhs)


def _phase_rhs(p, q, f1, f2, phi, sin=cmath.sin, cos=cmath.cos):
    """Phi' from p, q and the gauge constants F1, F2 at one point; lanes
    pass arrays with np.sin and np.cos."""
    pf2 = p * f2
    base = p * q + f1 * f1
    a = 2.0 * f1 * f2 / pf2
    b = (base - f2 * f2) / pf2
    const = (base + f2 * f2) / pf2
    return a * sin(phi) - b * cos(phi) + const


def phase_system(problem: SLProblem, sub: PhiSubstitution = DEFAULT_GAUGE) -> OdeSystem:
    """Phase equation for the substituted variable:

    Phi' = 2 F1/p sin(Phi)
         - (p q + F1^2 - F2^2)/(p F2) cos(Phi)
         + (p q + F1^2 + F2^2)/(p F2)

    which passes smoothly through the points where f = 0.

    The lane form runs every lane in a gauge of its own, F1 = 0 and
    F2 = kappa (the scaled gauge), in place of ``sub``: its parameter
    stacks lam (n,) over kappa (n,).  Lanes where p vanishes are marked
    singular.  p and q then take arrays of x and lam.
    """
    c = problem.coefficients
    p_fn, p_checked, q_fn = c.p, c.p_checked, c.q
    f1, f2 = sub.F1, sub.F2

    def rhs(x: float, y: tuple[complex, ...], lam: complex) -> tuple[complex]:
        return (_phase_rhs(p_checked(x, lam), q_fn(x, lam), f1, f2, y[0]),)

    def lanes(x: np.ndarray, y: np.ndarray, params: np.ndarray):
        lam, kappa = params
        p = p_fn(x, lam)
        phi = _phase_rhs(p, q_fn(x, lam), 0.0, kappa, y[0], np.sin, np.cos)
        return phi[None, :], np.broadcast_to(np.abs(p) < P_FLOOR, x.shape)

    return OdeSystem(dimension=1, rhs=rhs, lanes=lanes)


def phi_from_ratio_bc(sub: PhiSubstitution, f_bc: complex) -> complex:
    """Convert a boundary value F = f_bc into a Phi value in the gauge sub.

    F = infinity (f = 0 there) maps to Phi = 0 exactly, F = F1 to
    Phi = pi; otherwise cot(Phi/2) = (F - F1)/F2 on the principal branch,
    the constant of the Phi split at Phi = 0, which raises
    DegenerateBoundary for F = F1 +- i F2.
    """
    if cmath.isinf(f_bc):
        return 0j
    if f_bc == sub.F1:
        return complex(math.pi)
    return solve_constant_from_bc((sub.F1, sub.F2, 0j), f_bc, Approach.PHI)


def _ratio_values(problem: SLProblem) -> tuple[complex, complex]:
    """The ratio values F at the lower and upper end of a finite interval."""
    d = problem.domain
    if not (abs(d.lower) < float("inf") and abs(d.upper) < float("inf")):
        raise ValueError("the minimalist phase needs a finite interval")
    lower, upper = (spec.f_bc for spec in problem.boundaries)
    if lower is None or upper is None:
        raise ValueError("the minimalist phase needs ratio values at both ends")
    return lower, upper


def solve_finite_interval(
    problem: SLProblem,
    sub: PhiSubstitution | None = None,
    lam: complex = 0j,
    tol: Tolerances = Tolerances(),
) -> complex:
    """Integrate the phase from the lower to the upper end and return
    Phi(upper); the eigenvalue condition (e.g. Phi(upper) = 2 n pi) is
    applied by the caller.

    Both ends must be finite and carry ratio values; the phase starts at
    the value of the lower one.  Without a gauge the scaled gauge of
    ``scaled_gauge(problem, lam)`` is used; it yields the same crossings
    of Phi = 2 n pi as DEFAULT_GAUGE, but Phi(upper) between them differs.
    """
    lower, _ = _ratio_values(problem)
    if sub is None:
        sub = scaled_gauge(problem, lam)
    d = problem.domain
    traj = integrate(phase_system(problem, sub), d.lower, d.upper,
                     (phi_from_ratio_bc(sub, lower),), lam, tol, store_path=False)
    raise_if_stalled(traj)
    return traj.y_end[0]


@dataclass(frozen=True)
class FiniteIntervalWinding:
    """lam -> (Phi(upper) - Phi_bc)/2pi of the minimalist phase in the
    scaled gauge, for a problem with ratio values at two finite ends, where
    Phi_bc is the phase of the upper ratio value in that gauge (0 for
    f = 0): its crossings of the integers are the eigenvalues."""

    problem: SLProblem
    tol: Tolerances = Tolerances()

    def __call__(self, lam: complex) -> complex:
        _, upper = _ratio_values(self.problem)
        sub = scaled_gauge(self.problem, lam)
        phi_upper = phi_from_ratio_bc(sub, upper)
        phi = solve_finite_interval(self.problem, sub, lam, self.tol)
        return (phi - phi_upper) / (2 * math.pi)

    def lanes(self, lams: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
        """`__call__` at many lam, as one lane-batched integration: the values
        (NaN where an evaluation failed) and per lam None or the name of the
        error `__call__` raises there.

        Each lane gets the kappa of ``scaled_gauge`` (the same midpoints,
        summed in the same order) and the phases of the two ratio values in
        that gauge; p and q must take arrays of x and lam.
        """
        problem, d, c = self.problem, self.problem.domain, self.problem.coefficients
        ratios = _ratio_values(problem)
        lam = np.asarray(lams, dtype=complex)
        xs = _gauge_points(problem)[:, None]
        with np.errstate(all="ignore"):
            p = np.broadcast_to(c.p(xs, lam), (xs.size, lam.size))
            total = (c.q(xs, lam) / p).real.sum(axis=0)  # row by row, as the loop
            kappa = np.sqrt(np.maximum(total / _GAUGE_SAMPLES, 1.0)) + 0j
        phases = np.full((2, lam.size), np.nan, dtype=complex)
        degenerate = np.zeros(lam.size, dtype=bool)
        for j, k in enumerate(kappa.tolist()):
            sub = PhiSubstitution(0j, k)
            try:
                phases[:, j] = [phi_from_ratio_bc(sub, f_bc) for f_bc in ratios]
            except DegenerateBoundary:
                degenerate[j] = True  # its NaN start phase ends it at the launch
        zero_p = (np.abs(p) < P_FLOOR).any(axis=0)
        _, y, failure = integrate_lanes(
            phase_system(problem), d.lower, d.upper, phases[0],
            np.stack([lam, kappa]), self.tol)
        # the scalar path raises a zero p at a midpoint first, then a
        # degenerate ratio value, then a zero p on the way (ZeroCoefficient),
        # the only point where the phase rhs is singular
        failure[failure == SingularSurface] = ZeroCoefficient
        failure[degenerate] = DegenerateBoundary
        failure[zero_p] = ZeroCoefficient
        values = (y[0] - phases[1]) / (2 * math.pi)
        values[failure.astype(bool)] = np.nan
        return values, [None if f is None else f.__name__ for f in failure]
