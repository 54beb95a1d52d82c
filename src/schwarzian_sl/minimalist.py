"""First-order reformulation F = p f'/f and its trigonometric substitution.

The Riccati form F' = -F^2/p - q halves the integration state but F runs
through infinities wherever f = 0.  Substituting
F = F1(x) + F2(x) cot(Phi/2) with gauge functions F1, F2 of our choice
turns those infinities into ordinary points of Phi (zeros of f sit at
Phi = 2 n pi) and the phase obeys a first-order equation in Phi alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import P_FLOOR, SLProblem, ZeroCoefficient, default_fd_step
from .integrate import (
    OdeSystem,
    SingularSurface,
    Tolerances,
    integrate,
    integrate_lanes,
    raise_if_stalled,
)

GaugeFunction = Callable[[float], complex]

_F2_FLOOR = 1e-280


class ZeroGauge(ZeroCoefficient):
    """The gauge function F2 vanished where it must not."""


def _zero(x: float) -> complex:
    return 0j


def _one(x: float) -> complex:
    return 1 + 0j


@dataclass(frozen=True)
class PhiSubstitution:
    """Gauge functions for F = F1 + F2 cot(Phi/2); F2 must not vanish."""

    F1: GaugeFunction = _zero
    F2: GaugeFunction = _one
    F1_prime: GaugeFunction | None = None
    F2_prime: GaugeFunction | None = None

    def values(self, x: float, h: float | None = None) -> tuple[complex, ...]:
        """(F1, F2, F1', F2') at x, derivatives by central FD if not given."""
        if h is None:
            h = default_fd_step(x)
        f1 = self.F1(x)
        f2 = self.F2(x)
        if abs(f2) < _F2_FLOOR:
            raise ZeroGauge(f"F2({x}) = {f2}")
        d1 = (
            self.F1_prime(x)
            if self.F1_prime is not None
            else (self.F1(x + h) - self.F1(x - h)) / (2.0 * h)
        )
        d2 = (
            self.F2_prime(x)
            if self.F2_prime is not None
            else (self.F2(x + h) - self.F2(x - h)) / (2.0 * h)
        )
        return f1, f2, d1, d2


DEFAULT_GAUGE = PhiSubstitution()  # F1 = 0, F2 = 1, the simplest choice

_GAUGE_SAMPLES = 64


def _gauge_points(problem: SLProblem) -> np.ndarray:
    """The midpoints of _GAUGE_SAMPLES equal cells of the interval."""
    lo, hi = problem.domain.lower, problem.domain.upper
    return lo + (np.arange(_GAUGE_SAMPLES) + 0.5) * ((hi - lo) / _GAUGE_SAMPLES)


def scaled_gauge(problem: SLProblem, lam: complex) -> PhiSubstitution:
    """Scaled Pruefer gauge F1 = 0, F2 = kappa, constant in x.

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
    return _constant_gauge(complex(math.sqrt(max(total / _GAUGE_SAMPLES, 1.0))))


def _constant_gauge(kappa: complex) -> PhiSubstitution:
    """F1 = 0, F2 = kappa, constant in x."""

    def f2(x: float) -> complex:
        return kappa

    return PhiSubstitution(F1=_zero, F2=f2, F1_prime=_zero, F2_prime=_zero)


def riccati_system(problem: SLProblem) -> OdeSystem:
    """F' = -F^2/p - q."""
    p_checked = problem.coefficients.p_checked
    q = problem.coefficients.q

    def rhs(x: float, y: tuple[complex, ...], lam: complex) -> tuple[complex]:
        F = y[0]
        return (-F * F / p_checked(x, lam) - q(x, lam),)

    return OdeSystem(dimension=1, rhs=rhs)


def _phase_rhs(p, q, f1, f2, d1, d2, phi, sin=cmath.sin, cos=cmath.cos):
    """Phi' from p, q and the gauge values (F1, F2, F1', F2') at one point;
    lanes pass arrays with np.sin and np.cos."""
    pf2 = p * f2
    base = p * q + p * d1 + f1 * f1
    a = (2.0 * f1 * f2 + p * d2) / pf2
    b = (base - f2 * f2) / pf2
    const = (base + f2 * f2) / pf2
    return a * sin(phi) - b * cos(phi) + const


def phase_system(problem: SLProblem, sub: PhiSubstitution = DEFAULT_GAUGE) -> OdeSystem:
    """Phase equation for the substituted variable:

    Phi' = (2 F1 F2 + p F2')/(p F2) sin(Phi)
         - (p q + p F1' + F1^2 - F2^2)/(p F2) cos(Phi)
         + (p q + p F1' + F1^2 + F2^2)/(p F2)

    which passes smoothly through the points where f = 0.

    The lane form runs every lane in a gauge of its own that is constant in
    x, F1 = 0 and F2 = kappa (the scaled gauge), in place of ``sub``: its
    parameter stacks lam (n,) over kappa (n,).  Lanes where p vanishes are
    marked singular.  p and q then take arrays of x and lam.
    """
    c = problem.coefficients
    p_fn, p_checked, q_fn = c.p, c.p_checked, c.q
    values = sub.values

    def rhs(x: float, y: tuple[complex, ...], lam: complex) -> tuple[complex]:
        f1, f2, d1, d2 = values(x)
        return (_phase_rhs(p_checked(x, lam), q_fn(x, lam), f1, f2, d1, d2, y[0]),)

    def lanes(x: np.ndarray, y: np.ndarray, params: np.ndarray):
        lam, kappa = params
        p = p_fn(x, lam)
        phi = _phase_rhs(p, q_fn(x, lam), 0.0, kappa, 0.0, 0.0, y[0], np.sin, np.cos)
        return phi[None, :], np.broadcast_to(np.abs(p) < P_FLOOR, x.shape)

    return OdeSystem(dimension=1, rhs=rhs, lanes=lanes)


def phi_from_ratio_bc(
    problem: SLProblem, sub: PhiSubstitution, x: float, f_bc: complex
) -> complex:
    """Convert a boundary value F = f_bc at x into a Phi value.

    F = infinity (f = 0 there) maps to Phi = 0 exactly, F = F1 to
    Phi = pi; otherwise cot(Phi/2) = (F - F1)/F2 on the principal branch.
    """
    if cmath.isinf(f_bc):
        return 0j
    f1, f2, _, _ = sub.values(x)
    t = (f_bc - f1) / f2
    if t == 0:
        return complex(math.pi)
    # arccot on the principal branch
    return 2.0 * cmath.atan(1.0 / t)


def solve_finite_interval(
    problem: SLProblem,
    sub: PhiSubstitution | None = None,
    lam: complex = 0j,
    tol: Tolerances = Tolerances(),
    phi_start: complex | None = None,
) -> complex:
    """Integrate the phase from the lower to the upper end and return
    Phi(upper); the eigenvalue condition (e.g. Phi(upper) = 2 n pi) is
    applied by the caller.

    Both ends must be finite.  Without a gauge the scaled gauge of
    ``scaled_gauge(problem, lam)`` is used; it yields the same crossings
    of Phi = 2 n pi as DEFAULT_GAUGE, but Phi(upper) between them differs.
    The starting phase defaults to the value implied by the lower
    RatioValue boundary.
    """
    d = problem.domain
    if not (abs(d.lower) < float("inf") and abs(d.upper) < float("inf")):
        raise ValueError("solve_finite_interval needs a finite interval")
    if sub is None:
        sub = scaled_gauge(problem, lam)
    if phi_start is None:
        spec = problem.boundaries[0]
        if spec.f_bc is None:
            raise ValueError("lower boundary does not define a starting phase")
        phi_start = phi_from_ratio_bc(problem, sub, d.lower, spec.f_bc)
    traj = integrate(
        phase_system(problem, sub),
        d.lower,
        d.upper,
        (phi_start,),
        lam,
        tol,
        store_path=False,
    )
    raise_if_stalled(traj)
    return traj.y_end[0]


@dataclass(frozen=True)
class FiniteIntervalWinding:
    """lam -> Phi(upper)/2pi of the minimalist phase in the scaled gauge,
    for a problem with ratio values at two finite ends: its crossings of
    the integers n are the eigenvalues (Phi(upper) = 2 n pi)."""

    problem: SLProblem
    tol: Tolerances = Tolerances()

    def __call__(self, lam: complex) -> complex:
        return solve_finite_interval(self.problem, lam=lam, tol=self.tol) / (2 * math.pi)

    def lanes(self, lams: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
        """`__call__` at many lam, as one lane-batched integration: the values
        (NaN where an evaluation failed) and per lam None or the name of the
        error `__call__` raises there.

        Each lane gets the kappa of ``scaled_gauge`` (the same midpoints,
        summed in the same order) and the start phase of the lower ratio
        value in that gauge; p and q must take arrays of x and lam.
        """
        problem, d, c = self.problem, self.problem.domain, self.problem.coefficients
        if not (abs(d.lower) < float("inf") and abs(d.upper) < float("inf")):
            raise ValueError("solve_finite_interval needs a finite interval")
        f_bc = problem.boundaries[0].f_bc
        if f_bc is None:
            raise ValueError("lower boundary does not define a starting phase")
        lam = np.asarray(lams, dtype=complex)
        xs = _gauge_points(problem)[:, None]
        with np.errstate(all="ignore"):
            p = np.broadcast_to(c.p(xs, lam), (xs.size, lam.size))
            total = (c.q(xs, lam) / p).real.sum(axis=0)  # row by row, as the loop
            kappa = np.sqrt(np.maximum(total / _GAUGE_SAMPLES, 1.0)) + 0j
        phi_start = [phi_from_ratio_bc(problem, _constant_gauge(k), d.lower, f_bc)
                     for k in kappa.tolist()]
        zero_p = (np.abs(p) < P_FLOOR).any(axis=0)
        _, y, failure = integrate_lanes(
            phase_system(problem), d.lower, d.upper, phi_start,
            np.stack([lam, kappa]), self.tol)
        # the phase rhs is singular only where p vanishes, which the scalar
        # path raises as ZeroCoefficient, as it does a zero p at a midpoint
        failure[zero_p | (failure == SingularSurface)] = ZeroCoefficient
        values = y[0] / (2 * math.pi)
        values[failure.astype(bool)] = np.nan
        return values, [None if f is None else f.__name__ for f in failure]
