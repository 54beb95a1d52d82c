"""Problem model shared by all solver formulations.

A generalized Sturm-Liouville problem is (p f')' + q f = 0 where the
eigenvalue may enter both coefficients nonlinearly; boundary conditions
involve only F = p f'/f at the interval ends.  Infinite ends are carried as
explicit +-inf markers plus finite truncation cuts that stand in for them
during integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

CoefficientFunction = Callable[[float, complex], complex]

P_FLOOR = 1e-280  # |p| below this counts as a zero coefficient


class SchwarzianSLError(Exception):
    """Base class for errors raised by this package."""


class ZeroCoefficient(SchwarzianSLError):
    """p(x, lambda) vanished (or underflowed) inside the domain."""


@dataclass(frozen=True)
class Coefficients:
    """Coefficient functions p, q of (p f')' + q f = 0.

    ``p_prime`` is the analytic x-derivative of p when available; the
    finite-difference fallback uses a central stencil of width ``h``.
    """

    p: CoefficientFunction
    q: CoefficientFunction
    p_prime: CoefficientFunction | None = None

    def p_checked(self, x: float, lam: complex) -> complex:
        value = self.p(x, lam)
        if abs(value) < P_FLOOR:
            raise ZeroCoefficient(f"p({x}, {lam}) = {value}")
        return value


class BoundaryKind(Enum):
    RATIO_VALUE = "RatioValue"
    QUANTIZATION = "Quantization"


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition at one domain end.

    RatioValue pins F = p f'/f to ``f_bc`` (infinite f_bc encodes f = 0);
    Quantization is the asymptotic non-divergence condition and is only
    legal on an asymptotic end.
    """

    kind: BoundaryKind
    f_bc: complex | None = None

    @staticmethod
    def ratio(f_bc: complex) -> "BoundarySpec":
        return BoundarySpec(BoundaryKind.RATIO_VALUE, f_bc)

    @staticmethod
    def quantization() -> "BoundarySpec":
        return BoundarySpec(BoundaryKind.QUANTIZATION)


@dataclass(frozen=True)
class Domain:
    """Interval of interest with integration window.

    ``lower``/``upper`` may be -inf/+inf; ``lower_cut``/``upper_cut`` are the
    finite abscissae actually integrated to, and ``start`` is the launch
    point.  ``radial`` marks cylindrical/spherical radius problems, whose
    axis end (0) counts as asymptotic for quantization purposes.
    """

    lower: float
    upper: float
    start: float
    lower_cut: float
    upper_cut: float
    radial: bool = False

    def end_is_asymptotic(self, which: int) -> bool:
        if which == 0:
            return math.isinf(self.lower) or (self.radial and self.lower == 0.0)
        return math.isinf(self.upper)


@dataclass(frozen=True)
class SLProblem:
    coefficients: Coefficients
    domain: Domain
    boundaries: tuple[BoundarySpec, BoundarySpec]
    label: str = ""


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.code}: {self.message}"


def default_fd_step(x: float) -> float:
    """Central-difference step balancing truncation against roundoff."""
    return 1e-6 * max(1.0, abs(x))


def p_log_ratio(c: Coefficients, x: float, lam: complex, h: float) -> complex:
    """p'(x)/(2 p(x)), with analytic p' when supplied, else central FD."""
    p = c.p_checked(x, lam)
    if c.p_prime is not None:
        return c.p_prime(x, lam) / (2.0 * p)
    p_hi = c.p_checked(x + h, lam)
    p_lo = c.p_checked(x - h, lam)
    return (p_hi - p_lo) / (2.0 * h) / (2.0 * p)


def kappa_squared(
    c: Coefficients, x: float, lam: complex, h: float | None = None
) -> complex:
    """Frequency-squared of the equivalent variable-frequency oscillator:
    q/p - (p'/2p)^2 - (p'/2p)'.

    The derivative of the ratio p'/2p is always taken by a central
    difference of the ratio itself (of width ``h``), which is exact for the
    common case of constant p and O(h^2) otherwise.
    """
    if h is None:
        h = default_fd_step(x)
    p = c.p_checked(x, lam)
    r = p_log_ratio(c, x, lam, h)
    r_hi = p_log_ratio(c, x + h, lam, h)
    r_lo = p_log_ratio(c, x - h, lam, h)
    r_prime = (r_hi - r_lo) / (2.0 * h)
    return c.q(x, lam) / p - r * r - r_prime


def validate(problem: SLProblem) -> list[Diagnostic]:
    """Check domain ordering, truncation and boundary legality.

    Returns one diagnostic per violation; an empty list means the problem
    is well formed.  Never raises.
    """
    d = problem.domain
    out: list[Diagnostic] = []
    if not d.lower < d.start < d.upper:
        out.append(
            Diagnostic(
                "BadDomainOrder",
                f"need lower < start < upper, got {d.lower}, {d.start}, {d.upper}",
            )
        )
    if d.lower_cut < d.lower or d.upper_cut > d.upper:
        out.append(
            Diagnostic(
                "BadTruncation",
                f"cuts ({d.lower_cut}, {d.upper_cut}) extend beyond "
                f"({d.lower}, {d.upper})",
            )
        )
    if not d.lower_cut < d.start < d.upper_cut:
        out.append(
            Diagnostic(
                "BadLaunchPoint",
                f"start {d.start} is outside the integration window "
                f"({d.lower_cut}, {d.upper_cut})",
            )
        )
    for which, spec in enumerate(problem.boundaries):
        if spec.kind is BoundaryKind.QUANTIZATION and not d.end_is_asymptotic(which):
            end = d.lower if which == 0 else d.upper
            out.append(
                Diagnostic(
                    "IllegalQuantization",
                    f"quantization condition on finite end x={end}",
                )
            )
        if spec.kind is BoundaryKind.RATIO_VALUE and spec.f_bc is None:
            out.append(
                Diagnostic("MissingRatioValue", "RatioValue boundary without a value")
            )
    return out
