"""Linear stability of cylindrical ideal-MHD equilibria.

The linearized equations reduce to a 2x2 first-order system for y1 (radial
Lagrangian displacement variable) and y2 (total pressure perturbation),
with coefficient ratios F_ij/D built from the equilibrium profiles and the
mode numbers; perturbations go like e^{i(m phi + k z - omega t)}.  Only the
ratio Y = y1/y2 enters the boundary conditions, and Y is continuous even
across equilibrium interfaces, so the problem is solved in Riccati form

    dY/dr = (F21/D) Y^2 + ((F22 - F11)/D) Y - F12/D

or through the Schwarzian splittings of 1/Y, whose third component (g1 or
Phi1) carries the quantization condition between the axis and infinity.
Every equilibrium expressible here has F22 = -F11, so the trace
(F11 + F22)/D vanishes and the splittings need no fourth component for
the eigenfunction normalization: the state is (Y4, Y3, g1 or Phi1).

All ratios are evaluated in the scalings r*F_ij/D, which stay finite at
the axis and make the 1/r structure of the system explicit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrate import (
    OdeSystem,
    SingularSurface,
    StepFailure,
    Tolerances,
    Trajectory,
    integrate,
    integrate_lanes,
    merge_legs,
    raise_if_stalled,
)
from .schwarzian import Approach, branch_tracked_sqrt

_INTERFACE_NUDGE = 1e-9  # relative launch offset off an interface


@dataclass(frozen=True)
class ProfileSegment:
    """One smooth piece of the equilibrium: constant profiles plus an
    azimuthal field B0phi = b_phi_const + b_phi_over_r / r."""

    lo: float
    hi: float
    rho0: float
    P0: float
    V0: float
    B0z: float = 0.0
    b_phi_const: float = 0.0
    b_phi_over_r: float = 0.0


@dataclass(frozen=True)
class MhdEquilibrium:
    """Piecewise equilibrium profiles over the cylindrical radius.

    Segments are lower-edge inclusive: a point exactly on an interface
    belongs to the outer segment.  Each smooth piece must satisfy the
    radial force balance
    dP0/dr + d(B0z^2/2)/dr + (1/r^2) d(r^2 B0phi^2 / 2)/dr = 0.
    """

    segments: tuple[ProfileSegment, ...]
    gamma: float = 5.0 / 3.0

    def __post_init__(self) -> None:
        edges = [s.lo for s in self.segments]
        if edges != sorted(edges):
            raise ValueError("segments must be sorted by lower edge")

    @property
    def interfaces(self) -> tuple[float, ...]:
        return tuple(s.lo for s in self.segments[1:])

    def segment_at(self, r: float) -> ProfileSegment:
        for seg in reversed(self.segments):
            if r >= seg.lo:
                return seg
        return self.segments[0]

    def rho0(self, r: float) -> float:
        return self.segment_at(r).rho0

    def P0(self, r: float) -> float:
        return self.segment_at(r).P0

    def V0(self, r: float) -> float:
        return self.segment_at(r).V0

    def B0z(self, r: float) -> float:
        return self.segment_at(r).B0z

    def B0phi(self, r: float) -> float:
        seg = self.segment_at(r)
        return seg.b_phi_const + seg.b_phi_over_r / r

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "segments": [
                {
                    "lo": s.lo,
                    "hi": s.hi,
                    "rho0": s.rho0,
                    "P0": s.P0,
                    "V0": s.V0,
                    "B0z": s.B0z,
                    "b_phi_const": s.b_phi_const,
                    "b_phi_over_r": s.b_phi_over_r,
                }
                for s in self.segments
            ],
        }

    @staticmethod
    def from_dict(doc: dict) -> "MhdEquilibrium":
        """Load piecewise profiles from a JSON-style document.

        Segment edges may be the strings "inf"/"-inf"; B0phi segments are
        constant plus a 1/r part.
        """

        segments = tuple(
            ProfileSegment(
                lo=float(s["lo"]),
                hi=float(s.get("hi", math.inf)),
                rho0=float(s["rho0"]),
                P0=float(s.get("P0", 0.0)),
                V0=float(s.get("V0", 0.0)),
                B0z=float(s.get("B0z", 0.0)),
                b_phi_const=float(s.get("b_phi_const", 0.0)),
                b_phi_over_r=float(s.get("b_phi_over_r", 0.0)),
            )
            for s in doc["segments"]
        )
        return MhdEquilibrium(segments=segments, gamma=float(doc.get("gamma", 5.0 / 3.0)))

    def equilibrium_residual(self, r: float, h: float = 1e-6) -> float:
        """Force-balance residual by central differences inside one piece."""

        def total(rr: float) -> float:
            return self.P0(rr) + 0.5 * self.B0z(rr) ** 2

        def hoop(rr: float) -> float:
            return 0.5 * (rr * self.B0phi(rr)) ** 2

        d_total = (total(r + h) - total(r - h)) / (2.0 * h)
        d_hoop = (hoop(r + h) - hoop(r - h)) / (2.0 * h)
        return d_total + d_hoop / r**2


def _segment_ratios(seg: ProfileSegment, gamma: float, m: int, k: float, omega, r):
    """(rf11, rf12, rf21, singular) in one segment, for scalar or lane-array
    omega and r.  ``singular`` marks a vanishing continuous-spectrum
    denominator; the ratios there mean nothing, and an exactly zero one
    raises ZeroDivisionError in a scalar call."""
    rho = seg.rho0
    bz = seg.B0z
    bphi = seg.b_phi_const + seg.b_phi_over_r / r
    b_sq = bz * bz + bphi * bphi
    cs_sq = gamma * seg.P0 / rho
    w_co = omega - k * seg.V0
    w_co_sq = w_co * w_co
    kb = k * bz + (m / r) * bphi  # k_co . B0
    kco_sq = k * k + (m / r) ** 2
    delta = rho * w_co_sq - kb * kb
    scale = rho * (abs(w_co) + abs(k * seg.V0) + abs(omega)) ** 2 + kb * kb + 1e-300
    singular = abs(delta) <= 1e-30 * scale
    if seg.P0 == 0.0:
        # cold plasma: the sound-speed factors cancel algebraically
        singular = singular | (b_sq == 0.0)
        kappa_t_sq = rho * w_co_sq / b_sq - kco_sq
    elif not (bz or seg.b_phi_const or seg.b_phi_over_r):
        kappa_t_sq = w_co_sq / cs_sq - kco_sq
    else:
        den = (rho * cs_sq + b_sq) * w_co_sq - cs_sq * kb * kb
        den_scale = abs((rho * cs_sq + b_sq) * w_co_sq) + cs_sq * kb * kb + 1e-300
        singular = singular | (abs(den) <= 1e-30 * den_scale)
        kappa_t_sq = rho * w_co_sq * w_co_sq / den - kco_sq
    rf11 = -(bphi * bphi * kappa_t_sq + 2.0 * bphi * k * (bphi * k - bz * m / r)) / delta
    rf12 = kappa_t_sq * r * r / delta
    rf21 = -(delta + (bphi * bphi / (r * r)) * (bphi * bphi * kappa_t_sq - 4.0 * bz * k * kb) / delta)
    return rf11, rf12, rf21, singular


def _ratios(
    eq: MhdEquilibrium, m: int, k: float, omega: complex, r: float
) -> tuple[complex, complex, complex]:
    """(rf11, rf12, rf21) at radius r; raises SingularSurface on resonance."""
    try:
        rf11, rf12, rf21, singular = _segment_ratios(eq.segment_at(r), eq.gamma, m, k, omega, r)
    except ZeroDivisionError:
        singular = True
    if singular:
        raise SingularSurface(f"a continuous-spectrum denominator vanishes at r={r}")
    return rf11, rf12, rf21


def _lane_ratios(eq: MhdEquilibrium, m: int, k: float, omega: np.ndarray, r: np.ndarray):
    """`_segment_ratios` over lanes, each in the segment that holds its r."""
    which = np.maximum(np.searchsorted([s.lo for s in eq.segments], r, side="right") - 1, 0)
    if (which == which[0]).all():
        return _segment_ratios(eq.segments[which[0]], eq.gamma, m, k, omega, r)
    out = np.empty((4, r.size), dtype=complex)  # rf11, rf12, rf21, singular
    for i in np.unique(which):
        sel = which == i
        out[:, sel] = _segment_ratios(eq.segments[i], eq.gamma, m, k, omega[sel], r[sel])
    return out[0], out[1], out[2], out[3].real != 0.0


def y_riccati_system(eq: MhdEquilibrium, m: int, k: float) -> OdeSystem:
    def rhs(r: float, y: tuple[complex, ...], omega: complex) -> tuple[complex]:
        rf11, rf12, rf21 = _ratios(eq, m, k, omega, r)
        Y = y[0]
        return ((rf21 * Y * Y - 2.0 * rf11 * Y - rf12) / r,)

    return OdeSystem(dimension=1, rhs=rhs)


def y1_phi_system_rhs(
    r: float, state: Sequence[complex], rf11: complex, rf12: complex, rf21: complex
) -> tuple[complex, complex, complex]:
    """Right side of the y1 Schwarzian Phi system; state = (Y4, Y3, Phi1).

    Reconstruction: 1/Y = Y4 - Y3 cot((Phi1 + C)/2).
    """
    y4, y3 = state[0], state[1]
    diff = -2.0 * rf11  # rf22 - rf11
    return (
        (-rf21 - diff * y4 + (y4 * y4 - y3 * y3) * rf12) / r,
        (2.0 * y3 * y4 * rf12 + 2.0 * rf11 * y3) / r,
        2.0 * y3 * rf12 / r,
    )


def y1_g_system_rhs(
    r: float, state: Sequence[complex], rf11: complex, rf12: complex, rf21: complex,
    exp=cmath.exp,
) -> tuple[complex, complex, complex]:
    """Right side of the y1 Schwarzian g system; state = (Y4, Y3, g1).

    Reconstruction: 1/Y = Y4 - e^{-2 Y3} / (g1 + C2/C1); lanes pass np.exp.
    """
    y4, y3 = state[0], state[1]
    diff = -2.0 * rf11  # rf22 - rf11
    return (
        (-rf21 - diff * y4 + rf12 * y4 * y4) / r,
        (-y4 * rf12 + 0.5 * diff) / r,
        rf12 * exp(-2.0 * y3) / r,
    )


def y1_system(eq: MhdEquilibrium, m: int, k: float, approach: Approach) -> OdeSystem:
    """The three-component y1 Schwarzian system (Y4, Y3, g1 or Phi1) as an
    integrable OdeSystem, with its lane form; omega is its parameter."""
    body = y1_phi_system_rhs if approach is Approach.PHI else y1_g_system_rhs
    lane_body = functools.partial(body, exp=np.exp) if body is y1_g_system_rhs else body

    def rhs(r: float, y: tuple[complex, ...], omega: complex):
        rf11, rf12, rf21 = _ratios(eq, m, k, omega, r)
        return body(r, y, rf11, rf12, rf21)

    def lanes(r: np.ndarray, y: np.ndarray, omega: np.ndarray):
        rf11, rf12, rf21, singular = _lane_ratios(eq, m, k, omega, r)
        return np.array(lane_body(r, y, rf11, rf12, rf21)), singular

    return OdeSystem(dimension=3, rhs=rhs, lanes=lanes)


@dataclass(frozen=True)
class CohnJetModel:
    """Uniform hydrodynamic jet in a cold, azimuthally magnetized static
    environment.

    Units: lengths in jet radii, velocities in the jet sound speed,
    densities in the jet density.  The exterior field B0phi = I/r balances
    the interior pressure P_j = I^2/2 at the interface (jet radius 1).
    """

    M: float = 1.0
    eta: float = 0.01
    gamma: float = 5.0 / 3.0
    radius: float = 1.0

    @property
    def jet_pressure(self) -> float:
        return 1.0 / self.gamma  # rho_j c_sj^2 / Gamma in program units

    @property
    def field_constant(self) -> float:
        # I^2 = 2 P_j radius^2 from pressure balance at the interface
        return math.sqrt(2.0 * self.jet_pressure) * self.radius

    def equilibrium(self, outer: float = math.inf) -> MhdEquilibrium:
        return MhdEquilibrium(
            segments=(
                ProfileSegment(
                    lo=0.0,
                    hi=self.radius,
                    rho0=1.0,
                    P0=self.jet_pressure,
                    V0=self.M,
                ),
                ProfileSegment(
                    lo=self.radius,
                    hi=outer,
                    rho0=self.eta,
                    P0=0.0,
                    V0=0.0,
                    b_phi_over_r=self.field_constant,
                ),
            ),
            gamma=self.gamma,
        )


DEFAULT_CUTS = (0.01, 10.0)
DEFAULT_G_LAUNCH = (0j, 0j, 0j)  # (Y4, Y3, g1) at the interface
DEFAULT_PHI_LAUNCH = (0j, 1 + 0j, 0j)  # (Y4, Y3, Phi1) at the interface


def _legs(eq: MhdEquilibrium, approach: Approach, launch, cuts, start: float):
    """The launch state and the (from, to) radii of the inward and outward
    legs; a start on an interface is nudged inside for the inward leg."""
    if launch is None:
        launch = DEFAULT_PHI_LAUNCH if approach is Approach.PHI else DEFAULT_G_LAUNCH
    start_in = start * (1.0 - _INTERFACE_NUDGE) if start in eq.interfaces else start
    return launch, ((start_in, cuts[0]), (start, cuts[1]))


def jet_trajectories(
    eq: MhdEquilibrium,
    m: int,
    k: float,
    omega: complex,
    approach: Approach = Approach.G,
    launch: Sequence[complex] | None = None,
    cuts: tuple[float, float] = DEFAULT_CUTS,
    start: float = 1.0,
    tol: Tolerances = Tolerances(rel=1e-8, abs=1e-10),
    store_path: bool = True,
) -> tuple[Trajectory, Trajectory]:
    """Integrate from the launch radius toward the axis and toward infinity.

    The state is continuous across interfaces (single integration with
    piecewise coefficients).  A launch sitting exactly on an interface is
    nudged one part in 10^9 to the matching side of each leg.  A leg that
    stalls before its cut raises StepFailure.
    """
    launch, spans = _legs(eq, approach, launch, cuts, start)
    sys = y1_system(eq, m, k, approach)
    inward, outward = (
        integrate(sys, x0, x1, launch, omega, tol, store_path=store_path)
        for x0, x1 in spans
    )
    raise_if_stalled(inward, outward)
    return inward, outward


@dataclass(frozen=True)
class JetQuantizationFunction:
    """Picklable omega -> quantization value map for webs and refinement."""

    model: CohnJetModel
    m: int
    k: float
    approach: Approach = Approach.G
    launch: tuple[complex, ...] | None = None
    cuts: tuple[float, float] = DEFAULT_CUTS
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __call__(self, omega: complex) -> complex:
        """Quantization value between infinity and the axis.

        g approach: g1(outer cut) - g1(inner cut); Phi approach:
        sin((Phi1(outer) - Phi1(inner))/2).  Roots in omega are the
        eigenvalues.
        """
        inward, outward = jet_trajectories(
            self.model.equilibrium(),
            self.m,
            self.k,
            omega,
            self.approach,
            self.launch,
            self.cuts,
            start=self.model.radius,
            tol=Tolerances(rel=self.rel_tol, abs=self.abs_tol),
            store_path=False,
        )
        value = outward.y_end[2] - inward.y_end[2]
        if self.approach is Approach.PHI:
            return cmath.sin(value / 2.0)
        return value

    def lanes(self, omegas: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
        """`__call__` at many omegas, each leg one lane-batched integration:
        the values (NaN where an evaluation failed) and per omega None or the
        name of the error `__call__` raises there."""
        eq = self.model.equilibrium()
        launch, spans = _legs(eq, self.approach, self.launch, self.cuts, self.model.radius)
        sys = y1_system(eq, self.m, self.k, self.approach)
        tol = Tolerances(rel=self.rel_tol, abs=self.abs_tol)
        (_, inner, fail_in), (_, outer, fail_out) = (
            integrate_lanes(sys, x0, x1, launch, omegas, tol)
            for x0, x1 in spans)
        # __call__ raises an error of the inward leg, else one of the outward
        # leg, else StepFailure for a stall of either
        take_out = ~fail_in.astype(bool) | ((fail_in == StepFailure) & fail_out.astype(bool))
        failure = np.where(take_out, fail_out, fail_in)
        value = outer[2] - inner[2]
        if self.approach is Approach.PHI:
            value = np.sin(value / 2.0)
        value[failure.astype(bool)] = np.nan
        return value, [None if f is None else f.__name__ for f in failure]


@dataclass
class YSamples:
    """Eigenfunction samples (one shared complex scale for y1 and y2)."""

    rs: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    Y: np.ndarray


def eigenfunctions_y(
    trajectories: tuple[Trajectory, Trajectory],
    constant: complex,
    approach: Approach = Approach.G,
) -> YSamples:
    """Reconstruct (y1, y2, Y) from the two legs of ``jet_trajectories``.

    The constant is solved from the axis condition (C2/C1 = -g1 at the
    axis for the g approach).  Y depends only on the continuous state, so
    it stays continuous across interfaces where y1', y2' jump.
    """
    rs, ys = merge_legs(*trajectories)
    y4, y3, third = ys[:, 0], ys[:, 1], ys[:, 2]
    # y2 is assembled in a form that stays regular where g1 + C -> 0 (the
    # axis end with the axis-solved constant): the 1/(g1+C) pole of 1/Y is
    # cancelled by the zero of y1 there.
    if approach is Approach.G:
        envelope = np.exp(y3)
        y1 = (third + constant) * envelope
        y2 = (y4 * (third + constant) - np.exp(-2.0 * y3)) * envelope
    else:
        w = (third + constant) / 2.0
        envelope = 1.0 / branch_tracked_sqrt(y3)
        y1 = np.sin(w) * envelope
        y2 = (y4 * np.sin(w) - y3 * np.cos(w)) * envelope
    with np.errstate(divide="ignore", invalid="ignore"):
        Y = np.where(y2 != 0, y1 / y2, np.inf)
    return YSamples(rs=rs, y1=y1, y2=y2, Y=Y)
