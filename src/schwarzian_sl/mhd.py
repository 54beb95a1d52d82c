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
the axis and make the 1/r structure of the system explicit.  Their omega-,
k- and m-dependent factors are built once per leg (per lane, as parameter
rows); a stage evaluates only the r-dependent rest.  With W = (omega -
k V0)^2, I = b_phi_over_r and delta = rho W - (k.B0)^2, a hydrodynamic
segment has rf11 = 0, rf12 = A r^2 - m^2/delta, rf21 = -delta, and a cold
one with B0phi = I/r at m = 0 the Laurent polynomials rf11 = -1 -
k^2 I^2/(delta r^2), rf12 = r^4/I^2 - k^2 r^2/delta, rf21 = -delta -
I^2/r^4 + k^2 I^4/(delta r^6); there delta is constant, so the singular
test runs once per leg.  Other segments use the full form, with the test
(the Alfven radius at m != 0 among others) at every stage.  Each form and
each body is written once, as source.  A leg lies in one segment, and
``integrate._compiled_system``, the package's one source-to-system
builder, turns its segment's form and its body into its scalar rhs, its
lane rhs and the stage of its DOP853 attempt (`OdeSystem.stage`);
``y1_*_system_rhs`` are the bodies alone.  `y1_system` and
`y_riccati_system` take each radius to its own segment's leg.

The jet legs run in s = ln r, where the axis, a regular singular point,
does not force the steps to shrink like r: their rhs is r dy/dr, the
system's body evaluated with 1 for r.  `jet_trajectories` runs the legs
of a quantization value and of an eigenfunction alike, and reports radii;
its outward leg ends once g1 has settled (`settle_event`), at the outer
cut at the latest.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import textwrap
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .integrate import (
    DimensionMismatch,
    OdeSystem,
    StopReason,
    Tolerances,
    Trajectory,
    _compiled_system,
    _function,
    integrate,
    integrate_lanes,
    lane_failures,
    merge_legs,
    raise_if_stalled,
)
from .schwarzian import Approach, branch_tracked_sqrt

_INTERFACE_NUDGE = 1e-9  # relative launch offset off an interface
_PROFILE_KEYS = ("P0", "V0", "B0z", "b_phi_const", "b_phi_over_r")  # 0 when left out


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
        for seg, after in zip(self.segments, self.segments[1:]):
            if seg.hi != after.lo:
                raise ValueError(f"segment [{seg.lo}, {seg.hi}] must end where the next "
                                 f"begins, at {after.lo}")

    @property
    def interfaces(self) -> tuple[float, ...]:
        return tuple(s.lo for s in self.segments[1:])

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "segments": [asdict(s) for s in self.segments]}

    @staticmethod
    def from_dict(doc: dict) -> "MhdEquilibrium":
        """Load piecewise profiles from a JSON-style document.

        Segment edges may be the strings "inf"/"-inf"; a missing "hi" is
        the next segment's "lo" (inf for the last).  B0phi segments are
        constant plus a 1/r part.
        """
        los = [float(s["lo"]) for s in doc["segments"]]
        segments = tuple(
            ProfileSegment(lo, float(s.get("hi", hi)), float(s["rho0"]),
                           *(float(s.get(key, 0.0)) for key in _PROFILE_KEYS))
            for s, lo, hi in zip(doc["segments"], los, los[1:] + [math.inf])
        )
        return MhdEquilibrium(segments=segments, gamma=float(doc.get("gamma", 5.0 / 3.0)))


# The ratio forms of the module docstring as source: the names of a leg's
# parameter, the r-independent factors, and statements that read r, them and
# the segment's constants and assign rf11, rf12, rf21 and singular.
_HYDRO = "a, b, rf21, resonant", """\
rf11, rf12, singular = 0.0, a * r * r + b, (resonant != 0) | (r == 0.0)"""
_LAURENT = "a11, a12, a21, b21, resonant", """\
r_sq = r * r
s_sq = 1.0 / r_sq
rf11, rf12 = -1.0 + a11 * s_sq, r_sq * (r_sq / i_sq + a12)
rf21, singular = a21 + s_sq * s_sq * (b21 * s_sq - i_sq), resonant != 0"""
_GENERAL = "w_sq, rho_w, scale", """\
s = 1.0 / r
bphi = bc + big_i * s
kb = k_bz + m * s * bphi  # k_co . B0
kb_sq = kb * kb
delta = rho_w - kb_sq
singular = abs(delta) <= 1e-30 * (scale + kb_sq)
b_sq = bz_sq + bphi * bphi
if cold:  # the sound-speed factors cancel algebraically
    singular = singular | (b_sq == 0.0)
    kappa_t_sq = rho_w / b_sq - (k_sq + m_sq * s * s)
else:
    den = (rho_cs_sq + b_sq) * w_sq - cs_sq * kb_sq
    den_scale = abs((rho_cs_sq + b_sq) * w_sq) + cs_sq * kb_sq + 1e-300
    singular = singular | (abs(den) <= 1e-30 * den_scale)
    kappa_t_sq = rho_w * w_sq / den - (k_sq + m_sq * s * s)
bphi_sq = bphi * bphi
rf11 = -(bphi_sq * kappa_t_sq + 2.0 * bphi * k * (bphi * k - bz * m * s)) / delta
rf12 = kappa_t_sq * r * r / delta
rf21 = -(delta + bphi_sq * s * s * (bphi_sq * kappa_t_sq - 4.0 * k_bz * kb) / delta)"""


def _segment_form(seg: ProfileSegment, gamma: float, m: int, k: float):
    """(factors, constants, form) of one segment at mode (m, k), in the
    forms the module docstring lists: ``factors(omega)`` builds the
    r-independent factors of a leg, and the constants, by name, are the
    other values the form's source reads."""
    rho, v0, bz, bc, big_i = seg.rho0, seg.V0, seg.B0z, seg.b_phi_const, seg.b_phi_over_r
    cold, cs_sq = seg.P0 == 0.0, gamma * seg.P0 / rho
    kv, k_sq, m_sq = k * v0, k * k, m * m

    def flow(omega):  # W = (omega - k V0)^2, rho W and the scale of the singular test
        w_co = omega - kv
        w_sq = w_co * w_co
        return w_sq, rho * w_sq, rho * (abs(w_co) + abs(kv) + abs(omega)) ** 2 + 1e-300

    if not (cold or bz or bc or big_i):  # hydrodynamic
        def factors(omega):
            w_sq, delta, scale = flow(omega)
            return (w_sq / cs_sq - k_sq) / delta, -m_sq / delta, -delta, abs(delta) <= 1e-30 * scale

        return factors, {}, _HYDRO
    if cold and not (bz or bc or m) and big_i:  # Laurent polynomials in r
        i_sq = big_i * big_i

        def factors(omega):
            _, delta, scale = flow(omega)
            c = k_sq / delta
            return -c * i_sq, -c, -delta, c * i_sq * i_sq, abs(delta) <= 1e-30 * scale

        return factors, {"i_sq": i_sq}, _LAURENT
    return flow, dict(k=k, m=m, bz=bz, bc=bc, big_i=big_i, k_bz=k * bz, k_sq=k_sq, m_sq=m_sq,
                      bz_sq=bz * bz, cold=cold, cs_sq=cs_sq, rho_cs_sq=rho * cs_sq), _GENERAL


def _leg_system(eq: MhdEquilibrium, m: int, k: float, lo: float, hi: float,
                dimension: int, body, ln_r: bool = False) -> tuple[OdeSystem, Callable]:
    """dy/dr = body(r, y, rf11, rf12, rf21) over the radii between lo and
    hi, which lie in one segment (else ValueError), or with ``ln_r`` r dy/dr
    = body(1, ...) over s = ln r; and ``params(omega)``, the factors of
    `_segment_form` as Python scalars for one omega or (k, n) rows for lane
    omegas.  The rhs (`integrate._compiled_system`) checks the segment's
    ratio form, with its constants, exp and exp_r (r = e^s) bound, and is
    singular where a continuous-spectrum denominator vanishes."""
    lo, hi = min(lo, hi), max(lo, hi)
    i = bisect.bisect_right(eq.interfaces, lo)
    if bisect.bisect_right(eq.interfaces, hi) != i:
        raise ValueError(f"a leg lies in one segment; ({lo}, {hi}) crosses r={eq.interfaces[i]}")
    factors, consts, (names, ratios) = _segment_form(eq.segments[i], eq.gamma, m, k)
    check = (f"r = {'exp_r(t)' if ln_r else 't'}\ntry:\n{textwrap.indent(ratios, '    ')}\n"
             "except ZeroDivisionError:\n    singular = True")
    us = ", ".join(f"u{j}" for j in range(body.state.count(",") + 1))
    source = f"r, {body.state} = {'1.0' if ln_r else 'r'}, {us}\n{body.source}"
    sys = _compiled_system(
        dimension, check, source,
        'SingularSurface(f"a continuous-spectrum denominator vanishes at r={r}")',
        {**consts, "exp": cmath.exp, "exp_r": math.exp}, {"exp": np.exp, "exp_r": np.exp},
        head=f"{names}, = lam")

    def params(omega):
        with np.errstate(all="ignore"):
            part = factors(np.asarray(omega, dtype=complex))
        if np.ndim(omega):
            return np.array(part, dtype=complex)
        return tuple(np.asarray(v).item() for v in part)

    return sys, params


def _omega_system(eq: MhdEquilibrium, m: int, k: float, dimension: int, body) -> OdeSystem:
    """The `_leg_system` rhs of each segment (built at its lower edge, which
    lies in it) at the radii of that segment, with omega as the parameter."""
    legs = [(leg.rhs, functools.lru_cache(maxsize=1)(params)) for leg, params in (
        _leg_system(eq, m, k, seg.lo, seg.lo, dimension, body) for seg in eq.segments)]
    interfaces = eq.interfaces

    def rhs(r, y, omega):
        leg, params = legs[bisect.bisect_right(interfaces, r)]
        return leg(r, y, params(omega))

    return OdeSystem(dimension, rhs)


def _body(name: str, state: str, source: str, doc: str) -> Callable:
    """A body from its ``source``: statements that read r, the leading
    components by their ``state`` names (y4, y3 for Y4, Y3 of y1), the
    ratios and exp and assign dy.  Legs inline the source; the function
    compiled from it, with cmath's exp, is the body on its own."""
    body = _function(name, "r, state, rf11, rf12, rf21",
                     f"{state}, *_ = state\nexp = cmath.exp\n" + source, "dy")
    body.state, body.source, body.__doc__ = state, source, doc
    return body


_riccati_body = _body("y_riccati_rhs", "big_y", """\
dy = ((rf21 * big_y * big_y - 2.0 * rf11 * big_y - rf12) / r,)""",
                      "Right side of the Riccati equation for Y = y1/y2.")


def y_riccati_system(eq: MhdEquilibrium, m: int, k: float) -> OdeSystem:
    return _omega_system(eq, m, k, 1, _riccati_body)


y1_phi_system_rhs = _body("y1_phi_system_rhs", "y4, y3", """\
diff = -2.0 * rf11  # rf22 - rf11
dy = ((-rf21 - diff * y4 + (y4 * y4 - y3 * y3) * rf12) / r,
      (2.0 * y3 * y4 * rf12 + 2.0 * rf11 * y3) / r, 2.0 * y3 * rf12 / r)""",
                          """Right side of the y1 Schwarzian Phi system; state = (Y4, Y3, Phi1).
    Reconstruction: 1/Y = Y4 - Y3 cot((Phi1 + C)/2).""")
y1_g_system_rhs = _body("y1_g_system_rhs", "y4, y3", """\
diff = -2.0 * rf11  # rf22 - rf11
dy = ((-rf21 - diff * y4 + rf12 * y4 * y4) / r, (-y4 * rf12 + 0.5 * diff) / r,
      rf12 * exp(-2.0 * y3) / r)""",
                        """Right side of the y1 Schwarzian g system; state = (Y4, Y3, g1).
    Reconstruction: 1/Y = Y4 - e^{-2 Y3} / (g1 + C2/C1).""")


def _y1_body(approach: Approach):
    return y1_phi_system_rhs if approach is Approach.PHI else y1_g_system_rhs


def y1_system(eq: MhdEquilibrium, m: int, k: float, approach: Approach) -> OdeSystem:
    """The three-component y1 Schwarzian system (Y4, Y3, g1 or Phi1) over
    every radius as an integrable OdeSystem; omega is its parameter."""
    return _omega_system(eq, m, k, 3, _y1_body(approach))


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

    @property
    def jet_pressure(self) -> float:
        return 1.0 / self.gamma  # rho_j c_sj^2 / Gamma in program units

    @property
    def field_constant(self) -> float:
        # I^2 = 2 P_j from pressure balance at the interface r = 1
        return math.sqrt(2.0 * self.jet_pressure)

    def equilibrium(self) -> MhdEquilibrium:
        jet = ProfileSegment(0.0, 1.0, rho0=1.0, P0=self.jet_pressure, V0=self.M)
        envelope = ProfileSegment(1.0, math.inf, rho0=self.eta, P0=0.0, V0=0.0,
                                  b_phi_over_r=self.field_constant)
        return MhdEquilibrium(segments=(jet, envelope), gamma=self.gamma)


DEFAULT_CUTS = (0.01, 10.0)
DEFAULT_G_LAUNCH = (0j, 0j, 0j)  # (Y4, Y3, g1) at the interface
DEFAULT_PHI_LAUNCH = (0j, 1 + 0j, 0j)  # (Y4, Y3, Phi1) at the interface
SETTLE = 1e-13  # |step| / |value| where g1 stops resolving an increment: about 450 ulp


def settle_event(x0: float, third0):
    """Fires once y[2] (g1 or Phi1) has stopped moving: at an accepted step
    that, as did the step before, moves it by at most SETTLE |y[2]|.  For a
    launch value ``third0``, `integrate`'s ``fired(x, y)``; for an (n,) row,
    `integrate_lanes`'s ``fired(lane, x, y)``, its state per original lane."""
    if np.ndim(third0):
        last_x, last = np.full(np.shape(third0), x0), np.array(third0, dtype=complex)
        small = np.zeros(last.shape, dtype=bool)

        def lanes(lane, x, y):  # |z| as np.hypot, as Python's abs(complex) is
            step, moved = y[2] - last[lane], x != last_x[lane]  # else the step was rejected
            now = np.hypot(step.real, step.imag) <= SETTLE * np.hypot(y[2].real, y[2].imag)
            fired, small[lane] = moved & now & small[lane], np.where(moved, now, small[lane])
            last_x[lane], last[lane] = x, y[2]
            return fired

        return lanes
    last, small = complex(third0), False

    def fired(x, y):
        nonlocal last, small
        now = abs(y[2] - last) <= SETTLE * abs(y[2])
        settled, small, last = small and now, now, y[2]
        return settled

    return fired


def _legs(eq: MhdEquilibrium, m: int, k: float, approach: Approach, launch, cuts):
    """The launch state and, for the inward then the outward leg, its from
    and to radii, its y1 system and factor map (`_leg_system`).  Both legs
    start at the jet radius 1, nudged inside for the inward leg when it is
    an interface."""
    if launch is None:
        launch = DEFAULT_PHI_LAUNCH if approach is Approach.PHI else DEFAULT_G_LAUNCH
    start_in = 1.0 - _INTERFACE_NUDGE if 1.0 in eq.interfaces else 1.0
    return launch, [(x0, x1, *_leg_system(eq, m, k, x0, x1, 3, _y1_body(approach), ln_r=True))
                    for x0, x1 in ((start_in, cuts[0]), (1.0, cuts[1]))]


def jet_trajectories(
    eq: MhdEquilibrium, m: int, k: float, omega: complex, approach: Approach = Approach.G,
    launch: Sequence[complex] | None = None, cuts: tuple[float, float] = DEFAULT_CUTS,
    tol: Tolerances = Tolerances(rel=1e-8, abs=1e-10),
) -> tuple[Trajectory, Trajectory]:
    """Integrate from the jet radius 1 toward the axis and toward infinity,
    in s = ln r; the legs report radii.

    The inward leg runs to the inner cut.  The outward leg ends where g1
    or Phi1 has stopped moving (`settle_event`), at the outer cut at the
    latest.  Each leg lies in one segment: an interface between the jet
    radius and a cut raises ValueError.  Where r = 1 is an interface, the
    inward leg starts one part in 10^9 inside it.  A leg that stalls before
    its end raises StepFailure.
    """
    launch, legs = _legs(eq, m, k, approach, launch, cuts)
    inward, outward = (  # the outward leg starts at s = ln 1 = 0
        _in_radii(integrate(sys, math.log(x0), math.log(x1), launch, params(omega), tol, event),
                  x0, x1)
        for (x0, x1, sys, params), event in zip(legs, (None, settle_event(0.0, launch[2]))))
    raise_if_stalled(inward, outward)
    return inward, outward


def _in_radii(leg: Trajectory, r0: float, r1: float) -> Trajectory:
    """A leg run in s = ln r from ln r0 toward ln r1, in radii: exactly r0
    at its launch, and r1 at its end when it reached it."""
    xs = np.exp(leg.xs)
    if leg.stop_reason is StopReason.REACHED_END:
        xs[-1] = r1
    xs[0] = r0
    return Trajectory(xs, leg.ys, leg.stop_reason)


@dataclass(frozen=True)
class JetQuantizationFunction:
    """Picklable omega -> quantization value map for webs and refinement;
    its cuts must lie on either side of the jet radius 1."""

    model: CohnJetModel
    m: int
    k: float
    approach: Approach = Approach.G
    launch: tuple[complex, ...] | None = None
    cuts: tuple[float, float] = DEFAULT_CUTS
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.cuts[0] < 1.0 < self.cuts[1]:
            raise ValueError(f"cuts {self.cuts} must bracket the jet radius: 0 < inner < 1 < outer")
        Tolerances(rel=self.rel_tol, abs=self.abs_tol)  # refused here, not at every omega
        if self.launch is not None and len(self.launch) != 3:
            raise DimensionMismatch(f"launch has length {len(self.launch)}, system dimension 3")

    def __call__(self, omega: complex) -> complex:
        """Quantization value between infinity and the axis.

        g approach: g1(outer) - g1(inner cut); Phi approach:
        sin((Phi1(outer) - Phi1(inner))/2), where "outer" is the end of the
        outward leg of `jet_trajectories`, the legs an eigenfunction is
        rebuilt from.  Roots in omega are the eigenvalues.
        """
        inward, outward = jet_trajectories(
            self.model.equilibrium(), self.m, self.k, omega, self.approach, self.launch,
            self.cuts, Tolerances(rel=self.rel_tol, abs=self.abs_tol))
        value = outward.y_end[2] - inward.y_end[2]
        if self.approach is Approach.PHI:
            return cmath.sin(value / 2.0)
        return value

    def lanes(self, omegas: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
        """`__call__` at many omegas, each leg one lane-batched integration:
        the values (NaN where an evaluation failed) and per omega None or the
        name of the error `__call__` raises there; outward lanes settle as it does."""
        eq = self.model.equilibrium()
        launch, legs = _legs(eq, self.m, self.k, self.approach, self.launch, self.cuts)
        tol = Tolerances(rel=self.rel_tol, abs=self.abs_tol)
        events = None, settle_event(0.0, np.full(np.size(omegas), complex(launch[2])))
        (_, inner, fail_in), (_, outer, fail_out) = (
            integrate_lanes(sys, math.log(x0), math.log(x1), launch, params(omegas), tol, event)
            for (x0, x1, sys, params), event in zip(legs, events))
        value = outer[2] - inner[2]
        if self.approach is Approach.PHI:
            value = np.sin(value / 2.0)
        return lane_failures(value, fail_in, fail_out)


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
    it stays continuous across interfaces where y1', y2' jump.  The
    samples end where the outward leg ended: past the radius where g1 has
    settled, g1 + C would be round-off times the growing e^{Y3}.
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
