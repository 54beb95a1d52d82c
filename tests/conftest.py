from dataclasses import dataclass

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl.integrate import raise_if_stalled
from schwarzian_sl import mhd

# Reference eigenvalues of the finite-interval test problem: the converged
# spectrum of a scaled-Pruefer shooting run with scipy DOP853 at
# rtol = atol = 1e-13 (perfbench/paine_reference.json), rounded to 1e-7.
# Tridiagonal FD with double Richardson extrapolation and phase-function
# shooting agree with it to 1.8e-7 relative or better, and the acceptance
# scan of this solver (rel 1e-9) to 1.4e-8.
PAINE_ORACLE = (
    1.5198658,
    4.9433098,
    10.2846626,
    17.5599577,
    26.7828632,
    37.9644259,
    51.1133578,
    66.2364477,
    83.3389624,
    102.4249884,
    123.4977068,
    146.5596061,
    171.6126449,
    198.6583750,
)

# The published six-figure list for the same problem (tags carried in the
# catalog), as printed: the number of printed decimals sets the "one unit in
# the last printed figure" tolerance of acceptance criterion 4.
PAINE_PUBLISHED_TEXT = (
    "1.51987", "4.94331", "10.2847", "17.5599", "26.7828", "37.9643",
    "51.1131", "66.2361", "83.3385", "102.424", "123.497", "146.558",
    "171.611", "198.657",
)
PAINE_PUBLISHED = tuple(float(text) for text in PAINE_PUBLISHED_TEXT)

# PAINE_ORACLE correctly rounded to the same six figures, trailing zeros
# kept (1.5198658211, 4.9433098221, 10.2846626451, ..., 198.6583750053
# before rounding).
PAINE_CORRECTED_TEXT = (
    "1.51987", "4.94331", "10.2847", "17.5600", "26.7829", "37.9644",
    "51.1134", "66.2364", "83.3390", "102.425", "123.498", "146.560",
    "171.613", "198.658",
)

# Indices n (1-based) at which the published figures sit more than one
# printed unit away from the converged eigenvalue (by 1.2 to 4.6 units), so
# no correct solver can reproduce them: the erratum of the published list.
PAINE_ERRATUM = frozenset({6, 7, 8, 9, 12, 13, 14})


def printed_unit(text):
    """One unit in the last printed figure of a decimal string."""
    return 10.0 ** (-len(text.split(".")[1]))


MORSE_5 = (4.75, 12.75, 18.75, 22.75, 24.75)


@pytest.fixture(scope="session")
def morse_problem():
    return s.morse(5.0)


@pytest.fixture(scope="session")
def harmonic_problem():
    return s.harmonic()


@pytest.fixture(scope="session")
def paine_problem():
    return s.paine()


@pytest.fixture(scope="session")
def cohn_model():
    return s.CohnJetModel(M=1.0, eta=0.01)


@pytest.fixture(scope="session")
def tight_tol():
    return s.Tolerances(rel=1e-10, abs=1e-12)


def assert_close(a, b, tol, label=""):
    a = complex(a)
    b = complex(b)
    assert abs(a - b) <= tol, f"{label}: {a} vs {b} (|diff|={abs(a - b):.3g} > {tol:.3g})"


# Per-point profile accessors of an MhdEquilibrium.  No solve path reads
# the profiles point by point; the tests check the equilibrium with them.
def segment_at(eq, r):
    """The segment holding r: lower-edge inclusive, so a point exactly on an
    interface belongs to the outer segment."""
    for seg in reversed(eq.segments):
        if r >= seg.lo:
            return seg
    return eq.segments[0]


def rho0(eq, r):
    return segment_at(eq, r).rho0


def P0(eq, r):
    return segment_at(eq, r).P0


def V0(eq, r):
    return segment_at(eq, r).V0


def B0z(eq, r):
    return segment_at(eq, r).B0z


def B0phi(eq, r):
    seg = segment_at(eq, r)
    return seg.b_phi_const + seg.b_phi_over_r / r


def equilibrium_residual(eq, r, h=1e-6):
    """Force-balance residual by central differences inside one piece."""

    def total(rr):
        return P0(eq, rr) + 0.5 * B0z(eq, rr) ** 2

    def hoop(rr):
        return 0.5 * (rr * B0phi(eq, rr)) ** 2

    d_total = (total(r + h) - total(r - h)) / (2.0 * h)
    d_hoop = (hoop(r + h) - hoop(r - h)) / (2.0 * h)
    return d_total + d_hoop / r**2


def segment_ratios(seg, gamma, m, k, omega, r):
    """(rf11, rf12, rf21, singular) in one segment, straight from the
    definitions, for scalar or lane-array omega and r: the reference for
    the package's per-leg factored ratios.  ``singular`` marks a vanishing
    continuous-spectrum denominator; the ratios there mean nothing, and an
    exactly zero one raises ZeroDivisionError in a scalar call."""
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


# A y1 body whose dy is the ratios themselves, so a leg built from it gives
# them as the package's own legs compute them, singular rule included; the
# + y4 (0 here) broadcasts the hydrodynamic rf11 = 0.0 over lanes.
RATIOS_BODY = mhd._body("ratios", "y4", "dy = (rf11 + y4, rf12 + y4, rf21 + y4)", "The ratios.")


def ratio_leg(eq, m, k, lo, hi):
    """(leg, params) of `mhd._leg_system` with `RATIOS_BODY`, over radii."""
    return mhd._leg_system(eq, m, k, lo, hi, 3, RATIOS_BODY)


def point_ratios(eq, m, k, omega, r):
    """(rf11, rf12, rf21) of the package's leg at one radius r; raises
    SingularSurface on resonance."""
    leg, params = ratio_leg(eq, m, k, r, r)
    return tuple(leg.rhs(r, (0j,), params(omega)))


def assert_same_leg(a, b):
    """Two trajectories agree bit for bit."""
    assert a.stop_reason is b.stop_reason
    assert (a.x_end, a.y_end) == (b.x_end, b.y_end)
    assert a.xs.tobytes() == b.xs.tobytes() and a.ys.tobytes() == b.ys.tobytes()


def integrate_checkpoints(sys, x0, y0, checkpoints, lam=0j, tol=s.Tolerances()):
    """Chain integration legs so the state is sampled exactly at the
    requested abscissae (which must be strictly monotone away from x0).
    A leg that stalls before its checkpoint raises StepFailure."""
    states = []
    x = x0
    y = tuple(complex(v) for v in y0)
    for target in checkpoints:
        if target != x:
            leg = s.integrate(sys, x, target, y, lam, tol)
            raise_if_stalled(leg)
            x, y = leg.x_end, leg.y_end
        states.append(y)
    return np.asarray(states, dtype=complex)


# Axis limits of the jet's scaled coefficient ratios, extrapolated from two
# near-axis radii.  No solve path uses them; the tests check the near-axis
# structure of the y1 system against them.
class LimitNotConverged(s.SchwarzianSLError):
    """Axis limits failed to extrapolate consistently."""


@dataclass(frozen=True)
class AxisLimits:
    """Extrapolated axis limits of the scaled ratios.

    m != 0: values are d_ij = lim r F_ij/D with the identities
    d22 = -d11 and d11^2 + d12 d21 = m^2; the acceptable on-axis branch is
    1/Y = -(|m| + d11)/d12.

    m == 0: values are the b_ij limits (b11 = lim F11/(rD) etc., but
    b21 = lim r F21/D); the acceptable branch is 1/Y ~ -2/(b12 r^2).
    """

    m: int
    values: dict[str, complex]
    acceptable_inv_y: complex | None = None
    inv_y_coefficient: complex | None = None


def axis_limits(eq, m, k, omega):
    r1, r2 = 1e-4, 5e-5
    a1 = point_ratios(eq, m, k, omega, r1)
    a2 = point_ratios(eq, m, k, omega, r2)

    def richardson(i: int, scale1: float = 1.0, scale2: float = 1.0) -> complex:
        v1 = a1[i] * scale1
        v2 = a2[i] * scale2
        limit = (4.0 * v2 - v1) / 3.0
        if abs(v1 - v2) > 1e-4 * max(1.0, abs(limit)):
            raise LimitNotConverged(
                f"axis limit of ratio {i} not settled: {v1} vs {v2}"
            )
        return limit

    if m != 0:
        d11 = richardson(0)
        d12 = richardson(1)
        d21 = richardson(2)
        values = {"d11": d11, "d12": d12, "d21": d21, "d22": -d11}
        identity = d11 * d11 + d12 * d21
        if abs(identity - m**2) > 1e-6 * max(1.0, abs(m) ** 2):
            raise LimitNotConverged(
                f"d11^2 + d12 d21 = {identity}, expected m^2 = {m ** 2}"
            )
        return AxisLimits(
            m=m,
            values=values,
            acceptable_inv_y=-(abs(m) + d11) / d12,
        )
    b11 = richardson(0, 1.0 / r1**2, 1.0 / r2**2)
    b12 = richardson(1, 1.0 / r1**2, 1.0 / r2**2)
    b21 = richardson(2)
    values = {"b11": b11, "b12": b12, "b21": b21, "b22": -b11}
    return AxisLimits(m=0, values=values, inv_y_coefficient=-2.0 / b12)
