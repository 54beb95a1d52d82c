import cmath
import functools
import math

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl import mhd
from schwarzian_sl.schwarzian import Approach

from conftest import (
    B0phi,
    P0,
    V0,
    assert_close,
    axis_limits,
    equilibrium_residual,
    integrate_checkpoints,
    point_ratios,
    rho0,
    segment_at,
    segment_ratios,
)

K = math.pi
OMEGA = 3.0 + 2.0j


@pytest.fixture(scope="module")
def eq(cohn_model):
    return cohn_model.equilibrium()


# ------------------------------------------------------------ equilibrium


def test_cohn_model_constants(cohn_model):
    assert_close(cohn_model.jet_pressure, 0.6, 1e-12)
    assert_close(cohn_model.field_constant, math.sqrt(2.0 / (5.0 / 3.0)), 1e-12)
    assert abs(cohn_model.field_constant - 1.0954) < 1e-4


def test_cohn_profiles(eq):
    assert rho0(eq, 0.5) == 1.0 and rho0(eq, 3.0) == 0.01
    assert P0(eq, 0.5) == 0.6 and P0(eq, 3.0) == 0.0
    assert V0(eq, 0.5) == 1.0 and V0(eq, 3.0) == 0.0
    # interior sound speed is 1 in jet units
    assert_close(math.sqrt(eq.gamma * P0(eq, 0.5) / rho0(eq, 0.5)), 1.0, 1e-12)
    # the interface point belongs to the outer segment
    assert segment_at(eq, 1.0).rho0 == 0.01
    assert eq.interfaces == (1.0,)


def test_equilibrium_residual_on_smooth_pieces(eq):
    for r in (0.1, 0.5, 0.9, 1.5, 3.0, 8.0):
        assert abs(equilibrium_residual(eq, r)) <= 1e-10


def test_equilibrium_json_round_trip(eq):
    doc = eq.to_dict()
    rebuilt = s.MhdEquilibrium.from_dict(doc)
    assert rebuilt == eq
    assert B0phi(rebuilt, 2.0) == B0phi(eq, 2.0)


# ------------------------------------------------------ coefficient ratios


def test_interior_ratios_unmagnetized(eq):
    # B0 = 0, rho0 = 1, c_s = 1, V0 = M: the ratios collapse to
    # rf11 = 0, rf12 = kt^2 r^2 / w0^2, rf21 = -w0^2,
    # kt^2 = w0^2 - k^2 - m^2/r^2
    m, r = 1, 0.5
    w0 = OMEGA - K * 1.0
    rf11, rf12, rf21 = point_ratios(eq, m, K, OMEGA, r)
    kt_sq = w0 * w0 - K * K - m * m / (r * r)
    assert rf11 == 0j
    assert_close(rf12, kt_sq * r * r / (w0 * w0), 1e-12, "rf12")
    assert_close(rf21, -w0 * w0, 1e-12, "rf21")


def test_exterior_ratios_cold_limit(eq, cohn_model):
    # cold magnetized exterior: kt^2 = rho w^2 / B^2 - k^2 - m^2/r^2
    m, r = 0, 2.0
    bphi = cohn_model.field_constant / r
    rf11, rf12, rf21 = point_ratios(eq, m, K, OMEGA, r)
    kt_sq = 0.01 * OMEGA * OMEGA / (bphi * bphi) - K * K
    delta = 0.01 * OMEGA * OMEGA
    assert_close(rf12, kt_sq * r * r / delta, 1e-12, "rf12 cold")
    assert_close(
        rf11, -bphi * bphi * (kt_sq + 2 * K * K) / delta, 1e-12, "rf11 cold"
    )
    assert_close(
        rf21,
        -(delta + (bphi**4 / (r * r)) * kt_sq / delta),
        1e-12,
        "rf21 cold",
    )


def test_f22_is_minus_f11(eq):
    # the trace (F11 + F22)/D vanishes, so at Y4 = 0 the g system's Y3' is
    # (F22 - F11)/2D = -F11/D = -rf11/r
    rng = np.random.default_rng(11)
    state = (0j, 0.1 + 0.2j, 0j)
    for _ in range(20):
        r = float(rng.uniform(0.05, 6.0))
        m = int(rng.integers(-2, 3))
        w = complex(rng.uniform(0.5, 6), rng.uniform(0.1, 4))
        rf11, _, _ = point_ratios(eq, m, K, w, r)
        d = s.y1_system(eq, m, K, Approach.G).rhs(r, state, w)
        assert_close(d[1], -rf11 / r, 1e-14 * max(1.0, abs(rf11 / r)))


def test_singular_surface_raises(eq):
    # interior flow resonance: omega = k V0 makes rho w_co^2 vanish
    with pytest.raises(s.SingularSurface):
        point_ratios(eq, 0, K, complex(K), 0.5)


# ----------------------------------------------------------- Y Riccati


def test_y_riccati_rhs_at_zero(eq):
    _, rf12, _ = point_ratios(eq, 0, K, OMEGA, 0.5)
    (value,) = s.y_riccati_system(eq, 0, K).rhs(0.5, (0j,), OMEGA)
    assert_close(value, -rf12 / 0.5, 1e-14)


def test_y_riccati_fixed_point(eq):
    # interior has F11 = F22, so dY/dr = 0 at Y^2 = (F12/D)/(F21/D)
    _, rf12, rf21 = point_ratios(eq, 0, K, OMEGA, 0.5)
    y_fp = cmath.sqrt(rf12 / rf21)
    (value,) = s.y_riccati_system(eq, 0, K).rhs(0.5, (y_fp,), OMEGA)
    assert abs(value) < 1e-12


def _bessel_j0_j1(z, terms=6):
    # truncated ascending series, plenty for |z| ~ 0.1
    j0 = 0j
    j1 = 0j
    for n in range(terms):
        c0 = (-1) ** n / (math.factorial(n) ** 2)
        j0 += c0 * (z / 2) ** (2 * n)
        c1 = (-1) ** n / (math.factorial(n) * math.factorial(n + 1))
        j1 += c1 * (z / 2) ** (2 * n + 1)
    return j0, j1


def test_y_riccati_against_bessel_series(eq):
    # the regular interior solution is Y = -(lam r / (rho w0^2)) J1 / J0
    # with lam^2 = w0^2 - k^2; verify the ODE residual with the series
    w0 = OMEGA - K
    lam = cmath.sqrt(w0 * w0 - K * K)
    rho_w0sq = w0 * w0

    def Y(r):
        j0, j1 = _bessel_j0_j1(lam * r)
        return -(lam * r / rho_w0sq) * j1 / j0

    r = abs(0.1 / lam)
    # dY/dr from the series: d/dr J0 = -lam J1, d/dr J1 = lam J0 - J1/r
    j0, j1 = _bessel_j0_j1(lam * r)
    dj0 = -lam * j1
    dj1 = lam * j0 - j1 / r
    dY = -(lam / rho_w0sq) * (j1 / j0 + r * (dj1 * j0 - j1 * dj0) / (j0 * j0))
    (rhs,) = s.y_riccati_system(eq, 0, K).rhs(r, (Y(r),), OMEGA)
    residual = dY - rhs
    assert abs(residual) < 1e-10


# ----------------------------------------------------- Schwarzian systems


def test_y1_phi_decay_manifold(eq):
    ratios = point_ratios(eq, 0, K, OMEGA, 0.7)
    d = s.y1_phi_system_rhs(0.7, (0.3 + 0.1j, 0j, 1 + 0j), *ratios)
    assert d[1] == 0j


def test_y1_g_pure_drift_when_f12_zero():
    # F12 = 0: Y3' reduces to (F22-F11)/2D and g1 stops moving
    r = 0.5
    rf11 = 0.5 + 0.1j
    rf22 = -rf11
    d = s.y1_g_system_rhs(r, (0.2 + 0j, 0.1 + 0j, 0j), rf11, 0j, 1 + 0j)
    assert d[2] == 0j
    assert_close(d[1], (rf22 - rf11) / (2 * r), 1e-14)


def test_near_axis_m0_log_behavior(eq):
    # Y4 ~ -b21 ln r and Phi1 - Phi1_axis ~ C0 r^2 near the axis
    tol = s.Tolerances(rel=1e-10, abs=1e-12)
    sysphi = s.y1_system(eq, 0, K, Approach.PHI)
    states = integrate_checkpoints(
        sysphi, 0.9, (0j, 1 + 0j, 0j), [1e-3, 5e-4, 2.5e-4], OMEGA, tol
    )
    limits = axis_limits(eq, 0, K, OMEGA)
    b21 = limits.values["b21"]
    slope = (states[0][0] - states[1][0]) / (math.log(1e-3) - math.log(5e-4))
    assert abs(slope - (-b21)) < 0.02 * abs(b21)
    d_phi_1 = states[0][2] - states[2][2]
    d_phi_2 = states[1][2] - states[2][2]
    # quadratic convergence of Phi1 toward its axis value
    ratio = abs(d_phi_1 - d_phi_2) / abs(d_phi_2)
    assert 2.0 < ratio < 4.5


def test_near_axis_m_nonzero_attractor(eq):
    # generic integration lands on Y4 -> (|m| - d11)/d12
    m = 1
    tol = s.Tolerances(rel=1e-10, abs=1e-12)
    limits = axis_limits(eq, m, K, OMEGA)
    d11, d12 = limits.values["d11"], limits.values["d12"]
    sysphi = s.y1_system(eq, m, K, Approach.PHI)
    states = integrate_checkpoints(
        sysphi, 0.9, (0j, 1 + 0j, 0j), [1e-3, 1e-4], OMEGA, tol
    )
    expected = (abs(m) - d11) / d12
    assert abs(states[-1][0] - expected) < 1e-3 * max(1.0, abs(expected))


# -------------------------------------------------------------- axis limits


def test_axis_limits_identities(eq):
    rng = np.random.default_rng(5)
    for _ in range(3):
        w = complex(rng.uniform(1, 5), rng.uniform(0.5, 3))
        for m in (1, 2):
            limits = axis_limits(eq, m, K, w)
            v = limits.values
            assert v["d22"] == -v["d11"]
            assert abs(v["d11"] ** 2 + v["d12"] * v["d21"] - m * m) < 1e-6
            assert limits.acceptable_inv_y is not None


def test_axis_limits_m0(eq):
    limits = axis_limits(eq, 0, K, OMEGA)
    for key in ("b11", "b12", "b21", "b22"):
        value = limits.values[key]
        assert value == value  # finite, not NaN
    w0 = OMEGA - K
    assert_close(limits.values["b21"], -(w0 * w0), 1e-8, "b21 = lim r F21/D")
    assert limits.inv_y_coefficient is not None


# -------------------------------------------------------- jet quantization


def test_jet_quantization_small_at_root(cohn_model):
    qf = s.JetQuantizationFunction(cohn_model, 0, K)
    near = qf(3.08 + 1.97j)
    far = qf(10.0 + 10.0j)
    assert abs(near) < 0.01
    assert abs(far) > 10 * abs(near)


def test_jet_quantization_stall_is_a_failed_sample(cohn_model, monkeypatch):
    # legs that run out of steps raise StepFailure, and a web maps that to
    # failed samples rather than to Psi of the stalled state
    stalling = functools.partial(s.Tolerances, max_steps=3)
    monkeypatch.setattr(mhd, "Tolerances", stalling)
    qf = s.JetQuantizationFunction(cohn_model, 0, K)
    with pytest.raises(s.StepFailure):
        qf(3.08 + 1.97j)
    web = s.spectral_web(qf, (2.0, 4.0, 1.0, 3.0), 8, 8)
    assert len(web.failures) == 64
    assert {kind for _, kind in web.failures} == {"StepFailure"}
    assert web.charges == []


def test_jet_quantization_phi_and_g_roots_coincide(cohn_model):
    qf_g = s.JetQuantizationFunction(cohn_model, 0, K, Approach.G)
    qf_p = s.JetQuantizationFunction(cohn_model, 0, K, Approach.PHI)
    root_g = s.refine_complex_root(qf_g, 3.0 + 2.0j, tol=1e-10)
    root_p = s.refine_complex_root(qf_p, 3.0 + 2.0j, tol=1e-10)
    assert abs(root_g - root_p) < 1e-6


@pytest.mark.parametrize("k, seed", [(0.5, 0.476 + 0.560j), (K, 3.08 + 1.97j),
                                     (8.0, 7.90 + 3.22j)])
def test_jet_root_integration_error(cohn_model, k, seed):
    # the jet root at the web (rel 1e-6) and dispersion (rel 1e-8) tolerances
    # against a converged (rel 1e-12) solve of the same model and cuts
    def root(rel):
        qf = s.JetQuantizationFunction(cohn_model, 0, k, rel_tol=rel, abs_tol=rel / 100)
        return s.refine_complex_root(qf, seed, tol=1e-12)

    converged = root(1e-12)
    for rel, bound in ((1e-8, 2e-10), (1e-6, 2e-8)):
        assert abs(root(rel) - converged) <= bound * abs(converged)


def test_phi_and_g_webs_same_root_charge(cohn_model):
    # the webs themselves differ (poles move with the formulation and the
    # launch) but their +1 charges coincide within one cell
    qf_g = s.JetQuantizationFunction(cohn_model, 0, K, Approach.G,
                                     rel_tol=1e-6, abs_tol=1e-9)
    qf_p = s.JetQuantizationFunction(cohn_model, 0, K, Approach.PHI,
                                     rel_tol=1e-6, abs_tol=1e-9)
    web_g = s.spectral_web(qf_g, (2.0, 4.0, 1.0, 3.0), 16, 16)
    web_p = s.spectral_web(qf_p, (2.0, 4.0, 1.0, 3.0), 16, 16)
    (root_g,) = [c for c in web_g.charges if c.winding > 0]
    (root_p,) = [c for c in web_p.charges if c.winding > 0]
    assert abs(root_g.location - root_p.location) <= max(web_g.cell_size)


@pytest.mark.parametrize(
    "approach, m, launch",
    [
        (Approach.G, 0, (0.1 + 0.2j, -0.1j, 0.3 + 0j)),
        (Approach.PHI, 1, (0.1 + 0.2j, 1 - 0.1j, 0.3 + 0j)),
    ],
)
def test_jet_lanes_match_scalar_calls(cohn_model, approach, m, launch):
    qf = s.JetQuantizationFunction(cohn_model, m, K, approach, launch=launch,
                                   cuts=(0.02, 8.0), rel_tol=1e-6, abs_tol=1e-9)
    omegas = np.linspace(2.0, 4.0, 4)[:, None] + 1j * np.linspace(0.5, 2.5, 3)
    values, kinds = qf.lanes(omegas.ravel())
    assert kinds == [None] * omegas.size
    for w, value in zip(omegas.ravel().tolist(), values.tolist()):
        want = qf(w)
        assert abs(value - want) <= 1e-12 * abs(want)


def test_jet_lanes_fail_where_scalar_calls_fail(cohn_model):
    # omega = kM = pi lies on this 9x9 grid (a singular surface), and at two
    # real omegas the outward leg stalls at a pole of Y4
    qf = s.JetQuantizationFunction(cohn_model, 0, K)
    region = (K - 1.0, K + 1.0, 0.0, 1.0)
    lanes = s.spectral_web(qf, region, 9, 9)
    scalar = s.spectral_web(lambda w: qf(w), region, 9, 9)
    assert lanes.failures == scalar.failures
    assert sorted(kind for _, kind in lanes.failures) == [
        "SingularSurface", "StepFailure", "StepFailure"]
    assert np.array_equal(np.isnan(lanes.psi), np.isnan(scalar.psi))
    assert lanes.charges == scalar.charges


def test_jet_lanes_name_the_error_scalar_calls_raise(cohn_model, monkeypatch):
    # with 3 steps per leg every leg stalls, but a leg that meets a singular
    # surface raises that first: at omega = kM = pi the inward leg (flow
    # resonance), at omega = 0 the outward one, after the inward leg stalled
    monkeypatch.setattr(mhd, "Tolerances", functools.partial(s.Tolerances, max_steps=3))
    qf = s.JetQuantizationFunction(cohn_model, 0, K)
    region = (-K, K, 0.0, 1.0)
    lanes = s.spectral_web(qf, region, 9, 9)
    scalar = s.spectral_web(lambda w: qf(w), region, 9, 9)
    assert lanes.failures == scalar.failures
    assert len(lanes.failures) == 81
    singular = [w for w, kind in lanes.failures if kind != "StepFailure"]
    assert singular == [0j, complex(K)]


@pytest.mark.parametrize("store_path", [True, False])
def test_jet_trajectories_return_radii(eq, store_path):
    # the legs run in s = ln r; their abscissae come back as radii, from the
    # launch (nudged inside the interface for the inward leg) to the cuts
    inward, outward = s.jet_trajectories(eq, 0, K, OMEGA, store_path=store_path)
    assert inward.xs[0] == 1.0 - 1e-9 and outward.xs[0] == 1.0
    assert np.all(np.diff(inward.xs) < 0.0) and np.all(np.diff(outward.xs) > 0.0)
    assert inward.xs[-1] == inward.x_end == mhd.DEFAULT_CUTS[0]
    assert outward.xs[-1] == outward.x_end == mhd.DEFAULT_CUTS[1]
    assert len(inward.xs) > 2 if store_path else len(inward.xs) == 2


def test_jet_inward_leg_attempts(cohn_model, monkeypatch):
    # toward the axis a step in r must shrink like r, a step in ln r need
    # not: one evaluation at k = pi made 34 inward DOP853 attempts in r
    calls = {}
    integrate = mhd.integrate

    def counting(sys, x0, x1, *args, **kwargs):
        leg = "inward" if x1 < x0 else "outward"

        def rhs(x, y, f):
            calls[leg] = calls.get(leg, 0) + 1
            return sys.rhs(x, y, f)

        return integrate(s.OdeSystem(sys.dimension, rhs), x0, x1, *args, **kwargs)

    monkeypatch.setattr(mhd, "integrate", counting)
    s.JetQuantizationFunction(cohn_model, 0, K)(3.08 + 1.97j)
    # the launch rhs, the first-step probe, then 12 calls per attempt
    assert (calls["inward"] - 2) / 12 <= 20


@pytest.mark.parametrize("cuts", [(2.0, 10.0), (1.0, 10.0), (0.0, 10.0), (0.01, 1.0)])
def test_jet_cuts_must_bracket_the_jet_radius(cohn_model, cuts):
    with pytest.raises(ValueError, match="cuts"):
        s.JetQuantizationFunction(cohn_model, 0, K, cuts=cuts)


@pytest.mark.parametrize("workers", [2, 3])
def test_web_psi_is_independent_of_workers(cohn_model, workers):
    qf = s.JetQuantizationFunction(cohn_model, 0, K, rel_tol=1e-6, abs_tol=1e-9)
    one = s.spectral_web(qf, (2.0, 4.0, 1.0, 3.0), 12, 12, workers=1)
    split = s.spectral_web(qf, (2.0, 4.0, 1.0, 3.0), 12, 12, workers=workers)
    assert np.array_equal(one.psi, split.psi)
    assert one.charges == split.charges


def test_g1_derivative_decays_at_cuts(eigen_run):
    # the quantization variable freezes toward both cuts; outward the
    # quench is exponential (e^{-2 Y3}), while at an m=0 axis g1' only
    # falls off linearly in r, so the inner bound is correspondingly looser
    trajectories, _, _ = eigen_run
    inward, outward = trajectories
    dg_in = np.abs(np.diff(inward.ys[:, 2]) / np.diff(inward.xs))
    dg_out = np.abs(np.diff(outward.ys[:, 2]) / np.diff(outward.xs))
    scale = max(np.max(dg_in), np.max(dg_out))
    assert dg_out[-1] < 1e-6 * scale
    assert dg_in[-1] < 2e-5 * scale


def test_y_riccati_matches_schwarzian_reconstruction(eq):
    # direct Riccati Y against 1/Y rebuilt from the g system
    tol = s.Tolerances(rel=1e-8, abs=1e-10)
    checks = [1.5, 2.0, 3.0, 4.0]
    c = 1.0 + 0j

    def inv_y(state):
        return state[0] - cmath.exp(-2 * state[1]) / (state[2] + c)

    g_states = integrate_checkpoints(
        s.y1_system(eq, 0, K, Approach.G), 1.0, (0j, 0j, 0j), checks, OMEGA, tol
    )
    y0 = 1.0 / inv_y((0j, 0j, 0j))
    y_states = integrate_checkpoints(
        s.y_riccati_system(eq, 0, K), 1.0, (y0,), checks, OMEGA, tol
    )
    for i in range(len(checks)):
        y_direct = y_states[i][0]
        y_rebuilt = 1.0 / inv_y(g_states[i])
        assert abs(y_direct - y_rebuilt) <= 10 * (
            1e-8 * max(1.0, abs(y_direct)) + 1e-10
        )


# ------------------------------------------------------- eigenfunctions


@pytest.fixture(scope="module")
def eigen_run(eq, cohn_model):
    qf = s.JetQuantizationFunction(
        cohn_model, 0, K, Approach.G, rel_tol=1e-10, abs_tol=1e-12
    )
    root = s.refine_complex_root(qf, 3.08 + 1.97j, tol=1e-12)
    trajectories = s.jet_trajectories(
        eq, 0, K, root, Approach.G,
        tol=s.Tolerances(rel=1e-10, abs=1e-12),
    )
    constant = -trajectories[0].y_end[2]
    return trajectories, constant, root


def test_eigenfunction_y_continuous_at_interface(eigen_run):
    trajectories, constant, _ = eigen_run
    samples = s.eigenfunctions_y(trajectories, constant, Approach.G)
    idx = np.searchsorted(samples.rs, 1.0)
    inner = samples.Y[max(idx - 1, 0)]
    outer = samples.Y[min(idx + 1, len(samples.rs) - 1)]
    assert abs(inner - outer) < 0.05 * max(1.0, abs(inner))


def test_eigenfunction_constants_at_cuts(eigen_run):
    trajectories, constant, _ = eigen_run
    samples = s.eigenfunctions_y(trajectories, constant, Approach.G)
    active = np.abs(samples.y1[(samples.rs > 0.3) & (samples.rs < 3.0)])
    scale = float(np.max(active))
    # axis side: y1 approaches 0 (the constant fixed by C = -g1_axis)
    left = samples.y1[samples.rs < 0.02]
    assert abs(left[0]) < 1e-3 * scale
    assert np.max(np.abs(np.diff(left))) < 1e-3 * scale
    # outward: the eigenfunction has stopped varying once e^{-2 Y3} is
    # negligible; past that the samples sit at small, settled values.
    # (Beyond r ~ 6 the factor e^{+Re Y3} amplifies the 1e-12 eigenvalue
    # noise floor above the eigenfunction scale, so the settled window
    # [4, 6] is where the statement is numerically meaningful.)
    outer = samples.y1[(samples.rs > 4.0) & (samples.rs < 6.0)]
    assert np.max(np.abs(outer)) < 0.01 * scale
    assert np.max(np.abs(np.diff(outer))) < 0.005 * scale


def test_eigenfunction_scaling_leaves_Y(eigen_run):
    trajectories, constant, _ = eigen_run
    samples = s.eigenfunctions_y(trajectories, constant, Approach.G)
    scale = 2.3 - 1.1j
    ratio = (scale * samples.y1) / (scale * samples.y2)
    assert np.allclose(ratio, samples.Y)


def _segment_lanes(eq, m, k, r, omega):
    """(rf11, rf12, rf21, singular) of `mhd._leg_ratios` for the lanes
    (r, omega), the lanes of each segment through one leg inside it."""
    out = np.empty((4, r.size), dtype=complex)
    segment = np.searchsorted(eq.interfaces, r, side="right")
    for i in np.unique(segment):
        sel = segment == i
        params, leg_ratios = mhd._leg_ratios(eq, m, k, r[sel].min(), r[sel].max())
        for row, value in zip(out, leg_ratios(r[sel], *params(omega[sel]))):
            row[sel] = value
    return out[0], out[1], out[2], out[3].real != 0.0


def test_lane_ratios_match_scalar_across_segments(eq):
    # lanes on both sides of the interface, each side through a leg inside
    # its segment, and one on the flow resonance omega = kM inside the jet,
    # which only marks its own lane
    rng = np.random.default_rng(3)
    r = np.concatenate([[1.0, 0.5], rng.uniform(0.05, 6.0, 30)])
    omega = rng.uniform(1.0, 5.0, r.size) + 1j * rng.uniform(0.5, 3.0, r.size)
    omega[1] = K
    with np.errstate(divide="ignore", invalid="ignore"):  # the singular lane
        *ratios, singular = _segment_lanes(eq, 1, K, r, omega)
    assert singular.tolist() == [False, True] + [False] * 30
    with pytest.raises(s.SingularSurface):
        point_ratios(eq, 1, K, complex(omega[1]), 0.5)
    for j in [0] + list(range(2, r.size)):
        want = point_ratios(eq, 1, K, complex(omega[j]), float(r[j]))
        for got, value in zip(ratios, want):
            assert abs(got[j] - value) <= 1e-13 * abs(value)



def test_lane_leg_across_an_interface_is_refused(eq):
    # a lane leg lies in one segment; one omega may cross the interface,
    # each radius taking the factors of its own segment
    params, leg_ratios = mhd._leg_ratios(eq, 0, K, 0.05, 6.0)
    with pytest.raises(ValueError, match="one segment"):
        params(np.array([OMEGA, OMEGA + 1]))
    for r in (0.5, 1.0, 3.0):
        *got, singular = leg_ratios(r, *params(OMEGA))
        assert not singular
        assert got == list(point_ratios(eq, 0, K, OMEGA, r))

# A hydrodynamic core, a warm magnetized layer with every field term set, and
# a cold envelope with B0phi = I/r: one segment of each form.  Only the
# algebra of the ratios is checked, so the profiles need not balance.
MIXED = s.MhdEquilibrium.from_dict({"gamma": 5.0 / 3.0, "segments": [
    {"lo": 0, "hi": 1, "rho0": 1.0, "P0": 0.6, "V0": 1.0},
    {"lo": 1, "hi": 2, "rho0": 0.5, "P0": 0.3, "V0": 0.4,
     "B0z": 0.7, "b_phi_const": 0.4, "b_phi_over_r": 0.3},
    {"lo": 2, "hi": "inf", "rho0": 0.25, "P0": 0.0, "b_phi_over_r": 1.0},
]})


def _direct(eq, m, k, omega, r):
    """The reference ratios at r, or None where they are singular."""
    try:
        *ratios, singular = segment_ratios(segment_at(eq, r), eq.gamma, m, k, omega, r)
    except ZeroDivisionError:
        return None
    return None if singular else ratios


def _factored(eq, m, k, omega, r):
    try:
        return point_ratios(eq, m, k, omega, r)
    except s.SingularSurface:
        return None


@pytest.mark.parametrize("which", ["cohn", "mixed"])
def test_factored_ratios_match_direct_formula(eq, which):
    # scalar calls, and lanes in every segment, each through a leg inside it
    equilibrium = eq if which == "cohn" else MIXED
    rng = np.random.default_rng(17)
    for m in range(-2, 3):
        r = rng.uniform(0.05, 6.0, 40)
        omega = rng.uniform(-5.0, 5.0, r.size) + 1j * rng.uniform(-3.0, 3.0, r.size)
        *lanes, singular = _segment_lanes(equilibrium, m, K, r, omega)
        assert not singular.any()
        for j in range(r.size):
            want = _direct(equilibrium, m, K, omega[j], r[j])
            got = _factored(equilibrium, m, K, complex(omega[j]), float(r[j]))
            for a, b, c in zip(want, got, lanes):
                assert abs(b - a) <= 1e-12 * abs(a)
                assert abs(c[j] - a) <= 1e-12 * abs(a)


@pytest.mark.parametrize("which, m, omega, r", [
    ("cohn", 0, complex(K), 0.5),  # flow resonance omega = k V0 in the jet
    ("cohn", 2, complex(K), 0.5),
    ("cohn", 0, 0j, 2.0),  # omega = 0 in the static envelope
    ("mixed", 1, 0.5 + 0j, 2.0),  # Alfven radius: rho omega^2 = (m I / r^2)^2
    ("cohn", 0, OMEGA, 0.0),  # the axis
    ("cohn", 1, OMEGA, 0.0),
])
def test_factored_ratios_singular_where_direct_formula_is(eq, which, m, omega, r):
    equilibrium = eq if which == "cohn" else MIXED
    assert _direct(equilibrium, m, K, omega, r) is None
    assert _factored(equilibrium, m, K, omega, r) is None
    params, leg_ratios = mhd._leg_ratios(equilibrium, m, K, r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        *_, singular = leg_ratios(np.array([r]), *params(np.array([omega])))
    assert singular.tolist() == [True]
    # a nudge off the surface is regular again
    assert _factored(equilibrium, m, K, omega + 1e-3j, r + 1e-3) is not None
