import cmath
import math

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl.schwarzian import Approach, branch_tracked_sqrt, decay_event

from conftest import assert_close, integrate_checkpoints

INF = complex(float("inf"), 0.0)


def const_q_problem(q_value):
    return s.SLProblem(
        coefficients=s.Coefficients(
            p=lambda x, e: 1 + 0j, q=lambda x, e: q_value, p_prime=lambda x, e: 0j
        ),
        domain=s.Domain(-math.inf, math.inf, 0.0, -30.0, 30.0),
        boundaries=(s.BoundarySpec.quantization(), s.BoundarySpec.quantization()),
    )


# ---------------------------------------------------------------- g system


def test_g_system_rhs_matches_oscillator_particular_solution():
    # F_p = -k tan(kx), e^{-2 Lam} = 1/cos^2(kx), g = tan(kx)/k solves the
    # system for p = 1, q = k^2; compare against the analytic derivatives
    k = 0.7 + 0.3j
    problem = const_q_problem(k * k)
    x = 0.4
    state = (
        -k * cmath.tan(k * x),
        cmath.log(cmath.cos(k * x)),
        cmath.tan(k * x) / k,
    )
    d = s.g_system(problem).rhs(x, state, 0j)
    sec2 = 1.0 / cmath.cos(k * x) ** 2
    assert_close(d[0], -k * k * sec2, 1e-12, "F_p'")
    assert_close(d[1], -k * cmath.tan(k * x), 1e-12, "Lam'")
    assert_close(d[2], sec2, 1e-12, "g'")


def test_g_system_rhs_trivial_states():
    d = s.g_system(const_q_problem(0j)).rhs(0.0, (0j, 0j, 0j), 0j)
    assert d == (0j, 0j, 1 + 0j)
    d = s.g_system(const_q_problem(-1 + 0j)).rhs(0.0, (1 + 0j, 0j, 1 + 0j), 0j)
    assert d == (0j, 1 + 0j, 1 + 0j)


# -------------------------------------------------------------- phi system


def test_phi_system_rhs_constant_amplitude():
    k = 2.0
    d = s.phi_system(const_q_problem(k * k + 0j)).rhs(0.0, (0j, k + 0j, 0j), 0j)
    assert d == (0j, 0j, 2 * k + 0j)


def test_phi_system_rhs_decay_manifold_invariant(morse_problem):
    d = s.phi_system(morse_problem).rhs(1.3, (0.7 + 0.2j, 0j, 5 + 0j), 18.75)
    assert d[1] == 0j


def test_phi_system_rhs_morse_launch(morse_problem):
    f2 = math.sqrt(18.75)
    d = s.phi_system(morse_problem).rhs(0.0, (0j, f2 + 0j, 0j), 18.75)
    assert_close(d[0], 0.0, 1e-12, "F1' = q - q")
    assert_close(d[1], 0.0, 1e-12, "F2'")
    assert_close(d[2], 2 * f2, 1e-12, "Phi'")


def test_default_initial_state(morse_problem, harmonic_problem):
    st = s.default_initial_state(morse_problem, 0.0, 18.75)
    assert_close(st.F1, 0.0, 1e-9)
    assert_close(st.F2, math.sqrt(18.75), 1e-9)
    assert st.Phi == 0j
    st = s.default_initial_state(harmonic_problem, 0.0, 2.5)
    assert_close(st.F2, math.sqrt(5.0), 1e-9)


def test_default_initial_state_degenerate():
    with pytest.raises(s.DegenerateLaunch):
        s.default_initial_state(const_q_problem(0j), 0.0, 0j)


def test_default_g_initial_state(morse_problem):
    st = s.default_g_initial_state(morse_problem, 0.0, 18.75)
    assert_close(st.F_p, 1j * math.sqrt(18.75), 1e-12)
    assert st.Lam == 0j and st.g == 0j


# ------------------------------------------------- constants and rebuild


def test_solve_constant_oscillator_far_end():
    # the particular solution F_p = -k tan(kx) launches as (0, 0, 0) and
    # has g -> i/kappa, so the boundary value F = i kappa fixes
    # C2/C1 = -i/kappa
    kappa = 1 + 1j
    problem = const_q_problem(kappa * kappa)
    tr = s.integrate(
        s.g_system(problem),
        0.0,
        30.0,
        (0j, 0j, 0j),
        0j,
        s.Tolerances(rel=1e-12, abs=1e-14),
    )
    c = s.solve_constant_from_bc(tr.y_end, 1j * kappa, Approach.G)
    assert_close(c, -1j / kappa, 1e-10, "C2/C1 = -i/kappa")


def test_solve_constant_phi_unit_cot():
    state = (0.5 + 0j, 2 + 0j, 0.3 + 0j)
    c = s.solve_constant_from_bc(state, state[0] + state[1], Approach.PHI)
    assert_close(c, math.pi / 2 - 0.3, 1e-12, "cot((Phi+C)/2) = 1")


def test_solve_constant_degenerate():
    state = (1 + 1j, 0j, 0j)
    with pytest.raises(s.DegenerateBoundary):
        s.solve_constant_from_bc(state, 1 + 1j, Approach.G)


def test_reconstruct_exact_singular_limit():
    state = (0.4 - 0.2j, 0.1 + 0j, 2 + 1j)
    assert s.reconstruct_F(state, -state[2], Approach.G) == -state[0]
    phi_state = (0.4 - 0.2j, 0.3 + 0j, 2 + 1j)
    assert s.reconstruct_F(phi_state, -phi_state[2], Approach.PHI) == -phi_state[0]


@pytest.mark.parametrize("kappa", [1j, 1 + 1j, 2 + 0.5j])
def test_nondiverging_branch_selection(kappa):
    # any generic launch reconstructs to the decaying branch F = i kappa
    problem = s.const_oscillator(kappa)
    tol = s.Tolerances(rel=1e-11, abs=1e-13)
    for launch in [(0j, 0j, 0j), (0.3 + 0.2j, 0j, 0j), (-0.4j, 0.1 + 0j, 0.2 + 0.1j)]:
        tr = s.integrate(s.g_system(problem), 0.0, 30.0, launch, 0j, tol)
        c = s.solve_constant_from_bc(tr.y_end, INF, Approach.G)
        F = s.reconstruct_F(tr.y_end, c, Approach.G)
        assert_close(F, 1j * kappa, 1e-8, f"launch {launch}")


def test_reconstruct_with_exact_asymptotic_constant():
    # the particular solution has g(inf) = i/kappa; handing reconstruct_F
    # the exact constant -i/kappa selects the decaying branch F = i kappa
    kappa = 1 + 1j
    problem = const_q_problem(kappa * kappa)
    tr = s.integrate(
        s.g_system(problem),
        0.0,
        30.0,
        (0j, 0j, 0j),
        0j,
        s.Tolerances(rel=1e-12, abs=1e-14),
    )
    F = s.reconstruct_F(tr.y_end, -1j / kappa, Approach.G)
    assert_close(F, 1j * kappa, 1e-8, "F = i kappa at the far end")


def test_phi_approach_oscillator_asymptotic_rebuild():
    # with C from the far end, interior asymptotic points rebuild F = i kappa
    kappa = 1j
    problem = s.const_oscillator(kappa)
    tol = s.Tolerances(rel=1e-11, abs=1e-13)
    launch = (0j, 0.7 + 0j, 0j)
    tr = s.integrate(s.phi_system(problem), 0.0, 30.0, launch, 0j, tol)
    c = s.solve_constant_from_bc(tr.y_end, INF, Approach.PHI)
    for x_target in (15.0, 18.0):
        idx = int(np.searchsorted(tr.xs, x_target))
        F = s.reconstruct_F(tuple(tr.ys[idx]), c, Approach.PHI)
        assert_close(F, 1j * kappa, 1e-8, f"x={tr.xs[idx]}")


# ------------------------------------------------------------ quantization


def test_morse_phi_winding_at_eigenvalue(morse_problem):
    low, high, value = s.solve_asymptotic(morse_problem, 18.75, Approach.PHI)
    # bound state n = 2 shows up as winding 3 (offset convention n+1)
    assert abs(value.real - 3.0) < 1e-3
    assert abs(value.imag) < 1e-6


def test_morse_g_difference_at_eigenvalue(morse_problem):
    value = s.g_difference_value(morse_problem, 18.75)
    scale = 1.0  # g stays O(1) along the run
    assert abs(value) < 1e-6 * scale


def test_quantization_requires_asymptotic_ends(paine_problem):
    for approach in (Approach.PHI, Approach.G):
        with pytest.raises(s.NotAsymptotic):
            s.solve_asymptotic(paine_problem, 12.0, approach)


def test_stalled_leg_raises_step_failure(morse_problem):
    # a leg that stops before its cut or decay event carries no asymptotic
    # value, so the quantization must not be read from it
    tol = s.Tolerances(max_steps=3)
    for approach in (Approach.PHI, Approach.G):
        with pytest.raises(s.StepFailure):
            s.solve_asymptotic(morse_problem, 18.75, approach, tol)
    with pytest.raises(s.StepFailure):
        s.phi_winding_value(morse_problem, 18.75, tol)


def test_decay_event_reaches_threshold(morse_problem):
    launch = s.default_initial_state(morse_problem, 0.0, 18.75)
    low, high, _ = s.solve_asymptotic(morse_problem, 18.75, Approach.PHI)
    assert abs(high.y_end[1]) <= 1e-8 * abs(launch.F2)
    assert abs(low.y_end[1]) <= 1e-8 * abs(launch.F2)


@pytest.mark.parametrize("name,lams,tol", [
    ("morse", np.linspace(0.0, 25.0, 11), s.Tolerances()),
    ("harmonic", np.linspace(0.0, 6.0, 9), s.Tolerances()),
    ("morse", np.array([4.75, 18.75]), s.Tolerances(max_steps=3)),
])
def test_asymptotic_winding_lanes_match_calls(name, lams, tol, request):
    # the lane grid gives the scalar winding per lam, events included, and
    # fails where the scalar call raises, under the same name: lam = 0 is a
    # zero gauge launch for both problems, and 3 steps stall every leg
    winding = s.AsymptoticWinding(request.getfixturevalue(f"{name}_problem"), tol)
    values, kinds = winding.lanes(lams + 0j)
    for lam, value, kind in zip(lams.tolist(), values.tolist(), kinds):
        try:
            want, want_kind = winding(complex(lam)), None
        except s.SchwarzianSLError as exc:
            want, want_kind = complex("nan"), type(exc).__name__
        assert kind == want_kind
        assert abs(value - want) <= 1e-12 or (cmath.isnan(value) and cmath.isnan(want))
    assert kinds[0] == ("StepFailure" if tol.max_steps == 3 else "DegenerateLaunch")


def test_substitution_identity_riccati_residual(morse_problem):
    # F1 + i F2 satisfies the Riccati equation identically along the flow
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = float(rng.uniform(-2, 4))
        lam = complex(rng.uniform(1, 24))
        f1 = complex(rng.normal(), rng.normal())
        f2 = complex(rng.normal(), rng.normal())
        d = s.phi_system(morse_problem).rhs(x, (f1, f2, 0j), lam)
        w = f1 + 1j * f2
        dw = d[0] + 1j * d[1]
        residual = dw + w * w + morse_problem.coefficients.q(x, lam)
        assert abs(residual) < 1e-10 * max(1.0, abs(w) ** 2)


def test_gauge_equivalence_after_constant_solving(morse_problem, tight_tol):
    # two different launch states rebuild the same F(x) once the constant
    # is solved from the same boundary condition
    launches = [
        s.default_initial_state(morse_problem, 0.0, 18.75),
        s.PhiState(0j, 1 + 0j, 0j),
    ]
    lo_chk = [-0.5, -1.0, -2.0]
    hi_chk = [0.5, 1.5, 3.0]

    def rebuild(launch):
        psys = s.phi_system(morse_problem)
        t_lo = s.integrate(
            psys, 0.0, -7.0, launch, 18.75, tight_tol, store_path=False
        )
        c = s.solve_constant_from_bc(t_lo.y_end, INF, Approach.PHI)
        lo = integrate_checkpoints(psys, 0.0, launch, lo_chk, 18.75, tight_tol)
        hi = integrate_checkpoints(psys, 0.0, launch, hi_chk, 18.75, tight_tol)
        return [s.reconstruct_F(tuple(t), c, Approach.PHI) for t in (*lo, *hi)]

    fa = rebuild(launches[0])
    fb = rebuild(launches[1])
    for a, b in zip(fa, fb):
        assert abs(a - b) <= 1e-7 * (1.0 + abs(a))


def test_cross_approach_equivalence_morse(morse_problem):
    # the g and Phi quantizations vanish at the same eigenvalue
    tol = s.Tolerances(rel=1e-10, abs=1e-12)
    scan = s.scan_real(
        lambda e: s.phi_winding_value(morse_problem, e, tol),
        (18.0, 19.5),
        8,
        rel_width=1e-10,
    )
    (crossing,) = [c for c in scan.crossings if c.n == 3]
    qf = lambda e: s.g_difference_value(morse_problem, e, tol)
    g_root = s.refine_complex_root(qf, crossing.eigenvalue + 0.05, tol=1e-12)
    assert abs(g_root - crossing.eigenvalue) < 1e-6


# ----------------------------------------------------------- eigenfunction


def test_harmonic_ground_state_matches_gaussian(harmonic_problem):
    tol = s.Tolerances(rel=1e-10, abs=1e-12)
    scan = s.scan_real(
        lambda e: s.phi_winding_value(harmonic_problem, e, tol),
        (0.3, 0.7),
        6,
        rel_width=1e-10,
    )
    e0 = scan.eigenvalues[0]
    low, high, _ = s.solve_asymptotic(
        harmonic_problem, e0, Approach.PHI, tol, store_path=True
    )
    c = s.solve_constant_from_bc(low.y_end, INF, Approach.PHI)
    samples = s.eigenfunction(*s.merge_legs(low, high), c, Approach.PHI)
    mask = np.abs(samples.xs) <= 3.0
    f = samples.f[mask]
    f = f / f[np.argmax(np.abs(f))]
    assert np.max(np.abs(f - np.exp(-samples.xs[mask] ** 2 / 2))) < 1e-4


def test_morse_non_eigenvalue_diverges(morse_problem):
    # detuned eps with a generic constant: |f| blows up toward both cuts
    tol = s.Tolerances(rel=1e-10, abs=1e-12)
    low, high, _ = s.solve_asymptotic(
        morse_problem, 17.5, Approach.PHI, tol, store_path=True
    )
    c = s.solve_constant_from_bc(low.y_end, INF, Approach.PHI) + 0.5
    samples = s.eigenfunction(*s.merge_legs(low, high), c, Approach.PHI)
    f = np.abs(samples.f)
    well = f[(samples.xs > -0.3) & (samples.xs < 1.5)]
    assert f[0] > 100 * np.median(well)
    assert f[-1] > 100 * np.median(well)


def test_constant_oscillator_eigenfunction_is_plane_wave():
    kappa = 1 + 1j
    problem = s.const_oscillator(kappa)
    tol = s.Tolerances(rel=1e-12, abs=1e-14)
    tr = s.integrate(s.g_system(problem), 0.0, 30.0, (0.2 + 0.1j, 0j, 0j), 0j, tol)
    c = s.solve_constant_from_bc(tr.y_end, INF, Approach.G)
    samples = s.eigenfunction(tr.xs, tr.ys, c, Approach.G)
    i1 = int(np.searchsorted(samples.xs, 2.0))
    i2 = int(np.searchsorted(samples.xs, 4.0))
    ratio = samples.f[i2] / samples.f[i1]
    expected = cmath.exp(1j * kappa * (samples.xs[i2] - samples.xs[i1]))
    assert abs(ratio - expected) < 1e-9


def test_branch_tracked_sqrt_is_continuous():
    # a path whose argument runs through pi must not produce a jump
    angles = np.linspace(0.0, 3.5 * math.pi, 200)
    values = np.exp(1j * angles) * (1.0 + 0.1 * np.cos(angles))
    roots = branch_tracked_sqrt(values)
    steps = np.abs(np.diff(roots))
    assert np.max(steps) < 0.1
    assert np.allclose(roots**2, values)


# ------------------------------------------------- schwarzian derivative


def grid(n=201):
    xs = np.linspace(0.0, 1.0, n)
    return xs, xs[1] - xs[0]


def test_schwarzian_of_mobius_of_x_is_zero():
    xs, h = grid()
    g = (2 * xs + 1) / (xs + 3)
    assert np.max(np.abs(s.schwarzian_derivative(g, h))) < 1e-6


def test_schwarzian_of_half_angle_tangent():
    xs, h = grid()
    values = s.schwarzian_derivative(np.tan(xs / 2), h)
    assert np.max(np.abs(values - 0.5)) < 1e-6


def test_schwarzian_mobius_invariance():
    xs, h = grid(1601)
    g = np.tan(xs / 2)
    transformed = (g + 7) / (3 * g - 2)
    diff = s.schwarzian_derivative(transformed, h) - s.schwarzian_derivative(g, h)
    assert np.max(np.abs(diff)) < 1e-5


def test_schwarzian_chain_rule():
    # {g(Phi), x} = {g, Phi} Phi'^2 + {Phi, x}; with g = exp, {g, u} = -1/2
    xs, h = grid(401)
    phi = 0.3 * xs**3 + 0.5 * xs + 0.2
    lhs = s.schwarzian_derivative(np.exp(phi), h)
    dphi = (0.9 * xs**2 + 0.5)[3:-3]
    rhs = -0.5 * dphi**2 + s.schwarzian_derivative(phi, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_schwarzian_derivative_guards():
    with pytest.raises(ValueError):
        s.schwarzian_derivative(np.ones(5, dtype=complex), 0.1)
    with pytest.raises(s.ZeroDerivative):
        s.schwarzian_derivative(np.ones(20, dtype=complex), 0.1)
