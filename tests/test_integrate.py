import cmath
import importlib
import math

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl.integrate import StopReason
from schwarzian_sl.schwarzian import Approach

from conftest import integrate_checkpoints


def oscillator_system():
    return s.OdeSystem(1, lambda x, y, lam: (1j * y[0],))


def test_exponential_rotation():
    tr = s.integrate(oscillator_system(), 0.0, math.pi, (1 + 0j,))
    assert abs(tr.y_end[0] - (-1.0)) < 1e-8
    assert tr.stop_reason is StopReason.REACHED_END


def test_logistic_decay():
    sys = s.OdeSystem(1, lambda x, y, lam: (-y[0] * y[0],))
    tr = s.integrate(sys, 0.0, 1.0, (1 + 0j,))
    assert abs(tr.y_end[0] - 0.5) < 1e-8


def test_riccati_constant_coefficients():
    # p = 1, q = 1: F' = -F^2 - 1 with F(0) = 0 has F(x) = -tan(x)
    sys = s.OdeSystem(1, lambda x, y, lam: (-y[0] * y[0] - 1.0,))
    tr = s.integrate(sys, 0.0, 1.0, (0j,))
    assert abs(tr.y_end[0] - (-math.tan(1.0))) < 1e-8


def test_backward_integration():
    tr = s.integrate(oscillator_system(), 0.0, -math.pi, (1 + 0j,))
    assert abs(tr.y_end[0] - (-1.0)) < 1e-8
    assert np.all(np.diff(tr.xs) < 0)


def fixed_point_problem(lower_cut, upper_cut):
    # p = 1, q = -1: the Phi state (1, 0, Phi) is a fixed point
    return s.SLProblem(
        coefficients=s.Coefficients(p=lambda x, e: 1 + 0j, q=lambda x, e: -1 + 0j),
        domain=s.Domain(-math.inf, math.inf, 0.0, lower_cut, upper_cut),
        boundaries=(s.BoundarySpec.quantization(), s.BoundarySpec.quantization()),
    )


def test_bidirectional_trivial():
    y0 = (1 + 0j, 0j, 2 - 3j)
    low, high, value = s.solve_asymptotic(
        fixed_point_problem(-2.0, 5.0), 0j, Approach.PHI, launch=y0
    )
    assert low.terminal == (-2.0, y0)
    assert high.terminal == (5.0, y0)
    assert value == 0


def test_bidirectional_requires_straddle():
    with pytest.raises(ValueError):
        s.solve_asymptotic(
            fixed_point_problem(1.0, 5.0), 0j, Approach.PHI, launch=(1 + 0j, 0j, 0j)
        )


def test_morse_phi_legs_reach_or_fire(morse_problem):
    low, high, _ = s.solve_asymptotic(morse_problem, 18.75, Approach.PHI, decay=0.0)
    for tr in (low, high):
        assert tr.stop_reason in (StopReason.REACHED_END, StopReason.EVENT_FIRED)


def test_decay_event_fires_before_cut(harmonic_problem):
    # ground state: F2 ~ 1/f1^2 decays through 1e-12 well inside the cut
    launch = s.default_initial_state(harmonic_problem, 0.0, 0.5)
    event = lambda x, y: abs(y[1]) < 1e-12
    tr = s.integrate(
        s.phi_system(harmonic_problem), 0.0, 6.0, launch, 0.5, event=event
    )
    assert tr.stop_reason is StopReason.EVENT_FIRED
    assert tr.x_end < 6.0
    assert abs(tr.y_end[1]) < 1e-12


def test_dimension_mismatch():
    sys = s.OdeSystem(2, lambda x, y, lam: (0j, 0j))
    with pytest.raises(s.DimensionMismatch):
        s.integrate(sys, 0.0, 1.0, (0j,))


def test_rhs_length_checked():
    sys = s.OdeSystem(2, lambda x, y, lam: (0j,))
    with pytest.raises(s.DimensionMismatch):
        s.integrate(sys, 0.0, 1.0, (0j, 0j))


def test_non_finite_rhs_at_launch():
    sys = s.OdeSystem(1, lambda x, y, lam: (complex("nan"),))
    with pytest.raises(s.NonFiniteRhs):
        s.integrate(sys, 0.0, 1.0, (1 + 0j,))


def test_deterministic_bitwise(morse_problem):
    launch = s.default_initial_state(morse_problem, 0.0, 12.0)
    runs = [
        s.integrate(s.phi_system(morse_problem), 0.0, 15.0, launch, 12.0)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].xs, runs[1].xs)
    assert np.array_equal(runs[0].ys, runs[1].ys)


def test_tolerance_halving_self_consistency():
    # y' = i y has y(10) = exp(10i); halving the tolerances must cut the error
    sys = s.OdeSystem(1, lambda x, y, lam: (1j * y[0],))
    exact = cmath.exp(10j)
    coarse_tol = s.Tolerances(rel=1e-6, abs=1e-8)
    fine_tol = s.Tolerances(rel=5e-7, abs=5e-9)
    coarse = s.integrate(sys, 0.0, 10.0, (1 + 0j,), tol=coarse_tol)
    fine = s.integrate(sys, 0.0, 10.0, (1 + 0j,), tol=fine_tol)
    assert abs(fine.y_end[0] - exact) < abs(coarse.y_end[0] - exact)


def test_blowup_gives_step_failure_not_nan():
    # y' = y^2 from y(0)=1 blows up at x=1; the stepper must stop cleanly
    sys = s.OdeSystem(1, lambda x, y, lam: (y[0] * y[0],))
    tr = s.integrate(sys, 0.0, 2.0, (1 + 0j,))
    assert tr.stop_reason is StopReason.STEP_FAILURE
    assert np.all(np.isfinite(tr.ys.real)) and np.all(np.isfinite(tr.ys.imag))
    assert 0.9 < tr.x_end < 1.1


def test_jet_riccati_pole_passage(cohn_model):
    # real omega puts a genuine pole of Y inside the jet; never silent NaN
    eq = cohn_model.equilibrium()
    sys = s.y_riccati_system(eq, 0, math.pi)
    tr = s.integrate(sys, 0.9, 0.1, (0.05 + 0j,), 8.0 + 0j)
    assert tr.stop_reason in (StopReason.STEP_FAILURE, StopReason.REACHED_END)
    assert np.all(np.isfinite(tr.ys.real)) and np.all(np.isfinite(tr.ys.imag))


def test_max_steps_exhaustion():
    sys = s.OdeSystem(1, lambda x, y, lam: (1j * y[0],))
    tol = s.Tolerances(rel=1e-10, abs=1e-12, max_steps=5)
    tr = s.integrate(sys, 0.0, 100.0, (1 + 0j,), tol=tol)
    assert tr.stop_reason is StopReason.STEP_FAILURE
    assert len(tr.xs) <= 6


def test_checkpoints_match_direct_run():
    sys = s.OdeSystem(1, lambda x, y, lam: (1j * y[0],))
    states = integrate_checkpoints(sys, 0.0, (1 + 0j,), [0.5, 1.0, 2.0])
    direct = s.integrate(sys, 0.0, 2.0, (1 + 0j,))
    assert abs(states[-1][0] - direct.y_end[0]) < 1e-9
    assert abs(states[0][0] - cmath.exp(0.5j)) < 1e-9


def test_monotone_xs_and_matching_rows():
    tr = s.integrate(oscillator_system(), 0.0, 3.0, (1 + 0j,))
    assert np.all(np.diff(tr.xs) > 0)
    assert tr.ys.shape == (len(tr.xs), 1)


def test_checkpoints_stall_raises_step_failure():
    sys = s.OdeSystem(1, lambda x, y, lam: (1j * y[0],))
    tol = s.Tolerances(max_steps=3)
    with pytest.raises(s.StepFailure):
        integrate_checkpoints(sys, 0.0, (1 + 0j,), [50.0, 100.0], tol=tol)


def test_accepted_steps_keep_the_step_floor(cohn_model):
    # at this real omega the outward leg meets a pole of Y4 near r = 9.71;
    # accepted steps that shrink h below min_step must stop the leg there,
    # not pile up zero-length steps
    sys = s.y1_system(cohn_model.equilibrium(), 0, math.pi, Approach.G)
    tr = s.integrate(sys, 1.0, 10.0, (0j, 0j, 0j), 3.891592653589793 + 0j)
    assert tr.stop_reason is StopReason.STEP_FAILURE
    assert np.all(np.diff(tr.xs) > 0)
    assert 9.7 < tr.x_end < 10.0


def test_nan_initial_step_stops_at_once():
    # tolerances of 1e-300 overflow the scaled norms and give a NaN step
    calls = 0

    def rhs(x, y, lam):
        nonlocal calls
        calls += 1
        return (1j * y[0],)

    tol = s.Tolerances(rel=1e-300, abs=1e-300)
    tr = s.integrate(s.OdeSystem(1, rhs), 0.0, 1.0, (1 + 0j,), tol=tol)
    assert tr.stop_reason is StopReason.STEP_FAILURE
    assert calls <= 100
    assert tr.terminal == (0.0, (1 + 0j,))


def test_rhs_calls_per_leg(monkeypatch):
    # a leg calls the rhs once at the launch, once for the initial-step
    # probe and six times per attempted step, accepted or rejected;
    # perfbench/tracer.py derives its step count from this
    engine = importlib.import_module("schwarzian_sl.integrate")
    attempt, attempts, calls = engine._dp_attempt, 0, 0

    def counted_attempt(*args):
        nonlocal attempts
        attempts += 1
        return attempt(*args)

    def rhs(x, y, lam):  # a sharp bump in frequency at x = 1.5 forces rejections
        nonlocal calls
        calls += 1
        return (1j * y[0] * (1.0 + 50.0 * math.exp(-200.0 * (x - 1.5) ** 2)),)

    monkeypatch.setattr(engine, "_dp_attempt", counted_attempt)
    tr = s.integrate(s.OdeSystem(1, rhs), 0.0, 3.0, (1 + 0j,))
    assert tr.stop_reason is StopReason.REACHED_END
    assert attempts > len(tr.xs) - 1  # accepted and rejected steps
    assert calls == 2 + 6 * attempts


def test_tableau_consistency():
    # read the Dormand-Prince tableau off the one step attempt: stage s
    # returns the unit vector e_s, so with y = 0 and h = 1 each stage's
    # state is its row of A, its abscissa is c_s, y_new is b and err is e
    engine = importlib.import_module("schwarzian_sl.integrate")
    unit = [tuple(float(i == j) for i in range(7)) for j in range(7)]
    stages = []

    def rhs(x, y, lam):
        stages.append((x, y))
        return unit[len(stages)]

    y_new, k7, err = engine._dp_attempt(rhs, 0.0, (0.0,) * 7, unit[0], 1.0, 1.0, 0j)
    assert len(stages) == 6 and k7 == unit[6]
    c = [0.0] + [x for x, _ in stages]
    for i, (x, row) in enumerate(stages, start=1):  # c_i = sum_j a_ij, A strictly lower
        assert abs(x - sum(row)) < 1e-15 and not any(row[i:])
    assert stages[-1] == (1.0, y_new)  # FSAL: the last stage is b at x + h
    b, e = y_new, err
    for q in range(1, 6):  # order 5 in b, order 4 in the embedded b - e
        assert abs(sum(bj * cj ** (q - 1) for bj, cj in zip(b, c)) - 1 / q) < 1e-15
        if q < 5:
            assert abs(sum(ej * cj ** (q - 1) for ej, cj in zip(e, c))) < 1e-15


def _lane_system(counts=None):
    # u' = i Re(lam) u + Im(lam) u^2, v' = 0: a rotation for real lam, a
    # blow-up at x = 1 from u = 1 for lam = 1j.  The lane form is singular
    # past x = 1 for lam = 2 + 0j; ``counts`` tallies rhs calls per lam.
    def rhs(x, y, lam):
        if counts is not None:
            counts[lam] = counts.get(lam, 0) + 1
        return (1j * lam.real * y[0] + lam.imag * y[0] * y[0], 0j)

    def lanes(x, y, lam):
        if counts is not None:
            for value in lam.tolist():
                counts[value] = counts.get(value, 0) + 1
        u = y[0]
        f = np.array([1j * lam.real * u + lam.imag * u * u, np.zeros_like(u)])
        return f, (lam == 2.0) & (x > 1.0)

    return s.OdeSystem(2, rhs, lanes)


def test_lanes_match_scalar_integrate_per_lane():
    # every lane takes the scalar integrator's steps: the same rhs calls
    # and, up to rounding, the same terminal state
    lams = np.array([0.5, 1.0, 3.0, 7.5, -2.0, 0.25 + 0j])
    tol = s.Tolerances(rel=1e-9, abs=1e-12)
    lane_calls, scalar_calls = {}, {}
    x_end, y_end, failure = s.integrate_lanes(
        _lane_system(lane_calls), 0.0, 4.0, (1 + 0j, 0j), lams, tol
    )
    assert list(failure) == [None] * len(lams)
    assert np.all(x_end == 4.0)
    for j, lam in enumerate(lams.tolist()):
        tr = s.integrate(_lane_system(scalar_calls), 0.0, 4.0, (1 + 0j, 0j), lam, tol,
                         store_path=False)
        assert tr.stop_reason is StopReason.REACHED_END
        assert abs(y_end[0, j] - tr.y_end[0]) <= 1e-13
        assert abs(y_end[0, j] - cmath.exp(4j * lam.real)) < 1e-7
    assert lane_calls == scalar_calls


def test_lane_failures_stop_alone():
    # lanes that run out of steps (lam = 40), fall below min_step at a
    # blow-up (lam = 1j), start on a NaN step (v = inf), start non-finite
    # (lam = nan) or meet a singular point (lam = 2) end as the scalar
    # integrator does; their neighbours' results do not change
    good = [0.5, 1.0, 1.5]
    lams = np.array([0.5, 40.0, 1.0, 1j, 1.5, 0.75, complex("nan"), 2.0])
    y0 = np.ones((2, lams.size), dtype=complex)
    y0[1, 5] = complex("inf")
    tol = s.Tolerances(max_steps=60)
    sys, calls = _lane_system(), {}
    x_end, y_end, failure = s.integrate_lanes(
        _lane_system(calls), 0.0, 2.0, y0, lams, tol
    )
    assert calls[0.75] == 2  # launch and initial-step probe, then the NaN step
    assert list(failure) == [None, s.StepFailure, None, s.StepFailure, None,
                             s.StepFailure, s.NonFiniteRhs, s.SingularSurface]
    for j in (1, 3, 5):  # the stalls stop where the scalar integrator stops
        tr = s.integrate(sys, 0.0, 2.0, tuple(y0[:, j]), lams[j], tol,
                         store_path=False)
        assert tr.stop_reason is StopReason.STEP_FAILURE
        assert abs(x_end[j] - tr.x_end) <= 1e-9 * abs(tr.x_end) and x_end[j] < 2.0
        assert np.allclose(y_end[:, j], tr.y_end, rtol=1e-9, atol=0)
    assert x_end[5] == 0.0 and 0.9 < x_end[3] < 1.1
    alone = s.integrate_lanes(sys, 0.0, 2.0, (1 + 0j, 1 + 0j), np.array(good), tol)
    kept = [0, 2, 4]
    assert np.array_equal(x_end[kept], alone[0])
    assert np.array_equal(y_end[:, kept], alone[1])


def test_lane_event_matches_scalar_event_per_lane():
    # each lane stops on Re u < floor[lane], tested as the scalar event is:
    # lam = 0.5 and 3.0 fire before the cut, lam = 0.25 fires on the step
    # that reaches it, lam = 1.0 never fires, and lam = 2.0 fails (singular
    # past x = 1) without changing its neighbours
    tol = s.Tolerances(rel=1e-9, abs=1e-12)
    sys = _lane_system()
    last_two = s.integrate(sys, 0.0, 4.0, (1 + 0j, 0j), 0.25 + 0j, tol).ys[-2:, 0].real
    lams = np.array([0.5, 0.25, 2.0, 1.0, 3.0 + 0j])
    floor = np.array([0.0, last_two.mean(), -2.0, -2.0, 0.5])
    event = lambda lane, x, y: y[0].real < floor[lane]
    lane_calls, scalar_calls = {}, {}
    x_end, y_end, failure = s.integrate_lanes(
        _lane_system(lane_calls), 0.0, 4.0, (1 + 0j, 0j), lams, tol, event)
    assert list(failure) == [None, None, s.SingularSurface, None, None]
    for j in (0, 1, 3, 4):
        lam = lams.tolist()[j]
        tr = s.integrate(_lane_system(scalar_calls), 0.0, 4.0, (1 + 0j, 0j), lam, tol,
                         event=lambda x, y: y[0].real < floor[j], store_path=False)
        assert tr.stop_reason is (StopReason.REACHED_END if j == 3 else StopReason.EVENT_FIRED)
        assert lane_calls[lam] == scalar_calls[lam]  # it ends on the same step
        if j in (1, 3):
            assert x_end[j] == tr.x_end == 4.0
            assert np.abs(y_end[:, j] - tr.y_end).max() <= 1e-13
        else:
            # a last-bit difference in numpy's power or complex arithmetic
            # moves the step sizes, so an x inside the range agrees to ~1e-11
            assert tr.x_end < 4.0 and abs(x_end[j] - tr.x_end) <= 1e-10 * tr.x_end
            assert np.abs(y_end[:, j] - tr.y_end).max() <= 1e-10
    live = [0, 1, 3, 4]
    alone = s.integrate_lanes(sys, 0.0, 4.0, (1 + 0j, 0j), lams[live], tol,
                              lambda lane, x, y: y[0].real < floor[live][lane])
    assert np.array_equal(x_end[live], alone[0])
    assert np.array_equal(y_end[:, live], alone[1])
