import cmath
import importlib
import math

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl.integrate import StopReason, lane_failures, raise_if_stalled
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
    assert (low.x_end, low.y_end) == (-2.0, y0)
    assert (high.x_end, high.y_end) == (5.0, y0)
    assert value == 0


def test_bidirectional_requires_straddle():
    with pytest.raises(ValueError):
        s.solve_asymptotic(
            fixed_point_problem(1.0, 5.0), 0j, Approach.PHI, launch=(1 + 0j, 0j, 0j)
        )


def test_morse_phi_legs_reach_or_fire(morse_problem):
    low, high, _ = s.solve_asymptotic(morse_problem, 18.75, Approach.PHI)
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


@pytest.mark.parametrize("y0", [(0j,), np.zeros((3, 4), dtype=complex), np.zeros(4)])
def test_lane_dimension_mismatch(y0):
    # a launch whose first axis is not the dimension, as `integrate` refuses it
    sys = s.OdeSystem(2, lambda x, y, lam: (0j, 0j), lambda x, y, lam: (0 * y, np.zeros(4, bool)))
    with pytest.raises(s.DimensionMismatch):
        s.integrate_lanes(sys, 0.0, 1.0, y0, np.zeros(4, dtype=complex))


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
    # accepted steps that shrink h below MIN_STEP must stop the leg there,
    # not pile up zero-length steps
    sys = s.y1_system(cohn_model.equilibrium(), 0, math.pi, Approach.G)
    tr = s.integrate(sys, 1.0, 10.0, (0j, 0j, 0j), 3.891592653589793 + 0j)
    assert tr.stop_reason is StopReason.STEP_FAILURE
    assert np.all(np.diff(tr.xs) > 0)
    assert 9.7 < tr.x_end < 10.0


@pytest.mark.parametrize("rel, abs_", [
    (float("nan"), 1e-10), (float("inf"), 1e-10), (1e-8, float("nan")), (1e-8, float("inf")),
    (0.0, 1e-10), (1e-8, -1e-10),
])
def test_tolerances_must_be_positive_and_finite(rel, abs_):
    # abs = inf accepted every step, and a NaN tolerance failed every one
    with pytest.raises(ValueError, match="tolerances"):
        s.Tolerances(rel=rel, abs=abs_)


@pytest.mark.parametrize("stop, event, max_steps", [
    (StopReason.REACHED_END, None, 100_000),
    (StopReason.EVENT_FIRED, lambda x, y: x > 2.0, 100_000),
    (StopReason.STEP_FAILURE, None, 5),
])
def test_leg_ends_at_its_last_sample(stop, event, max_steps):
    # however a leg ends, it keeps its accepted-step path, and its end is
    # the last sample: x_end a float, y_end a tuple of Python complexes
    sys = s.OdeSystem(2, lambda x, y, lam: (1j * y[0], -y[1]))
    tr = s.integrate(sys, 0.0, 4.0, (1 + 0j, 1 + 0j), tol=s.Tolerances(max_steps=max_steps),
                     event=event)
    assert tr.stop_reason is stop
    assert len(tr.xs) == len(tr.ys) > 2
    assert type(tr.x_end) is float and tr.x_end == tr.xs[-1]
    assert type(tr.y_end) is tuple and all(type(v) is complex for v in tr.y_end)
    assert np.array(tr.y_end).tobytes() == tr.ys[-1].tobytes()
    assert (tr.x_end == 4.0) is (stop is StopReason.REACHED_END)


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
    assert (tr.x_end, tr.y_end) == (0.0, (1 + 0j,))


def test_rhs_calls_per_leg(monkeypatch):
    # a leg calls the rhs once at the launch, once for the initial-step
    # probe and twelve times per attempted step, accepted or rejected;
    # perfbench/tracer.py still divides by six, so it counts each attempt
    # as two steps
    engine = importlib.import_module("schwarzian_sl.integrate")
    generate, attempts, calls = engine._attempt, 0, 0

    def counted(dim):
        attempt = generate(dim)

        def counted_attempt(*args):
            nonlocal attempts
            attempts += 1
            return attempt(*args)

        return counted_attempt

    def rhs(x, y, lam):  # a sharp bump in frequency at x = 1.5 forces rejections
        nonlocal calls
        calls += 1
        return (1j * y[0] * (1.0 + 50.0 * math.exp(-200.0 * (x - 1.5) ** 2)),)

    monkeypatch.setattr(engine, "_attempt", counted)
    tr = s.integrate(s.OdeSystem(1, rhs), 0.0, 3.0, (1 + 0j,))
    assert tr.stop_reason is StopReason.REACHED_END
    assert attempts > len(tr.xs) - 1  # accepted and rejected steps
    assert calls == 2 + 12 * attempts


def test_tableau_consistency():
    # the DOP853 rows: c_i = sum_j a_ij with A strictly lower triangular,
    # order 8 in b, and error rows that vanish on polynomials of degree < 5
    # (E5) and < 3 (E3), the last entry weighting f(x + h, y_new) at c = 1
    engine = importlib.import_module("schwarzian_sl.integrate")
    A, c, b, e5, e3 = engine._A, engine._C, engine._B, engine._E5, engine._E3
    assert len(A) == len(c) == len(b) == 12 and len(e5) == len(e3) == 13
    for i, row in enumerate(A):
        assert len(row) == i and abs(c[i] - sum(row)) < 1e-14
    for q in range(1, 9):
        assert abs(sum(bj * cj ** (q - 1) for bj, cj in zip(b, c)) - 1 / q) < 1e-14
    for q in range(1, 6):
        assert abs(sum(ej * cj ** (q - 1) for ej, cj in zip(e5, c + (1.0,)))) < 1e-14
    for q in range(1, 4):
        assert abs(sum(ej * cj ** (q - 1) for ej, cj in zip(e3, c + (1.0,)))) < 1e-14

    # the generated attempt reproduces the rows: stage s returns the unit
    # vector e_s, so with y = 0 and h = 1 each stage's state is its row of
    # A, its abscissa is c_s, y_new is b, and e5 and e3 are the error rows
    unit = [tuple(float(i == j) for i in range(13)) for j in range(13)]
    stages = []

    def rhs(x, y, lam):
        stages.append((x, y))
        return unit[len(stages)]

    y_new, k13, err5, err3 = engine._attempt(13)(rhs, 0.0, (0.0,) * 13, unit[0], 1.0, 1.0, 0j)
    assert len(stages) == 12 and k13 == unit[12]
    assert [x for x, _ in stages] == list(c[1:]) + [1.0]
    for i, (_, state) in enumerate(stages[:-1], start=1):
        assert state == A[i] + (0.0,) * (13 - i)
    assert stages[-1][1] == y_new == b + (0.0,)
    assert err5 == e5 and err3 == e3
    assert "def attempt" in engine._attempt(13).source


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
        tr = s.integrate(_lane_system(scalar_calls), 0.0, 4.0, (1 + 0j, 0j), lam, tol)
        assert tr.stop_reason is StopReason.REACHED_END
        assert abs(y_end[0, j] - tr.y_end[0]) <= 1e-13
        assert abs(y_end[0, j] - cmath.exp(4j * lam.real)) < 1e-7
    assert lane_calls == scalar_calls


def test_lane_failures_stop_alone():
    # lanes that run out of steps (lam = 40), fall below MIN_STEP at a
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
        tr = s.integrate(sys, 0.0, 2.0, tuple(y0[:, j]), lams[j], tol)
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
                         event=lambda x, y: y[0].real < floor[j])
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


class _LaunchError(s.SchwarzianSLError):
    pass


def _two_leg_system():
    # y' = rate y with the rate of the side of x = 0, singular at and beyond
    # the walls; lam = (launch fails, low wall, high wall, low rate, high rate)
    def rhs(x, y, lam):
        if not lam[1] < x < lam[2]:
            raise s.SingularSurface(f"wall at x={x}")
        return ((lam[3] if x < 0.0 else lam[4]) * y[0],)

    def lanes(x, y, lam):
        low, high, rate = lam[1].real, lam[2].real, np.where(x < 0.0, lam[3], lam[4])
        return np.array([rate * y[0]]), ~((low < x) & (x < high))

    return s.OdeSystem(1, rhs, lanes)


def test_lane_failures_name_the_error_of_the_scalar_call():
    # a scalar call checks its launch, runs the leg toward -1, then the leg
    # toward +1, and last raises a stall of either; lane_failures reads the
    # same error from the launch check and the two lane legs
    inf, steep = math.inf, 300.0  # 20 steps cannot cross a steep side
    cases = [  # (the error, lam)
        (None, (0, -inf, inf, 1.0, 1.0)),
        ("_LaunchError", (1, -inf, inf, 1.0, 1.0)),
        ("SingularSurface", (0, -0.5, inf, 1.0, 1.0)),  # a low-leg error
        ("SingularSurface", (0, -inf, 0.5, steep, 1.0)),  # a low-leg stall, a high-leg error
        ("StepFailure", (0, -inf, inf, steep, steep)),  # both legs stalled
        ("SingularSurface", (0, -inf, 0.5, 1.0, 1.0)),  # a high-leg error alone
    ]
    sys, tol = _two_leg_system(), s.Tolerances(max_steps=20)

    def scalar_call(lam):
        if lam[0]:
            raise _LaunchError("launch")
        low, high = (s.integrate(sys, 0.0, cut, (1 + 0j,), lam, tol) for cut in (-1.0, 1.0))
        raise_if_stalled(low, high)
        return high.y_end[0] - low.y_end[0]

    value = scalar_call(cases[0][1])
    for name, lam in cases[1:]:
        with pytest.raises(s.SchwarzianSLError) as raised:
            scalar_call(lam)
        assert type(raised.value).__name__ == name
    lam = np.array([lam for _, lam in cases], dtype=complex).T
    launch = np.where(lam[0].real != 0, _LaunchError, None)
    (_, y_low, low), (_, y_high, high) = (
        s.integrate_lanes(sys, 0.0, cut, (1 + 0j,), lam, tol) for cut in (-1.0, 1.0))
    assert low[3] is s.StepFailure and high[3] is s.SingularSurface
    values, names = lane_failures(y_high[0] - y_low[0], launch, low, high)
    assert names == [name for name, _ in cases]
    assert np.isnan(values[1:]).all()
    assert abs(values[0] - value) <= 1e-12 * abs(value)
