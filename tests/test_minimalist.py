import cmath
import math

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl.minimalist import DEFAULT_GAUGE, PhiSubstitution

from conftest import PAINE_ORACLE, assert_close


def const_problem(p=1 + 0j, q=1 + 0j):
    return s.SLProblem(
        coefficients=s.Coefficients(p=lambda x, e: p, q=lambda x, e: q),
        domain=s.Domain(0.0, math.pi, start=1.0, lower_cut=0.0, upper_cut=math.pi),
        boundaries=(s.BoundarySpec.ratio(float("inf")), s.BoundarySpec.ratio(float("inf"))),
    )


def riccati_rhs(problem, x, F, lam):
    return s.riccati_system(problem).rhs(x, (F,), lam)[0]


def phi_rhs(problem, sub, x, phi, lam):
    return s.phase_system(problem, sub).rhs(x, (phi,), lam)[0]


def test_riccati_rhs_values():
    assert_close(riccati_rhs(const_problem(1, 1), 0.0, 0j, 0j), -1.0, 1e-14)
    # F = sqrt(-p q) is a fixed point
    assert_close(riccati_rhs(const_problem(1, -1), 0.0, 1 + 0j, 0j), 0.0, 1e-14)
    assert_close(
        riccati_rhs(const_problem(2, 3), 0.0, 1 + 1j, 0j),
        -((1 + 1j) ** 2) / 2 - 3,
        1e-14,
    )
    assert riccati_rhs(const_problem(2, 3), 0.0, 1 + 1j, 0j) == -3 - 1j


def test_phi_rhs_constant_unit_coefficients():
    # p = q = F2 = 1, F1 = 0: the sin/cos coefficients vanish, Phi' = 2
    problem = const_problem(1, 1)
    for phi in (0j, 1 + 0j, 2.5 - 0.5j):
        assert_close(phi_rhs(problem, DEFAULT_GAUGE, 0.0, phi, 0j), 2.0, 1e-12)


def test_phi_rhs_paine_coefficients(paine_problem):
    # at x = 0, lam = 0: q = -100, so Phi' = 101 cos(Phi) - 99
    value = phi_rhs(paine_problem, DEFAULT_GAUGE, 0.0, 0j, 0j)
    assert_close(value, 2.0, 1e-9, "Phi'=101-99 at Phi=0")
    value_pi = phi_rhs(paine_problem, DEFAULT_GAUGE, 0.0, math.pi + 0j, 0j)
    assert_close(value_pi, -200.0, 1e-9, "Phi' = -101 - 99 at Phi=pi")


def test_phi_rhs_passes_f_zeros_smoothly(paine_problem):
    # Phi = 2 n pi is an infinity of cot but an ordinary point of Phi':
    # the value reduces to 2 F2 / p
    sub = PhiSubstitution(F1=0j, F2=2 + 0j)
    for n in (0, 1, 3):
        value = phi_rhs(paine_problem, sub, 0.5, 2 * math.pi * n + 0j, 7.0)
        assert_close(value, 4.0, 1e-9, f"2 F2/p at Phi=2pi*{n}")


def test_phi_rhs_zero_gauge_raises(paine_problem):
    with pytest.raises(s.ZeroGauge):
        sub = PhiSubstitution(F1=0j, F2=0j)
        phi_rhs(paine_problem, sub, 0.5, 0j, 7.0)


def test_solve_finite_interval_constant_problem():
    # Phi' = 2 exactly, so Phi(pi) = 2 pi
    phi_end = s.solve_finite_interval(const_problem(1, 1))
    assert_close(phi_end, 2 * math.pi, 1e-8)


@pytest.mark.parametrize("lam,n", [(1.51987, 1), (4.94331, 2)])
def test_solve_finite_interval_paine_eigenvalues(paine_problem, lam, n):
    phi_end = s.solve_finite_interval(paine_problem, lam=lam)
    assert abs(phi_end.real / (2 * math.pi) - n) < 1e-3


def test_riccati_consistency_identity(paine_problem):
    # wherever cot(Phi/2) is finite, F = F1 + F2 cot(Phi/2) built from the
    # phase equation satisfies the Riccati equation identically
    rng = np.random.default_rng(7)
    sub = PhiSubstitution(F1=0.3 + 0.1j, F2=1.5 - 0.2j)
    for _ in range(25):
        x = float(rng.uniform(0.2, 3.0))
        lam = complex(rng.uniform(0, 30), rng.uniform(-1, 1))
        phi = complex(rng.uniform(0.3, 5.9), rng.uniform(-0.8, 0.8))
        f1, f2 = sub.F1, sub.F2
        w = phi / 2.0
        cot = cmath.cos(w) / cmath.sin(w)
        F = f1 + f2 * cot
        dphi = phi_rhs(paine_problem, sub, x, phi, lam)
        dF = -f2 * (1 + cot * cot) * dphi / 2.0  # F1, F2 constant here
        residual = dF - riccati_rhs(paine_problem, x, F, lam)
        assert abs(residual) < 1e-9 * max(1.0, abs(F) ** 2)


def test_paine_winding_monotone(paine_problem):
    lams = np.linspace(0.5, 199.5, 40)
    tol = s.Tolerances(rel=1e-8, abs=1e-10)
    values = [
        s.solve_finite_interval(paine_problem, lam=lam, tol=tol).real for lam in lams
    ]
    assert np.all(np.diff(values) > 0)


@pytest.mark.parametrize("n", [1, 5, 14])
def test_default_gauge_keeps_paine_crossings(paine_problem, tight_tol, n):
    # f(pi) = 0 puts Phi(pi) at 2 n pi under any real positive constant F2,
    # so the scaled default gauge and F2 = 1 agree at the eigenvalues
    lam = PAINE_ORACLE[n - 1]
    for sub in (DEFAULT_GAUGE, None):
        phi_end = s.solve_finite_interval(paine_problem, sub, lam=lam, tol=tight_tol)
        assert abs(phi_end / (2 * math.pi) - n) < 1e-6


def test_stalled_phase_is_a_failed_scan_sample(paine_problem):
    # a phase leg that runs out of steps raises StepFailure, which the scan
    # records as a failed sample instead of taking the stalled Phi
    tol = s.Tolerances(max_steps=3)
    with pytest.raises(s.StepFailure):
        s.solve_finite_interval(paine_problem, lam=100.0, tol=tol)
    scan = s.scan_real(
        lambda lam: s.solve_finite_interval(paine_problem, lam=lam, tol=tol),
        (0.0, 20.0),
        4,
    )
    assert len(scan.failures) == 4
    assert scan.crossings == []


def _paine_with_ratios(lower, upper="inf"):
    return s.problem_from_json({
        "problem": {"name": "paine"},
        "boundaries": [{"kind": "ratio", "f_bc": lower}, {"kind": "ratio", "f_bc": upper}],
    })


@pytest.mark.parametrize("f_bc", ["inf", 2.0, [-0.5, 1.5], 0.0])
def test_winding_lanes_match_scalar_calls(paine_problem, f_bc):
    # a finite lower ratio value gives each lane its own start phase, and
    # F = 0 (f' = 0) starts both paths at Phi = pi
    problem = paine_problem if f_bc == "inf" else _paine_with_ratios(f_bc)
    winding = s.FiniteIntervalWinding(problem, s.Tolerances(rel=1e-9, abs=1e-11))
    lams = 0.0 + (np.arange(0, 200, 5) + 0.5) + 0j  # every fifth Paine grid point
    values, kinds = winding.lanes(lams)
    assert kinds == [None] * lams.size
    scalar = np.array([winding(lam) for lam in lams.tolist()])
    assert np.abs(values - scalar).max() <= 1e-9


def test_winding_lane_where_p_vanishes_is_a_zero_coefficient():
    # p = lam - 3 vanishes at every gauge midpoint for lam = 3; p = 0 only at
    # the launch point x = 0 for lam > 5
    def p(x, lam):
        return (lam - 3.0) * (((x != 0) | (lam.real < 5)) * 1.0)

    problem = s.SLProblem(
        coefficients=s.Coefficients(p=p, q=lambda x, lam: lam + 0.0 * x),
        domain=s.Domain(0.0, math.pi, start=1.0, lower_cut=0.0, upper_cut=math.pi),
        boundaries=(s.BoundarySpec.ratio(float("inf")), s.BoundarySpec.ratio(float("inf"))),
    )
    winding = s.FiniteIntervalWinding(problem)
    lams = np.array([2.0, 3.0, 4.0, 7.0], dtype=complex)
    values, kinds = winding.lanes(lams)
    assert kinds == [None, "ZeroCoefficient", None, "ZeroCoefficient"]
    assert np.isnan(values[[1, 3]]).all()
    for lam, value, kind in zip(lams.tolist(), values, kinds):
        if kind is None:
            assert abs(value - winding(lam)) <= 1e-9
        else:
            with pytest.raises(s.ZeroCoefficient):
                winding(lam)


def test_scan_over_winding_lanes_matches_scalar_scan(paine_problem):
    tol = s.Tolerances(rel=1e-9, abs=1e-11)
    winding = s.FiniteIntervalWinding(paine_problem, tol)
    rel_width = 1e-8
    lanes = s.scan_real(winding, (0.0, 60.0), 60, rel_width)
    scalar = s.scan_real(lambda lam: winding(lam), (0.0, 60.0), 60, rel_width)
    assert [c.n for c in lanes.crossings] == [c.n for c in scalar.crossings] == list(range(1, 8))
    for a, b in zip(lanes.eigenvalues, scalar.eigenvalues):
        assert abs(a - b) <= rel_width * abs(b)


def _sine_problem(f_upper):
    # p = 1, q = lam on [0, pi] with f(0) = 0 and F(pi) = f_upper
    return s.SLProblem(
        coefficients=s.Coefficients(p=lambda x, lam: 1.0 + 0.0 * x, q=lambda x, lam: lam + 0.0 * x),
        domain=s.Domain(0.0, math.pi, start=1.0, lower_cut=0.0, upper_cut=math.pi),
        boundaries=(s.BoundarySpec.ratio(float("inf")), s.BoundarySpec.ratio(f_upper)),
    )


@pytest.mark.parametrize("f_upper,expected", [
    (float("inf"), [1.0, 4.0, 9.0]),               # sin(sqrt(lam) pi) = 0
    (0.0, [0.25, 2.25, 6.25, 12.25]),              # cos(sqrt(lam) pi) = 0
    (1.0, [1.6643829, 5.6313804, 11.6225018]),     # sqrt(lam) cot(sqrt(lam) pi) = 1
])
def test_winding_honours_the_upper_ratio_value(f_upper, expected):
    winding = s.FiniteIntervalWinding(_sine_problem(f_upper), s.Tolerances(rel=1e-10, abs=1e-12))
    lanes = s.scan_real(winding, (0.0, 14.0), 35)
    scalar = s.scan_real(lambda lam: winding(lam), (0.0, 14.0), 35)
    assert lanes.failures == scalar.failures == []
    assert [c.n for c in lanes.crossings] == [c.n for c in scalar.crossings]
    assert np.allclose(lanes.eigenvalues, expected, rtol=0, atol=1e-7)
    assert np.allclose(scalar.eigenvalues, expected, rtol=0, atol=1e-7)


@pytest.mark.parametrize("f_upper", [0.0, 2.0, [-0.5, 1.5]])
def test_winding_lanes_match_scalar_calls_with_an_upper_ratio_value(f_upper):
    winding = s.FiniteIntervalWinding(_paine_with_ratios("inf", f_upper),
                                      s.Tolerances(rel=1e-9, abs=1e-11))
    lams = 0.0 + (np.arange(0, 200, 5) + 0.5) + 0j
    values, kinds = winding.lanes(lams)
    assert kinds == [None] * lams.size
    scalar = np.array([winding(lam) for lam in lams.tolist()])
    assert np.abs(values - scalar).max() <= 1e-9


@pytest.mark.parametrize("end", [0, 1])
def test_degenerate_ratio_value_is_a_failed_sample(end):
    # F = i is F1 + i F2 in the scaled gauge wherever kappa = 1, which holds
    # for Paine up to lam ~ 4.1; both paths record DegenerateBoundary there
    ratios = ["inf", "inf"]
    ratios[end] = [0.0, 1.0]
    winding = s.FiniteIntervalWinding(_paine_with_ratios(*ratios))
    with pytest.raises(s.DegenerateBoundary):
        winding(1.0)
    values, kinds = winding.lanes(np.array([1.0, 10.0, 30.0], dtype=complex))
    assert kinds == ["DegenerateBoundary", None, None]
    assert np.isnan(values[0]) and abs(values[1] - winding(10.0)) <= 1e-9
    lanes = s.scan_real(winding, (0.5, 60.0), 20)
    scalar = s.scan_real(lambda lam: winding(lam), (0.5, 60.0), 20)
    assert lanes.failures == scalar.failures == [(1.9875, "DegenerateBoundary")]
    assert [c.n for c in lanes.crossings] == [c.n for c in scalar.crossings]
