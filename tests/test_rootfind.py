import concurrent.futures
import copy
import importlib
import math
import pickle

import numpy as np
import pytest

import schwarzian_sl as s

from conftest import MORSE_5, PAINE_ORACLE, PAINE_PUBLISHED


def test_scan_real_morse(morse_problem):
    scan = s.scan_real(
        lambda e: s.phi_winding_value(morse_problem, e), (0.0, 25.0), 120
    )
    found = scan.eigenvalues
    assert len(found) == 5
    for got, want in zip(found, MORSE_5):
        assert abs(got - want) < 1e-3
    # winding grows by one per bound state
    assert [c.n for c in scan.crossings] == [1, 2, 3, 4, 5]


def test_scan_real_harmonic(harmonic_problem):
    scan = s.scan_real(
        lambda e: s.phi_winding_value(harmonic_problem, e), (0.0, 6.0), 60
    )
    assert len(scan.eigenvalues) == 6
    for got, want in zip(scan.eigenvalues, (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)):
        assert abs(got - want) < 1e-4


def test_scan_real_paine(paine_problem):
    tol = s.Tolerances(rel=1e-10, abs=1e-12)
    scan = s.scan_real(
        lambda lam: s.solve_finite_interval(paine_problem, lam=lam, tol=tol)
        / (2 * math.pi),
        (0.0, 200.0),
        260,
    )
    found = scan.eigenvalues
    assert len(found) == 14
    for got, oracle in zip(found, PAINE_ORACLE):
        assert abs(got - oracle) < 1e-5 * max(1.0, abs(oracle))
    # and the published six-figure list agrees to five significant figures
    for got, published in zip(found, PAINE_PUBLISHED):
        assert abs(got - published) <= 5e-5 * abs(published)


def test_scan_real_records_failures():
    def flaky(lam):
        if 0.4 < lam.real < 0.6:
            raise s.SchwarzianSLError("window failure")
        return complex(lam.real)

    scan = s.scan_real(flaky, (0.0, 1.0), 10)
    assert scan.failures
    assert np.isnan(scan.values).sum() == len(scan.failures)


def test_spectral_web_trivial_root():
    web = s.spectral_web(lambda w: w - (3 + 2j), (0, 6, 0, 4), 40, 40)
    assert len(web.charges) == 1
    charge = web.charges[0]
    assert charge.winding == 1
    cell = max(web.cell_size)
    assert abs(charge.location - (3 + 2j)) <= 2 * cell


def test_spectral_web_trivial_pole():
    web = s.spectral_web(lambda w: 1.0 / (w - (3 + 2j)), (0, 6, 0, 4), 40, 40)
    assert [c.winding for c in web.charges] == [-1]


def test_spectral_web_winding_conservation():
    # two roots and one pole: boundary loop sees the net charge
    def qf(w):
        return (w - (2 + 1j)) * (w - (4 + 3j)) / (w - (3 + 2j))

    web = s.spectral_web(qf, (0, 6, 0, 4), 48, 48)
    assert web.total_winding() == web.boundary_winding() == 1
    assert sorted(c.winding for c in web.charges) == [-1, 1, 1]


def test_spectral_web_double_root_flagged():
    web = s.spectral_web(lambda w: (w - (3 + 2j)) ** 2, (0, 6, 0, 4), 40, 40)
    assert sum(c.winding for c in web.charges) == 2


def test_spectral_web_requires_minimum_grid():
    with pytest.raises(ValueError):
        s.spectral_web(lambda w: w, (0, 1, 0, 1), 4, 4)


@pytest.mark.parametrize("region", [(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1)])
def test_spectral_web_refuses_a_reversed_or_empty_region(region):
    with pytest.raises(ValueError, match="region"):
        s.spectral_web(lambda w: w - (0.5 + 0.5j), region, 8, 8)
    with pytest.raises(ValueError, match="region"):
        s.dispersion_scan(lambda k: (lambda w: w - (0.5 + 0.5j)), [1.0], region, 8, 8)


@pytest.mark.parametrize("lam_range", [(25.0, 0.0), (3.0, 3.0)])
def test_scan_real_refuses_a_reversed_or_empty_range(lam_range):
    with pytest.raises(ValueError, match="range"):
        s.scan_real(lambda lam: lam, lam_range, 60)


def test_spectral_web_missing_samples_excluded():
    def qf(w):
        if abs(w - (1 + 1j)) < 0.4:
            raise s.SchwarzianSLError("resonance")
        return w - (4 + 3j)

    web = s.spectral_web(qf, (0, 6, 0, 4), 40, 40)
    assert web.failures
    assert [c.winding for c in web.charges] == [1]


class _NonFiniteAt:
    """Picklable w - (4 + 3j) whose rhs blows up at one grid point."""

    def __init__(self, bad: complex):
        self.bad = bad

    def __call__(self, w: complex) -> complex:
        if w == self.bad:
            raise s.NonFiniteRhs("rhs is not finite at the launch point")
        return w - (4 + 3j)


class _NanNear:
    """Picklable w - (4 + 3j) that returns NaN, without raising, near 1+1j."""

    def __call__(self, w: complex) -> complex:
        return complex("nan") if abs(w - (1 + 1j)) < 0.5 else w - (4 + 3j)


class _NanNearLanes(_NanNear):
    """The same values through the lane-batched form, with no failure kinds."""

    def lanes(self, samples):
        return np.array([self(w) for w in samples.tolist()]), [None] * samples.size


@pytest.mark.parametrize("workers", [1, 2])
def test_spectral_web_non_finite_sample_is_a_failure(workers):
    re, im = np.linspace(0, 6, 12), np.linspace(0, 4, 12)
    bad = complex(re[2], im[3])
    web = s.spectral_web(_NonFiniteAt(bad), (0, 6, 0, 4), 12, 12, workers=workers)
    assert web.failures == [(bad, "NonFiniteRhs")]
    assert np.isnan(web.psi).sum() == 1 and np.isnan(web.psi[2, 3])
    assert [c.winding for c in web.charges] == [1]
    # a NaN returned without an error fails its sample on both paths
    near = [complex(x, y) for x in re for y in im if abs(complex(x, y) - (1 + 1j)) < 0.5]
    for qf in (_NanNear(), _NanNearLanes()):
        web = s.spectral_web(qf, (0, 6, 0, 4), 12, 12, workers=workers)
        assert len(near) == 4
        assert web.failures == [(w, "NonFiniteValue") for w in near]
        assert np.isnan(web.psi).sum() == 4
        assert [c.winding for c in web.charges] == [1]


def test_spectral_web_starts_at_most_one_process_per_cpu(monkeypatch):
    # a stub pool records its size and maps the chunks here; Psi does not
    # depend on how many chunks the samples split into
    rootfind = importlib.import_module("schwarzian_sl.rootfind")
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)  # imported per web
    monkeypatch.setattr(rootfind.os, "cpu_count", lambda: 3)
    qf = lambda w: w - (3.5 + 3.5j)
    one = s.spectral_web(qf, (0, 7, 0, 7), 12, 12)
    many = s.spectral_web(qf, (0, 7, 0, 7), 12, 12, workers=5000)
    assert sizes == [3]
    assert np.array_equal(one.psi, many.psi)


def test_refine_complex_root_exact_seed():
    assert s.refine_complex_root(lambda w: w * w - 2j, 1 + 1j) == 1 + 1j


def test_refine_complex_root_polynomial():
    root = s.refine_complex_root(lambda w: (w - 5) * (w - 1), 4.8 + 0j, tol=1e-12)
    assert abs(root - 5.0) < 1e-10


def test_refine_complex_root_no_convergence():
    with pytest.raises(s.NoConvergence) as excinfo:
        s.refine_complex_root(lambda w: (w - 2) * (w + 2), 100.0 + 80j, max_iter=2)
    assert excinfo.value.residual > 0


def test_refine_complex_root_stops_at_a_non_finite_value():
    # the first NaN or infinite value ends the secant there, as a scan or a
    # web records it, instead of iterating on NaN up to NoConvergence
    calls = []

    def qf(w):
        calls.append(w)
        return (w - 5) * (w - 1) if len(calls) < 3 else complex("nan")

    with pytest.raises(s.rootfind.NonFiniteValue, match="nan"):
        s.refine_complex_root(qf, 4.8 + 0j)
    assert len(calls) == 3
    with pytest.raises(s.rootfind.NonFiniteValue, match="inf"):
        s.refine_complex_root(lambda w: complex(math.inf, 0.0), 1 + 1j)


def test_refine_complex_root_carried_slope_step_is_evaluated():
    # a huge carried slope makes the first Newton step tiny far from any
    # root; that step is evaluated, and the constant residual then stalls
    with pytest.raises(s.NoConvergence) as excinfo:
        s.refine_complex_root(lambda w: 1e-3, 10, slope=1e9)
    assert excinfo.value.residual == 1e-3


def test_refine_complex_root_result_is_a_complex():
    root = s.refine_complex_root(lambda w: (w - 5) * (w - 1), 4.8 + 0j, tol=1e-12)
    assert isinstance(root, complex)
    assert abs(root - 5.0) < 1e-10 and root != 5.1
    assert type(root - 5.0) is complex and type(complex(root)) is complex
    assert f"{root:.6f}" == "5.000000+0.000000j" and str(root) == str(complex(root))
    # the final secant slope, near qf'(5) = 4
    assert abs(root.slope - 4.0) < 1e-6
    for copied in (pickle.loads(pickle.dumps(root)), copy.deepcopy(root)):
        assert copied == root and copied.slope == root.slope


def test_cohn_web_single_root(cohn_model):
    qf = s.JetQuantizationFunction(
        cohn_model, 0, math.pi, s.Approach.G, rel_tol=1e-6, abs_tol=1e-9
    )
    web = s.spectral_web(qf, (2.0, 4.0, 1.0, 3.0), 24, 24)
    roots = [c for c in web.charges if c.winding > 0]
    assert len(roots) == 1
    refined = s.refine_complex_root(qf, roots[0].location, tol=1e-10)
    assert abs(refined - (3.08 + 1.97j)) < 0.02
    assert web.boundary_winding() == web.total_winding()


def test_cohn_web_resolution_doubling(cohn_model):
    # the charge stays within one coarse cell when the grid doubles, and
    # the refined root is a fixed point of the seed choice
    qf = s.JetQuantizationFunction(
        cohn_model, 0, math.pi, s.Approach.G, rel_tol=1e-6, abs_tol=1e-9
    )
    coarse = s.spectral_web(qf, (2.0, 4.0, 1.0, 3.0), 16, 16)
    fine = s.spectral_web(qf, (2.0, 4.0, 1.0, 3.0), 32, 32)
    (c0,) = [c for c in coarse.charges if c.winding > 0]
    (c1,) = [c for c in fine.charges if c.winding > 0]
    assert abs(c1.location - c0.location) <= max(coarse.cell_size)
    r0 = s.refine_complex_root(qf, c0.location, tol=1e-10)
    r1 = s.refine_complex_root(qf, c1.location, tol=1e-10)
    assert abs(r0 - r1) < 1e-4


def test_dispersion_scan_empty_grid():
    assert s.dispersion_scan(lambda k: (lambda w: w), [], (0, 1, 0, 1)) == []


def test_dispersion_scan_tracks_moving_root():
    def family(k):
        target = k * (1.0 + 0.5j)
        return lambda w: w - target

    points = s.dispersion_scan(family, [1.0, 2.0, 3.0], (0.0, 2.0, 0.0, 2.0), 16, 16)
    assert [p.method for p in points] == ["web", "continuation", "continuation"]
    for p in points:
        assert p.omega is not None
        assert abs(p.omega - p.k * (1.0 + 0.5j)) < 1e-8


def test_dispersion_scan_repeated_k_does_not_extrapolate():
    # two roots at the same k give no predictor slope: seed at the last root
    def family(k):
        target = k * (1.0 + 0.5j)
        return lambda w: w - target

    k_grid = [1.0, 1.0, 1.0, 2.0, 3.0]
    points = s.dispersion_scan(family, k_grid, (0.0, 2.0, 0.0, 2.0), 16, 16)
    assert [p.method for p in points] == ["web"] + ["continuation"] * 4
    for p in points:
        assert abs(p.omega - p.k * (1.0 + 0.5j)) < 1e-8


def test_dispersion_scan_records_gap_then_recovers():
    def family(k):
        if k == 2.0:
            def broken(w):
                raise s.SchwarzianSLError("no evaluation at this k")
            return broken
        return lambda w: w - (1.0 + 1.0j)

    points = s.dispersion_scan(family, [1.0, 2.0, 3.0], (0.0, 2.0, 0.0, 2.0), 16, 16)
    assert points[0].omega is not None
    assert points[1].omega is None
    assert points[2].omega is not None


def test_dispersion_scan_records_a_gap_for_an_empty_recentered_window(monkeypatch):
    # the root found at k = 1 lies so far below the real axis that the
    # fallback web at k = 2, recentered on it and kept above Im = 1e-3,
    # would be empty: that k is a gap, and no web is built there
    windows = []

    def web(qf, window, nx, ny, workers):
        windows.append(window)
        return s.spectral_web(qf, window, nx, ny, workers)

    def family(k):  # no root at k = 2: its secant cannot converge
        return (lambda w: w - (0.5 - 0.8j)) if k == 1.0 else (lambda w: 1 + 0j)

    monkeypatch.setattr(s.rootfind, "spectral_web", web)
    points = s.dispersion_scan(family, [1.0, 2.0], (0.0, 1.0, -1.0, 0.0), 8, 8)
    assert [p.omega is None for p in points] == [False, True]
    assert windows == [(0.0, 1.0, -1.0, 0.0)]


class _CountingFamily:
    """qf_k(w) = (w - r(k)) (w + 5) exp(0.1i w k), counting evaluations per k."""

    def __init__(self, root):
        self.root = root
        self.calls = {}

    def __call__(self, k):
        r = self.root(k)

        def qf(w):
            self.calls[k] = self.calls.get(k, 0) + 1
            return (w - r) * (w + 5) * np.exp(0.1j * w * k)

        return qf


def test_dispersion_scan_evaluation_economy():
    # linear prediction, carried slope and the step stop: the parent's plain
    # secant from the previous root took 6.3 evaluations per continued k
    def root(k):
        return (1 + 1j) + 0.2 * k + 0.03j * k * k

    family = _CountingFamily(root)
    k_grid = np.linspace(0.5, 6.0, 23)
    points = s.dispersion_scan(family, k_grid, (0.0, 4.0, 0.1, 3.0), 12, 12)
    assert [p.method for p in points] == ["web"] + ["continuation"] * 22
    for p in points:
        assert type(p.omega) is complex
        assert abs(p.omega - root(p.k)) < 1e-10
    continued = sum(family.calls[float(k)] for k in k_grid[1:])
    assert continued <= 5 * 22


def _quadratic_path(k):
    return (1 + 1j) + 0.2 * k + 0.03j * k * k


@pytest.mark.parametrize("k_grid", [
    np.linspace(0.5, 6.0, 23),
    [6.0, 5.2, 4.9, 4.1, 3.0, 2.6, 1.5, 1.2, 0.4],  # decreasing, non-uniform
])
def test_dispersion_scan_predicts_a_quadratic_path_exactly(k_grid):
    # from the fourth root in a row on, the polynomial predictor lies on the
    # path: the seed and the Newton step on the predicted slope are all a k
    # costs, where a linear predictor's seed is off by the path's curvature
    family = _CountingFamily(_quadratic_path)
    points = s.dispersion_scan(family, k_grid, (0.0, 4.0, 0.1, 3.0), 12, 12)
    assert [p.method for p in points] == ["web"] + ["continuation"] * (len(k_grid) - 1)
    for p in points:
        assert abs(p.omega - _quadratic_path(p.k)) < 1e-10
    assert all(family.calls[float(k)] <= 2 for k in k_grid[4:])


def test_dispersion_scan_slope_polynomial_stops_at_a_missing_slope(monkeypatch):
    # the slope polynomial runs through the latest roots' slopes, one root
    # fewer than the seed's, up to the first root that carries none: here
    # the root at k = 2, so k = 3 gets no slope, k = 4 a constant, k = 5 a
    # line, and k = 6, with that root out of the row, a parabola
    def slope_of(k):
        return k + 0.5j * k * k

    passed = {}

    def refine(qf, seed, slope=None):  # the root, with the slope above
        passed[qf.k] = slope
        return s.rootfind.SecantRoot(_quadratic_path(qf.k), None if qf.k == 2.0 else slope_of(qf.k))

    def family(k):
        def qf(w):
            return w - _quadratic_path(k)
        qf.k = k
        return qf

    monkeypatch.setattr(s.rootfind, "refine_complex_root", refine)
    points = s.dispersion_scan(family, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (0.0, 2.0, 0.0, 2.0), 16, 16)
    assert [p.method for p in points] == ["web"] + ["continuation"] * 5
    assert passed[2.0] == slope_of(1.0)
    assert passed[3.0] is None
    assert passed[4.0] == slope_of(3.0)
    assert abs(passed[5.0] - (2 * slope_of(4.0) - slope_of(3.0))) < 1e-12
    assert abs(passed[6.0] - slope_of(6.0)) < 1e-12


def test_dispersion_scan_carried_slope_is_a_newton_step():
    # on a linear family the Newton step with the carried slope lands on the
    # root: a continued k costs the predicted seed and at most that point
    calls = {}

    def family(k):
        def qf(w):
            calls[k] = calls.get(k, 0) + 1
            return 2 * (w - k * (1 + 0.5j))

        return qf

    k_grid = [1.0, 2.0, 3.0, 4.0]
    points = s.dispersion_scan(family, k_grid, (0.0, 2.0, 0.0, 2.0), 16, 16)
    assert [p.method for p in points] == ["web"] + ["continuation"] * 3
    assert all(calls[k] <= 2 for k in k_grid[1:])
    for p in points:
        assert abs(p.omega - p.k * (1 + 0.5j)) < 1e-12


def test_dispersion_scan_branch_hop_falls_back_to_web():
    # the root jumps from (1.25 + 1j) towards 1.6 + 1.6j between k = 2 and 3;
    # the corrector lands 0.67 from the prediction 1.3 + 1j, farther than
    # the last continuation step of 0.1, so a recentered web decides k = 3
    def family(k):
        r = (1 + 1j) + 0.1 * k if k < 2.5 else 1.6 + 1.6j
        return lambda w: w - r

    points = s.dispersion_scan(family, [1.0, 2.0, 3.0], (0.0, 2.0, 0.0, 2.0), 16, 16)
    assert [p.method for p in points] == ["web", "continuation", "web"]
    assert abs(points[2].omega - (1.6 + 1.6j)) < 1e-12


def test_scan_real_bisection_failure_drops_crossing():
    # grid 0.5, 1.5, 2.5: the first bisection midpoint of the n = 1 bracket
    # is exactly 1.0, where the evaluation fails
    def qf(lam):
        if lam.real == 1.0:
            raise s.SchwarzianSLError("failure inside a bracket")
        return complex(lam.real)

    scan = s.scan_real(qf, (0.0, 3.0), 3)
    assert scan.failures == [(1.0, "SchwarzianSLError")]
    assert [c.n for c in scan.crossings] == [2]
    assert abs(scan.eigenvalues[0] - 2.0) < 1e-7


def singular_at_root(w):
    # one root at a plaquette centre of the 8x8 web over (0, 7, 0, 7): the
    # grid evaluates, but the secant seeded at the charge does not
    if abs(w - (3.5 + 3.5j)) < 0.25:
        raise s.SingularSurface(f"resonance at {w}")
    return w - (3.5 + 3.5j)


def test_dispersion_scan_refine_failure_is_a_gap():
    points = s.dispersion_scan(lambda k: singular_at_root, [1.0], (0, 7, 0, 7), 8, 8)
    assert points == [s.DispersionPoint(k=1.0, omega=None, method="web")]


def test_scan_real_non_finite_sample_is_a_failure():
    # a NaN returned without an error fails its grid samples, 5.25 and 5.75,
    # and the n = 3 crossing bracketed across them drops out with a record
    scan = s.scan_real(
        lambda l: complex("nan") if 5 < l.real < 6 else l.real / 2, (0, 10), 20)
    assert scan.failures == [(5.25, "NonFiniteValue"), (5.75, "NonFiniteValue")]
    assert [c.n for c in scan.crossings] == [1, 2, 4]
    assert np.isnan(scan.values).sum() == 2


def test_scan_real_non_finite_refinement_point_drops_crossing():
    # grid 1.75, 2.25: the first refinement point of n = 1 is 2.0
    def qf(lam):
        return complex("inf") if 1.9 < lam.real < 2.1 else lam.real / 2

    scan = s.scan_real(qf, (0, 10), 20)
    assert scan.failures == [(2.0, "NonFiniteValue")]
    assert [c.n for c in scan.crossings] == [2, 3, 4]


class _Counted:
    """A winding that counts its scalar calls; ``lanes`` passes through."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        if hasattr(fn, "lanes"):
            self.lanes = fn.lanes

    def __call__(self, lam):
        self.calls += 1
        return self.fn(lam)


def _refinement_evals(qf, lam_range, n_samples, rel_width=1e-8):
    counted = _Counted(qf)
    scan = s.scan_real(counted, lam_range, n_samples, rel_width)
    grid_calls = 0 if hasattr(qf, "lanes") else n_samples
    assert scan.refine_evals == counted.calls - grid_calls
    return scan, counted.calls - grid_calls


def _bisection_evals(f, a, b, rel_width=1e-8):
    """Evaluations plain bisection with the same stop rule takes on [a, b]."""
    fa, calls = f(a), 0
    while b - a > rel_width * max(abs(a), abs(b), 1e-30):
        mid = 0.5 * (a + b)
        fm = f(mid)
        calls += 1
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return calls


@pytest.mark.parametrize("winding,want", [
    (lambda l: l.real, [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]),
    (lambda l: 5.0 - l.real, [(4, 1.0), (3, 2.0), (2, 3.0), (1, 4.0)]),
    (lambda l: 0.75 * l.real + 0.5, [(2, 2.0), (3, 10 / 3)]),
])
def test_scan_real_crossing_on_a_sample_counts_once(winding, want):
    # on the grid 1, 2, 3, 4 a winding that is an integer at a sample, the
    # first and the last one included, crosses there once
    scan = s.scan_real(winding, (0.5, 4.5), 4)
    assert [c.n for c in scan.crossings] == [n for n, _ in want]
    assert np.allclose(scan.eigenvalues, [lam for _, lam in want], rtol=1e-8, atol=0)


@pytest.mark.parametrize("values,want", [
    ([0.0, 0.0, 0.0, 0.0], []),
    ([2.0, 2.0, 2.0, 2.0], []),
    ([0.5, 1.0, 0.5, 0.25], []),  # touches 1 and turns back
    ([0.5, 1.0, 1.0, 1.5], [(1, 2.0)]),  # two samples on 1: one crossing, at the first
    ([2.0, 2.0, 1.5, 1.0], [(2, 1.0), (1, 4.0)]),  # a run at the first sample
])
def test_scan_real_counts_a_sample_on_an_integer_only_where_it_passes(values, want):
    # on the grid 1, 2, 3, 4: a run of samples on an integer is one crossing
    # when the winding passes through it there, none where it stays on it
    scan = s.scan_real(lambda l: values[round(l.real) - 1], (0.5, 4.5), 4)
    assert [(c.n, c.eigenvalue) for c in scan.crossings] == want


def test_scan_real_linear_winding_refines_in_one_evaluation():
    # the crossings of l/2 sit at cell midpoints of the grid, where the
    # interpolation lands exactly: one evaluation each (bisection takes 24)
    scan, evals = _refinement_evals(lambda l: l.real / 2, (0, 10), 20)
    assert scan.eigenvalues == [2.0, 4.0, 6.0, 8.0]
    assert evals == 4


@pytest.mark.parametrize("slope,offset", [(0.37, 0.1), (3.0, -0.2), (0.05, 0.33)])
def test_scan_real_linear_winding_off_midpoint(slope, offset):
    rel_width = 1e-8
    scan, evals = _refinement_evals(lambda l: slope * l.real + offset, (0, 10), 20)
    roots = [(n - offset) / slope for n in range(1, math.ceil(10 * slope + offset))]
    roots = [r for r in roots if 0.25 < r < 9.75]
    assert len(scan.eigenvalues) == len(roots)
    for got, want in zip(scan.eigenvalues, roots):
        assert abs(got - want) <= rel_width * abs(want)
    assert evals <= 8 * len(roots)


@pytest.mark.parametrize("root", [0.61, 2.0537, 3.9781, 7.8255, 9.99])
@pytest.mark.parametrize("n_samples", [2, 5, 20])
@pytest.mark.parametrize("n", [0, 2])
def test_scan_real_flat_root_costs_at_most_one_bisection_step_more(root, n_samples, n):
    # (l - r)^3 + n: regula falsi alone crawls here, ITP keeps to bisection
    rel_width = 1e-8

    def winding(lam):
        return (lam.real - root) ** 3 + n

    lam_range = (root - 0.31, root + 0.9)
    scan, evals = _refinement_evals(winding, lam_range, n_samples, rel_width)
    assert [c.n for c in scan.crossings] == [n]
    i = np.searchsorted(scan.grid, root)
    bisection = _bisection_evals(
        lambda lam: winding(complex(lam)) - n, scan.grid[i - 1], scan.grid[i], rel_width)
    assert evals <= bisection + 1
    # with n = 2 the cube is lost below the rounding of 2, 4e-16, so the
    # winding itself locates the root only to about 1e-5
    error = abs(scan.eigenvalues[0] - root)
    assert error <= (rel_width * root if n == 0 else 1e-5)


def test_scan_real_paine_refinement_economy(paine_problem):
    tol = s.Tolerances(rel=1e-9, abs=1e-11)
    scan, evals = _refinement_evals(s.FiniteIntervalWinding(paine_problem, tol),
                                    (0.0, 200.0), 200)
    assert len(scan.crossings) == 14
    assert evals <= 5 * len(scan.crossings)
    for got, oracle in zip(scan.eigenvalues, PAINE_ORACLE):
        assert abs(got - oracle) < 1e-6 * oracle


def test_scan_real_morse_refinement_economy(morse_problem):
    scan, evals = _refinement_evals(s.AsymptoticWinding(morse_problem), (0.0, 25.0), 120)
    assert [c.n for c in scan.crossings] == [1, 2, 3, 4, 5]
    assert evals <= 5 * len(scan.crossings)
    for got, want in zip(scan.eigenvalues, MORSE_5):
        assert abs(got - want) < 1e-6 * want


def test_scan_real_harmonic_refinement_economy(harmonic_problem):
    # the levels n + 1/2 sit near cell midpoints of this grid, where even the
    # bracket's ends alone interpolate close to them: a tighter bound than
    # Paine's and Morse's
    scan, evals = _refinement_evals(s.AsymptoticWinding(harmonic_problem), (0.0, 12.0), 48)
    assert [c.n for c in scan.crossings] == list(range(1, 13))
    assert evals <= 4 * len(scan.crossings)
    for n, got in enumerate(scan.eigenvalues[:6]):  # the higher levels feel the cuts at +-6
        assert abs(got - (n + 0.5)) < 1e-7


def test_scan_real_counts_refinement_evaluations_failed_ones_included():
    # as in the non-finite refinement point case: n = 1 fails on its first
    # point, 2.0, and n = 2, 3, 4 land on their roots in one evaluation each
    qf = _Counted(lambda lam: complex("inf") if 1.9 < lam.real < 2.1 else lam.real / 2)
    scan = s.scan_real(qf, (0, 10), 20)
    assert [c.n for c in scan.crossings] == [2, 3, 4]
    assert scan.refine_evals == qf.calls - 20 == 4


def _one_crossing_within_bisection(winding, lam_range, n_samples, root, rel_width=1e-8):
    """Refine the one crossing of winding: within rel_width of root and
    within one evaluation more than bisection on its grid bracket."""
    scan, evals = _refinement_evals(winding, lam_range, n_samples, rel_width)
    assert [c.n for c in scan.crossings] == [1]
    assert abs(scan.eigenvalues[0] - root) <= rel_width * root
    i = np.searchsorted(scan.grid, root)
    bisection = _bisection_evals(
        lambda lam: winding(complex(lam)).real - 1, scan.grid[i - 1], scan.grid[i], rel_width)
    assert evals <= bisection + 1
    return scan


@pytest.mark.parametrize("failed", [(2.05,), (2.35,), (2.05, 2.35)])
def test_scan_real_refines_beside_a_failed_neighbour(failed):
    # l^3/10 crosses 1 at 10^(1/3) = 2.1544, between the samples 2.15 and
    # 2.25 of the grid 1.85, 1.95, ..., 2.55; the samples beside them fail
    def winding(lam):
        if any(abs(lam.real - x) < 1e-9 for x in failed):
            return complex("nan")
        return lam.real ** 3 / 10

    scan = _one_crossing_within_bisection(winding, (1.8, 2.6), 8, 10 ** (1 / 3))
    assert [x for x, _ in scan.failures] == pytest.approx(failed)


def test_scan_real_refines_beside_a_neighbour_that_turns_back():
    # 1.2 - (l - 2.1)^2 on the grid 1.75, 2.25, 2.75 rises, then falls
    # through 1 at 2.1 + sqrt(0.2): the samples are not monotone
    root = 2.1 + math.sqrt(0.2)
    _one_crossing_within_bisection(lambda l: 1.2 - (l.real - 2.1) ** 2, (1.5, 3.0), 3, root)
