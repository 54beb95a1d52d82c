"""Eigenvalue location.

Real spectra: sample the winding value of the quantization condition on a
grid, lane-batched where the winding offers it, bracket its crossings
through integers and refine each by ITP on an inverse interpolant through
the samples beside it (`_itp`).

Complex spectra (stability): map Psi = Arg[quantization function] on a
rectangular grid of the eigenvalue plane -- the Spectral Web.  Roots of the
quantization function appear as positive unit charges (Psi increases
counterclockwise around them), poles as negative charges; charges are
detected by summing wrapped phase differences around grid plaquettes and
then polished by complex secant iteration.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import SchwarzianSLError

QuantizationFunction = Callable[[complex], complex]

_TWO_PI = 2.0 * math.pi
_PREDICTOR_ROOTS = 4  # roots the dispersion predictor interpolates: a cubic in k


class NonFiniteValue(SchwarzianSLError):
    """A quantization function returned NaN or inf without raising."""


class NoConvergence(SchwarzianSLError):
    """Secant refinement ran out of iterations."""

    def __init__(self, message: str, last: complex, residual: float):
        super().__init__(message)
        self.last = last
        self.residual = residual


@dataclass(frozen=True)
class Crossing:
    n: int
    eigenvalue: float


@dataclass
class RealScan:
    grid: np.ndarray
    values: np.ndarray
    crossings: list[Crossing]
    failures: list[tuple[float, str]] = field(default_factory=list)
    refine_evals: int = 0  # scalar calls of the refinements, failed ones included

    @property
    def eigenvalues(self) -> list[float]:
        return [c.eigenvalue for c in self.crossings]


def scan_real(
    qf: QuantizationFunction,
    lam_range: tuple[float, float],
    n_samples: int,
    rel_width: float = 1e-8,
) -> RealScan:
    """Bracket and refine every integer crossing of the winding value.

    The grid is cell-centered inside ``lam_range`` so open-interval ranges
    (for instance ones whose endpoint would degenerate the launch state)
    are sampled safely.  It is evaluated as `spectral_web` evaluates its
    samples: by one ``qf.lanes(samples) -> (values, failure kinds)`` call
    when qf offers that lane-batched form, else one qf call each.  A
    failed sample records the name of its error, or NonFiniteValue for a
    NaN or infinite value returned without one, and is skipped.

    Each bracketed crossing is refined by ITP (`_itp`) on scalar calls of
    qf, interpolating through the finite samples beside its bracket too,
    until the bracket is at most ``rel_width`` times its larger end in
    magnitude; the midpoint of that bracket, or a point where the winding
    is exactly the integer, is the eigenvalue.  A failure there is
    recorded the same way and drops that crossing; ``refine_evals``
    counts these scalar calls, failed ones included.  A run of samples whose
    winding is exactly the integer n is one crossing, at its first sample,
    when the winding passes through n there: the samples beside the run
    lie on opposite sides of n, or only one of them is known (the run ends
    the grid or meets a failed sample).  A winding that stays on n, or
    touches it and turns back, does not cross it.
    """
    lo, hi = lam_range
    if not lo < hi:
        raise ValueError(f"scan range ({lo}, {hi}) needs lo < hi")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    width = (hi - lo) / n_samples
    grid = lo + (np.arange(n_samples) + 0.5) * width
    values, kinds = _eval_chunk(qf, grid + 0j)
    finite, failures = _sample_failures(grid.tolist(), values, kinds)
    values = np.where(finite, values.real, np.nan)
    refine_evals = 0

    def winding(lam: float) -> float:  # records its failure, then raises it
        nonlocal refine_evals
        refine_evals += 1
        try:
            value = complex(qf(complex(lam)))
            if not cmath.isfinite(value):
                raise NonFiniteValue(f"winding {value} at lambda = {lam}")
        except SchwarzianSLError as exc:
            failures.append((lam, type(exc).__name__))
            raise
        return value.real

    crossings: list[Crossing] = []
    for i in range(n_samples):
        v0 = values[i]
        if math.isnan(v0):
            continue
        if v0.is_integer() and (i == 0 or values[i - 1] != v0):  # on the sample
            j = i  # the last sample of the run on v0
            while j + 1 < n_samples and values[j + 1] == v0:
                j += 1
            before = values[i - 1] - v0 if i else math.nan
            after = values[j + 1] - v0 if j + 1 < n_samples else math.nan
            if before * after < 0.0 or math.isnan(before) != math.isnan(after):
                crossings.append(Crossing(int(v0), float(grid[i])))
        v1 = values[i + 1] if i + 1 < n_samples else math.nan
        if math.isnan(v1):
            continue
        # the integers strictly between the two samples
        for n in range(math.floor(min(v0, v1)) + 1, math.ceil(max(v0, v1))):
            a, b = float(grid[i]), float(grid[i + 1])
            known = [(float(grid[k]), values[k] - n) for k in (i - 1, i + 2)
                     if 0 <= k < n_samples and not math.isnan(values[k])]
            try:
                root = _itp(lambda lam: winding(lam) - n, a, b, v0 - n, v1 - n, rel_width,
                            known)
            except SchwarzianSLError:
                continue
            crossings.append(Crossing(n, root))
    return RealScan(grid=grid, values=values, crossings=crossings, failures=failures,
                    refine_evals=refine_evals)


# ITP's slack n0 (Oliveira and Takahashi, ACM TOMS 47(1), 2020, art. 5)
_ITP_N0 = 1


def _itp(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
    rel_width: float, known: Sequence[tuple[float, float]],
) -> float:
    """A root of f in [a, b], where fa = f(a) and fb = f(b) have opposite
    signs, by ITP (interpolate, truncate, project) on an inverse
    interpolant; ``known`` holds more points (x, f(x)) outside [a, b].

    Every evaluated point is kept.  Each step interpolates: x(f) through
    the (up to) four points nearest the bracket, by Neville's scheme, at
    f = 0 (Dekker and Brent's inverse interpolation; regula falsi on the
    bracket's ends where those points are not monotone in f), with its
    error eps estimated by the polynomial without the farthest point.  It
    truncates: the estimate moves toward the midpoint by max(2 eps, a
    quarter of the stop width), so the point lands just past the root, or
    stays when eps is 0; an end within half the stop width of the estimate
    is mirrored instead, so the bracket closes around the estimate.  It
    projects: the point is kept within a radius of the midpoint, so that
    after j steps the bracket is no wider than bisection's after j - n0:
    no crossing takes more than n0 steps beyond bisection's count.  (The
    paper's radius eps 2^(n_max - j) - (b - a)/2 with eps 2^(n_1/2) set to
    half the first width, so the bound holds for a stop width that shrinks
    with the bracket.)  Stops once b - a <= rel_width max(|a|, |b|) and
    returns the midpoint, or returns a point where f is exactly 0.
    """
    width = b - a
    points = {**dict(known), a: fa, b: fb}  # every point known, evaluated ones included
    j = 0
    while b - a > (stop := rel_width * max(abs(a), abs(b), 1e-30)):
        mid = 0.5 * (a + b)
        # after j steps the bracket is at most bisection's after j - n0
        radius = max(0.5 * (width * 2.0 ** (_ITP_N0 - j) - (b - a)), 0.0)
        near = sorted(points.items(), key=lambda p: (max(a - p[0], p[0] - b), abs(p[1])))[:4]
        steps = np.diff([fx for _, fx in sorted(near)])
        if not ((steps > 0.0).all() or (steps < 0.0).all()):
            near = sorted([(a, fa), (b, fb)], key=lambda p: abs(p[1]))  # regula falsi
        xs, fs = [x for x, _ in near], [fx for _, fx in near]
        x_e = _extrapolate(fs, xs, 0.0)
        eps = abs(x_e - _extrapolate(fs[:-1], xs[:-1], 0.0))
        near_end = min(x_e - a, b - x_e)
        floor = near_end if 2.0 * near_end <= stop else 0.25 * stop if eps else 0.0
        delta = max(2.0 * eps, floor)
        sigma = 1.0 if mid > x_e else -1.0
        x_t = x_e + sigma * delta if a < x_e < b and delta <= abs(mid - x_e) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        fx = points[x] = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        j += 1
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Charge:
    location: complex
    winding: int


@dataclass
class SpectralWeb:
    region: tuple[float, float, float, float]  # re_min, re_max, im_min, im_max
    nx: int
    ny: int
    psi: np.ndarray  # shape (nx, ny), NaN where evaluation failed
    charges: list[Charge]
    failures: list[tuple[complex, str]] = field(default_factory=list)

    def grid_re(self) -> np.ndarray:
        return np.linspace(self.region[0], self.region[1], self.nx)

    def grid_im(self) -> np.ndarray:
        return np.linspace(self.region[2], self.region[3], self.ny)

    @property
    def cell_size(self) -> tuple[float, float]:
        return (
            (self.region[1] - self.region[0]) / (self.nx - 1),
            (self.region[3] - self.region[2]) / (self.ny - 1),
        )

    def total_winding(self) -> int:
        return sum(c.winding for c in self.charges)

    def boundary_winding(self) -> int:
        """Winding of Psi along the outer rectangle, counterclockwise.

        The discrete argument principle says this equals the sum of all
        plaquette windings.  Requires a failure-free boundary.
        """
        psi = self.psi
        path = np.concatenate(
            [psi[:, 0], psi[-1, 1:], psi[-2::-1, -1], psi[0, -2::-1]]
        )  # closed: ends on psi[0, 0]
        if np.isnan(path).any():
            raise ValueError("web boundary contains failed samples")
        return round(float(_wrap_array(np.diff(path)).sum()) / _TWO_PI)


def _eval_chunk(
    qf: QuantizationFunction, samples: np.ndarray
) -> tuple[np.ndarray, list[str | None]]:
    """Values of qf over samples (NaN where it failed) and per sample None
    or the name of the error: one call of ``qf.lanes`` when qf offers it,
    else one call of qf each."""
    if hasattr(qf, "lanes"):
        return qf.lanes(samples)
    values = np.full(samples.size, np.nan, dtype=complex)
    kinds: list[str | None] = [None] * samples.size
    for i, w in enumerate(samples.tolist()):
        try:
            values[i] = qf(w)
        except SchwarzianSLError as exc:
            kinds[i] = type(exc).__name__
    return values, kinds


def _sample_failures(
    samples: list, values: np.ndarray, kinds: list[str | None]
) -> tuple[np.ndarray, list]:
    """The finite-value mask of `_eval_chunk`'s output, and (sample, kind)
    for each failed sample: the name of its error, or NonFiniteValue for a
    NaN or inf returned without one."""
    finite = np.isfinite(values)
    failures = [
        (w, kind or NonFiniteValue.__name__)
        for w, kind, ok in zip(samples, kinds, finite.tolist())
        if kind is not None or not ok
    ]
    return finite, failures


def spectral_web(
    qf: QuantizationFunction,
    region: tuple[float, float, float, float],
    nx: int,
    ny: int,
    workers: int = 1,
) -> SpectralWeb:
    """Build the phase map and detect root/pole charges.

    The samples split into ``workers`` contiguous chunks, at most one per
    CPU, one process each (this one for a single chunk), evaluated by
    ``qf.lanes(samples) -> (values, failure kinds)`` when qf offers it,
    else one qf call each.  A failed sample records the name of its error,
    or NonFiniteValue for a NaN or infinite value returned without one.

    A plaquette is charged when the wrapped phase differences around its
    four edges do not cancel (|sum| > pi); adjacent charged plaquettes of
    the same sign cluster into one charge at their centroid.  Plaquettes
    touching failed samples are excluded.
    """
    if nx < 8 or ny < 8:
        raise ValueError("web grid must be at least 8x8")
    _check_region(region)
    re = np.linspace(region[0], region[1], nx)
    im = np.linspace(region[2], region[3], ny)
    ww = (re[:, None] + 1j * im[None, :]).ravel()
    chunks = np.array_split(ww, max(1, min(workers, os.cpu_count() or 1, ww.size)))
    if len(chunks) == 1:
        parts = [_eval_chunk(qf, ww)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled web pays its import

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_eval_chunk, [qf] * len(chunks), chunks))
    values = np.concatenate([p[0] for p in parts])
    kinds = [kind for p in parts for kind in p[1]]
    finite, failures = _sample_failures(ww.tolist(), values, kinds)
    psi = np.where(finite, np.angle(values), np.nan).reshape(nx, ny)

    d_re = _wrap_array(np.diff(psi, axis=0))  # (nx-1, ny)
    d_im = _wrap_array(np.diff(psi, axis=1))  # (nx, ny-1)
    loop = d_re[:, :-1] + d_im[1:, :] - d_re[:, 1:] - d_im[:-1, :]
    winding = np.zeros_like(loop, dtype=int)
    valid = ~np.isnan(loop)
    winding[valid] = np.rint(loop[valid] / _TWO_PI).astype(int)

    charges = _cluster_charges(winding, re, im)
    return SpectralWeb(
        region=tuple(region),
        nx=nx,
        ny=ny,
        psi=psi,
        charges=charges,
        failures=failures,
    )


def _check_region(region: tuple[float, float, float, float]) -> None:
    if not (region[0] < region[1] and region[2] < region[3]):
        raise ValueError(f"web region {tuple(region)} needs re_min < re_max and im_min < im_max")


def _wrap_array(d: np.ndarray) -> np.ndarray:
    return (d + math.pi) % _TWO_PI - math.pi


def _cluster_charges(
    winding: np.ndarray, re: np.ndarray, im: np.ndarray
) -> list[Charge]:
    """4-adjacency connected components of same-sign charged plaquettes."""
    charges: list[Charge] = []
    charged = np.argwhere(winding != 0)
    seen: set[tuple[int, int]] = set()
    index = {(int(i), int(j)) for i, j in charged}
    for seed in sorted(index):
        if seed in seen:
            continue
        sign = np.sign(winding[seed])
        stack = [seed]
        members: list[tuple[int, int]] = []
        seen.add(seed)
        while stack:
            cell = stack.pop()
            members.append(cell)
            i, j = cell
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in index and nb not in seen and np.sign(winding[nb]) == sign:
                    seen.add(nb)
                    stack.append(nb)
        total = int(sum(winding[m] for m in members))
        centers = [
            0.5 * (re[i] + re[i + 1]) + 0.5j * (im[j] + im[j + 1]) for i, j in members
        ]
        charges.append(Charge(location=complex(np.mean(centers)), winding=total))
    charges.sort(key=lambda c: (c.location.real, c.location.imag))
    return charges


class SecantRoot(complex):
    """A root from `refine_complex_root`: a ``complex`` that also carries the
    final secant slope (the slope passed in, or None, when the seed was
    already a root)."""

    __slots__ = ("slope",)

    def __new__(cls, value: complex, slope: complex | None):
        root = super().__new__(cls, value)
        root.slope = slope
        return root

    def __getnewargs__(self):  # complex's would give (real, imag)
        return complex(self), self.slope


def refine_complex_root(
    qf: QuantizationFunction,
    seed: complex,
    tol: float = 1e-10,
    max_iter: int = 50,
    slope: complex | None = None,
) -> SecantRoot:
    """Polish a root estimate by secant iteration in the complex plane.

    The first step is a Newton step with ``slope`` (an estimate of qf' near
    the root, such as the slope a neighbouring root converged with), or,
    without one, a probe at a fixed small offset from the seed.  Every
    later step is a secant step, on a slope from two evaluations of this
    call.  Converged when such a step moves the iterate w by at most
    tol*|w|; that iterate is returned without evaluating qf there, with
    the last secant slope.  A first step on the ``slope`` passed in is
    always evaluated, as a tiny step there shows only that the slope is
    steep, not that w is near a root.  Raises NonFiniteValue at the first
    NaN or infinite value, and NoConvergence (carrying the last iterate and
    residual) after ``max_iter`` further evaluations.
    """
    def value(w: complex) -> complex:
        f = complex(qf(w))
        if not cmath.isfinite(f):
            raise NonFiniteValue(f"quantization value {f} at {w}")
        return f

    w = complex(seed)
    f = value(w)
    if f == 0.0:
        return SecantRoot(w, slope)
    for i in range(max_iter):
        if not slope:
            w_next = w + 1e-4 * max(1.0, abs(w)) * (1.0 + 0.5j)
        else:
            w_next = w - f / slope
            # from i = 1 on, slope is the secant through two evaluations
            if i and abs(w_next - w) <= tol * abs(w_next):
                return SecantRoot(w_next, slope)
        f_next = value(w_next)
        if f_next == f:
            break
        slope = (f_next - f) / (w_next - w)
        w, f = w_next, f_next
    raise NoConvergence(
        f"secant did not converge from seed {seed}: residual {abs(f)}",
        last=w,
        residual=abs(f),
    )


@dataclass(frozen=True)
class DispersionPoint:
    k: float
    omega: complex | None  # None marks a gap (root lost at this k)
    method: str = "web"


def dispersion_scan(
    problem_family: Callable[[float], QuantizationFunction],
    k_grid: Sequence[float],
    region: tuple[float, float, float, float],
    nx: int = 64,
    ny: int = 64,
    workers: int = 1,
) -> list[DispersionPoint]:
    """Track the most unstable root along a wavenumber grid.

    The first grid point gets a full web over ``region``.  Afterwards each
    k is a predictor-corrector continuation step (Allgower and Georg,
    *Introduction to Numerical Continuation Methods*, ch. 2): the seed is
    the polynomial through the last roots found in a row at distinct k, up
    to `_PREDICTOR_ROOTS` (a row restarts after the first web, a gap or a
    fallback web), and the secant corrector starts with a Newton step on
    the polynomial through their final slopes, one degree lower, the latest
    first and up to a root without one.  A corrected root farther from the
    prediction than the last continuation step has hopped to another
    branch; that, and a corrector failure, fall back to a fresh web
    recentered on the last root, kept above Im omega = 1e-3.  Lost roots
    are recorded as gaps rather than aborting the scan, and so is a k whose
    recentered window would lie wholly below that floor.
    """
    _check_region(region)
    points: list[DispersionPoint] = []
    branch: list[tuple[float, SecantRoot]] = []  # last roots found in a row
    span_re = region[1] - region[0]
    span_im = region[3] - region[2]
    for k in k_grid:
        k = float(k)
        qf = problem_family(k)
        root: SecantRoot | None = None
        method = "web"
        if branch:
            ks, ws = zip(*branch[::-1])  # the latest first
            w1 = ws[0]
            hop = abs(w1 - ws[1]) if len(ws) > 1 else math.inf  # the last step
            slopes = [w.slope for w in ws[:max(1, len(ws) - 1)]]  # one degree lower
            slopes = slopes[:slopes.index(None)] if None in slopes else slopes
            seed = _extrapolate(ks, ws, k)
            try:
                found = refine_complex_root(
                    qf, seed, slope=_extrapolate(ks, slopes, k) if slopes else None)
                if abs(found - seed) <= hop:
                    root, method = found, "continuation"
            except SchwarzianSLError:
                pass
        if root is None:
            if not branch:
                window = tuple(region)
            else:  # recentered on the last root, w1: empty if w1 lies too low
                window = (
                    w1.real - span_re / 2.0,
                    w1.real + span_re / 2.0,
                    max(w1.imag - span_im / 2.0, 1e-3),
                    w1.imag + span_im / 2.0,
                )
            roots = []
            if window[2] < window[3]:
                web = spectral_web(qf, window, nx, ny, workers)
                roots = [c for c in web.charges if c.winding > 0]
            if roots:
                seed = max(roots, key=lambda c: c.location.imag).location
                try:
                    root = refine_complex_root(qf, seed)
                except SchwarzianSLError:
                    pass
        points.append(DispersionPoint(
            k=k, omega=None if root is None else complex(root), method=method))
        if root is None:
            branch = branch[-1:]
        elif method == "web":
            branch = [(k, root)]
        else:  # the latest root at each distinct k
            branch = [(kb, wb) for kb, wb in branch if kb != k][1 - _PREDICTOR_ROOTS:] + [(k, root)]
    return points


def _extrapolate(ks: Sequence[float], values: Sequence[complex], k: float) -> complex:
    """The polynomial through (ks[i], values[i]) for every value, at k
    (Neville's scheme)."""
    p = list(values)
    for j in range(1, len(p)):
        for i in range(len(p) - j):
            p[i] = ((k - ks[i + j]) * p[i] - (k - ks[i]) * p[i + 1]) / (ks[i] - ks[i + j])
    return p[0]
