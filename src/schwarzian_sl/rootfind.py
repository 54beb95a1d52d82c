"""Eigenvalue location.

Real spectra: sample the winding value of the quantization condition on a
grid, bracket its crossings through integers and refine by bisection.

Complex spectra (stability): map Psi = Arg[quantization function] on a
rectangular grid of the eigenvalue plane -- the Spectral Web.  Roots of the
quantization function appear as positive unit charges (Psi increases
counterclockwise around them), poles as negative charges; charges are
detected by summing wrapped phase differences around grid plaquettes and
then polished by complex secant iteration.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import SchwarzianSLError

QuantizationFunction = Callable[[complex], complex]

_TWO_PI = 2.0 * math.pi


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
    are sampled safely.  Failed samples are recorded and skipped; a failure
    at a bisection midpoint is recorded and drops that crossing.
    """
    lo, hi = lam_range
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    width = (hi - lo) / n_samples
    grid = lo + (np.arange(n_samples) + 0.5) * width
    values = np.full(n_samples, np.nan)
    failures: list[tuple[float, str]] = []
    for i, lam in enumerate(grid):
        try:
            values[i] = complex(qf(complex(lam))).real
        except SchwarzianSLError as exc:
            failures.append((float(lam), str(exc)))

    def winding(lam: float) -> float:
        return complex(qf(complex(lam))).real

    crossings: list[Crossing] = []
    for i in range(n_samples - 1):
        v0, v1 = values[i], values[i + 1]
        if math.isnan(v0) or math.isnan(v1):
            continue
        n_lo = math.floor(min(v0, v1)) + 1
        n_hi = math.ceil(max(v0, v1)) - 1
        for n in range(n_lo, n_hi + 1):
            a, b = float(grid[i]), float(grid[i + 1])
            fa, fb = v0 - n, v1 - n
            if fa == 0.0:
                crossings.append(Crossing(n, a))
                continue
            if fa * fb > 0.0:
                continue
            try:
                while b - a > rel_width * max(abs(a), abs(b), 1e-30):
                    mid = 0.5 * (a + b)
                    fm = winding(mid) - n
                    if fa * fm <= 0.0:
                        b = mid
                    else:
                        a, fa = mid, fm
            except SchwarzianSLError as exc:
                failures.append((mid, str(exc)))
                continue
            crossings.append(Crossing(n, 0.5 * (a + b)))
    return RealScan(grid=grid, values=values, crossings=crossings, failures=failures)


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


def spectral_web(
    qf: QuantizationFunction,
    region: tuple[float, float, float, float],
    nx: int,
    ny: int,
    workers: int = 1,
) -> SpectralWeb:
    """Build the phase map and detect root/pole charges.

    The samples split into ``workers`` contiguous chunks, one process each
    (this one for a single chunk), evaluated by ``qf.lanes(samples) ->
    (values, failure kinds)`` when qf offers that lane-batched form, else
    one qf call each.  A failed sample records the name of its error, or
    NonFiniteValue for a NaN or infinite value returned without one.

    A plaquette is charged when the wrapped phase differences around its
    four edges do not cancel (|sum| > pi); adjacent charged plaquettes of
    the same sign cluster into one charge at their centroid.  Plaquettes
    touching failed samples are excluded.
    """
    if nx < 8 or ny < 8:
        raise ValueError("web grid must be at least 8x8")
    re = np.linspace(region[0], region[1], nx)
    im = np.linspace(region[2], region[3], ny)
    ww = (re[:, None] + 1j * im[None, :]).ravel()
    chunks = np.array_split(ww, max(1, min(workers, ww.size)))
    if len(chunks) == 1:
        parts = [_eval_chunk(qf, ww)]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_eval_chunk, [qf] * len(chunks), chunks))
    values = np.concatenate([p[0] for p in parts])
    kinds = [kind for p in parts for kind in p[1]]
    finite = np.isfinite(values)  # NaN or inf without an error fails too
    failures = [
        (complex(w), kind or "NonFiniteValue")
        for w, kind, ok in zip(ww, kinds, finite)
        if kind is not None or not ok
    ]
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
    later step is a secant step.  Converged when the next iterate w moves
    by at most tol*|w|; that iterate is returned without evaluating qf
    there, with the last secant slope.  Raises NoConvergence (carrying the
    last iterate and residual) after ``max_iter`` further evaluations.
    """
    w = complex(seed)
    f = complex(qf(w))
    if f == 0.0:
        return SecantRoot(w, slope)
    for _ in range(max_iter):
        if not slope:
            w_next = w + 1e-4 * max(1.0, abs(w)) * (1.0 + 0.5j)
        else:
            w_next = w - f / slope
            if abs(w_next - w) <= tol * abs(w_next):
                return SecantRoot(w_next, slope)
        f_next = complex(qf(w_next))
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
    the linear extrapolation of the last two roots found in a row, or the
    last root when there is only one (after the first web, a gap or a
    fallback web), and the secant corrector starts with a Newton step on
    the slope the last root converged with.  A corrected root farther from
    the prediction than the last continuation step has hopped to another
    branch; that, and a corrector failure, fall back to a fresh web
    recentered on the last root.  Lost roots are recorded as gaps rather
    than aborting the scan.
    """
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
            (k0, w0), (k1, w1) = branch[0], branch[-1]
            seed, hop = w1, math.inf
            if k0 != k1:  # two roots at distinct k: predict, guard the hop
                seed = w1 + (w1 - w0) * (k - k1) / (k1 - k0)
                hop = abs(w1 - w0)
            try:
                found = refine_complex_root(qf, seed, slope=w1.slope)
                if abs(found - seed) <= hop:
                    root, method = found, "continuation"
            except SchwarzianSLError:
                pass
        if root is None:
            if not branch:
                window = tuple(region)
            else:  # recentered on the last root, w1
                window = (
                    w1.real - span_re / 2.0,
                    w1.real + span_re / 2.0,
                    max(w1.imag - span_im / 2.0, 1e-3),
                    w1.imag + span_im / 2.0,
                )
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
        else:
            branch = (branch[-1:] if method == "continuation" else []) + [(k, root)]
    return points
