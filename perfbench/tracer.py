"""Layer tracing from outside the package.

``Tracer.install()`` replaces the public entry points of each layer with
timing wrappers.  ``cli``, ``mhd``, ``minimalist`` and the package
``__init__`` import their callees by name, so every module's own binding
of a name is replaced, not just the defining one.

Down to the quantization layer each call is one span (name, start, end,
parent), kept in memory.  Below it -- integration legs and rhs calls --
only counts and total times are kept, so tracing a web does not store a
span per rhs call.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from schwarzian_sl import cli
from schwarzian_sl.integrate import OdeSystem, StopReason
from schwarzian_sl.mhd import JetQuantizationFunction

_PACKAGE = "schwarzian_sl"

# (defining module, function name) -> span name
_SPANNED = {
    ("rootfind", "scan_real"): "rootfind.scan",
    ("rootfind", "spectral_web"): "rootfind.web",
    ("rootfind", "refine_complex_root"): "rootfind.refine",
    ("rootfind", "dispersion_scan"): "rootfind.dispersion",
    ("schwarzian", "solve_asymptotic"): "schwarzian.solve_asymptotic",
    ("minimalist", "solve_finite_interval"): "minimalist.solve_finite_interval",
    ("io", "write_csv"): "io.write",
    ("io", "write_json"): "io.write",
}
_JET_SPAN = "mhd.jet_quantization"
_QUANTIZATION_SPANS = (
    _JET_SPAN, "schwarzian.solve_asymptotic", "minimalist.solve_finite_interval",
)

# A Dormand-Prince leg makes one rhs call at the launch point, one in the
# initial-step estimate, then six per attempted step (FSAL).
_START_CALLS = 2
_CALLS_PER_STEP = 6


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


@dataclass
class LegTotals:
    legs: int = 0
    rhs_calls: int = 0
    rhs_s: float = 0.0
    total_s: float = 0.0
    steps: int = 0
    stops: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.legs = LegTotals()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "rootfind.scan":
                span.info["grid"] = len(result.grid)
            elif name == "rootfind.web":
                span.info["samples"] = result.psi.size
                span.info["failed"] = len(result.failures)
            elif name == "rootfind.dispersion":
                span.info["continued"] = sum(
                    1 for p in result if p.method == "continuation")
            elif name == "io.write":
                span.info["bytes"] = Path(result).stat().st_size
            return result

        return wrapper

    # -- integration legs (aggregated) ---------------------------------
    def counted_integrate(self, fn):
        legs = self.legs

        def wrapper(sys_, *args, **kwargs):
            rhs = sys_.rhs
            calls = 0
            rhs_s = 0.0

            def timed_rhs(x, y, lam):
                nonlocal calls, rhs_s
                t = time.perf_counter()
                try:
                    return rhs(x, y, lam)
                finally:
                    rhs_s += time.perf_counter() - t
                    calls += 1

            t0 = time.perf_counter()
            try:
                traj = fn(OdeSystem(sys_.dimension, timed_rhs), *args, **kwargs)
            finally:
                legs.total_s += time.perf_counter() - t0
                legs.legs += 1
                legs.rhs_calls += calls
                legs.rhs_s += rhs_s
                legs.steps += max(0, calls - _START_CALLS + _CALLS_PER_STEP - 1) \
                    // _CALLS_PER_STEP
            reason = traj.stop_reason.value
            legs.stops[reason] = legs.stops.get(reason, 0) + 1
            return traj

        return wrapper

    # -- installation --------------------------------------------------
    def _replace(self, owner, name: str, new) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == _PACKAGE or key.startswith(_PACKAGE + ".")]
        originals = {}
        for (mod, fname), span_name in _SPANNED.items():
            fn = getattr(sys.modules[f"{_PACKAGE}.{mod}"], fname)
            originals[fn] = self.spanned(span_name, fn)
        integrate_fn = sys.modules[f"{_PACKAGE}.integrate"].integrate
        originals[integrate_fn] = self.counted_integrate(integrate_fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    self._replace(module, name, originals[value])
        self._replace(JetQuantizationFunction, "__call__",
                      self.spanned(_JET_SPAN, JetQuantizationFunction.__call__))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def run_cli(self, argv: list[str]) -> int:
        """cli.main as the root span."""
        span = self._open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self._close(span)

    def span_records(self) -> list[dict]:
        """Spans as written out: times in seconds from the root span's start."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": index[id(s.parent)] if s.parent else None}
                for s in self.spans]

    # -- metrics -------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(name: str) -> list[Span]:
            return by_name.get(name, [])

        def total(name: str) -> float:
            return sum(s.duration for s in spans(name))

        def evals(name: str) -> list[Span]:
            return [c for s in spans(name) for c in s.children
                    if c.name in _QUANTIZATION_SPANS]

        def median_ms(name: str) -> float:
            got = spans(name)
            return statistics.median(s.duration for s in got) * 1e3 if got else 0.0

        def info(name: str, key: str) -> float:
            return sum(s.info[key] for s in spans(name))

        (main,) = spans("cli.main")
        first_child = min((c.start for c in main.children), default=main.end)
        grid_evals = info("rootfind.scan", "grid")
        # the first web of a dispersion scan is its start, not a fallback
        fallbacks = sum(max(0, sum(c.name == "rootfind.web" for c in d.children) - 1)
                        for d in spans("rootfind.dispersion"))
        legs = self.legs
        integrate_self = legs.total_s - legs.rhs_s
        values = {
            "cli.prepare_s": first_child - main.start,
            "io.write_s": total("io.write"),
            "io.bytes_written": info("io.write", "bytes"),
            "rootfind.scan_s": total("rootfind.scan"),
            "rootfind.scan.grid_evals": grid_evals,
            "rootfind.scan.bisect_evals": len(evals("rootfind.scan")) - grid_evals,
            "rootfind.web_s": total("rootfind.web"),
            "rootfind.web.samples": info("rootfind.web", "samples"),
            "rootfind.web.eval_s": sum(c.duration for c in evals("rootfind.web")),
            "rootfind.web.detect_s": sum(s.self_s for s in spans("rootfind.web")),
            "rootfind.web.failed_samples": info("rootfind.web", "failed"),
            "rootfind.refine_s": total("rootfind.refine"),
            "rootfind.refine.calls": len(spans("rootfind.refine")),
            "rootfind.refine.evals": len(evals("rootfind.refine")),
            "rootfind.dispersion.continued": info("rootfind.dispersion", "continued"),
            "rootfind.dispersion.web_fallbacks": fallbacks,
            "mhd.jet_quantization.calls": len(spans(_JET_SPAN)),
            "mhd.jet_quantization_ms": median_ms(_JET_SPAN),
            "schwarzian.solve_asymptotic.calls": len(spans("schwarzian.solve_asymptotic")),
            "schwarzian.solve_asymptotic_ms": median_ms("schwarzian.solve_asymptotic"),
            "minimalist.solve_finite_interval.calls": len(
                spans("minimalist.solve_finite_interval")),
            "minimalist.solve_finite_interval_ms": median_ms(
                "minimalist.solve_finite_interval"),
            "integrate.legs": legs.legs,
            "integrate.rhs_calls": legs.rhs_calls,
            "integrate.rhs_s": legs.rhs_s,
            "integrate.self_s": integrate_self,
            "integrate.step_us": integrate_self / legs.steps * 1e6 if legs.steps else 0.0,
            "integrate.event_legs": legs.stops.get(StopReason.EVENT_FIRED.value, 0),
            "integrate.step_failure_legs": legs.stops.get(StopReason.STEP_FAILURE.value, 0),
        }
        return {name: float(value) for name, value in values.items()}
