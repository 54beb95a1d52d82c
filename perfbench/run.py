"""Benchmark of the four schwarzian-sl solver paths, end to end and by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each repetition runs one ``schwarzian-sl`` command,
in-process through ``schwarzian_sl.cli.main``, in a fresh interpreter
(child.py), and is checked against references made apart from the
program (checks.py).  Progress and check details go to stderr; the last
stdout line is one JSON object with ``correct``, ``attempted`` (results
checked), ``failed`` (checks failed) and ``metrics``.

--trace 0 repeats the command while another repetition fits in
--seconds (at least twice) and reports the medians of wall_s, cpu_s,
peak_rss_mb and setup_s.  --trace 1 runs pairs of one untraced and one
traced single-process command (tracer.py) while another pair fits in
--seconds (at least once), and reports the per-layer medians plus the
tracing overhead.  Outputs go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).with_name("child.py")

DEADLINE_S = 170.0   # the whole run ends within 180 s
MIN_REPS = 2
SETUP_PROBES = 8

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.prepare_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "rootfind.scan_s": "s",
    "rootfind.scan.grid_evals": "count",
    "rootfind.scan.bisect_evals": "count",
    "rootfind.web_s": "s",
    "rootfind.web.samples": "count",
    "rootfind.web.eval_s": "s",
    "rootfind.web.detect_s": "s",
    "rootfind.web.failed_samples": "count",
    "rootfind.refine_s": "s",
    "rootfind.refine.calls": "count",
    "rootfind.refine.evals": "count",
    "rootfind.dispersion.continued": "count",
    "rootfind.dispersion.web_fallbacks": "count",
    "mhd.jet_quantization.calls": "count",
    "mhd.jet_quantization_ms": "ms",
    "mhd.y1_rhs_us": "us",
    "schwarzian.solve_asymptotic.calls": "count",
    "schwarzian.solve_asymptotic_ms": "ms",
    "schwarzian.phi_rhs_us": "us",
    "schwarzian.g_rhs_us": "us",
    "minimalist.solve_finite_interval.calls": "count",
    "minimalist.solve_finite_interval_ms": "ms",
    "minimalist.phase_rhs_us": "us",
    "integrate.legs": "count",
    "integrate.rhs_calls": "count",
    "integrate.rhs_s": "s",
    "integrate.self_s": "s",
    "integrate.step_us": "us",
    "integrate.event_legs": "count",
    "integrate.step_failure_legs": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


# -- workloads ---------------------------------------------------------------
#
# The seed draws sub-cell shifts of the scan range, web region and k grid:
# the work stays the same size and every check must hold on every seed.

@dataclass(frozen=True)
class Workload:
    args: Callable[[random.Random], list[str]]
    check: Callable[[str, str, list[str]], list[checks.Check]]


def _pair(a: float, b: float) -> str:
    return f"{a!r},{b!r}"


def _paine_args(rng: random.Random) -> list[str]:
    lo, hi, samples = 0.0, 200.0, 200
    shift = rng.random() * 0.5 * (hi - lo) / samples
    return ["solve", "--problem", "paine", "--range", _pair(lo + shift, hi + shift),
            "--samples", str(samples), "--rel", "1e-9", "--abs", "1e-11"]


def _morse_args(rng: random.Random) -> list[str]:
    lo, hi, samples = 0.0, 25.0, 120
    shift = rng.random() * 0.5 * (hi - lo) / samples
    return ["solve", "--problem", "morse", "--method", "schwarzian-g",
            "--range", _pair(lo + shift, hi + shift), "--samples", str(samples)]


def _region(rng: random.Random, region: tuple[float, ...], n: int) -> str:
    re_min, re_max, im_min, im_max = region
    d_re = rng.random() * 0.5 * (re_max - re_min) / (n - 1)
    d_im = rng.random() * 0.5 * (im_max - im_min) / (n - 1)
    return ",".join(repr(v) for v in (re_min + d_re, re_max + d_re,
                                      im_min + d_im, im_max + d_im))


WEB_GRID = 48


def _web_args(rng: random.Random) -> list[str]:
    return ["web", "--problem", "cohn",
            "--region", _region(rng, (0.5, 5.5, 0.1, 3.9), WEB_GRID),
            "--grid", f"{WEB_GRID}x{WEB_GRID}", "--rel", "1e-6", "--abs", "1e-9",
            "--threads", "2"]


K_LO, K_HI, K_COUNT = 0.5, 8.0, 76
DISPERSION_GRID = 12


def _dispersion_args(rng: random.Random) -> list[str]:
    shift = rng.random() * 0.5 * (K_HI - K_LO) / (K_COUNT - 1)
    return ["dispersion", "--problem", "cohn", "--threads", "1", "--rel", "1e-8",
            "--kgrid", f"{K_LO + shift!r},{K_HI + shift!r},{K_COUNT}",
            "--region", _region(rng, (0.05, 3.0, 0.05, 2.0), DISPERSION_GRID),
            "--grid", f"{DISPERSION_GRID}x{DISPERSION_GRID}"]


def _check_paine(text: str, stdout: str, argv: list[str]) -> list[checks.Check]:
    eigenvalues = [w.real for w in checks.spectrum_from_csv(text)]
    return checks.check_paine(eigenvalues, checks.paine_reference())


def _check_morse(text: str, stdout: str, argv: list[str]) -> list[checks.Check]:
    return checks.check_morse(checks.spectrum_from_csv(text))


def _check_web(text: str, stdout: str, argv: list[str]) -> list[checks.Check]:
    web = checks.web_from_output(text, stdout)
    out = checks.check_web(web)
    if len(web.roots) == 1:
        # pi is the catalog's cohn wavenumber
        out.append(checks.check_repolish("web.phi_repolish", np.pi, web.roots[0]))
    else:
        out.append(("web.phi_repolish", False, f"{len(web.roots)} refined roots"))
    return out


def _check_dispersion(text: str, stdout: str, argv: list[str]) -> list[checks.Check]:
    ks, omegas = checks.dispersion_from_csv(text)
    lo, hi, count = argv[argv.index("--kgrid") + 1].split(",")
    n = int(count)
    out = checks.check_dispersion(ks, omegas,
                                  np.linspace(float(lo), float(hi), n).tolist())
    for i in (0, n // 2, n - 1):
        name = f"dispersion.phi_repolish.{i}"
        if i < len(ks) and np.isfinite(omegas[i].real):
            out.append(checks.check_repolish(name, ks[i], omegas[i]))
        else:
            out.append((name, False, f"no root at grid index {i}"))
    return out


WORKLOADS = {
    "paine-spectrum": Workload(_paine_args, _check_paine),
    "morse-spectrum": Workload(_morse_args, _check_morse),
    "jet-web": Workload(_web_args, _check_web),
    "jet-dispersion": Workload(_dispersion_args, _check_dispersion),
}


# -- running -------------------------------------------------------------------

class Runner:
    def __init__(self, name: str, workload: Workload, argv: list[str]) -> None:
        self.name = name
        self.workload = workload
        self.argv = argv
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self._checked: dict[str, list[checks.Check]] = {}
        self._env = {**os.environ, "PYTHONPATH": str(SRC)}

    def child(self, mode: str, argv: list[str], out: Path | None = None) -> dict:
        left = DEADLINE_S - self.elapsed()
        if left <= 0:
            raise BenchError("out of time before the run finished")
        tail = ["--out", str(out)] if out is not None else []
        cmd = [sys.executable, str(CHILD), repr(time.monotonic()), mode, str(SRC),
               "--", *argv, *tail]
        proc = subprocess.Popen(cmd, env=self._env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            _kill_session(proc.pid)
            proc.communicate()
            raise BenchError(f"{mode} run exceeded the time limit")
        _kill_session(proc.pid)  # anything the command left behind
        if proc.returncode != 0:
            raise BenchError(f"{mode} run exited {proc.returncode}: {stderr.strip()}")
        result = json.loads(stdout.strip().splitlines()[-1])
        if result.get("exit_code", 0) != 0:
            raise BenchError(f"schwarzian-sl exited {result['exit_code']}: "
                             f"{stderr.strip()}")
        return result

    def verify(self, out: Path, stdout: str, reference: bytes | None) -> bytes:
        """Check one output file; returns its bytes.

        Byte-identical repeats of an output already checked reuse that
        check's outcome; any repeat must be byte-identical to ``reference``.
        """
        data = out.read_bytes()
        digest = hashlib.sha256(data + stdout.encode()).hexdigest()
        if digest not in self._checked:
            try:
                found = self.workload.check(data.decode(), stdout, self.argv)
            except (ValueError, KeyError, IndexError) as exc:
                found = [("output.readable", False, f"{type(exc).__name__}: {exc}")]
            self._checked[digest] = found
            print(f"[{self.name}] output sha256 {hashlib.sha256(data).hexdigest()}",
                  file=sys.stderr)
        results = list(self._checked[digest])
        if reference is not None:
            results.append(("output.byte_identical", data == reference,
                            "output equals the first repetition's"))
        for name, ok, detail in results:
            if not ok:
                print(f"[{self.name}] CHECK FAILED {name}: {detail}", file=sys.stderr)
        self.attempted += len(results)
        self.failed += sum(1 for _, ok, _ in results if not ok)
        return data

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Budget:
    """Repeat while another cycle, as long as the last one, fits in
    ``seconds`` -- at least ``minimum`` times."""

    def __init__(self, seconds: float, minimum: int) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.t0 = self._last = time.monotonic()
        self.cycles = 0

    def another(self) -> bool:
        now = time.monotonic()
        last, self._last = now - self._last, now
        self.cycles += 1
        return self.cycles <= self.minimum or now - self.t0 + last <= self.seconds


def _threads(argv: list[str]) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


def run_untraced(runner: Runner, seconds: float) -> dict:
    OUT.mkdir(exist_ok=True)
    # On a VM whose vCPUs share a host, the host holds them off the
    # processor for minutes at a time ("steal", 10% of a run or more),
    # which no run length averages out.  wall_s leaves that time out: the
    # steal summed over vCPUs, shared by the processes the command keeps busy.
    busy = min(_threads(runner.argv), os.cpu_count() or 1)
    out = OUT / f"{runner.name}.csv"
    runner.child("import", [])  # fills the bytecode and file caches
    setups = [runner.child("import", [])["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    reference = None
    budget = Budget(seconds, MIN_REPS)
    while budget.another():
        rep = runner.child("run", runner.argv, out)
        reference = runner.verify(out, rep["stdout"], reference)
        elapsed = rep["wall_s"]
        rep["wall_s"] = elapsed - rep["steal_s"] / busy
        reps.append(rep)
        setups.append(rep["setup_s"])
        print(f"[{runner.name}] rep {len(reps)}: wall {rep['wall_s']:.3f} s "
              f"(elapsed {elapsed:.3f} s, steal {rep['steal_s']:.2f} s), "
              f"cpu {rep['cpu_s']:.3f} s, rss {rep['peak_rss_mb']:.1f} MB, "
              f"setup {rep['setup_s']:.3f} s", file=sys.stderr)
    metrics = {name: _metric(statistics.median(r[name] for r in reps), unit)
               for name, unit in END_TO_END.items() if name != "setup_s"}
    metrics["setup_s"] = _metric(statistics.median(setups), "s")
    return metrics


def _single_process(argv: list[str]) -> list[str]:
    if "--threads" not in argv:
        return argv
    i = argv.index("--threads")
    return argv[:i] + ["--threads", "1"] + argv[i + 2:]


def run_traced(runner: Runner, seconds: float) -> dict:
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{runner.name}.trace.csv"
    argv = _single_process(runner.argv)
    layers: list[dict] = []
    reference = None
    budget = Budget(seconds, 1)
    while budget.another():
        plain = runner.child("run", argv, out)
        reference = runner.verify(out, plain["stdout"], reference)
        traced = runner.child("trace", argv, out)
        runner.verify(out, traced["stdout"], reference)
        row = dict(traced["layers"], **{"trace.overhead_s":
                                        traced["wall_s"] - plain["wall_s"]})
        layers.append(row)
        print(f"[{runner.name}] traced wall {traced['wall_s']:.3f} s, untraced "
              f"{plain['wall_s']:.3f} s", file=sys.stderr)
        (OUT / f"{runner.name}.trace.json").write_text(json.dumps(
            {"argv": argv, "layers": row, "spans": traced["spans"]}) + "\n")
    return {name: _metric(statistics.median(r[name] for r in layers), unit)
            for name, unit in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "schwarzian_sl" / "__init__.py").is_file():
        print(f"error: no schwarzian_sl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, workload, workload.args(random.Random(args.seed)))
    print(f"[{args.workload}] schwarzian-sl {' '.join(runner.argv)}", file=sys.stderr)
    try:
        if args.trace:
            metrics = run_traced(runner, args.seconds)
        else:
            metrics = run_untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
