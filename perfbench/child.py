"""One fresh-interpreter run of a schwarzian-sl command, for run.py.

Usage: python3 child.py SPAWNED MODE SRC -- CLI-ARGS...

SPAWNED is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start-up plus the package import.  MODE is ``import`` (set-up
only), ``run`` (time ``cli.main`` with tracing off) or ``trace`` (run under
the layer tracer, then time each layer-1 rhs).  SRC is the ``src``
directory the package must be imported from.  The last stdout line is a
JSON object with the measurements and the command's own stdout.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def _own_peak_kib() -> int:
    """VmHWM: peak RSS since this interpreter was exec'd.  ru_maxrss of
    RUSAGE_SELF would also count the parent's pages copied at fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _steal_s() -> float:
    """Seconds the hypervisor kept the VM's vCPUs waiting while they
    had work, summed over vCPUs: the steal column of /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()  # cpu user nice system idle ... steal
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _rusage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(_own_peak_kib(), kids.ru_maxrss) * 1024 / 1e6  # KiB


def main() -> int:
    spawned, mode, src = float(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import schwarzian_sl
    from schwarzian_sl import cli

    ready = time.monotonic()
    where = Path(schwarzian_sl.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"schwarzian_sl imported from {where}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": ready - spawned}
    if mode == "import":
        print(json.dumps(out))
        return 0

    captured = io.StringIO()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0, _ = _rusage()
    steal0 = _steal_s()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(cli_args)
        else:
            code = tracer.run_cli(cli_args)
        wall = time.perf_counter() - t0
    steal = _steal_s() - steal0
    cpu1, peak = _rusage()
    out.update(exit_code=code, wall_s=wall, steal_s=steal, cpu_s=cpu1 - cpu0,
               peak_rss_mb=peak, stdout=captured.getvalue())
    if tracer is not None:
        from layer1 import rhs_us

        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["layers"].update(rhs_us(cli_args[cli_args.index("--problem") + 1]))
        out["spans"] = tracer.span_records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
