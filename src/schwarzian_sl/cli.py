"""Command-line surface: problem selection, solving, spectral webs,
eigenfunction export and dispersion scans.

Exit codes: 0 success, 2 configuration/validation error (a usage error too,
as one line), 3 numerical failure.  A JSON config file's (--config) values
are read as flags placed before the command line's own, which win.  A web
evaluates its samples as lanes of one vectorized integration; --threads N
(default 1) splits them into N chunks, at most one per CPU, each a process.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import re
import sys
from typing import Any

import numpy as np

from . import __version__
from .catalog import CATALOG, StabilityConfig, get_entry
from .core import BoundaryKind, SchwarzianSLError, validate
from .io import complex_columns, write_csv, write_json
from .minimalist import FiniteIntervalWinding
from .mhd import (
    DEFAULT_CUTS,
    JetQuantizationFunction,
    eigenfunctions_y,
    jet_trajectories,
)
from .rootfind import (
    dispersion_scan,
    refine_complex_root,
    scan_real,
    spectral_web,
)
from .schwarzian import (
    Approach,
    AsymptoticWinding,
    eigenfunction,
    g_difference_value,
    solve_asymptotic,
)
from .integrate import Tolerances, merge_legs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_PARAM_ALIASES = {"lambda": "lambda_param"}

METHODS = ("minimalist", "schwarzian-g", "schwarzian-phi")


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error: one error line, exit 2
        raise ConfigError(message)


def _parse_params(text: str | None, defaults: dict[str, Any]) -> dict[str, Any]:
    """The --param overrides of a catalog entry with these defaults: known
    names only, each a number (every catalog parameter is one), and a real
    one where the default is real."""
    if not text:
        return {}
    out: dict[str, Any] = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"--param entries must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = _PARAM_ALIASES.get(key.strip(), key.strip())
        if key not in defaults:
            known = ", ".join(defaults) or "none"
            raise ConfigError(f"unknown parameter {key!r}; known: {known}")
        real = not isinstance(defaults[key], complex)
        for kind in (int, float) if real else (int, float, complex):
            try:
                out[key] = kind(raw)
                break
            except ValueError:
                pass
        else:
            raise ConfigError(f"parameter {key} needs a {'real ' if real else ''}number, got {raw!r}")
        if not cmath.isfinite(out[key]):
            raise ConfigError(f"parameter {key} needs a finite number, got {raw!r}")
    return out


def _parse_floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} needs finite numbers, got {text!r}")
    return values


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"--grid must look like 200x200, got {text!r}")
    return int(parts[0]), int(parts[1])


def _approach(method: str) -> Approach:
    return Approach.PHI if method == "schwarzian-phi" else Approach.G


def _resolve(args: argparse.Namespace, kind: str | None) -> tuple[Any, str]:
    """Build the problem of ``args`` and check that its method fits it.

    ``kind`` is the problem kind the command takes, "sl" or "stability"
    (None: either).  The boundary conditions decide the method: a
    schwarzian method needs Quantization at both ends, the minimalist phase
    ratio values at two finite ends.  Stability problems and eigenfunction
    export need a schwarzian method.  Returns (problem, method); a mismatch
    is a ConfigError.
    """
    entry = get_entry(args.problem)
    if kind and entry.kind != kind:
        raise ConfigError(f"{args.command} takes {kind} problems; "
                          f"{args.problem} is a {entry.kind} problem")
    method = args.method or entry.default_method
    problem = entry.build(**_parse_params(args.param, entry.default_params))
    schwarzian_only = entry.kind == "stability" or args.command == "eigenfunction"
    if method == "minimalist" and schwarzian_only:
        raise ConfigError(f"{args.command} of {args.problem} needs a schwarzian method")
    if entry.kind == "stability":
        return problem, method
    mismatch = [str(d) for d in validate(problem)]
    d, ends = problem.domain, {spec.kind for spec in problem.boundaries}
    if method == "minimalist":
        if ends != {BoundaryKind.RATIO_VALUE} or math.isinf(d.lower) or math.isinf(d.upper):
            mismatch.append("the minimalist method needs ratio values at two finite ends")
    elif ends != {BoundaryKind.QUANTIZATION}:
        mismatch.append(f"the {method} method needs Quantization at both ends")
    if mismatch:
        raise ConfigError(f"{problem.label}: " + "; ".join(mismatch))
    return problem, method


_NON_CONFIG_KEYS = ("func", "config", "out", "scan_out")  # artifact location,
# not part of the computation => byte-identical outputs for identical configs


def _meta(args: argparse.Namespace, **extra: Any) -> dict[str, Any]:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _NON_CONFIG_KEYS and value is not None
    }
    meta = {"config": config, **extra}
    problem = getattr(args, "problem", None)
    if problem and problem in CATALOG:
        targets = CATALOG[problem].paper_targets
        if targets:
            meta["targets"] = [
                {"value": t.value, "n": t.n, "provenance": t.provenance}
                for t in targets
            ]
    return meta


def _emit(args: argparse.Namespace, meta: dict, columns, payload) -> None:
    if not args.out:
        return
    if args.format == "json":
        write_json(args.out, meta, payload)
    else:
        write_csv(args.out, meta, columns)
    print(f"wrote {args.out}")


def cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(CATALOG):
        entry = CATALOG[name]
        params = ", ".join(f"{k}={v}" for k, v in entry.default_params.items())
        print(f"{name} [{entry.kind}, default method {entry.default_method}]")
        print(f"  {entry.description}")
        if params:
            print(f"  defaults: {params}")
        for t in entry.paper_targets:
            tag = f" (n={t.n})" if t.n is not None else ""
            value = t.value if t.value.imag else t.value.real
            print(f"  target{tag}: {value}  [{t.provenance}]")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    problem, method = _resolve(args, "sl")
    tol = Tolerances(rel=args.rel, abs=args.abs)
    lo, hi = _parse_floats(args.range, 2, "--range")
    # both windings run the scan grid as lanes
    winding = FiniteIntervalWinding if method == "minimalist" else AsymptoticWinding
    scan = scan_real(winding(problem, tol), (lo, hi), args.samples)
    if scan.failures:
        print(f"{len(scan.failures)} failed sample(s) at lambda = "
              f"{[lam for lam, _ in scan.failures]}", file=sys.stderr)
    print(f"scan: {len(scan.grid)} grid samples, {len(scan.crossings)} crossings refined "
          f"in {scan.refine_evals} evaluations", file=sys.stderr)
    # the Phi winding of the state with n nodes is n + 1, and exactly 0 below
    # the ground state (Phi is purely imaginary there); the asymptotic targets
    # count nodes, the finite-interval ones from 1, as the minimalist phase does
    crossings = [c for c in scan.crossings if method == "minimalist" or c.n > 0]
    eigenvalues: list[complex] = [complex(c.eigenvalue) for c in crossings]
    ns = [c.n if method == "minimalist" else c.n - 1 for c in crossings]
    if method == "schwarzian-g":  # bracketed on the Phi winding, polished on g
        g_value = lambda lam: g_difference_value(problem, lam, tol)
        eigenvalues = [refine_complex_root(g_value, ev, tol=1e-10) for ev in eigenvalues]

    print(f"{problem.label}: {len(eigenvalues)} eigenvalue(s) in ({lo}, {hi})")
    for n, ev in zip(ns, eigenvalues):
        sign = "-" if ev.imag < 0 else "+"
        print(f"  n={n}: {ev.real:.12g}" + (f" {sign} {abs(ev.imag):.3g}i" if ev.imag else ""))
    meta = _meta(args, label=problem.label)
    columns = [("n", ns)] + complex_columns("eigenvalue", eigenvalues)
    payload = {
        "label": problem.label,
        "eigenvalues": eigenvalues,
        "scan": {"grid": scan.grid, "winding": scan.values},
    }
    _emit(args, meta, columns, payload)
    if args.scan_out:
        write_csv(
            args.scan_out,
            meta,
            [("lambda", scan.grid.tolist()), ("winding", scan.values.tolist())],
        )
        print(f"wrote {args.scan_out}")
    return EXIT_OK


def _stability_qf(
    config: StabilityConfig, method: str, args: argparse.Namespace
) -> JetQuantizationFunction:
    cuts = getattr(args, "cuts", None)  # only the web command has --cuts
    return JetQuantizationFunction(
        model=config.model,
        m=config.m,
        k=config.k,
        approach=_approach(method),
        cuts=_parse_floats(cuts, 2, "--cuts") if cuts else DEFAULT_CUTS,
        rel_tol=args.rel,
        abs_tol=args.abs,
    )


def cmd_web(args: argparse.Namespace) -> int:
    config, method = _resolve(args, "stability")
    region = _parse_floats(args.region, 4, "--region")
    nx, ny = _parse_grid(args.grid)
    qf = _stability_qf(config, method, args)
    web = spectral_web(qf, region, nx, ny, workers=args.threads or 1)
    print(f"web {nx}x{ny} over {region}: {len(web.charges)} charge(s), "
          f"{len(web.failures)} failed sample(s)")
    roots = []
    for charge in web.charges:
        print(f"  winding {charge.winding:+d} near {charge.location:.6g}")
        if charge.winding > 0 and args.refine:
            try:
                root = refine_complex_root(qf, charge.location, tol=1e-10)
                roots.append(root)
                print(f"    refined root: {root:.10g}")
            except SchwarzianSLError as exc:
                print(f"    refinement failed: {exc}", file=sys.stderr)
    meta = _meta(args, m=config.m, k=config.k)
    re = np.repeat(web.grid_re(), ny)
    im = np.tile(web.grid_im(), nx)
    columns = [
        ("Re omega", re.tolist()),
        ("Im omega", im.tolist()),
        ("Psi", web.psi.ravel().tolist()),
    ]
    payload = {
        "region": web.region,
        "nx": nx,
        "ny": ny,
        "charges": [
            {"location": c.location, "winding": c.winding} for c in web.charges
        ],
        "roots": roots,
        "psi": web.psi.ravel(),
    }
    _emit(args, meta, columns, payload)
    return EXIT_OK


def cmd_eigenfunction(args: argparse.Namespace) -> int:
    built, method = _resolve(args, None)
    tol = Tolerances(rel=args.rel, abs=args.abs)
    eigenvalue = complex(args.eigenvalue)
    if not cmath.isfinite(eigenvalue):
        raise ConfigError(f"--eigenvalue needs a finite number, got {args.eigenvalue!r}")
    approach = _approach(method)
    if isinstance(built, StabilityConfig):
        inward, outward = jet_trajectories(
            built.model.equilibrium(), built.m, built.k, eigenvalue, approach, tol=tol)
        constant = -inward.y_end[2]
        samples = eigenfunctions_y((inward, outward), constant, approach)
        meta = _meta(args, eigenvalue=eigenvalue)
        columns = [("r", samples.rs.tolist())]
        for name, values in (("y1", samples.y1), ("y2", samples.y2), ("Y", samples.Y)):
            columns += complex_columns(name, values)
        payload = {"r": samples.rs, "y1": samples.y1, "y2": samples.y2, "Y": samples.Y}
        _emit(args, meta, columns, payload)
        print(f"{args.problem}(m={built.m}, k={built.k:g}): sampled eigenfunction at "
              f"{eigenvalue:g} ({len(samples.rs)} points); outward leg ended at "
              f"r = {outward.x_end:.6g} ({outward.stop_reason.value})")
        return EXIT_OK
    low, high, _ = solve_asymptotic(built, eigenvalue, approach, tol)
    constant = -low.y_end[2]  # the decayed lower end: F = infinity
    xs, states = merge_legs(low, high)
    samples = eigenfunction(xs, states, constant, approach)
    meta = _meta(args, eigenvalue=eigenvalue, label=built.label)
    columns = [("x", xs.tolist())]
    names = ("F_p", "Lam", "g") if approach is Approach.G else ("F1", "F2", "Phi")
    for j, name in enumerate(names):
        columns += complex_columns(name, states[:, j])
    columns += complex_columns("f", samples.f)
    payload = {"x": xs, "state": {n: states[:, j] for j, n in enumerate(names)},
               "f": samples.f, "F": samples.F}
    _emit(args, meta, columns, payload)
    print(f"{built.label}: sampled eigenfunction at {eigenvalue:g} ({len(xs)} points); "
          f"legs ended at x = {low.x_end:.6g} ({low.stop_reason.value}) and "
          f"x = {high.x_end:.6g} ({high.stop_reason.value})")
    return EXIT_OK


def cmd_dispersion(args: argparse.Namespace) -> int:
    base, method = _resolve(args, "stability")
    lo, hi, n = _parse_floats(args.kgrid, 3, "--kgrid")
    if not (n >= 1 and n.is_integer()):
        raise ConfigError(f"--kgrid needs an integer count n >= 1, got {n:g}")
    k_grid = np.linspace(lo, hi, int(n))
    region = _parse_floats(args.region, 4, "--region")
    qf = _stability_qf(base, method, args)

    def family(k: float) -> JetQuantizationFunction:
        return dataclasses.replace(qf, k=float(k))

    nx, ny = _parse_grid(args.grid)
    points = dispersion_scan(
        family, k_grid, region, nx, ny, workers=args.threads or 1
    )
    gaps = [p.k for p in points if p.omega is None]
    for p in points:
        if p.omega is None:
            print(f"  k={p.k:.4g}: root lost")
        else:
            print(f"  k={p.k:.4g}: omega = {p.omega:.8g} [{p.method}]")
    if gaps:
        print(f"{len(gaps)} gap(s) at k = {gaps}", file=sys.stderr)
    meta = _meta(args, m=base.m)
    ks = [p.k for p in points]
    res = [p.omega.real if p.omega is not None else math.nan for p in points]
    ims = [p.omega.imag if p.omega is not None else math.nan for p in points]
    columns = [("k", ks), ("Re omega", res), ("Im omega", ims)]
    payload = [{"k": p.k, "omega": p.omega, "method": p.method} for p in points]
    _emit(args, meta, columns, payload)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help="catalog problem name")
    p.add_argument("--param", help="comma-separated key=value parameter overrides")
    p.add_argument("--method", choices=METHODS, help="solution formulation")
    p.add_argument("--rel", type=float, default=1e-8, help="relative tolerance")
    p.add_argument("--abs", type=float, default=1e-10, help="absolute tolerance")
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schwarzian-sl",
        description="Sturm-Liouville and MHD-stability eigenvalue solver "
        "(Riccati/Schwarzian formulations, spectral webs)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the problem catalog")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("solve", help="locate real eigenvalues")
    _add_common(p)
    p.add_argument("--range", default="0,25", help="eigenvalue scan range lo,hi")
    p.add_argument("--samples", type=int, default=120, help="scan grid size")
    p.add_argument("--scan-out", help="also write the raw (lambda, winding) scan")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("web", help="spectral web over a complex region")
    _add_common(p)
    p.add_argument("--region", required=True, help="Re_min,Re_max,Im_min,Im_max")
    p.add_argument("--grid", default="200x200", help="web resolution NXxNY")
    p.add_argument("--threads", type=int, help="processes for the web's lanes (default 1)")
    p.add_argument("--cuts", help="integration window lo,hi")
    p.add_argument("--no-refine", dest="refine", action="store_false",
                   help="skip polishing the detected roots")
    p.set_defaults(func=cmd_web)

    p = sub.add_parser("eigenfunction", help="sample an eigenfunction")
    _add_common(p)
    p.add_argument("--eigenvalue", required=True,
                   help="eigenvalue (complex literals like 3.08+1.97j allowed)")
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser("dispersion", help="trace a dispersion relation")
    _add_common(p)
    p.add_argument("--kgrid", required=True, help="wavenumber grid lo,hi,n")
    p.add_argument("--region", required=True, help="initial web region")
    p.add_argument("--grid", default="64x64", help="fallback web resolution")
    p.add_argument("--threads", type=int, help="processes for a web's lanes (default 1)")
    p.set_defaults(func=cmd_dispersion)

    for p in (parser, *sub.choices.values()):  # "-5,0" or "-3+1j" is a value, not an option
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _config_argv(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str]) -> list[str]:
    """``argv`` with each --config value that names a flag of the command
    put right after its name as "--flag=value" (a switch: true or false, as
    its bare flag), for argparse to judge; a number needs a typed flag."""
    try:
        with open(args.config) as fh:
            defaults = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read --config {args.config}: {exc.strerror}") from None
    if not isinstance(defaults, dict):
        raise ConfigError("config file must hold a JSON object")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[args.command]._actions}
    flags = []
    for key, value in defaults.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        flag = action.option_strings[-1]
        switch = isinstance(action, argparse._StoreConstAction)  # --no-refine
        if switch and isinstance(value, bool):
            flags += [flag] if value == action.const else []
        elif not switch and (type(value) is str or (type(value) in (int, float) and action.type)):
            flags.append(f"{flag}={value}")
        else:
            raise ConfigError(f"config value {key}={value!r} is not valid for {flag}")
    # the command is the first token of its name that is not a --config path
    at = next(i for i, token in enumerate(argv) if token == args.command
              and not (i and argv[i - 1].startswith("--") and "=" not in argv[i - 1]))
    return argv[:at + 1] + flags + argv[at + 1:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(parser, args, argv))
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ConfigError(f"--threads needs an integer >= 1, got {args.threads}")
        for path in (getattr(args, "out", None), getattr(args, "scan_out", None)):
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"the directory of output file {path} does not exist")
        return args.func(args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchwarzianSLError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
