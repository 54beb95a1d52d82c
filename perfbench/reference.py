"""Recompute the Paine reference spectrum without schwarzian_sl.

The problem is -f'' + f/(x + 0.1)^2 = lam f on [0, pi] with
f(0) = f(pi) = 0.  It is solved here by scaled Pruefer shooting,
f = r sin(theta), f' = s r cos(theta) with s = sqrt(max(lam, 1)):

    theta' = s cos^2(theta) + (lam - 1/(x + 0.1)^2) / s * sin^2(theta),

integrated by scipy's DOP853 at rtol = atol = 1e-13 from theta(0) = 0.
The n-th eigenvalue (n = 1, 2, ...) is the lam at which theta(pi) = n pi;
theta(pi) increases with lam, so each one is bracketed on a coarse grid
and located by brentq to 1e-14 relative.

Usage: python3 perfbench/reference.py [--out perfbench/paine_reference.json]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

RTOL = 1e-13
ATOL = 1e-13
LAM_MAX = 200.0
COUNT = 14


def theta_end(lam: float) -> float:
    s = math.sqrt(max(lam, 1.0))

    def rhs(x, y):
        c, sn = math.cos(y[0]), math.sin(y[0])
        return [s * c * c + (lam - 1.0 / (x + 0.1) ** 2) / s * sn * sn]

    sol = solve_ivp(rhs, (0.0, math.pi), [0.0], method="DOP853",
                    rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"DOP853 failed at lam={lam}: {sol.message}")
    return float(sol.y[0, -1])


def paine_spectrum() -> list[float]:
    grid = np.linspace(0.01, LAM_MAX, 801)
    values = [theta_end(lam) / math.pi for lam in grid]
    out: list[float] = []
    for n in range(1, COUNT + 1):
        i = next(i for i in range(len(grid) - 1)
                 if values[i] < n <= values[i + 1])
        out.append(brentq(lambda lam: theta_end(lam) / math.pi - n,
                          grid[i], grid[i + 1], xtol=1e-14, rtol=1e-14))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name(
        "paine_reference.json")))
    args = parser.parse_args()
    spectrum = paine_spectrum()
    doc = {
        "problem": "-f'' + f/(x+0.1)^2 = lam f on [0, pi], f(0) = f(pi) = 0",
        "method": f"scaled Pruefer shooting, scipy DOP853 rtol={RTOL} "
                  f"atol={ATOL}, brentq xtol=rtol=1e-14",
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "eigenvalues": spectrum,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for n, lam in enumerate(spectrum, start=1):
        print(f"n={n:2d}  {lam:.12f}")


if __name__ == "__main__":
    main()
