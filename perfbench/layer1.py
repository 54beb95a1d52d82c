"""Layer 1: the median time of one rhs call of each public system.

Each system is built and called at fixed inputs taken from the workload
(its problem, a typical eigenvalue and a typical state), so the figure
moves only when the rhs code does.  Systems a problem does not use
report 0.
"""

from __future__ import annotations

import math
import statistics
import time

from schwarzian_sl.catalog import get_entry
from schwarzian_sl.mhd import CohnJetModel, y1_system
from schwarzian_sl.minimalist import phase_system, scaled_gauge
from schwarzian_sl.schwarzian import (
    Approach,
    default_g_initial_state,
    default_initial_state,
    g_system,
    phi_system,
)

CALLS = 2000
REPEATS = 15


def _median_us(rhs, points) -> float:
    """Median over REPEATS of the mean time of one call, cycling ``points``."""
    per_call = []
    calls = [points[i % len(points)] for i in range(CALLS)]
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x, y, lam in calls:
            rhs(x, y, lam)
        per_call.append((time.perf_counter() - t0) / CALLS)
    return statistics.median(per_call) * 1e6


def rhs_us(problem: str) -> dict[str, float]:
    out = dict.fromkeys(("minimalist.phase_rhs_us", "schwarzian.phi_rhs_us",
                         "schwarzian.g_rhs_us", "mhd.y1_rhs_us"), 0.0)
    if problem == "paine":
        sl = get_entry("paine").build()
        lam = 100 + 0j
        rhs = phase_system(sl, scaled_gauge(sl, lam)).rhs
        out["minimalist.phase_rhs_us"] = _median_us(
            rhs, [(x, (3.0 + 0j,), lam) for x in (0.5, 1.5, 2.5)])
    elif problem == "morse":
        sl = get_entry("morse").build()
        lam = 12.75 + 0j
        x0 = sl.domain.start
        phi_state = tuple(default_initial_state(sl, x0, lam))
        g_state = tuple(default_g_initial_state(sl, x0, lam))
        xs = (-2.0, 1.0, 4.0)
        out["schwarzian.phi_rhs_us"] = _median_us(
            phi_system(sl).rhs, [(x, phi_state, lam) for x in xs])
        out["schwarzian.g_rhs_us"] = _median_us(
            g_system(sl).rhs, [(x, g_state, lam) for x in xs])
    elif problem == "cohn":
        eq = CohnJetModel().equilibrium()
        rhs = y1_system(eq, 0, math.pi, Approach.G).rhs
        state = (0.1 + 0.2j, 0.3 - 0.1j, 0j)
        omega = 3.08 + 1.97j
        # one radius inside the jet, two in the magnetized environment
        out["mhd.y1_rhs_us"] = _median_us(
            rhs, [(r, state, omega) for r in (0.5, 2.0, 6.0)])
    return out
