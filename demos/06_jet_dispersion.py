"""Dispersion relation of the m = 0 jet mode by root continuation.

The first wavenumber gets a full spectral web; afterwards each k is a
predictor-corrector step: the last two roots extrapolate linearly to the
seed, and the secant corrector starts from the slope the previous root
converged with.  A root that lands farther from the prediction than the
last step is a branch hop, and a web recentered on the last root decides
that k instead.  Growth rate is Im omega (temporal approach: real k,
complex omega).
"""

import numpy as np

import schwarzian_sl as s
from schwarzian_sl.io import write_csv
from schwarzian_sl.schwarzian import Approach

model = s.CohnJetModel(M=1.0, eta=0.01)


def family(k):
    return s.JetQuantizationFunction(
        model, m=0, k=float(k), approach=Approach.G, rel_tol=1e-7, abs_tol=1e-10
    )


k_grid = np.linspace(0.5, 6.0, 12)
points = s.dispersion_scan(family, k_grid, (0.05, 3.0, 0.05, 2.0), nx=48, ny=48)

print(f"{'k':>6} {'Re omega':>12} {'Im omega':>12}  method")
for p in points:
    if p.omega is None:
        print(f"{p.k:6.2f} {'lost':>12}")
        continue
    print(f"{p.k:6.2f} {p.omega.real:12.6f} {p.omega.imag:12.6f}  {p.method}")

write_csv(
    "jet_dispersion.csv",
    {"config": {"m": 0, "k_grid": [0.5, 6.0, 12]}},
    [
        ("k", [p.k for p in points]),
        ("Re omega", [p.omega.real if p.omega else float("nan") for p in points]),
        ("Im omega", [p.omega.imag if p.omega else float("nan") for p in points]),
    ],
)
print("wrote jet_dispersion.csv")
