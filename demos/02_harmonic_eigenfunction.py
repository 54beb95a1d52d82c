"""Ground state of the harmonic oscillator, eigenvalue and eigenfunction.

After refining eps_0 = 1/2 from the winding condition, the eigenfunction
is rebuilt from the Phi-system trajectory: the free constant is solved at
the lower cut (F = infinity there once the state has decayed), and
f = sin((Phi + C)/2)/sqrt(F2) with a branch-tracked square root.  The
result is compared against exp(-x^2/2).
"""

import numpy as np

import schwarzian_sl as s
from schwarzian_sl.schwarzian import Approach

problem = s.harmonic()
tol = s.Tolerances(rel=1e-10, abs=1e-12)

scan = s.scan_real(
    lambda e: s.phi_winding_value(problem, e, tol), (0.3, 0.7), 8, rel_width=1e-10
)
e0 = scan.eigenvalues[0]
print(f"ground state eigenvalue: {e0:.10f} (exact 0.5)")

low, high, _ = s.solve_asymptotic(problem, e0, Approach.PHI, tol)
constant = s.solve_constant_from_bc(
    low.y_end, complex(float("inf"), 0.0), Approach.PHI
)
samples = s.eigenfunction(*s.merge_legs(low, high), constant, Approach.PHI)

peak = samples.f[np.argmax(np.abs(samples.f))]
normalized = samples.f / peak
gaussian = np.exp(-samples.xs**2 / 2)
window = np.abs(samples.xs) <= 3.0
err = np.max(np.abs(normalized[window] - gaussian[window]))
print(f"max |f - exp(-x^2/2)| on [-3, 3]: {err:.2e}")

for x_target in (-2.0, -1.0, 0.0, 1.0, 2.0):
    i = int(np.argmin(np.abs(samples.xs - x_target)))
    print(
        f"  x = {samples.xs[i]:6.3f}   f = {normalized[i].real:9.6f}"
        f"   exact {gaussian[i]:9.6f}"
    )

from schwarzian_sl.io import complex_columns, write_csv

write_csv(
    "harmonic_ground_state.csv",
    {"config": {"problem": "harmonic", "eigenvalue": e0}},
    [("x", samples.xs.tolist())] + complex_columns("f", normalized),
)
print("wrote harmonic_ground_state.csv")
