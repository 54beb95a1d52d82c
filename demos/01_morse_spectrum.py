"""Bound states of the Morse well from the phase quantization condition.

The well p = 1, q = eps - lambda^2 (1 - e^{-x})^2 (lambda = 5) supports
five bound states at eps = lambda^2 - (lambda - n - 1/2)^2.  We launch the
Schwarzian Phi system at the well minimum, integrate toward both cuts, and
read eigenvalues off the integer crossings of the winding value
(Phi|+inf - Phi|-inf)/2pi, which exceeds the quantum number by one.
"""

import schwarzian_sl as s

problem = s.morse(5.0)
# (Phi|+inf - Phi|-inf)/2pi; the scan evaluates its whole grid as two
# lane-batched integrations, one per leg
scan = s.scan_real(s.AsymptoticWinding(problem), (0.0, 25.0), 120)

print("winding curve (every 10th sample):")
for lam, w in list(zip(scan.grid, scan.values))[::10]:
    print(f"  eps = {lam:7.3f}   winding = {w:8.4f}")

print("\neigenvalues (winding through an integer):")
exact = s.morse_eigenvalues(5.0)
for crossing, reference in zip(scan.crossings, exact):
    err = abs(crossing.eigenvalue - reference)
    print(
        f"  n = {crossing.n - 1}: eps = {crossing.eigenvalue:.8f}"
        f"   closed form {reference:.4f}   |error| = {err:.2e}"
    )

from schwarzian_sl.io import write_csv

write_csv(
    "morse_scan.csv",
    {"config": {"problem": "morse", "lambda": 5.0, "range": [0, 25]}},
    [("eps", scan.grid.tolist()), ("winding", scan.values.tolist())],
)
print("\nwrote morse_scan.csv")
