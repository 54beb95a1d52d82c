"""Spectral web for the magnetized-environment jet, m = 0, k = pi.

The quantization function g1(outer) - g1(axis) is mapped over a rectangle
of the complex frequency plane; its phase field (the spectral web) shows
the unstable eigenvalue as a +1 winding charge, which a few secant steps
then polish.  The published root for M = 1, eta = 0.01 is 3.08 + 1.97i.

The web integrates all its grid points at once, as the lanes of one
vectorized Dormand-Prince run per leg; --workers splits the lanes over
that many processes.  A coarse grid suffices for detection; pass a larger
--grid for pictures (200x200 takes about 10 s in one process).
"""

import argparse
import math

import schwarzian_sl as s
from schwarzian_sl.io import write_csv
from schwarzian_sl.schwarzian import Approach

parser = argparse.ArgumentParser()
parser.add_argument("--grid", type=int, default=48)
parser.add_argument("--workers", type=int, default=1)
args = parser.parse_args()

model = s.CohnJetModel(M=1.0, eta=0.01)
qf = s.JetQuantizationFunction(model, m=0, k=math.pi, approach=Approach.G,
                               rel_tol=1e-6, abs_tol=1e-9)

region = (0.5, 5.5, 0.1, 3.9)
web = s.spectral_web(qf, region, args.grid, args.grid, workers=args.workers)
print(f"web {args.grid}x{args.grid} over {region}:")
for charge in web.charges:
    kind = "root" if charge.winding > 0 else "pole"
    print(f"  {kind}: winding {charge.winding:+d} near {charge.location:.4g}")

(root_charge,) = [c for c in web.charges if c.winding > 0]
refined = s.refine_complex_root(
    s.JetQuantizationFunction(model, 0, math.pi, Approach.G),
    root_charge.location,
    tol=1e-10,
)
print(f"refined eigenvalue: {refined:.8f}  (published 3.08+1.97i)")

re = web.grid_re()
im = web.grid_im()
rows = [("Re omega", [x for x in re for _ in im]),
        ("Im omega", list(im) * len(re)),
        ("Psi", web.psi.ravel().tolist())]
write_csv("jet_web.csv", {"config": {"m": 0, "k": math.pi, "grid": args.grid}}, rows)
print("wrote jet_web.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4.5))
    mesh = ax.pcolormesh(re, im, web.psi.T, cmap="twilight", shading="auto")
    ax.plot(refined.real, refined.imag, "r+", markersize=12)
    ax.set_xlabel("Re omega")
    ax.set_ylabel("Im omega")
    ax.set_title("spectral web: phase of the quantization function")
    fig.colorbar(mesh, label="Psi")
    fig.tight_layout()
    fig.savefig("jet_web.png", dpi=130)
    print("wrote jet_web.png")
except ImportError:
    pass
