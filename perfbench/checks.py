"""Output parsing and correctness checks for the benchmark workloads.

Every check returns ``(name, ok, detail)``.  The references are made
apart from the program -- the DOP853 Paine spectrum in
``paine_reference.json``, the Morse closed form, the published jet root,
the web's own argument principle recomputed here from the written phase
grid -- or are properties the method must have: Im omega > 0 along the
unstable branch, a smooth branch, and the same root from the Phi approach
(launch/formulation independence).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAINE_REL_TOL = 2e-6
PAINE_COUNT = 14
MORSE_LAMBDA = 5.0
MORSE_TOL = 1e-3
MORSE_IMAG_TOL = 1e-6
COHN_ROOT = 3.08 + 1.97j
COHN_ROOT_TOL = 0.02
REPOLISH_TOL = 1e-6
BRANCH_JUMP_FACTOR = 3.0

Check = tuple[str, bool, str]


def paine_reference() -> list[float]:
    doc = json.loads(Path(__file__).with_name("paine_reference.json").read_text())
    return doc["eigenvalues"]


def morse_exact(lam: float = MORSE_LAMBDA) -> list[float]:
    """lam^2 - (lam - n - 1/2)^2 for every bound state n = 0, 1, ..."""
    return [lam * lam - (lam - n - 0.5) ** 2 for n in range(math.ceil(lam - 0.5))]


def read_csv(text: str) -> dict[str, list[float]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


# -- real spectra ------------------------------------------------------------

def check_paine(eigenvalues: list[float], reference: list[float]) -> list[Check]:
    """Matched by order, not by the file's n column."""
    out = [("paine.count", len(eigenvalues) == PAINE_COUNT,
            f"{len(eigenvalues)} eigenvalues, expected {PAINE_COUNT}")]
    for n, (got, ref) in enumerate(zip(eigenvalues, reference), start=1):
        rel = abs(got - ref) / ref
        out.append((f"paine.n{n}", rel <= PAINE_REL_TOL,
                    f"{got!r} vs {ref!r}: rel {rel:.2e} (tol {PAINE_REL_TOL:g})"))
    return out


def check_morse(eigenvalues: list[complex]) -> list[Check]:
    exact = morse_exact()
    out = [("morse.count", len(eigenvalues) == len(exact),
            f"{len(eigenvalues)} eigenvalues, expected {len(exact)}")]
    for n, (got, ref) in enumerate(zip(eigenvalues, exact)):
        err = abs(got.real - ref)
        out.append((f"morse.n{n}", err <= MORSE_TOL,
                    f"{got.real!r} vs {ref!r}: |err| {err:.2e} (tol {MORSE_TOL:g})"))
        out.append((f"morse.n{n}.imag", abs(got.imag) <= MORSE_IMAG_TOL,
                    f"|Im| {abs(got.imag):.2e} (tol {MORSE_IMAG_TOL:g})"))
    return out


def spectrum_from_csv(text: str) -> list[complex]:
    cols = read_csv(text)
    return [complex(re_, im) for re_, im in
            zip(cols["Re eigenvalue"], cols["Im eigenvalue"])]


# -- spectral web --------------------------------------------------------------

@dataclass
class WebResult:
    psi: np.ndarray                      # (nx, ny), NaN at failed samples
    charges: list[tuple[int, complex]]   # as reported by the program
    failed: int                          # as reported by the program
    roots: list[complex]                 # refined roots, as reported


_WEB_LINE = re.compile(r"web (\d+)x(\d+) over .*: (\d+) charge\(s\), (\d+) failed")
_CHARGE_LINE = re.compile(r"winding ([+-]\d+) near (\S+)")
_ROOT_LINE = re.compile(r"refined root: (\S+)")


def web_from_output(csv_text: str, stdout: str) -> WebResult:
    head = _WEB_LINE.search(stdout)
    if head is None:
        raise ValueError("no web summary line in the command output")
    nx, ny, failed = int(head[1]), int(head[2]), int(head[4])
    cols = read_csv(csv_text)
    psi = np.asarray(cols["Psi"], dtype=float).reshape(nx, ny)
    charges = [(int(m[1]), complex(m[2])) for m in _CHARGE_LINE.finditer(stdout)]
    roots = [complex(m[1]) for m in _ROOT_LINE.finditer(stdout)]
    return WebResult(psi=psi, charges=charges, failed=failed, roots=roots)


def _wrap(d):
    return (d + math.pi) % (2 * math.pi) - math.pi


def plaquette_windings(psi: np.ndarray) -> np.ndarray:
    """Winding of Psi counterclockwise around each grid cell (NaN-free)."""
    d_re = _wrap(np.diff(psi, axis=0))
    d_im = _wrap(np.diff(psi, axis=1))
    loop = d_re[:, :-1] + d_im[1:, :] - d_re[:, 1:] - d_im[:-1, :]
    return np.rint(loop / (2 * math.pi)).astype(int)


def boundary_winding(psi: np.ndarray) -> int:
    path = np.concatenate([psi[:, 0], psi[-1, 1:], psi[-2::-1, -1], psi[0, -2::-1]])
    steps = _wrap(np.diff(np.append(path, path[0])))
    return int(round(steps.sum() / (2 * math.pi)))


def check_web(web: WebResult) -> list[Check]:
    out = []
    no_nan = not np.isnan(web.psi).any()
    out.append(("web.no_failed_samples", web.failed == 0 and no_nan,
                f"{web.failed} failed sample(s) reported, NaN in Psi: {not no_nan}"))
    positive = [w for w, _ in web.charges if w > 0]
    cells = plaquette_windings(np.nan_to_num(web.psi))
    own_positive = int(cells[cells > 0].sum())
    out.append(("web.one_root_charge", positive == [1] and own_positive == 1,
                f"reported positive charges {positive}, positive cell windings "
                f"from Psi {own_positive}"))
    reported = sum(w for w, _ in web.charges)
    edge = boundary_winding(web.psi) if no_nan else None
    out.append(("web.argument_principle",
                edge is not None and edge == reported == int(cells.sum()),
                f"boundary winding {edge}, reported total {reported}, "
                f"cell total {int(cells.sum())}"))
    root = web.roots[0] if len(web.roots) == 1 else None
    near = (root is not None and abs(root.real - COHN_ROOT.real) <= COHN_ROOT_TOL
            and abs(root.imag - COHN_ROOT.imag) <= COHN_ROOT_TOL)
    out.append(("web.root_published", near,
                f"refined roots {web.roots} vs {COHN_ROOT} (tol {COHN_ROOT_TOL} "
                f"per component)"))
    return out


# -- dispersion ----------------------------------------------------------------

def dispersion_from_csv(text: str) -> tuple[list[float], list[complex]]:
    cols = read_csv(text)
    return cols["k"], [complex(r, i) for r, i in zip(cols["Re omega"], cols["Im omega"])]


def check_dispersion(ks: list[float], omegas: list[complex],
                     expected_ks: list[float]) -> list[Check]:
    out = [("dispersion.k_grid", len(ks) == len(expected_ks) and np.allclose(
        ks, expected_ks, rtol=0, atol=1e-12),
        f"{len(ks)} k values, expected {len(expected_ks)}")]
    found = [math.isfinite(w.real) and math.isfinite(w.imag) for w in omegas]
    gaps = [k for k, ok in zip(ks, found) if not ok]
    out.append(("dispersion.no_gaps", not gaps, f"gaps at k = {gaps}"))
    stable = [k for k, w, ok in zip(ks, omegas, found) if ok and not w.imag > 0]
    out.append(("dispersion.growing", not stable, f"Im omega <= 0 at k = {stable}"))
    steps = [abs(b - a) for a, b in zip(omegas, omegas[1:])]
    if steps and not gaps:
        median = statistics.median(steps)
        worst = max(steps)
        ok = worst <= BRANCH_JUMP_FACTOR * median
        detail = (f"largest step {worst:.4g} at k = {ks[steps.index(worst)]:.4g}, "
                  f"median step {median:.4g} (limit x{BRANCH_JUMP_FACTOR:g})")
    else:
        ok, detail = False, "no continuous branch to measure"
    out.append(("dispersion.no_branch_jump", ok, detail))
    return out


# -- formulation independence --------------------------------------------------

def check_repolish(name: str, k: float, root: complex,
                   polished: complex | None = None) -> Check:
    """``root`` against the jet root re-polished on the Phi condition.

    The re-polish starts at ``root`` and integrates converged (rel 1e-10),
    so it shares neither the g approach nor its truncation error.
    ``polished`` stands in for the re-polish in the self-test.
    """
    if polished is None:
        from schwarzian_sl.core import SchwarzianSLError
        from schwarzian_sl.mhd import CohnJetModel, JetQuantizationFunction
        from schwarzian_sl.rootfind import refine_complex_root
        from schwarzian_sl.schwarzian import Approach

        qf = JetQuantizationFunction(CohnJetModel(M=1.0, eta=0.01), 0, k,
                                     Approach.PHI, rel_tol=1e-10, abs_tol=1e-12)
        try:
            polished = refine_complex_root(qf, root, tol=1e-10)
        except SchwarzianSLError as exc:
            return (name, False, f"k={k:.6g}: Phi re-polish failed: {exc}")
    d = abs(polished - root)
    return (name, d <= REPOLISH_TOL,
            f"k={k:.6g}: g root {root!r}, Phi root {polished!r}, |diff| {d:.2e} "
            f"(tol {REPOLISH_TOL:g})")
