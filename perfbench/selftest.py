"""Self-test of the benchmark's checks: correct results pass, wrong ones fail.

Usage: python3 perfbench/selftest.py   (exit 0 when every case behaves)

Kept out of the package's pytest run on purpose: it tests the benchmark,
not schwarzian_sl, and needs neither the package nor a solver run.
"""

from __future__ import annotations

import sys

import numpy as np

import checks

ROOT = checks.COHN_ROOT


def _failed(results: list[checks.Check]) -> set[str]:
    return {name for name, ok, _ in results if not ok}


def _web(psi_of, charges, roots, n: int = 24) -> checks.WebResult:
    re = np.linspace(0.5, 5.5, n)
    im = np.linspace(0.1, 3.9, n)
    w = re[:, None] + 1j * im[None, :]
    return checks.WebResult(psi=np.angle(psi_of(w)), charges=charges, failed=0,
                            roots=roots)


def _curve(ks: np.ndarray) -> list[complex]:
    return [complex(0.99 * k, 2.0 * np.sqrt(k) / (1.0 + 0.3 * k)) for k in ks]


def cases() -> list[tuple[str, list[checks.Check], set[str]]]:
    """(description, check results, names that must fail -- empty: all pass)."""
    ref = checks.paine_reference()
    off = list(ref)
    off[6] *= 1.0 + 1e-5
    morse = [complex(v, 0.0) for v in checks.morse_exact()]
    morse_off = list(morse)
    morse_off[2] += 2e-3

    good_web = _web(lambda w: w - ROOT, [(1, ROOT)], [ROOT])
    pole_web = _web(lambda w: 1.0 / (w - ROOT), [(-1, ROOT)], [])
    far_web = _web(lambda w: w - ROOT, [(1, ROOT)], [ROOT + 0.05])
    holed = _web(lambda w: w - ROOT, [(1, ROOT)], [ROOT])
    holed.psi[0, 5] = np.nan
    holed.failed = 1

    ks = np.linspace(0.5, 8.0, 76)
    curve = _curve(ks)
    gap = list(curve)
    gap[40] = complex(np.nan, np.nan)
    jump = list(curve)
    jump[40:] = [w + 0.6 - 0.4j for w in jump[40:]]  # hops to another branch
    return [
        ("Paine reference spectrum", checks.check_paine(ref, ref), set()),
        ("Paine n=7 off by 1e-5 relative", checks.check_paine(off, ref), {"paine.n7"}),
        ("Paine with one eigenvalue missing", checks.check_paine(ref[:-1], ref),
         {"paine.count"}),
        ("Morse closed form", checks.check_morse(morse), set()),
        ("Morse n=2 off by 2e-3", checks.check_morse(morse_off), {"morse.n2"}),
        ("web with one root at 3.08+1.97i", checks.check_web(good_web), set()),
        ("web with a pole and no +1 charge", checks.check_web(pole_web),
         {"web.one_root_charge", "web.root_published"}),
        ("web root 0.05 from the published one", checks.check_web(far_web),
         {"web.root_published"}),
        ("web with a failed sample", checks.check_web(holed),
         {"web.no_failed_samples", "web.argument_principle"}),
        ("smooth dispersion branch", checks.check_dispersion(ks, curve, ks), set()),
        ("dispersion with a gap", checks.check_dispersion(ks, gap, ks),
         {"dispersion.no_gaps", "dispersion.no_branch_jump"}),
        ("dispersion jumping to another branch", checks.check_dispersion(ks, jump, ks),
         {"dispersion.no_branch_jump"}),
        ("Phi re-polish 2e-6 away",
         [checks.check_repolish("repolish", 3.0, ROOT, ROOT + 2e-6)], {"repolish"}),
        ("Phi re-polish 5e-7 away",
         [checks.check_repolish("repolish", 3.0, ROOT, ROOT + 5e-7)], set()),
    ]


def main() -> int:
    bad = 0
    for description, results, must_fail in cases():
        failed = _failed(results)
        ok = failed == must_fail
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {description}: failed {sorted(failed)}, "
              f"expected {sorted(must_fail)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
