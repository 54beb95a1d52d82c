import argparse
import inspect
import math

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl import cli

from conftest import assert_close


def test_catalog_has_five_entries():
    assert len(s.CATALOG) == 5
    assert set(s.CATALOG) == {"morse", "harmonic", "paine", "oscillator", "cohn"}


def test_morse_defaults(morse_problem):
    assert morse_problem.domain.lower_cut == -7.0
    assert morse_problem.domain.upper_cut == 15.0
    assert morse_problem.domain.start == 0.0
    assert_close(morse_problem.coefficients.q(0.0, 18.75), 18.75, 1e-12)


def test_morse_eigenvalue_formula():
    assert s.morse_eigenvalues(5.0) == [4.75, 12.75, 18.75, 22.75, 24.75]
    with pytest.raises(ValueError):
        s.morse(0.4)


def test_harmonic_q(harmonic_problem):
    assert_close(harmonic_problem.coefficients.q(0.0, 2.5), 5.0, 1e-12)
    assert harmonic_problem.domain.lower_cut == -6.0


def test_paine_q(paine_problem):
    assert_close(paine_problem.coefficients.q(0.0, 0.0), -100.0, 1e-9)
    assert paine_problem.domain.upper == math.pi


def test_const_oscillator_requires_upper_half_plane():
    with pytest.raises(ValueError):
        s.const_oscillator(1.0 - 0.5j)
    prob = s.const_oscillator(1 + 1j)
    assert_close(prob.coefficients.q(3.0, 0j), (1 + 1j) ** 2, 1e-12)


def test_cohn_jet_guards():
    with pytest.raises(ValueError):
        s.cohn_jet(eta=0.0)
    with pytest.raises(ValueError):
        s.cohn_jet(M=-1.0)
    config = s.cohn_jet()
    assert config.m == 0 and abs(config.k - math.pi) < 1e-12
    assert config.model.eta == 0.01


def test_every_builder_parameter_has_a_default(capsys):
    # an entry's defaults are its builder's signature defaults
    for name, entry in s.CATALOG.items():
        assert inspect.Parameter.empty not in entry.default_params.values(), name
    assert s.CATALOG["cohn"].default_params == {"M": 1.0, "eta": 0.01, "m": 0, "k": math.pi}
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "_empty" not in out
    assert "defaults: lambda_param=5.0" in out and "defaults: kappa=1j" in out


def test_every_sl_entry_validates_clean():
    for name, entry in s.CATALOG.items():
        if entry.kind != "sl":
            continue
        assert s.validate(entry.build()) == [], name


def test_targets_have_provenance():
    for entry in s.CATALOG.values():
        for target in entry.paper_targets:
            assert target.provenance


def _array_and_scalar_coefficients(method, window):
    """(name, lanes, scalar) per coefficient p, q of each catalog entry that
    ``solve --method`` accepts: its values on 7 points x of ``window(domain)``
    by 3 lam, from one call on arrays (broadcast) and from scalar calls."""
    out = []
    for name in s.CATALOG:
        args = argparse.Namespace(command="solve", problem=name, method=method, param=None)
        try:
            problem, _ = cli._resolve(args, "sl")
        except cli.ConfigError:
            continue
        xs = np.linspace(*window(problem.domain), 7)[:, None]
        lams = np.array([0.5, 3.0 + 1.0j, 150.0])
        for fn in (problem.coefficients.p, problem.coefficients.q):
            lanes = np.broadcast_to(fn(xs, lams), (xs.size, lams.size))
            scalar = [[fn(x, lam) for lam in lams.tolist()] for x in xs[:, 0].tolist()]
            out.append((name, lanes, scalar))
    return out


def test_minimalist_entries_take_array_coefficients():
    # the minimalist winding evaluates its scan grid as lanes, calling p and
    # q on arrays of x and lam; every entry the method accepts must allow it
    found = _array_and_scalar_coefficients("minimalist", lambda d: (d.lower, d.upper))
    for name, lanes, scalar in found:
        assert np.array_equal(lanes, np.array(scalar, dtype=complex)), name
    assert "paine" in {name for name, _, _ in found}


def test_schwarzian_entries_take_array_coefficients():
    # the asymptotic winding evaluates its scan grid as lanes too, between
    # the cuts.  Array np.exp may differ from math.exp in the last bit (the
    # Morse q), so lanes agree to 4 ulp; the scalar path stays on Python
    # complexes, not numpy scalars
    found = _array_and_scalar_coefficients(
        "schwarzian-phi", lambda d: (d.lower_cut, d.upper_cut))
    for name, lanes, scalar in found:
        want = np.array(scalar, dtype=complex)
        assert np.all(np.abs(lanes - want) <= 4 * np.finfo(float).eps * np.abs(want)), name
        assert all(type(v) is complex for row in scalar for v in row), name
    assert {name for name, _, _ in found} == {"morse", "harmonic", "oscillator"}
