"""Catalog of concrete problems as ready-to-solve configurations.

Every entry ships defaults that reproduce a known reference result, listed
in ``paper_targets`` with a provenance tag.  Quantum-mechanical potentials
are pre-normalized (hbar = mass scales absorbed); the jet model uses jet
units (lengths in jet radii, speeds in the jet sound speed).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .core import BoundarySpec, Coefficients, Domain, SLProblem
from .mhd import CohnJetModel

_INF = float("inf")


def _one(x: float, lam: complex) -> complex:
    return 1 + 0j


def _zero(x: float, lam: complex) -> complex:
    return 0j


@dataclass(frozen=True)
class Target:
    """A reference eigenvalue with its provenance."""

    value: complex
    provenance: str
    n: int | None = None


@dataclass(frozen=True)
class StabilityConfig:
    """A stability problem: equilibrium model plus fixed mode numbers."""

    model: CohnJetModel
    m: int
    k: float


@dataclass(frozen=True)
class CatalogEntry:
    builder: Callable[..., Any]
    paper_targets: tuple[Target, ...]
    kind: str  # "sl" or "stability"
    default_method: str
    description: str

    @property
    def default_params(self) -> dict[str, Any]:
        """The builder's parameters and their signature defaults."""
        return {name: p.default for name, p in inspect.signature(self.builder).parameters.items()}

    def build(self, **overrides: Any) -> Any:
        return self.builder(**overrides)


def morse(lambda_param: float = 5.0) -> SLProblem:
    """Morse potential well: p = 1, q = eps - lambda^2 (1 - e^{-x})^2.

    Bound states exist for n with lambda - n - 1/2 > 0 and sit at
    eps = lambda^2 - (lambda - n - 1/2)^2.
    """
    if lambda_param <= 0.5:
        raise ValueError("lambda_param must exceed 1/2 for any bound state")
    depth = lambda_param * lambda_param

    def q(x: float, eig: complex) -> complex:
        # arrays of x for lanes; math.exp keeps a scalar x a Python float
        u = 1.0 - (np.exp(-x) if isinstance(x, np.ndarray) else math.exp(-x))
        return eig - depth * u * u

    return SLProblem(
        coefficients=Coefficients(p=_one, q=q, p_prime=_zero),
        domain=Domain(-_INF, _INF, start=0.0, lower_cut=-7.0, upper_cut=15.0),
        boundaries=(BoundarySpec.quantization(), BoundarySpec.quantization()),
        label=f"morse(lambda={lambda_param:g})",
    )


def morse_eigenvalues(lambda_param: float = 5.0) -> list[float]:
    """Closed-form spectrum eps_n = lambda^2 - (lambda - n - 1/2)^2."""
    out = []
    n = 0
    while lambda_param - n - 0.5 > 0.0:
        out.append(lambda_param**2 - (lambda_param - n - 0.5) ** 2)
        n += 1
    return out


def harmonic() -> SLProblem:
    """Harmonic oscillator: p = 1, q = 2 eps - x^2; spectrum eps = n + 1/2."""

    def q(x: float, eig: complex) -> complex:
        return 2.0 * eig - x * x

    return SLProblem(
        coefficients=Coefficients(p=_one, q=q, p_prime=_zero),
        domain=Domain(-_INF, _INF, start=0.0, lower_cut=-6.0, upper_cut=6.0),
        boundaries=(BoundarySpec.quantization(), BoundarySpec.quantization()),
        label="harmonic",
    )


def paine() -> SLProblem:
    """Spectral test problem p = 1, q = lam - 1/(x + 0.1)^2 on [0, pi]
    with f(0) = f(pi) = 0 (encoded as F = infinity at both ends)."""

    def q(x: float, eig: complex) -> complex:
        s = x + 0.1
        return eig - 1.0 / (s * s)

    return SLProblem(
        coefficients=Coefficients(p=_one, q=q, p_prime=_zero),
        domain=Domain(
            0.0, math.pi, start=math.pi / 2, lower_cut=0.0, upper_cut=math.pi
        ),
        boundaries=(BoundarySpec.ratio(_INF), BoundarySpec.ratio(_INF)),
        label="paine",
    )


def const_oscillator(kappa: complex = 1j) -> SLProblem:
    """Oscillator with complex constant frequency: p = 1, q = kappa^2.

    Exactness fixture: the non-diverging branch at x -> +inf has
    F = i kappa exactly, for any launch state.  Requires Im kappa > 0.
    """
    kappa = complex(kappa)
    if kappa.imag <= 0.0:
        raise ValueError("kappa must have positive imaginary part")
    q_val = kappa * kappa

    def q(x: float, eig: complex) -> complex:
        return q_val

    return SLProblem(
        coefficients=Coefficients(p=_one, q=q, p_prime=_zero),
        domain=Domain(-_INF, _INF, start=0.0, lower_cut=-30.0, upper_cut=30.0),
        boundaries=(BoundarySpec.quantization(), BoundarySpec.quantization()),
        label=f"const_oscillator(kappa={kappa:g})",
    )


def cohn_jet(
    M: float = 1.0, eta: float = 0.01, m: int = 0, k: float = math.pi
) -> StabilityConfig:
    """Uniform jet in a cold azimuthally magnetized environment."""
    if eta <= 0.0:
        raise ValueError("density ratio eta must be positive")
    if M < 0.0:
        raise ValueError("Mach number must be nonnegative")
    if not float(m).is_integer():
        raise ValueError(f"azimuthal mode number m must be an integer, got {m}")
    return StabilityConfig(model=CohnJetModel(M=M, eta=eta), m=m, k=k)


_PAINE_PUBLISHED = (
    1.51987,
    4.94331,
    10.2847,
    17.5599,
    26.7828,
    37.9643,
    51.1131,
    66.2361,
    83.3385,
    102.424,
    123.497,
    146.558,
    171.611,
    198.657,
)


def _entries() -> dict[str, CatalogEntry]:
    morse_targets = tuple(
        Target(e, "exact: lambda^2 - (lambda - n - 1/2)^2", n)
        for n, e in enumerate(morse_eigenvalues(5.0))
    )
    harmonic_targets = tuple(
        Target(n + 0.5, "exact: n + 1/2", n) for n in range(6)
    )
    paine_targets = tuple(
        Target(v, "published value (6 significant figures)", n)
        for n, v in enumerate(_PAINE_PUBLISHED, start=1)
    )
    return {
        "morse": CatalogEntry(
            builder=morse,
            paper_targets=morse_targets,
            kind="sl",
            default_method="schwarzian-phi",
            description="Morse potential well (bound states below the plateau)",
        ),
        "harmonic": CatalogEntry(
            builder=harmonic,
            paper_targets=harmonic_targets,
            kind="sl",
            default_method="schwarzian-phi",
            description="quantum harmonic oscillator",
        ),
        "paine": CatalogEntry(
            builder=paine,
            paper_targets=paine_targets,
            kind="sl",
            default_method="minimalist",
            description="finite-interval spectral test problem (Dirichlet ends)",
        ),
        "oscillator": CatalogEntry(
            builder=const_oscillator,
            paper_targets=(),
            kind="sl",
            default_method="schwarzian-g",
            description="constant complex frequency oscillator (exactness fixture,"
            " non-diverging branch F = i kappa)",
        ),
        "cohn": CatalogEntry(
            builder=cohn_jet,
            paper_targets=(
                Target(
                    3.08 + 1.97j,
                    "published value (3 significant figures, m=0, k=pi)",
                ),
            ),
            kind="stability",
            default_method="schwarzian-g",
            description="uniform jet in a cold magnetized environment",
        ),
    }


CATALOG: dict[str, CatalogEntry] = _entries()


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; known: {', '.join(sorted(CATALOG))}"
        ) from None
