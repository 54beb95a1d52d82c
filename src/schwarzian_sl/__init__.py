"""Generalized Sturm-Liouville eigenvalue problems via Riccati and
Schwarzian reformulations, with complex-plane spectral webs for stability
problems."""

from .core import (
    BoundaryKind,
    BoundarySpec,
    Coefficients,
    Diagnostic,
    Domain,
    SchwarzianSLError,
    SLProblem,
    ZeroCoefficient,
    kappa_squared,
    validate,
)
from .integrate import (
    DimensionMismatch,
    NonFiniteRhs,
    OdeSystem,
    SingularSurface,
    StepFailure,
    StopReason,
    Tolerances,
    Trajectory,
    integrate,
    integrate_lanes,
    merge_legs,
)
from .minimalist import (
    DEFAULT_GAUGE,
    FiniteIntervalWinding,
    PhiSubstitution,
    ZeroGauge,
    phase_system,
    riccati_system,
    solve_finite_interval,
)
from .schwarzian import (
    Approach,
    AsymptoticWinding,
    DegenerateBoundary,
    DegenerateLaunch,
    GState,
    NotAsymptotic,
    PhiState,
    SampledFunction,
    ZeroDerivative,
    default_g_initial_state,
    default_initial_state,
    eigenfunction,
    g_difference_value,
    g_system,
    phi_system,
    phi_winding_value,
    reconstruct_F,
    schwarzian_derivative,
    solve_asymptotic,
    solve_constant_from_bc,
)
from .rootfind import (
    Charge,
    Crossing,
    DispersionPoint,
    NoConvergence,
    RealScan,
    SpectralWeb,
    dispersion_scan,
    refine_complex_root,
    scan_real,
    spectral_web,
)
from .mhd import (
    CohnJetModel,
    JetQuantizationFunction,
    MhdEquilibrium,
    ProfileSegment,
    YSamples,
    eigenfunctions_y,
    jet_trajectories,
    y1_g_system_rhs,
    y1_phi_system_rhs,
    y1_system,
    y_riccati_system,
)
from .catalog import (
    CATALOG,
    CatalogEntry,
    StabilityConfig,
    Target,
    cohn_jet,
    const_oscillator,
    get_entry,
    harmonic,
    morse,
    morse_eigenvalues,
    paine,
)

__version__ = "0.1.0"
