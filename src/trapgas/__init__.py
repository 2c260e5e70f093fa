"""Two-point correlation functions of a harmonically trapped 1D Bose gas.

Three independent evaluation routes (exact Legendre-function spectral
formulas, truncated Matsubara/mode series, closed-form asymptotics) plus a
finite-difference oracle that cross-validates them.
"""

from .correlator import (
    CoherenceValue,
    CorrelatorQuery,
    FitResult,
    coherence_multidim,
    extract_exponent,
    gamma_d1_exact,
    gamma_d1_quasihom,
    gamma_from_green,
    gamma_homog,
    gamma_trapped_asymptotic,
    theta_at,
    theta_homogeneous,
    xi_at,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DataError,
    DomainError,
    RegimeError,
    TrapGasError,
    UsageError,
)
from .green_homogeneous import (
    GreenDifference,
    GreenValue,
    HomogSeriesControl,
    green_difference,
    homog_asymptotic_highT,
    homog_asymptotic_lowT,
    homog_series,
)
from .green_trapped import (
    BOUNDARY_EPS,
    LowTControl,
    SpectralDensity,
    asympt_green_highT,
    asympt_green_lowT,
    closed_form_zero_mode,
    lowT_legendre_series,
    matsubara_assemble,
    spectral_densities,
    spectral_density,
)
from .legendre import (
    LegendrePair,
    legendre_pair,
    nu_from_omega,
    p_poly,
    p_poly_table,
    wronskian_check,
)
from .model import (
    DerivedScales,
    LevelSpacing,
    PhysicalParams,
    Regime,
    classify_regime,
    derive_scales,
    energy_level,
    level_spacing_expansion,
    rho_tf,
)

# The oracle is the only module that needs scipy, and only `validate` and
# `green --mode oracle` run it, so its names load on first use (PEP 562).
_ORACLE_NAMES = (
    "FdmGrid",
    "FdmSolution",
    "brute_frequency_sum",
    "brute_legendre_tail",
    "fdm_eigensolve",
    "fdm_eigensolve_richardson",
    "fdm_spectral_solve",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_ORACLE_NAMES))


__version__ = "0.1.0"
