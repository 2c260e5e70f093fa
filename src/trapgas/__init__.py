"""Two-point correlation functions of a harmonically trapped 1D Bose gas.

Three independent evaluation routes (exact Legendre-function spectral
formulas, truncated Matsubara/mode series, closed-form asymptotics) plus a
finite-difference oracle that cross-validates them.
"""

from .correlator import FitResult, extract_exponent, gamma_d1_exact, gamma_from_green, gamma_homog
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
    GreenValue,
    green_difference,
    homog_asymptotic_highT,
    homog_asymptotic_lowT,
    homog_series,
)
from .green_trapped import (
    BOUNDARY_EPS,
    SpectralDensity,
    asympt_green_highT,
    asympt_green_lowT,
    closed_form_green,
    lowT_legendre_series,
    lowT_legendre_series_many,
    matsubara_assemble,
    matsubara_assemble_many,
    spectral_densities,
    spectral_density,
)
from .legendre import p_poly_table
from .model import (
    CorrelatorQuery,
    DerivedScales,
    PhysicalParams,
    Regime,
    classify_regime,
    derive_scales,
    energy_level,
    level_spacing_expansion,
    rho_tf,
    theta_at,
    theta_homogeneous,
    xi_at,
)

# Only `validate` and `green --mode oracle` run the oracle, so its names load
# on first use (PEP 562) and no other command pays for importing it.
_ORACLE_NAMES = (
    "FdmGrid",
    "FdmSolution",
    "brute_frequency_sum",
    "brute_legendre_tail",
    "fdm_eigensolve",
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
