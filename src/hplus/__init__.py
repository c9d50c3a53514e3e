"""Computational toolkit for the space of translated Dirichlet series.

Truncated-series arithmetic, the Hilbert seminorm family, Bohr lifts to
prime-scaled polytori, composition / superposition / differentiation
operators, and desk-scale experiment drivers for the growth inequalities
behind them.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .bohr import (
    LiftResult,
    MultiPoly,
    NonextensionTable,
    RhoEstimate,
    lift,
    nonextension_partial_sums,
    rho_estimate,
    weighted_h2_norm,
)
from .errors import (
    BeyondDeskScale,
    HplusError,
    InexactPower,
    MissingCutoff,
    NonzeroConstantTerm,
    SpectrumPoint,
    TableTooSmall,
    UndefinedAbscissa,
)
from .numtheory import (
    MultiIndex,
    PrimeTable,
    chebyshev_theta,
    divisor_power_table,
    euler_product,
    factorize,
    prime_pi,
    sieve,
    smooth_numbers,
)
from .operators import (
    Character,
    ClassificationReport,
    CompositionResult,
    GridSpec,
    Symbol,
    classify_symbol,
    compose_general,
    differentiate,
    integrate,
    resolvent,
    twist_symbol,
    vertical_limit,
    volterra,
)
from .series import (
    AbscissaReport,
    DirichletSeries,
    SeminormValue,
    abscissa_estimates,
    add,
    evaluate,
    multiply,
    power,
    scale,
    seminorm_2,
    seminorm_comparison_constant,
    seminorm_even,
    translate,
    with_truncation,
)
from .superposition import (
    ChainCheck,
    EntireCoeffs,
    ExponentTable,
    GrowthReport,
    LogWitnessTable,
    composition_criterion,
    noncomposition_exponent,
    power_norm_chain_check,
    superpose_entire,
    superpose_poly,
    zeta_growth_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
