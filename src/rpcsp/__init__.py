"""Planted CSP and noisy XOR toolkit: samplers, spectral refutation, recovery."""

from .approx_recovery import (
    BackendChoice,
    PseudoExpectation,
    round_even,
    round_odd,
    solve_pseudo_expectation,
)
from .errors import (
    ConvergenceError,
    FormatError,
    ParameterError,
    ResourceLimitError,
    UnsupportedConfigError,
)
from .exact_rounding import majority_round
from .fourier import FourierTable, distribution_complexity, fourier_table
from .instances import (
    CspInstance,
    CspPredicate,
    PlantingDistribution,
    XorInstance,
    clean,
    corr,
    random_assignment,
    sample_planted_csp,
    sample_planted_xor,
    sign_round,
    value,
)
from .kikuchi import KikuchiMatrix, build_kikuchi, refutation_certificate, spectral_norm
from .reduction import build_xor_side
from .solver import SolveReport, pair_to_even, solve_csp, solve_xor

__version__ = "0.1.0"
