"""mixedsde: pathwise simulation of mixed stochastic differential equations
driven by a Wiener process and a fractional Brownian motion with H > 1/2.

Exact fBm/Wiener samplers and dependent pairs, Riemann-Liouville fractional
derivatives and the pathwise Young integral by product integration, the
weighted Holder norms, the explicit Euler scheme with continuous
interpolation and localization, and a Monte Carlo harness for the strong
convergence rate on nested dyadic grids.
"""

__version__ = "0.1.0"

from .grid import TimeGrid, refine_dyadic, GridResourceError
from .fbm import (
    fbm_covariance,
    generate_fbm,
    generate_wiener,
    generate_noise_pair,
    holder_functional,
    NoisePath,
    NoisePair,
    HolderFunctional,
    Independent,
    VolterraFromWiener,
    JointGaussian,
    validate_hurst,
)
from .fraccalc import (
    SampledFunction,
    left_derivative,
    right_derivative,
    young_integral,
    norm_inf_alpha,
    norm_2_alpha,
    integral_bound,
    norms_comparison_constant,
)
from .coefficients import (
    CoefficientSet,
    kappa,
    check_hypotheses,
    HypothesisReport,
    preset,
    preset_names,
    compile_expression,
)
from .euler import EulerSolution, EulerBlowupError, euler_solve, interpolate
from .convergence import (
    SolverConfig, StoppedSolution, stopping_time, stop, ErrorReport, LevelStats, pathwise_error, mc_strong_error,
    fit_rate,
)

__all__ = [
    "__version__",
    "TimeGrid",
    "refine_dyadic",
    "GridResourceError",
    "fbm_covariance",
    "generate_fbm",
    "generate_wiener",
    "generate_noise_pair",
    "holder_functional",
    "NoisePath",
    "NoisePair",
    "HolderFunctional",
    "Independent",
    "VolterraFromWiener",
    "JointGaussian",
    "validate_hurst",
    "SampledFunction",
    "left_derivative",
    "right_derivative",
    "young_integral",
    "norm_inf_alpha",
    "norm_2_alpha",
    "integral_bound",
    "norms_comparison_constant",
    "CoefficientSet",
    "kappa",
    "check_hypotheses",
    "HypothesisReport",
    "preset",
    "preset_names",
    "compile_expression",
    "SolverConfig",
    "EulerSolution",
    "StoppedSolution",
    "EulerBlowupError",
    "euler_solve",
    "interpolate",
    "stopping_time",
    "stop",
    "ErrorReport",
    "LevelStats",
    "pathwise_error",
    "mc_strong_error",
    "fit_rate",
]
