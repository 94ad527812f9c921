"""Pins the public names and the CLI options, so that a refactor cannot
drop one unnoticed. Adding a name or a flag means updating this file."""

import argparse

import mixedsde
from mixedsde.cli import build_parser

PUBLIC_NAMES = [
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

_COEFFICIENT_FLAGS = ["--a", "--b", "--beta", "--c", "--dc", "--k", "--preset"]

CLI_OPTIONS = {
    "fbm": [
        "--dependence", "--eta", "--h", "--method", "--n", "--out", "--pair", "--seed", "--t",
    ],
    "integrate": ["--alpha", "--f", "--g"],
    "solve": sorted(
        _COEFFICIENT_FLAGS
        + ["--dependence", "--h", "--method", "--n", "--out", "--seed", "--t", "--x0"]
    ),
    "check": sorted(
        _COEFFICIENT_FLAGS
        + ["--samples", "--seed", "--t-max", "--t-min", "--x-max", "--x-min"]
    ),
    "converge": sorted(
        _COEFFICIENT_FLAGS
        + [
            "--alpha", "--dependence", "--epsilon", "--eta", "--eval-n", "--force", "--h",
            "--levels", "--m-fine", "--manifest", "--method", "--outdir", "--paths",
            "--r-bound", "--seed", "--t", "--threshold", "--workers", "--x0",
        ]
    ),
}


def test_public_names_pinned():
    assert mixedsde.__all__ == PUBLIC_NAMES
    assert all(hasattr(mixedsde, name) for name in PUBLIC_NAMES)


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_options_pinned():
    subcommands = _subcommands(build_parser())
    assert sorted(subcommands) == sorted(CLI_OPTIONS)
    for name, sub in subcommands.items():
        options = sorted(
            opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")
        )
        assert options == CLI_OPTIONS[name], name
