import dataclasses
import math
import re

import numpy as np
import pytest

from mixedsde import check_hypotheses, compile_expression, kappa, preset, preset_names
from mixedsde.coefficients import coefficients_from_expressions


def test_kappa_values():
    assert kappa(0.9) == 0.5
    assert kappa(0.3) == 0.3
    assert kappa(0.5) == 0.5
    with pytest.raises(ValueError):
        kappa(1.0)
    with pytest.raises(ValueError):
        kappa(0.0)


def test_presets_pass_hypotheses():
    for name in ("linear", "additive", "bounded-smooth", "zero"):
        report = check_hypotheses(preset(name))
        assert report.all_passed, f"{name}: {report.failed}"


def test_sine_set_passes():
    # a = b = 0, c = sin(x), dc = cos(x), K = 1: 1-Lipschitz and bounded
    coeffs = coefficients_from_expressions("sine", "0.0", "0.0", "sin(x)", "cos(x)", 1.0, 0.75)
    assert check_hypotheses(coeffs).all_passed


def test_quadratic_c_fails_growth():
    report = check_hypotheses(preset("quadratic-c"))
    assert not report.all_passed
    assert "A" in report.failed
    # the violation witness lives at large |x|
    assert abs(report.results["A"].witness[1]) > 5.0


def test_unbounded_b_fails_boundedness():
    report = check_hypotheses(preset("unbounded-b"))
    assert report.failed == ["E"]
    assert report.results["E"].worst_ratio > 1.0


def test_non_finite_coefficient_fails_with_witness():
    coeffs = coefficients_from_expressions("bad-log", "log(x)", "0.0", "0.0", "0.0", 1.0, 0.75)
    report = check_hypotheses(coeffs)
    assert not report.results["A"].passed
    assert report.results["A"].worst_ratio == math.inf


def test_monotone_in_k():
    base = preset("bounded-smooth")
    rep_small = check_hypotheses(dataclasses.replace(base, K=base.K))
    rep_large = check_hypotheses(dataclasses.replace(base, K=base.K * 3.0))
    assert rep_small.all_passed
    assert rep_large.all_passed
    # shrinking K below the observed worst ratio must flip the verdict
    worst = max(r.worst_ratio for r in rep_small.results.values())
    rep_too_small = check_hypotheses(dataclasses.replace(base, K=worst / 2.0))
    assert not rep_too_small.all_passed


def test_report_deterministic():
    a = check_hypotheses(preset("linear"), seed=5)
    b = check_hypotheses(preset("linear"), seed=5)
    assert str(a) == str(b)


def test_sample_count_gate():
    with pytest.raises(ValueError, match="samples must be at least 100, got 50"):
        check_hypotheses(preset("linear"), samples=50)
    with pytest.raises(ValueError, match=r"samples=2049 exceeds 2048: samples\^2 \(t, x\) pairs at 122 B"):
        check_hypotheses(preset("linear"), samples=2049)


def test_beta_windows():
    with pytest.raises(ValueError):
        coefficients_from_expressions("bad", "0", "0", "0", "0", 1.0, 1.0)
    preset("linear").validate_for_hurst(0.7)
    low_beta = coefficients_from_expressions("low-beta", "0", "0", "0", "0", 1.0, 0.25)
    low_beta.validate_for_hurst(0.8)  # 1 - H = 0.2 < beta
    with pytest.raises(ValueError):
        low_beta.validate_for_hurst(0.7)  # 1 - H = 0.3 >= beta


@pytest.mark.parametrize("key, value", [("beta", "0.75"), ("beta", None), ("K", True), ("K", "1")])
def test_coefficient_constants_must_be_numbers(key, value):
    with pytest.raises(ValueError, match=re.escape(f"{key} must be a number, got {value!r}")):
        dataclasses.replace(preset("linear"), **{key: value})


@pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan])
def test_coefficient_constant_k_must_be_positive_and_finite(k):
    with pytest.raises(ValueError, match="K must be positive and finite"):
        dataclasses.replace(preset("linear"), K=k)


def test_preset_names_and_unknown():
    assert "linear" in preset_names()
    with pytest.raises(ValueError):
        preset("nope")


# ---------------------------------------------------------------------------
# expression language


def test_expression_arithmetic_matches_numpy():
    fn = compile_expression("0.5 * sin(x + t) + max(x, 0) - x**2 / 3")
    t = 0.3
    x = np.linspace(-2, 2, 7)
    expected = 0.5 * np.sin(x + t) + np.maximum(x, 0) - x**2 / 3
    assert np.allclose(fn(t, x), expected, rtol=1e-15)


def test_expression_constants():
    fn = compile_expression("pi * e")
    assert fn(0.0, 0.0) == pytest.approx(math.pi * math.e, rel=1e-15)


def test_expression_deterministic_evaluation():
    fn = compile_expression("exp(x) * sin(t) + sqrt(abs(x))")
    x = np.linspace(-1, 1, 100)
    assert np.array_equal(fn(0.7, x), fn(0.7, x))


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "y + 1",
        "x.real",
        "lambda: 1",
        "min(1, 2, 3)",
        "exp(x, 2)",
        "'abc'",
        "[1, 2]",
        "x if t else 0",
    ],
)
def test_expression_rejections(bad):
    with pytest.raises(ValueError):
        compile_expression(bad)


def test_expression_time_only_variable():
    fn = compile_expression("t ** 2", variables=("t",))
    assert fn(3.0) == 9.0
    with pytest.raises(ValueError):
        compile_expression("x", variables=("t",))


@pytest.mark.parametrize("src", ["x**2", "-x**3", "x**4 - 2 * x**5", "(x + t)**7", "x**12 / 3"])
def test_integer_powers_round_the_same_on_scalars_and_arrays(src):
    # scalar ** goes through libm pow and an array's through a SIMD pow;
    # products round the same at every shape
    fn = compile_expression(src)
    x = np.random.default_rng(0).normal(size=20000) * 3.0
    rows = fn(0.4, x)
    assert np.array_equal(np.array([fn(0.4, v) for v in x]), rows)
    assert np.array_equal(fn(0.4, x[:, None])[:, 0], rows)


def test_integer_powers_are_repeated_products():
    x = np.random.default_rng(1).normal(size=500)
    assert np.array_equal(compile_expression("x**2")(0.0, x), x * x)
    assert np.array_equal(compile_expression("x**3")(0.0, x), x * (x * x))
    assert np.array_equal(compile_expression("x**6")(0.0, x), (x * x) * ((x * x) * (x * x)))
    # every other exponent is np.float_power, libm pow, exact at k = 0 and 1
    assert np.array_equal(compile_expression("x**0 + x**1")(0.0, x), 1.0 + x)
    root = compile_expression("x**2.5")
    assert np.array_equal(root(0.0, np.abs(x)), np.float_power(np.abs(x), 2.5))
    assert np.array_equal([root(0.0, v) for v in np.abs(x)], root(0.0, np.abs(x)))  # scalars round as the row
    assert compile_expression("2**3 + t**2", variables=("t",))(3.0) == 17.0
