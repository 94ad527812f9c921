"""One rule per kind of scalar input, refused by name instead of coerced:
a number (grid._real) is a Python or numpy int or float, never a bool or a
string, and finite where it must be (grid._real's finite); a seed or a
count is an integer within its bounds (grid._integer, which rng.stream
applies to every seed, at least 0); an interval is finite with lo < hi
(grid._interval); the 2-norm's order lies in (0, 1/2)
(fraccalc._validate_norm2_order); the localization threshold is positive
(convergence._check_threshold); a path's node values are a read-only,
finite copy with one entry per node (grid._node_values); a time lies in
one window, a span widened by 1e-12 x max(1, |a|, |b|) (grid._in_span)."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import mixedsde.convergence as convergence
import mixedsde.euler as euler
from mixedsde import (
    NoisePath,
    SampledFunction,
    SolverConfig,
    StoppedSolution,
    TimeGrid,
    check_hypotheses,
    euler_solve,
    fbm_covariance,
    generate_fbm,
    generate_noise_pair,
    generate_wiener,
    holder_functional,
    integral_bound,
    interpolate,
    kappa,
    left_derivative,
    mc_strong_error,
    norm_2_alpha,
    norm_inf_alpha,
    norms_comparison_constant,
    pathwise_error,
    preset,
    right_derivative,
    stop,
    stopping_time,
    validate_hurst,
    young_integral,
)
from mixedsde.coefficients import coefficients_from_expressions
from mixedsde.rng import stream


@pytest.fixture(scope="module")
def pair():
    return generate_noise_pair(TimeGrid(1.0, 64), 0.7, 5)


@pytest.fixture(scope="module")
def sol(pair):
    return euler_solve(preset("linear"), pair, 1.0)


@pytest.fixture(scope="module")
def stopped(pair, sol):
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 16))
    return stop(coarse, 1.0), stop(sol, 1.0)


@pytest.fixture(scope="module")
def f(pair):
    return SampledFunction.from_grid(pair.grid, pair.bh.values)


# ---------------------------------------------------------------------------
# the 2-norm's order window


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.5, -0.2, 0.0, math.nan])
def test_pathwise_error_refuses_an_order_outside_the_2norm_window(stopped, alpha):
    with pytest.raises(ValueError, match=r"the 2-norm's order alpha must lie in \(0, 1/2\)"):
        pathwise_error(*stopped, alpha)


@pytest.mark.parametrize("alpha", ["0.3", True])
def test_pathwise_error_refuses_an_order_that_is_no_number(stopped, alpha):
    with pytest.raises(ValueError, match=re.escape(f"alpha must be a number, got {alpha!r}")):
        pathwise_error(*stopped, alpha)


def test_pathwise_error_checks_the_order_before_any_work(pair, stopped):
    other = euler_solve(preset("linear"), generate_noise_pair(pair.grid, 0.7, 6), 1.0)
    with pytest.raises(ValueError, match="the 2-norm's order"):  # not the coupling refusal
        pathwise_error(stopped[0], stop(other, 1.0), 0.7)


def test_one_order_window_for_every_2norm(f, stopped):
    calls = (
        lambda: SolverConfig(alpha=0.5),
        lambda: norm_2_alpha(f, 0.5),
        lambda: norms_comparison_constant(0.5, 0.0, 1.0),
        lambda: pathwise_error(*stopped, 0.5),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {"the 2-norm's order alpha must lie in (0, 1/2), got 0.5"}


# ---------------------------------------------------------------------------
# the localization settings


def test_solver_config_lives_with_the_localization_it_configures():
    assert SolverConfig.__module__ == "mixedsde.convergence"
    assert "SolverConfig" in convergence.__all__ and "SolverConfig" not in euler.__all__
    assert not hasattr(euler, "kappa") and not hasattr(euler, "_holder_exponents")


def test_validate_returns_the_rate_floor_the_report_states():
    config = SolverConfig(alpha=0.35)
    assert config.validate(0.7, 0.75) == 0.5 - 0.35 - 0.05
    report = mc_strong_error(preset("linear"), 0.7, config, [4, 8, 16], 1, 20, workers=1)
    assert report.rate_floor == config.validate(0.7, 0.75)


def test_one_threshold_rule_for_the_config_and_stopping_time(pair):
    for threshold in (0.0, -1.0, math.nan):
        messages = set()
        calls = (lambda: SolverConfig(alpha=0.35, threshold=threshold), lambda: stopping_time(pair, 0.1, threshold))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {f"localization threshold must be positive, got {threshold}"}


# ---------------------------------------------------------------------------
# seeds


@pytest.mark.parametrize("seed", [3.7, True, "5", np.float64(2.0)])
def test_a_seed_is_an_integer(pair, seed):
    grid = pair.grid
    calls = (
        lambda: stream(seed),
        lambda: generate_fbm(grid, 0.7, seed),
        lambda: generate_wiener(grid, seed),
        lambda: generate_noise_pair(grid, 0.7, seed),
        lambda: generate_noise_pair(grid, 0.7, seed, "volterra"),
        lambda: check_hypotheses(preset("linear"), seed=seed),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            call()


def test_a_numpy_integer_seed_draws_as_its_value(pair):
    same = generate_noise_pair(pair.grid, 0.7, np.int64(5))
    assert same.seed == 5 and type(same.seed) is int
    assert np.array_equal(same.bh.values, pair.bh.values) and np.array_equal(same.w.values, pair.w.values)


# ---------------------------------------------------------------------------
# numbers


_CUSTOM = ("c", "0.0", "0.0", "0.0", "0.0")


def _mc(**kwargs):
    return mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 20, **kwargs)



# (name the refusal states, a bad value, the call); e holds the fixtures pair, sol and f
_NUMBER_SITES = [
    ("h", "0.7", lambda e, v: validate_hurst(v)),
    ("h", True, lambda e, v: fbm_covariance(0.3, 0.5, v)),
    ("eta", "0.1", lambda e, v: holder_functional(e.pair.w, v)),
    ("t", True, lambda e, v: holder_functional(e.pair.w, 0.1, v)),
    ("alpha", "0.3", lambda e, v: left_derivative(e.f, v, 0.5)),
    ("x", True, lambda e, v: left_derivative(e.f, 0.3, v)),
    ("x", False, lambda e, v: right_derivative(e.f, 0.3, v)),
    ("a", True, lambda e, v: SampledFunction.from_callable(np.sin, v, 1.0, 8)),
    ("b", "1", lambda e, v: SampledFunction.from_callable(np.sin, 0.0, v, 8)),
    ("alpha", True, lambda e, v: norm_inf_alpha(e.f, v)),
    ("k_b", "1.0", lambda e, v: integral_bound(e.f, 0.3, v)),
    ("time", False, lambda e, v: young_integral(e.f, e.f, 0.3, v, True)),
    ("time", True, lambda e, v: e.pair.grid.node_index(v)),
    ("time", True, lambda e, v: e.pair.grid.floor_index(v)),
    ("beta", "0.75", lambda e, v: kappa(v)),
    ("K", "1", lambda e, v: coefficients_from_expressions(*_CUSTOM, v, 0.75)),
    ("beta", "0.75", lambda e, v: coefficients_from_expressions(*_CUSTOM, 1.0, v)),
    ("t_range entry", "0", lambda e, v: check_hypotheses(preset("linear"), t_range=(v, 1.0))),
    ("x_range entry", True, lambda e, v: check_hypotheses(preset("linear"), x_range=(-1.0, v))),
    ("r_bound", "1000", lambda e, v: _mc(r_bound=v)),
    ("x0", True, lambda e, v: _mc(x0=v)),
    ("t_horizon", "1", lambda e, v: _mc(t_horizon=v)),
    ("x0", "1.0", lambda e, v: euler_solve(preset("linear"), e.pair, v)),
    ("x0", True, lambda e, v: euler_solve(preset("linear"), e.pair, v)),
    ("time", True, lambda e, v: interpolate(e.sol, v)),
    ("tau", True, lambda e, v: stop(e.sol, v)),
    ("threshold", "50", lambda e, v: stopping_time(e.pair, 0.1, v)),
    ("threshold", True, lambda e, v: stopping_time(e.pair, 0.1, v)),
]


@pytest.mark.parametrize("name, value, call", _NUMBER_SITES, ids=[f"{n}-{v!r}" for n, v, _ in _NUMBER_SITES])
def test_an_api_scalar_refuses_a_bool_or_a_string_by_name(pair, sol, f, name, value, call):
    fixtures = SimpleNamespace(pair=pair, sol=sol, f=f)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
        call(fixtures, value)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_one_finite_start_rule_for_the_solver_and_the_harness(pair, monkeypatch, x0):
    monkeypatch.setattr(convergence, "_chunk_noise", lambda *args: pytest.fail("noise drawn for a bad x0"))
    messages = set()
    for call in (lambda: euler_solve(preset("linear"), pair, x0), lambda: _mc(x0=x0)):
        with pytest.raises(ValueError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {f"x0 must be finite, got {x0}"}


def test_a_count_is_an_integer():
    with pytest.raises(ValueError, match=re.escape("samples must be an integer, got 200.0")):
        check_hypotheses(preset("linear"), samples=200.0)
    for n in (True, 2.5, "8"):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            SampledFunction.from_callable(np.sin, 0.0, 1.0, n)


@pytest.mark.parametrize("n", [0, -3])
def test_a_sampled_function_from_a_callable_needs_one_cell(n):
    with pytest.raises(ValueError, match=re.escape(f"step count must be at least 1, got {n}")):
        SampledFunction.from_callable(np.sin, 0.0, 1.0, n)
    assert SampledFunction.from_callable(np.sin, np.int64(0), 1, np.int64(1)).t.tolist() == [0.0, 1.0]


def test_numpy_scalars_give_the_values_of_python_numbers(pair, sol, f):
    assert stop(sol, np.float64(0.5)).values.tolist() == stop(sol, 0.5).values.tolist()
    assert interpolate(sol, np.float64(0.5)) == interpolate(sol, 0.5)
    assert left_derivative(f, np.float32(0.25), np.float64(0.5)) == left_derivative(f, 0.25, 0.5)
    assert young_integral(f, f, 0.3, np.float64(0.25), np.int64(1)) == young_integral(f, f, 0.3, 0.25, 1.0)
    assert stopping_time(pair, 0.1, np.int64(2)) == stopping_time(pair, 0.1, 2.0)


def test_grids_and_coefficients_store_the_float_of_a_number():
    grid = TimeGrid(np.int64(1), 4)
    assert type(grid.horizon) is float and grid == TimeGrid(1.0, 4)
    coeffs = coefficients_from_expressions("c", "0.0", "0.0", "0.0", "0.0", 2, np.float64(0.75))
    assert (type(coeffs.K), type(coeffs.beta)) == (float, float) and (coeffs.K, coeffs.beta) == (2.0, 0.75)


def test_solver_config_stores_the_float_of_a_number():
    config = SolverConfig(alpha=np.float64(0.35), eta=np.float32(0.125), threshold=50, epsilon=np.float64(0.05))
    assert {type(v) for v in (config.alpha, config.eta, config.threshold, config.epsilon)} == {float}
    assert config == SolverConfig(alpha=0.35, eta=0.125, threshold=50.0, epsilon=0.05)
    report = mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35, threshold=50), [4, 8, 16], 1, 20)
    assert '"threshold": 50.0' in report.to_json()


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (1.0, 0.0), (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_the_norm_comparison_constant_refuses_an_interval_that_is_not_finite_and_increasing(a, b):
    if math.isfinite(a) and math.isfinite(b):
        message = f"[a, b] must be an interval with lo < hi, got [{a}, {b}]"
    else:
        message = f"[a, b] entry must be finite, got {b if math.isfinite(a) else a}"
    with pytest.raises(ValueError, match=re.escape(message)):
        norms_comparison_constant(0.35, a, b)


def test_the_norm_comparison_constant_takes_its_ends_as_numbers():
    with pytest.raises(ValueError, match=re.escape("[a, b] entry must be a number, got '1'")):
        norms_comparison_constant(0.35, 0.0, "1")
    assert norms_comparison_constant(0.35, np.int64(0), 1) == norms_comparison_constant(0.35, 0.0, 1.0)


# ---------------------------------------------------------------------------
# node values


# (the owner, its name for the array, the caller's good array, a call that
# builds the owner from the array and returns the owner's stored copy)
_NODE_VALUE_SITES = [
    ("NoisePath", "values", lambda e: e.pair.w.values, lambda e, v: NoisePath(e.pair.grid, v, "wiener").values),
    ("EulerSolution", "values", lambda e: e.sol.values, lambda e, v: dataclasses.replace(e.sol, values=v).values),
    ("StoppedSolution", "values", lambda e: e.sol.values, lambda e, v: StoppedSolution(e.sol, 1.0, v).values),
    ("SampledFunction", "values", lambda e: e.pair.w.values, lambda e, v: SampledFunction(e.pair.grid.nodes, v).y),
    ("SampledFunction", "nodes", lambda e: e.pair.grid.nodes, lambda e, v: SampledFunction(v, e.pair.w.values).t),
]
_NODE_VALUE_IDS = [f"{owner}-{name}" for owner, name, _, _ in _NODE_VALUE_SITES]


@pytest.mark.parametrize("owner, name, good, build", _NODE_VALUE_SITES, ids=_NODE_VALUE_IDS)
def test_a_path_stores_a_read_only_copy_and_leaves_the_callers_array_writeable(pair, sol, owner, name, good, build):
    e = SimpleNamespace(pair=pair, sol=sol)
    mine = np.array(good(e))
    stored = build(e, mine)
    assert mine.flags.writeable and not stored.flags.writeable and np.array_equal(stored, mine)
    mine[1:] += 1.0
    assert np.array_equal(stored, good(e))


@pytest.mark.parametrize("owner, name, good, build", _NODE_VALUE_SITES, ids=_NODE_VALUE_IDS)
def test_a_path_refuses_node_values_that_are_not_finite(pair, sol, owner, name, good, build):
    e = SimpleNamespace(pair=pair, sol=sol)
    for bad in (math.nan, math.inf):
        v = np.array(good(e))
        v[3] = bad
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
            build(e, v)


@pytest.mark.parametrize("owner, name, good, build", _NODE_VALUE_SITES[:4], ids=_NODE_VALUE_IDS[:4])
def test_a_path_refuses_node_values_of_the_wrong_length(pair, sol, owner, name, good, build):
    e = SimpleNamespace(pair=pair, sol=sol)
    n = pair.grid.n
    for v in (good(e)[:-1], np.append(good(e), 0.0), good(e)[:, None]):
        message = f"values must be a 1-d array with one entry per node ({n + 1}), got shape {v.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(e, v)


# ---------------------------------------------------------------------------
# time windows


# (the name the refusal states, the query a time u on [0, 1] makes, a call taking it)
_WINDOW_SITES = {
    "floor_index": ("time", lambda u: u, lambda e, q: e.pair.grid.floor_index(q)),
    "floor_index-array": ("time", lambda u: np.array([0.5, u]), lambda e, q: e.pair.grid.floor_index(q)),
    "stop": ("time", lambda u: u, lambda e, q: stop(e.sol, q)),
    "left_derivative": ("x", lambda u: u, lambda e, q: left_derivative(e.f, 0.3, q)),
    "right_derivative": ("x", lambda u: u, lambda e, q: right_derivative(e.f, 0.3, q)),
}


@pytest.mark.parametrize("site", list(_WINDOW_SITES))
@pytest.mark.parametrize("u", [-2e-12, 1.0 + 2e-12, -0.5, math.nan, math.inf, -math.inf])
def test_one_window_refuses_a_time_outside_the_span(pair, sol, f, site, u):
    name, query, call = _WINDOW_SITES[site]
    with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [0.0, 1.0], got {u}")):
        call(SimpleNamespace(pair=pair, sol=sol, f=f), query(u))


def test_a_time_within_the_window_slack_is_the_end_it_passes(pair, sol, f):
    grid = pair.grid
    for u, end in ((-5e-13, 0.0), (1.0 + 5e-13, 1.0)):
        assert grid.floor_index(u) == grid.floor_index(end)
        assert grid.floor_index(np.array([u])).tolist() == [grid.floor_index(end)]
        assert stop(sol, u).values.tolist() == stop(sol, end).values.tolist()
    # the derivatives' closed ends: test_fraccalc; their open ends stay open
    with pytest.raises(ValueError, match=re.escape("x must lie in (a, b], got 0.0")):
        left_derivative(f, 0.3, -5e-13)
    with pytest.raises(ValueError, match=re.escape("x must lie in [a, b), got 1.0")):
        right_derivative(f, 0.3, 1.0 + 5e-13)


def test_the_window_slack_is_absolute_below_a_unit_horizon():
    grid = TimeGrid(1e-3, 64)
    sol = euler_solve(preset("linear"), generate_noise_pair(grid, 0.7, 5), 1.0)
    assert np.array_equal(stop(sol, 1e-3 + 5e-13).values, stop(sol, 1e-3).values)
