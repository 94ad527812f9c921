"""The tau_N screen: fbm._holder_bound bounds the last node of the exact GRR
double sum from above, and convergence._crossing runs that O(n^2) sum only
on the paths whose bound sum could reach the threshold N, with the same
crossing nodes as the exact sum on every path."""

import numpy as np
import pytest

from mixedsde import TimeGrid, generate_noise_pair, preset, stopping_time
from mixedsde import convergence
from mixedsde.convergence import (
    SolverConfig, _chunk_noise, _crossing, _first_crossing, _holder_parts, _pair_holder_cumulative, _run_chunk
)
from mixedsde.fbm import (
    _fbm_values_batch, _holder_bound, _holder_cumulative_batch, _holder_exponents, _resolve_dependence,
    _wiener_values_batch,
)
from mixedsde.fraccalc import _PAIR_N_MAX
from mixedsde.rng import stream


def _bound_and_exact(values, delta, eta, q):
    return _holder_bound(values, delta, eta, q), _holder_cumulative_batch(values, delta, eta, q)[-1]


@pytest.mark.parametrize("n", [8, 64, 100, 257])
@pytest.mark.parametrize("eta", [0.1, 0.25, 0.4])
def test_the_bound_is_above_the_wiener_functional(n, eta):
    grid = TimeGrid(1.0, n)
    w = _wiener_values_batch(grid, stream(11, 0, n), 64).T
    bound, exact = _bound_and_exact(w, grid.delta, eta, _holder_exponents("wiener", eta, None))
    assert bound.shape == exact.shape == (64,)
    assert np.all(bound >= exact) and np.all(exact > 0.0)


@pytest.mark.parametrize("n", [8, 64, 100, 257])
@pytest.mark.parametrize("h", [0.55, 0.7, 0.95])
@pytest.mark.parametrize("eta", [0.1, 0.3])  # 2 / eta is an integer, then not
def test_the_bound_is_above_the_fbm_functional(n, h, eta):
    grid = TimeGrid(1.0, n)
    b = _fbm_values_batch(grid, h, stream(12, 1, n), 64, "circulant-embedding").T
    bound, exact = _bound_and_exact(b, grid.delta, eta, _holder_exponents("fbm", eta, h))
    assert np.all(bound >= exact) and np.all(exact > 0.0)


def test_the_bound_of_a_flat_path_is_zero_and_of_a_nan_path_nan():
    values = np.zeros((65, 3))
    values[10, 2] = np.nan
    bound = _holder_bound(values, 1 / 64, 0.1, 10.0)
    assert bound[0] == bound[1] == 0.0 and np.isnan(bound[2])


def _eval_noise(dependence):
    """W and B^H (H 0.7) of one 256-path chunk on the eval grid of a fine n 512, eval_n 64 run."""
    w, b = _chunk_noise(_resolve_dependence(dependence), TimeGrid(1.0, 512), 0.7, 3, 0, 256, "circulant-embedding")
    return w[::8], b[::8]


@pytest.mark.parametrize("kind", ["sum", "wiener", "fbm"])
@pytest.mark.parametrize("dependence", ["independent", "volterra"])
@pytest.mark.parametrize("threshold", [3.0, 4.0, 5.0, 6.0, 50.0])
def test_the_screened_crossing_is_the_exact_one(dependence, threshold, kind):
    w, b = _eval_noise(dependence)
    k_cum = _pair_holder_cumulative(w, b, 1 / 64, 0.1, 0.7, kind)
    tau, crossed = _crossing(w, b, 1 / 64, 0.1, 0.7, threshold, kind)
    assert tau.dtype == _first_crossing(k_cum, threshold).dtype
    assert np.array_equal(tau, _first_crossing(k_cum, threshold))
    assert np.array_equal(crossed, k_cum[-1] >= threshold)


@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_at_threshold_5_a_chunk_holds_cleared_open_and_crossing_paths(dependence):
    w, b = _eval_noise(dependence)
    bound = sum(_holder_bound(v, 1 / 64, 0.1, q) for v, q in _holder_parts(w, b, 0.1, 0.7, "sum"))
    cleared = bound < 5.0 * (1.0 - 1e-9)
    _, crossed = _crossing(w, b, 1 / 64, 0.1, 0.7, 5.0)
    assert cleared.any() and (~cleared & ~crossed).any() and crossed.any()
    assert not (cleared & crossed).any()


def test_the_exact_sum_runs_on_the_open_paths_only(monkeypatch):
    w, b = _eval_noise("independent")
    b = b.copy()
    b[20, 7] = np.nan  # a nan bound leaves its path open
    widths = []

    def spy(values, *args):
        widths.append(values.shape[1])
        return _holder_cumulative_batch(values, *args)

    monkeypatch.setattr(convergence, "_holder_cumulative_batch", spy)
    tau, crossed = _crossing(w, b, 1 / 64, 0.1, 0.7, 50.0)
    assert widths == [1, 1]  # K^W and K^B of path 7
    assert np.all(tau == 64) and not crossed.any()


@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_an_acceptance_chunk_at_threshold_50_runs_no_exact_sum(monkeypatch, dependence):
    calls = []
    monkeypatch.setattr(convergence, "_holder_cumulative_batch", lambda *args: calls.append(args))
    rows = _run_chunk(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [16, 32, 64, 128, 256], TimeGrid(1.0, 4096), 256, 256,
        1000.0, 1.0, 5, _resolve_dependence(dependence), "circulant-embedding", 0,
    )
    assert calls == [] and not rows[-1].any()


def test_stopping_time_still_refuses_n_above_the_pair_cap_before_any_bound(monkeypatch):
    pair = generate_noise_pair(TimeGrid(1.0, _PAIR_N_MAX + 1), 0.7, 3)
    monkeypatch.setattr(convergence, "_holder_bound", lambda *args: pytest.fail("bound computed for a refused n"))
    with pytest.raises(ValueError, match=rf"^n={_PAIR_N_MAX + 1} exceeds {_PAIR_N_MAX}: the pair kernels cost"):
        stopping_time(pair, 0.1, 50.0)


def test_stopping_time_keeps_a_crossing_at_the_last_node():
    # crossing at node n gives nodes[n], one ulp above T on this grid; no crossing gives T itself
    pair = generate_noise_pair(TimeGrid(0.9, 89), 0.7, 8)
    assert pair.grid.nodes[-1] > pair.grid.horizon
    k_last = _pair_holder_cumulative(pair.w.values, pair.bh.values, pair.grid.delta, 0.1, 0.7)[-1]
    assert stopping_time(pair, 0.1, k_last) == pair.grid.nodes[-1]
    assert stopping_time(pair, 0.1, np.nextafter(k_last, np.inf)) == pair.grid.horizon
