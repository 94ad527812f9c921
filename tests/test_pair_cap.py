"""One cap for the O(n^2) pair kernels: every single-path entry point that
reaches fraccalc._offset_sum refuses n above fraccalc._PAIR_N_MAX = 2^14 with
one ValueError that names n and the cost, before any loop runs and before
any weight table is built or cached; `fbm` reads the same cap to skip its
Holder functional."""

import time

import numpy as np
import pytest

from mixedsde import (
    SampledFunction,
    TimeGrid,
    euler_solve,
    generate_noise_pair,
    holder_functional,
    integral_bound,
    norm_2_alpha,
    norm_inf_alpha,
    pathwise_error,
    preset,
    stop,
    stopping_time,
)
from mixedsde import fraccalc
from mixedsde.cli import main
from mixedsde.fbm import holder_cumulative
from mixedsde.fraccalc import _PAIR_N_MAX, increment_bracket

_N = _PAIR_N_MAX + 1


@pytest.fixture(scope="module")
def above():
    """A noise pair, a sampled function and two stopped solutions (coarse n 5) with fine n = 2^14 + 1."""
    pair = generate_noise_pair(TimeGrid(1.0, _N), 0.7, 3)
    coarse, fine = (stop(euler_solve(preset("linear"), pair, 1.0, grid), 1.0) for grid in (TimeGrid(1.0, 5), None))
    return pair, SampledFunction.from_grid(pair.grid, pair.bh.values), coarse, fine


_CALLS = {
    "increment_bracket": lambda p, f, c, s: increment_bracket(f.y, f.delta, 0.35),
    "norm_inf_alpha": lambda p, f, c, s: norm_inf_alpha(f, 0.35),
    "norm_2_alpha": lambda p, f, c, s: norm_2_alpha(f, 0.35),
    "integral_bound": lambda p, f, c, s: integral_bound(f, 0.35, 1.0),
    "holder_functional": lambda p, f, c, s: holder_functional(p.bh, 0.1),
    "holder_cumulative": lambda p, f, c, s: holder_cumulative(p.w.values, p.grid.delta, 0.1, 10.0),
    "stopping_time": lambda p, f, c, s: stopping_time(p, 0.1, 50.0),
    "pathwise_error": lambda p, f, c, s: pathwise_error(c, s, 0.35),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_every_pair_kernel_refuses_n_above_the_cap_before_any_work(above, name, monkeypatch):
    def no_table(*args):
        raise AssertionError("weight table built for a refused n")

    monkeypatch.setattr(fraccalc, "_power_moments", no_table)
    caches = (fraccalc._cell_weights, fraccalc._norm2_weight_cells)
    before = [cache.cache_info() for cache in caches]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^n={_N} exceeds {_PAIR_N_MAX}: the pair kernels cost O\(n\^2\) time"):
        _CALLS[name](*above)
    assert time.perf_counter() - start < 0.1
    assert [cache.cache_info() for cache in caches] == before


def test_the_pair_cap_is_inclusive():
    values = np.sin(np.arange(_PAIR_N_MAX + 1.0))
    bracket = increment_bracket(values, 1.0 / _PAIR_N_MAX, 0.35)
    assert bracket.shape == values.shape and bracket[0] == 0.0 and np.all(np.isfinite(bracket))


def test_fbm_skips_the_holder_functional_just_above_the_pair_cap(tmp_path, capsys):
    assert main(["fbm", "--h", "0.7", "--n", str(_N), "--out", str(tmp_path / "b.csv")]) == 0
    assert f"K^(0.1)_T not computed (n > {_PAIR_N_MAX}, O(n^2))" in capsys.readouterr().out
