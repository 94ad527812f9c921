import ast
import inspect
import io
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

import mixedsde.convergence as convergence
from mixedsde import (
    ErrorReport,
    JointGaussian,
    LevelStats,
    NoisePair,
    NoisePath,
    SolverConfig,
    TimeGrid,
    euler_solve,
    fit_rate,
    generate_noise_pair,
    mc_strong_error,
    norms_comparison_constant,
    pathwise_error,
    preset,
    stop,
)
from mixedsde.coefficients import coefficients_from_expressions
from mixedsde.convergence import _chunk_noise, _stop_batch
from mixedsde.fbm import (
    Independent,
    VolterraFromWiener,
    _resolve_dependence,
    _volterra_fbm,
    _volterra_weights,
    _wiener_values_batch,
)
from mixedsde.rng import stream


@pytest.fixture(scope="module")
def small_report():
    return mc_strong_error(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 3, 300, seed=4, workers=1
    )


# ---------------------------------------------------------------------------
# pathwise error


def test_pathwise_error_identical_solutions():
    pair = generate_noise_pair(TimeGrid(1.0, 128), 0.7, 1)
    sol = euler_solve(preset("linear"), pair, 1.0)
    sup, n2 = pathwise_error(stop(sol, 1.0), stop(sol, 1.0), 0.35)
    assert sup == 0.0 and n2 == 0.0


def test_pathwise_error_zero_model():
    pair = generate_noise_pair(TimeGrid(1.0, 128), 0.7, 2)
    coarse = euler_solve(preset("zero"), pair, 1.0, TimeGrid(1.0, 16))
    fine = euler_solve(preset("zero"), pair, 1.0)
    sup, n2 = pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), 0.35)
    assert sup == 0.0 and n2 == 0.0


def test_pathwise_error_pure_drift():
    # deterministic linear solution: interpolation reproduces it exactly
    drift = coefficients_from_expressions("drift-one", "1.0", "0.0", "0.0", "0.0", 1.5, 0.75)
    pair = generate_noise_pair(TimeGrid(1.0, 128), 0.7, 3)
    coarse = euler_solve(drift, pair, 0.0, TimeGrid(1.0, 16))
    fine = euler_solve(drift, pair, 0.0)
    sup, _ = pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), 0.35)
    assert sup <= coarse.grid.delta + 1e-15


def test_pathwise_error_refuses_mismatched_noise():
    fine_grid = TimeGrid(1.0, 128)
    pair_a = generate_noise_pair(fine_grid, 0.7, 1)
    pair_b = generate_noise_pair(fine_grid, 0.7, 99)
    coarse = euler_solve(preset("linear"), pair_a, 1.0, TimeGrid(1.0, 16))
    fine = euler_solve(preset("linear"), pair_b, 1.0)
    with pytest.raises(ValueError, match="coupling"):
        pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), 0.35)


def test_pathwise_error_requires_shared_tau():
    pair = generate_noise_pair(TimeGrid(1.0, 128), 0.7, 1)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 16))
    fine = euler_solve(preset("linear"), pair, 1.0)
    with pytest.raises(ValueError, match="stopping time"):
        pathwise_error(stop(coarse, 0.5), stop(fine, 1.0), 0.35)


@pytest.mark.parametrize("norm_grid_n", [0, -4, -256])
def test_pathwise_error_refuses_norm_grid_below_one(norm_grid_n):
    pair = generate_noise_pair(TimeGrid(1.0, 256), 0.7, 5)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 32))
    fine = euler_solve(preset("linear"), pair, 1.0)
    with pytest.raises(ValueError, match="norm_grid_n must be a positive divisor"):
        pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), 0.35, norm_grid_n)


@pytest.mark.parametrize("norm_grid_n", [64.0, 2.5, True, "64"])
def test_pathwise_error_refuses_a_norm_grid_that_is_not_an_integer(norm_grid_n):
    pair = generate_noise_pair(TimeGrid(1.0, 256), 0.7, 5)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 32))
    fine = euler_solve(preset("linear"), pair, 1.0)
    with pytest.raises(ValueError, match="norm_grid_n must be an integer"):
        pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), 0.35, norm_grid_n)


def test_pathwise_error_takes_a_numpy_integer_norm_grid():
    pair = generate_noise_pair(TimeGrid(1.0, 256), 0.7, 5)
    coarse = stop(euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 32)), 1.0)
    fine = stop(euler_solve(preset("linear"), pair, 1.0), 1.0)
    assert pathwise_error(coarse, fine, 0.35, np.int64(64)) == pathwise_error(coarse, fine, 0.35, 64)


@pytest.mark.parametrize(
    "key, value",
    [("levels", [8, 16.0, 32]), ("m_fine", 2.0), ("paths", 4.5), ("paths", "4"), ("seed", 1.5), ("eval_n", 32.0),
     ("workers", 1.0), ("seed", True)],
)
def test_integer_settings_refuse_other_types(key, value):
    run = {**dict(levels=[8, 16, 32], m_fine=2, paths=4, seed=0, eval_n=32, workers=1), key: value}
    with pytest.raises(ValueError, match=f"{key}.* must be an integer"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), **run)


def test_integer_settings_take_numpy_integers(small_report):
    rep = mc_strong_error(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), np.array([8, 16, 32]), np.int64(3), np.int32(300),
        seed=np.uint8(4), workers=np.int64(1),
    )
    assert rep.to_json() == small_report.to_json()


def test_pathwise_error_norm_matches_comparison_bound():
    pair = generate_noise_pair(TimeGrid(1.0, 256), 0.7, 5)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 32))
    fine = euler_solve(preset("linear"), pair, 1.0)
    sup, n2 = pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), 0.35)
    assert 0.0 < sup
    # the 2-norm of the difference cannot exceed C * its inf-alpha norm, and
    # the inf-alpha norm dominates the plain sup
    assert n2 <= norms_comparison_constant(0.35, 0.0, 1.0) * sup * 50


# ---------------------------------------------------------------------------
# rate fitting


def _synthetic_report(deltas, err2):
    levels = [
        LevelStats(
            n=int(round(1.0 / d)),
            delta=d,
            err2_norm2=e,
            err2_sup=e,
            se_norm2=0.0,
            se_sup=0.0,
            retained=100,
            discarded=0,
            aborted=0,
            mean_norm_inf_sq=1.0,
            restricted_fraction=1.0,
        )
        for d, e in zip(deltas, err2)
    ]
    return ErrorReport(
        coefficients="synthetic",
        h=0.7,
        t_horizon=1.0,
        x0=1.0,
        seed=0,
        paths=100,
        levels=levels,
        fine_n=1024,
        eval_n=256,
        r_bound=1000.0,
        alpha=0.35,
        eta=0.1,
        threshold=50.0,
        epsilon=0.05,
        kappa=0.5,
        rate_floor=0.1,
        localization_fraction=0.0,
        dependence="independent",
        method="circulant-embedding",
        fit_norm2=None,
        fit_sup=None,
        degenerate=False,
    )


def test_fit_rate_exact_power_law():
    deltas = np.array([1 / 8, 1 / 16, 1 / 32, 1 / 64])
    slope, se = fit_rate(_synthetic_report(deltas, deltas**0.8))
    assert slope == pytest.approx(0.8, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)


def test_fit_rate_with_constant_prefactor():
    deltas = np.array([1 / 8, 1 / 16, 1 / 32, 1 / 64])
    slope, _ = fit_rate(_synthetic_report(deltas, 4.0 * deltas**1.2))
    assert slope == pytest.approx(1.2, abs=1e-12)


def test_fit_rate_excludes_zero_levels():
    deltas = np.array([1 / 8, 1 / 16, 1 / 32, 1 / 64])
    err2 = np.array([0.0, 1e-2, 1e-3, 1e-4])
    slope, _ = fit_rate(_synthetic_report(deltas, err2))
    assert math.isfinite(slope)
    with pytest.raises(ValueError, match="fewer than 3"):
        fit_rate(_synthetic_report(deltas, np.array([0.0, 0.0, 1e-3, 1e-4])))


# ---------------------------------------------------------------------------
# Monte Carlo harness


def test_zero_model_single_path_degenerate():
    rep = mc_strong_error(
        preset("zero"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 2, 1, seed=1, workers=1
    )
    assert rep.degenerate
    assert all(l.err2_norm2 == 0.0 and l.err2_sup == 0.0 for l in rep.levels)
    assert rep.passes_rate_floor()


def test_errors_decrease_across_levels(small_report):
    e_n2 = [l.err2_norm2 for l in small_report.levels]
    e_sup = [l.err2_sup for l in small_report.levels]
    assert e_n2[0] > e_n2[1] > e_n2[2]
    assert e_sup[0] > e_sup[1] > e_sup[2]


def test_rate_floor_passes(small_report):
    assert small_report.fit_norm2 is not None and small_report.fit_sup is not None
    assert small_report.passes_rate_floor()
    assert small_report.rate_floor == pytest.approx(0.5 - 0.35 - 0.05)


def test_moment_monitor_stable(small_report):
    vals = [l.mean_norm_inf_sq for l in small_report.levels]
    assert max(vals) / min(vals) <= 2.0


def test_report_determinism_and_worker_independence(small_report):
    again = mc_strong_error(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 3, 300, seed=4, workers=3
    )
    assert again.to_json() == small_report.to_json()


def test_clt_scaling_of_standard_errors():
    kwargs = dict(seed=11, workers=1)
    rep_small = mc_strong_error(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16], 2, 200, **kwargs
    )
    rep_large = mc_strong_error(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16], 2, 800, **kwargs
    )
    for ls, ll in zip(rep_small.levels, rep_large.levels):
        ratio = ls.se_norm2 / ll.se_norm2
        assert 1.2 < ratio < 3.2  # 2.0 expected, loose band


def test_all_paths_discarded_flags_level():
    rep = mc_strong_error(
        preset("linear"),
        0.7,
        SolverConfig(alpha=0.35),
        [8, 16, 32],
        2,
        20,
        1e-9,  # impossible restriction radius
        seed=2,
        workers=1,
    )
    assert all(l.retained == 0 and l.discarded == 20 for l in rep.levels)
    assert rep.fit_norm2 is None and not rep.degenerate
    with pytest.raises(ValueError):
        fit_rate(rep)


def test_localization_activates_for_small_threshold():
    cfg = SolverConfig(alpha=0.35, threshold=1e-6)
    rep = mc_strong_error(preset("linear"), 0.7, cfg, [8, 16, 32], 2, 20, seed=3, workers=1)
    assert rep.localization_fraction == 1.0


def test_csv_formats(small_report):
    buf = io.StringIO()
    small_report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "level_n,delta,err2_norm2,err2_sup,se_norm2,se_sup,discarded,aborted"
    assert len(lines) == 1 + len(small_report.levels)
    buf = io.StringIO()
    small_report.write_loglog_csv(buf)
    assert buf.getvalue().splitlines()[0] == "level_n,log10_delta,log10_err2_norm2,log10_err2_sup"


def test_json_roundtrip(small_report):
    import json

    payload = json.loads(small_report.to_json())
    assert payload["paths"] == 300
    assert len(payload["levels"]) == 3
    assert payload["levels"][0]["n"] == 8
    assert payload["rate_floor"] == pytest.approx(0.1)


def test_level_validation():
    with pytest.raises(ValueError, match="dyadic"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 12], 2, 4, workers=1)
    with pytest.raises(ValueError, match="distinct"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 8], 2, 4, workers=1)


def test_stop_batch_freezes_each_row_after_its_index():
    values = np.random.default_rng(2).normal(size=(4, 9))
    tau = np.array([0, 3, 8, 5])
    want = values.copy()
    for row, k in zip(want, tau):
        row[k + 1 :] = row[k]
    assert np.array_equal(_stop_batch(values.T, tau), want.T)


def test_eval_n_above_2048_runs():
    rep = mc_strong_error(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [16, 32, 64], 6, 4, eval_n=4096, workers=1
    )
    assert rep.eval_n == 4096
    assert all(l.retained + l.discarded + l.aborted == 4 for l in rep.levels)
    assert all(math.isfinite(l.err2_norm2) for l in rep.levels if l.retained)


def test_eval_n_above_4096_refused_before_any_noise(monkeypatch):
    import mixedsde.convergence as convergence

    def no_noise(*args):
        raise AssertionError("noise drawn before the eval_n bound was checked")

    monkeypatch.setattr(convergence, "_chunk_noise", no_noise)
    with pytest.raises(ValueError, match=r"eval_n=8192 exceeds 4096.*O\(paths \* eval_n\^2\)"):
        mc_strong_error(
            preset("linear"), 0.7, SolverConfig(alpha=0.35), [16, 32, 64], 7, 4, eval_n=8192, workers=1
        )


def _no_noise(*args):
    raise AssertionError("noise drawn before the fine n bound was checked")


@pytest.mark.parametrize("levels, m_fine", [([16, 32, 64], 11), ([2, 4, 8], 14), ([16, 32, 64], 64)])
def test_fine_n_above_2_16_refused_before_any_noise(monkeypatch, levels, m_fine):
    monkeypatch.setattr(convergence, "_chunk_noise", _no_noise)
    with pytest.raises(ValueError, match=rf"fine n = {levels[-1]} \* 2\^{m_fine} exceeds 65536:.*0\.67 GB"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), levels, m_fine, 1, workers=1)


@pytest.mark.parametrize(
    "dependence, per_node, fine_n",
    [("independent", 40, 2048), ("independent", 40, 4096), ("volterra", 35.5, 2048), ("volterra", 29.8, 4096)],
)
def test_chunk_peak_memory_per_fine_node_and_path(dependence, per_node, fine_n):
    # the figures convergence._FINE_N_MAX states: the noise draw and its
    # transpose for independent noise; for Volterra noise the grouped FFT
    # convolution (29 B) or, at the smaller fine n, the per-level passes
    dep = _resolve_dependence(dependence)
    args = (preset("linear"), 0.7, SolverConfig(alpha=0.35), [16, 32, 64], TimeGrid(1.0, fine_n), 256, 256,
            1000.0, 1.0, 3, dep, "circulant-embedding", 0)
    convergence._run_chunk(*args)  # fills the spectrum and weight caches
    tracemalloc.start()
    try:
        convergence._run_chunk(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert per_node - 0.1 < peak / ((fine_n + 1) * 256) <= per_node


@pytest.mark.parametrize("size", [1, 37])
def test_volterra_chunk_noise_is_node_major(size):
    grid = TimeGrid(1.0, 300)
    w, bh = _chunk_noise(VolterraFromWiener(), grid, 0.7, 3, 2, size, "circulant-embedding")
    # the path-major arrays the harness transposed before it wrote B^H node-major
    w_rows = _wiener_values_batch(grid, stream(3, 0, 2), size)
    b_rows = np.zeros_like(w_rows)
    b_rows[:, 1:] = _volterra_fbm(_volterra_weights(grid.n, grid.horizon, 0.7), np.diff(w_rows, axis=1))
    for got, rows in ((w, w_rows), (bh, b_rows)):
        assert got.shape == (301, size) and got.flags.c_contiguous
        assert np.array_equal(got, np.ascontiguousarray(rows.T))
    assert np.all(bh[0] == 0.0)


def test_volterra_chunk_noise_peak_memory():
    # W path-major, its increments and B^H node-major take 8 B per node and
    # path each, one 16-row group of the FFT convolution about 5 B more;
    # convolving all 256 rows at once took 96 B
    grid, paths = TimeGrid(1.0, 8192), 256
    _chunk_noise(VolterraFromWiener(), grid, 0.7, 3, 0, paths, "circulant-embedding")  # fills the weight cache
    tracemalloc.start()
    try:
        _chunk_noise(VolterraFromWiener(), grid, 0.7, 3, 0, paths, "circulant-embedding")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * (grid.n + 1) * paths


class _NoiseReached(Exception):
    pass


def test_fine_n_bound_is_inclusive(monkeypatch):
    def reached(*args):
        raise _NoiseReached

    monkeypatch.setattr(convergence, "_chunk_noise", reached)
    with pytest.raises(_NoiseReached):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [16, 32, 64], 10, 1, workers=1)


_NORM_MESSAGE = r"violated in chunk (\d+), level n=(\d+), path (\d+): \|\|f\|\|_2 / \(C \|\|f\|\|_inf\) = (\S+)"


def test_norm_comparison_failure_names_chunk_level_and_path(monkeypatch):
    monkeypatch.setattr(convergence, "norms_comparison_constant", lambda *args: 1e-6)
    with pytest.raises(AssertionError, match=_NORM_MESSAGE) as exc:
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 3, 300, seed=4, workers=1)
    chunk, level, path, ratio = re.search(_NORM_MESSAGE, str(exc.value)).groups()
    assert (chunk, level, path) == ("0", "8", "0")
    assert float(ratio) > 1.0


def test_norm_comparison_failure_counts_paths_across_chunks(monkeypatch):
    error_norms = convergence._error_norms

    def inflated(coarse_eval, *args):
        n2, ninf_sq = error_norms(coarse_eval, *args)
        if coarse_eval.shape[1] == 44:  # the second chunk of 300 paths
            n2[5:] *= 1e6
        return n2, ninf_sq

    monkeypatch.setattr(convergence, "_error_norms", inflated)
    with pytest.raises(AssertionError, match=_NORM_MESSAGE) as exc:
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 3, 300, seed=4, workers=1)
    chunk, level, path, ratio = re.search(_NORM_MESSAGE, str(exc.value)).groups()
    assert (chunk, level, path) == ("1", "8", "261")
    assert float(ratio) > 1.0


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_must_be_positive(workers):
    with pytest.raises(ValueError, match="workers"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 2, 4, workers=workers)


def _spy_pool_sizes(monkeypatch) -> list:
    """The max_workers of every thread pool mc_strong_error starts."""
    sizes, real = [], convergence.ThreadPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(convergence, "ThreadPoolExecutor", pool)
    return sizes


@pytest.mark.parametrize(
    "workers, cpus, paths, expected",
    [(None, 3, 600, 3), (None, 64, 600, 3), (None, 2, 600, 2), (None, 64, 1, 1), (5, 2, 300, 2), (1, 64, 600, 1)],
)
def test_pool_takes_the_available_parallelism_at_most_one_per_chunk(monkeypatch, workers, cpus, paths, expected):
    # cpus is only what the platform reports; the pool starts `expected` threads
    sizes = _spy_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, paths, workers=workers)
    assert sizes == ([] if workers == 1 else [expected])  # one worker: the calling thread, no pool


@pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
def test_pool_falls_back_to_the_cpu_count_without_affinity(monkeypatch, cpus, expected):
    sizes = _spy_pool_sizes(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600)
    assert sizes == ([expected] if cpus else [])  # no CPU count: one worker, the calling thread


def _spy_chunks(monkeypatch) -> list:
    """(chunk index, thread, rows) of every _run_chunk call of mc_strong_error."""
    calls, real = [], convergence._run_chunk

    def spy(*args):
        rows = real(*args)
        calls.append((args[-1], threading.get_ident(), rows))
        return rows

    monkeypatch.setattr(convergence, "_run_chunk", spy)
    return calls


def test_one_worker_runs_every_chunk_on_the_calling_thread_with_no_pool(monkeypatch):
    sizes, calls = _spy_pool_sizes(monkeypatch), _spy_chunks(monkeypatch)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=1)
    assert sizes == []
    assert [(ci, thread) for ci, thread, _ in calls] == [(ci, threading.get_ident()) for ci in range(3)]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_chunk_called_alone_returns_the_rows_the_harness_reduced(monkeypatch, workers):
    coeffs, config, levels = preset("linear"), SolverConfig(alpha=0.35), [8, 16, 32]
    calls = _spy_chunks(monkeypatch)
    rep = mc_strong_error(coeffs, 0.7, config, levels, 3, 600, seed=4, eval_n=64, workers=workers)
    used = {ci: rows for ci, _, rows in calls}
    assert sorted(used) == [0, 1, 2]
    alone = convergence._run_chunk(
        coeffs, 0.7, config, levels, TimeGrid(1.0, 256), 64, 600, convergence.DEFAULT_R, 1.0, 4, Independent(),
        "circulant-embedding", 1,
    )
    assert [r.shape for r in alone] == [(3, 256)] * 5 + [(256,)]  # paths 256..511
    for got, want in zip(alone, used[1], strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=got.dtype == float)
    joined = (np.concatenate(rows, axis=-1) for rows in zip(*(used[ci] for ci in range(3))))
    sup2, norm2sq, _, in_b, aborted, tau_lt_t = joined
    for li, level in enumerate(rep.levels):
        keep = ~aborted[li] & in_b[li]
        assert level.retained == keep.sum()
        assert level.err2_sup == float(np.sum(sup2[li][keep]) / keep.sum())
        assert level.err2_norm2 == float(np.sum(norm2sq[li][keep]) / keep.sum())
    assert rep.localization_fraction == float(np.mean(tau_lt_t))


def test_the_harness_shares_no_array_between_chunks():
    # no nested function, and neither the harness nor a chunk assigns into an array;
    # the harness's one item assignment fills its dict of rate fits
    for fn, stored in ((convergence.mc_strong_error, ["fits"]), (convergence._run_chunk, [])):
        nodes = [n for stmt in ast.parse(inspect.getsource(fn)).body[0].body for n in ast.walk(stmt)]
        assert not [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.Lambda))], fn.__name__
        stores = [n.value.id for n in nodes if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)]
        assert sorted(set(stores)) == stored, fn.__name__


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(paths=(1 << 22) + 1), r"paths=4194305 exceeds 4194304: .* 26 B per path and level"),
        (dict(eval_n=0), "eval_n must be at least 1, got 0"),
        (dict(eval_n=-1), "eval_n must be at least 1, got -1"),
        (dict(r_bound=-1.0), "r_bound must be positive"),
        (dict(r_bound=0.0), "r_bound must be positive"),
        (dict(r_bound=math.nan), "r_bound must be positive"),
        (dict(x0=math.nan), "x0 must be finite"),
        (dict(x0=-math.inf), "x0 must be finite"),
    ],
    ids=["paths-above-2-22", "eval-n-0", "eval-n-negative", "r-bound-negative", "r-bound-0", "r-bound-nan",
         "x0-nan", "x0-minus-inf"],
)
def test_a_bad_setting_is_refused_before_any_noise_or_thread(monkeypatch, kwargs, message):
    sizes = _spy_pool_sizes(monkeypatch)
    monkeypatch.setattr(convergence, "_chunk_noise", _no_noise)
    settings = {"paths": 4, "workers": 2, **kwargs}
    with pytest.raises(ValueError, match=message):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 2, **settings)
    assert sizes == []


def test_paths_bound_is_inclusive(monkeypatch):
    def reached(*args):
        raise _NoiseReached

    monkeypatch.setattr(convergence, "_chunk_noise", reached)
    with pytest.raises(_NoiseReached):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 2, 1 << 22, workers=1)


def test_infinite_r_bound_restricts_nothing():
    rep = mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 2, 20, math.inf, workers=1)
    assert rep.r_bound == math.inf
    assert all(l.discarded == 0 and l.retained + l.aborted == 20 for l in rep.levels)


def test_volterra_dependence_supported():
    rep = mc_strong_error(
        preset("linear"),
        0.7,
        SolverConfig(alpha=0.35),
        [8, 16, 32],
        2,
        50,
        seed=6,
        dependence="volterra-from-same-wiener",
        workers=1,
    )
    assert rep.dependence == "volterra-from-same-wiener"
    assert all(l.err2_norm2 > 0 for l in rep.levels)


def test_joint_gaussian_dependence_refused():
    dep = JointGaussian(lambda s, t: 0.0 * s * t)
    with pytest.raises(ValueError, match="joint-gaussian"):
        mc_strong_error(
            preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 2, 4, dependence=dep, workers=1
        )


def test_harness_agrees_with_pathwise_error():
    # threshold and R so large that tau = T and the one path is retained
    coeffs, h, seed, levels = preset("linear"), 0.7, 9, [16, 32, 64]
    config = SolverConfig(alpha=0.35, threshold=1e12)
    rep = mc_strong_error(coeffs, h, config, levels, 2, 1, 1e12, seed=seed, eval_n=64, workers=1)
    fine_grid = TimeGrid(1.0, 256)
    w, bh = _chunk_noise(Independent(), fine_grid, h, seed, 0, 1, "circulant-embedding")
    pair = NoisePair(
        NoisePath(fine_grid, w[:, 0], "wiener"), NoisePath(fine_grid, bh[:, 0], "fbm", h), "independent", seed
    )
    fine = stop(euler_solve(coeffs, pair, 1.0), 1.0)
    for level, n in zip(rep.levels, levels):
        assert level.retained == 1
        coarse = stop(euler_solve(coeffs, pair, 1.0, TimeGrid(1.0, n)), 1.0)
        sup, n2 = pathwise_error(coarse, fine, config.alpha, norm_grid_n=64)
        assert level.err2_sup == sup**2
        assert level.err2_norm2 == pytest.approx(n2**2, rel=1e-14)
