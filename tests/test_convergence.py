import ast
import dataclasses
import inspect
import io
import math
import os
import re
import signal
import threading
import time
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
    _fbm_values_batch,
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


def test_pathwise_error_freezes_where_stop_froze():
    # a tau just below node 40 passes the node check, but stop freezes both solutions at node 39
    grid = TimeGrid(1.0, 64)
    pair = generate_noise_pair(grid, 0.7, 3)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 16))
    fine = euler_solve(preset("linear"), pair, 1.0)

    def error(tau):
        return pathwise_error(stop(coarse, tau), stop(fine, tau), 0.35)

    below = error(grid.nodes[40] - 1e-12)
    assert below == error(grid.nodes[39]) != error(grid.nodes[40])


@pytest.mark.parametrize("norm_grid_n", [0, -4, -256])
def test_pathwise_error_refuses_norm_grid_below_one(norm_grid_n):
    pair = generate_noise_pair(TimeGrid(1.0, 256), 0.7, 5)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 32))
    fine = euler_solve(preset("linear"), pair, 1.0)
    with pytest.raises(ValueError, match=f"norm_grid_n must be at least 1, got {norm_grid_n}"):
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
    with pytest.raises(ValueError, match="functional must be 'norm2' or 'sup'"):
        fit_rate(_synthetic_report(deltas, err2), "holder")


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


def test_fit_rate_refuses_levels_that_share_one_delta(small_report):
    same = [dataclasses.replace(level, delta=0.125) for level in small_report.levels]
    with pytest.raises(ValueError, match="cannot fit a rate from a single distinct level"):
        fit_rate(dataclasses.replace(small_report, levels=same))


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
    with pytest.raises(ValueError, match=rf"fine n = {levels[-1]} \* 2\^{m_fine} exceeds 65536:.*0\.42 GB"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), levels, m_fine, 1, workers=1)


def test_empty_levels_refused_by_name_before_any_noise(monkeypatch):
    monkeypatch.setattr(convergence, "_chunk_noise", _no_noise)
    with pytest.raises(ValueError, match="levels must name at least one coarse level"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [], 3, 4, workers=1)
    with pytest.raises(ValueError, match="levels entry must be at least 2, got 1"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [1, 2, 4], 3, 4, workers=1)


@pytest.mark.parametrize(
    "dependence, per_node, fine_n",
    [("independent", 31.5, 2048), ("independent", 27.75, 4096), ("volterra", 31.5, 2048), ("volterra", 27.75, 4096)],
)
def test_chunk_peak_memory_per_fine_node_and_path(dependence, per_node, fine_n):
    # the figures convergence._FINE_N_MAX states: with the noise drawn in
    # row groups the chunk peaks in its per-level passes, over W, B^H and
    # the fine solution, alike for both noise kinds
    run = convergence._checked_run(
        preset("linear"), 0.7, SolverConfig(alpha=0.35), [16, 32, 64], {2048: 5, 4096: 6}[fine_n], 256, 1000.0,
        t_horizon=1.0, x0=1.0, seed=3, dependence=dependence, method="circulant-embedding", eval_n=256, workers=1,
    )
    assert run.fine.n == fine_n
    convergence._run_chunk(run, 0)  # fills the spectrum and weight caches
    tracemalloc.start()
    try:
        convergence._run_chunk(run, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert per_node - 0.1 < peak / ((fine_n + 1) * 256) <= per_node


@pytest.mark.parametrize("size", [1, 16, 37, 256])
def test_volterra_chunk_noise_is_node_major(size):
    # one path, one _ROW_GROUP-row group, a part group and a full chunk
    grid = TimeGrid(1.0, 300)
    # the path-major rows one full draw gives, before the harness wrote W and B^H node-major
    w_rows = _wiener_values_batch(grid, stream(3, 0, 2), size)
    volterra = np.zeros_like(w_rows)
    volterra[:, 1:] = _volterra_fbm(_volterra_weights(grid.n, grid.horizon, 0.7), np.diff(w_rows, axis=1))
    circulant = _fbm_values_batch(grid, 0.7, stream(3, 1, 2), size, "circulant-embedding")
    for dep, b_rows in ((VolterraFromWiener(), volterra), (Independent(), circulant)):
        w, bh = _chunk_noise(dep, grid, 0.7, 3, 2, size, "circulant-embedding")
        for got, rows in ((w, w_rows), (bh, b_rows)):
            assert got.shape == (301, size) and got.flags.c_contiguous
            assert np.array_equal(got, np.ascontiguousarray(rows.T))
        assert np.all(bh[0] == 0.0)


def _noise_peak_per_node(dep, grid: TimeGrid, paths: int, method: str = "circulant-embedding") -> float:
    """tracemalloc peak of one _chunk_noise call per node and path, its caches filled first."""
    _chunk_noise(dep, grid, 0.7, 3, 0, paths, method)
    tracemalloc.start()
    try:
        _chunk_noise(dep, grid, 0.7, 3, 0, paths, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((grid.n + 1) * paths)


def test_volterra_chunk_noise_peak_memory():
    # W and B^H node-major take 8 B per node and path each, one 16-row
    # group's draw and FFT convolution about 5 B more; convolving all 256
    # rows at once took 96 B, and a path-major W with its increments 29 B
    assert _noise_peak_per_node(VolterraFromWiener(), TimeGrid(1.0, 8192), 256) <= 22


def test_independent_chunk_noise_peak_memory():
    # while B^H is drawn: the half spectrum (16 B per node and path), the
    # increments (8 B) and one 16-row group's inverse; W comes after the
    # spectrum is gone. The full-width inverse and a path-major W took 40 B
    assert _noise_peak_per_node(Independent(), TimeGrid(1.0, 4096), 256) <= 26


def test_cholesky_chunk_noise_peak_memory():
    # with the factor cached, the draw, its product with the factor and the
    # node values: 24 B per node and path (392 B at fine n 4096 when each
    # chunk built and factored the covariance)
    assert _noise_peak_per_node(Independent(), TimeGrid(1.0, 2048), 256, "cholesky") <= 25


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


def _spy_forks(monkeypatch) -> list:
    """The pid of every child that mc_strong_error forks, as the calling process sees it."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize(
    "workers, cpus, paths, expected",
    [(None, 3, 600, 3), (None, 64, 600, 3), (None, 2, 600, 2), (None, 64, 1, 1), (5, 2, 300, 2), (1, 64, 600, 1)],
)
def test_pool_takes_the_available_parallelism_at_most_one_per_chunk(monkeypatch, workers, cpus, paths, expected):
    # cpus is only what the platform reports; `expected` processes run chunks: the caller and expected - 1 children
    forks = _spy_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, paths, workers=workers)
    assert len(forks) == expected - 1  # one worker after the cap: the calling thread, no fork


def _no_fork_run(monkeypatch, workers) -> tuple[list, list, str]:
    """(worker counts of the runs that reached the chunk rows, noise draws, error) of a 2^22-path run (16384
    chunks) on 1000 usable CPUs; the chunk rows fail when called, so no child starts."""
    asked, drawn, forks = [], [], _spy_forks(monkeypatch)

    def chunk_rows(run):
        asked.append(run.workers)
        raise RuntimeError("no fork in this test")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    monkeypatch.setattr(convergence, "_chunk_noise", lambda *args: drawn.append(args))
    monkeypatch.setattr(convergence, "_chunk_rows", chunk_rows)
    with pytest.raises((RuntimeError, ValueError)) as err:
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 1 << 22, workers=workers)
    assert forks == []
    return asked, drawn, str(err.value)


@pytest.mark.parametrize("workers", [None, 64])
def test_workers_default_to_the_usable_cpus_at_most_64(monkeypatch, workers):
    assert _no_fork_run(monkeypatch, workers) == ([64], [], "no fork in this test")


@pytest.mark.parametrize("workers", [65, 10**5])
def test_more_than_64_workers_are_refused_before_any_noise_or_thread(monkeypatch, workers):
    asked, drawn, message = _no_fork_run(monkeypatch, workers)
    assert (asked, drawn) == ([], []) and message.startswith(f"workers={workers} exceeds 64")


@pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
def test_pool_falls_back_to_the_cpu_count_without_affinity(monkeypatch, cpus, expected):
    forks = _spy_forks(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600)
    assert len(forks) == expected - 1  # no CPU count: one worker, the calling thread


def test_without_fork_the_default_is_one_worker_and_more_are_refused_before_any_noise(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    rep = mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600)  # no fork needed
    assert rep.paths == 600
    monkeypatch.setattr(convergence, "_chunk_noise", _no_noise)
    with pytest.raises(ValueError, match="^workers=2 needs the fork start method, which this platform lacks"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=2)


def _spy_chunks(monkeypatch) -> list:
    """(chunk index, thread, rows) of every _run_chunk call that the calling process makes."""
    calls, real = [], convergence._run_chunk

    def spy(*args):
        rows = real(*args)
        calls.append((args[-1], threading.get_ident(), rows))
        return rows

    monkeypatch.setattr(convergence, "_run_chunk", spy)
    return calls


def _assert_same_rows(got: tuple, want: tuple) -> None:
    """Two chunks' rows hold the same arrays, byte for byte."""
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_one_worker_runs_every_chunk_on_the_calling_thread_with_no_pool(monkeypatch):
    forks, calls = _spy_forks(monkeypatch), _spy_chunks(monkeypatch)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=1)
    assert forks == []
    assert [(ci, thread) for ci, thread, _ in calls] == [(ci, threading.get_ident()) for ci in range(3)]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_chunk_called_alone_returns_the_rows_the_harness_reduced(monkeypatch, workers):
    # the spy sees the chunks the calling process runs: all three at one worker, 0 and 2 at two, where a
    # child runs chunk 1; so the rows of every chunk are read from a one-worker run of the same settings
    coeffs, config, levels = preset("linear"), SolverConfig(alpha=0.35), [8, 16, 32]
    calls = _spy_chunks(monkeypatch)
    serial = mc_strong_error(coeffs, 0.7, config, levels, 3, 600, seed=4, eval_n=64, workers=1)
    used = {ci: rows for ci, _, rows in calls}
    assert sorted(used) == [0, 1, 2]
    calls.clear()
    rep = mc_strong_error(coeffs, 0.7, config, levels, 3, 600, seed=4, eval_n=64, workers=workers)
    assert sorted(ci for ci, _, _ in calls) == ([0, 1, 2] if workers == 1 else [0, 2])
    for ci, _, rows in calls:
        _assert_same_rows(rows, used[ci])
    assert rep.to_json() == serial.to_json()
    run = convergence._checked_run(
        coeffs, 0.7, config, levels, 3, 600, convergence.DEFAULT_R, t_horizon=1.0, x0=1.0, seed=4,
        dependence="independent", method="circulant-embedding", eval_n=64, workers=workers,
    )
    alone = convergence._run_chunk(run, 1)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_is_checked_once_and_every_chunk_receives_it(monkeypatch, tmp_path, workers):
    # every chunk appends its index, its process and whether it received the checked run to one
    # file, so the chunks a forked child runs are counted too
    checked, log = [], tmp_path / "chunks.log"
    real_check, real_chunk = convergence._checked_run, convergence._run_chunk

    def check(*args, **kwargs):
        checked.append(real_check(*args, **kwargs))
        return checked[-1]

    def chunk(run, ci):
        with open(log, "a") as f:
            f.write(f"{ci} {os.getpid()} {run is checked[0]}\n")
        return real_chunk(run, ci)

    monkeypatch.setattr(convergence, "_checked_run", check)
    monkeypatch.setattr(convergence, "_run_chunk", chunk)
    mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=workers)
    assert len(checked) == 1 and isinstance(checked[0], convergence._Run)
    received = sorted(line.split() for line in log.read_text().splitlines())
    assert [ci for ci, _, _ in received] == ["0", "1", "2"]
    assert all(same == "True" for _, _, same in received)
    pids = [int(pid) for _, pid, _ in received]
    assert pids[0] == pids[2] == os.getpid() and (pids[1] != os.getpid()) == (workers == 2)


# 1100 paths: five chunks, the last of 76 paths; at 2 workers a child runs chunks 1 and 3, at 3 one runs 1 and 4
_FORKED = dict(levels=[8, 16, 32], m_fine=2, paths=1100, seed=5, eval_n=32)


@pytest.mark.parametrize(
    "dependence, method",
    [("independent", "circulant-embedding"), ("volterra", "circulant-embedding"), ("independent", "cholesky")],
)
def test_rows_are_byte_identical_at_one_two_and_three_workers(dependence, method):
    coeffs, config = preset("linear"), SolverConfig(alpha=0.35)
    run = convergence._checked_run(
        coeffs, 0.7, config, _FORKED["levels"], _FORKED["m_fine"], _FORKED["paths"], convergence.DEFAULT_R,
        t_horizon=1.0, x0=1.0, seed=_FORKED["seed"], dependence=dependence, method=method,
        eval_n=_FORKED["eval_n"], workers=3,
    )
    serial = [convergence._run_chunk(run, ci) for ci in range(5)]
    assert serial[-1][-1].shape == (76,)
    for workers in (2, 3):
        forked = convergence._chunk_rows(run._replace(workers=workers))
        assert len(forked) == 5
        for got, want in zip(forked, serial):
            _assert_same_rows(got, want)
    reports = [
        mc_strong_error(coeffs, 0.7, config, dependence=dependence, method=method, workers=workers, **_FORKED).to_json()
        for workers in (1, 2, 3)
    ]
    assert reports[0] == reports[1] == reports[2]


class _ChunkFault(Exception):
    pass


def _fault_in_chunk(monkeypatch, fault) -> None:
    """Every _run_chunk call first calls fault(ci), in whichever process runs the chunk."""
    real = convergence._run_chunk

    def chunk(run, ci):
        fault(ci)
        return real(run, ci)

    monkeypatch.setattr(convergence, "_run_chunk", chunk)


def test_a_child_s_exception_reaches_the_caller_with_its_type_and_message(monkeypatch):
    def fault(ci):
        if ci == 1:
            exc = _ChunkFault("chunk 1 failed")
            exc.pid = os.getpid()
            raise exc

    _fault_in_chunk(monkeypatch, fault)
    raised, causes = {}, {}
    for workers in (1, 2):
        with pytest.raises(_ChunkFault) as err:
            mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=workers)
        raised[workers] = type(err.value), str(err.value), err.value.pid == os.getpid()
        causes[workers] = err.value.__cause__
    assert raised == {1: (_ChunkFault, "chunk 1 failed", True), 2: (_ChunkFault, "chunk 1 failed", False)}
    # the child's traceback comes with it, down to the frame that raised
    assert causes[1] is None and type(causes[2]) is RuntimeError
    trace = str(causes[2])
    assert trace.startswith("the worker process of chunks [1] failed:\nTraceback (most recent call last):\n")
    assert 'in fault\n    raise exc\n' in trace and trace.endswith("_ChunkFault: chunk 1 failed\n")


class _StepError(Exception):
    """An exception that pickles but cannot be rebuilt: its __init__ takes two arguments, args holds one."""

    def __init__(self, t, why):
        super().__init__(f"step at t={t} failed: {why}")


def test_a_child_s_exception_that_cannot_be_rebuilt_arrives_as_its_traceback():
    def a(t, x):
        if x.ndim and x.shape[-1] == 44:  # the second chunk of 300 paths, which the child runs
            raise _StepError(t, "drift refused")
        return preset("linear").a(t, x)

    coeffs = dataclasses.replace(preset("linear"), a=a)
    with pytest.raises(_StepError, match="drift refused"):
        mc_strong_error(coeffs, 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 300, workers=1)
    with pytest.raises(RuntimeError, match=r"^the worker process of chunks \[1\] failed:\n") as err:
        mc_strong_error(coeffs, 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 300, workers=2)
    assert "in a\n    raise _StepError(t, \"drift refused\")\n" in str(err.value)
    assert str(err.value).endswith("_StepError: step at t=0.0 failed: drift refused\n")
    assert type(err.value.__cause__) is TypeError  # the rebuild that failed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_norm_comparison_failure_in_a_child_names_its_chunk_level_and_path(monkeypatch):
    error_norms = convergence._error_norms

    def inflated(coarse_eval, *args):
        n2, ninf_sq = error_norms(coarse_eval, *args)
        if coarse_eval.shape[1] == 44:  # the second chunk of 300 paths, which the child runs
            n2[5:] *= 1e6
        return n2, ninf_sq

    monkeypatch.setattr(convergence, "_error_norms", inflated)
    with pytest.raises(AssertionError, match=_NORM_MESSAGE) as exc:
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], 3, 300, seed=4, workers=2)
    chunk, level, path, ratio = re.search(_NORM_MESSAGE, str(exc.value)).groups()
    assert (chunk, level, path) == ("1", "8", "261")
    assert float(ratio) > 1.0


def test_a_child_that_dies_without_its_rows_is_named_with_its_wait_status(monkeypatch):
    caller = os.getpid()

    def fault(ci):
        if ci == 1 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    _fault_in_chunk(monkeypatch, fault)
    with pytest.raises(RuntimeError, match=r"^the worker process of chunks \[1\] ended with wait status 9 "):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", [_ChunkFault, KeyboardInterrupt])
def test_a_failure_in_the_caller_s_own_chunk_leaves_no_child(monkeypatch, failure):
    caller = os.getpid()

    def fault(ci):
        if os.getpid() != caller:
            time.sleep(60)  # the children still run when the caller's chunk fails
        elif ci == 0:
            raise failure("chunk 0 failed")

    _fault_in_chunk(monkeypatch, fault)
    started = time.monotonic()
    with pytest.raises(failure, match="chunk 0 failed"):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 1, 600, workers=3)
    assert time.monotonic() - started < 30  # the children were killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        (dict(m_fine=0), "m_fine must be at least 1"),
        (dict(eval_n=24), "eval_n=24 must be a dyadic divisor of fine n=128"),
        (dict(paths=0), "paths must be at least 1, got 0"),
        (dict(seed=-1), "seed must be at least 0, got -1"),
        (dict(method="bogus"), "unknown method 'bogus'"),
        (dict(method="bogus", dependence="volterra"), "unknown method 'bogus'"),
    ],
    ids=["paths-above-2-22", "eval-n-0", "eval-n-negative", "r-bound-negative", "r-bound-0", "r-bound-nan",
         "x0-nan", "x0-minus-inf", "m-fine-0", "eval-n-not-dyadic", "paths-0", "seed-negative", "method-unknown",
         "method-unknown-volterra"],
)
def test_a_bad_setting_is_refused_before_any_noise_or_thread(monkeypatch, kwargs, message):
    forks = _spy_forks(monkeypatch)
    monkeypatch.setattr(convergence, "_chunk_noise", _no_noise)
    settings = {"m_fine": 2, "paths": 4, "workers": 2, **kwargs}
    with pytest.raises(ValueError, match=message):
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [8, 16, 32], **settings)
    assert forks == []


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
