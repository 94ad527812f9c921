import importlib
import io
import math
import os
import pkgutil
import tracemalloc

import numpy as np
import pytest

from mixedsde import (
    Independent,
    JointGaussian,
    NoisePair,
    NoisePath,
    SolverConfig,
    TimeGrid,
    fbm_covariance,
    generate_fbm,
    generate_noise_pair,
    generate_wiener,
    holder_functional,
    mc_strong_error,
    preset,
)
import mixedsde
from mixedsde import fbm, fraccalc
from mixedsde.fbm import (
    _fbm_node_covariance,
    _fbm_values_batch,
    _holder_cumulative_batch,
    _volterra_fbm,
    _volterra_weights,
    holder_cumulative,
    write_pair_csv,
    write_path_csv,
)
from mixedsde.fraccalc import _OFFSET_BLOCK, _power_moments
from mixedsde.rng import stream


def _covariance_se(ana: np.ndarray, m: int) -> np.ndarray:
    # Gaussian fourth-moment formula for the variance of the empirical covariance
    d = np.diag(ana)
    return np.sqrt((np.outer(d, d) + ana**2) / m)


# ---------------------------------------------------------------------------
# covariance formula


def test_covariance_diagonal():
    for t in (0.25, 1.0, 3.5):
        for h in (0.6, 0.75, 0.9):
            assert fbm_covariance(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-14)


def test_covariance_brownian_degeneracy():
    # at H = 1/2 the formula reduces to min(s, t)
    assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert fbm_covariance(0.3, 0.2, 0.5) == pytest.approx(0.2, rel=1e-14)


def test_covariance_at_zero():
    assert fbm_covariance(0.0, 2.3, 0.7) == 0.0


def test_covariance_symmetric_and_domain():
    assert fbm_covariance(0.4, 1.7, 0.8) == fbm_covariance(1.7, 0.4, 0.8)
    with pytest.raises(ValueError):
        fbm_covariance(-0.1, 1.0, 0.7)


# ---------------------------------------------------------------------------
# generators


def test_paths_start_at_zero_and_are_deterministic():
    grid = TimeGrid(1.0, 64)
    for method in ("cholesky", "circulant-embedding"):
        p1 = generate_fbm(grid, 0.7, 42, method)
        p2 = generate_fbm(grid, 0.7, 42, method)
        assert p1.values[0] == 0.0
        assert np.array_equal(p1.values, p2.values)
    assert not np.array_equal(
        generate_fbm(grid, 0.7, 42).values, generate_fbm(grid, 0.7, 43).values
    )


def test_hurst_gate():
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ValueError):
        generate_fbm(grid, 0.3, 0)
    with pytest.raises(ValueError):
        generate_fbm(grid, 0.5, 0)
    generate_fbm(grid, 0.5, 0, allow_brownian=True)  # oracle mode only


def test_empirical_covariance_matches_formula():
    grid = TimeGrid(1.0, 16)
    m = 6000
    ana = _fbm_node_covariance(grid, 0.7)
    se = _covariance_se(ana, m)
    for method in ("cholesky", "circulant-embedding"):
        vals = _fbm_values_batch(grid, 0.7, stream(101, 1), m, method)
        emp = vals[:, 1:].T @ vals[:, 1:] / m
        assert np.max(np.abs(emp - ana) / se) < 5.0


def test_cholesky_refuses_n_above_its_bound(monkeypatch):
    def never(*args):
        raise AssertionError("covariance built for a refused n")

    monkeypatch.setattr(fbm, "_fbm_node_covariance", never)
    with pytest.raises(ValueError, match=r"n=4097 exceeds 4096: .*O\(n\^2\) memory .*O\(n\^3\) time"):
        _fbm_values_batch(TimeGrid(1.0, 4097), 0.7, stream(1, 1), 1, "cholesky")


def test_cholesky_accepts_n_at_its_bound(monkeypatch):
    # the covariance is patched out: reaching it means n passed the bound
    class Reached(Exception):
        pass

    def reached(grid, h):
        raise Reached(grid.n)

    monkeypatch.setattr(fbm, "_fbm_node_covariance", reached)
    with pytest.raises(Reached):
        _fbm_values_batch(TimeGrid(1.0, 4096), 0.7, stream(1, 1), 1, "cholesky")


def test_cholesky_factor_is_built_once_per_grid(monkeypatch):
    calls, factor, caller = [], np.linalg.cholesky, os.getpid()

    def caller_factor(cov):  # a factor built in a forked child fails the run
        if os.getpid() != caller:
            raise RuntimeError("the Cholesky factor was built in a worker process")
        calls.append(cov.shape)
        return factor(cov)

    monkeypatch.setattr(np.linalg, "cholesky", caller_factor)
    for workers in (1, 2, 3):  # 3: one process per chunk
        calls.clear()
        fbm._cholesky_factor.cache_clear()
        # 600 paths: three chunks on the 64-step fine grid
        mc_strong_error(preset("linear"), 0.7, SolverConfig(alpha=0.35), [4, 8, 16], 2, 600, method="cholesky",
                        eval_n=32, workers=workers)
        assert calls == [(64, 64)], workers


def test_cholesky_draw_equals_a_fresh_factor():
    grid = TimeGrid(1.0, 64)
    want = stream(3, 1).standard_normal((5, 64)) @ np.linalg.cholesky(_fbm_node_covariance(grid, 0.7)).T
    fbm._cholesky_factor.cache_clear()
    for _ in range(2):  # the build, then the cached factor
        got = _fbm_values_batch(grid, 0.7, stream(3, 1), 5, "cholesky")
        assert np.array_equal(got[:, 1:], want) and np.all(got[:, 0] == 0.0)
    assert not fbm._cholesky_factor(grid, 0.7).flags.writeable


@pytest.mark.parametrize("dependence", ["independent", "volterra", JointGaussian(lambda s, t: 0.0 * s * t)],
                         ids=["independent", "volterra", "joint-gaussian"])
def test_unknown_method_refused_before_any_noise(monkeypatch, dependence):
    def drawn(*args):
        raise AssertionError("noise drawn before the method was checked")

    monkeypatch.setattr(fbm, "stream", drawn)
    with pytest.raises(ValueError, match="unknown method 'bogus'; use one of cholesky, circulant-embedding, circulant"):
        generate_noise_pair(TimeGrid(1.0, 16), 0.7, 0, dependence, "bogus")


def test_generation_methods_agree():
    grid = TimeGrid(1.0, 8)
    m = 6000
    ana = _fbm_node_covariance(grid, 0.8)
    se = _covariance_se(ana, m) * math.sqrt(2.0)
    emp = {}
    for method in ("cholesky", "circulant-embedding"):
        vals = _fbm_values_batch(grid, 0.8, stream(55, 1), m, method)
        emp[method] = vals[:, 1:].T @ vals[:, 1:] / m
    assert np.max(np.abs(emp["cholesky"] - emp["circulant-embedding"]) / se) < 5.0


def test_increment_stationarity():
    # Var(B_{t+h} - B_t) = h^{2H} regardless of t
    grid = TimeGrid(1.0, 16)
    m = 8000
    h = 0.7
    vals = _fbm_values_batch(grid, h, stream(7, 1), m, "circulant-embedding")
    lag = 4
    for start in (0, 4, 8, 12):
        inc = vals[:, start + lag] - vals[:, start]
        var = float(np.mean(inc**2))
        target = (lag * grid.delta) ** (2 * h)
        se = target * math.sqrt(2.0 / m)
        assert abs(var - target) < 5.0 * se, (start, var, target)


# ---------------------------------------------------------------------------
# circulant sampler


def _fgn_complex_reference(n: int, h: float, rng: np.random.Generator, size: int) -> np.ndarray:
    # Davies-Harte on the full 2n spectrum: a mirrored conjugate array and a complex ifft
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (np.float_power(k + 1.0, 2 * h) - 2.0 * np.float_power(k, 2 * h) + np.float_power(np.abs(k - 1.0), 2 * h))
    row = np.concatenate([gamma, gamma[n - 1 : 0 : -1]])
    eigs = np.clip(np.fft.fft(row).real, 0.0, None)
    m = 2 * n
    z0 = rng.standard_normal(size)
    zn = rng.standard_normal(size)
    v_re = rng.standard_normal((size, n - 1))
    v_im = rng.standard_normal((size, n - 1))
    y = np.zeros((size, m), dtype=complex)
    y[:, 0] = np.sqrt(eigs[0]) * z0
    y[:, n] = np.sqrt(eigs[n]) * zn
    y[:, 1:n] = np.sqrt(eigs[1:n] / 2.0) * (v_re + 1j * v_im)
    y[:, n + 1 :] = np.conj(y[:, 1:n][:, ::-1])
    return math.sqrt(m) * np.fft.ifft(y, axis=1).real[:, :n]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4096])
@pytest.mark.parametrize("size", [1, 5, 37])  # 37: two full row groups and a part group
def test_half_spectrum_sampler_matches_the_complex_form(n, size):
    want = _fgn_complex_reference(n, 0.7, stream(9, 1), size)
    for scale in (1.0, (1.0 / n) ** 0.7):
        got = fbm._fgn_unit_circulant(n, 0.7, stream(9, 1), size, scale)
        assert got.shape == (size, n)
        assert np.max(np.abs(got - scale * want)) <= 1e-14 * np.max(np.abs(scale * want))


@pytest.mark.parametrize("n", [1, 64])
def test_sampler_draws_the_four_documented_blocks(n):
    rng = stream(9, 1)
    fbm._fgn_unit_circulant(n, 0.7, rng, 5, 1.0)
    fresh = stream(9, 1)
    for shape in (5, 5, (5, n - 1), (5, n - 1)):  # Z_0, Z_n, real, imaginary
        fresh.standard_normal(shape)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_cached_circulant_roots_are_read_only():
    roots = fbm._circulant_sqrt_eigs(64, 0.7)
    assert roots.shape == (65,) and not roots.flags.writeable
    assert fbm._circulant_sqrt_eigs(64, 0.7) is roots
    with pytest.raises(ValueError):
        roots[0] = 1.0


@pytest.mark.parametrize("h", [0.55, 0.7, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2, 64, 1024, 4096])
def test_circulant_embedding_is_exact_at_every_h(n, h):
    # the half spectrum rebuilt from the cached roots inverts to the unit-step
    # fGn autocovariance gamma_0..gamma_n: the sampler's law is exact, not
    # only within Monte Carlo error
    eigs = fbm._circulant_sqrt_eigs(n, h) ** 2
    eigs[1:n] *= 2.0
    row = np.fft.irfft(eigs, 2 * n)[: n + 1]
    k = np.arange(n + 1, dtype=float)
    # float_power, as the sampler takes it: k^2H of k ~ 4096 is ~ 1e7, so a last-bit
    # difference of numpy's power would move gamma by ~ 1e-9
    kp = [np.float_power(np.abs(k + shift), 2 * h) for shift in (1, 0, -1)]
    gamma = 0.5 * (kp[0] - 2.0 * kp[1] + kp[2])
    assert np.max(np.abs(row - gamma)) <= 1e-13


# every lru_cache table of the package, with arguments to build one entry
_CACHED_TABLES = {
    "_circulant_sqrt_eigs": (fbm._circulant_sqrt_eigs, (64, 0.7)),
    "_cholesky_factor": (fbm._cholesky_factor, (TimeGrid(1.0, 64), 0.7)),
    "_volterra_weights": (fbm._volterra_weights, (64, 1.0, 0.7)),
    "_cell_weights": (fraccalc._cell_weights, (64, 1 / 64, 0.35)),
    "_span_power": (fraccalc._span_power, (64, 1 / 64, 0.35)),
    "_singular_moments": (fraccalc._singular_moments, (64, 1 / 64, 0.35)),
    "_norm2_weight_cells": (fraccalc._norm2_weight_cells, (64, 1 / 64, 0.35)),
}


def test_every_cached_table_is_listed():
    modules = [importlib.import_module(f"mixedsde.{m.name}") for m in pkgutil.iter_modules(mixedsde.__path__)]
    cached = {obj for module in modules for obj in vars(module).values() if hasattr(obj, "cache_info")}
    assert cached == {build for build, _ in _CACHED_TABLES.values()}


@pytest.mark.parametrize("name", sorted(_CACHED_TABLES))
def test_cached_tables_are_read_only(name):
    # a cached array is shared by every later call (and every forked child),
    # so no caller may write into it
    build, args = _CACHED_TABLES[name]
    table = build(*args)
    arrays = [table] if isinstance(table, np.ndarray) else [a for a in table if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


def test_circulant_eigenvalue_check_still_raises(monkeypatch):
    # a negative tolerance flags every spectrum that is not constant
    monkeypatch.setattr(fbm, "CIRCULANT_EIG_TOL", -1.0)
    fbm._circulant_sqrt_eigs.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="circulant embedding produced eigenvalue"):
            fbm._fgn_unit_circulant(64, 0.7, stream(9, 1), 1, 1.0)
    finally:
        fbm._circulant_sqrt_eigs.cache_clear()


# ---------------------------------------------------------------------------
# noise pairs


def test_independent_pair_cross_covariance_vanishes():
    grid = TimeGrid(1.0, 8)
    m = 20_000
    w = np.empty((m, grid.n))
    b = np.empty((m, grid.n))
    for i in range(m):
        pair = generate_noise_pair(grid, 0.7, i)
        w[i] = pair.w.values[1:]
        b[i] = pair.bh.values[1:]
    cross = w.T @ b / m
    t = grid.nodes[1:]
    se = np.sqrt(np.outer(t, t ** (2 * 0.7)) / m)
    assert np.max(np.abs(cross) / se) < 5.0


def test_volterra_identity_at_half():
    grid = TimeGrid(1.0, 64)
    pair = generate_noise_pair(grid, 0.5, 9, "volterra", allow_brownian=True)
    assert np.allclose(pair.bh.values, pair.w.values, atol=1e-12)


def volterra_marginal_covariance(grid: TimeGrid, h: float) -> np.ndarray:
    """Exact covariance of the discretized Volterra fBm at nodes 1..n."""
    # row i of kt holds the fBm values driven by a unit increment in cell i
    kt = _volterra_fbm(_volterra_weights(grid.n, grid.horizon, h), np.eye(grid.n))
    return grid.delta * (kt.T @ kt)


def test_volterra_marginal_law_within_discretization_tolerance():
    # deterministic check: the discretized kernel's exact covariance against
    # the fBm covariance; tolerances pinned from measured discretization error
    errs = {}
    for n in (32, 64, 128):
        grid = TimeGrid(1.0, n)
        got = volterra_marginal_covariance(grid, 0.7)
        ana = _fbm_node_covariance(grid, 0.7)
        errs[n] = np.max(np.abs(got - ana)) / ana.max()
    assert errs[32] < 2.5e-2
    assert errs[64] < 1.2e-2
    assert errs[128] < errs[64] < errs[32]


def _volterra_dense(n: int, horizon: float, h: float) -> np.ndarray:
    """The (n, n) Molchan-Golosov matrix built column by column, O(n^2)."""
    p = h - 0.5
    delta = horizon / n
    nodes = np.arange(n + 1, dtype=float) * delta
    g = nodes**p
    dg = np.diff(g)
    c_h = math.sqrt(
        h * (2.0 * h - 1.0) * math.gamma(1.5 - h) / (math.gamma(2.0 - 2.0 * h) * math.gamma(p))
    )
    kmat = np.zeros((n, n))
    m0, m1 = _power_moments(np.arange(n - 1, dtype=float), delta, p)
    for i in range(1, n):
        cells = g[i:n] * m0[: n - i] + (dg[i:n] / delta) * m1[: n - i]
        kmat[i:, i] = c_h * nodes[i] ** (-p) * np.cumsum(cells)
    j = np.arange(1, n + 1, dtype=float)
    kmat[:, 0] = c_h * (delta ** (-p) / (1.0 - p)) * (j * delta) ** (2.0 * p) / (2.0 * p)
    return kmat


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("h", [0.55, 0.7, 0.95])
def test_volterra_fbm_matches_dense_matrix(n, h):
    dw = np.random.default_rng(n).normal(size=(4, n)) / math.sqrt(n)
    want = dw @ _volterra_dense(n, 2.0, h).T
    got = _volterra_fbm(_volterra_weights(n, 2.0, h), dw)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_volterra_fbm_rows_equal_single_calls_and_half_is_the_running_sum():
    dw = np.random.default_rng(3).normal(size=(5, 64)) / 8.0
    weights = _volterra_weights(64, 1.0, 0.7)
    batch = _volterra_fbm(weights, dw)
    for row, out in zip(dw, batch):
        assert np.array_equal(_volterra_fbm(weights, row), out)
    assert _volterra_weights(64, 1.0, 0.5) is None
    assert np.array_equal(_volterra_fbm(None, dw), np.cumsum(dw, axis=1))


def test_volterra_fbm_groups_equal_row_calls_and_write_into_any_view():
    # 37 rows: two full groups of 16 and a part group
    assert 2 * fbm._ROW_GROUP < 37 < 3 * fbm._ROW_GROUP
    dw = np.random.default_rng(4).normal(size=(37, 200)) / 14.0
    weights = _volterra_weights(200, 1.0, 0.7)
    rows = _volterra_fbm(weights, dw)
    assert rows.shape == dw.shape
    for p in range(37):
        assert np.array_equal(_volterra_fbm(weights, dw[p]), rows[p])
    b = np.full((201, 37), np.nan)
    node_major = b[1:].T
    assert _volterra_fbm(weights, dw, out=node_major) is node_major
    assert np.array_equal(b[1:].T, rows) and np.all(np.isnan(b[0]))
    into = np.zeros((37, 200))
    assert _volterra_fbm(None, dw, out=into) is into
    assert np.array_equal(into, np.cumsum(dw, axis=1))


@pytest.mark.parametrize("n", [1, 2, 200])
def test_volterra_fbm_reused_workspace_carries_nothing_over(n):
    # one workspace of 16 rows, each call after one on the same rows times
    # 1e6: 16 rows, 12 of them, a 1-D row and a node-major .T out; at n 1
    # the FFT is not padded
    weights = _volterra_weights(n, 1.0, 0.7)
    work = fbm._volterra_work(weights, 16)
    dw = np.random.default_rng(5).normal(size=(16, n)) / math.sqrt(n)
    b = np.full((n + 1, 16), np.nan)
    for rows, out in ((dw, None), (dw[:12], None), (dw[3], None), (dw, b[1:].T)):
        _volterra_fbm(weights, rows * 1e6, work=work)
        got = _volterra_fbm(weights, rows, out=out, work=work)
        assert (out is None or got is out) and np.array_equal(got, _volterra_fbm(weights, rows))
    assert np.all(np.isnan(b[0]))


@pytest.mark.parametrize("rows, n", [(1024, 1024), (16, 8192)])
def test_volterra_fbm_peak_memory_per_row_and_fft_point(rows, n):
    # the figures _volterra_fbm states: the workspace it builds takes 28 B
    # per row and FFT point, a new out 4 B more, and a call given both
    # allocates less than 1 B (np.eye(1024) is the covariance tests'
    # input, 16 rows at n 8192 one group of _chunk_noise)
    weights = _volterra_weights(n, 1.0, 0.7)
    dw = np.eye(n) if rows == n else np.random.default_rng(6).normal(size=(rows, n))
    out, work = np.empty((rows, n)), fbm._volterra_work(weights, rows)
    peaks = []
    for kwargs in ({}, {"out": out}, {"out": out, "work": work}):
        tracemalloc.start()
        try:
            _volterra_fbm(weights, dw, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] / (rows * weights.nfft))
        finally:
            tracemalloc.stop()
    assert 31.9 < peaks[0] <= 32.2 and 27.9 < peaks[1] <= 28.2 and peaks[2] < 1.0


def test_volterra_pair_at_large_n_has_a_linear_size_cache():
    grid = TimeGrid(1.0, 2**16)
    pair = generate_noise_pair(grid, 0.7, 5, "volterra")
    assert np.all(np.isfinite(pair.bh.values))
    weights = _volterra_weights(grid.n, grid.horizon, 0.7)
    assert sum(np.asarray(part).nbytes for part in weights) < 128 * grid.n


def test_pair_determinism_all_modes():
    grid = TimeGrid(1.0, 32)
    for dep in ("independent", "volterra-from-same-wiener", JointGaussian(lambda s, t: 0.0 * s * t)):
        a = generate_noise_pair(grid, 0.7, 5, dep)
        b = generate_noise_pair(grid, 0.7, 5, dep)
        assert np.array_equal(a.w.values, b.w.values)
        assert np.array_equal(a.bh.values, b.bh.values)


def test_joint_gaussian_zero_cross_marginals():
    grid = TimeGrid(1.0, 8)
    m = 6000
    vals = np.empty((m, grid.n))
    for i in range(m):
        pair = generate_noise_pair(grid, 0.7, i, JointGaussian(lambda s, t: 0.0 * s * t))
        vals[i] = pair.bh.values[1:]
    ana = _fbm_node_covariance(grid, 0.7)
    emp = vals.T @ vals / m
    assert np.max(np.abs(emp - ana) / _covariance_se(ana, m)) < 5.0


def test_joint_gaussian_rejects_non_psd():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match="smallest eigenvalue"):
        generate_noise_pair(grid, 0.7, 0, JointGaussian(lambda s, t: 0.5 + 0.0 * s * t))


def test_joint_gaussian_refuses_2n_above_the_cholesky_bound():
    calls = []

    def cross(s, t):
        calls.append((s, t))
        return 0.0 * s * t

    with pytest.raises(ValueError, match=r"2n x 2n joint covariance needs O\(n\^2\) memory"):
        generate_noise_pair(TimeGrid(1.0, 2049), 0.7, 0, JointGaussian(cross))
    assert calls == []


def test_pair_restrict_subsamples():
    fine = TimeGrid(1.0, 64)
    coarse = TimeGrid(1.0, 16)
    pair = generate_noise_pair(fine, 0.7, 3)
    sub = pair.w.restrict(coarse)
    assert np.array_equal(sub.values, pair.w.values[::4])


def test_noise_path_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        NoisePath(grid, np.array([1.0, 0.0, 0.0, 0.0, 0.0]), "wiener")
    with pytest.raises(ValueError):
        NoisePath(grid, np.array([0.0, np.inf, 0.0, 0.0, 0.0]), "wiener")
    with pytest.raises(ValueError):
        NoisePath(grid, np.zeros(5), "fbm")  # fbm requires a Hurst index
    with pytest.raises(ValueError, match=r"values must be a 1-d array with one entry per node \(5\), got shape \(4,\)"):
        NoisePath(grid, np.zeros(4), "wiener")
    with pytest.raises(ValueError, match="unknown path kind 'brownian'"):
        NoisePath(grid, np.zeros(5), "brownian")
    mine = np.zeros(5)
    path = NoisePath(grid, mine, "wiener")
    mine[1] = 1.0  # the caller's array stays writeable, the path keeps its own copy
    assert path.values[1] == 0.0 and not path.values.flags.writeable


@pytest.mark.parametrize("h", [0.0, 1.0, -0.5, math.nan])
def test_fbm_covariance_refuses_a_hurst_index_outside_0_1(h):
    with pytest.raises(ValueError, match=r"Hurst index must lie in \(0, 1\)"):
        fbm_covariance(0.3, 0.5, h)


def test_joint_gaussian_refuses_a_cross_covariance_off_the_node_mesh():
    for cross in (lambda s, t: 0.0, lambda s, t: 0.1 * s):
        with pytest.raises(ValueError, match="cross covariance must evaluate on the full node mesh"):
            generate_noise_pair(TimeGrid(1.0, 8), 0.7, 0, JointGaussian(cross))


def test_pair_provenance_names_seed_dependence_and_grid():
    grid = TimeGrid(2.0, 16)
    assert generate_noise_pair(grid, 0.7, 3).provenance == (3, "independent", 16, 2.0)
    assert generate_noise_pair(grid, 0.7, 3, "volterra").provenance == (3, "volterra-from-same-wiener", 16, 2.0)


# ---------------------------------------------------------------------------
# Holder functionals


def test_holder_zero_path():
    grid = TimeGrid(1.0, 32)
    path = NoisePath(grid, np.zeros(33), "wiener")
    assert holder_functional(path, 0.25).value == 0.0


def test_holder_homogeneity():
    grid = TimeGrid(1.0, 32)
    path = generate_wiener(grid, 3)
    lam = 2.75
    scaled = NoisePath(grid, lam * path.values, "wiener")
    a = holder_functional(path, 0.2).value
    b = holder_functional(scaled, 0.2).value
    assert b == pytest.approx(lam * a, rel=1e-12)


def test_holder_linear_path_against_quadrature_oracle():
    # independent oracle: midpoint 2-d quadrature of |P(x)-P(y)|^{2/eta} |x-y|^{-1/eta}
    eta = 0.25
    m = 2048
    x = (np.arange(m) + 0.5) / m
    d = np.abs(x[:, None] - x[None, :])
    integrand = np.zeros_like(d)
    mask = d > 0
    integrand[mask] = d[mask] ** (2.0 / eta) * d[mask] ** (-1.0 / eta)
    oracle = float(np.sum(integrand)) / m**2
    assert oracle == pytest.approx(1.0 / 15.0, rel=1e-3)  # analytic cross-check
    oracle_value = oracle ** (eta / 2.0)

    grid = TimeGrid(1.0, 2048)
    path = NoisePath(grid, grid.nodes.copy(), "wiener")
    got = holder_functional(path, eta).value
    assert got == pytest.approx(oracle_value, rel=1e-3)


@pytest.mark.parametrize("kind", ["wiener", "fbm"])
def test_holder_functional_is_the_last_node_of_holder_cumulative(kind):
    # the total sums per offset block, the cumulative K per node: the two agree to roundoff
    grid = TimeGrid(1.0, 300)
    path = generate_wiener(grid, 4) if kind == "wiener" else generate_fbm(grid, 0.7, 4)
    q = 1.0 / 0.1 if kind == "wiener" else 2 * 0.7 / 0.1
    for k in (grid.n, 4 * _OFFSET_BLOCK + 3):  # the second ends inside an offset block
        want = holder_cumulative(path.values[: k + 1], grid.delta, 0.1, q)[-1]
        assert holder_functional(path, 0.1, grid.nodes[k]).value == pytest.approx(want, rel=1e-13)


def test_holder_monotone_in_horizon():
    grid = TimeGrid(1.0, 64)
    path = generate_fbm(grid, 0.7, 12)
    cum = holder_cumulative(path.values, grid.delta, 0.1, 2 * 0.7 / 0.1)
    assert np.all(np.diff(cum) >= 0.0)
    # and via the public single-horizon interface
    k1 = holder_functional(path, 0.1, 0.5).value
    k2 = holder_functional(path, 0.1, 1.0).value
    assert k1 <= k2


def _holder_double_loop(v: np.ndarray, delta: float, eta: float, q: float) -> np.ndarray:
    # node-pair rectangle rule, one pair at a time
    n = v.size - 1
    inv_sep = (np.arange(1, n + 1) * delta) ** (-q)
    total = np.zeros(n + 1)
    acc = 0.0
    for i in range(1, n + 1):
        for j in range(i):
            acc += 2.0 * abs(v[i] - v[j]) ** (2.0 / eta) * inv_sep[i - j - 1]
        total[i] = acc
    return (total * delta * delta) ** (eta / 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256])
@pytest.mark.parametrize("eta,q", [(0.1, 1 / 0.1), (0.15, 2 * 0.7 / 0.15)])
def test_holder_cumulative_batch_matches_double_loop(n, eta, q):
    rng = np.random.default_rng(n)
    values = np.cumsum(rng.normal(size=(3, n + 1)), axis=1) / math.sqrt(n)
    got = _holder_cumulative_batch(values.T, 1.0 / n, eta, q)
    assert got.shape == values.T.shape
    for row, out in zip(values, got.T):
        np.testing.assert_allclose(out, _holder_double_loop(row, 1.0 / n, eta, q), rtol=1e-12, atol=0.0)


def test_holder_cumulative_is_the_batch_on_one_row():
    path = generate_fbm(TimeGrid(1.0, 64), 0.7, 4)
    q = 2 * 0.7 / 0.1
    single = holder_cumulative(path.values, 1 / 64, 0.1, q)
    assert np.array_equal(single, _holder_cumulative_batch(path.values[:, None], 1 / 64, 0.1, q)[:, 0])


def test_holder_cumulative_batch_confines_nan_to_its_row():
    values = np.cumsum(np.random.default_rng(8).normal(size=(3, 33)), axis=1) / 6
    clean = _holder_cumulative_batch(values.T, 1 / 32, 0.1, 10.0)
    values[1, 5] = np.nan
    got = _holder_cumulative_batch(values.T, 1 / 32, 0.1, 10.0)
    assert np.array_equal(got[:, [0, 2]], clean[:, [0, 2]])
    assert np.all(np.isfinite(got[:5, 1])) and np.all(np.isnan(got[5:, 1]))


def test_holder_validation():
    grid = TimeGrid(1.0, 32)
    w = generate_wiener(grid, 0)
    b = generate_fbm(grid, 0.7, 0)
    with pytest.raises(ValueError):
        holder_functional(w, 0.6)  # eta >= 1/2 invalid for Wiener
    with pytest.raises(ValueError):
        holder_functional(b, 0.75)  # eta >= H invalid for fBm
    with pytest.raises(ValueError, match=r"holder_functional's grid steps in \[0, t\] must be at least 8, got 7"):
        holder_functional(w, 0.2, t=grid.nodes[7])
    assert holder_functional(w, 0.2, t=grid.nodes[8]).value > 0.0
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="is not a node of this grid"):
            holder_functional(w, 0.2, t=t)


# ---------------------------------------------------------------------------
# CSV export


def test_path_csv_roundtrip():
    grid = TimeGrid(1.0, 16)
    path = generate_fbm(grid, 0.7, 21)
    buf = io.StringIO()
    write_path_csv(path, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == grid.n + 2
    data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], grid.nodes)
    assert np.array_equal(data[:, 1], path.values)


def test_pair_csv_roundtrip():
    grid = TimeGrid(1.0, 8)
    pair = generate_noise_pair(grid, 0.7, 4)
    buf = io.StringIO()
    write_pair_csv(pair, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,w,bh"
    data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], pair.w.values)
    assert np.array_equal(data[:, 2], pair.bh.values)


def test_unknown_dependence_refused_at_the_api():
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match="unknown dependence 'nope'; use one of independent"):
        generate_noise_pair(grid, 0.7, 0, "nope")
    with pytest.raises(TypeError, match="cannot interpret dependence spec 3"):
        generate_noise_pair(grid, 0.7, 0, 3)


def test_pair_refuses_paths_on_two_grids_or_in_the_wrong_places():
    w = generate_wiener(TimeGrid(1.0, 8), 0)
    with pytest.raises(ValueError, match="paths of a pair share one grid"):
        NoisePair(w, generate_fbm(TimeGrid(1.0, 16), 0.7, 0), Independent(), 0)
    bh = generate_fbm(TimeGrid(1.0, 8), 0.7, 0)
    with pytest.raises(ValueError, match="a pair holds a wiener path w and an fbm path bh, got fbm and wiener"):
        NoisePair(bh, w, Independent(), 0)


@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_pair_is_built_from_the_public_generators(dependence):
    grid = TimeGrid(1.0, 64)
    pair = generate_noise_pair(grid, 0.7, 9, dependence)
    assert np.array_equal(pair.w.values, generate_wiener(grid, 9).values)
    if dependence == "independent":
        assert np.array_equal(pair.bh.values, generate_fbm(grid, 0.7, 9).values)
