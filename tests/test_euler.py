import dataclasses
import io
import warnings

import numpy as np
import pytest

from mixedsde import (
    EulerBlowupError,
    NoisePair,
    NoisePath,
    SolverConfig,
    TimeGrid,
    euler_solve,
    generate_noise_pair,
    interpolate,
    preset,
    stop,
    stopping_time,
)
from mixedsde.coefficients import coefficients_from_expressions
from mixedsde.convergence import _chunk_noise
from mixedsde.euler import _BLOWUP_CHECK_EVERY, _euler_solve_batch, _interpolate_on_fine, write_solution_csv
from mixedsde.fbm import Independent, pair_holder_cumulative


@pytest.fixture(scope="module")
def pair():
    return generate_noise_pair(TimeGrid(1.0, 256), 0.7, 11)


def _drift_one():
    return coefficients_from_expressions("drift-one", "1.0", "0.0", "0.0", "0.0", 1.5, 0.75)


def test_zero_coefficients_constant(pair):
    sol = euler_solve(preset("zero"), pair, 1.0, TimeGrid(1.0, 32))
    assert np.all(sol.values == 1.0)


def test_pure_drift_exact(pair):
    grid = TimeGrid(1.0, 32)
    sol = euler_solve(_drift_one(), pair, 0.0, grid)
    assert np.array_equal(sol.values, grid.nodes)


@pytest.mark.parametrize("horizon, n", [(1.0, 600), (0.3, 96)])
def test_recursion_steps_by_the_first_cell_width(horizon, n):
    # delta = t[1] - t[0] for every step: on these grids t[k+1] - t[k]
    # differs from it in the last bit at some k
    grid = TimeGrid(horizon, n)
    assert np.any(np.diff(grid.nodes) != grid.nodes[1] - grid.nodes[0])
    pair = NoisePair(NoisePath(grid, np.zeros(n + 1), "wiener"), NoisePath(grid, np.zeros(n + 1), "fbm", 0.7), "independent", 0)
    want = [0.0]
    for _ in range(n):
        want.append(want[-1] + (grid.nodes[1] - grid.nodes[0]))
    assert np.array_equal(euler_solve(_drift_one(), pair, 0.0).values, want)


def test_interpolate_anchors_at_nodes(pair):
    grid = TimeGrid(1.0, 32)
    sol = euler_solve(preset("linear"), pair, 1.0, grid)
    for k in (0, 7, 32):
        assert interpolate(sol, grid.nodes[k]) == sol.values[k]


def test_interpolate_pure_drift_linear(pair):
    sol = euler_solve(_drift_one(), pair, 0.0, TimeGrid(1.0, 32))
    for u in pair.grid.nodes[[3, 50, 129]]:
        assert interpolate(sol, float(u)) == pytest.approx(float(u), abs=1e-15)


def test_interpolation_matches_integral_form(pair):
    # independent reimplementation: the scheme's integral form has piecewise
    # constant integrands, so every integral is an exact finite sum
    lin = preset("linear")
    coarse = TimeGrid(1.0, 32)
    fine = pair.grid
    stride = fine.n // coarse.n
    sol = euler_solve(lin, pair, 1.0, coarse)
    w, bh = pair.w.values, pair.bh.values
    got = np.array([interpolate(sol, float(u)) for u in fine.nodes])
    ref = np.empty(fine.n + 1)
    ref[0] = 1.0
    for j in range(fine.n):
        k = j // stride
        tk = coarse.nodes[k]
        xk = sol.values[k]
        ref[j + 1] = (
            xk
            + lin.a(tk, xk) * (fine.nodes[j + 1] - tk)
            + lin.b(tk, xk) * (w[j + 1] - w[k * stride])
            + lin.c(tk, xk) * (bh[j + 1] - bh[k * stride])
        )
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_interpolate_rejects_off_grid_queries(pair):
    sol = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 32))
    with pytest.raises(ValueError):
        interpolate(sol, 0.3337)  # not resolvable on the noise grid


def test_geometric_fbm_converges_to_exponential():
    # a = b = 0, c = lambda x has the pathwise solution x0 exp(lambda B^H_t)
    lam = 0.5
    geo = coefficients_from_expressions("geometric", "0.0", "0.0", f"{lam} * x", f"{lam}", 1.0, 0.75)
    fine = TimeGrid(1.0, 4096)
    med = {}
    errs = {256: [], 1024: [], 4096: []}
    for seed in range(30):
        pair = generate_noise_pair(fine, 0.7, seed)
        exact = float(np.exp(lam * pair.bh.values[-1]))
        for n in errs:
            sol = euler_solve(geo, pair, 1.0, TimeGrid(1.0, n))
            errs[n].append(abs(sol.values[-1] - exact) / abs(exact))
    for n in errs:
        med[n] = float(np.median(errs[n]))
    assert med[4096] < 0.05
    assert med[4096] < med[1024] < med[256]


def test_stopping_time_trivials(pair):
    assert stopping_time(pair, 0.1, 1e9) == pair.grid.horizon
    assert stopping_time(pair, 0.1, 1e-12) == pair.grid.nodes[1]


def test_stopping_time_monotone_in_threshold(pair):
    taus = [stopping_time(pair, 0.1, n) for n in (2.0, 3.0, 5.0, 1e9)]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_stopping_time_kinds(pair):
    # the summed functional dominates both parts, so its tau is earliest
    tau_sum = stopping_time(pair, 0.1, 4.0, "sum")
    assert tau_sum <= stopping_time(pair, 0.1, 4.0, "wiener")
    assert tau_sum <= stopping_time(pair, 0.1, 4.0, "fbm")
    with pytest.raises(ValueError):
        stopping_time(pair, 0.1, 4.0, "bogus")


def test_stop_freeze(pair):
    grid = TimeGrid(1.0, 32)
    sol = euler_solve(preset("linear"), pair, 1.0, grid)
    st = stop(sol, grid.nodes[10])
    assert np.array_equal(st.values[:11], sol.values[:11])
    assert np.all(st.values[10:] == sol.values[10])
    assert np.array_equal(stop(sol, 1.0).values, sol.values)
    assert np.all(stop(sol, 0.0).values == sol.values[0])


def test_blowup_carries_step_index(pair):
    cubic = coefficients_from_expressions("cubic", "x**3", "0.0", "0.0", "0.0", 1.0, 0.75)
    with pytest.raises(EulerBlowupError) as err:
        euler_solve(cubic, pair, 8.0, TimeGrid(1.0, 32))
    assert err.value.step >= 1


def test_blowup_stops_the_recursion_early():
    calls = []

    def counted(t, x):
        calls.append(t)
        return x**3

    cubic = dataclasses.replace(
        coefficients_from_expressions("cubic-c", "0.0", "0.0", "x**3", "3.0 * x**2", 1.0, 0.75), c=counted
    )
    noise = generate_noise_pair(TimeGrid(1.0, 2**15), 0.7, 0)
    with pytest.raises(EulerBlowupError) as err:
        euler_solve(cubic, noise, 8.0)
    assert err.value.step == 44
    assert len(calls) == _BLOWUP_CHECK_EVERY


def test_batch_solver_matches_single(pair):
    lin = preset("linear")
    grid = TimeGrid(1.0, 32)
    sol = euler_solve(lin, pair, 1.0, grid)
    stride = pair.grid.n // grid.n
    w = np.stack([pair.w.values[::stride]] * 3)
    bh = np.stack([pair.bh.values[::stride]] * 3)
    vals, aborted = _euler_solve_batch(lin, grid.nodes, w.T, bh.T, 1.0)
    assert np.array_equal(vals[:, 1], sol.values)
    assert np.all(aborted == -1)


def test_batch_solver_flags_blowup(pair):
    cubic = coefficients_from_expressions("cubic", "x**3", "0.0", "0.0", "0.0", 1.0, 0.75)
    grid = TimeGrid(1.0, 32)
    stride = pair.grid.n // grid.n
    w = np.stack([pair.w.values[::stride]] * 2)
    bh = np.stack([pair.bh.values[::stride]] * 2)
    vals, aborted = _euler_solve_batch(cubic, grid.nodes, w.T, bh.T, 8.0)
    assert np.all(aborted >= 1)
    assert np.all(np.isnan(vals[-1]))


def _noise_rows(rows, n, seed):
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(2, rows, n)) * np.sqrt(1.0 / n)
    w, bh = np.zeros((2, rows, n + 1))
    np.cumsum(steps[0], axis=1, out=w[:, 1:])
    np.cumsum(steps[1], axis=1, out=bh[:, 1:])
    return np.linspace(0.0, 1.0, n + 1), w, bh


@pytest.mark.parametrize("name", ["linear", "bounded-smooth", "additive"])
def test_kernel_row_equals_batch_row(name):
    coeffs = preset(name)
    t, w, bh = _noise_rows(5, 64, 7)
    vals, aborted = _euler_solve_batch(coeffs, t, w.T, bh.T, 1.0)
    assert vals.shape == w.T.shape and vals.flags.c_contiguous
    for p in range(5):
        row, ab = _euler_solve_batch(coeffs, t, w[p], bh[p], 1.0)
        assert row.shape == (65,)
        assert np.array_equal(row, vals[:, p])
        assert ab == aborted[p] == -1


@pytest.mark.parametrize(
    "coeffs, fine_n, coarse_n, paths",
    [
        (preset("quadratic-c"), 4096, 4096, 256),
        (coefficients_from_expressions("cubic", "-x**3", "6.0", "0.3", "0.0", 1.0, 0.75), 128, 8, 20),
    ],
    ids=["quadratic-c", "cubic"],
)
def test_integer_power_rows_equal_one_row_solves(coeffs, fine_n, coarse_n, paths):
    # a one-row solve evaluates the coefficients on numpy scalars, the batch on rows
    w, bh = _chunk_noise(Independent(), TimeGrid(1.0, fine_n), 0.7, 5, 0, paths, "circulant-embedding")
    stride = fine_n // coarse_n
    t = TimeGrid(1.0, coarse_n).nodes
    vals, aborted = _euler_solve_batch(coeffs, t, w[::stride], bh[::stride], 1.0)
    for p in range(paths):
        row, ab = _euler_solve_batch(coeffs, t, w[::stride, p], bh[::stride, p], 1.0)
        assert ab == aborted[p]
        assert np.array_equal(row, vals[:, p], equal_nan=True)


def test_kernel_blowup_confined_to_its_row():
    coeffs = preset("unbounded-b")
    t, w, bh = _noise_rows(4, 64, 8)
    w[2] *= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, aborted = _euler_solve_batch(coeffs, t, w.T, bh.T, 1.0)
        step = int(aborted[2])
        assert step >= 1
        assert np.all(np.isnan(vals[step:, 2])) and np.all(np.isfinite(vals[:step, 2]))
        for p in (0, 1, 3):
            row, ab = _euler_solve_batch(coeffs, t, w[p], bh[p], 1.0)
            assert ab == aborted[p] == -1
            assert np.array_equal(vals[:, p], row)
        grid = TimeGrid(1.0, 64)
        pair = NoisePair(
            NoisePath(grid, w[2], "wiener"), NoisePath(grid, bh[2], "fbm", 0.7), "independent", 0
        )
        with pytest.raises(EulerBlowupError) as err:
            euler_solve(coeffs, pair, 1.0)
    assert err.value.step == step


def test_increment_bound_monitor():
    # |X_s - X_{t_s}| / (K^eta_s (s - t_s)^(1/2 - eta) (1 + |X_{t_s}|)) stays
    # below a level-independent constant; 1.0 pinned from measurement (~0.1)
    lin = preset("linear")
    eta = 0.1
    fine = TimeGrid(1.0, 512)
    r = 0.5 - eta
    level_max = {}
    for n in (16, 32, 64, 128):
        worst = 0.0
        grid = TimeGrid(1.0, n)
        stride = fine.n // n
        for seed in range(25):
            pair = generate_noise_pair(fine, 0.7, seed)
            k_cum = pair_holder_cumulative(pair, eta, "sum")
            sol = euler_solve(lin, pair, 1.0, grid)
            interp = _interpolate_on_fine(
                lin,
                grid.nodes,
                sol.values[:, None],
                fine.nodes,
                pair.w.values[:, None],
                pair.bh.values[:, None],
                stride,
                0,
                fine.n + 1,
                np.empty((fine.n + 1, 1)),
            )[:, 0]
            base = np.arange(fine.n + 1) // stride
            off = np.arange(fine.n + 1) % stride != 0
            s = fine.nodes[off]
            ts = grid.nodes[base[off]]
            lhs = np.abs(interp[off] - sol.values[base[off]])
            denom = k_cum[off] * (s - ts) ** r * (1.0 + np.abs(sol.values[base[off]]))
            worst = max(worst, float(np.max(lhs / denom)))
        level_max[n] = worst
    assert max(level_max.values()) < 1.0
    # level-uniform: no systematic growth as the grid refines
    assert max(level_max.values()) < 2.0 * min(level_max.values())


@pytest.mark.parametrize("name", ["linear", "bounded-smooth", "additive"])
def test_interpolate_on_fine_matches_per_node_formula(name):
    coeffs = preset(name)
    rng = np.random.default_rng(3)
    for stride, n in ((4, 8), (3, 5), (6, 4), (45, 3), (384, 2), (1, 9), (2, 7)):
        fine_t = np.arange(n * stride + 1) / (n * stride)
        w = np.cumsum(rng.normal(size=(5, fine_t.size)), axis=1) / 6
        bh = np.cumsum(rng.normal(size=(5, fine_t.size)), axis=1) / 6
        coarse_t = fine_t[::stride]
        x, _ = _euler_solve_batch(coeffs, coarse_t, w[:, ::stride].T, bh[:, ::stride].T, 1.0)
        want = np.empty_like(w)
        for j in range(fine_t.size):
            k = j // stride
            tk, xk = coarse_t[k], x[k]
            want[:, j] = (
                xk
                + coeffs.a(tk, xk) * (fine_t[j] - tk)
                + coeffs.b(tk, xk) * (w[:, j] - w[:, k * stride])
                + coeffs.c(tk, xk) * (bh[:, j] - bh[:, k * stride])
            )
        nf, s = n * stride, stride
        got = _interpolate_on_fine(coeffs, coarse_t, x, fine_t, w.T, bh.T, stride, 0, nf + 1, np.empty((nf + 1, 5)))
        assert np.array_equal(got, want.T)
        # ranges that start or end inside a cell, lie inside one, or end at the last fine node
        ranges = [(1, nf - 1), (s - 1, 2 * s + 1), (0, s + 1), (s + 1, s + 2), (s + 1, 2 * s), (s, s + 1),
                  (s // 2, nf + 1), (nf - 1, nf + 1), (nf, nf + 1)]
        for lo, hi in ranges:
            part = _interpolate_on_fine(coeffs, coarse_t, x, fine_t, w.T, bh.T, stride, lo, hi, np.empty((hi - lo, 5)))
            assert np.array_equal(part, want.T[lo:hi]), (stride, lo, hi)
        # advancing from x0 over consecutive ranges cut anywhere, the loop
        # runs the recursion itself and writes the same fine nodes
        for cuts in ((), (1,), (s - 1, 2 * s + 1), (s, nf), (s // 2, s + 1, nf - 1)):
            bounds = sorted({0, nf + 1, *(c for c in cuts if 0 < c <= nf)})
            adv = np.full(x.shape, np.nan)
            adv[0] = 1.0
            parts = [
                _interpolate_on_fine(coeffs, coarse_t, adv, fine_t, w.T, bh.T, stride, lo, hi, np.empty((hi - lo, 5)), True)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            assert np.array_equal(adv, x), (stride, bounds)
            assert np.array_equal(np.concatenate(parts), want.T), (stride, bounds)


def test_solution_csv(pair):
    sol = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 16))
    buf = io.StringIO()
    write_solution_csv(sol, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 18
    data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], sol.values)


def test_solver_config_windows():
    SolverConfig(alpha=0.35).validate(0.7, 0.75)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.25).validate(0.7, 0.75)  # alpha <= 1 - H
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.45).validate(0.7, 0.75)  # eta above kappa - alpha
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.35, eta=0.2).validate(0.7, 0.75)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.35, epsilon=0.2).validate(0.7, 0.75)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.35, threshold=0.0)
