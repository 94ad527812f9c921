"""The per-level pass over the fine grid: the blocked kernel against the
full-width formula it replaced, the dyadic coupling invariants of the
harness (observed by spying on its own kernel calls), and the public
localization API against the harness on each path."""

import dataclasses
import json

import numpy as np
import pytest

import mixedsde.convergence as convergence
from mixedsde import (
    EulerBlowupError,
    EulerSolution,
    NoisePair,
    NoisePath,
    SolverConfig,
    TimeGrid,
    euler_solve,
    generate_noise_pair,
    mc_strong_error,
    pathwise_error,
    preset,
    stop,
    stopping_time,
)
from mixedsde.cli import main
from mixedsde.coefficients import coefficients_from_expressions
from mixedsde.convergence import _chunk_noise, _error_norms, _level_pass, _stop_batch
from mixedsde.euler import _euler_solve_batch
from mixedsde.fbm import Independent
from mixedsde.fraccalc import _increment_bracket_batch, _norm2_weight_cells

ALPHA = 0.35


def _full_width(coeffs, coarse_t, x_c, fine_t, w, bh, stride, x_f, tau_fine, eval_stride, delta_eval, cells):
    """The full-width sequence the blocked pass replaced: interpolate every
    fine node with np.repeat holds, stop both solutions, then the max of
    diff*diff and the norms of diff on the eval nodes."""
    x_c, x_f, w, bh = (np.ascontiguousarray(v) for v in (x_c, x_f, w, bh))
    nf1 = fine_t.size

    def held(v):
        return np.repeat(v, stride, axis=-1)[..., :nf1]

    def frozen(fn):
        return held(np.broadcast_to(fn(coarse_t, x_c), x_c.shape))

    interp = (
        held(x_c)
        + frozen(coeffs.a) * (fine_t - held(coarse_t))
        + frozen(coeffs.b) * (w - held(w[:, ::stride]))
        + frozen(coeffs.c) * (bh - held(bh[:, ::stride]))
    )
    diff = np.ascontiguousarray((_stop_batch(interp.T, tau_fine) - _stop_batch(x_f.T, tau_fine)).T)
    sup2 = np.max(diff * diff, axis=1)
    de = diff[:, ::eval_stride]
    br = np.abs(de) + _increment_bracket_batch(de.T, delta_eval, ALPHA).T
    norm2sq = np.sum(0.5 * (br[:, :-1] ** 2 + br[:, 1:] ** 2) * cells, axis=1)
    return sup2, norm2sq, np.max(br, axis=1) ** 2


def _node_major_noise(paths, n, seed):
    rng = np.random.default_rng(seed)
    w, bh = np.zeros((2, n + 1, paths))
    np.cumsum(rng.normal(size=(n, paths)) / np.sqrt(n), axis=0, out=w[1:])
    np.cumsum(rng.normal(size=(n, paths)) / np.sqrt(n), axis=0, out=bh[1:])
    return w, bh


_SPIKY = coefficients_from_expressions("spiky", "1 / (x - 1.25)", "0.2", "0.3 * x", "0.3", 1.0, 0.75)


@pytest.mark.parametrize("block", [16, 256])
@pytest.mark.parametrize(
    "fine_n, coarse_n, eval_n",
    [
        (64, 8, 64),  # stride 1: every fine node is an eval node
        (64, 32, 8),  # coarse stride 2 below the eval stride 8
        (40, 5, 5),  # 5 cells in blocks of 2 (block 16): the count does not divide
        (64, 2, 16),  # stride 32 above block 16: blocks inside one cell
        (128, 16, 2),  # eval stride 64 above block 16: blocks without eval nodes
        (96, 32, 96),  # stride 3: blocks of 15 nodes (block 16) end on cell boundaries
        (90, 2, 10),  # stride 45 above block 16: each cell split into 16 + 16 + 13
    ],
)
@pytest.mark.parametrize("name", ["linear", "additive", "bounded-smooth", "spiky"])
def test_blocked_pass_matches_full_width(monkeypatch, name, fine_n, coarse_n, eval_n, block):
    monkeypatch.setattr(convergence, "_BLOCK_NODES", block)
    coeffs = _SPIKY if name == "spiky" else preset(name)
    fine_t = np.linspace(0.0, 1.0, fine_n + 1)
    stride, eval_stride = fine_n // coarse_n, fine_n // eval_n
    coarse_t = fine_t[::stride]
    w, bh = _node_major_noise(7, fine_n, 11)
    with np.errstate(all="ignore"):
        x_f = _euler_solve_batch(coeffs, fine_t, w, bh, 1.0)
    # aborted rows: nan before tau propagates, nan after tau is frozen away;
    # on the fine side given as nan, on the coarse side by W at coarse nodes:
    # a one-node spike takes the recursion past the cap (2e299) and, for the
    # additive preset, back below it (the path stays aborted), and inf
    x_f[fine_n // 4 :, 3] = np.nan
    x_f[-1, 5] = np.nan
    w[coarse_n // 2 * stride, 2] += 1e300
    w[-1, 4] = np.inf
    tau_eval = np.array([0, eval_n // 2, eval_n, eval_n, eval_n // 2, eval_n - 1, 1])
    tau_fine = tau_eval * eval_stride
    delta_eval = 1.0 / eval_n
    cells = _norm2_weight_cells(eval_n, delta_eval, ALPHA)

    with np.errstate(all="ignore"):
        x_c = _euler_solve_batch(coeffs, coarse_t, w[::stride], bh[::stride], 1.0)
        want = _full_width(
            coeffs, coarse_t, x_c.T, fine_t, w.T, bh.T, stride, x_f.T, tau_fine, eval_stride, delta_eval, cells
        )
        x_coarse = np.full(x_c.shape, 1.0)
        sup2, c_eval = _level_pass(coeffs, coarse_t, x_coarse, fine_t, w, bh, x_f, tau_fine, eval_stride, True)
        given = _level_pass(coeffs, coarse_t, x_c, fine_t, w, bh, x_f, tau_fine, eval_stride)
        fs_eval = _stop_batch(x_f[::eval_stride], tau_eval)
        got = (sup2, *_error_norms(_stop_batch(c_eval, tau_eval), fs_eval, delta_eval, ALPHA, cells))
    assert np.array_equal(x_coarse, x_c, equal_nan=True)
    assert all(np.array_equal(g, v, equal_nan=True) for g, v in zip(given, (sup2, c_eval)))
    dead = np.isnan(x_c)
    ab_c = np.where(dead[-1], dead.argmax(axis=0), -1)  # each path's abort step, or -1
    assert ab_c[2] == coarse_n // 2 and ab_c[4] == coarse_n
    for g, v in zip(got, want):
        assert np.array_equal(g, v, equal_nan=True)
    assert np.isnan(sup2[[2, 3]]).all() and sup2[0] == 0.0
    if name != "spiky":
        assert np.isfinite(sup2[[0, 1, 4, 5, 6]]).all()
        assert np.flatnonzero(ab_c >= 0).tolist() == [2, 4]


def test_blocked_pass_keeps_the_last_node_formula():
    # a(t, x) is nan at t = 1, the last coarse node, where the recursion
    # never evaluates it: the coarse values stay finite, but the last fine
    # node is nan, as x_n + a*0 is, not a copy of x_n
    coeffs = coefficients_from_expressions("edge", "0 / (t - 1)", "0.2", "0.3", "0.0", 1.0, 0.75)
    fine_t = np.linspace(0.0, 1.0, 17)
    w, bh = _node_major_noise(3, 16, 2)
    x_f, x_c = np.ones((17, 3)), np.ones((5, 3))
    with np.errstate(all="ignore"):
        sup2, c_eval = _level_pass(coeffs, fine_t[::4], x_c, fine_t, w, bh, x_f, np.full(3, 16), 4, True)
        want = _euler_solve_batch(coeffs, fine_t[::4], w[::4], bh[::4], 1.0)
    assert np.isfinite(x_c).all() and np.array_equal(x_c, want)
    assert np.isnan(c_eval[-1]).all() and np.array_equal(c_eval[:-1], x_c[:-1])
    assert np.isnan(sup2).all()


@pytest.mark.parametrize(
    "coarse_n, fine_n, noise_n",
    [
        (100, 300, 600),  # stride 3, the noise on a grid finer than the fine one
        (2, 768, 768),  # stride 384: a block boundary would fall inside a cell
        (3, 771, 771),  # stride 257, one node above the block size
    ],
)
@pytest.mark.parametrize("stop_at", ["middle", "end"])
def test_pathwise_error_matches_full_width_at_any_stride(coarse_n, fine_n, noise_n, stop_at):
    coeffs = preset("bounded-smooth")
    fine_grid = TimeGrid(1.0, fine_n)
    tau_idx = fine_n // 2 if stop_at == "middle" else fine_n
    tau = float(fine_grid.nodes[tau_idx])
    pair = generate_noise_pair(TimeGrid(1.0, noise_n), 0.7, 4)
    coarse = stop(euler_solve(coeffs, pair, 1.0, TimeGrid(1.0, coarse_n)), tau)
    fine = stop(euler_solve(coeffs, pair, 1.0, fine_grid), tau)
    sup, n2 = pathwise_error(coarse, fine, ALPHA)

    stride, noise_stride = fine_n // coarse_n, noise_n // fine_n
    w, bh = (p.values[None, ::noise_stride] for p in (pair.w, pair.bh))
    cells = _norm2_weight_cells(fine_n, fine_grid.delta, ALPHA)
    sup2, norm2sq, _ = _full_width(
        coeffs, coarse.grid.nodes, coarse.base.values[None, :], fine_grid.nodes, w, bh, stride,
        fine.base.values[None, :], np.array([tau_idx]), 1, fine_grid.delta, cells,
    )
    assert sup > 0.0
    assert (sup, n2) == (np.sqrt(sup2[0]), np.sqrt(norm2sq[0]))


def test_pathwise_error_interpolates_the_coarse_values_it_is_given():
    # one interior coarse value off the recursion: the error is that of the given values
    coeffs, fine_grid = preset("bounded-smooth"), TimeGrid(1.0, 300)
    pair = generate_noise_pair(fine_grid, 0.7, 4)
    coarse = euler_solve(coeffs, pair, 1.0, TimeGrid(1.0, 100))
    fine = stop(euler_solve(coeffs, pair, 1.0), 1.0)
    values = coarse.values.copy()
    values[37] += 1e-3
    tampered = EulerSolution(grid=coarse.grid, values=values, noise=pair, coeffs=coeffs, x0=1.0)
    sup, n2 = pathwise_error(stop(tampered, 1.0), fine, ALPHA)
    cells = _norm2_weight_cells(300, fine_grid.delta, ALPHA)
    sup2, norm2sq, _ = _full_width(
        coeffs, coarse.grid.nodes, values[None, :], fine_grid.nodes, pair.w.values[None, :], pair.bh.values[None, :],
        3, fine.base.values[None, :], np.array([300]), 1, fine_grid.delta, cells,
    )
    assert (sup, n2) == (np.sqrt(sup2[0]), np.sqrt(norm2sq[0]))
    assert (sup, n2) != pathwise_error(stop(coarse, 1.0), fine, ALPHA)


def test_pathwise_error_refuses_grids_that_are_not_nested():
    pair = generate_noise_pair(TimeGrid(1.0, 12), 0.7, 1)
    coarse = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 4))
    fine = euler_solve(preset("linear"), pair, 1.0, TimeGrid(1.0, 6))
    with pytest.raises(ValueError, match="not nested"):
        pathwise_error(stop(coarse, 1.0), stop(fine, 1.0), ALPHA)


# ---------------------------------------------------------------------------
# coupling invariants, observed on a real harness run


def _spy(monkeypatch, name, record):
    original = getattr(convergence, name)

    def spy(*args):
        out = original(*args)
        record.append((args, out if name != "_interpolate_on_fine" else np.array(out)))
        return out

    monkeypatch.setattr(convergence, name, spy)


@pytest.fixture
def harness_calls(monkeypatch):
    calls = {name: [] for name in ("_euler_solve_batch", "_interpolate_on_fine", "_stop_batch", "_level_pass")}
    for name, record in calls.items():
        _spy(monkeypatch, name, record)
    config = SolverConfig(alpha=ALPHA, threshold=4.0)
    rep = mc_strong_error(preset("linear"), 0.7, config, [8, 16, 32], 2, 20, seed=5, eval_n=32, workers=1)
    return rep, calls


def test_coarse_solves_equal_euler_solve_on_subsampled_noise(harness_calls):
    _, calls = harness_calls
    fine = TimeGrid(1.0, 128)
    w, bh = _chunk_noise(Independent(), fine, 0.7, 5, 0, 20, "circulant-embedding")
    # the one Euler solve is the fine one; each level's pass runs its own recursion from x0
    assert [len(args[1]) - 1 for args, _ in calls["_euler_solve_batch"]] == [fine.n]
    passes = calls["_level_pass"]
    assert sorted(len(args[1]) - 1 for args, _ in passes) == [8, 16, 32]
    for args, _ in passes:
        grid, values = TimeGrid(1.0, len(args[1]) - 1), args[2]  # the values the pass advanced from x0
        assert args[9] is True and values[0].tolist() == [1.0] * 20 and not np.isnan(values).any()
        for p in range(20):
            pair = NoisePair(NoisePath(fine, w[:, p], "wiener"), NoisePath(fine, bh[:, p], "fbm", 0.7), "independent", 5)
            assert np.array_equal(values[:, p], euler_solve(preset("linear"), pair, 1.0, grid).values)


def test_interpolation_reproduces_the_recursion_at_coarse_nodes(harness_calls):
    _, calls = harness_calls
    solves = {len(args[1]) - 1: args[2] for args, _ in calls["_level_pass"]}
    seen = set()
    for args, out in calls["_interpolate_on_fine"]:
        coarse_t, x_coarse, stride, lo = args[1], args[2], args[6], args[7]
        assert x_coarse is solves[len(coarse_t) - 1]
        nodes = np.arange(lo, lo + out.shape[0])
        at_coarse = nodes % stride == 0
        assert np.array_equal(out[at_coarse], x_coarse[nodes[at_coarse] // stride])
        seen.update((stride, int(j)) for j in nodes[at_coarse])
    assert seen == {(s, j) for s in (16, 8, 4) for j in range(0, 129, s)}


def test_one_chunk_evaluates_each_coefficient_once_per_cell(monkeypatch):
    counts = {"a": 0, "b": 0, "c": 0}
    linear = preset("linear")

    def counted(key):
        def fn(t, x):
            counts[key] += 1
            return getattr(linear, key)(t, x)

        return fn

    solves = []
    _spy(monkeypatch, "_euler_solve_batch", solves)
    coeffs = dataclasses.replace(linear, **{key: counted(key) for key in counts})
    config = SolverConfig(alpha=ALPHA, threshold=4.0)
    mc_strong_error(coeffs, 0.7, config, [8, 16, 32], 2, 20, seed=5, eval_n=32, workers=1)
    # the fine solve's 128 cells, then n + 1 cells per level: the last holds only the last fine node
    assert counts == dict.fromkeys(counts, 128 + 9 + 17 + 33) == dict.fromkeys(counts, 187)
    assert len(solves) == 1


@pytest.mark.parametrize(
    "a, b, x0",
    [
        # x * x * x, not x**3: numpy's power of an array and of a scalar can differ in the last bit
        ("x * x * x", "1.0", 0.5),  # the fine recursion blows up first: some paths abort on the fine side only
        ("-x * x * x", "6.0", 0.0),  # explicit Euler is unstable on the coarsest grid only
    ],
    ids=["fine-blows-up-first", "coarse-unstable"],
)
def test_level_values_equal_euler_solve_on_paths_that_blow_up(monkeypatch, a, b, x0):
    passes, solves = [], []
    _spy(monkeypatch, "_level_pass", passes)
    _spy(monkeypatch, "_euler_solve_batch", solves)
    coeffs = coefficients_from_expressions("cubic", a, b, "0.3", "0.0", 1.0, 0.75)
    with np.errstate(all="ignore"):
        rep = mc_strong_error(coeffs, 0.7, SolverConfig(alpha=ALPHA), [8, 16, 32], 2, 20, seed=5, x0=x0, eval_n=32,
                              workers=1)
    fine = TimeGrid(1.0, 128)
    w, bh = _chunk_noise(Independent(), fine, 0.7, 5, 0, 20, "circulant-embedding")
    ((_, x_fine),) = solves
    fine_dead = np.isnan(x_fine[-1])
    one_side = 0
    for (args, _), level in zip(passes, rep.levels):
        grid, values = TimeGrid(1.0, len(args[1]) - 1), args[2]
        dead = np.isnan(values[-1])
        assert level.aborted == np.count_nonzero(dead | fine_dead)
        one_side += np.count_nonzero(dead != fine_dead)
        for p in range(20):
            pair = NoisePair(NoisePath(fine, w[:, p], "wiener"), NoisePath(fine, bh[:, p], "fbm", 0.7), "independent", 5)
            if not dead[p]:
                assert np.array_equal(values[:, p], euler_solve(coeffs, pair, x0, grid).values)
                continue
            with np.errstate(all="ignore"), pytest.raises(EulerBlowupError) as err:
                euler_solve(coeffs, pair, x0, grid)
            step = err.value.step
            assert np.isnan(values[step:, p]).all() and np.isfinite(values[:step, p]).all()
    assert one_side > 0 and 0 < sum(level.aborted for level in rep.levels) < 60


def test_one_tau_stops_every_level(harness_calls):
    rep, calls = harness_calls
    taus = [args[1] for args, _ in calls["_stop_batch"]]
    assert len(taus) == 1 + len(rep.levels)  # the fine solution, then each level
    assert all(np.array_equal(t, taus[0]) for t in taus)
    assert 0 < np.count_nonzero(taus[0] < 32) < 20  # some paths stop before T
    for args, _ in calls["_level_pass"]:
        assert np.array_equal(args[7], taus[0] * 4)  # tau on the fine grid


def test_report_identical_across_worker_counts(tmp_path):
    manifest = {"paths": 600, "levels": [8, 16, 32], "m_fine": 2, "seed": 3, "eval_n": 32, "threshold": 4.0}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    reports = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        args = ["converge", "--manifest", str(tmp_path / "m.json"), "--workers", str(workers), "--outdir", str(out)]
        assert main(args) in (0, 3)
        reports.append((out / "report.json").read_bytes())
    assert json.loads(reports[0])["paths"] == 600
    assert reports[0] == reports[1] == reports[2]


def test_public_localization_agrees_with_the_harness(monkeypatch):
    stops = []
    _spy(monkeypatch, "_stop_batch", stops)
    eta, threshold, paths, eval_n = 0.1, 3.75, 40, 64
    config = SolverConfig(alpha=ALPHA, eta=eta, threshold=threshold)
    rep = mc_strong_error(preset("linear"), 0.7, config, [8, 16, 32], 2, paths, seed=6, eval_n=eval_n, workers=1)
    (_, tau_eval), fine_eval = stops[0]  # the harness stops the fine solution first
    fine, eval_grid = TimeGrid(1.0, 128), TimeGrid(1.0, eval_n)
    w, bh = _chunk_noise(Independent(), fine, 0.7, 6, 0, paths, "circulant-embedding")
    assert 0.5 < rep.localization_fraction < 1.0  # most paths stop before T, not all
    for p in range(paths):
        pair = NoisePair(NoisePath(fine, w[:, p], "wiener"), NoisePath(fine, bh[:, p], "fbm", 0.7), "independent", 6)
        on_eval = NoisePair(pair.w.restrict(eval_grid), pair.bh.restrict(eval_grid), "independent", 6)
        tau = stopping_time(on_eval, eta, threshold)
        assert eval_grid.node_index(tau) == tau_eval[p]
        stopped = stop(euler_solve(preset("linear"), pair, 1.0), tau)
        assert np.array_equal(stopped.values[:: fine.n // eval_n], fine_eval[:, p])


@pytest.mark.parametrize("dependence", ["independent", "volterra"])
def test_chunk_streams_are_disjoint(monkeypatch, tmp_path, dependence):
    # the spies write to files, so the chunk that a forked child runs is seen too
    original_stream, original_noise = convergence.stream, convergence._chunk_noise

    def spy_stream(*key):
        with open(tmp_path / "keys", "a") as f:
            f.write(" ".join(map(str, key)) + "\n")
        return original_stream(*key)

    def spy_noise(*args):
        w, b = original_noise(*args)
        np.save(tmp_path / f"first-path-{args[4]}.npy", np.stack([w[:, 0], b[:, 0]]))
        return w, b

    monkeypatch.setattr(convergence, "stream", spy_stream)
    monkeypatch.setattr(convergence, "_chunk_noise", spy_noise)
    config = SolverConfig(alpha=ALPHA)
    mc_strong_error(preset("linear"), 0.7, config, [4, 8, 16], 1, 600, seed=9, dependence=dependence, eval_n=32, workers=2)
    first = {int(p.stem.rsplit("-", 1)[1]): np.load(p) for p in tmp_path.glob("first-path-*.npy")}
    chunks = sorted(first)
    assert chunks == [0, 1, 2]
    keys = [tuple(map(int, line.split())) for line in (tmp_path / "keys").read_text().splitlines()]
    roles = {0, 1} if dependence == "independent" else {0}
    assert sorted(keys) == sorted((9, role, ci) for role in roles for ci in chunks)
    w_first, b_first = ([first[ci][i] for ci in chunks] for i in (0, 1))
    for rows in (w_first, b_first):
        assert all(not np.array_equal(a, b) for i, a in enumerate(rows) for b in rows[i + 1 :])
