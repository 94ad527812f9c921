"""The batched kernels read node-major storage through views and never
write into their input: on read-only noise, strided views and contiguous
copies give the same bits, and a harness run on read-only chunk noise
gives the same report."""

import numpy as np

import mixedsde.convergence as convergence
from mixedsde import SolverConfig, mc_strong_error, preset
from mixedsde.convergence import _error_norms, _first_crossing, _level_pass, _stop_batch
from mixedsde.euler import _euler_solve_batch, _interpolate_on_fine
from mixedsde.fbm import _holder_cumulative_batch
from mixedsde.fraccalc import _increment_bracket_batch, _norm2_weight_cells

PATHS = 5


def _read_only(a):
    a.flags.writeable = False
    return a


def _read_only_noise(n, seed):
    rng = np.random.default_rng(seed)
    w, bh = (_read_only(np.cumsum(rng.normal(size=(n + 1, PATHS)) / np.sqrt(n), axis=0)) for _ in range(2))
    return w, bh


def _kernel_calls(w, bh):
    """Each batched kernel on node-major noise w, bh (n+1, paths), with the
    Euler values it passes on made read-only too."""
    coeffs = preset("bounded-smooth")
    n = w.shape[0] - 1
    t = np.linspace(0.0, 1.0, n + 1)
    x_f = _euler_solve_batch(coeffs, t, w, bh, 1.0)
    x_c = _euler_solve_batch(coeffs, t[::4], w[::4], bh[::4], 1.0)
    x_f, x_c = _read_only(x_f), _read_only(x_c)
    tau = _read_only(np.arange(PATHS) * 3)
    cells = _norm2_weight_cells(n, 1 / n, 0.35)
    advanced, level_x = np.full((n // 4 + 1, PATHS), np.nan), np.full((n // 4 + 1, PATHS), 1.0)
    advanced[0] = 1.0
    level = _level_pass(coeffs, t[::4], level_x, t, w, bh, x_f, tau, 2, True)
    assert np.array_equal(level_x, x_c)  # advancing, the pass runs the coarse recursion itself
    return {
        "_euler_solve_batch": (x_f, x_c),
        "_interpolate_on_fine": (
            _interpolate_on_fine(coeffs, t[::4], x_c, t, w, bh, 4, 0, n + 1, np.empty(w.shape)),
            _interpolate_on_fine(coeffs, t[::4], advanced, t, w, bh, 4, 0, n + 1, np.empty(w.shape), True),
            advanced,
        ),
        "_level_pass": (*level, level_x, *_level_pass(coeffs, t[::4], x_c, t, w, bh, x_f, tau, 2)),
        "_stop_batch": (_stop_batch(w, tau),),
        "_first_crossing": (_first_crossing(bh, 0.2),),
        "_error_norms": _error_norms(w, bh, 1 / n, 0.35, cells),
        "_increment_bracket_batch": (_increment_bracket_batch(w, 1 / n, 0.35),),
        "_holder_cumulative_batch": (_holder_cumulative_batch(bh, 1 / n, 0.1, 14.0),),
    }


def test_kernels_read_strided_read_only_views_without_copies():
    w, bh = _read_only_noise(64, 12)
    kept = w.copy(), bh.copy()
    on_views = _kernel_calls(w[::4], bh[::4])
    on_copies = _kernel_calls(np.ascontiguousarray(w[::4]), np.ascontiguousarray(bh[::4]))
    _kernel_calls(w, bh)  # the full read-only storage
    assert on_views.keys() == on_copies.keys()
    for name, results in on_views.items():
        for got, want in zip(results, on_copies[name], strict=True):
            assert np.array_equal(got, want, equal_nan=True), name
    assert np.array_equal(w, kept[0]) and np.array_equal(bh, kept[1])


def test_harness_on_read_only_chunk_noise_gives_the_same_report(monkeypatch):
    config = SolverConfig(alpha=0.35, threshold=4.0)

    def report():
        return mc_strong_error(preset("linear"), 0.7, config, [8, 16, 32], 2, 300, seed=5, eval_n=32, workers=1).to_json()

    want = report()
    original, chunks = convergence._chunk_noise, []

    def read_only_noise(*args):
        chunks.append(args[4])
        return tuple(_read_only(v) for v in original(*args))

    monkeypatch.setattr(convergence, "_chunk_noise", read_only_noise)
    assert report() == want
    assert sorted(chunks) == [0, 1]
