"""Localization by the stopping time tau_N and a Monte Carlo harness for
strong errors between nested dyadic Euler solutions, in the sup norm and
the weighted 2-norm, with a log-log fit of the convergence rate.

The public `stopping_time`, `stop` and `pathwise_error` are one-row calls
of the harness's own crossing rule, freeze and per-level pass.

Coupling: noise is generated once per path on the finest grid; every
coarse solution subsamples it. tau_N is computed once per path from the
noise (it does not depend on the level) and the same tau stops every
level. The Holder functionals and both norms are quadratured on a fixed
dyadic evaluation subgrid (default 256 cells) for runtime; sup errors use
every fine node up to tau, in one blocked pass per level. Every batched
kernel takes and returns node-major arrays: (n+1, paths), nodes first.

tau_N is screened by a certified upper bound on K at the last node
(fbm._holder_bound, O(n log n) per path, 1.07 to 1.86 times the exact K
at eta 0.1): a path whose bound sum stays below N has tau_N = T, and the
exact O(n^2) double sum runs only on the other paths, with the same tau.
At N = 50 it cleared every path of the benchmark runs; at low N, where
few paths clear, the screen adds about 2 ms per 256-path chunk at eval_n
256 to the exact sums' 48 ms (2 vCPUs).
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, field
from functools import partial

import numpy as np

from . import __version__ as _version
from .coefficients import CoefficientSet, kappa
from .euler import _BLOCK_NODES, EulerSolution, _euler_solve_batch, _interpolate_on_fine
from .fbm import (
    _ROW_GROUP, JointGaussian, NoisePair, VolterraFromWiener, _check_method, _fbm_values_batch,
    _holder_bound, _holder_cumulative_batch, _holder_exponents, _resolve_dependence, _volterra_fbm, _volterra_weights,
    _wiener_values_batch, validate_hurst,
)
from .fraccalc import (
    _increment_bracket_batch, _norm_2_sq, _norm2_weight_cells, _pair_n, _validate_norm2_order, norms_comparison_constant
)
from .grid import TimeGrid, _integer, _node_values, _real, _write_csv
from .rng import stream

__all__ = [
    "SolverConfig", "StoppedSolution", "stopping_time", "stop", "LevelStats", "ErrorReport", "pathwise_error",
    "mc_strong_error", "fit_rate",
]

DEFAULT_R = 1000.0
_CHUNK = 256  # fixed path chunk; results never depend on worker count
# larger eval_n is refused: kernels of O(paths * eval_n^2) time, so below the one-path fraccalc._PAIR_N_MAX
_EVAL_N_MAX = 4096
# larger fine n is refused: a 256-path chunk holds W, B^H and the fine
# solution (8 B per fine node and path each), and with either noise kind it
# peaks at 31.5 B per fine node and path at fine n 2048, 27.75 B at 4096 and
# 25.1 B at 2^16 (tracemalloc; below 2048 the eval_n-sized arrays weigh more
# per node): at most 0.42 GB in each worker at 2^16
_FINE_N_MAX = 1 << 16
# more paths are refused: the result rows take 26 B per path and level, 1.6 GB
# at 2^22 paths and the most levels (15), and 2^22 paths take over an hour
_PATHS_MAX = 1 << 22
# more workers are refused: each one holds a chunk, 0.42 GB at fine n 2^16
_WORKERS_MAX = 64


@dataclass(frozen=True)
class LevelStats:
    n: int
    delta: float
    err2_norm2: float
    err2_sup: float
    se_norm2: float
    se_sup: float
    retained: int
    discarded: int
    aborted: int
    mean_norm_inf_sq: float  # E ||X^{delta,N}||^2_{inf,alpha}, the moment monitor
    restricted_fraction: float  # fraction of paths inside B^R


@dataclass(frozen=True)
class ErrorReport:
    """Per-level strong errors with the fitted rate and localization stats."""

    coefficients: str
    h: float
    t_horizon: float
    x0: float
    seed: int
    paths: int
    levels: list
    fine_n: int
    eval_n: int
    r_bound: float
    alpha: float
    eta: float
    threshold: float
    epsilon: float
    kappa: float
    rate_floor: float
    localization_fraction: float
    dependence: str
    method: str
    fit_norm2: tuple | None  # (slope, slope stderr, intercept) of log err2 vs log delta
    fit_sup: tuple | None
    degenerate: bool
    version: str = field(default=_version)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def write_csv(self, file) -> None:
        rows = [
            (l.n, l.delta, l.err2_norm2, l.err2_sup, l.se_norm2, l.se_sup, l.discarded, l.aborted) for l in self.levels
        ]
        _write_csv(file, "level_n,delta,err2_norm2,err2_sup,se_norm2,se_sup,discarded,aborted", *zip(*rows))

    def write_loglog_csv(self, file) -> None:
        def log10(v: float) -> float:
            return math.log10(v) if v > 0 else math.nan

        rows = [(l.n, log10(l.delta), log10(l.err2_norm2), log10(l.err2_sup)) for l in self.levels]
        _write_csv(file, "level_n,log10_delta,log10_err2_norm2,log10_err2_sup", *zip(*rows))

    def fit_passes(self, fit: tuple | None) -> bool:
        """The verdict on one fit: its rate, slope / 2, reaches rate_floor; a missing fit fails."""
        return fit is not None and fit[0] / 2.0 >= self.rate_floor

    def passes_rate_floor(self) -> bool:
        return self.degenerate or (self.fit_passes(self.fit_norm2) and self.fit_passes(self.fit_sup))


def _fit_from_levels(levels: list, functional: str) -> tuple[float, float, float]:
    """Slope, slope standard error, and intercept of log err2 on log delta over the usable levels."""
    if functional not in ("norm2", "sup"):
        raise ValueError("functional must be 'norm2' or 'sup'")
    pick = [
        (l.delta, l.err2_norm2 if functional == "norm2" else l.err2_sup)
        for l in levels
        if l.retained > 0
    ]
    pick = [(d, e) for d, e in pick if e > 0.0]
    if len(pick) < 3:
        raise ValueError("fewer than 3 usable levels; cannot fit a rate")
    x = np.array([math.log(d) for d, _ in pick])
    y = np.array([math.log(e) for _, e in pick])
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("cannot fit a rate from a single distinct level")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    se = math.sqrt(float(np.sum(resid**2)) / max(x.size - 2, 1) / sxx)
    return slope, se, intercept


def fit_rate(report: ErrorReport, functional: str = "norm2") -> tuple[float, float]:
    """OLS slope of log squared error against log delta, with its standard
    error; slope/2 estimates the per-norm rate. Zero-error levels are
    excluded; at least 3 levels must remain."""
    slope, se, _ = _fit_from_levels(report.levels, functional)
    return slope, se


# ---------------------------------------------------------------------------
# localization (public, one-row calls of the harness rules)


def _check_threshold(threshold: float) -> None:
    """The localization threshold N is a positive number."""
    if not _real("threshold", threshold) > 0.0:
        raise ValueError(f"localization threshold must be positive, got {threshold}")


@dataclass(frozen=True)
class SolverConfig:
    """Localization and norm parameters: alpha for the norms, eta for the
    Holder functionals, threshold N for tau_N, epsilon the rate slack."""

    alpha: float
    eta: float = 0.1
    threshold: float = 50.0
    epsilon: float = 0.05

    def __post_init__(self):
        _validate_norm2_order(self.alpha)
        _holder_exponents("wiener", self.eta, None)  # refuses an eta outside the Wiener functional's window
        _check_threshold(self.threshold)
        if not _real("epsilon", self.epsilon) > 0.0:
            raise ValueError("rate slack epsilon must be positive")
        for name in ("alpha", "eta", "threshold", "epsilon"):  # stored as the floats grid._real returns
            object.__setattr__(self, name, _real(name, getattr(self, name)))

    def validate(self, h: float, beta: float) -> float:
        """Check the admissible windows against the model's H and beta;
        returns the rate floor kappa - alpha - epsilon."""
        kap = kappa(beta)
        if not (1.0 - h < self.alpha < kap):
            raise ValueError(f"alpha={self.alpha} outside (1-H, kappa) = ({1.0 - h:.3f}, {kap:.3f})")
        gap = kap - self.alpha
        for name in ("eta", "epsilon"):
            if not getattr(self, name) < gap:
                raise ValueError(f"{name}={getattr(self, name)} must be below kappa - alpha = {gap:.3f}")
        return gap - self.epsilon


def _first_crossing(k_cum: np.ndarray, threshold: float) -> np.ndarray:
    """Per path of k_cum (n+1, ...), the first node where K >= threshold, else the last node."""
    crossed = k_cum >= threshold
    return np.where(crossed.any(axis=0), crossed.argmax(axis=0), k_cum.shape[0] - 1)


def _stop_batch(values: np.ndarray, tau_idx: np.ndarray) -> np.ndarray:
    """Freeze each path of values (n+1, paths) after its own node index."""
    frozen = values[tau_idx, np.arange(values.shape[1])]
    return np.where(np.arange(values.shape[0])[:, None] > tau_idx, frozen, values)


def _holder_parts(w: np.ndarray, bh: np.ndarray, eta: float, h: float, kind: str) -> list[tuple[np.ndarray, float]]:
    """(values, GRR exponent q) of each path K^eta sums: W (kind wiener),
    fBm B^H with Hurst index h (fbm) or both (sum)."""
    parts = {"wiener": ((w, "wiener"),), "fbm": ((bh, "fbm"),), "sum": ((w, "wiener"), (bh, "fbm"))}.get(kind)
    if parts is None:
        raise ValueError(f"unknown functional kind {kind!r}")
    return [(v, _holder_exponents(path_kind, eta, h)) for v, path_kind in parts]


def _pair_holder_cumulative(
    w: np.ndarray, bh: np.ndarray, delta: float, eta: float, h: float, kind: str = "sum"
) -> np.ndarray:
    """Cumulative K^eta at every node of node-major (n+1, ...) noise: K^W
    (kind wiener), K^B of fBm with Hurst index h (fbm) or their sum (sum)."""
    k = [_holder_cumulative_batch(v, delta, eta, q) for v, q in _holder_parts(w, bh, eta, h, kind)]
    return k[0] if len(k) == 1 else k[0] + k[1]


def _crossing(
    w: np.ndarray, bh: np.ndarray, delta: float, eta: float, h: float, threshold: float, kind: str = "sum"
) -> tuple[np.ndarray, np.ndarray]:
    """Per path of node-major (n+1, paths) noise, the first node where K^eta
    (_pair_holder_cumulative's kind) reaches threshold, else n, and whether
    K reaches it at all.

    A path whose _holder_bound sum stays below threshold cannot reach it;
    the 1e-9 margin covers the rounding of the two sums, and a nan bound
    leaves the path open. The exact O(n^2) sum runs on the open paths only:
    a path's K is its own column's, so its node does not depend on which
    other paths are open.
    """
    n = _pair_n(w.shape[0] - 1)
    parts = _holder_parts(w, bh, eta, h, kind)
    bound = sum(_holder_bound(v, delta, eta, q) for v, q in parts)
    is_open = ~(bound < threshold * (1.0 - 1e-9))
    tau, crossed = np.full(w.shape[1], n), np.zeros(w.shape[1], dtype=bool)
    if is_open.any():
        k_cum = _pair_holder_cumulative(w[:, is_open], bh[:, is_open], delta, eta, h, kind)
        tau[is_open] = _first_crossing(k_cum, threshold)
        crossed[is_open] = k_cum[-1] >= threshold
    return tau, crossed


def stopping_time(noise: NoisePair, eta: float, threshold: float, kind: str = "sum") -> float:
    """First grid node where the cumulative Holder functional reaches the
    threshold N, else the horizon. kind selects K^W, K^B or their sum."""
    _check_threshold(threshold)
    (k,), (crossed,) = _crossing(
        noise.w.values[:, None], noise.bh.values[:, None], noise.grid.delta, eta, noise.bh.hurst, threshold, kind
    )
    # no crossing gives T itself: nodes[n] = n*T/n can differ from T in the last bit
    return float(noise.grid.nodes[k] if crossed else noise.grid.horizon)


@dataclass(frozen=True)
class StoppedSolution:
    """X^{delta,N}: the solution frozen at the last node <= tau."""

    base: EulerSolution
    tau: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values("values", self.values, self.base.grid.n + 1))

    @property
    def grid(self) -> TimeGrid:
        return self.base.grid


def stop(sol: EulerSolution, tau: float) -> StoppedSolution:
    tau = _real("tau", tau)
    k = sol.grid.floor_index(tau)
    return StoppedSolution(base=sol, tau=tau, values=_stop_batch(sol.values[:, None], np.array([k]))[:, 0])


# ---------------------------------------------------------------------------
# pathwise error (public, full-resolution by default)


def pathwise_error(
    coarse: StoppedSolution,
    fine: StoppedSolution,
    alpha: float,
    norm_grid_n: int | None = None,
) -> tuple[float, float]:
    """(sup over fine nodes, ||.||_{2,alpha}) of X^{delta,N} - X^{mu,N}.

    Both solutions must be driven by the same noise pair, share tau, and
    the fine grid must refine the coarse one. The coarse solution's values
    are evaluated at fine nodes through their continuous interpolation.
    """
    alpha = _validate_norm2_order(alpha)
    csol, fsol = coarse.base, fine.base
    if csol.noise is not fsol.noise:
        raise ValueError("solutions are not driven by the same noise (coupling violated)")
    if coarse.tau != fine.tau:
        raise ValueError("stopped solutions must share one stopping time")
    fine_grid = fsol.grid
    csol.grid.refinement_stride(fine_grid)  # raises unless the fine grid refines the coarse one
    if norm_grid_n is None:
        norm_n = _pair_n(fine_grid.n)
    else:
        norm_n = _pair_n(_integer("norm_grid_n", norm_grid_n, low=1), "norm_grid_n")
    if fine_grid.n % norm_n:
        raise ValueError(f"norm_grid_n must be a positive divisor of the fine grid size, got {norm_n}")
    noise_stride = fine_grid.refinement_stride(csol.noise.grid)
    w, bh = (p.values[::noise_stride, None] for p in (csol.noise.w, csol.noise.bh))
    tau_idx = np.array([fine_grid.node_index(coarse.tau)])
    # every fine node is an eval node here: tau need not lie on the norm grid
    sup2, interp = _level_pass(
        csol.coeffs, csol.grid.nodes, csol.values[:, None], fine_grid.nodes, w, bh, fsol.values[:, None], tau_idx, 1
    )
    norm_stride = fine_grid.n // norm_n
    coarse_eval = _stop_batch(interp, tau_idx)[::norm_stride]
    fine_eval = _stop_batch(fsol.values[:, None], tau_idx)[::norm_stride]
    delta_n = fine_grid.horizon / norm_n
    cells = _norm2_weight_cells(norm_n, delta_n, alpha)
    norm2sq, _ = _error_norms(coarse_eval, fine_eval, delta_n, alpha, cells)
    return math.sqrt(sup2[0]), math.sqrt(norm2sq[0])


def _level_pass(
    coeffs: CoefficientSet, coarse_t: np.ndarray, x_coarse: np.ndarray, fine_t: np.ndarray, w: np.ndarray,
    bh: np.ndarray, x_fine: np.ndarray, tau_fine: np.ndarray, eval_stride: int, advance: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One blocked pass over the fine nodes of one level.

    x_coarse is (n+1, paths); w, bh and x_fine are (fine_n+1, paths), and
    the fine grid must refine coarse_t at any integer stride. With advance,
    x_coarse[0] holds x0 and the pass writes the coarse Euler values into
    the rest of x_coarse as it goes (nan from a path's abort step on, so a
    path aborted iff its last value is nan); else it interpolates the
    values given. _interpolate_on_fine writes _BLOCK_NODES fine nodes at a
    time (the last block also takes node fine_n) into one reused buffer; a
    cell cut by a block edge evaluates its coefficients in both blocks. Per
    path the pass gives the squared sup error over every fine node up to
    tau_fine, and the coarse interpolation (not stopped) at every
    eval_stride-th fine node as (eval_n+1, paths). Both stopped solutions
    are frozen after tau, so later nodes cannot raise the sup: they are
    zeroed (node 0's error is exactly 0), while a nan up to tau still
    propagates.
    """
    nf = fine_t.size - 1
    stride = nf // (coarse_t.size - 1)
    paths = x_fine.shape[1]
    buf = np.empty((_BLOCK_NODES + 1, paths))
    sup2 = np.zeros(paths)
    coarse_eval = np.empty((nf // eval_stride + 1, paths))
    first_stop = int(tau_fine.min())
    for lo in range(0, nf, _BLOCK_NODES):
        hi = lo + _BLOCK_NODES if lo + _BLOCK_NODES < nf else nf + 1  # the last block takes node nf
        d = buf[: hi - lo]
        _interpolate_on_fine(coeffs, coarse_t, x_coarse, fine_t, w, bh, stride, lo, hi, d, advance)
        first = -lo % eval_stride
        coarse_eval[(lo + first) // eval_stride : (hi - 1) // eval_stride + 1] = d[first::eval_stride]
        with np.errstate(invalid="ignore"):
            d -= x_fine[lo:hi]
            d *= d
            if first_stop < hi - 1:
                d[np.arange(lo, hi)[:, None] > tau_fine] = 0.0
            np.maximum(sup2, d.max(axis=0), out=sup2)
    return sup2, coarse_eval


def _value_bracket(values: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """|f| + the increment bracket at every node of node-major (n+1, ...)
    values: the integrand of ||f||_{inf,alpha} (its max) and ||f||_{2,alpha}."""
    return np.abs(values) + _increment_bracket_batch(values, delta, alpha)


def _error_norms(
    coarse_eval: np.ndarray,
    fine_eval: np.ndarray,
    delta_eval: float,
    alpha: float,
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """||.||^2_{2,alpha} and ||.||^2_{inf,alpha} per path of the error
    between two stopped (eval_n+1, paths) solutions (cells: the 2-norm cell
    weights). Paths holding nan (aborted paths) give nan."""
    with np.errstate(invalid="ignore"):
        br = _value_bracket(coarse_eval - fine_eval, delta_eval, alpha)
        return _norm_2_sq(br, cells), np.max(br, axis=0) ** 2


# ---------------------------------------------------------------------------
# Monte Carlo harness


def _chunk_noise(
    dep, grid: TimeGrid, h: float, seed: int, chunk_idx: int, size: int, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """(W, B^H) values for one chunk of paths, node-major (n+1, size) each.
    Independent B^H is drawn first, path-major (the stream order) and
    transposed, so its spectrum is gone before W exists. W is drawn
    _ROW_GROUP path-major rows at a time from the chunk's one stream (the
    rows of one full draw) and written node-major; Volterra B^H convolves
    each group's increments into its node-major columns."""
    volterra = isinstance(dep, VolterraFromWiener)
    if volterra:
        b = np.zeros((grid.n + 1, size))
        weights = _volterra_weights(grid.n, grid.horizon, h)
    else:
        b = np.ascontiguousarray(_fbm_values_batch(grid, h, stream(seed, 1, chunk_idx), size, method).T)
    w = np.empty((grid.n + 1, size))
    rng = stream(seed, 0, chunk_idx)
    for lo in range(0, size, _ROW_GROUP):
        rows = slice(lo, min(lo + _ROW_GROUP, size))
        group = _wiener_values_batch(grid, rng, rows.stop - rows.start)
        w[:, rows] = group.T
        if volterra:
            _volterra_fbm(weights, np.diff(group, axis=1), out=b[1:, rows].T)
    return w, b


def _run_chunk(
    coeffs: CoefficientSet, h: float, config: SolverConfig, levels: list[int], fine: TimeGrid, eval_n: int,
    paths: int, r_bound: float, x0: float, seed: int, dep, method: str, ci: int,
) -> tuple[np.ndarray, ...]:
    """The rows of chunk ci of a validated mc_strong_error run: sup2,
    norm2sq, ninf_sq, in_b and aborted as (levels, size), and tau_N < T as
    (size,), for its paths ci * _CHUNK up to the next chunk or `paths`."""
    lo = ci * _CHUNK
    size = min(lo + _CHUNK, paths) - lo
    eval_stride = fine.n // eval_n
    delta_eval = fine.horizon / eval_n
    alpha = config.alpha
    comparison_sq = norms_comparison_constant(alpha, 0.0, fine.horizon) ** 2
    eval_cells = _norm2_weight_cells(eval_n, delta_eval, float(alpha))
    w, bh = _chunk_noise(dep, fine, h, seed, ci, size, method)
    x_fine = _euler_solve_batch(coeffs, fine.nodes, w, bh, x0)
    tau_eval, _ = _crossing(w[::eval_stride], bh[::eval_stride], delta_eval, config.eta, h, config.threshold)
    tau_fine = tau_eval * eval_stride
    fs_eval = _stop_batch(x_fine[::eval_stride], tau_eval)
    ninf_fine = np.max(_value_bracket(fs_eval, delta_eval, alpha), axis=0)
    rows = []  # per level: sup2, norm2sq, ninf_sq, in_b, aborted
    for n in levels:
        stride = fine.n // n
        x_coarse = np.full((n + 1, size), x0)  # the pass runs the recursion from x0 in it
        sup2, c_eval = _level_pass(
            coeffs, fine.nodes[::stride], x_coarse, fine.nodes, w, bh, x_fine, tau_fine, eval_stride, True
        )
        cs_eval = _stop_batch(c_eval, tau_eval)
        bad = np.isnan(x_fine[-1]) | np.isnan(x_coarse[-1])
        n2, ninf_d_sq = _error_norms(cs_eval, fs_eval, delta_eval, alpha, eval_cells)
        with np.errstate(invalid="ignore"):
            violated = ~bad & (n2 > comparison_sq * ninf_d_sq * (1.0 + 1e-9) + 1e-300)
            if np.any(violated):
                p = int(violated.argmax())
                with np.errstate(divide="ignore"):
                    ratio = np.sqrt(n2[p] / (comparison_sq * ninf_d_sq[p]))
                raise AssertionError(
                    f"norm comparison ||f||_2 <= C ||f||_inf violated in chunk {ci}, level n={n}, "
                    f"path {lo + p}: ||f||_2 / (C ||f||_inf) = {ratio:.6g}"
                )
            ninf_coarse = np.max(_value_bracket(cs_eval, delta_eval, alpha), axis=0)
            rows.append((sup2, n2, ninf_coarse**2, (ninf_coarse + ninf_fine) <= r_bound, bad))
    return (*(np.array(level_rows) for level_rows in zip(*rows)), tau_eval < eval_n)


def _mean_se(rows: np.ndarray) -> tuple[float, float]:
    """Mean and Monte Carlo standard error of 1-d rows: nan for none, an error of 0 for one."""
    if not rows.size:
        return float("nan"), float("nan")
    se = float(np.std(rows, ddof=1) / math.sqrt(rows.size)) if rows.size > 1 else 0.0
    return float(np.sum(rows) / rows.size), se


def _checked_run(
    coeffs: CoefficientSet, h, config: SolverConfig, levels, m_fine, paths, r_bound, *, t_horizon, x0, seed, dependence,
    method, eval_n, workers,
) -> tuple:
    """mc_strong_error's arguments after each of its checks, none of which
    draws noise: (h, rate floor, sorted levels, seed, paths, fine grid,
    eval_n, r_bound, x0, workers, dependence); the converge CLI runs it
    before the hypothesis gate, so a refused setting costs no gate."""
    h = validate_hurst(h)
    coeffs.validate_for_hurst(h)
    rate_floor = config.validate(h, coeffs.beta)
    levels = sorted(_integer("levels entry", n, low=2) for n in levels)
    if not levels:
        raise ValueError("levels must name at least one coarse level")
    m_fine, seed = _integer("m_fine", m_fine, low=1), _integer("seed", seed, low=0)  # stream's rule, before any thread
    paths = _integer("paths", paths, low=1, high=_PATHS_MAX, why="the result rows take 26 B per path and level")
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be distinct")
    if m_fine > 16 or max(levels) << m_fine > _FINE_N_MAX:  # m_fine first: no huge shift
        raise ValueError(
            f"fine n = {max(levels)} * 2^{m_fine} exceeds {_FINE_N_MAX}: one chunk takes 31.5 B per fine node and "
            f"path at fine n 2048 and less above it, at most 0.42 GB per worker at {_FINE_N_MAX}"
        )
    fine_n = max(levels) << m_fine
    for n in levels:
        ratio = fine_n // n
        if fine_n % n or (ratio & (ratio - 1)):
            raise ValueError(f"level n={n} is not a dyadic coarsening of fine n={fine_n}")
    eval_n = min(_integer("eval_n", eval_n, low=1), fine_n)  # capped at fine n before its own cap
    eval_n = _integer("eval_n", eval_n, high=_EVAL_N_MAX, why="the bracket and Holder kernels cost O(paths * eval_n^2)")
    if fine_n % eval_n or (fine_n // eval_n) & (fine_n // eval_n - 1):
        raise ValueError(f"eval_n={eval_n} must be a dyadic divisor of fine n={fine_n}")
    r_bound, x0 = _real("r_bound", r_bound), _real("x0", x0, finite=True)
    if not r_bound > 0.0:
        raise ValueError(f"r_bound must be positive (inf for no restriction), got {r_bound}")
    if workers is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(cpus, _WORKERS_MAX)
    workers = _integer("workers", workers, low=1, high=_WORKERS_MAX, why="each worker holds a chunk, up to 0.42 GB")

    fine = TimeGrid(_real("t_horizon", t_horizon), fine_n)
    dep = _resolve_dependence(dependence)
    if isinstance(dep, JointGaussian):
        raise ValueError("mc_strong_error has no joint-gaussian sampler; use independent or volterra")
    _check_method(method)
    return h, rate_floor, levels, seed, paths, fine, eval_n, r_bound, x0, workers, dep


def mc_strong_error(
    coeffs: CoefficientSet,
    h: float,
    config: SolverConfig,
    levels: list[int],
    m_fine: int,
    paths: int,
    r_bound: float = DEFAULT_R,
    *,
    t_horizon: float = 1.0,
    x0: float = 1.0,
    seed: int = 0,
    dependence="independent",
    method: str = "circulant-embedding",
    eval_n: int = 256,
    workers: int | None = None,
) -> ErrorReport:
    """Strong errors E||X^{delta,N} - X^{mu,N}||^2 on the event B^R for each
    coarse level against the common fine solution, with MC standard errors,
    localization and restriction statistics, and fitted rates.

    The fine grid has max(levels) * 2^m_fine cells, at most 2^16. Paths
    outside B^R are reported as discarded instead of entering the
    restricted means; paths whose state explodes are aborted and counted
    separately. paths is at most 2^22. workers, at most 64 (default: the
    CPUs this process may run on, at most 64), is capped at one per chunk;
    one worker runs the chunks on the calling thread, with no pool.
    """
    h, rate_floor, levels, seed, paths, fine, eval_n, r_bound, x0, workers, dep = _checked_run(
        coeffs, h, config, levels, m_fine, paths, r_bound, t_horizon=t_horizon, x0=x0, seed=seed,
        dependence=dependence, method=method, eval_n=eval_n, workers=workers,
    )

    run = partial(_run_chunk, coeffs, h, config, levels, fine, eval_n, paths, r_bound, x0, seed, dep, method)
    chunks = range((paths + _CHUNK - 1) // _CHUNK)
    workers = min(workers, len(chunks))
    if workers == 1:
        results = list(map(run, chunks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    sup2, norm2sq, ninf_sq, in_b, aborted, tau_lt_t = (np.concatenate(rows, axis=-1) for rows in zip(*results))

    level_stats = []
    for li, n in enumerate(levels):
        keep = ~aborted[li] & in_b[li]
        retained = int(keep.sum())
        discarded = int((~aborted[li] & ~in_b[li]).sum())
        n_aborted = int(aborted[li].sum())
        (e_n2, se_n2), (e_sup, se_sup), (m_inf, _) = (_mean_se(v[li][keep]) for v in (norm2sq, sup2, ninf_sq))
        level_stats.append(
            LevelStats(
                n=n,
                delta=fine.horizon / n,
                err2_norm2=e_n2,
                err2_sup=e_sup,
                se_norm2=se_n2,
                se_sup=se_sup,
                retained=retained,
                discarded=discarded,
                aborted=n_aborted,
                mean_norm_inf_sq=m_inf,
                restricted_fraction=retained / max(retained + discarded, 1),
            )
        )
    fits = {}
    for functional in ("norm2", "sup"):
        try:
            fits[functional] = _fit_from_levels(level_stats, functional)
        except ValueError:
            fits[functional] = None
    return ErrorReport(
        coefficients=coeffs.name,
        h=h,
        t_horizon=fine.horizon,
        x0=x0,
        seed=seed,
        paths=paths,
        levels=level_stats,
        fine_n=fine.n,
        eval_n=eval_n,
        r_bound=r_bound,
        alpha=config.alpha,
        eta=config.eta,
        threshold=config.threshold,
        epsilon=config.epsilon,
        kappa=coeffs.kappa,
        rate_floor=rate_floor,
        localization_fraction=float(np.mean(tau_lt_t)),
        dependence=dep.name,
        method=method,
        fit_norm2=fits["norm2"],
        fit_sup=fits["sup"],
        degenerate=all(l.err2_norm2 == 0.0 and l.err2_sup == 0.0 for l in level_stats),
        version=_version,
    )
