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
from .coefficients import CoefficientSet
from .euler import EulerSolution, SolverConfig, _euler_solve_batch, _interpolate_on_fine
from .fbm import (
    JointGaussian,
    NoisePair,
    VolterraFromWiener,
    _fbm_values_batch,
    _holder_cumulative_batch,
    _holder_exponents,
    _resolve_dependence,
    _volterra_fbm,
    _volterra_weights,
    _wiener_values_batch,
    pair_holder_cumulative,
    validate_hurst,
)
from .fraccalc import _increment_bracket_batch, _norm_2_sq, _norm2_weight_cells, norms_comparison_constant
from .grid import TimeGrid
from .rng import stream

__all__ = [
    "StoppedSolution", "stopping_time", "stop", "LevelStats", "ErrorReport", "pathwise_error", "mc_strong_error", "fit_rate"
]

DEFAULT_R = 1000.0
_CHUNK = 256  # fixed path chunk; results never depend on worker count
# larger eval_n is refused: the bracket and Holder kernels cost O(paths * eval_n^2)
_EVAL_N_MAX = 4096
# fine nodes per block of the per-level pass (at most, plus the last node)
_BLOCK_NODES = 256
# larger fine n is refused: a chunk peaks at 40 B per fine node and path with
# independent noise (its circulant draw) and at 35.5 B at fine n 2048, 29 B
# from 8192 on, with Volterra noise (its 16-path FFT groups; at small fine n
# the per-level passes): at most 0.67 GB in each worker at 2^16
_FINE_N_MAX = 1 << 16
# more paths are refused: the result rows take 26 B per path and level, 1.6 GB
# at 2^22 paths and the most levels (15), and 2^22 paths take over an hour
_PATHS_MAX = 1 << 22


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
        payload = asdict(self)
        payload["levels"] = [asdict(l) for l in self.levels]
        return json.dumps(payload, sort_keys=True, indent=2)

    def write_csv(self, file) -> None:
        file.write("level_n,delta,err2_norm2,err2_sup,se_norm2,se_sup,discarded,aborted\n")
        for l in self.levels:
            file.write(
                f"{l.n},{l.delta:.17g},{l.err2_norm2:.17g},{l.err2_sup:.17g},"
                f"{l.se_norm2:.17g},{l.se_sup:.17g},{l.discarded},{l.aborted}\n"
            )

    def write_loglog_csv(self, file) -> None:
        file.write("level_n,log10_delta,log10_err2_norm2,log10_err2_sup\n")
        for l in self.levels:
            ln2 = math.log10(l.err2_norm2) if l.err2_norm2 > 0 else float("nan")
            lsup = math.log10(l.err2_sup) if l.err2_sup > 0 else float("nan")
            file.write(f"{l.n},{math.log10(l.delta):.17g},{ln2:.17g},{lsup:.17g}\n")

    def passes_rate_floor(self) -> bool:
        if self.degenerate:
            return True
        if self.fit_norm2 is None or self.fit_sup is None:
            return False
        return (
            self.fit_norm2[0] / 2.0 >= self.rate_floor
            and self.fit_sup[0] / 2.0 >= self.rate_floor
        )


def _ols_loglog(deltas: np.ndarray, err2: np.ndarray) -> tuple[float, float, float]:
    """Slope, slope standard error, and intercept of log err2 on log delta."""
    x = np.log(deltas)
    y = np.log(err2)
    m = x.size
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("cannot fit a rate from a single distinct level")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    se = math.sqrt(float(np.sum(resid**2)) / max(m - 2, 1) / sxx)
    return slope, se, intercept


def _fit_from_levels(levels: list, functional: str) -> tuple[float, float, float]:
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
    deltas = np.array([d for d, _ in pick])
    err2 = np.array([e for _, e in pick])
    return _ols_loglog(deltas, err2)


def fit_rate(report: ErrorReport, functional: str = "norm2") -> tuple[float, float]:
    """OLS slope of log squared error against log delta, with its standard
    error; slope/2 estimates the per-norm rate. Zero-error levels are
    excluded; at least 3 levels must remain."""
    slope, se, _ = _fit_from_levels(report.levels, functional)
    return slope, se


def _integer(name: str, value) -> int:
    """value as an int; all but Python and numpy integers (bool, 64.0, "20") raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# localization (public, one-row calls of the harness rules)


def _first_crossing(k_cum: np.ndarray, threshold: float) -> np.ndarray:
    """Per path of k_cum (n+1, ...), the first node where K >= threshold, else the last node."""
    crossed = k_cum >= threshold
    return np.where(crossed.any(axis=0), crossed.argmax(axis=0), k_cum.shape[0] - 1)


def _stop_batch(values: np.ndarray, tau_idx: np.ndarray) -> np.ndarray:
    """Freeze each path of values (n+1, paths) after its own node index."""
    frozen = values[tau_idx, np.arange(values.shape[1])]
    return np.where(np.arange(values.shape[0])[:, None] > tau_idx, frozen, values)


def stopping_time(noise: NoisePair, eta: float, threshold: float, kind: str = "sum") -> float:
    """First grid node where the cumulative Holder functional reaches the
    threshold N, else the horizon. kind selects K^W, K^B or their sum."""
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    k_cum = pair_holder_cumulative(noise, eta, kind)
    k = _first_crossing(k_cum, threshold)
    # no crossing gives T itself: nodes[n] = n*T/n can differ from T in the last bit
    return float(noise.grid.nodes[k] if k_cum[k] >= threshold else noise.grid.horizon)


@dataclass(frozen=True)
class StoppedSolution:
    """X^{delta,N}: the solution frozen at the last node <= tau."""

    base: EulerSolution
    tau: float
    values: np.ndarray

    @property
    def grid(self) -> TimeGrid:
        return self.base.grid


def stop(sol: EulerSolution, tau: float) -> StoppedSolution:
    if not (0.0 <= tau <= sol.grid.horizon * (1.0 + 1e-12)):
        raise ValueError(f"tau must lie in [0, T], got {tau}")
    k = sol.grid.floor_index(min(tau, sol.grid.horizon))
    return StoppedSolution(base=sol, tau=float(tau), values=_stop_batch(sol.values[:, None], np.array([k]))[:, 0])


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
    csol, fsol = coarse.base, fine.base
    if csol.noise.provenance != fsol.noise.provenance or csol.noise is not fsol.noise:
        raise ValueError("solutions are not driven by the same noise (coupling violated)")
    if coarse.tau != fine.tau:
        raise ValueError("stopped solutions must share one stopping time")
    fine_grid = fsol.grid
    csol.grid.refinement_stride(fine_grid)  # raises unless the fine grid refines the coarse one
    norm_n = fine_grid.n if norm_grid_n is None else _integer("norm_grid_n", norm_grid_n)
    if norm_n < 1 or fine_grid.n % norm_n:
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
    cells = _norm2_weight_cells(norm_n, delta_n, float(alpha), fine_grid.horizon)
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
        de = coarse_eval - fine_eval
        br = np.abs(de) + _increment_bracket_batch(de, delta_eval, alpha)
        return _norm_2_sq(br, cells), np.max(br, axis=0) ** 2


# ---------------------------------------------------------------------------
# Monte Carlo harness


def _chunk_noise(
    dep, grid: TimeGrid, h: float, seed: int, chunk_idx: int, size: int, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """(W, B^H) values for one chunk of paths, node-major (n+1, size) each.
    The samplers draw path-major rows (the stream order), transposed here
    for W and circulant B^H; Volterra B^H is written node-major by the FFT
    convolution, which runs along the path-major increments of W."""
    w = _wiener_values_batch(grid, stream(seed, 0, chunk_idx), size)
    if isinstance(dep, VolterraFromWiener):
        b = np.zeros((grid.n + 1, size))
        _volterra_fbm(_volterra_weights(grid.n, grid.horizon, h), np.diff(w, axis=1), out=b[1:].T)
    else:
        b = np.ascontiguousarray(_fbm_values_batch(grid, h, stream(seed, 1, chunk_idx), size, method).T)
    return np.ascontiguousarray(w.T), b


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
    eval_cells = _norm2_weight_cells(eval_n, delta_eval, float(alpha), fine.horizon)
    w, bh = _chunk_noise(dep, fine, h, seed, ci, size, method)
    x_fine, ab_fine = _euler_solve_batch(coeffs, fine.nodes, w, bh, x0)
    k_eta = _holder_cumulative_batch(
        w[::eval_stride], delta_eval, config.eta, _holder_exponents("wiener", config.eta, None)
    ) + _holder_cumulative_batch(bh[::eval_stride], delta_eval, config.eta, _holder_exponents("fbm", config.eta, h))
    tau_eval = _first_crossing(k_eta, config.threshold)
    tau_fine = tau_eval * eval_stride
    fs_eval = _stop_batch(x_fine[::eval_stride], tau_eval)
    br_fine = np.abs(fs_eval) + _increment_bracket_batch(fs_eval, delta_eval, alpha)
    ninf_fine = np.max(br_fine, axis=0)
    rows = []  # per level: sup2, norm2sq, ninf_sq, in_b, aborted
    for n in levels:
        stride = fine.n // n
        x_coarse = np.full((n + 1, size), x0)  # the pass runs the recursion from x0 in it
        sup2, c_eval = _level_pass(
            coeffs, fine.nodes[::stride], x_coarse, fine.nodes, w, bh, x_fine, tau_fine, eval_stride, True
        )
        cs_eval = _stop_batch(c_eval, tau_eval)
        bad = (ab_fine >= 0) | np.isnan(x_coarse[-1])
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
            br_c = np.abs(cs_eval) + _increment_bracket_batch(cs_eval, delta_eval, alpha)
            ninf_coarse = np.max(br_c, axis=0)
            rows.append((sup2, n2, ninf_coarse**2, (ninf_coarse + ninf_fine) <= r_bound, bad))
    return (*(np.array(level_rows) for level_rows in zip(*rows)), tau_eval < eval_n)


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
    separately. paths is at most 2^22. workers (default: the CPUs this
    process may run on) is capped at one per chunk; one worker runs the
    chunks on the calling thread, with no pool.
    """
    h = validate_hurst(h)
    coeffs.validate_for_hurst(h)
    config.validate(h, coeffs.beta)
    levels = sorted(_integer("levels entry", n) for n in levels)
    m_fine, paths, seed = _integer("m_fine", m_fine), _integer("paths", paths), _integer("seed", seed)
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be distinct")
    if m_fine < 1:
        raise ValueError("m_fine must be at least 1")
    if m_fine > 16 or max(levels) << m_fine > _FINE_N_MAX:  # m_fine first: no huge shift
        raise ValueError(
            f"fine n = {max(levels)} * 2^{m_fine} exceeds {_FINE_N_MAX}: one chunk takes up to 40 B per fine node "
            f"and path with independent noise and 35.5 B with Volterra noise, at most 0.67 GB per worker at "
            f"{_FINE_N_MAX}"
        )
    fine_n = max(levels) << m_fine
    for n in levels:
        ratio = fine_n // n
        if n < 2 or fine_n % n or (ratio & (ratio - 1)):
            raise ValueError(f"level n={n} is not a dyadic coarsening of fine n={fine_n}")
    eval_n = min(_integer("eval_n", eval_n), fine_n)
    if eval_n < 1:
        raise ValueError(f"eval_n must be at least 1, got {eval_n}")
    if eval_n > _EVAL_N_MAX:
        raise ValueError(
            f"eval_n={eval_n} exceeds {_EVAL_N_MAX}: the increment bracket and the Holder "
            "functional cost O(paths * eval_n^2) time"
        )
    if fine_n % eval_n or (fine_n // eval_n) & (fine_n // eval_n - 1):
        raise ValueError(f"eval_n={eval_n} must be a dyadic divisor of fine n={fine_n}")
    if paths < 1:
        raise ValueError("need at least one path")
    if paths > _PATHS_MAX:
        raise ValueError(f"paths={paths} exceeds {_PATHS_MAX}: the result rows take 26 B per path and level")
    r_bound, x0 = float(r_bound), float(x0)
    if not r_bound > 0.0:
        raise ValueError(f"r_bound must be positive (inf for no restriction), got {r_bound}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if _integer("workers", workers) < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    fine = TimeGrid(float(t_horizon), fine_n)
    dep = _resolve_dependence(dependence)
    if isinstance(dep, JointGaussian):
        raise ValueError("mc_strong_error has no joint-gaussian sampler; use independent or volterra")

    run = partial(_run_chunk, coeffs, h, config, levels, fine, eval_n, paths, r_bound, x0, seed, dep, method)
    chunks = range((paths + _CHUNK - 1) // _CHUNK)
    if workers == 1:
        results = list(map(run, chunks))
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(run, chunks))
    sup2, norm2sq, ninf_sq, in_b, aborted, tau_lt_t = (np.concatenate(rows, axis=-1) for rows in zip(*results))

    level_stats = []
    for li, n in enumerate(levels):
        keep = ~aborted[li] & in_b[li]
        retained = int(keep.sum())
        discarded = int((~aborted[li] & ~in_b[li]).sum())
        n_aborted = int(aborted[li].sum())
        if retained:
            e_n2 = float(np.sum(norm2sq[li][keep]) / retained)
            e_sup = float(np.sum(sup2[li][keep]) / retained)
            se_n2 = float(np.std(norm2sq[li][keep], ddof=1) / math.sqrt(retained)) if retained > 1 else 0.0
            se_sup = float(np.std(sup2[li][keep], ddof=1) / math.sqrt(retained)) if retained > 1 else 0.0
            m_inf = float(np.sum(ninf_sq[li][keep]) / retained)
        else:
            e_n2 = e_sup = se_n2 = se_sup = m_inf = float("nan")
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
    kap = coeffs.kappa
    return ErrorReport(
        coefficients=coeffs.name,
        h=h,
        t_horizon=fine.horizon,
        x0=x0,
        seed=seed,
        paths=paths,
        levels=level_stats,
        fine_n=fine_n,
        eval_n=eval_n,
        r_bound=r_bound,
        alpha=config.alpha,
        eta=config.eta,
        threshold=config.threshold,
        epsilon=config.epsilon,
        kappa=kap,
        rate_floor=kap - config.alpha - config.epsilon,
        localization_fraction=float(np.mean(tau_lt_t)),
        dependence=dep.name,
        method=method,
        fit_norm2=fits["norm2"],
        fit_sup=fits["sup"],
        degenerate=all(l.err2_norm2 == 0.0 and l.err2_sup == 0.0 for l in level_stats),
        version=_version,
    )
