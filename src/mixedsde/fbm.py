"""Fractional Brownian motion and Wiener path generation.

Exact-in-law samplers (Cholesky of the node covariance, Davies-Harte
circulant embedding of the increments), dependent (W, B^H) pairs, and the
Garsia-Rodemich-Rumsey Holder-constant functionals used for localization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fraccalc import _offset_sum, _offset_total, _pair_n, _power_moments
from .grid import TimeGrid, _integer, _node_values, _real, _write_csv
from .rng import stream

__all__ = [
    "fbm_covariance",
    "generate_fbm",
    "generate_wiener",
    "generate_noise_pair",
    "holder_functional",
    "holder_cumulative",
    "NoisePath",
    "NoisePair",
    "HolderFunctional",
    "Independent",
    "VolterraFromWiener",
    "JointGaussian",
    "validate_hurst",
    "write_path_csv",
    "write_pair_csv",
]

# Relative tolerance on circulant eigenvalues; anything more negative than
# -CIRCULANT_EIG_TOL * max(eig) signals a covariance bug, not roundoff.
CIRCULANT_EIG_TOL = 1e-10
# larger n is refused by the cholesky sampler (O(n^2) memory, O(n^3) time), and a larger 2n
# by the joint-gaussian one. Its cached factor takes 8n^2 B (128 MiB at 4096) and the build
# peaks at about 384 MiB
_CHOLESKY_N_MAX = 4096
_METHODS = ("cholesky", "circulant-embedding", "circulant")  # independent B^H only; others ignore it
# holder_functional refuses fewer grid steps (nodes - 1) in [0, t]
_HOLDER_MIN_STEPS = 8
# rows per group of every harness sampler (the circulant inverse FFT; _chunk_noise's node-major
# W fill and Volterra convolution of each W group): their temporaries exist for one group at a
# time. One 256-path Volterra chunk's noise at fine n 8192 peaked at 38.8, 44.0, 54.5 and 75.5 MB
# (tracemalloc) with groups of 8, 16, 32 and 64 rows, and took 164, 163, 164 and 171 ms (medians
# in one process, 2-vCPU VM)
_ROW_GROUP = 16


def validate_hurst(h: float, allow_brownian: bool = False) -> float:
    """Check H is in (1/2, 1); H = 1/2 only in the Brownian cross-check mode."""
    h = _real("h", h)
    if allow_brownian and h == 0.5:
        return h
    if not (0.5 < h < 1.0):
        raise ValueError(f"Hurst index must lie in (1/2, 1), got {h}")
    return h


def fbm_covariance(s, t, h: float):
    """E[B^H_s B^H_t] = (s^2H + t^2H - |t-s|^2H) / 2."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("fBm covariance requires nonnegative times")
    h = _real("h", h)
    if not (0.0 < h < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1), got {h}")
    two_h = 2.0 * h
    out = 0.5 * (np.float_power(s, two_h) + np.float_power(t, two_h) - np.float_power(np.abs(t - s), two_h))
    return out if out.ndim else float(out)


def _fbm_node_covariance(grid: TimeGrid, h: float) -> np.ndarray:
    """Covariance matrix of (B_{nu_1}, ..., B_{nu_n})."""
    t = grid.nodes[1:]
    return fbm_covariance(t[:, None], t[None, :], h)


@dataclass(frozen=True)
class NoisePath:
    """A process sampled at the nodes of a uniform grid; values[0] = 0."""

    grid: TimeGrid
    values: np.ndarray
    kind: str  # "wiener" or "fbm"
    hurst: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values("values", self.values, self.grid.n + 1))
        if self.values[0] != 0.0:
            raise ValueError("paths start at 0")
        if self.kind not in ("wiener", "fbm"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.kind == "fbm" and self.hurst is None:
            raise ValueError("fbm paths carry their Hurst index")

    def restrict(self, coarse: TimeGrid) -> "NoisePath":
        stride = coarse.refinement_stride(self.grid)
        return NoisePath(coarse, self.values[::stride], self.kind, self.hurst)


# ---------------------------------------------------------------------------
# dependence modes for (W, B^H) pairs


@dataclass(frozen=True)
class Independent:
    name: str = field(default="independent", init=False)


@dataclass(frozen=True)
class VolterraFromWiener:
    """B^H built from the same Wiener increments via the Molchan-Golosov kernel."""

    name: str = field(default="volterra-from-same-wiener", init=False)


@dataclass(frozen=True)
class JointGaussian:
    """Joint Gaussian pair with user-specified cross covariance E[W_s B^H_t]."""

    cross_covariance: object  # callable (s, t) -> float, vectorized
    name: str = field(default="joint-gaussian", init=False)


_DEPENDENCE_ALIASES = {
    "independent": Independent(),
    "volterra-from-same-wiener": VolterraFromWiener(),
    "volterra": VolterraFromWiener(),
}


def _resolve_dependence(spec) -> Independent | VolterraFromWiener | JointGaussian:
    if isinstance(spec, (Independent, VolterraFromWiener, JointGaussian)):
        return spec
    if isinstance(spec, str):
        if spec not in _DEPENDENCE_ALIASES:
            names = ", ".join(_DEPENDENCE_ALIASES)
            raise ValueError(f"unknown dependence {spec!r}; use one of {names} or a JointGaussian spec")
        return _DEPENDENCE_ALIASES[spec]
    raise TypeError(f"cannot interpret dependence spec {spec!r}")


@dataclass(frozen=True)
class NoisePair:
    """Coupled (W, B^H) sample paths on a shared grid."""

    w: NoisePath
    bh: NoisePath
    dependence: object
    seed: int

    def __post_init__(self):
        if self.w.grid != self.bh.grid:
            raise ValueError("paths of a pair share one grid")
        if (self.w.kind, self.bh.kind) != ("wiener", "fbm"):
            raise ValueError(f"a pair holds a wiener path w and an fbm path bh, got {self.w.kind} and {self.bh.kind}")

    @property
    def grid(self) -> TimeGrid:
        return self.w.grid

    @property
    def provenance(self) -> tuple:
        return (self.seed, _resolve_dependence(self.dependence).name, self.grid.n, self.grid.horizon)


# ---------------------------------------------------------------------------
# generators


@lru_cache(maxsize=2)
def _circulant_sqrt_eigs(n: int, h: float) -> np.ndarray:
    """Square roots of the half spectrum of the 2n circulant that embeds the
    unit-step fGn covariance: sqrt(e_0), sqrt(e_k / 2) for k = 1..n-1 and
    sqrt(e_n), read-only. Each entry holds 8(n+1) bytes, so the two entries
    (a run's grid and one other) keep at most 16(n+1) B, 0.27 GB at MAX_STEPS."""
    kp = np.float_power(np.arange(n + 2, dtype=float), 2 * h)  # k^(2H), k = 0..n+1
    gamma = 0.5 * (kp[1:] - 2.0 * kp[:-1] + kp[np.abs(np.arange(-1, n))])  # (k+1)^2H - 2k^2H + |k-1|^2H
    # first row of the 2n circulant: [gamma_0..gamma_n, gamma_{n-1}..gamma_1]
    row = np.concatenate([gamma, gamma[n - 1 : 0 : -1]])
    eigs = np.fft.rfft(row).real
    if eigs.min() < -CIRCULANT_EIG_TOL * eigs.max():
        raise RuntimeError(
            f"circulant embedding produced eigenvalue {eigs.min():.3e}; "
            "the increment covariance is wrong"
        )
    eigs = np.clip(eigs, 0.0, None)
    eigs[1:n] /= 2.0
    roots = np.sqrt(eigs)
    roots.setflags(write=False)
    return roots


def _fgn_unit_circulant(n: int, h: float, rng: np.random.Generator, size: int, scale: float) -> np.ndarray:
    """(size, n) unit-step fractional Gaussian noise via Davies-Harte, times
    scale (delta**h gives the increments of a step-delta grid).

    Draw order fixed as: Z_0 block, Z_n block, real block, imaginary block.
    The Hermitian spectrum is filled on its n+1 half and inverted by irfft,
    _ROW_GROUP rows at a time, so no (size, 2n) inverse exists.
    """
    y = np.empty((size, n + 1), dtype=complex)
    y[:, 0] = rng.standard_normal(size)
    y[:, n] = rng.standard_normal(size)
    block = np.empty((size, n - 1))
    y.real[:, 1:n] = rng.standard_normal(out=block)
    y.imag[:, 1:n] = rng.standard_normal(out=block)
    del block  # freed before the (size, n) increments are allocated
    parts = y.view(float).reshape(size, n + 1, 2)
    parts *= (_circulant_sqrt_eigs(n, h) * (math.sqrt(2 * n) * scale))[:, None]
    fgn = np.empty((size, n))
    for lo in range(0, size, _ROW_GROUP):
        rows = slice(lo, lo + _ROW_GROUP)
        fgn[rows] = np.fft.irfft(y[rows], 2 * n)[:, :n]
    return fgn


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {', '.join(_METHODS)}")


@lru_cache(maxsize=1)
def _cholesky_factor(grid: TimeGrid, h: float) -> np.ndarray:
    """Lower Cholesky factor of the fBm node covariance on grid, read-only;
    a grid of more than _CHOLESKY_N_MAX steps is refused before any build."""
    _integer("cholesky sampling's n", grid.n, high=_CHOLESKY_N_MAX, why="the n x n covariance needs O(n^2) memory "
             "and its factorisation O(n^3) time; use circulant-embedding")
    try:
        chol = np.linalg.cholesky(_fbm_node_covariance(grid, h))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("fBm node covariance is not positive definite") from exc
    chol.setflags(write=False)
    return chol


def _fbm_values_batch(
    grid: TimeGrid, h: float, rng: np.random.Generator, size: int, method: str
) -> np.ndarray:
    """(size, n+1) fBm node values, exact in distribution for both methods."""
    _check_method(method)
    n = grid.n
    if method == "cholesky":
        chol = _cholesky_factor(grid, h)
        z = rng.standard_normal((size, n))
        out = np.zeros((size, n + 1))
        out[:, 1:] = z @ chol.T
        return out
    fgn = _fgn_unit_circulant(n, h, rng, size, grid.delta**h)
    out = np.zeros((size, n + 1))
    np.cumsum(fgn, axis=1, out=out[:, 1:])
    return out


def generate_fbm(
    grid: TimeGrid,
    h: float,
    seed: int,
    method: str = "circulant-embedding",
    allow_brownian: bool = False,
) -> NoisePath:
    """Sample one fBm path on the grid; exact in law, deterministic in seed."""
    h = validate_hurst(h, allow_brownian=allow_brownian)
    values = _fbm_values_batch(grid, h, stream(seed, 1), 1, method)[0]
    return NoisePath(grid, values, "fbm", h)


def _wiener_values_batch(grid: TimeGrid, rng: np.random.Generator, size: int) -> np.ndarray:
    dw = rng.standard_normal((size, grid.n))
    dw *= math.sqrt(grid.delta)
    out = np.zeros((size, grid.n + 1))
    np.cumsum(dw, axis=1, out=out[:, 1:])
    return out


def generate_wiener(grid: TimeGrid, seed: int) -> NoisePath:
    """Sample one standard Wiener path on the grid."""
    return NoisePath(grid, _wiener_values_batch(grid, stream(seed, 0), 1)[0], "wiener")


class _VolterraWeights(NamedTuple):
    """O(n) pieces of the discretized Molchan-Golosov map (see _volterra_weights)."""

    scale: np.ndarray  # c_H nu_i^{-p}, 0 at i = 0
    g: np.ndarray  # nu_k^p, k = 0..n-1
    dg: np.ndarray  # (nu_{k+1}^p - nu_k^p) / delta
    k0: np.ndarray  # weight of the first increment dW_0 at nodes 1..n
    m0_hat: np.ndarray  # rfft of the cell moments m0 at nfft points
    m1_hat: np.ndarray
    nfft: int


@lru_cache(maxsize=2)
def _volterra_weights(n: int, horizon: float, h: float) -> _VolterraWeights | None:
    """The map from Wiener increments to fBm node values, in Toeplitz form.

    B_{nu_j} = sum_i K[j-1, i] dW_i with, for cells i >= 1,
    K[r, i] = c_H nu_i^{-p} sum_{k=i..r} (g_k m0_{k-i} + dg_k m1_{k-i}):
    the Molchan-Golosov kernel at the cell's left point, its inner integral
    int_{nu_i}^{nu_j} (u-nu_i)^{p-1} u^p du product-integrated cell by cell
    (PL in u^p, analytic in (u-nu_i)^{p-1}). The moments depend only on the
    offset k-i, so _volterra_fbm applies K as a convolution. The first cell
    uses the cell average of the singular s^{1/2-H} factor and the exact
    s = 0 inner integral. H = 1/2 gives None: the map is the running sum.
    The arrays are read-only. Each entry holds 64n B (4.19 MB at n 2^16,
    67.1 MB at 2^20, built in 0.02 s and 0.4 s), so the two entries (a run's
    grid and one other) keep at most 128n B, 2.1 GB at MAX_STEPS.
    """
    if h == 0.5:
        return None
    p = h - 0.5
    grid = TimeGrid(horizon, n)
    nodes, delta = grid.nodes, grid.delta
    g = np.float_power(nodes, p)  # u^{H-1/2} at the nodes
    c_h = math.sqrt(
        h * (2.0 * h - 1.0) * math.gamma(1.5 - h) / (math.gamma(2.0 - 2.0 * h) * math.gamma(p))
    )
    scale = np.zeros(n)
    scale[1:] = c_h * np.float_power(nodes[1:n], -p)
    m0, m1 = _power_moments(np.arange(n - 1, dtype=float), delta, p)
    nfft = 1 << (2 * n - 2).bit_length()  # >= 2n-1: no wrap-around at indices < n
    j = np.arange(1, n + 1, dtype=float)
    k0 = c_h * (delta ** (-p) / (1.0 - p)) * np.float_power(j * delta, 2.0 * p) / (2.0 * p)
    weights = _VolterraWeights(
        scale, g[:n], np.diff(g) / delta, k0, np.fft.rfft(m0, nfft), np.fft.rfft(m1, nfft), nfft
    )
    for table in weights[:-1]:
        table.setflags(write=False)
    return weights


def _volterra_work(weights: _VolterraWeights, rows: int) -> tuple[np.ndarray, ...]:
    """The buffers _volterra_fbm runs through for up to rows rows of weights' n, 28 B per row and nfft point:
    (rows, nfft), the scaled increments zero-padded, then each inverse FFT; (rows, nfft/2+1) complex, their half
    spectrum; the same, the spectrum times one moment spectrum; (rows, n), the cell sums, then their cumsum."""
    half = weights.nfft // 2 + 1
    return (np.empty((rows, weights.nfft)), np.empty((rows, half), complex), np.empty((rows, half), complex),
            np.empty((rows, len(weights.k0))))


def _volterra_fbm(
    weights: _VolterraWeights | None, dw: np.ndarray, out: np.ndarray | None = None, work: tuple | None = None
) -> np.ndarray:
    """fBm values at nodes 1..n from Wiener increments dw of shape (..., n),
    written into out (any (..., n) view, e.g. a node-major array's .T) or a
    new array, which is returned.

    One real FFT of u_i = c_H nu_i^{-p} dW_i and two inverse ones give the
    moment convolutions; B at node r+1 is K0_r dW_0 + sum_{k<=r} (g_k
    (u*m0)_k + dg_k (u*m1)_k). O(n log n) per path; a row's values do not
    depend on the other rows. Every step runs in work, a _volterra_work of
    at least as many rows as dw holds (built here when None; its first rows
    are used and nothing carries over between calls), and the sum reaches
    out in one write. Without work and out the call peaks at 32 B per row
    and nfft point, the workspace's 28 B and out's 4 B (8.4 MB for 16 rows
    at n 8192, 67.3 MB for np.eye(1024)); given both it allocates less than
    1 B. So callers group large inputs: _chunk_noise convolves _ROW_GROUP
    rows at a time through one workspace (7.3 MB at n 8192)."""
    if out is None:
        out = np.empty(dw.shape)
    if weights is None:
        return np.cumsum(dw, axis=-1, out=out)
    lead, n = dw.shape[:-1], dw.shape[-1]
    rows = math.prod(lead)
    if work is None:
        work = _volterra_work(weights, rows)
    pad, spec, prod, acc = (buf[:rows].reshape(*lead, buf.shape[-1]) for buf in work)
    u = pad[..., :n]
    np.multiply(dw, weights.scale, out=u)
    pad[..., n:] = 0.0  # an earlier call's inverse FFT may fill it
    np.fft.rfft(pad, out=spec)
    np.fft.irfft(np.multiply(spec, weights.m0_hat, out=prod), weights.nfft, out=pad)
    np.multiply(u, weights.g, out=acc)
    np.fft.irfft(np.multiply(spec, weights.m1_hat, out=prod), weights.nfft, out=pad)
    u *= weights.dg
    acc += u  # the cell sums
    np.cumsum(acc, axis=-1, out=acc)
    acc += np.multiply(weights.k0, dw[..., :1], out=u)
    np.copyto(out, acc)
    return out


def generate_noise_pair(
    grid: TimeGrid,
    h: float,
    seed: int,
    dependence="independent",
    method: str = "circulant-embedding",
    allow_brownian: bool = False,
) -> NoisePair:
    """Coupled (W, B^H) on a shared grid under the requested dependence.

    independent: disjoint streams (seed, 0) for W and (seed, 1) for B^H.
    volterra-from-same-wiener: B^H = (Molchan-Golosov map) of the same dW.
    joint-gaussian: Cholesky of the full joint node covariance, stream (seed, 2).
    """
    h, seed = validate_hurst(h, allow_brownian=allow_brownian), _integer("seed", seed)
    dep = _resolve_dependence(dependence)
    _check_method(method)
    if isinstance(dep, Independent):
        b = generate_fbm(grid, h, seed, method, allow_brownian)
        return NoisePair(generate_wiener(grid, seed), b, dep, seed)
    n = grid.n
    if isinstance(dep, VolterraFromWiener):
        w = generate_wiener(grid, seed)
        b_vals = np.zeros(n + 1)
        _volterra_fbm(_volterra_weights(n, grid.horizon, h), np.diff(w.values), out=b_vals[1:])
        return NoisePair(w, NoisePath(grid, b_vals, "fbm", h), dep, seed)
    _integer("joint-gaussian sampling's 2n", 2 * n, high=_CHOLESKY_N_MAX, why="the 2n x 2n joint covariance needs "
             "O(n^2) memory and its factorisation O(n^3) time")
    t = grid.nodes[1:]
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = np.minimum(t[:, None], t[None, :])
    cov[n:, n:] = _fbm_node_covariance(grid, h)
    cross = np.asarray(dep.cross_covariance(t[:, None], t[None, :]), dtype=float)
    if cross.shape != (n, n):
        raise ValueError("cross covariance must evaluate on the full node mesh")
    cov[:n, n:] = cross
    cov[n:, :n] = cross.T
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov)[0])
        raise ValueError(
            f"joint covariance is not positive semidefinite (smallest eigenvalue {smallest:.6e})"
        ) from None
    joint = chol @ stream(seed, 2).standard_normal(2 * n)
    w_vals, b_vals = np.pad(joint.reshape(2, n), ((0, 0), (1, 0)))  # each path starts at 0
    return NoisePair(NoisePath(grid, w_vals, "wiener"), NoisePath(grid, b_vals, "fbm", h), dep, seed)


# ---------------------------------------------------------------------------
# Garsia-Rodemich-Rumsey Holder functionals


@dataclass(frozen=True)
class HolderFunctional:
    """Value of K^{.,eta}_t for one path; the GRR constant C_eta is set to 1."""

    eta: float
    horizon: float
    kind: str
    value: float


def _holder_exponents(kind: str, eta: float, hurst: float | None) -> float:
    """Denominator exponent q of |x-y|^q in the GRR double integral; kind and hurst as a NoisePath holds them."""
    eta = _real("eta", eta)
    if kind == "wiener":
        if not (0.0 < eta < 0.5):
            raise ValueError(f"eta must lie in (0, 1/2) for Wiener paths, got {eta}")
        return 1.0 / eta
    if not (0.0 < eta < hurst):
        raise ValueError(f"eta must lie in (0, H) for fBm paths, got {eta}")
    return 2.0 * hurst / eta


def holder_cumulative(values: np.ndarray, delta: float, eta: float, q: float) -> np.ndarray:
    """K at every node: (double integral over [0, nu_k]^2)^{eta/2}, k = 0..n.

    Node-pair rectangle rule with weight delta^2 on every off-diagonal pair;
    diagonal (zero-width) cells are skipped. Monotone in k by construction.
    """
    return _holder_cumulative_batch(np.asarray(values, dtype=float), delta, eta, q)


def _holder_cumulative_batch(values: np.ndarray, delta: float, eta: float, q: float) -> np.ndarray:
    """Batched holder_cumulative: values (n+1, ...) -> K (n+1, ...).

    The sums over earlier nodes, |x_i - x_{i-m}|^(2/eta) (m delta)^(-q), are
    one _offset_sum; then a cumulative sum over nodes. n above _PAIR_N_MAX is refused before any table.
    """
    inv_sep = _grr_weights(values.shape[0] - 1, delta, q)
    return _grr_k(np.cumsum(_offset_sum(values, inv_sep, inv_sep, 2.0 / eta), axis=0), delta, eta)


def _grr_weights(n: int, delta: float, q: float) -> np.ndarray:
    """(m delta)^(-q), m = 1..n: the GRR weight of a node pair m steps apart. n above _PAIR_N_MAX is refused first."""
    return np.float_power(np.arange(1.0, _pair_n(n) + 1) * delta, -q)


def _grr_k(pair_sum, delta: float, eta: float):
    """K = (2 delta^2 pair_sum)^(eta/2): each unordered pair counts twice in the double integral."""
    return np.float_power(2.0 * pair_sum * delta * delta, eta / 2.0)


def _holder_bound(values: np.ndarray, delta: float, eta: float, q: float) -> np.ndarray:
    """An upper bound on the last node of _holder_cumulative_batch(values, delta, eta, q) per path, in O(n log n).

    Every pair at lag m lies in a window of m + 1 nodes, so |x_i - x_{i-m}| is at most the largest max - min over
    the windows of any w >= m + 1 nodes. Running max/min over windows of 2, 4, 8, ... nodes (the last one capped
    at all n + 1) come by doubling; each window size w bounds the lags from the previous size up to w - 1, with
    their weights (n + 1 - m) (m delta)^(-q). Rounding is monotone, so the computed max - min also bounds the
    computed differences; a nan path gives nan.
    """
    n = values.shape[0] - 1
    weights = _grr_weights(n, delta, q) * np.arange(n, 0, -1.0)  # n + 1 - m pairs at lag m
    hi = lo = values
    total = np.zeros(values.shape[1:])
    width = 1  # nodes per window of hi and lo
    while width <= n:
        step = min(width, n + 1 - width)
        hi, lo = np.maximum(hi[:-step], hi[step:]), np.minimum(lo[:-step], lo[step:])
        osc = np.max(hi - lo, axis=0)
        total += np.sum(weights[width - 1 : width + step - 1]) * np.float_power(osc, 2.0 / eta)
        width += step
    return _grr_k(total, delta, eta)


def holder_functional(path: NoisePath, eta: float, t: float | None = None) -> HolderFunctional:
    """GRR Holder-constant functional of a sampled path on [0, t]."""
    t = path.grid.horizon if t is None else _real("t", t)
    k = _integer("holder_functional's grid steps in [0, t]", path.grid.node_index(t), low=_HOLDER_MIN_STEPS)
    q = _holder_exponents(path.kind, eta, path.hurst)
    delta = path.grid.delta
    value = _grr_k(_offset_total(path.values[: k + 1], _grr_weights(k, delta, q), 2.0 / eta), delta, eta)
    return HolderFunctional(eta=float(eta), horizon=t, kind=path.kind, value=float(value))


# ---------------------------------------------------------------------------
# CSV export (grid._write_csv's format)


def write_path_csv(path: NoisePath, file) -> None:
    _write_csv(file, "t,value", path.grid.nodes, path.values)


def write_pair_csv(pair: NoisePair, file) -> None:
    _write_csv(file, "t,w,bh", pair.grid.nodes, pair.w.values, pair.bh.values)
