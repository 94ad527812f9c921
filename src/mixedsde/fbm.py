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

from .fraccalc import _offset_sum, _power_moments
from .grid import TimeGrid
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
# larger n is refused by the cholesky sampler (O(n^2) memory, O(n^3) time),
# and a larger 2n by the joint-gaussian one
_CHOLESKY_N_MAX = 4096
# holder_functional refuses fewer grid steps (nodes - 1) in [0, t]
_HOLDER_MIN_STEPS = 8
# rows per FFT group of _volterra_fbm: one 256-path Volterra chunk's noise at
# fine n 8192 peaked at 56, 61, 71 and 92 MB with groups of 8, 16, 32 and 64
# rows (201 MB before the grouping), and took 244, 249, 269 and 288 ms
_VOLTERRA_GROUP = 16


def validate_hurst(h: float, allow_brownian: bool = False) -> float:
    """Check H is in (1/2, 1); H = 1/2 only in the Brownian cross-check mode."""
    h = float(h)
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
    h = float(h)
    if not (0.0 < h < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1), got {h}")
    two_h = 2.0 * h
    out = 0.5 * (s**two_h + t**two_h - np.abs(t - s) ** two_h)
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
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise ValueError("values must have one entry per grid node")
        if v[0] != 0.0:
            raise ValueError("paths start at 0")
        if not np.all(np.isfinite(v)):
            raise ValueError("path contains non-finite values")
        if self.kind not in ("wiener", "fbm"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.kind == "fbm" and self.hurst is None:
            raise ValueError("fbm paths carry their Hurst index")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

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
    "volterra": VolterraFromWiener(),
    "volterra-from-same-wiener": VolterraFromWiener(),
}


def _resolve_dependence(spec) -> Independent | VolterraFromWiener | JointGaussian:
    if isinstance(spec, (Independent, VolterraFromWiener, JointGaussian)):
        return spec
    if isinstance(spec, str):
        try:
            return _DEPENDENCE_ALIASES[spec]
        except KeyError:
            raise ValueError(
                f"unknown dependence {spec!r}; use 'independent', 'volterra-from-same-wiener' "
                "or a JointGaussian spec"
            ) from None
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

    @property
    def grid(self) -> TimeGrid:
        return self.w.grid

    @property
    def provenance(self) -> tuple:
        return (self.seed, _resolve_dependence(self.dependence).name, self.grid.n, self.grid.horizon)


# ---------------------------------------------------------------------------
# generators


@lru_cache(maxsize=4)
def _circulant_sqrt_eigs(n: int, h: float) -> np.ndarray:
    """Square roots of the half spectrum of the 2n circulant that embeds the
    unit-step fGn covariance: sqrt(e_0), sqrt(e_k / 2) for k = 1..n-1 and
    sqrt(e_n), read-only. Each entry holds 8(n+1) bytes."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1.0) ** (2 * h) - 2.0 * k ** (2 * h) + np.abs(k - 1.0) ** (2 * h))
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
    The Hermitian spectrum is filled on its n+1 half and inverted by irfft.
    """
    y = np.empty((size, n + 1), dtype=complex)
    y[:, 0] = rng.standard_normal(size)
    y[:, n] = rng.standard_normal(size)
    block = np.empty((size, n - 1))
    y.real[:, 1:n] = rng.standard_normal(out=block)
    y.imag[:, 1:n] = rng.standard_normal(out=block)
    del block  # freed before irfft allocates its (size, 2n) result
    parts = y.view(float).reshape(size, n + 1, 2)
    parts *= (_circulant_sqrt_eigs(n, h) * (math.sqrt(2 * n) * scale))[:, None]
    return np.fft.irfft(y, 2 * n, axis=1)[:, :n]


def _fbm_values_batch(
    grid: TimeGrid, h: float, rng: np.random.Generator, size: int, method: str
) -> np.ndarray:
    """(size, n+1) fBm node values, exact in distribution for both methods."""
    n = grid.n
    if method in ("circulant", "circulant-embedding"):
        fgn = _fgn_unit_circulant(n, h, rng, size, grid.delta**h)
        out = np.zeros((size, n + 1))
        np.cumsum(fgn, axis=1, out=out[:, 1:])
        return out
    if method == "cholesky":
        if n > _CHOLESKY_N_MAX:
            raise ValueError(
                f"cholesky sampling of n={n} > {_CHOLESKY_N_MAX} steps refused: the n x n covariance needs "
                "O(n^2) memory and its factorisation O(n^3) time; use circulant-embedding"
            )
        cov = _fbm_node_covariance(grid, h)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("fBm node covariance is not positive definite") from exc
        z = rng.standard_normal((size, n))
        out = np.zeros((size, n + 1))
        out[:, 1:] = z @ chol.T
        return out
    raise ValueError(f"unknown method {method!r}; use 'cholesky' or 'circulant-embedding'")


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


@lru_cache(maxsize=8)
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
    """
    if h == 0.5:
        return None
    p = h - 0.5
    delta = horizon / n
    nodes = np.arange(n + 1, dtype=float) * horizon / n
    g = nodes**p  # u^{H-1/2} at the nodes
    c_h = math.sqrt(
        h * (2.0 * h - 1.0) * math.gamma(1.5 - h) / (math.gamma(2.0 - 2.0 * h) * math.gamma(p))
    )
    scale = np.zeros(n)
    scale[1:] = c_h * nodes[1:n] ** (-p)
    m0, m1 = _power_moments(np.arange(n - 1, dtype=float), delta, p)
    nfft = 1 << (2 * n - 2).bit_length()  # >= 2n-1: no wrap-around at indices < n
    j = np.arange(1, n + 1, dtype=float)
    k0 = c_h * (delta ** (-p) / (1.0 - p)) * (j * delta) ** (2.0 * p) / (2.0 * p)
    return _VolterraWeights(
        scale, g[:n], np.diff(g) / delta, k0, np.fft.rfft(m0, nfft), np.fft.rfft(m1, nfft), nfft
    )


def _volterra_fbm(weights: _VolterraWeights | None, dw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """fBm values at nodes 1..n from Wiener increments dw of shape (..., n),
    written into out (any (..., n) view, e.g. a node-major array's .T) or a
    new array, which is returned.

    One real FFT of u_i = c_H nu_i^{-p} dW_i and two inverse ones give the
    moment convolutions; B at node r+1 is K0_r dW_0 + sum_{k<=r} (g_k
    (u*m0)_k + dg_k (u*m1)_k). O(n log n) per path. The rows go through in
    groups of _VOLTERRA_GROUP along the first axis, so the spectra and
    padded rows exist for one group at a time; a row's values do not depend
    on the rows that share its group.
    """
    if out is None:
        out = np.empty(dw.shape)
    if weights is None:
        return np.cumsum(dw, axis=-1, out=out)
    n = dw.shape[-1]
    rows_in, rows_out = np.atleast_2d(dw), np.atleast_2d(out)
    for lo in range(0, len(rows_in), _VOLTERRA_GROUP):
        d = rows_in[lo : lo + _VOLTERRA_GROUP]
        u_hat = np.fft.rfft(d * weights.scale, weights.nfft)
        conv0 = np.fft.irfft(u_hat * weights.m0_hat, weights.nfft)[..., :n]
        conv1 = np.fft.irfft(u_hat * weights.m1_hat, weights.nfft)[..., :n]
        conv0 *= weights.g
        conv1 *= weights.dg
        conv0 += conv1  # the cell sums
        o = np.cumsum(conv0, axis=-1, out=rows_out[lo : lo + _VOLTERRA_GROUP])
        o += weights.k0 * d[..., :1]
    return out


def volterra_marginal_covariance(grid: TimeGrid, h: float) -> np.ndarray:
    """Exact covariance of the discretized Volterra fBm at nodes 1..n."""
    # row i of kt holds the fBm values driven by a unit increment in cell i
    kt = _volterra_fbm(_volterra_weights(grid.n, grid.horizon, h), np.eye(grid.n))
    return grid.delta * (kt.T @ kt)


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
    h = validate_hurst(h, allow_brownian=allow_brownian)
    dep = _resolve_dependence(dependence)
    n = grid.n
    if isinstance(dep, Independent):
        w_vals = _wiener_values_batch(grid, stream(seed, 0), 1)[0]
        b_vals = _fbm_values_batch(grid, h, stream(seed, 1), 1, method)[0]
    elif isinstance(dep, VolterraFromWiener):
        w_vals = _wiener_values_batch(grid, stream(seed, 0), 1)[0]
        b_vals = np.zeros(n + 1)
        _volterra_fbm(_volterra_weights(n, grid.horizon, h), np.diff(w_vals), out=b_vals[1:])
    elif isinstance(dep, JointGaussian):
        if 2 * n > _CHOLESKY_N_MAX:
            raise ValueError(
                f"joint-gaussian sampling of n={n} steps refused: the 2n x 2n joint covariance needs "
                f"O(n^2) memory and its factorisation O(n^3) time (2n <= {_CHOLESKY_N_MAX})"
            )
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
        z = stream(seed, 2).standard_normal(2 * n)
        joint = chol @ z
        w_vals = np.zeros(n + 1)
        b_vals = np.zeros(n + 1)
        w_vals[1:] = joint[:n]
        b_vals[1:] = joint[n:]
    else:  # pragma: no cover
        raise TypeError(f"unhandled dependence {dep!r}")
    return NoisePair(
        NoisePath(grid, w_vals, "wiener"),
        NoisePath(grid, b_vals, "fbm", h),
        dep,
        int(seed),
    )


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
    """Denominator exponent q of |x-y|^q in the GRR double integral."""
    eta = float(eta)
    if kind == "wiener":
        if not (0.0 < eta < 0.5):
            raise ValueError(f"eta must lie in (0, 1/2) for Wiener paths, got {eta}")
        return 1.0 / eta
    if kind == "fbm":
        if hurst is None:
            raise ValueError("fbm paths need a Hurst index")
        if not (0.0 < eta < hurst):
            raise ValueError(f"eta must lie in (0, H) for fBm paths, got {eta}")
        return 2.0 * hurst / eta
    raise ValueError(f"unknown path kind {kind!r}")


def holder_cumulative(values: np.ndarray, delta: float, eta: float, q: float) -> np.ndarray:
    """K at every node: (double integral over [0, nu_k]^2)^{eta/2}, k = 0..n.

    Node-pair rectangle rule with weight delta^2 on every off-diagonal pair;
    diagonal (zero-width) cells are skipped. Monotone in k by construction.
    """
    return _holder_cumulative_batch(np.asarray(values, dtype=float), delta, eta, q)


def _holder_cumulative_batch(values: np.ndarray, delta: float, eta: float, q: float) -> np.ndarray:
    """Batched holder_cumulative: values (n+1, ...) -> K (n+1, ...).

    The sums over earlier nodes, |x_i - x_{i-m}|^(2/eta) (m delta)^(-q), are
    one _offset_sum; then a cumulative sum over nodes.
    """
    inv_sep = (np.arange(1, values.shape[0], dtype=float) * delta) ** (-q)
    total = 2.0 * np.cumsum(_offset_sum(values, inv_sep, inv_sep, 2.0 / eta), axis=0)
    return (total * delta * delta) ** (eta / 2.0)


def holder_functional(path: NoisePath, eta: float, t: float | None = None) -> HolderFunctional:
    """GRR Holder-constant functional of a sampled path on [0, t]."""
    t = path.grid.horizon if t is None else float(t)
    k = path.grid.node_index(t)
    if k < _HOLDER_MIN_STEPS:
        raise ValueError(
            f"holder_functional needs at least {_HOLDER_MIN_STEPS} grid steps "
            f"({_HOLDER_MIN_STEPS + 1} nodes) in [0, t], got {k}"
        )
    q = _holder_exponents(path.kind, eta, path.hurst)
    value = holder_cumulative(path.values[: k + 1], path.grid.delta, eta, q)[-1]
    return HolderFunctional(eta=float(eta), horizon=t, kind=path.kind, value=float(value))


def pair_holder_cumulative(pair: NoisePair, eta: float, kind: str = "sum") -> np.ndarray:
    """Cumulative K^eta at the pair's grid nodes; kind in {wiener, fbm, sum}."""
    paths = {"wiener": (pair.w,), "fbm": (pair.bh,), "sum": (pair.w, pair.bh)}.get(kind)
    if paths is None:
        raise ValueError(f"unknown functional kind {kind!r}")
    k = [holder_cumulative(p.values, pair.grid.delta, eta, _holder_exponents(p.kind, eta, p.hurst)) for p in paths]
    return k[0] if len(k) == 1 else k[0] + k[1]


# ---------------------------------------------------------------------------
# CSV export (17 significant digits, round-trip safe)


def write_path_csv(path: NoisePath, file) -> None:
    file.write("t,value\n")
    for t, v in zip(path.grid.nodes, path.values):
        file.write(f"{t:.17g},{v:.17g}\n")


def write_pair_csv(pair: NoisePair, file) -> None:
    file.write("t,w,bh\n")
    for t, w, b in zip(pair.grid.nodes, pair.w.values, pair.bh.values):
        file.write(f"{t:.17g},{w:.17g},{b:.17g}\n")
