"""Riemann-Liouville fractional derivatives, the pathwise Young integral,
and the weighted Holder-type norms, all by product integration.

Functions are represented by samples on a uniform grid with piecewise
linear interpolation. Singular kernels are never evaluated at their
singularity: on every cell the kernel is integrated analytically against
the linear interpolant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import TimeGrid, _in_span, _integer, _interval, _node_of, _node_values, _real

__all__ = [
    "SampledFunction",
    "left_derivative",
    "right_derivative",
    "young_integral",
    "norm_inf_alpha",
    "norm_2_alpha",
    "integral_bound",
    "norms_comparison_constant",
]

# larger n is refused by every O(n^2) pair kernel (_offset_sum) through _pair_n, before any loop or table
_PAIR_N_MAX = 1 << 14


def _pair_n(n, name: str = "n") -> int:
    return _integer(name, n, high=_PAIR_N_MAX, why="the pair kernels cost O(n^2) time, increment_bracket 0.06 / 0.16 / "
                    "0.72 s and holder_functional 0.08 / 0.34 / 1.70 s at n = 2^13 / 2^14 / 2^15 on 2 vCPUs")


@dataclass(frozen=True)
class SampledFunction:
    """Samples of a continuous function on a uniform grid, PL in between."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = _node_values("nodes", self.t)
        object.__setattr__(self, "y", _node_values("values", self.y, t.size))
        if t.size < 2:
            raise ValueError(f"a sampled function needs at least 2 nodes, got {t.size}")
        steps = np.diff(t)
        if np.any(steps <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("nodes must be uniformly spaced")
        object.__setattr__(self, "t", t)

    @classmethod
    def from_callable(cls, fn, a: float, b: float, n: int) -> "SampledFunction":
        a, b, n = _real("a", a), _real("b", b), _integer("n", n)
        t = a + TimeGrid(b - a, n).nodes
        return cls(t, np.asarray(fn(t), dtype=float) * np.ones(n + 1))

    @classmethod
    def from_grid(cls, grid: TimeGrid, values) -> "SampledFunction":
        return cls(grid.nodes, values)

    @property
    def a(self) -> float:
        return float(self.t[0])

    @property
    def b(self) -> float:
        return float(self.t[-1])

    @property
    def delta(self) -> float:
        return float(self.t[1] - self.t[0])

    def __call__(self, u):
        return np.interp(u, self.t, self.y)

    def restrict(self, a: float, b: float) -> "SampledFunction":
        i, j = (_node_of(self.t, u, self.b - self.a) for u in (a, b))
        if j - i < 1:
            raise ValueError("restriction interval contains fewer than two nodes")
        return SampledFunction(self.t[i : j + 1], self.y[i : j + 1])


def _validate_order(alpha: float) -> float:
    alpha = _real("alpha", alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")
    return alpha


def _validate_norm2_order(alpha: float) -> float:
    """The order of ||.||_{2,alpha}: its (b-s)^(-alpha-1/2) weight is integrable only for alpha < 1/2."""
    alpha = _real("alpha", alpha)
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"the 2-norm's order alpha must lie in (0, 1/2), got {alpha}")
    return alpha


# ---------------------------------------------------------------------------
# product-integration pair weights
#
# Every weight is a moment of a power over a cell, from _power_moments.
# D^s_{a+} f(x) integrates (f(x) - f(x - v)) v^(-1-s) over v in [0, x - a],
# f piecewise linear, with x in (t_j, t_j + d] and g_l = f(x) - f(t_{j-l}).
# The tip v in [0, x - t_j] contributes B(1) g_0; cell m >= 2,
# v in [tip + (m-2) d, tip + (m-1) d], contributes A(m) g_{m-2} + B(m) g_{m-1}.
# So the sum is sum_l w_l g_l, w_l = B(l+1) + A(l+2), but first_l = B(l+1) on
# the pair reaching a, l = j; at the nodes (tip d) the bracket takes |g_l|.


def _power_moments(k: np.ndarray, delta: float, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Moments of u^(p-1) over the cells [k delta, (k+1) delta]:
    m0 = int u^(p-1) du and m1 = int (u - k delta) u^(p-1) du."""
    m0 = delta**p * (np.float_power(k + 1.0, p) - np.float_power(k, p)) / p
    m1 = delta ** (p + 1.0) * (np.float_power(k + 1.0, p + 1.0) - np.float_power(k, p + 1.0)) / (p + 1.0)
    return m0, m1 - k * delta * m0


def _tip_weights(cells: int, delta: float, sigma: float, tip: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair weights (w, first), l = 0..cells-1, behind a tip of length tip:
    w_l = B(l+1) + A(l+2), whose last entry is B(cells), and first_l = B(l+1)."""
    m0, m1 = _power_moments(tip / delta + np.arange(cells - 1, dtype=float), delta, -sigma)
    first = np.empty(cells)
    first[0] = _power_moments(0.0, tip, 1.0 - sigma)[0] / tip  # on the tip f(x) - f(x - v) = g_0 v / tip
    first[1:] = m1 / delta
    w = first.copy()
    w[:-1] += m0 - first[1:]  # A(m) = m0 - B(m)
    return w, first


@lru_cache(maxsize=4)
def _cell_weights(n: int, delta: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The node pair weights: _tip_weights with tip = delta, read-only. An
    entry holds 16n B and n reaches MAX_STEPS on young_integral's refined
    mesh, so the 4 entries keep at most 1.07 GB (a session reads 3 keys)."""
    w, first = _tip_weights(n, delta, sigma, delta)
    w.setflags(write=False)
    first.setflags(write=False)
    return w, first


@lru_cache(maxsize=2)
def _span_power(n: int, delta: float, sigma: float) -> np.ndarray:
    """(k delta)^(-sigma), k = 1..n: the Marchaud power (x-a)^(-sigma) at the
    nodes, read-only. An entry holds 8n B and young_integral reads sigma =
    alpha and 1 - alpha, so the 2 entries keep at most 268 MB at MAX_STEPS."""
    power = np.float_power(np.arange(1, n + 1, dtype=float) * delta, -sigma)
    power.setflags(write=False)
    return power


@lru_cache(maxsize=2)
def _singular_moments(n: int, delta: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """_power_moments of (u - a)^(-alpha) over the n cells, read-only. An entry
    holds 16n B and n reaches MAX_STEPS on young_integral's refined mesh, so
    the 2 entries (that mesh and integral_bound's) keep at most 537 MB."""
    m0, m1 = _power_moments(np.arange(n, dtype=float), delta, 1.0 - alpha)
    m0.setflags(write=False)
    m1.setflags(write=False)
    return m0, m1


def _marchaud(fx, span_power, sigma: float, integral):
    """D^sigma_{a+} f(x) = (f(x) (x-a)^(-sigma) + sigma integral) / Gamma(1-sigma), integral the pair sum
    and span_power (x-a)^(-sigma)."""
    return (fx * span_power + sigma * integral) / math.gamma(1.0 - sigma)


def _singular_integral(v: np.ndarray, delta: float, alpha: float) -> float:
    """int_a^b PL(v)(u - a)^(-alpha) du, PL(v) the linear interpolant of node values v spaced delta."""
    m0, m1 = _singular_moments(v.size - 1, float(delta), float(alpha))
    return float(np.sum(v[:-1] * m0 + np.diff(v) / delta * m1))


def _left_deriv_nodes(values: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    """(D^sigma_{a+} f) at all grid nodes; entry 0 is nan (undefined at a). At node i
    the pair sum is first_{i-1} (f_i - f_0) plus sum_{l < i-1} w_l (f_i - f_{i-1-l})
    = f_i cumsum(w)_{i-2} - (f[1:] conv w)_{i-2}, the convolution by one real FFT."""
    f = np.asarray(values, dtype=float)
    n = f.size - 1
    w, first = _cell_weights(n, float(delta), float(sigma))
    nfft = 1 << (2 * n - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(f[1:], nfft) * np.fft.rfft(w, nfft), nfft)
    integral = first * (f[1:] - f[0])
    integral[1:] += f[2:] * np.cumsum(w[:-1]) - conv[: n - 1]
    out = np.empty(n + 1)
    out[0] = np.nan
    out[1:] = _marchaud(f[1:], _span_power(n, float(delta), float(sigma)), sigma, integral)
    return out


def _right_deriv_nodes(values: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    """(D^sigma_{b-} g) at all grid nodes; entry n is nan. Phase stripped."""
    return _left_deriv_nodes(np.asarray(values, dtype=float)[::-1], delta, sigma)[::-1]


def _derivative_at(t: np.ndarray, y: np.ndarray, sigma: float, x: float) -> float:
    """D^sigma_{a+} of the interpolant of y on the uniform nodes t at x in (a, b]; the tip is [t_j, x]."""
    x = _in_span("x", x, float(t[0]), float(t[-1]))
    if not x > t[0]:
        raise ValueError(f"x must lie in (a, b], got {x}")
    delta = t[1] - t[0]
    # j in [0, n-1] also where x lies within 1e-9 cells of a or b
    j = min(max(int(np.ceil((x - t[0]) / delta - 1e-9)), 1), t.size - 1) - 1
    w, first = _tip_weights(j + 1, delta, sigma, x - t[j])
    fx = np.interp(x, t, y)
    g = fx - y[j::-1]
    return _marchaud(fx, np.float_power(x - t[0], -sigma), sigma, w[:j] @ g[:j] + first[j] * g[j])


def left_derivative(f: SampledFunction, alpha: float, x: float) -> float:
    """(D^alpha_{a+} f)(x) for x in (a, b], singular kernel integrated exactly."""
    return _derivative_at(f.t, f.y, _validate_order(alpha), x)


def right_derivative(g: SampledFunction, alpha: float, x: float) -> float:
    """(D^{1-alpha}_{b-} g)(x) for x in [a, b), phase dropped: D^{1-alpha}_{a+} of g reversed, at a + (b - x)."""
    alpha, x = _validate_order(alpha), _in_span("x", x, g.a, g.b)
    if not x < g.b:
        raise ValueError(f"x must lie in [a, b), got {x}")
    return _derivative_at(g.t, g.y[::-1], _validate_order(1.0 - alpha), g.a + (g.b - x))


# ---------------------------------------------------------------------------
# Young integral


def young_integral(
    f: SampledFunction,
    g: SampledFunction,
    alpha: float,
    a: float | None = None,
    b: float | None = None,
    refine: int = 8,
) -> float:
    """Pathwise integral of f against dg via fractional derivatives.

    Computes -int phi_f(x) psi(x) dx with phi_f = D^alpha_{a+} f and
    psi = D^{1-alpha}_{b-} (g - g(b)); the two unimodular phase factors
    cancel, and the endpoint compensation of g makes the real-valued form
    agree with the Riemann-Stieltjes integral (f == 1 gives g(b) - g(a)).
    phi_f is D^alpha_{a+} (f - f(a)), integrated against psi by the
    trapezoidal rule, plus f(a) (x-a)^{-alpha} / Gamma(1-alpha), whose
    product with psi's interpolant is integrated by analytic cell moments.

    refine, a positive integer, resamples the piecewise-linear interpolants
    on a mesh that many times finer before quadrature (same function,
    better resolution of the product of the two derivatives; rough
    integrands need it; more than MAX_STEPS cells raise GridResourceError).
    """
    alpha = _validate_order(alpha)
    refine = _integer("refine", refine, low=1)
    if alpha > 0.5:
        warnings.warn(
            "alpha > 1/2: the Young construction is only guaranteed for "
            "integrators smoother than Lipschitz",
            stacklevel=2,
        )
    if not np.array_equal(f.t, g.t):
        raise ValueError("f and g must be sampled on the same nodes")
    if a is not None or b is not None:
        a = f.a if a is None else a
        b = f.b if b is None else b
        f = f.restrict(a, b)
        g = g.restrict(a, b)
    _integer("Young quadrature cells", f.t.size - 1, low=4)
    if refine > 1:
        nf = (f.t.size - 1) * refine
        f, g = (SampledFunction.from_callable(s, s.a, s.b, nf) for s in (f, g))
    delta = f.delta
    phi_reg = _left_deriv_nodes(f.y - f.y[0], delta, alpha)
    phi_reg[0] = 0.0  # the derivative of f - f(a) vanishes at a
    psi = _right_deriv_nodes(g.y - g.y[-1], delta, 1.0 - alpha)
    psi[-1] = 0.0  # compensated integrator vanishes at b
    if not (np.all(np.isfinite(phi_reg)) and np.all(np.isfinite(psi))):
        raise ValueError("non-finite fractional derivative (bad samples?)")
    i_sing = f.y[0] / math.gamma(1.0 - alpha) * _singular_integral(psi, delta, alpha)
    i_reg = float(np.trapezoid(phi_reg * psi, dx=delta))
    return -(i_sing + i_reg)


# ---------------------------------------------------------------------------
# weighted norms


def _abs_power_inplace(sq: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """out = |sq|**p, by square-and-multiply when p is an integer in [1, 64];
    sq is overwritten. The chain squares up to p's lowest set bit, whose
    square starts the product in sq (or, when no bit lies above it, is
    written to out); the running square then moves to out, and each
    higher set bit multiplies it into the product, the last one into out.
    An even p starts from sq * sq, whose bits are those of |sq| * |sq|."""
    if not (p == int(p) and 1 <= p <= 64):
        return np.power(np.abs(sq, out=sq), p, out=out)
    k = int(p)
    low = (k & -k).bit_length() - 1  # p = 2^low x odd
    k >>= low + 1  # the set bits above the lowest
    if low == 0:
        np.abs(sq, out=sq if k else out)
    for i in range(low):
        np.multiply(sq, sq, out=sq if k or i < low - 1 else out)
    if not k:
        return out
    np.multiply(sq, sq, out=out)
    while True:
        if k & 1:
            np.multiply(sq, out, out=sq if k > 1 else out)
        k >>= 1
        if not k:
            return out
        out *= out


def _offset_sum(values: np.ndarray, weights: np.ndarray, first: np.ndarray, power: float = 1.0) -> np.ndarray:
    """out[i] = sum over m = 1..i of w_m |f_i - f_{i-m}|^power for node-major
    values (n+1, ...), with w_m = first[m-1] on the pair that reaches node 0
    and weights[m-1] otherwise: one pass per offset, then one pass over the
    pairs that reach node 0, O(n) memory per path. Each node is read n
    times, so a strided input is gathered first."""
    values = np.ascontiguousarray(values)
    n = values.shape[0] - 1
    out = np.zeros(values.shape)
    diff_buf = np.empty((n,) + values.shape[1:])
    term_buf = diff_buf if power == 1.0 else np.empty_like(diff_buf)
    for m in range(1, n):
        d = np.subtract(values[m + 1 :], values[1 : n + 1 - m], out=diff_buf[: n - m])
        term = np.abs(d, out=d) if power == 1.0 else _abs_power_inplace(d, power, term_buf[: n - m])
        term *= weights[m - 1]
        out[m + 1 :] += term
    # the pair (i, 0) is the last addend of out[i]: add it for every i at once
    d = np.subtract(values[1:], values[0], out=diff_buf)
    term = np.abs(d, out=d) if power == 1.0 else _abs_power_inplace(d, power, term_buf)
    term *= first[:n].reshape((n,) + (1,) * (values.ndim - 1))
    out[1:] += term
    return out


# offsets per block of _offset_total. One holder_functional call (n 8192, eta 0.1, so power 20) took
# 187, 126, 113, 91, 90, 109 and 132 ms with B = 1, 2, 4, 8, 16, 32 and 64 (best of 7 on 2 vCPUs with
# 2 MiB of L2 per core; 131 ms with the cumulative _offset_sum), and at n 16384 B = 4, 8 and 16 took
# 0.32, 0.34 and 0.39 s. Its two (B, n) buffers take 16 x B x n bytes, 2 MiB at _PAIR_N_MAX with B = 8
_OFFSET_BLOCK = 8


def _offset_total(values: np.ndarray, weights: np.ndarray, power: float) -> float:
    """sum over m = 1..n of weights[m-1] sum_i |f_i - f_{i-m}|^power for one
    path of n+1 values: the total of _offset_sum(values, weights, weights,
    power) over its nodes, without the per-node sums. Each block of
    _OFFSET_BLOCK offsets is one (B, L) array of f_{j+m} - f_j, a Hankel
    view of the right-padded values minus their first L entries; the pairs
    past the end of a row, in its last B-1 columns, are set to exactly 0
    (a mask product would turn an inf difference into nan). Each row sums
    pairwise along its contiguous axis, and the weights multiply the n
    per-offset sums once, so no BLAS call sets the order of the sums."""
    f = np.asarray(values, dtype=float)
    n, b = f.size - 1, _OFFSET_BLOCK
    padded = np.zeros(n + b)
    padded[: n + 1] = f
    step = padded.strides[0]
    # past_end[r, c]: column c of the last b-1 lies past the end of row r in a block of L >= b-1 columns
    past_end = np.arange(b - 1) >= np.arange(b - 1, -1, -1)[:, None]
    diff_buf, term_buf = np.empty(b * n), np.empty(b * n)
    sums = np.empty(n + b)
    for m in range(1, n + 1, b):
        cols = n + 1 - m
        ahead = np.lib.stride_tricks.as_strided(padded[m:], (b, cols), (step, step), writeable=False)
        d = np.subtract(ahead, f[:cols], out=diff_buf[: b * cols].reshape(b, cols))
        tail = min(b - 1, cols)
        np.copyto(d[:, cols - tail :], 0.0, where=past_end[:, b - 1 - tail :])
        term = _abs_power_inplace(d, power, term_buf[: b * cols].reshape(b, cols))
        np.sum(term, axis=1, out=sums[m - 1 : m - 1 + b])
    return float(np.sum(weights[:n] * sums[:n]))


def increment_bracket(values: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """int_a^s |f(s)-f(z)| (s-z)^(-1-alpha) dz at every node s."""
    return _increment_bracket_batch(np.asarray(values, dtype=float), delta, alpha)


def _increment_bracket_batch(values: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """Batched increment_bracket: values (n+1, ...) -> bracket (n+1, ...).

    The weight on |f_i - f_{i-m}| is the node pair weight w_{m-1}, or
    first_{m-1} on the pair that reaches z = a, so the bracket is one
    _offset_sum.
    """
    return _offset_sum(values, *_cell_weights(_pair_n(values.shape[0] - 1), float(delta), float(alpha)))


def norm_inf_alpha(f: SampledFunction, alpha: float) -> float:
    """sup_s ( |f(s)| + int_a^s |f(s)-f(z)| (s-z)^(-1-alpha) dz )."""
    alpha = _validate_order(alpha)
    return float(np.max(np.abs(f.y) + increment_bracket(f.y, f.delta, alpha)))


@lru_cache(maxsize=32)
def _norm2_weight_cells(n: int, delta: float, alpha: float) -> np.ndarray:
    """Cell integrals of (s-a)^(-alpha) + (b-s)^(-alpha-1/2) on [a, b] = [a, a + n delta]:
    the moments of both powers, the second read from b. An entry holds 8n B
    and n is at most _PAIR_N_MAX, so the 32 entries keep at most 4 MiB."""
    k = np.arange(n, dtype=float)
    cells = _power_moments(k, delta, 1.0 - alpha)[0] + _power_moments(k, delta, 0.5 - alpha)[0][::-1]
    cells.setflags(write=False)
    return cells


def _norm_2_sq(bracket: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Squared ||.||_{2,alpha} per path of bracket (n+1,) or (n+1, paths) =
    |f| + the increment bracket: the squared bracket averaged over each
    cell's two nodes, times the cell's weight integral (cells from
    _norm2_weight_cells). The sum runs along contiguous path-major rows,
    where numpy sums pairwise; along the node axis it would add in order."""
    rows = np.ascontiguousarray(bracket.T)
    return np.sum(0.5 * (rows[..., :-1] ** 2 + rows[..., 1:] ** 2) * cells, axis=-1)


def norm_2_alpha(f: SampledFunction, alpha: float) -> float:
    """Weighted L2 norm: the squared bracket is piecewise constant per cell,
    the endpoint-singular weight is integrated analytically."""
    alpha = _validate_norm2_order(alpha)
    bracket = np.abs(f.y) + increment_bracket(f.y, f.delta, alpha)
    cells = _norm2_weight_cells(f.t.size - 1, f.delta, alpha)
    return math.sqrt(float(_norm_2_sq(bracket, cells)))


def norms_comparison_constant(alpha: float, a: float, b: float) -> float:
    """C with norm_2_alpha <= C * norm_inf_alpha on [a, b], a finite interval with a < b."""
    alpha, (a, b) = _validate_norm2_order(alpha), _interval("[a, b]", a, b)
    length = b - a
    return math.sqrt(
        length ** (1.0 - alpha) / (1.0 - alpha) + length ** (0.5 - alpha) / (0.5 - alpha)
    )


def integral_bound(f: SampledFunction, alpha: float, k_b: float) -> float:
    """Diagnostic majorant of |int f dB^H| on the sample interval.

    k_b times int_u^v ( |f(s)| (s-u)^(-alpha) + inner increment integral ) ds
    with the GRR constant taken as 1.
    """
    alpha, k_b = _validate_order(alpha), _real("k_b", k_b)
    delta = f.delta
    bracket = increment_bracket(f.y, delta, alpha)  # refuses n above _PAIR_N_MAX first
    outer_sing = _singular_integral(np.abs(f.y), delta, alpha)
    return k_b * (outer_sing + float(np.trapezoid(bracket, dx=delta)))
