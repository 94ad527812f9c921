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

from .grid import TimeGrid, _in_span, _integer, _node_of, _node_values, _real

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
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        t = a + (b - a) * np.arange(n + 1) / n
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
# product-integration cell weights
#
# Every weight is a moment of a power over a cell, from _power_moments.
# D^s_{a+} f(x) integrates (f(x) - f(x - v)) v^(-1-s) over v in [0, x - a],
# f piecewise linear, with x in (t_j, t_j + d] and g_l = f(x) - f(t_{j-l}).
# The tip v in [0, x - t_j] contributes B(1) g_0; cell m >= 2,
# v in [tip + (m-2) d, tip + (m-1) d], contributes A(m) g_{m-2} + B(m) g_{m-1}.
# At the node x = t_i the tip is d and the weights are Toeplitz:
#   contribution = A(m) (f_i - f_{i-m+1}) + B(m) (f_i - f_{i-m}).


def _power_moments(k: np.ndarray, delta: float, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Moments of u^(p-1) over the cells [k delta, (k+1) delta]:
    m0 = int u^(p-1) du and m1 = int (u - k delta) u^(p-1) du."""
    m0 = delta**p * ((k + 1.0) ** p - k**p) / p
    m1 = delta ** (p + 1.0) * ((k + 1.0) ** (p + 1.0) - k ** (p + 1.0)) / (p + 1.0) - k * delta * m0
    return m0, m1


def _tip_weights(cells: int, delta: float, sigma: float, tip: float) -> tuple[np.ndarray, np.ndarray]:
    """A(m), B(m) for m = 0..cells behind a tip of length tip; A(0), B(0) and A(1) are 0."""
    m0, m1 = _power_moments(tip / delta + np.arange(cells - 1, dtype=float), delta, -sigma)
    a_w, b_w = np.zeros(cells + 1), np.zeros(cells + 1)
    b_w[1] = _power_moments(0.0, tip, 1.0 - sigma)[0] / tip  # on the tip f(x) - f(x - v) = g_0 v / tip
    b_w[2:] = m1 / delta
    a_w[2:] = m0 - b_w[2:]
    return a_w, b_w


@lru_cache(maxsize=64)
def _cell_weights(n: int, delta: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The node weights: _tip_weights with tip = delta, read-only."""
    a_w, b_w = _tip_weights(n, delta, sigma, delta)
    a_w.setflags(write=False)
    b_w.setflags(write=False)
    return a_w, b_w


def _singular_integral(v: np.ndarray, delta: float, alpha: float) -> float:
    """int_a^b PL(v)(u - a)^(-alpha) du, PL(v) the linear interpolant of node values v spaced delta."""
    m0, m1 = _power_moments(np.arange(v.size - 1, dtype=float), delta, 1.0 - alpha)
    return float(np.sum(v[:-1] * m0 + np.diff(v) / delta * m1))


def _conv_full(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Full linear convolution via real FFT."""
    n = x.size + w.size - 1
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(w, nfft), nfft)[:n]


def _left_deriv_nodes(values: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    """(D^sigma_{a+} f) at all grid nodes; entry 0 is nan (undefined at a)."""
    f = np.asarray(values, dtype=float)
    n = f.size - 1
    a_w, b_w = _cell_weights(n, float(delta), float(sigma))
    csum = np.cumsum(a_w + b_w)
    conv_a = _conv_full(f[1:], a_w[1:])[:n]
    conv_b = _conv_full(f[:-1], b_w[1:])[:n]
    i = np.arange(1, n + 1, dtype=float)
    integral = f[1:] * csum[1:] - conv_a - conv_b
    bracket = f[1:] * (i * delta) ** -sigma + sigma * integral
    out = np.empty(n + 1)
    out[0] = np.nan
    out[1:] = bracket / math.gamma(1.0 - sigma)
    return out


def _right_deriv_nodes(values: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    """(D^sigma_{b-} g) at all grid nodes; entry n is nan. Phase stripped."""
    return _left_deriv_nodes(np.asarray(values, dtype=float)[::-1], delta, sigma)[::-1]


def left_derivative(f: SampledFunction, alpha: float, x: float) -> float:
    """(D^alpha_{a+} f)(x) for x in (a, b], singular kernel integrated exactly."""
    alpha, x = _validate_order(alpha), _in_span("x", x, f.a, f.b)
    if not x > f.a:
        raise ValueError(f"x must lie in (a, b], got {x}")
    # the tip [t_j, x]; j in [0, n-1] also where x lies within 1e-9 cells of a or b
    j = min(max(int(np.ceil((x - f.a) / f.delta - 1e-9)), 1), f.t.size - 1) - 1
    a_w, b_w = _tip_weights(j + 1, f.delta, alpha, x - f.t[j])
    fx = f(x)
    g = fx - f.y[j::-1]
    integral = np.sum(b_w[1:] * g) + np.sum(a_w[2:] * g[:-1])
    bracket = fx * (x - f.a) ** -alpha + alpha * integral
    return bracket / math.gamma(1.0 - alpha)


def right_derivative(g: SampledFunction, alpha: float, x: float) -> float:
    """(D^{1-alpha}_{b-} g)(x) for x in [a, b), with the phase factor dropped."""
    alpha, x = _validate_order(alpha), _in_span("x", x, g.a, g.b)
    if not x < g.b:
        raise ValueError(f"x must lie in [a, b), got {x}")
    reflected = SampledFunction(g.t, g.y[::-1])
    return left_derivative(reflected, 1.0 - alpha, g.a + (g.b - x))


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
    The f(a) (x-a)^{-alpha} singularity is split off and integrated against
    analytic cell moments; the remainder is trapezoidal.

    refine, a positive integer, resamples the piecewise-linear interpolants
    on a mesh that many times finer before quadrature (same function,
    better resolution of the product of the two derivatives; rough
    integrands need it).
    """
    alpha = _validate_order(alpha)
    refine = _integer("refine", refine)
    if refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine}")
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
    if f.t.size - 1 < 4:
        raise ValueError("Young quadrature needs at least 4 cells")
    if refine > 1:
        nf = (f.t.size - 1) * refine
        f, g = (SampledFunction.from_callable(s, s.a, s.b, nf) for s in (f, g))
    n = f.t.size - 1
    delta = f.delta
    phi = _left_deriv_nodes(f.y, delta, alpha)
    psi = _right_deriv_nodes(g.y - g.y[-1], delta, 1.0 - alpha)
    psi[-1] = 0.0  # compensated integrator vanishes at b
    if not (np.all(np.isfinite(phi[1:])) and np.all(np.isfinite(psi))):
        raise ValueError("non-finite fractional derivative (bad samples?)")
    gamma1 = math.gamma(1.0 - alpha)
    i = np.arange(1, n + 1, dtype=float)
    phi_reg = np.empty(n + 1)
    phi_reg[0] = 0.0
    phi_reg[1:] = phi[1:] - f.y[0] * (i * delta) ** -alpha / gamma1
    i_sing = f.y[0] / gamma1 * _singular_integral(psi, delta, alpha)
    i_reg = float(np.trapezoid(phi_reg * psi, dx=delta))
    return -(i_sing + i_reg)


# ---------------------------------------------------------------------------
# weighted norms


def _abs_power_inplace(sq: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """out = |sq|**p, using square-and-multiply when p is a small integer;
    sq is overwritten (it holds the squares)."""
    np.abs(sq, out=sq)
    if p == int(p) and 1 <= p <= 64:
        k = int(p)
        while not k & 1:
            sq *= sq
            k >>= 1
        out[...] = sq
        k >>= 1
        while k:
            sq *= sq
            if k & 1:
                out *= sq
            k >>= 1
        return out
    return np.power(sq, p, out=out)


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


def increment_bracket(values: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """int_a^s |f(s)-f(z)| (s-z)^(-1-alpha) dz at every node s."""
    return _increment_bracket_batch(np.asarray(values, dtype=float), delta, alpha)


def _increment_bracket_batch(values: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """Batched increment_bracket: values (n+1, ...) -> bracket (n+1, ...).

    The weight on |f_i - f_{i-m}| is b_w[m] + a_w[m+1] [i-m >= 1], Toeplitz
    in the offset m except for the column z = a, so the bracket is one
    _offset_sum.
    """
    a_w, b_w = _cell_weights(values.shape[0] - 1, float(delta), float(alpha))
    return _offset_sum(values, b_w[1:] + np.append(a_w[2:], 0.0), b_w[1:])


def norm_inf_alpha(f: SampledFunction, alpha: float) -> float:
    """sup_s ( |f(s)| + int_a^s |f(s)-f(z)| (s-z)^(-1-alpha) dz )."""
    alpha = _validate_order(alpha)
    return float(np.max(np.abs(f.y) + increment_bracket(f.y, f.delta, alpha)))


@lru_cache(maxsize=32)
def _norm2_weight_cells(n: int, delta: float, alpha: float) -> np.ndarray:
    """Cell integrals of (s-a)^(-alpha) + (b-s)^(-alpha-1/2) on [a, b] = [a, a + n delta]:
    the moments of both powers, the second read from b."""
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
    alpha, a, b = _validate_norm2_order(alpha), _real("a", a), _real("b", b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"the interval [a, b] must be finite with a < b, got [{a}, {b}]")
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
    outer_sing = _singular_integral(np.abs(f.y), delta, alpha)
    bracket = increment_bracket(f.y, delta, alpha)
    return k_b * (outer_sing + float(np.trapezoid(bracket, dx=delta)))
