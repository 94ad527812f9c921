import math

import numpy as np
import pytest

from mixedsde import (
    GridResourceError,
    SampledFunction,
    TimeGrid,
    fraccalc,
    generate_fbm,
    holder_functional,
    integral_bound,
    left_derivative,
    norm_2_alpha,
    norm_inf_alpha,
    norms_comparison_constant,
    right_derivative,
    young_integral,
)
from mixedsde.fraccalc import (
    _OFFSET_BLOCK,
    _abs_power_inplace,
    _increment_bracket_batch,
    _left_deriv_nodes,
    _offset_sum,
    _offset_total,
    _power_moments,
    _right_deriv_nodes,
    increment_bracket,
)
from mixedsde.grid import MAX_STEPS
from mixedsde.rng import stream

G = math.gamma


def _sf(fn, a=0.0, b=1.0, n=1024):
    return SampledFunction.from_callable(fn, a, b, n)


# ---------------------------------------------------------------------------
# fractional derivatives


def test_left_derivative_of_constant():
    f = _sf(lambda u: np.full_like(u, 3.0), n=64)
    for x in (0.25, 0.5, 1.0):
        assert left_derivative(f, 0.3, x) == pytest.approx(3.0 / (G(0.7) * x**0.3), rel=1e-12)


def test_right_derivative_of_constant():
    g = _sf(lambda u: np.full_like(u, 2.0), n=64)
    for x in (0.0, 0.5, 0.75):
        expected = 2.0 / (G(0.4) * (1.0 - x) ** 0.6)
        assert right_derivative(g, 0.4, x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("gamma_exp", [0.6, 0.9, 1.0])
@pytest.mark.parametrize("alpha", [0.3, 0.4])
def test_left_derivative_power_oracle(gamma_exp, alpha):
    # closed form: D^a (u-a)^g = Gamma(g+1)/Gamma(g+1-a) (x-a)^(g-a)
    f = _sf(lambda u: u**gamma_exp, n=4096)
    for x in (0.5, 1.0):
        exact = G(gamma_exp + 1.0) / G(gamma_exp + 1.0 - alpha) * x ** (gamma_exp - alpha)
        assert left_derivative(f, alpha, x) == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize("gamma_exp", [0.6, 0.9, 1.0])
@pytest.mark.parametrize("alpha", [0.3, 0.4])
def test_right_derivative_power_oracle(gamma_exp, alpha):
    # closed form: D^{1-a}_{b-} (b-u)^g = Gamma(g+1)/Gamma(g+a) (b-x)^(g+a-1)
    g = _sf(lambda u: (1.0 - u) ** gamma_exp, n=4096)
    for x in (0.0, 0.5):
        exact = G(gamma_exp + 1.0) / G(gamma_exp + alpha) * (1.0 - x) ** (gamma_exp + alpha - 1.0)
        assert right_derivative(g, alpha, x) == pytest.approx(exact, rel=1e-4)


def test_derivatives_between_nodes():
    # evaluation points need not be grid nodes; the tip cell is integrated
    # against the exact piecewise-linear interpolant
    f = _sf(lambda u: u**0.9, n=4096)
    x = 0.33371
    exact = G(1.9) / G(1.5) * x**0.5
    assert left_derivative(f, 0.4, x) == pytest.approx(exact, rel=1e-4)
    g = _sf(lambda u: (1.0 - u) ** 0.9, n=4096)
    exact = G(1.9) / G(1.3) * (1.0 - x) ** 0.3
    assert right_derivative(g, 0.4, x) == pytest.approx(exact, rel=1e-4)


def test_derivative_domain_errors():
    f = _sf(lambda u: u, n=16)
    with pytest.raises(ValueError):
        left_derivative(f, 0.3, 0.0)
    with pytest.raises(ValueError):
        right_derivative(f, 0.3, 1.0)
    with pytest.raises(ValueError):
        left_derivative(f, 1.3, 0.5)


@pytest.mark.parametrize("a, b, n", [(1.0, 3.3, 10000), (0.3, 1.9, 65536)])
def test_derivatives_at_the_closed_ends_of_linspace_nodes(a, b, n):
    # (b - a) / delta can pass n by rounding; the tip cell stays the last one
    t = np.linspace(a, b, n + 1)
    f = SampledFunction(t, np.sin(3.0 * t))
    assert left_derivative(f, 0.3, t[-1]) == pytest.approx(_left_deriv_nodes(f.y, f.delta, 0.3)[-1], rel=1e-9)
    assert right_derivative(f, 0.3, t[0]) == pytest.approx(_right_deriv_nodes(f.y, f.delta, 0.7)[0], rel=1e-9)


def test_derivatives_within_roundoff_of_a_closed_end():
    grid = TimeGrid(1.0, 16384)
    f = SampledFunction.from_grid(grid, np.sin(3.0 * grid.nodes))
    assert left_derivative(f, 0.3, 1.0 + 5e-13) == left_derivative(f, 0.3, 1.0)
    assert right_derivative(f, 0.3, -5e-13) == right_derivative(f, 0.3, 0.0)


@pytest.mark.parametrize("v", [1e-15, 1e-12])
def test_derivatives_within_1e_9_cells_of_the_open_end(v):
    # the tip cell is the first one; f and g are linear, so their interpolants are exact
    alpha, x = 0.3, 1.0 - v  # 1 - x is v rounded to the float spacing near 1
    assert left_derivative(_sf(lambda u: u, n=16), alpha, v) == pytest.approx(v ** (1 - alpha) / G(2 - alpha), rel=1e-9)
    exact = (1.0 - x) ** alpha / G(1 + alpha)
    assert right_derivative(_sf(lambda u: 1.0 - u, n=16), alpha, x) == pytest.approx(exact, rel=1e-9)


def test_right_derivative_of_fbm_bounded():
    # D^{1-alpha}_{b-} B^H exists in L_inf for alpha > 1-H; the sup stays
    # bounded across sampled paths (bound pinned from measurement)
    grid = TimeGrid(1.0, 512)
    sups = []
    for seed in range(100):
        path = generate_fbm(grid, 0.7, seed)
        psi = _right_deriv_nodes(path.values, grid.delta, 1.0 - 0.35)
        assert np.all(np.isfinite(psi[:-1]))
        sups.append(float(np.max(np.abs(psi[:-1]))))
    assert max(sups) < 500.0


# ---------------------------------------------------------------------------
# Young integral


def test_young_constant_integrand_gives_increment():
    g = _sf(lambda u: np.cos(3.0 * u), n=2048)
    one = _sf(lambda u: np.ones_like(u), n=2048)
    exact = math.cos(3.0) - 1.0
    assert young_integral(one, g, 0.35) == pytest.approx(exact, rel=1e-4)


def test_young_x_dx2():
    f = _sf(lambda u: u, n=4096)
    g = _sf(lambda u: u**2, n=4096)
    assert young_integral(f, g, 0.3) == pytest.approx(2.0 / 3.0, rel=1e-4)


def _rs_midpoint(f_fn, g_fn, a, b, n=1 << 15):
    """Independent oracle: midpoint Riemann-Stieltjes sums on a fine grid."""
    x = a + (b - a) * np.arange(n + 1) / n
    mid = 0.5 * (x[:-1] + x[1:])
    return float(np.sum(f_fn(mid) * np.diff(g_fn(x))))


SMOOTH_PAIRS = [
    # (f, g, a, b, analytic value or None -> Riemann-Stieltjes oracle)
    (lambda u: u, lambda u: u**2, 0.0, 1.0, 2.0 / 3.0),
    (lambda u: np.ones_like(u), lambda u: u**2, 0.0, 1.0, 1.0),
    (lambda u: u**2, lambda u: u, 0.0, 1.0, 1.0 / 3.0),
    (lambda u: u**3, lambda u: u**2, 0.0, 1.0, 2.0 / 5.0),
    (lambda u: np.sin(u), lambda u: np.cos(u), 0.0, 1.0, None),
    (lambda u: np.exp(u), lambda u: np.exp(u), 0.0, 1.0, (math.e**2 - 1.0) / 2.0),
    (lambda u: np.cos(u), lambda u: u**3, 0.0, 1.0, None),
    (lambda u: u**1.5, lambda u: u**1.5, 0.0, 1.0, 0.5),
    (lambda u: np.exp(-u), lambda u: np.sin(2.0 * u), 0.0, 1.0, None),
    (lambda u: np.log(1.0 + u), lambda u: u**2, 0.0, 1.0, None),
    (lambda u: np.sqrt(1.0 + u), lambda u: np.cos(u), 0.0, 1.0, None),
    (lambda u: 1.0 / (1.0 + u**2), lambda u: np.exp(u), 0.0, 1.0, None),
    (lambda u: np.sin(3.0 * u), lambda u: u, 0.0, 1.0, None),
    (lambda u: u, lambda u: np.sin(u), 0.0, 1.0, None),
    (lambda u: u**3, lambda u: np.exp(-u), 0.0, 1.0, None),
    (lambda u: 1.0 + u**2, lambda u: u + 0.5 * u**2, 0.0, 1.0, None),
    (lambda u: np.cos(2.0 * u), lambda u: np.sin(u), 0.0, 1.0, None),
    (lambda u: u * np.exp(u), lambda u: u**2, 0.0, 1.0, None),
    (lambda u: np.sin(u) ** 2, lambda u: np.cos(2.0 * u), 0.0, 1.0, None),
    (lambda u: u, lambda u: u**2, 0.5, 2.0, (2.0 * 8.0 - 2.0 * 0.125) / 3.0),
    (lambda u: np.exp(u), lambda u: np.sin(u), 0.5, 2.0, None),
    (lambda u: u**2 + np.cos(u), lambda u: np.exp(0.5 * u), 0.5, 2.0, None),
]


@pytest.mark.parametrize("case", range(len(SMOOTH_PAIRS)))
def test_young_smooth_oracle_corpus(case):
    f_fn, g_fn, a, b, exact = SMOOTH_PAIRS[case]
    if exact is None:
        exact = _rs_midpoint(f_fn, g_fn, a, b)
    f = SampledFunction.from_callable(f_fn, a, b, 4096)
    g = SampledFunction.from_callable(g_fn, a, b, 4096)
    alpha = 0.3 if case % 3 else 0.45
    assert young_integral(f, g, alpha) == pytest.approx(exact, rel=1e-4)


def test_young_linearity():
    n = 2048
    f = _sf(np.sin, n=n)
    h = _sf(np.exp, n=n)
    g = _sf(lambda u: np.cos(u) + 0.5 * u, n=n)
    lam, rho = 2.5, -1.25
    comb = SampledFunction(f.t, lam * f.y + rho * h.y)
    lhs = young_integral(comb, g, 0.3)
    rhs = lam * young_integral(f, g, 0.3) + rho * young_integral(h, g, 0.3)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_young_additivity_over_intervals():
    n = 8192
    f = SampledFunction.from_callable(np.sin, 0.0, 2.0, n)
    g = SampledFunction.from_callable(lambda u: np.cos(u) + 0.5 * u, 0.0, 2.0, n)
    whole = young_integral(f, g, 0.3)
    parts = young_integral(f, g, 0.3, 0.0, 1.0) + young_integral(f, g, 0.3, 1.0, 2.0)
    assert whole == pytest.approx(parts, rel=1e-6)


def test_young_refinement_consistency():
    exact = 2.0 / 3.0
    errs = []
    for n in (256, 512, 1024):
        f = _sf(lambda u: u, n=n)
        g = _sf(lambda u: u**2, n=n)
        errs.append(abs(young_integral(f, g, 0.3) - exact))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < errs[0] / 2.0  # at least first order


def test_young_fbm_chain_rule():
    grid = TimeGrid(1.0, 2048)
    rel = []
    for seed in range(20):
        path = generate_fbm(grid, 0.7, seed)
        b = SampledFunction.from_grid(grid, path.values)
        got = young_integral(b, b, 0.35)
        exact = 0.5 * path.values[-1] ** 2
        rel.append(abs(got - exact) / abs(exact))
    assert float(np.median(rel)) < 1e-2


def test_young_warns_above_half():
    f = _sf(lambda u: u, n=64)
    g = _sf(lambda u: u, n=64)
    with pytest.warns(UserWarning, match="alpha > 1/2"):
        young_integral(f, g, 0.6)


def test_young_rejects_mismatched_grids():
    f = _sf(lambda u: u, n=64)
    g = _sf(lambda u: u, n=128)
    with pytest.raises(ValueError):
        young_integral(f, g, 0.3)


# ---------------------------------------------------------------------------
# norms


def test_norm_inf_trivials():
    zero = _sf(lambda u: np.zeros_like(u), n=128)
    const = _sf(lambda u: np.full_like(u, -4.0), n=128)
    assert norm_inf_alpha(zero, 0.3) == 0.0
    assert norm_inf_alpha(const, 0.3) == pytest.approx(4.0, rel=1e-12)


def test_norm_inf_linear_analytic():
    # sup_s (s + s^(1-a)/(1-a)) on [0,1] = 1 + 1/(1-a)
    f = _sf(lambda u: u, n=2048)
    assert norm_inf_alpha(f, 0.3) == pytest.approx(1.0 + 1.0 / 0.7, rel=1e-6)


def test_norm_2_trivials_and_weight_integral():
    zero = _sf(lambda u: np.zeros_like(u), n=128)
    assert norm_2_alpha(zero, 0.3) == 0.0
    # the cells integrate the weight, so ||1|| is the comparison constant, also where n delta rounds below b - a
    for t in (np.arange(513) / 512, np.linspace(0.0, 1.0, 50), np.linspace(0.3, 1.9, 376)):
        one = SampledFunction(t, np.ones(t.size))
        assert norm_2_alpha(one, 0.3) == pytest.approx(norms_comparison_constant(0.3, t[0], t[-1]), rel=1e-12)
    assert norms_comparison_constant(0.3, 0.0, 1.0) == pytest.approx(math.sqrt(1.0 / 0.7 + 1.0 / 0.2), rel=1e-15)


def test_norm_2_rejects_alpha_half():
    f = _sf(lambda u: u, n=32)
    with pytest.raises(ValueError):
        norm_2_alpha(f, 0.5)


def test_norms_homogeneous_and_triangle():
    rng = stream(3, 10)
    t = np.arange(257) / 256.0
    for _ in range(10):
        fy = np.interp(t, np.linspace(0, 1, 9), rng.normal(size=9))
        gy = np.interp(t, np.linspace(0, 1, 9), rng.normal(size=9))
        f = SampledFunction(t, fy)
        g = SampledFunction(t, gy)
        fg = SampledFunction(t, fy + gy)
        lam = -2.5
        for norm in (norm_inf_alpha, norm_2_alpha):
            assert norm(SampledFunction(t, lam * fy), 0.3) == pytest.approx(
                abs(lam) * norm(f, 0.3), rel=1e-10
            )
            assert norm(fg, 0.3) <= norm(f, 0.3) + norm(g, 0.3) + 1e-10


def test_norm_comparison_constant():
    rng = stream(4, 11)
    t = np.arange(257) / 256.0
    c = norms_comparison_constant(0.3, 0.0, 1.0)
    for _ in range(10):
        f = SampledFunction(t, np.interp(t, np.linspace(0, 1, 9), rng.normal(size=9)))
        assert norm_2_alpha(f, 0.3) <= c * norm_inf_alpha(f, 0.3) * (1.0 + 1e-12)


def test_increment_bracket_zero_for_constant():
    assert np.all(increment_bracket(np.full(65, 2.0), 1 / 64, 0.3) == 0.0)


def _pair_weight(delta: float, sigma: float, i: int, j: int) -> float:
    # the weight on f(t_i) - f(t_j) in int_0^{t_i - a} (f(t_i) - f(t_i - v)) v^(-1-sigma) dv,
    # f linear on each cell: B(m) from the cell [(m-1) delta, m delta], m = i - j,
    # plus A(m+1) from the cell behind it unless t_j is a
    def a_b(m):  # the weights on the near and the far end of cell m
        if m == 1:
            return 0.0, _power_moments(0.0, delta, 1.0 - sigma)[0] / delta
        m0, m1 = _power_moments(np.array(m - 1.0), delta, -sigma)
        return float(m0 - m1 / delta), float(m1 / delta)

    return a_b(i - j)[1] + (a_b(i - j + 1)[0] if j >= 1 else 0.0)


def _bracket_double_loop(f: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    # the weight on |f_i - f_j| straight from the cell moments, one pair at a time
    n = f.size - 1
    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        for j in range(i):
            out[i] += _pair_weight(delta, alpha, i, j) * abs(f[i] - f[j])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256])
def test_increment_bracket_batch_matches_double_loop(n):
    rng = np.random.default_rng(n)
    values = np.cumsum(rng.normal(size=(3, n + 1)), axis=1)
    got = _increment_bracket_batch(values.T, 1.0 / n, 0.35)
    assert got.shape == values.T.shape
    for row, out in zip(values, got.T):
        np.testing.assert_allclose(out, _bracket_double_loop(row, 1.0 / n, 0.35), rtol=1e-12, atol=0.0)


def _left_deriv_double_loop(f: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    # the bracket's signed twin: the Marchaud form on the same pair weights
    out = np.full(f.size, np.nan)
    for i in range(1, f.size):
        integral = sum(_pair_weight(delta, sigma, i, j) * (f[i] - f[j]) for j in range(i))
        out[i] = (f[i] * (i * delta) ** -sigma + sigma * integral) / G(1.0 - sigma)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, "linspace"])
def test_left_deriv_nodes_matches_double_loop(n):
    t = np.linspace(0.3, 1.9, 377) if n == "linspace" else np.arange(n + 1) / n
    # positive and increasing, so every term of the Marchaud sum is positive and rel 1e-12 is meaningful
    f = 2.0 + np.cumsum(np.abs(np.random.default_rng(t.size).normal(size=t.size)))
    delta = t[1] - t[0]
    np.testing.assert_allclose(_left_deriv_nodes(f, delta, 0.35), _left_deriv_double_loop(f, delta, 0.35), rtol=1e-12)


def test_right_derivative_is_the_left_derivative_of_the_reflection():
    g = SampledFunction(np.linspace(0.3, 1.9, 377), np.sin(3.0 * np.linspace(0.3, 1.9, 377)))
    reflected = SampledFunction(g.t, g.y[::-1])
    alpha = 0.35
    for x in (g.t[0], g.t[1], g.t[300], g.t[300] + 0.37 * g.delta, g.t[5] + 0.81 * g.delta, g.t[-2]):
        assert right_derivative(g, alpha, x) == left_derivative(reflected, 1.0 - alpha, g.a + (g.b - x))


def test_increment_bracket_is_the_batch_on_one_row():
    row = np.cumsum(np.random.default_rng(5).normal(size=65))
    assert np.array_equal(increment_bracket(row, 1 / 64, 0.3), _increment_bracket_batch(row[:, None], 1 / 64, 0.3)[:, 0])


def test_increment_bracket_batch_confines_nan_to_its_row():
    values = np.cumsum(np.random.default_rng(6).normal(size=(3, 33)), axis=1)
    clean = _increment_bracket_batch(values.T, 1 / 32, 0.3)
    values[1, 5] = np.nan
    got = _increment_bracket_batch(values.T, 1 / 32, 0.3)
    assert np.array_equal(got[:, [0, 2]], clean[:, [0, 2]])
    assert np.all(np.isfinite(got[:5, 1])) and np.all(np.isnan(got[5:, 1]))


def _offset_sum_per_offset(values, weights, first, power=1.0):
    # the offset loop that adds each node-0 pair inside its own offset's pass
    values = np.ascontiguousarray(values)
    n = values.shape[0] - 1
    out = np.zeros(values.shape)
    diff_buf = np.empty((n,) + values.shape[1:])
    term_buf = diff_buf if power == 1.0 else np.empty_like(diff_buf)
    for m in range(1, n + 1):
        d = np.subtract(values[m:], values[:-m], out=diff_buf[: n + 1 - m])
        term = np.abs(d, out=d) if power == 1.0 else _abs_power_inplace(d, power, term_buf[: n + 1 - m])
        out[m] += first[m - 1] * term[0]
        term[1:] *= weights[m - 1]
        out[m + 1 :] += term[1:]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 257])
@pytest.mark.parametrize("power", [1.0, 20.0])
@pytest.mark.parametrize("paths", [None, 4])
def test_offset_sum_matches_the_per_offset_loop_bit_for_bit(n, power, paths):
    rng = np.random.default_rng(n)
    shape = (n + 1,) if paths is None else (n + 1, paths)
    values = np.cumsum(rng.normal(size=shape), axis=0)
    weights, first = rng.random(n), rng.random(n)
    cases = [values]
    if paths is not None:
        with_nan = values.copy()
        with_nan[n // 2 + 1, 2] = np.nan
        cases.append(with_nan)
    for v in cases:
        got = _offset_sum(v, weights, first, power)
        assert got.shape == shape
        assert np.array_equal(got, _offset_sum_per_offset(v, weights, first, power), equal_nan=True)


def _abs_power_by_copy(sq, p, out):
    # the square-and-multiply chain that takes |sq| first and copies the lowest set bit's square into out
    np.abs(sq, out=sq)
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


@pytest.mark.parametrize("p", range(1, 65))
def test_abs_power_chain_matches_the_copying_chain_bit_for_bit(p):
    rng = np.random.default_rng(p)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0]
    values = np.concatenate([special, rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200)])
    with np.errstate(over="ignore", under="ignore"):
        want = _abs_power_by_copy(values.copy(), p, np.empty_like(values))
        got = _abs_power_inplace(values.copy(), p, np.empty_like(values))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("n", [1, 2, _OFFSET_BLOCK - 1, _OFFSET_BLOCK, _OFFSET_BLOCK + 1, 3 * _OFFSET_BLOCK + 2, 257])
@pytest.mark.parametrize("power", [20.0, 2.0, 1.0, 7.0, 2.5])
def test_offset_total_matches_the_pair_by_pair_sum(n, power):
    rng = np.random.default_rng(n)
    values, weights = np.cumsum(rng.normal(size=n + 1)), rng.random(n)
    want = math.fsum(
        weights[m - 1] * math.fsum(abs(values[i] - values[i - m]) ** power for i in range(m, n + 1))
        for m in range(1, n + 1)
    )
    assert _offset_total(values, weights, power) == pytest.approx(want, rel=1e-12)


def test_offset_total_keeps_inf_and_nan_in_the_pairs_they_touch():
    values = np.cumsum(np.random.default_rng(2).normal(size=3 * _OFFSET_BLOCK + 2))
    weights = np.ones(values.size - 1)
    values[-1] = np.inf  # its differences against the padding past the row ends must not give nan
    assert _offset_total(values, weights, 20.0) == np.inf
    values[5] = np.nan
    assert np.isnan(_offset_total(values, weights, 20.0))


# ---------------------------------------------------------------------------
# integral bound


def test_integral_bound_trivials():
    zero = _sf(lambda u: np.zeros_like(u), n=64)
    assert integral_bound(zero, 0.3, 1.0) == 0.0
    one = _sf(lambda u: np.ones_like(u), n=512)
    assert integral_bound(one, 0.3, 1.0) == pytest.approx(1.0 / 0.7, rel=1e-12)


def test_integral_bound_dominates_young_against_fbm():
    # |int f dB^H| <= 10 * bound with the GRR constants dropped
    grid = TimeGrid(1.0, 512)
    alpha, h, eps = 0.35, 0.7, 0.04  # eps < alpha + H - 1
    rng = stream(77, 5)
    for seed in range(100):
        path = generate_fbm(grid, h, seed)
        k_b = holder_functional(path, eps).value
        f = SampledFunction(grid.nodes, np.interp(grid.nodes, np.linspace(0, 1, 9), rng.normal(size=9)))
        b = SampledFunction.from_grid(grid, path.values)
        assert abs(young_integral(f, b, alpha)) <= 10.0 * integral_bound(f, alpha, k_b)


# ---------------------------------------------------------------------------
# node-array derivative internals agree with the pointwise evaluations


def test_node_arrays_match_single_point():
    f = _sf(np.sin, n=256)
    phi = _left_deriv_nodes(f.y, f.delta, 0.35)
    for i in (1, 17, 128, 256):
        assert phi[i] == pytest.approx(left_derivative(f, 0.35, f.t[i]), rel=1e-12)
    psi = _right_deriv_nodes(f.y, f.delta, 0.65)
    for i in (0, 40, 255):
        assert psi[i] == pytest.approx(right_derivative(f, 0.35, f.t[i]), rel=1e-12)


# ---------------------------------------------------------------------------
# refusals of young_integral's input


@pytest.mark.parametrize("refine", [0, -2, True, 2.5])
def test_young_refine_must_be_a_positive_integer(refine):
    f = _sf(lambda u: u, n=64)
    with pytest.raises(ValueError, match=rf"refine must be (at least 1|an integer), got {refine!r}"):
        young_integral(f, f, 0.3, refine=refine)
    assert young_integral(f, f, 0.3, refine=1) == pytest.approx(0.5, rel=1e-2)  # int_0^1 u du, unrefined


def test_a_resampled_mesh_above_max_steps_is_refused_before_the_function_is_called():
    def never(u):
        raise AssertionError("sampled above MAX_STEPS")

    with pytest.raises(GridResourceError, match=f"n={MAX_STEPS + 1} exceeds MAX_STEPS"):
        SampledFunction.from_callable(never, 0.0, 1.0, MAX_STEPS + 1)
    f = _sf(lambda u: u, n=64)
    refine = MAX_STEPS // 64 + 1
    with pytest.raises(GridResourceError, match=f"n={64 * refine} exceeds MAX_STEPS"):
        young_integral(f, f, 0.3, refine=refine)


def test_from_callable_takes_the_nodes_of_a_time_grid():
    # a + TimeGrid(b - a, n).nodes, k (b - a) / n, is bit for bit a + (b - a) k / n: IEEE products commute
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, n = rng.uniform(-5.0, 5.0), int(rng.integers(1, 2000))
        b = a + rng.uniform(1e-3, 10.0)
        t = SampledFunction.from_callable(np.sin, a, b, n).t
        assert np.array_equal(t, a + TimeGrid(b - a, n).nodes)
        assert np.array_equal(t, a + (b - a) * np.arange(n + 1) / n)


def test_young_refuses_fewer_than_4_cells():
    f = _sf(lambda u: u, n=3)
    with pytest.raises(ValueError, match="Young quadrature cells must be at least 4, got 3"):
        young_integral(f, f, 0.3)
    f = _sf(lambda u: u, n=64)
    with pytest.raises(ValueError, match="Young quadrature cells must be at least 4, got 3"):
        young_integral(f, f, 0.3, 0.0, 3 / 64)


@pytest.mark.parametrize("b", [float("inf"), float("nan"), 0.3])
def test_young_refuses_an_interval_end_off_the_nodes(b):
    f = _sf(lambda u: u, n=64)
    with pytest.raises(ValueError, match=r"time .* is not a node of this grid \(n=64, T=1.0\)"):
        young_integral(f, f, 0.3, 0.0, b)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.75, 0.25)])
def test_restriction_to_fewer_than_two_nodes_refused(a, b):
    f = _sf(np.sin, n=16)
    with pytest.raises(ValueError, match="restriction interval contains fewer than two nodes"):
        f.restrict(a, b)


def test_a_second_young_integral_on_the_same_mesh_builds_no_table(monkeypatch):
    t = np.linspace(0.0, 1.0, 65)
    f, g = SampledFunction(t, np.sin(3 * t)), SampledFunction(t, np.cos(2 * t))
    first = young_integral(f, g, 0.35)

    def no_table(*args, **kwargs):
        raise AssertionError("a power table rebuilt on a cached mesh")

    monkeypatch.setattr(fraccalc, "_power_moments", no_table)
    monkeypatch.setattr(np, "float_power", no_table)
    assert young_integral(f, g, 0.35) == first


def test_cell_weight_cache_keeps_at_most_four_tables():
    # an entry holds 16n B, and young_integral's refined mesh takes n up to MAX_STEPS (268 MB per entry there)
    fraccalc._cell_weights.cache_clear()
    for n in range(40, 46):
        t = np.linspace(0.0, 1.0, n + 1)
        young_integral(SampledFunction(t, np.sin(t)), SampledFunction(t, np.cos(t)), 0.35)
    info = fraccalc._cell_weights.cache_info()
    assert info.misses == 12 and info.currsize <= 4  # alpha and 1 - alpha on each of the 6 refined meshes
