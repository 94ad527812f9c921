"""Coefficient triples (a, b, c) with dc = dx c, preset models, a small
expression language for user coefficients, and a sampling-based checker
for the growth / Lipschitz / Holder hypotheses the solver relies on.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

__all__ = [
    "CoefficientSet",
    "kappa",
    "check_hypotheses",
    "HypothesisReport",
    "HypothesisResult",
    "preset",
    "preset_names",
    "compile_expression",
]


def kappa(beta: float) -> float:
    """Rate-limiting exponent min(1/2, beta)."""
    beta = float(beta)
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return min(0.5, beta)


@dataclass(frozen=True)
class CoefficientSet:
    """Drift a(t,x), Wiener coefficient b(t,x), fBm coefficient c(t,x) and
    its state derivative dc(t,x), with the claimed constants K and beta.

    Callables must be vectorized over x (numpy broadcasting) and pure.
    """

    name: str
    a: object
    b: object
    c: object
    dc: object
    K: float
    beta: float
    expressions: dict | None = field(default=None)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not (self.K > 0.0 and np.isfinite(self.K)):
            raise ValueError(f"K must be positive and finite, got {self.K}")

    def validate_for_hurst(self, h: float) -> None:
        if not (1.0 - h < self.beta):
            raise ValueError(
                f"beta={self.beta} must exceed 1-H={1.0 - h:.3f} for Hurst index {h}"
            )

    @property
    def kappa(self) -> float:
        return kappa(self.beta)


# ---------------------------------------------------------------------------
# expression language
#
# Arithmetic (+ - * / **), unary minus, the functions below, the variables
# t and x, and numeric literals. Parsed and checked once with ast, then
# compiled to a Python lambda: operators act on floats or numpy arrays and
# the functions are the numpy ufuncs below, so a given expression always
# evaluates in the same order, bit for bit.

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _int_power(base, k: int):
    """base**k for an integer k >= 1 as products (repeated squaring). A
    product rounds the same on a scalar and on every array shape, while
    `**` goes through libm pow on numpy scalars and a SIMD pow on arrays
    (x**2 of an array is already x*x)."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


class _IntPowers(ast.NodeTransformer):
    """Rewrites `base ** k` for an int literal k >= 2 into _int_power(base, k);
    pow is exact for k = 0 and 1, and other exponents keep `**`."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        k = node.right
        if isinstance(node.op, ast.Pow) and isinstance(k, ast.Constant) and type(k.value) is int and k.value >= 2:
            return ast.Call(ast.Name("_int_power", ast.Load()), [node.left, k], [])
        return node


def compile_expression(src: str, variables: tuple[str, ...] = ("t", "x")):
    """Compile an expression in the given variables to a vectorized callable."""
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {src!r}: {exc.msg}") from None

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS):
                raise ValueError(f"function not allowed in expression: {ast.dump(node.func)}")
            if node.keywords:
                raise ValueError("keyword arguments not allowed in expressions")
            want = 2 if node.func.id in ("min", "max") else 1
            if len(node.args) != want:
                raise ValueError(f"{node.func.id} takes {want} argument(s)")
            for arg in node.args:
                check(arg)
        elif isinstance(node, ast.Name):
            if node.id not in variables and node.id not in _CONSTANTS:
                raise ValueError(f"unknown name {node.id!r} in expression")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(f"literal {node.value!r} not allowed")
        else:
            raise ValueError(f"syntax not allowed in expression: {type(node).__name__}")

    check(tree)
    # compiled once as `lambda t, x=None: <expression>`; functions and
    # constants are its globals, so a call runs only the expression
    lam = ast.parse("lambda t, x=None: 0", mode="eval")
    lam.body.body = _IntPowers().visit(tree.body)
    ast.fix_missing_locations(lam)
    names = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS, "_int_power": _int_power}
    fn = eval(compile(lam, "<coefficient>", "eval"), names)
    fn.source = src
    return fn


def coefficients_from_expressions(
    name: str, a: str, b: str, c: str, dc: str, K: float, beta: float
) -> CoefficientSet:
    exprs = {"a": a, "b": b, "c": c, "dc": dc}
    return CoefficientSet(
        name=name,
        a=compile_expression(a),
        b=compile_expression(b),
        c=compile_expression(c),
        dc=compile_expression(dc),
        K=float(K),
        beta=float(beta),
        expressions=exprs,
    )


# ---------------------------------------------------------------------------
# presets


_PRESETS = {
    "linear": dict(
        a="0.1 * x", b="0.2", c="0.3 * x", dc="0.3", K=1.0, beta=0.75
    ),
    "additive": dict(
        a="0.1", b="0.2", c="0.3", dc="0.0", K=0.5, beta=0.75
    ),
    "bounded-smooth": dict(
        a="0.5 * sin(x + t)", b="0.5 * cos(x)", c="sin(x)", dc="cos(x)", K=2.0, beta=0.75
    ),
    "zero": dict(a="0.0", b="0.0", c="0.0", dc="0.0", K=1.0, beta=0.75),
    # adversarial sets for the hypothesis gate
    "quadratic-c": dict(a="0.0", b="0.0", c="x**2", dc="2.0 * x", K=2.0, beta=0.75),
    "unbounded-b": dict(a="0.0", b="x", c="0.0", dc="0.0", K=1.0, beta=0.75),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> CoefficientSet:
    """A named preset CoefficientSet; see preset_names()."""
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {preset_names()}") from None
    return coefficients_from_expressions(name, **spec)


# ---------------------------------------------------------------------------
# hypothesis checker


@dataclass(frozen=True)
class HypothesisResult:
    name: str
    statement: str
    passed: bool
    worst_ratio: float
    witness: tuple

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"({self.name}) {status}: worst ratio {self.worst_ratio:.4g} "
            f"at {self.witness} [{self.statement}]"
        )


@dataclass(frozen=True)
class HypothesisReport:
    """Sample-level evidence only: a pass means no violation was found on
    the sampled tuples, not a proof."""

    coefficients: str
    results: dict
    t_range: tuple
    x_range: tuple
    samples: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    @property
    def failed(self) -> list[str]:
        return [k for k, r in self.results.items() if not r.passed]

    def __str__(self):
        head = (
            f"hypothesis check of {self.coefficients!r} on t in {self.t_range}, "
            f"x in {self.x_range}, {self.samples} samples per axis (seed {self.seed})"
        )
        return "\n".join([head] + [str(self.results[k]) for k in sorted(self.results)])


def _ratio_result(name, statement, num, den, points, k_claimed) -> HypothesisResult:
    """Worst num/den against the claimed K, with the witness of the worst point."""
    num = np.asarray(num, dtype=float)
    bad = ~np.isfinite(num)
    if np.any(bad):
        i = int(np.argmax(bad))
        return HypothesisResult(name, statement, False, math.inf, tuple(float(p[i]) for p in points))
    ratio = num / den
    i = int(np.argmax(ratio))
    worst = float(ratio[i])
    return HypothesisResult(
        name, statement, worst <= k_claimed * (1.0 + 1e-12), worst, tuple(float(p[i]) for p in points)
    )


def check_hypotheses(
    coeffs: CoefficientSet,
    t_range: tuple[float, float] = (0.0, 1.0),
    x_range: tuple[float, float] = (-10.0, 10.0),
    samples: int = 200,
    seed: int = 0,
) -> HypothesisReport:
    """Evaluate the five coefficient hypotheses on sampled (s, t, x, y) tuples.

    (A) linear growth of a and c; (B) Lipschitz a, b in x; (C) Holder-beta
    of a, b, c, dc in t; (D) Lipschitz dc in x; (E) bounded b and dc.
    Pair separations are log-uniform down to 1e-6 so small-scale violations
    are probed. Deterministic given (coeffs, ranges, samples, seed).
    """
    if samples < 100:
        raise ValueError("at least 100 samples per axis are required")
    rng = stream(seed, 900)
    t0, t1 = map(float, t_range)
    x0, x1 = map(float, x_range)
    t = rng.uniform(t0, t1, samples)
    x = rng.uniform(x0, x1, samples)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    tt, xx = tt.ravel(), xx.ravel()

    # log-uniform separations, both signs, clipped back into the ranges
    def perturb(base, lo, hi, count):
        sep = 10.0 ** rng.uniform(-6, math.log10(max(hi - lo, 1e-5)), count)
        sign = rng.choice([-1.0, 1.0], count)
        return np.clip(base + sign * sep, lo, hi)

    y = perturb(xx, x0, x1, xx.size)
    s = perturb(tt, t0, t1, tt.size)

    a, b, c, dc = coeffs.a, coeffs.b, coeffs.c, coeffs.dc
    one = np.ones_like(xx)

    results = {}
    with np.errstate(all="ignore"):  # non-finite values are reported, not raised
        results["A"] = _ratio_result(
            "A",
            "|a(t,x)| + |c(t,x)| <= K (1 + |x|)",
            np.abs(a(tt, xx) * one) + np.abs(c(tt, xx) * one),
            1.0 + np.abs(xx),
            (tt, xx),
            coeffs.K,
        )
        dx = np.abs(xx - y)
        keep = dx > 0
        results["B"] = _ratio_result(
            "B",
            "|a(t,x)-a(t,y)| + |b(t,x)-b(t,y)| <= K |x-y|",
            (np.abs(a(tt, xx) - a(tt, y)) + np.abs(b(tt, xx) - b(tt, y)) * one)[keep],
            dx[keep],
            (tt[keep], xx[keep], y[keep]),
            coeffs.K,
        )
        dt = np.abs(s - tt)
        keept = dt > 0
        time_diff = (
            np.abs(a(s, xx) - a(tt, xx))
            + np.abs(b(s, xx) - b(tt, xx))
            + np.abs(c(s, xx) - c(tt, xx))
            + np.abs(dc(s, xx) - dc(tt, xx))
        ) * one
        results["C"] = _ratio_result(
            "C",
            "|a(s,x)-a(t,x)| + ... + |dc(s,x)-dc(t,x)| <= K |s-t|^beta",
            time_diff[keept],
            dt[keept] ** coeffs.beta,
            (s[keept], tt[keept], xx[keept]),
            coeffs.K,
        )
        results["D"] = _ratio_result(
            "D",
            "|dc(t,x)-dc(t,y)| <= K |x-y|",
            (np.abs(dc(tt, xx) - dc(tt, y)) * one)[keep],
            dx[keep],
            (tt[keep], xx[keep], y[keep]),
            coeffs.K,
        )
        results["E"] = _ratio_result(
            "E",
            "|b(t,x)| + |dc(t,x)| <= K",
            (np.abs(b(tt, xx)) + np.abs(dc(tt, xx))) * one,
            np.ones_like(xx),
            (tt, xx),
            coeffs.K,
        )
    return HypothesisReport(
        coefficients=coeffs.name,
        results=results,
        t_range=(t0, t1),
        x_range=(x0, x1),
        samples=samples,
        seed=seed,
    )
