"""Explicit Euler scheme for the mixed equation
dX = a(t, X) dt + b(t, X) dW + c(t, X) dB^H
and its continuous interpolation. Localization by the stopping time tau_N
(`stopping_time`, `stop`) lives in `convergence`, next to the harness
kernels it shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .fbm import NoisePair
from .grid import TimeGrid, _node_values, _real, _write_csv

__all__ = [
    "EulerSolution",
    "EulerBlowupError",
    "euler_solve",
    "interpolate",
    "write_solution_csv",
]

# abort a path once |X| passes this; user coefficients may violate hypotheses
STATE_CAP = 1e12
# fine nodes per _interpolate_on_fine call in the stride-1 recursion and the per-level pass
_BLOCK_NODES = 256


class EulerBlowupError(RuntimeError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"state became non-finite or exceeded {STATE_CAP:g} at step {step}")


@dataclass(frozen=True)
class EulerSolution:
    """Node values of X^delta plus everything needed to interpolate.

    noise always refers to the pair on its generation grid; when the solve
    grid is coarser the solver subsamples, so refinements of one solution
    stay coupled to the same driving paths.
    """

    grid: TimeGrid
    values: np.ndarray
    noise: NoisePair
    coeffs: CoefficientSet
    x0: float

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values("values", self.values, self.grid.n + 1))
        if self.values[0] != self.x0:
            raise ValueError("values[0] must equal x0")


def euler_solve(
    coeffs: CoefficientSet, noise: NoisePair, x0: float, grid: TimeGrid | None = None
) -> EulerSolution:
    """Run the explicit recursion on the given grid (default: the noise grid).

    X_{k+1} = X_k + a dt + b dW + c dB^H with coefficients frozen at the
    left node. Deterministic in its inputs; no refinement happens here.
    """
    grid, x0 = noise.grid if grid is None else grid, _real("x0", x0, finite=True)
    stride = grid.refinement_stride(noise.grid)
    x = _euler_solve_batch(coeffs, grid.nodes, noise.w.values[::stride], noise.bh.values[::stride], x0)
    if np.isnan(x[-1]):
        raise EulerBlowupError(int(np.isnan(x[1:]).argmax()) + 1)
    return EulerSolution(grid=grid, values=x, noise=noise, coeffs=coeffs, x0=x0)


def _euler_solve_batch(
    coeffs: CoefficientSet,
    t: np.ndarray,
    w: np.ndarray,
    bh: np.ndarray,
    x0: float,
) -> np.ndarray:
    """The Euler recursion for one path or many: w, bh are (n+1, ...) on the grid t.

    _interpolate_on_fine's loop at stride 1, _BLOCK_NODES steps at a time
    until every path is nan. Returns values (n+1, ...), C-contiguous, nan
    from a path's abort step on. Paths are independent, so a path's values
    do not depend on its batch.
    """
    x = np.full(w.shape, np.nan)
    x[0] = x0
    for lo in range(0, t.size - 1, _BLOCK_NODES):
        hi = min(lo + _BLOCK_NODES, t.size - 1)
        _interpolate_on_fine(coeffs, t, x, t, w, bh, 1, lo, hi, None, True)
        if np.isnan(x[hi]).all():  # the rest stays nan
            break
    return x


def _interpolate_on_fine(
    coeffs: CoefficientSet, coarse_t: np.ndarray, coarse_x: np.ndarray, fine_t: np.ndarray, fine_w: np.ndarray,
    fine_bh: np.ndarray, stride: int, lo: int, hi: int, out: np.ndarray | None = None, advance: bool = False,
) -> np.ndarray | None:
    """The Euler recursion and its continuous interpolation: one loop over coarse cells.

    Coarse node k is fine node k*stride of fine_w, fine_bh (stride*n+1, ...);
    coarse_x is (n+1, ...). Each cell k that meets fine nodes lo..hi-1
    evaluates a, b, c once at (t_k, x_k). Into out (hi-lo, ...), when given,
    through one reused scratch buffer, its fine nodes j in the range get
    ((x_k + a_k (t_j - t_k)) + b_k (W_j - W_k)) + c_k (B_j - B_k): at coarse
    nodes, the last fine node included, the recursion's value (or nan where
    a coefficient is not finite). With advance, once the range reaches the
    end of cell k < n, x_{k+1} = ((x_k + a_k delta) + b_k dW_k) + c_k dB_k,
    delta = coarse_t[1] - coarse_t[0] and the increments from one np.diff,
    goes into coarse_x (which must hold the range's first cell). After the
    loop one cap rule makes each value nan, in coarse_x and out, from a
    path's first non-finite value or one above STATE_CAP on.
    """
    c0, c1 = lo // stride, min(hi // stride, coarse_x.shape[0] - 1) if advance else lo // stride
    dw, db = (np.diff(v[c0 * stride : c1 * stride + 1 : stride], axis=0) for v in (fine_w, fine_bh))
    if out is not None:
        tmp = np.empty((min(stride, out.shape[0]),) + out.shape[1:])
        column = (-1,) + (1,) * (out.ndim - 1)
    delta = coarse_t[1] - coarse_t[0]
    # a blow-up only poisons its own path, capped after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(c0, -(-hi // stride)):
            tk, xk = coarse_t[k], coarse_x[k]
            ak, bk, ck = coeffs.a(tk, xk), coeffs.b(tk, xk), coeffs.c(tk, xk)
            if out is not None:
                j0, j1 = max(lo, k * stride), min(hi, (k + 1) * stride)
                blk, d = out[j0 - lo : j1 - lo], tmp[: j1 - j0]
                np.multiply(ak, (fine_t[j0:j1] - tk).reshape(column), out=blk)
                blk += xk
                for coef, v in ((bk, fine_w), (ck, fine_bh)):
                    np.subtract(v[j0:j1], v[k * stride], out=d)
                    d *= coef
                    blk += d
            if k < c1:
                coarse_x[k + 1] = xk + ak * delta + bk * dw[k - c0] + ck * db[k - c0]
        # one cap rule: nan from a path's first non-finite value or one above STATE_CAP on (nan fails max <= cap)
        if c1 > c0 and not np.abs(coarse_x[c0 + 1 : c1 + 1]).max() <= STATE_CAP:
            bad = np.logical_or.accumulate(~(np.abs(coarse_x[c0 + 1 : c1 + 1]) <= STATE_CAP), axis=0)
            coarse_x[c0 + 1 : c1 + 1][bad] = np.nan
            if out is not None:  # the fine nodes of cells that start from a capped value
                j0 = max(lo, (c0 + 1) * stride)
                out[j0 - lo :][bad[np.arange(j0, hi) // stride - c0 - 1]] = np.nan
    return out


def interpolate(sol: EulerSolution, u: float) -> float:
    """Value of the continuously interpolated solution at time u.

    u must be a node of the noise grid (within node_index's tolerance);
    the value is the harness's interpolation at that node: coefficients
    frozen at the last solve node and applied to the actual noise
    increments, matching the integral form of the scheme.
    """
    noise, out = sol.noise, np.empty(1)
    j = noise.grid.node_index(u)
    stride = sol.grid.refinement_stride(noise.grid)
    fine = (noise.grid.nodes, noise.w.values, noise.bh.values)
    return float(_interpolate_on_fine(sol.coeffs, sol.grid.nodes, sol.values, *fine, stride, j, j + 1, out)[0])


def write_solution_csv(sol: EulerSolution, file) -> None:
    _write_csv(file, "t,x", sol.grid.nodes, sol.values)
