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
from .grid import TimeGrid

__all__ = [
    "SolverConfig",
    "EulerSolution",
    "EulerBlowupError",
    "euler_solve",
    "interpolate",
    "write_solution_csv",
]

# abort a path once |X| passes this; user coefficients may violate hypotheses
STATE_CAP = 1e12
# steps between checks that stop the recursion when every path has blown up
_BLOWUP_CHECK_EVERY = 256


class EulerBlowupError(RuntimeError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"state became non-finite or exceeded {STATE_CAP:g} at step {step}")


@dataclass(frozen=True)
class SolverConfig:
    """Localization and norm parameters: alpha for the norms, eta for the
    Holder functionals, threshold N for tau_N, epsilon the rate slack."""

    alpha: float
    eta: float = 0.1
    threshold: float = 50.0
    epsilon: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if not (0.0 < self.eta < 0.5):
            raise ValueError(f"eta must lie in (0, 1/2), got {self.eta}")
        if not self.threshold > 0.0:
            raise ValueError("localization threshold N must be positive")
        if not self.epsilon > 0.0:
            raise ValueError("rate slack epsilon must be positive")

    def validate(self, h: float, beta: float) -> None:
        """Check the admissible windows against the model's H and beta."""
        kap = min(0.5, beta)
        if not (1.0 - h < self.alpha < kap):
            raise ValueError(
                f"alpha={self.alpha} outside (1-H, kappa) = ({1.0 - h:.3f}, {kap:.3f})"
            )
        if not (self.eta < kap - self.alpha):
            raise ValueError(
                f"eta={self.eta} must be below kappa - alpha = {kap - self.alpha:.3f}"
            )
        if not (self.eta < h):
            raise ValueError(f"eta={self.eta} must be below H={h}")
        if not (self.epsilon < kap - self.alpha):
            raise ValueError(
                f"epsilon={self.epsilon} must be below kappa - alpha = {kap - self.alpha:.3f}"
            )


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
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise ValueError("values must have one entry per node")
        if v[0] != self.x0:
            raise ValueError("values[0] must equal x0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def euler_solve(
    coeffs: CoefficientSet, noise: NoisePair, x0: float, grid: TimeGrid | None = None
) -> EulerSolution:
    """Run the explicit recursion on the given grid (default: the noise grid).

    X_{k+1} = X_k + a dt + b dW + c dB^H with coefficients frozen at the
    left node. Deterministic in its inputs; no refinement happens here.
    """
    grid = noise.grid if grid is None else grid
    stride = grid.refinement_stride(noise.grid)
    x, aborted = _euler_solve_batch(coeffs, grid.nodes, noise.w.values[::stride], noise.bh.values[::stride], x0)
    if aborted >= 0:
        raise EulerBlowupError(int(aborted))
    return EulerSolution(grid=grid, values=x, noise=noise, coeffs=coeffs, x0=float(x0))


def _euler_solve_batch(
    coeffs: CoefficientSet,
    t: np.ndarray,
    w: np.ndarray,
    bh: np.ndarray,
    x0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The Euler recursion for one path or many: w, bh are (n+1, ...).

    Returns (values, aborted_step): values (n+1, ...), C-contiguous, and
    aborted_step (...), the first step at which a path blew up (non-finite
    or above STATE_CAP), or -1; a blown path holds nan from that step on.
    The recursion stops early once every path is past the cap. Paths are
    independent, so a path's values do not depend on its batch.
    """
    delta = t[1] - t[0]
    dw = np.diff(w, axis=0)
    dbh = np.diff(bh, axis=0)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    x = np.empty(w.shape)
    x[0] = x0
    # a blow-up only poisons its own path, found below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (tk, xk, dwk, dbk) in enumerate(zip(t, x, dw, dbh)):
            x[k + 1] = xk + a(tk, xk) * delta + b(tk, xk) * dwk + c(tk, xk) * dbk
            # once every path is past the cap, each abort step is known
            if (k + 1) % _BLOWUP_CHECK_EVERY == 0 and not np.any(np.abs(x[k + 1]) <= STATE_CAP):
                x[k + 2 :] = np.nan
                break
        bad = ~(np.abs(x[1:]) <= STATE_CAP)
    aborted = np.where(bad.any(axis=0), bad.argmax(axis=0) + 1, -1)
    if np.any(aborted >= 0):
        x[1:][np.logical_or.accumulate(bad, axis=0)] = np.nan
    return x, aborted


def _interpolate_on_fine(
    coeffs: CoefficientSet,
    coarse_t: np.ndarray,
    coarse_x: np.ndarray,
    fine_t: np.ndarray,
    fine_w: np.ndarray,
    fine_bh: np.ndarray,
    stride: int,
    out: np.ndarray | None = None,
    lo: int = 0,
) -> np.ndarray:
    """Continuous interpolation of a coarse solution at fine nodes lo, lo+1, ...

    coarse_x is (n+1, ...) and fine_w, fine_bh are (stride*n+1, ...); the
    result, written into out (m, ...) when given, holds fine nodes
    lo..lo+m-1 (default: lo to the end). Fine node j uses the coarse node
    k = j // stride: ((x_k + a_k (t_j - t_k)) + b_k (W_j - W_k)) + c_k (B_j - B_k),
    so at coarse nodes the recursion is reproduced exactly, the last fine
    node included. One pass per coarse cell k that meets the range: a, b, c
    are evaluated once at (t_k, x_k), as in the recursion, and applied to
    the cell's fine nodes in the range.
    """
    if out is None:
        out = np.empty((fine_t.size - lo,) + fine_w.shape[1:])
    hi = lo + out.shape[0]
    tmp = np.empty((min(stride, out.shape[0]),) + out.shape[1:])
    column = (-1,) + (1,) * (out.ndim - 1)
    for k in range(lo // stride, -(-hi // stride)):
        j0, j1 = max(lo, k * stride), min(hi, (k + 1) * stride)
        tk, xk = coarse_t[k], coarse_x[k]
        blk, d = out[j0 - lo : j1 - lo], tmp[: j1 - j0]
        np.multiply(coeffs.a(tk, xk), (fine_t[j0:j1] - tk).reshape(column), out=blk)
        blk += xk
        for fn, v in ((coeffs.b, fine_w), (coeffs.c, fine_bh)):
            np.subtract(v[j0:j1], v[k * stride], out=d)
            d *= fn(tk, xk)
            blk += d
    return out


def interpolate(sol: EulerSolution, u: float) -> float:
    """Value of the continuously interpolated solution at time u.

    u must be a node of the noise grid (within node_index's tolerance);
    the value is the harness's interpolation at that node: coefficients
    frozen at the last solve node and applied to the actual noise
    increments, matching the integral form of the scheme.
    """
    noise, out = sol.noise, np.empty(1)
    j = noise.grid.node_index(float(u))
    stride = sol.grid.refinement_stride(noise.grid)
    fine = (noise.grid.nodes, noise.w.values, noise.bh.values)
    return float(_interpolate_on_fine(sol.coeffs, sol.grid.nodes, sol.values, *fine, stride, out, j)[0])


def write_solution_csv(sol: EulerSolution, file) -> None:
    file.write("t,x\n")
    for t, x in zip(sol.grid.nodes, sol.values):
        file.write(f"{t:.17g},{x:.17g}\n")
