"""Uniform time grids and dyadic refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Hard cap on grid size; refinement beyond this is a resource error.
MAX_STEPS = 2**24


class GridResourceError(RuntimeError):
    """Requested grid exceeds MAX_STEPS."""


def _shown(value: int) -> str:
    """value as a message states it; an int past Python's str digit limit by its bit length."""
    try:
        return str(value)
    except ValueError:
        return f"<a {value.bit_length()}-bit integer>"


def _integer(name: str, value, low: int | None = None, high: int | None = None, why: str = "") -> int:
    """value as an int; all but Python and numpy integers (bool, 64.0, "20") raise ValueError,
    and so does a value below low or above high (the cap's message ends with why, its cost)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name}={_shown(value)} exceeds {high}" + (f": {why}" if why else ""))
    return value


def _real(name: str, value, finite: bool = False) -> float:
    """value as a float; all but Python and numpy ints and floats (bool, "0.5") raise ValueError,
    and so do nan and inf when finite is set."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _interval(name: str, lo, hi) -> tuple[float, float]:
    """(lo, hi) as finite numbers (_real, as "name entry") with lo < hi; an empty or inverted one raises ValueError."""
    lo, hi = (_real(f"{name} entry", v, finite=True) for v in (lo, hi))
    if not lo < hi:
        raise ValueError(f"{name} must be an interval with lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _in_span(name: str, u, a: float, b: float) -> float:
    """The number u (read by _real) clipped into [a, b]; nan, and a u outside
    [a, b] by more than 1e-12 x max(1, |a|, |b|), raise ValueError."""
    u, slack = _real(name, u), 1e-12 * max(1.0, abs(a), abs(b))
    if not a - slack <= u <= b + slack:  # nan fails too
        raise ValueError(f"{name} must lie in [{a}, {b}], got {u}")
    return min(max(u, a), b)


def _node_values(name: str, values, count: int | None = None) -> np.ndarray:
    """A read-only float copy of values: 1-d, finite, and count long (one entry per node) when count is given."""
    v = np.array(values, dtype=float)
    if v.ndim != 1 or count not in (None, v.size):
        per_node = "" if count is None else f" with one entry per node ({count})"
        raise ValueError(f"{name} must be a 1-d array{per_node}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.setflags(write=False)
    return v


def _node_of(nodes: np.ndarray, u: float, span: float) -> int:
    """Index of the uniform node that u equals to within 1e-9 x max(1, span),
    span being the nodes' length as their owner states it (a TimeGrid's T,
    which its last node n*T/n can miss in the last bit); any other u raises."""
    n, u = nodes.size - 1, _real("time", u)
    x = (u - nodes[0]) / (nodes[1] - nodes[0])
    j = int(round(x)) if -0.5 < x < n + 0.5 else -1  # nan and inf fail the window
    if j < 0 or abs(nodes[j] - u) > 1e-9 * max(1.0, span):
        raise ValueError(f"time {u!r} is not a node of this grid (n={n}, T={span})")
    return j


def _write_csv(file, header: str, *columns) -> None:
    """The header line, then one row per entry of the columns, every value
    at 17 significant digits (round-trip safe; an integral value prints as
    an integer). Rows are formatted 4096 at a time, so the text in memory
    stays small at any length."""
    file.write(header + "\n")
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), 4096):
        block = np.column_stack([c[lo : lo + 4096] for c in columns])
        file.write(line * len(block) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition {k*T/n, k=0..n} of [0, T].

    Nodes are always computed as k*T/n so that dyadic refinements contain
    the coarse nodes bit-for-bit: (j*2^m)*T/(n*2^m) rounds to the same
    float as j*T/n.
    """

    horizon: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", _real("horizon", self.horizon))
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if (n := _integer("step count", self.n, low=1)) > MAX_STEPS:
            raise GridResourceError(f"n={_shown(n)} exceeds MAX_STEPS={MAX_STEPS}")

    @property
    def delta(self) -> float:
        return self.horizon / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.arange(self.n + 1, dtype=float) * self.horizon / self.n
        nodes.setflags(write=False)
        return nodes

    def floor_index(self, u: float | np.ndarray) -> int | np.ndarray:
        """Index of t^delta_u = max{node <= u}, entry by entry for an array; each u in [0, T]
        as _in_span reads it. T is node n, also where n*T/n rounds above T."""
        times = [u] if np.ndim(u) == 0 else np.ravel(u)
        u = np.array([_in_span("time", v, 0.0, self.horizon) for v in times]).reshape(np.shape(u))
        idx = np.where(u < self.horizon, np.searchsorted(self.nodes, u, side="right") - 1, self.n)
        return idx if idx.ndim else int(idx)

    def node_index(self, u: float) -> int:
        """Exact node index of u, or raise if u is not resolvable on this grid."""
        return _node_of(self.nodes, u, self.horizon)

    def refinement_stride(self, fine: "TimeGrid") -> int:
        """Stride such that self.nodes == fine.nodes[::stride]; error if not nested."""
        if fine.horizon != self.horizon or fine.n % self.n != 0:
            raise ValueError("grids are not nested")
        return fine.n // self.n


def refine_dyadic(grid: TimeGrid, m: int) -> TimeGrid:
    """Fine grid {j*T/(n*2^m)}; contains the coarse nodes exactly. m <= log2(MAX_STEPS), checked before the shift."""
    m = _integer("refinement exponent m", m, low=1, high=MAX_STEPS.bit_length() - 1)
    return TimeGrid(grid.horizon, grid.n << m)
