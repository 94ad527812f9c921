"""Small statistics and accounting helpers (stdlib only)."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest empirical percentile that has at
    least `beyond` samples above it. With N samples that is the
    (N - beyond)-th smallest sample, at percentile 100 (N - beyond) / N."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond it needs more than {beyond} samples, got {n}")
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def median(samples) -> float:
    return statistics.median(samples)


class Tally:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def unit(self, attempted: int, failed: int, problems=()) -> None:
        if not 0 <= failed <= attempted:
            raise ValueError(f"failed={failed} must lie in [0, attempted={attempted}]")
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def converge_run(self, paths: int, aborted: int, problems=()) -> None:
        """A Monte Carlo run: every path fails when the run raised or failed
        a check, otherwise only its aborted paths."""
        self.unit(paths, paths if problems else aborted, problems)

    def session(self, calls: int, first_bad: int | None, problems=()) -> None:
        """A front-end session of `calls` dependent calls: the call at index
        first_bad raised or failed its check, and the calls after it could
        not run on its output, so they fail too."""
        self.unit(calls, 0 if first_bad is None else calls - first_bad, problems)
