"""Byte-for-byte comparison of `converge` outputs between two checkouts.

    python3 tools/same_outputs.py --parent DIR --change DIR

Each DIR is a checkout of the program. For every run of a fixed matrix
(presets linear, bounded-smooth and unbounded-b with --force; independent
and Volterra noise; threshold 50 and 2; workers 1 and 2; each with 300
paths, levels 16,32,64, m_fine 3 and eval_n 64), for four runs of the
linear preset at workers 1 under independent and Volterra noise, two at
the non-dyadic horizon --t 0.3 and two at levels 2,4,8 with m_fine 9
(coarse strides of 2048, 1024 and 512 fine nodes, so the 256-node blocks
of the per-level pass cut the coarse cells), and for two runs of the
linear preset with --method cholesky under independent noise on the same
grid at workers 1 and 2, and for one run of the linear preset at workers 1 under
independent noise whose eval grid is not a power of two (levels 49,98,196,
m_fine 2, eval_n 49, where n delta rounds below the horizon), and for two
runs of the linear preset at workers 1 under independent and Volterra noise
at threshold 5 (on the COMMON grid; there the tau_N screen clears some paths
of each chunk and leaves others open, crossing or not), and for four runs of
the linear preset under independent and Volterra noise with 1100 paths on
the COMMON grid at workers 1 and 3 (five chunks, the last of 76 paths; at
workers 3 one forked child runs chunks 1 and 4, the partial one, with the
noise table it builds itself), the script runs
`python -m mixedsde.cli converge` once in each tree, with that tree's src/
on PYTHONPATH. It compares the exit code, stdout (the output directory
masked), report.json, report.csv, report_loglog.csv and manifest.json byte
for byte, prints each run that differs with what differs, and exits 1 if
any run does. For a run that differs it also prints the largest float
difference of report.json, relative to the largest magnitude among the
run's floats, and whether every other field (counts, strings, structure)
and the exit code match.

One more run, "single-path-api", prints the repr of the single-path API in
each tree (print_api_values) and compares the text: `pathwise_error` at
three taus on fine nodes and at tau = T with a norm_grid_n of the coarse
n, and `interpolate` at every 7th fine node, at refinement strides 1, 2,
3, 45, 257 and 384, for the linear, bounded-smooth and additive presets
under independent and Volterra noise; then
`increment_bracket`, `holder_cumulative`, `holder_functional` (on [0, T],
on [0, t] for one node t, and on W and B^H at the nodes 9, 15 and 17
steps in: one past one block of the 8 offsets its pair total takes at a
time, and one short of and one past two; one short of one block, 7
steps, is below its 8-step minimum), `norm_inf_alpha`, `norm_2_alpha`,
`integral_bound`, `norm_2_alpha` of the constant 1 on 50 nodes of [0, 1],
`young_integral` (on the whole grid and on a sub-interval (a, b)), the
nodes of `SampledFunction.from_callable(np.sin, 0.3, 1.9, 376)` (the node
rule it takes from `TimeGrid`) and the default-refined `young_integral` of
sin against cos sampled so on that non-dyadic span,
`left_derivative` and `right_derivative` at four nodes each and at two
points between nodes (where the tip cell of the weights is shorter than a
cell), and `stopping_time` on one pair; then `fbm_covariance` at a
point and on a node mesh, `kappa` at three betas and the text of the
`check_hypotheses` report of the quadratic-c preset at seed 3; then the
text that `write_path_csv`, `write_pair_csv` (independent, Volterra and
joint-Gaussian noise) and `write_solution_csv` write on a 64-step grid,
the files `converge` does not write, and the values of `generate_wiener`
on that grid. It must exit 0 in both trees. When its
text differs, the float literals in it are compared in the same way, and
the rest of the text and the exit code for equality. Measured against the
run's largest magnitude, a last-bit change of a value at roundoff level
(such as the additive preset's pathwise errors, about 1e-15) stays at
roundoff instead of reading as a large relative change.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = ("report.json", "report.csv", "report_loglog.csv", "manifest.json")
COMMON = ["--paths", "300", "--levels", "16,32,64", "--m-fine", "3", "--eval-n", "64"]
PRESETS = {"linear": [], "bounded-smooth": [], "unbounded-b": ["--force"]}
# linear-preset runs off the main grid, by label: a horizon that is not
# dyadic, and coarse cells longer than the per-level pass's 256-node block
OFF_GRID = {
    "t0.3": ["--t", "0.3", *COMMON],
    "levels2-8-mfine9": ["--paths", "300", "--levels", "2,4,8", "--m-fine", "9", "--eval-n", "64"],
}
# an independent-noise linear-preset run on an eval grid that is not a power of two
EVAL49 = ["--paths", "300", "--levels", "49,98,196", "--m-fine", "2", "--eval-n", "49"]
# a linear-preset threshold at which each chunk holds paths the tau_N bound
# clears, paths it leaves open that do not cross, and paths that cross
THRESHOLD5 = ["--threshold", "5", *COMMON]
# five chunks, the last partial: at workers 3 a forked child runs two chunks
PATHS1100 = ["--paths", "1100", *COMMON[2:]]


def matrix() -> dict[str, list[str]]:
    """The converge arguments of every run, by run name."""
    runs = {}
    for (preset, extra), dep, threshold, workers in itertools.product(
        PRESETS.items(), ("independent", "volterra"), ("50", "2"), ("1", "2")
    ):
        name = f"{preset}-{dep}-threshold{threshold}-workers{workers}"
        runs[name] = ["--preset", preset, *extra, "--dependence", dep, "--threshold", threshold,
                      "--workers", workers, *COMMON]
    for (label, args), dep in itertools.product(OFF_GRID.items(), ("independent", "volterra")):
        runs[f"linear-{dep}-{label}-workers1"] = ["--preset", "linear", "--dependence", dep, "--workers", "1", *args]
    runs["linear-independent-eval49-workers1"] = [
        "--preset", "linear", "--dependence", "independent", "--workers", "1", *EVAL49
    ]
    for dep in ("independent", "volterra"):
        runs[f"linear-{dep}-threshold5-workers1"] = [
            "--preset", "linear", "--dependence", dep, "--workers", "1", *THRESHOLD5
        ]
    for workers in ("1", "2"):
        runs[f"linear-independent-cholesky-workers{workers}"] = [
            "--preset", "linear", "--dependence", "independent", "--method", "cholesky", "--workers", workers, *COMMON
        ]
    for dep, workers in itertools.product(("independent", "volterra"), ("1", "3")):
        runs[f"linear-{dep}-paths1100-workers{workers}"] = [
            "--preset", "linear", "--dependence", dep, "--workers", workers, *PATHS1100
        ]
    return runs


API_RUN = "single-path-api"
TOOLS = Path(__file__).resolve().parent


def api_cases() -> list[tuple[int, int, str, str]]:
    """(coarse n, refinement stride, preset, dependence) of each
    single-path case; the fine grid (coarse n x stride >= 512 nodes) spans
    more than one 256-node block of the per-level pass."""
    return [
        (max(2, 600 // stride), stride, preset, dep)
        for stride, preset, dep in itertools.product(
            (1, 2, 3, 45, 257, 384), ("linear", "bounded-smooth", "additive"), ("independent", "volterra")
        )
    ]


def print_api_values() -> None:
    """Print the single-path values of API_RUN with the mixedsde first on sys.path."""
    import numpy as np
    from mixedsde import (
        JointGaussian, SampledFunction, TimeGrid, check_hypotheses, euler_solve, fbm_covariance, generate_fbm,
        generate_noise_pair, generate_wiener, holder_functional, integral_bound, interpolate, kappa, left_derivative,
        norm_2_alpha, norm_inf_alpha, pathwise_error, preset, right_derivative, stop, stopping_time, young_integral,
    )
    from mixedsde.euler import write_solution_csv
    from mixedsde.fbm import holder_cumulative, write_pair_csv, write_path_csv
    from mixedsde.fraccalc import increment_bracket

    for coarse_n, stride, name, dep in api_cases():
        fine = TimeGrid(1.0, coarse_n * stride)
        pair = generate_noise_pair(fine, 0.7, 5, dep)
        coarse_sol = euler_solve(preset(name), pair, 1.0, TimeGrid(1.0, coarse_n))
        fine_sol = euler_solve(preset(name), pair, 1.0, fine)
        for tau in fine.nodes[[fine.n // 3, fine.n // 2, fine.n]]:
            print(name, dep, stride, tau, repr(pathwise_error(stop(coarse_sol, tau), stop(fine_sol, tau), 0.35)))
        print(name, dep, stride, repr(pathwise_error(stop(coarse_sol, 1.0), stop(fine_sol, 1.0), 0.35, coarse_n)))
        print(name, dep, stride, repr([interpolate(coarse_sol, u) for u in fine.nodes[::7]]))
    pair = generate_noise_pair(TimeGrid(1.0, 512), 0.7, 6, "volterra")
    f = SampledFunction(pair.grid.nodes, pair.bh.values)
    print(repr(increment_bracket(f.y, f.delta, 0.35).tolist()))
    print(repr(holder_cumulative(pair.w.values, f.delta, 0.1, 10.0).tolist()))
    print(repr([holder_functional(path, 0.1, t).value for path in (pair.w, pair.bh) for t in (None, f.t[300])]))
    print(repr([holder_functional(path, 0.1, f.t[k]).value for path in (pair.w, pair.bh) for k in (9, 15, 17)]))
    print(repr((norm_inf_alpha(f, 0.35), norm_2_alpha(f, 0.35), integral_bound(f, 0.35, 1.0))))
    print(repr(norm_2_alpha(SampledFunction(np.linspace(0.0, 1.0, 50), np.ones(50)), 0.35)))
    w = SampledFunction(f.t, pair.w.values)
    print(repr((young_integral(w, f, 0.35), young_integral(w, f, 0.35, f.t[100], f.t[400]))))
    sin, cos = (SampledFunction.from_callable(fn, 0.3, 1.9, 376) for fn in (np.sin, np.cos))
    print(repr(sin.t.tolist()), repr(young_integral(sin, cos, 0.35)))
    print(repr([left_derivative(f, 0.35, x) for x in f.t[[1, 7, 300, 512]]]))
    print(repr([right_derivative(w, 0.35, x) for x in f.t[[0, 7, 300, 511]]]))
    between = f.t[[7, 300]] + np.array([0.81, 0.37]) * f.delta  # tips shorter than a cell
    print(repr([[left_derivative(f, 0.35, x), right_derivative(w, 0.35, x)] for x in between]))
    kinds = ("wiener", "fbm", "sum")
    print(repr([stopping_time(pair, 0.1, threshold, kind) for threshold in (2.0, 50.0) for kind in kinds]))
    print(repr((fbm_covariance(0.3, 0.8, 0.7), fbm_covariance(f.t[::32, None], f.t[::64], 0.7).tolist())))
    print(repr([kappa(beta) for beta in (0.3, 0.5, 0.75)]))
    print(check_hypotheses(preset("quadratic-c"), seed=3))
    grid = TimeGrid(1.0, 64)
    joint = JointGaussian(lambda s, t: 0.3 * np.minimum(s, t))
    pairs = [generate_noise_pair(grid, 0.7, 7, dep) for dep in ("independent", "volterra", joint)]
    write_path_csv(generate_fbm(grid, 0.7, 7), sys.stdout)
    for pair in pairs:
        write_pair_csv(pair, sys.stdout)
    write_solution_csv(euler_solve(preset("linear"), pairs[1], 1.0), sys.stdout)
    print(repr(generate_wiener(grid, 7).values.tolist()))


def run(tree: Path, args: list[str], outdir: Path) -> dict:
    """Exit code, stdout with outdir masked, and the bytes of each output
    file (None when it was not written) of one converge run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    cmd = [sys.executable, "-m", "mixedsde.cli", "converge", *args, "--outdir", str(outdir)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True)
    files = {f: (outdir / f).read_bytes() if (outdir / f).exists() else None for f in FILES}
    return {"exit": proc.returncode, "stdout": proc.stdout.replace(str(outdir).encode(), b"<outdir>"), **files}


def run_api(tree: Path) -> dict:
    """Exit code and stdout of print_api_values with tree's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_outputs; same_outputs.print_api_values()"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, capture_output=True)
    return {"exit": proc.returncode, "stdout": proc.stdout}


def differences(parent: dict, change: dict) -> dict[str, list[str]]:
    """Per run name, the sorted outputs that differ between the two sides'
    run results; a run missing on one side differs in every output."""
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name, {}), change.get(name, {})
        differing = sorted(k for k in p.keys() | c.keys() if p.get(k) != c.get(k))
        if differing:
            out[name] = differing
    return out


_FLOAT = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|nan|inf)(?![\w.])")


def _split_floats(result: dict) -> tuple[list[float], object]:
    """(floats, rest) of one run's result: the float leaves of report.json
    and the document with each replaced by the marker `float`, or, for the
    API run, the float literals of stdout and the text around them."""
    if "report.json" not in result:
        text = result.get("stdout", b"")
        return [float(t) for t in _FLOAT.findall(text)], _FLOAT.sub(b"#", text)
    floats = []

    def walk(node):
        if isinstance(node, float):
            floats.append(node)
            return float
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    raw = result["report.json"]
    return floats, walk(json.loads(raw)) if raw is not None else None


def _difference(a: float, b: float, scale: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / scale


def float_summary(parent: dict, change: dict) -> tuple[float, bool]:
    """(largest float difference relative to the largest finite magnitude
    on either side, whether all else matches) between the two sides'
    results of one run; all else is every non-float field (counts, strings,
    structure) and the exit code."""
    (pf, prest), (cf, crest) = _split_floats(parent), _split_floats(change)
    same_rest = prest == crest and parent.get("exit") == change.get("exit")
    scale = max((abs(x) for x in pf + cf if math.isfinite(x)), default=0.0)
    return max((_difference(a, b, scale) for a, b in zip(pf, cf)), default=0.0), same_rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    runs = matrix()
    sides = (("parent", args.parent), ("change", args.change))
    with tempfile.TemporaryDirectory() as tmp:
        results = {
            side: {name: run(tree, cmd, Path(tmp) / side / name) for name, cmd in runs.items()}
            for side, tree in sides
        }
    for side, tree in sides:
        results[side][API_RUN] = run_api(tree)
    diff = differences(results["parent"], results["change"])
    for name, outputs in diff.items():
        worst, same_rest = float_summary(results["parent"].get(name, {}), results["change"].get(name, {}))
        print(f"{name}: {', '.join(outputs)} differ; largest float difference {worst:.3g} relative, "
              f"non-float fields and exit code {'match' if same_rest else 'DIFFER'}")
    failed = [side for side, _ in sides if results[side][API_RUN]["exit"] != 0]
    for side in failed:
        print(f"{API_RUN} failed in the {side} tree")
    total = len(runs) + 1
    print(f"{total - len(diff)} of {total} runs byte-identical")
    return 1 if diff or failed else 0


if __name__ == "__main__":
    sys.exit(main())
