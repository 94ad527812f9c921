"""Alternating parent/change benchmark pairs, written as a BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --topic NAME --what TEXT \
        --workloads mc-accept mc-volterra-fine single-path --seeds 71 72 ... 80 \
        --seconds 30 --trace-workloads mc-accept --trace-seed 81 [--out FILE]

Each of DIR is a checkout of the program with its own perfbench/. For every
workload and seed the script runs `perfbench/run.py --trace 0` once in each
tree, the parent first on even pairs and the change first on odd ones, one
run at a time. Then it runs `--trace 1` once per tree for each traced
workload. It writes every per-seed value with the median, the quartiles
(inclusive method) and the number of pairs the change won for each
end-to-end metric of BENCHMARK.json, the traced per-layer metrics, the
machine block, the commands and the protocol. A run that exits non-zero
stops the script with its stderr.

Each DIR must be the top of a git work tree (a clone, or `git worktree
add`), so that the file can name the commit of each side; any other tree,
such as a `git archive` export, is refused before the first run. The file
also says whether each tree had uncommitted changes in any of its runs,
as perfbench/run.py's records report.

A per-layer metric that is nonzero on the parent and exactly 0 on the
change usually means the change moved code out of reach of the trace, not
that the layer got free. Such metrics are listed under "zeroed_layers" in
the file and printed, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN = "perfbench/run.py"


def work_tree_sha(tree: Path) -> str | None:
    """HEAD of tree when tree is the top of a git work tree, else None: the
    rule of perfbench/run.py's git_state."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tree.parent))  # no search above the tree

    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, timeout=30, env=env)

    try:
        top, head = git("rev-parse", "--show-toplevel"), git("rev-parse", "--verify", "HEAD")
    except (OSError, subprocess.TimeoutExpired):
        return None
    if top.returncode or head.returncode or Path(top.stdout.strip()).resolve() != tree:
        return None
    return head.stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(record, result): the last two lines that run.py prints."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(spec: list[dict], results: dict) -> dict:
    """Per end-to-end metric: both sides' summaries, the ratio of medians
    and the pairs in which the change was better."""
    out = {}
    for m in spec:
        name = m["name"]
        side = {s: [r["metrics"][name]["value"] for r in results[s]] for s in ("parent", "change")}
        sign = 1.0 if m["better"] == "higher" else -1.0
        pairs = zip(side["parent"], side["change"])
        out[name] = {
            "unit": m["unit"],
            "parent": summary(side["parent"]),
            "change": summary(side["change"]),
            "change_over_parent": statistics.median(side["change"]) / statistics.median(side["parent"]),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in pairs),
        }
    return out


def zeroed_layers(per_layer: list[str], trace1: dict) -> dict:
    """Per traced workload, the per-layer metrics that are nonzero on the
    parent and 0 (or missing) on the change; workloads without one are left out."""
    out = {}
    for workload, sides in trace1.items():
        parent, change = (sides[s]["metrics"] for s in ("parent", "change"))
        zeroed = [name for name in per_layer if parent.get(name, 0.0) != 0.0 and change.get(name, 0.0) == 0.0]
        if zeroed:
            out[workload] = zeroed
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--topic", required=True, help="the file is BENCH_<topic>.json")
    p.add_argument("--what", required=True, help="one line on what the change does")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed and workload")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-workloads", nargs="*", default=[], help="workloads with one --trace 1 run per side")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None, help="default: BENCH_<topic>.json in the change tree")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    if args.trace_workloads and args.trace_seed is None:
        p.error("--trace-workloads needs --trace-seed")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: work_tree_sha(tree) for side, tree in trees.items()}
    for side, sha in shas.items():
        if sha is None:
            raise SystemExit(
                f"--{side} {trees[side]} is not the top of a git work tree with a commit, so the file could not name "
                "its commit; check the commit out with `git worktree add` (or clone it) and pass that directory"
            )
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    spec = declared["end_to_end"]

    machine, trace0, trace1, dirty = None, {}, {}, {"parent": False, "change": False}
    for workload in args.workloads:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record, result = run_once(trees[side], workload, seed, args.seconds, 0)
                results[side].append(result)
                dirty[side] |= bool(record["machine"]["git"]["dirty"])
                print(f"{workload} seed {seed} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
                machine = machine or {k: v for k, v in record["machine"].items() if k != "git"}
        trace0[workload] = {
            "workers": record["workers"],
            "blas_threads": record["machine"]["blas"]["threads"],
            "seeds": args.seeds,
            "correct": {s: all(r["correct"] for r in results[s]) for s in results},
            "attempted": {s: sum(r["attempted"] for r in results[s]) for s in results},
            "failed": {s: sum(r["failed"] for r in results[s]) for s in results},
            "metrics": compare(spec, results),
        }
    for workload in args.trace_workloads:
        trace1[workload] = {}
        for side in ("parent", "change"):
            record, result = run_once(trees[side], workload, args.trace_seed, args.seconds, 1)
            dirty[side] |= bool(record["machine"]["git"]["dirty"])
            print(f"{workload} traced {side}: correct={result['correct']}", file=sys.stderr)
            trace1[workload][side] = {
                "seed": args.trace_seed,
                "correct": result["correct"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }

    consecutive = args.seeds == list(range(args.seeds[0], args.seeds[-1] + 1))
    seeds = f"{args.seeds[0]}..{args.seeds[-1]}" if consecutive else " ".join(map(str, args.seeds))
    bench = {
        "topic": args.topic,
        "what": args.what,
        "parent": shas["parent"],
        "change": shas["change"],
        "dirty": dirty,
        "commands": {
            "pairs": (
                f"python3 tools/bench_pairs.py --parent PARENT --change CHANGE --topic {args.topic} --what TEXT "
                f"--workloads {' '.join(args.workloads)} --seeds {' '.join(map(str, args.seeds))} "
                f"--seconds {args.seconds:g}"
                + (f" --trace-workloads {' '.join(trace1)} --trace-seed {args.trace_seed}" if trace1 else "")
            ),
            "trace0": f"python3 {RUN} --workload W --seed S --seconds {args.seconds:g} --trace 0",
        },
        "protocol": (
            f"each side run from its own tree; {len(args.seeds)} pairs per workload at seeds {seeds}, "
            "parent first on even pairs and the change first on odd ones; workloads and runs one after "
            "another; then one --trace 1 run per side for " + (", ".join(args.trace_workloads) or "no workload")
        ),
        "machine": machine,
        "trace0": trace0,
        "trace1": trace1,
        "zeroed_layers": zeroed_layers([m["name"] for m in declared["per_layer"]], trace1),
    }
    if trace1:
        traced = f"--workload W --seed {args.trace_seed} --seconds {args.seconds:g} --trace 1"
        bench["commands"]["trace1"] = f"python3 {RUN} {traced}"
    out = args.out or trees["change"] / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    for workload, names in bench["zeroed_layers"].items():
        print(f"{workload}: nonzero on the parent, 0 on the change: {' '.join(names)}", file=sys.stderr)
    return 1 if bench["zeroed_layers"] else 0


if __name__ == "__main__":
    sys.exit(main())
