"""The zeroed-layer check, the work-tree check and the recorded commits of tools/bench_pairs.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LAYERS = ["fbm.fgn_s", "convergence.stop_s", "fbm.volterra_weights_s", "euler.solve_s"]


def _trace(parent: dict, change: dict) -> dict:
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


def test_zeroed_layers_lists_nonzero_parent_metrics_that_read_0():
    trace1 = {
        "mc-accept": _trace(
            {"fbm.fgn_s": 0.3, "convergence.stop_s": 0.04, "fbm.volterra_weights_s": 0.0, "euler.solve_s": 0.4},
            {"fbm.fgn_s": 0.2, "convergence.stop_s": 0.0, "fbm.volterra_weights_s": 0.0},
        ),
        "mc-volterra-fine": _trace(
            {"fbm.fgn_s": 0.0, "convergence.stop_s": 0.02, "fbm.volterra_weights_s": 0.002, "euler.solve_s": 0.2},
            {"fbm.fgn_s": 0.1, "convergence.stop_s": 0.01, "fbm.volterra_weights_s": 0.003, "euler.solve_s": 0.1},
        ),
    }
    # a metric missing on the change counts as 0; one that was 0 already, or grew from 0, does not
    assert bench_pairs.zeroed_layers(LAYERS, trace1) == {"mc-accept": ["convergence.stop_s", "euler.solve_s"]}


def test_zeroed_layers_ignores_metrics_that_are_not_per_layer():
    trace1 = {"single-path": _trace({"paths_per_s": 3.0, "fbm.fgn_s": 0.1}, {"paths_per_s": 0.0, "fbm.fgn_s": 0.1})}
    assert bench_pairs.zeroed_layers(LAYERS, trace1) == {}
    assert bench_pairs.zeroed_layers(LAYERS, {}) == {}


def _git(tree, *args):
    cmd = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t", *args]
    subprocess.run(cmd, check=True, capture_output=True)


@pytest.mark.parametrize("bare", ["parent", "change"])
def test_a_tree_that_is_not_a_git_work_tree_is_refused_before_any_run(tmp_path, monkeypatch, bare):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for side, tree in trees.items():
        tree.mkdir()
        if side != bare:
            _git(tree, "init", "-q")
            _git(tree, "commit", "-q", "--allow-empty", "-m", "c")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--topic", "t", "--what", "w",
            "--workloads", "mc-accept", "--seeds", "1", "2", "--seconds", "1"]
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(argv)
    message = str(refused.value)
    assert message.startswith(f"--{bare} {trees[bare]} is not the top of a git work tree")
    assert "git worktree add" in message


def test_work_tree_sha_reads_head_only_at_the_top_of_a_work_tree(tmp_path):
    _git(tmp_path, "init", "-q")
    assert bench_pairs.work_tree_sha(tmp_path) is None  # no commit to name yet
    _git(tmp_path, "commit", "-q", "--allow-empty", "-m", "c")
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    assert bench_pairs.work_tree_sha(tmp_path) == head.strip()
    (tmp_path / "sub").mkdir()
    assert bench_pairs.work_tree_sha(tmp_path / "sub") is None  # inside a work tree, not its top


def _head(tree) -> str:
    return subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()


def test_the_file_names_both_commits_and_whether_each_tree_was_dirty(tmp_path, monkeypatch):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for side, tree in trees.items():
        tree.mkdir()
        _git(tree, "init", "-q")
        _git(tree, "commit", "-q", "--allow-empty", "-m", side)
    declared = {"end_to_end": [{"name": "paths_per_s", "unit": "1/s", "better": "higher"}],
                "per_layer": [{"name": "fbm.fgn_s", "unit": "s", "better": "lower"}]}
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(declared))
    runs = []

    def run_once(tree, workload, seed, seconds, trace):
        side = tree.name
        runs.append((side, trace))
        # the change tree reads dirty in its traced run only; the parent in none
        git = {"sha": _head(tree), "dirty": side == "change" and trace == 1}
        record = {"workers": 2, "machine": {"nproc": 2, "blas": {"threads": 1}, "git": git}}
        metric = "fbm.fgn_s" if trace else "paths_per_s"
        return record, {"correct": True, "attempted": 1, "failed": 0, "metrics": {metric: {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_t.json"
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--topic", "t", "--what", "w",
            "--workloads", "mc-accept", "--seeds", "1", "2", "--seconds", "1", "--trace-workloads", "mc-accept",
            "--trace-seed", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    bench = json.loads(out.read_text())
    assert sorted(runs) == sorted([("parent", 0), ("change", 0)] * 2 + [("parent", 1), ("change", 1)])
    assert (bench["parent"], bench["change"]) == (_head(trees["parent"]), _head(trees["change"]))
    assert bench["parent"] != bench["change"]
    assert bench["dirty"] == {"parent": False, "change": True}
    assert "git" not in bench["machine"]
