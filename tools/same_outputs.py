"""Byte-for-byte comparison of `converge` outputs between two checkouts.

    python3 tools/same_outputs.py --parent DIR --change DIR

Each DIR is a checkout of the program. For every run of a fixed matrix
(presets linear, bounded-smooth and unbounded-b with --force; independent
and Volterra noise; threshold 50 and 2; workers 1 and 2; each with 300
paths, levels 16,32,64, m_fine 3 and eval_n 64) the script runs
`python -m mixedsde.cli converge` once in each tree, with that tree's src/
on PYTHONPATH. It compares the exit code, stdout (the output directory
masked), report.json, report.csv, report_loglog.csv and manifest.json byte
for byte, prints each run that differs with what differs, and exits 1 if
any run does.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = ("report.json", "report.csv", "report_loglog.csv", "manifest.json")
COMMON = ["--paths", "300", "--levels", "16,32,64", "--m-fine", "3", "--eval-n", "64"]
PRESETS = {"linear": [], "bounded-smooth": [], "unbounded-b": ["--force"]}


def matrix() -> dict[str, list[str]]:
    """The converge arguments of every run, by run name."""
    runs = {}
    for (preset, extra), dep, threshold, workers in itertools.product(
        PRESETS.items(), ("independent", "volterra"), ("50", "2"), ("1", "2")
    ):
        name = f"{preset}-{dep}-threshold{threshold}-workers{workers}"
        runs[name] = ["--preset", preset, *extra, "--dependence", dep, "--threshold", threshold,
                      "--workers", workers, *COMMON]
    return runs


def run(tree: Path, args: list[str], outdir: Path) -> dict:
    """Exit code, stdout with outdir masked, and the bytes of each output
    file (None when it was not written) of one converge run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    cmd = [sys.executable, "-m", "mixedsde.cli", "converge", *args, "--outdir", str(outdir)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True)
    files = {f: (outdir / f).read_bytes() if (outdir / f).exists() else None for f in FILES}
    return {"exit": proc.returncode, "stdout": proc.stdout.replace(str(outdir).encode(), b"<outdir>"), **files}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    runs = matrix()
    with tempfile.TemporaryDirectory() as tmp:
        results = {
            side: {name: run(tree, cmd, Path(tmp) / side / name) for name, cmd in runs.items()}
            for side, tree in (("parent", args.parent), ("change", args.change))
        }
    diff = differences(results["parent"], results["change"])
    for name, outputs in diff.items():
        print(f"{name}: {', '.join(outputs)} differ")
    print(f"{len(runs) - len(diff)} of {len(runs)} runs byte-identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
