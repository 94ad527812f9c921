"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the last line of standard output is the result with every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every
per-layer metric instead, from a run that wraps the program's layer
boundaries (see workloads.py). The line before it records the machine,
the configuration and the raw samples.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from stats import Tally

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mc-accept", "mc-volterra-fine", "single-path")
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


class SetupError(RuntimeError):
    pass


def thread_budget(workload: str, nproc: int) -> tuple[int, int]:
    """(converge workers, BLAS threads) with workers * BLAS threads <= nproc.

    mc-accept spreads its chunks over every core with single-threaded BLAS;
    the other workloads run one worker and give BLAS the cores.
    """
    workers = nproc if workload == "mc-accept" else 1
    return workers, max(1, nproc // workers)


def import_program(root: Path):
    src = root / "src"
    if not (src / "mixedsde" / "__init__.py").is_file():
        raise SetupError(f"program source not found: {src / 'mixedsde'}")
    sys.path.insert(0, str(src))
    import mixedsde

    if Path(mixedsde.__file__).resolve().parent != (src / "mixedsde").resolve():
        raise SetupError(f"imported mixedsde from {mixedsde.__file__}, not from {src}")
    return mixedsde


def blas_info(requested: int) -> dict:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"name": name, "threads": int(fn()), "threads_from": symbol}
    return {"name": name, "threads": requested, "threads_from": "environment"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state(root: Path) -> dict:
    """sha and dirty flag, or nulls when the checkout is not a git work tree."""

    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30, env=env)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != root:
            return {"sha": None, "dirty": None}
        return {"sha": git("rev-parse", "HEAD").stdout.strip(), "dirty": bool(git("status", "--porcelain").stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def machine_info(blas: dict) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git": git_state(ROOT),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    affinity = len(os.sched_getaffinity(0))
    workers, blas_threads = thread_budget(args.workload, affinity)
    for var in _BLAS_ENV:
        os.environ[var] = str(blas_threads)

    t0 = perf_counter()
    try:
        import_program(ROOT)
        import workloads
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    from calibrate import REF_KERNEL_S, kernel_s  # numpy only after the BLAS threads are set

    kernel_s()  # the first run pays numpy's one-time set-up
    import_ref_s = import_s * REF_KERNEL_S / kernel_s()

    blas = blas_info(blas_threads)
    if workers * blas["threads"] > affinity:
        print(f"perfbench: thread budget exceeded: {workers} workers x {blas['threads']} BLAS threads > {affinity} cores", file=sys.stderr)
        return 2

    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.workload, workdir, workers)
        if args.trace:
            values, details = workload.measure_traced(args.seed, args.seconds, tally)
        else:
            measured, details = workload.measure(args.seed, args.seconds, tally)
            values = {
                "paths_per_s": measured["paths_per_s"],
                "setup_s": import_ref_s + measured["cold_setup_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    except workloads.BoundaryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "import_s": import_s,
        "machine": machine_info(blas),
        "details": details,
    }
    print(json.dumps(record))
    unlisted = set(values) - {m["name"] for m in wanted}
    if unlisted:
        print(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unlisted)}", file=sys.stderr)
        return 2
    # a per-layer metric whose layer this workload does not run reads 0
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
