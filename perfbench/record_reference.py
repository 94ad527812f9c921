"""Write perfbench/reference.json: the set-up outputs of every workload at
the reference seed, against which each benchmark run checks its set-up.

    python3 perfbench/record_reference.py

Rerun only when a change to the program is meant to alter these outputs,
and say so with the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_program(run.ROOT)
    import workloads

    reference = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in run.WORKLOAD_NAMES:
            reference[name] = workloads.WORKLOADS[name](name, Path(workdir), 1).record_reference()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
