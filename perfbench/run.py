"""Run one workload of the mvre benchmark and print its metrics.

    python3 perfbench/run.py --workload {pretrain,finetune,infer} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; mvre is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the environment and the sample counts. The exit
code is 0 only when every op passed its output check, and 2 when the
sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread per workload process; numpy reads these when it loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pretrain", "finetune", "infer")


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in BLAS_THREADS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mvre" / "__init__.py").is_file():
        print(f"mvre sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = result.failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": environment(),
                      "samples": result.samples}))
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
