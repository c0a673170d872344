"""Self-test of the benchmark's output checks: a NaN parameter fails the op.

    python3 perfbench/selftest.py

For each workload, one call on a healthy world must pass its checks, and
one call after a NaN is written into a weight matrix must count every
planned op as failed. The fine-tuning world loads the pretrained trend
model, built into ``.bench_build`` first if it is missing (over a minute).
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import harness
from workloads import Finetune, Infer, Pretrain


def check_workload(wl) -> list[str]:
    wl.build()
    world = wl.setup(seed=1)
    hook = harness.StepStamps()
    hook.install()
    try:
        healthy, poisoned = harness.Phase(), harness.Phase()
        harness.call(wl, world, wl.seeded(world, 1, 0), hook, healthy)
        wl.params(world)["blocks.0.attn.wq"].data[0, 0] = np.nan
        harness.call(wl, world, wl.seeded(world, 1, 1), hook, poisoned)
    finally:
        hook.uninstall()
    problems = []
    if healthy.attempted == 0 or healthy.failed:
        problems.append(f"{wl.name}: healthy call failed ({healthy.failed} of "
                        f"{healthy.attempted} ops)")
    if poisoned.attempted == 0 or poisoned.failed != poisoned.attempted:
        problems.append(f"{wl.name}: NaN parameter not caught ({poisoned.failed} of "
                        f"{poisoned.attempted} ops failed)")
    return problems


def main() -> int:
    problems = []
    for wl in (Pretrain(), Finetune(), Infer()):
        problems += check_workload(wl)
        print(f"{wl.name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
