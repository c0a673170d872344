"""The benchmark's calls into mvre, run small.

``perfbench/`` calls mvre through fixed names and signatures (the
``AdamW.step(opt, grads)`` hook, the ``TrainConfig`` fields, the workload
entry points). A change that breaks one fails here, not at benchmark time.
Nothing under ``perfbench/`` is written (its build directory is redirected
to ``tmp_path``, and no bytecode is cached), and the fine-tuning workload
runs from an untrained trend model, or from one pretrained for two steps,
instead of the 3000-step pretrained one.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mvre import experiments, losses

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    import harness
    import workloads
    monkeypatch.setattr(workloads, "BUILD_DIR", tmp_path)
    hook = harness.StepStamps()
    hook.install()
    yield harness, workloads, hook
    hook.uninstall()


def run_one(harness, hook, wl, world, inp):
    """One ``harness.call``; every planned op must pass the workload's check."""
    phase = harness.Phase()
    harness.call(wl, world, inp, hook, phase)
    harness.phase_check(wl, world, phase)
    assert phase.failed == 0 and phase.ops == phase.attempted == wl.planned(world, inp)
    assert len(phase.outcomes) == 1
    return phase


def test_pretrain_op_stamps_each_step(bench):
    harness, workloads, hook = bench
    wl = workloads.Pretrain()
    world = wl.setup(seed=1)
    inp = replace(wl.seeded(world, 1, 0), steps=2)
    run_one(harness, hook, wl, world, inp)
    assert len(hook.stamps) == 2


def test_infer_op(bench):
    harness, workloads, hook = bench
    wl = workloads.Infer()
    world = wl.setup(seed=1)
    phase = run_one(harness, hook, wl, world, wl.reference(world)[0])
    assert 0.0 <= wl.quality(world, phase.outcomes) <= 1.0


def test_finetune_op_from_an_untrained_trend_model(bench):
    harness, workloads, hook = bench
    wl = workloads.Finetune()
    splits, _, sch, voc, verbalizer = workloads.trend_world()
    net = workloads.trend_model(len(voc))
    bundle = experiments.TrainedArtifacts(net, losses.ViewPosteriorHead(net.config.d), voc,
                                          verbalizer)
    world = workloads.FinetuneWorld(splits, sch, bundle)
    inp = wl.reference(world)[0]
    run_one(harness, hook, wl, world, inp)
    assert len(hook.stamps) == wl.planned(world, inp)


def test_finetune_op_from_a_built_checkpoint(bench, monkeypatch, tmp_path):
    # the build's pretrain-and-save path and setup's checkpoint and vocabulary
    # check, in-process and at two pretraining steps
    harness, workloads, hook = bench
    monkeypatch.setattr(workloads, "TREND_PRETRAIN_STEPS", 2)
    workloads.Finetune().pretrain()
    wl = workloads.Finetune()
    assert wl.checkpoint.parent == tmp_path and wl.checkpoint.name.endswith("-2.ckpt")
    world = wl.setup(1)
    run_one(harness, hook, wl, world, wl.reference(world)[0])
