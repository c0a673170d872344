"""Closed-loop timing of one workload: set-up, warm-up, timed phase, checks."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from mvre import model, vocab

import tracing
from workloads import WORKLOADS, params_finite

# Set-ups timed per run: one before the warm-up, the rest spread evenly over
# the timed phase. ``setup_s`` is their upper quartile. A shared host runs a
# process at one of two speeds, for seconds to minutes at a time; the slow
# one shows in every run, so the upper quartile reads it, while the fastest
# and the median set-up move with the share of the run spent at each speed.
SETUP_SAMPLES = 32


class StepStamps:
    """The one hook of an untraced run: the time each ``AdamW.step`` returns."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stamps: list[float] = []
        self._original = None

    def install(self):
        original = self._original = model.AdamW.step

        def step(opt, grads):
            original(opt, grads)
            self.stamps.append(self.clock())

        model.AdamW.step = step

    def uninstall(self):
        model.AdamW.step = self._original


@dataclass
class Phase:
    """Ops of a run of calls; ``outcomes`` feed the workload's quality.

    ``wall`` is the time spent inside library calls, on the wall clock.
    """

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    def add(self, other: "Phase"):
        self.attempted += other.attempted
        self.failed += other.failed


def call(wl, world, inp, hook: StepStamps, phase: Phase, tracer=None):
    """One library call; an exception or a failed check fails its planned ops.

    With a ``tracer``, only the library call runs traced; the output check
    runs after it, outside every span and outside ``phase.wall``.
    """
    planned = wl.planned(world, inp)
    hook.stamps.clear()
    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), hook.clock()
    try:
        try:
            result = wl.op(world, inp)
        finally:
            phase.wall += time.perf_counter() - t0
            latency = hook.clock() - c0
            if tracer is not None:
                tracer.uninstall()
        outcome = wl.check(world, inp, result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = None
    if wl.steps:
        done = len(hook.stamps)
        phase.latencies.extend(b - a for a, b in zip(hook.stamps, hook.stamps[1:]))
        if done != planned:
            outcome = None
    else:
        done = 1
        phase.latencies.append(latency)
    phase.ops += done
    phase.attempted += planned
    if outcome is None:
        phase.failed += planned
    else:
        phase.outcomes.append(outcome)


def phase_check(wl, world, phase: Phase):
    if not params_finite(wl.params(world)):
        print(f"{wl.name}: non-finite parameter after the phase", file=sys.stderr)
        phase.failed = phase.attempted


def warm_up(wl, world, hook: StepStamps) -> Phase:
    """The reference inputs, untimed; their outcomes give ``quality``."""
    phase = Phase()
    for inp in wl.reference(world):
        call(wl, world, inp, hook, phase)
    phase_check(wl, world, phase)
    return phase


def timed(wl, world, seed: int, seconds: float, hook: StepStamps,
          setup_times: list[float]) -> Phase:
    """Calls on seeded inputs, one after another, until ``seconds`` have passed.

    Between calls, a set-up is timed for every slot that has come due and
    appended to ``setup_times``; set-ups fall outside ``phase.wall``.
    """
    phase = Phase()
    start = time.perf_counter()
    slot = seconds / SETUP_SAMPLES
    i = 0
    while time.perf_counter() - start < seconds:
        while time.perf_counter() - start >= slot * len(setup_times):
            t0 = time.perf_counter()
            wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        call(wl, world, wl.seeded(world, seed, i), hook, phase)
        i += 1
    phase_check(wl, world, phase)
    return phase


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit)
    samples: dict


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    wl = WORKLOADS[workload]()
    wl.build()
    hook = StepStamps()
    hook.install()
    try:
        return (run_traced if trace else run_untraced)(wl, seed, seconds, hook)
    finally:
        hook.uninstall()


def run_untraced(wl, seed, seconds, hook) -> Result:
    t0 = time.perf_counter()
    world = wl.setup(seed)
    setup_times = [time.perf_counter() - t0]
    warm = warm_up(wl, world, hook)
    phase = timed(wl, world, seed, seconds, hook, setup_times)
    phase.add(warm)
    lat = phase.latencies
    quality = wl.quality(world, warm.outcomes) if warm.outcomes else 0.0
    metrics = {
        "setup_s": (statistics.quantiles(setup_times, n=4)[-1], "s"),
        "ops_per_s": (phase.ops / phase.wall, "ops/s"),
        "op_ms_p90": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "quality": (quality, "ratio"),
        "ok_op_ratio": (1.0 - phase.failed / phase.attempted, "ratio"),
    }
    # The median is not a metric: the host switches between a fast and a
    # slow state, and the median jumps between them with the share of the
    # run spent in each (its 10-run IQR reached 0.27 of the median).
    samples = {"op_latencies": len(lat), "op_ms_p50": 1e3 * statistics.median(lat),
               "ops": phase.ops, "wall_s": phase.wall, "setup_s": setup_times}
    return Result(phase.attempted, phase.failed, metrics, samples)


def run_traced(wl, seed, seconds, hook) -> Result:
    """Set-up and warm-up traced once, then calls alternate untraced and traced.

    Both calls of a pair get the same input, so the two sides see the same
    work and the same machine, and their ops/s ratio is the tracing overhead.
    Step latencies of the traced side run on the tracer's clock, which stops
    while the tracer counts graph nodes and tokens.
    """
    tracer = tracing.Tracer(mask_id=vocab.Vocab(vocab.SPECIAL_TOKENS, 0).mask_id)
    base, phase = Phase(), Phase()
    try:
        tracer.install()
        world = wl.setup(seed)
        setup = tracer.reset()
        tracer.uninstall()
        warm = warm_up(wl, world, hook)
        paused = tracer.paused
        start, i = time.perf_counter(), 0
        while time.perf_counter() - start < seconds or i % 2 == 1:
            inp = wl.seeded(world, seed, i // 2)
            if i % 2 == 0:
                call(wl, world, inp, hook, base)
            else:
                hook.clock = tracer.now
                call(wl, world, inp, hook, phase, tracer)
                hook.clock = time.perf_counter
            i += 1
        spans = tracer.reset()
        paused = tracer.paused - paused
    finally:
        hook.clock = time.perf_counter
        tracer.uninstall()
    for side in (base, phase):
        phase_check(wl, world, side)
    metrics = tracing.per_layer(setup, spans, tracer.errors, phase.ops, phase.wall,
                                paused, base.ops / base.wall)
    phase.add(base)
    phase.add(warm)
    samples = {"ops": phase.ops, "wall_s": phase.wall, "paused_s": paused,
               "untraced_ops": base.ops, "untraced_wall_s": base.wall}
    return Result(phase.attempted, phase.failed, metrics, samples)
