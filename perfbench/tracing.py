"""Spans around the public entry points of mvre's modules, from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each wrapper wherever the original is bound, including names other
modules imported with ``from .x import y``, so calls are seen at the
boundary their caller uses. A span's self time is its duration minus the
time of the spans it encloses. Counters that need inspecting arguments
(graph nodes, tokens) run on a clock that is paused, so they add to no span.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

from mvre import (autodiff, data, experiments, init_schemes, losses, model,
                  vocab)

MODULES = {"autodiff": autodiff, "data": data, "vocab": vocab, "model": model,
           "losses": losses, "init_schemes": init_schemes,
           "experiments": experiments}
# context managers: a span would time only their creation
SKIP = {"autodiff.no_grad"}
METHODS = ((model.AdamW, "step"), (model.MlmModel, "copy"),
           (model.MlmModel, "check_finite"))


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def count_nodes(loss) -> int:
    """Unique graph nodes reachable from ``loss``, the loss included."""
    seen: set[int] = set()
    todo = [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


class Tracer:
    def __init__(self, mask_id: int):
        self.mask_id = mask_id
        self.paused = 0.0
        self.errors = {name: 0 for name in MODULES}
        self._open: list[float] = []   # child time of each open span
        self._restore: list[tuple[object, str, object]] = []
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self.reset()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def reset(self) -> dict:
        """Return the spans and counters so far and start new ones."""
        taken = (self.spans, self.counts)
        self.spans = {}
        self.counts = {"nodes": 0, "tokens": 0, "mask_rows": 0}
        return taken

    def _count(self, fn, args):
        t0 = time.perf_counter()
        fn(*args)
        self.paused += time.perf_counter() - t0

    def _count_grad(self, loss, *_):
        self.counts["nodes"] += count_nodes(loss)

    def _count_forward(self, _model, ids, *_, **__):
        ids = np.asarray(ids)
        self.counts["tokens"] += len(ids)
        self.counts["mask_rows"] += int((ids == self.mask_id).sum())

    def wrap(self, name: str, fn):
        module = name.split(".")[0]
        counter = {"autodiff.grad": self._count_grad,
                   "model.forward_ids": self._count_forward}.get(name)
        open_spans, errors = self._open, self.errors

        def traced(*args, **kwargs):
            if counter is not None:
                self._count(counter, args)
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = Span()
            open_spans.append(0.0)
            t0 = self.now()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                duration = self.now() - t0
                span.calls += 1
                span.total += duration
                span.self_time += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "mvre" or n.startswith("mvre.")]
        for short, module in MODULES.items():
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(name, fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._restore.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)
        for cls, attr in METHODS:
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(f"model.{cls.__name__}.{attr}", fn))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)


AUTODIFF_OPS = ("matmul", "add", "sub", "mul", "div", "index", "embedding",
                "transpose", "softmax", "layer_norm", "gelu", "sigmoid", "log",
                "cosine", "stack", "concat", "tsum", "tmean")


def per_layer(setup: tuple[dict, dict], timed: tuple[dict, dict], errors: dict,
              ops: int, wall: float, paused: float, untraced_ops_per_s: float) -> dict:
    """Per-layer metrics of one traced timed phase, as name -> (value, unit).

    ``wall`` is the wall-clock time of the traced calls and ``paused`` the
    part of it spent counting, which no span holds. Times are per op unless
    the unit says per call or per episode; the set-up spans give the
    per-call checkpoint and corpus times.
    """
    spans, counts = timed
    setup_spans, _ = setup

    def get(name, table=spans) -> Span:
        return table.get(name, Span())

    def per_op(seconds):
        return 1e3 * seconds / ops

    def per_call(span):
        return 1e3 * span.total / span.calls if span.calls else 0.0

    episodes = get("experiments.train").calls
    per_episode = (lambda s: 1e3 * s / episodes) if episodes else (lambda s: 0.0)
    grad, fwd = get("autodiff.grad"), get("model.forward_ids")
    self_by_module = {m: sum(s.self_time for n, s in spans.items()
                             if n.split(".")[0] == m) for m in MODULES}
    encode = [get("vocab.wrap_template"), get("vocab.encode_sentence")]

    out = {
        "autodiff.nodes_per_step": (counts["nodes"] / grad.calls if grad.calls else 0.0,
                                    "nodes"),
        "autodiff.backward_ms": (per_op(grad.total), "ms/op"),
        "autodiff.forward_ms": (per_op(self_by_module["autodiff"] - grad.self_time),
                                "ms/op"),
    }
    for op in AUTODIFF_OPS:
        out[f"autodiff.calls.{op}"] = (get(f"autodiff.{op}").calls / ops, "calls/op")
    out.update({
        "model.forward_ms": (per_op(fwd.total), "ms/op"),
        "model.forward_self_ms": (per_op(fwd.self_time), "ms/op"),
        "model.forward_calls": (fwd.calls / ops, "calls/op"),
        "model.tokens_per_forward": (counts["tokens"] / fwd.calls if fwd.calls else 0.0,
                                     "tokens"),
        "model.head_rows_read_ratio": (counts["mask_rows"] / counts["tokens"]
                                       if counts["tokens"] else 0.0, "ratio"),
        "model.adamw_ms": (per_op(get("model.AdamW.step").total), "ms/op"),
        "model.checkpoint_save_ms": (per_call(get("model.save_checkpoint", setup_spans)),
                                     "ms/call"),
        "model.checkpoint_load_ms": (per_call(get("model.load_checkpoint", setup_spans)),
                                     "ms/call"),
        "losses.view_scores_self_ms": (per_op(get("losses.view_scores").self_time), "ms/op"),
        "losses.mvdl_ms": (per_op(get("losses.mvdl_loss").total), "ms/op"),
        "losses.local_ms": (per_op(get("losses.local_loss").total), "ms/op"),
        "losses.global_ms": (per_op(get("losses.global_loss").total), "ms/op"),
        "losses.infer_self_ms": (per_op(get("losses.infer").self_time), "ms/op"),
        "init_schemes.apply_init_ms": (per_episode(get("init_schemes.apply_init").total),
                                       "ms/episode"),
        "experiments.evaluate_ms": (per_episode(get("experiments.evaluate").total),
                                    "ms/episode"),
        "experiments.train_self_ms": (per_episode(get("experiments.train").self_time),
                                      "ms/episode"),
        "vocab.encode_ms": (per_op(sum(s.total for s in encode)), "ms/op"),
        "vocab.encode_calls": (sum(s.calls for s in encode) / ops, "calls/op"),
        "data.sample_kshot_ms": (per_op(get("data.sample_kshot").total), "ms/op"),
        "data.generate_corpus_ms": (per_call(get("data.generate_corpus", setup_spans)),
                                    "ms/call"),
    })
    for m in MODULES:
        out[f"{m}.self_ms"] = (per_op(self_by_module[m]), "ms/op")
        out[f"{m}.errors"] = (errors[m], "count")
    span_wall = wall - paused
    attributed = sum(self_by_module.values())
    out["trace.unattributed_ratio"] = ((span_wall - attributed) / span_wall, "ratio")
    out["trace.overhead_ratio"] = (ops / wall / untraced_ops_per_s, "ratio")
    return out
