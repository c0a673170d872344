"""The three benchmark workloads: what each sets up, calls and checks.

Each workload is a closed loop of library calls made by one client in one
process. A call's inputs are either the workload's fixed reference inputs
(the warm-up pass, which also gives ``quality``) or inputs derived from the
run's seed (the timed phase). Functions are always looked up through their
module at call time, so the tracer's wrappers see every call.

- ``pretrain``: ``model.pretrain_mlm`` on the trend corpus at the trend
  shape. Runs the model, autodiff and AdamW only. One op is one optimizer
  step.
- ``finetune``: ``experiments.train`` episodes (1-shot, m=3, combined init)
  from the trend model pretrained for 3000 steps. The only workload that
  runs the view posterior, the decoupled loss, the contrastive terms, the
  dynamic probe and ``evaluate``. One op is one optimizer step.
- ``infer``: ``vocab.wrap_template`` then ``losses.infer`` at the CLI
  default shape on long sentences. No tape, no optimizer. One op is one
  instance.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mvre
from mvre import autodiff, data, experiments, losses, model, schema, vocab

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"

# The trend workload of the acceptance suite (criterion 8).
TREND_CORPUS_SEED = 1
TREND_SPLIT_SEED = 0
TREND_MODEL = dict(d=32, n_layers=2, n_heads=2, max_len=48)
TREND_M = 3
TREND_PRETRAIN_STEPS = 3000
BUILD_TIMEOUT_S = 600
TREND_EPISODE_SEEDS = (1, 2, 3, 4, 5)
TREND_EPOCHS = 40
TREND_BATCH = 8

PRETRAIN_STEPS_PER_CALL = 100

# CLI default shape over TACRED-like long sentences (about 46 live tokens).
INFER_SPEC = data.CorpusSpec(sentence_length_range=(24, 40), na_fraction=0.2)
INFER_MODEL = dict(d=64, n_layers=2, n_heads=4, max_len=128)
INFER_M = 4
INFER_WORLD_SEED = 0
INFER_REFERENCE = 400

# Seeded inputs of call i come from seed * SEED_STRIDE + i.
SEED_STRIDE = 100_000


def params_finite(params) -> bool:
    return all(np.all(np.isfinite(p.data)) for p in params.values())


class Workload:
    """Defaults shared by the workloads below."""

    def build(self):
        """Make what later runs in this checkout reuse; untimed."""

    def quality(self, world, outcomes) -> float:
        return float(np.mean(outcomes))


def trend_world():
    spec = data.CorpusSpec()
    dataset = data.generate_corpus(spec, seed=TREND_CORPUS_SEED)
    splits = data.make_splits(dataset, seed=TREND_SPLIT_SEED)
    full = data.merge_datasets([splits.train, splits.dev, splits.test])
    sch = schema.synthetic_schema(spec, dataset, TREND_M)
    voc, verbalizer = vocab.build_vocab(full, sch)
    return splits, full, sch, voc, verbalizer


def trend_model(n_vocab: int) -> model.MlmModel:
    return model.MlmModel(model.ModelConfig(vocab_size=n_vocab, **TREND_MODEL), seed=0)


@dataclass
class PretrainWorld:
    corpus: data.Dataset
    vocab: vocab.Vocab
    model: model.MlmModel


class Pretrain(Workload):
    """Masked-token pretraining; the timed calls keep training one model."""

    name = "pretrain"
    steps = True

    def setup(self, seed: int) -> PretrainWorld:
        _, full, _, voc, _ = trend_world()
        return PretrainWorld(full, voc, trend_model(len(voc)))

    def reference(self, world):
        # the first 100 steps of the trend pretraining
        return [model.PretrainConfig(steps=PRETRAIN_STEPS_PER_CALL, seed=0, log_every=0)]

    def seeded(self, world, seed: int, i: int):
        return model.PretrainConfig(steps=PRETRAIN_STEPS_PER_CALL,
                                    seed=seed * SEED_STRIDE + i, log_every=0)

    def planned(self, world, inp) -> int:
        return inp.steps

    def op(self, world, inp):
        return model.pretrain_mlm(world.model, world.corpus, world.vocab, inp)

    def check(self, world, inp, result):
        """Held-out accuracy, or None when an output check fails."""
        ok = (len(result.step_losses) == inp.steps
              and all(math.isfinite(x) for x in result.step_losses)
              and 0.0 <= result.holdout_accuracy <= 1.0
              and params_finite(world.model.params()))
        return result.holdout_accuracy if ok else None

    def params(self, world):
        return world.model.params()


@dataclass
class FinetuneWorld:
    splits: data.DatasetSplits
    schema: schema.RelationSchema
    bundle: experiments.TrainedArtifacts


def _source_digest() -> str:
    """Hash of the mvre sources, so a cached checkpoint matches the code."""
    h = hashlib.sha256()
    for path in sorted(Path(mvre.__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Finetune(Workload):
    """Prompt-tuning episodes from the trend model pretrained once per checkout.

    Pretraining the trend model takes over a minute, longer than a run may
    spend on set-up, so the first finetune run in a checkout builds it into
    ``.bench_build`` and later runs load it. The file name carries a hash of
    the sources, so a change to the program rebuilds it.
    """

    name = "finetune"
    steps = True

    def __init__(self):
        self.checkpoint = (BUILD_DIR / f"finetune-{_source_digest()}-"
                           f"{TREND_PRETRAIN_STEPS}.ckpt")

    def build(self):
        """Pretrain in a child process, so its time and memory stay out of the run."""
        if self.checkpoint.exists():
            return
        code = "import workloads; workloads.Finetune().pretrain()"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(mvre.__file__).parent.parent), str(Path(__file__).parent)])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=BUILD_TIMEOUT_S)

    def pretrain(self):
        _, full, _, voc, verbalizer = trend_world()
        net = trend_model(len(voc))
        model.pretrain_mlm(net, full, voc, model.PretrainConfig(
            steps=TREND_PRETRAIN_STEPS, seed=0, log_every=0))
        BUILD_DIR.mkdir(exist_ok=True)
        tmp = self.checkpoint.with_suffix(f".{os.getpid()}.tmp")
        model.save_checkpoint(tmp, net, vocab_payload=vocab.vocab_payload(voc, verbalizer))
        os.replace(tmp, self.checkpoint)

    def setup(self, seed: int) -> FinetuneWorld:
        splits, _, sch, voc, verbalizer = trend_world()
        ckpt = model.load_checkpoint(self.checkpoint)
        if ckpt.vocab_payload != vocab.vocab_payload(voc, verbalizer):
            raise RuntimeError(f"{self.checkpoint} was built for another vocabulary")
        head = losses.ViewPosteriorHead(ckpt.model.config.d)
        bundle = experiments.TrainedArtifacts(ckpt.model, head, voc, verbalizer)
        return FinetuneWorld(splits, sch, bundle)

    def reference(self, world):
        # the m=3 half of the acceptance trend test
        return list(TREND_EPISODE_SEEDS)

    def seeded(self, world, seed: int, i: int):
        return seed * SEED_STRIDE + i

    def config(self, episode_seed: int) -> experiments.TrainConfig:
        return experiments.TrainConfig(
            m=TREND_M, lr=1e-3, epochs=TREND_EPOCHS, batch_size=TREND_BATCH,
            max_len=TREND_MODEL["max_len"], seed=episode_seed, init_mode="combined",
            pretrain_steps=0, model=model.ModelConfig(**TREND_MODEL))

    def planned(self, world, inp) -> int:
        n_train = len(world.splits.train.relations)  # one shot per relation
        return TREND_EPOCHS * math.ceil(n_train / TREND_BATCH)

    def op(self, world, inp):
        episode = data.sample_kshot(world.splits, 1, inp)
        return experiments.train(episode, world.schema, self.config(inp),
                                 pretrained=world.bundle)

    def check(self, world, inp, result):
        """Test micro-F1, or None when an output check fails.

        Besides finite losses and parameters, one test prompt goes through
        the trained model to check that the view posterior sums to one and
        that the prediction is a known relation.
        """
        artifacts, run = result
        if not (all(math.isfinite(x) for x in run.per_epoch_losses)
                and 0.0 <= run.micro_f1 <= 1.0
                and params_finite(artifacts.model.params())
                and params_finite(artifacts.head.params())):
            return None
        prompt = vocab.wrap_template(world.splits.test.instances[0], artifacts.vocab,
                                     TREND_M, TREND_MODEL["max_len"])
        with autodiff.no_grad():
            scores = losses.view_scores(artifacts.model, artifacts.head, prompt,
                                        artifacts.verbalizer)
        label, _ = losses.infer(artifacts.model, artifacts.head, prompt,
                                artifacts.verbalizer)
        if (abs(float(scores.posterior.data.sum()) - 1.0) > 1e-9
                or label not in artifacts.verbalizer.relation_order):
            return None
        return run.micro_f1

    def params(self, world):
        return world.bundle.model.params()


@dataclass
class InferWorld:
    model: model.MlmModel
    head: losses.ViewPosteriorHead
    vocab: vocab.Vocab
    verbalizer: vocab.Verbalizer
    reference: tuple
    inputs: tuple
    na_label: str | None


class Infer(Workload):
    """Cloze inference with a freshly built model read back from a checkpoint.

    The model is untrained, so ``quality`` is low but exact: it moves only
    when the inference arithmetic changes.
    """

    name = "infer"
    steps = False

    def setup(self, seed: int) -> InferWorld:
        world = data.generate_corpus(INFER_SPEC, seed=INFER_WORLD_SEED)
        sch = schema.synthetic_schema(INFER_SPEC, world, INFER_M)
        voc, verbalizer = vocab.build_vocab(world, sch)
        net = model.MlmModel(model.ModelConfig(vocab_size=len(voc), **INFER_MODEL),
                             seed=0)
        head = losses.ViewPosteriorHead(net.config.d)
        BUILD_DIR.mkdir(exist_ok=True)
        path = BUILD_DIR / f"infer-{os.getpid()}.ckpt"
        try:
            model.save_checkpoint(path, net, head_w=head.w.data,
                                  vocab_payload=vocab.vocab_payload(voc, verbalizer))
            ckpt = model.load_checkpoint(path)
        finally:
            path.unlink(missing_ok=True)
        head.w.data = ckpt.head_w
        voc, verbalizer = vocab.vocab_from_payload(ckpt.vocab_payload)
        inputs = data.generate_corpus(INFER_SPEC, seed=seed).instances
        return InferWorld(ckpt.model, head, voc, verbalizer,
                          world.instances[:INFER_REFERENCE], inputs, world.na_label)

    def reference(self, world):
        return list(world.reference)

    def seeded(self, world, seed: int, i: int):
        return world.inputs[i % len(world.inputs)]

    def planned(self, world, inp) -> int:
        return 1

    def op(self, world, inp):
        prompt = vocab.wrap_template(inp, world.vocab, INFER_M, INFER_MODEL["max_len"])
        return losses.infer(world.model, world.head, prompt, world.verbalizer)

    def check(self, world, inp, result):
        """(prediction, gold), or None when an output check fails.

        The relation scores mix per-view probabilities with the view
        posterior, so they sum to at most one only if the posterior is
        normalised. Inference writes no parameters; a non-finite one shows
        in the scores, and ``params`` are read once per phase.
        """
        label, scores = result
        if (label not in world.verbalizer.relation_order
                or not np.all(np.isfinite(scores)) or np.any(scores < 0.0)
                or scores.sum() > 1.0 + 1e-9):
            return None
        return label, inp.label

    def quality(self, world, outcomes) -> float:
        preds, golds = zip(*outcomes)
        return experiments.micro_f1(list(preds), list(golds), world.na_label)

    def params(self, world):
        return world.model.params()


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Infer)}
