"""Training loop, evaluation, and the analysis protocols built on top of it:
seeded grids, the mask-count sweep, the low-vs-high-resource similarity
protocol, and the virtual-word/aspect relevance heatmap.

An episode is a ``DatasetSplits`` from ``sample_kshot``. Every run is a pure
function of (episode, schema, config): model init, batching order, and
masking all derive from the config seed, so identical inputs reproduce
identical results bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Dataset, DatasetSplits, merge_datasets, sample_kshot
from .errors import AnalysisError, UndefinedRatioError, ValidationError
from .init_schemes import COMBINED, DYNAMIC, INIT_MODES, apply_init
from .losses import (ViewPosteriorHead, infer_batch, local_loss, global_loss, mvdl_loss,
                     total_loss, verbalizer_embeddings, view_scores)
from .model import AdamW, MlmModel, ModelConfig, PretrainConfig, PretrainResult, pretrain_mlm
from .schema import RelationSchema
from .vocab import Verbalizer, Vocab, build_vocab, wrap_template

logger = logging.getLogger(__name__)

ALPHA_DEFAULT, BETA_DEFAULT = 2.0, 0.1
ALPHA_DYNAMIC, BETA_DYNAMIC = 1.2, 0.7


@dataclass
class TrainConfig:
    """All optimization and multi-view hyperparameters for one run.

    ``alpha``/``beta`` default to 2.0/0.1, or 1.2/0.7 when the init mode
    involves cloze probing; leave them None to get that behavior.
    """

    m: int = 4
    alpha: float | None = None
    beta: float | None = None
    lr: float = 3e-5
    epochs: int = 40
    batch_size: int = 8
    max_len: int = 128
    seed: int = 1
    init_mode: str = COMBINED
    pretrain_steps: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self):
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be positive and finite, got {self.lr}")
        for name in ("epochs", "seed", "alpha", "beta", "pretrain_steps"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < np.inf:  # NaN fails too
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.init_mode not in INIT_MODES:
            raise ValidationError(f"unknown init_mode {self.init_mode!r}")

    def resolved_alpha_beta(self) -> tuple[float, float]:
        probing = self.init_mode in (DYNAMIC, COMBINED)
        alpha = self.alpha if self.alpha is not None else (ALPHA_DYNAMIC if probing else ALPHA_DEFAULT)
        beta = self.beta if self.beta is not None else (BETA_DYNAMIC if probing else BETA_DEFAULT)
        return alpha, beta

    def snapshot(self) -> dict:
        d = asdict(self)
        d["alpha"], d["beta"] = self.resolved_alpha_beta()
        return d


@dataclass
class RunResult:
    micro_f1: float
    per_epoch_losses: list[float]
    config: dict
    wall_time: float

    def payload(self) -> dict:
        """JSON form; wall time stays out of artifact files."""
        return {"micro_f1": self.micro_f1, "per_epoch_losses": self.per_epoch_losses,
                "config": self.config}


@dataclass
class TrainedArtifacts:
    model: MlmModel
    head: ViewPosteriorHead
    vocab: Vocab
    verbalizer: Verbalizer


def micro_f1(predictions, golds, na_label: str | None) -> float:
    """Micro F1 over non-NA decisions (the usual RE convention). Without an
    NA label every exact match counts and the score reduces to accuracy."""
    if len(predictions) != len(golds):
        raise ValueError(f"got {len(predictions)} predictions for {len(golds)} golds")
    if na_label is None:
        tp = sum(1 for p, g in zip(predictions, golds) if p == g)
        pred_pos = gold_pos = len(golds)
    else:
        tp = sum(1 for p, g in zip(predictions, golds) if p == g and g != na_label)
        pred_pos = sum(1 for p in predictions if p != na_label)
        gold_pos = sum(1 for g in golds if g != na_label)
    if pred_pos == 0 or gold_pos == 0:
        return 0.0
    precision = tp / pred_pos
    recall = tp / gold_pos
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _encode_all(dataset: Dataset, vocab: Vocab, config: TrainConfig):
    return [wrap_template(inst, vocab, config.m, config.max_len) for inst in dataset.instances]


def predict(artifacts: TrainedArtifacts, dataset: Dataset, config: TrainConfig) -> list[str]:
    """Predicted relation of every instance, in packed batches of
    ``config.batch_size`` prompts, so memory stays at a training step's."""
    prompts = _encode_all(dataset, artifacts.vocab, config)
    return [label for start in range(0, len(prompts), config.batch_size)
            for label, _ in infer_batch(artifacts.model, artifacts.head,
                                        prompts[start : start + config.batch_size],
                                        artifacts.verbalizer)]


def evaluate(artifacts: TrainedArtifacts, dataset: Dataset, config: TrainConfig,
             na_label: str | None) -> float:
    """Micro F1 of ``predict`` on a dataset."""
    golds = [inst.label for inst in dataset.instances]
    return micro_f1(predict(artifacts, dataset, config), golds, na_label)


def pretrain_bundle(corpus: Dataset, schema: RelationSchema, model_config: ModelConfig,
                    pretrain_config: PretrainConfig
                    ) -> tuple[TrainedArtifacts, PretrainResult | None]:
    """The vocabulary and verbalizer of ``corpus`` and ``schema``, a model seeded
    with ``pretrain_config.seed`` and masked-token pretrained on ``corpus``, and
    a zero-initialised view head. Zero pretraining steps leave the model as
    drawn and give no pretraining result."""
    vocab, verbalizer = build_vocab(corpus, schema)
    model = MlmModel(replace(model_config, vocab_size=len(vocab)), seed=pretrain_config.seed)
    result = (pretrain_mlm(model, corpus, vocab, pretrain_config)
              if pretrain_config.steps > 0 else None)
    return TrainedArtifacts(model, ViewPosteriorHead(model.config.d), vocab, verbalizer), result


def train(episode: DatasetSplits, schema: RelationSchema, config: TrainConfig,
          pretrained: TrainedArtifacts | None = None) -> tuple[TrainedArtifacts, RunResult]:
    """Prompt-tune on a k-shot episode and evaluate on its test split.

    Starts from a copy of the pretrained bundle's model; without one, builds
    a bundle of ``config.model`` from the whole episode with
    ``pretrain_bundle`` (seeded with ``config.seed``, pretrained for
    ``config.pretrain_steps`` of the one pretraining recipe). Either
    way the bundle's m, ``max_len`` and model config (all but
    ``vocab_size``) must be the config's, and its relation order the
    schema's. Applies the configured virtual-word initialization, then
    minimizes ``total_loss`` (the decoupled loss plus the weighted
    contrastive terms) with mini-batch AdamW.
    """
    t0 = time.perf_counter()
    config.validate()
    if schema.m != config.m:
        schema = schema.with_m(config.m)
    alpha, beta = config.resolved_alpha_beta()
    if not episode.train.instances:
        raise ValidationError("episode train split is empty")

    if pretrained is None:
        pretrained, _ = pretrain_bundle(
            merge_datasets([episode.train, episode.dev, episode.test]), schema, config.model,
            PretrainConfig(steps=config.pretrain_steps, seed=config.seed))
    held = pretrained.model.config
    if config.max_len != held.max_len:
        raise ValidationError(f"the bundle was built with max_len={held.max_len}, "
                              f"config wants max_len={config.max_len}")
    if replace(config.model, vocab_size=held.vocab_size) != held:
        raise ValidationError(f"pretrained bundle's model is {held}, config wants "
                              f"{config.model}")
    model = pretrained.model.copy()
    vocab, verbalizer = pretrained.vocab, pretrained.verbalizer
    if verbalizer.m != config.m:
        raise ValidationError(f"pretrained bundle was built with m={verbalizer.m}, "
                              f"config wants m={config.m}")
    if schema.relations != verbalizer.relation_order:
        raise ValidationError(f"schema relations {list(schema.relations)} differ from the "
                              f"pretrained bundle's {list(verbalizer.relation_order)}")

    head = ViewPosteriorHead(model.config.d)
    apply_init(config.init_mode, schema, vocab, verbalizer, model)

    prompts = _encode_all(episode.train, vocab, config)
    labels = [verbalizer.relation_order.index(inst.label) for inst in episode.train.instances]
    params = (model.params(), head.params())
    opt = AdamW(params, lr=config.lr)
    shuffle_rng = np.random.default_rng([config.seed, 0x5F])
    n_rel = len(schema.relations)

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(prompts))
        batch_losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            scores = view_scores(model, head, [prompts[i] for i in batch], verbalizer)
            mvdl = ad.tmean(mvdl_loss(scores, [labels[i] for i in batch]))
            local = local_loss(verbalizer_embeddings(model, verbalizer), n_rel, config.m)
            global_ = global_loss(verbalizer_embeddings(model, verbalizer), n_rel, config.m)
            loss = total_loss(mvdl, local, global_, alpha, beta)
            grads = ad.grad(loss, params)
            opt.step(grads)
            batch_losses.append(loss.item())
        epoch_losses.append(float(np.mean(batch_losses)))
    model.check_finite()

    artifacts = TrainedArtifacts(model, head, vocab, verbalizer)
    f1 = evaluate(artifacts, episode.test, config, schema.na_label)
    result = RunResult(f1, epoch_losses, config.snapshot(), time.perf_counter() - t0)
    return artifacts, result


# -- grids, sweeps, protocols -----------------------------------------------------


@dataclass
class GridRow:
    k: int
    config_label: str
    m: int
    mean_f1: float
    std_f1: float
    f1s: list[float]
    seeds: list[int]


def _population_std(xs) -> float:
    return float(np.std(np.asarray(xs, dtype=np.float64)))


def _worker_count() -> int:
    """Worker cap from the MVRE_THREADS environment variable; unset or 1 means serial."""
    raw = os.environ.get("MVRE_THREADS", "1")
    if not (raw.isdecimal() and int(raw) > 0):
        raise ValidationError(f"MVRE_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _grid_task(task) -> float:
    splits, schema, k, seed, cfg = task
    episode = sample_kshot(splits, k, seed)
    _, result = train(episode, schema, replace(cfg, seed=seed))
    return result.micro_f1


def run_grid(splits: DatasetSplits, schema: RelationSchema, ks: list[int],
             seeds: list[int], configs: list[TrainConfig],
             labels: list[str] | None = None) -> list[GridRow]:
    """Train every (k, seed, config) combination; aggregate per (k, config).
    ``labels`` names the configs, one label each (default ``config0``, ...).

    The spread column is the population standard deviation over seeds
    (divides by n). Individual runs are independent; MVRE_THREADS > 1 fans
    them out over min(MVRE_THREADS, runs) worker processes, bit for bit.
    """
    if labels is None:
        labels = [f"config{i}" for i in range(len(configs))]
    elif len(labels) != len(configs):
        raise ValidationError(f"run_grid got {len(labels)} labels for {len(configs)} configs")
    tasks = [(splits, schema, k, seed, cfg)
             for k in ks for cfg in configs for seed in seeds]
    workers = _worker_count()
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel grid needs it
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            scores = list(pool.map(_grid_task, tasks))
    else:
        scores = [_grid_task(t) for t in tasks]

    rows: list[GridRow] = []
    i = 0
    for k in ks:
        for label, cfg in zip(labels, configs):
            f1s = scores[i : i + len(seeds)]
            i += len(seeds)
            for seed, f1 in zip(seeds, f1s):
                logger.info("grid k=%d %s seed=%d f1=%.4f", k, label, seed, f1)
            rows.append(GridRow(k, label, cfg.m, float(np.mean(f1s)),
                                _population_std(f1s), f1s, list(seeds)))
    return rows


def sweep_m(splits: DatasetSplits, schema: RelationSchema, k: int, seeds: list[int],
            m_values: list[int], base_config: TrainConfig) -> list[GridRow]:
    """Vary only the mask count; one aggregated row per m, ascending, from one
    ``run_grid`` over every (m, seed)."""
    ms = sorted(m_values)
    return run_grid(splits, schema, [k], seeds, [replace(base_config, m=m) for m in ms],
                    labels=[f"m={m}" for m in ms])


def similarity_ratio(f1_low: float, f1_high: float) -> float:
    """Score of the low-resource model relative to the higher-resource one."""
    if f1_high == 0.0:
        raise UndefinedRatioError("reference F1 is zero; ratio undefined")
    return f1_low / f1_high


def run_similarity_protocol(splits: DatasetSplits, schema: RelationSchema, k: int,
                            m: int, seeds: list[int],
                            config: TrainConfig) -> dict:
    """Compare multi-mask low-shot training against single-mask references.

    Trains three systems: one mask at k shots (the reference), m masks at
    k/m shots, and one mask at k/m shots; reports each mean F1 and the two
    ratios against the reference. The runs go through ``run_grid`` (so
    MVRE_THREADS fans them out) in two grids: the reference, then the others.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if k % m != 0:
        raise ValidationError(f"k={k} must be divisible by m={m}")
    single = replace(config, m=1)
    [ref] = run_grid(splits, schema, [k], seeds, [single])
    multi, reduced = run_grid(splits, schema, [k // m], seeds, [replace(config, m=m), single])
    return {
        "k": k,
        "m": m,
        "seeds": list(seeds),
        "reference_single_mask_kshot": {"mean_f1": ref.mean_f1, "f1s": ref.f1s},
        "multi_mask_reduced_shot": {"mean_f1": multi.mean_f1, "f1s": multi.f1s},
        "single_mask_reduced_shot": {"mean_f1": reduced.mean_f1, "f1s": reduced.f1s},
        "ratio_multi_mask": similarity_ratio(multi.mean_f1, ref.mean_f1),
        "ratio_single_mask": similarity_ratio(reduced.mean_f1, ref.mean_f1),
    }


def view_aspect_heatmap(model: MlmModel, vocab: Vocab, verbalizer: Verbalizer,
                        aspect_word_sets: dict[str, list[str]],
                        top_k: int = 10) -> tuple[np.ndarray, list[str], list[str]]:
    """Relevance of each virtual word to each aspect word group.

    For virtual word v: s1 is the mean cosine between v and its top-k most
    similar ordinary vocabulary embeddings; s2(aspect) the mean cosine
    between v and the aspect's words; the cell is s1 * s2(aspect).
    """
    if not aspect_word_sets:
        raise AnalysisError("no aspect word sets given")
    te = model.token_embed.data
    norms = np.linalg.norm(te, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = te / safe[:, None]

    ordinary = np.flatnonzero(vocab.ordinary_mask)

    aspect_names = list(aspect_word_sets)
    aspect_ids: dict[str, list[int]] = {}
    for name in aspect_names:
        words = aspect_word_sets[name]
        if not words:
            raise AnalysisError(f"aspect {name!r} has no words")
        ids = []
        for w in words:
            if not vocab.contains(w):
                raise AnalysisError(f"aspect {name!r} word {w!r} not in vocabulary")
            ids.append(vocab.id_of(w))
        aspect_ids[name] = ids

    row_labels = [f"{rel}:{j}" for rel in verbalizer.relation_order
                  for j in range(1, verbalizer.m + 1)]
    matrix = np.zeros((len(row_labels), len(aspect_names)))
    for row, vid in enumerate(verbalizer.all_ids()):
        v = unit[vid]
        sims = unit[ordinary] @ v
        k = min(top_k, len(ordinary))
        top = np.sort(sims)[-k:]
        s1 = float(top.mean())
        for col, name in enumerate(aspect_names):
            s2 = float((unit[aspect_ids[name]] @ v).mean())
            matrix[row, col] = s1 * s2
    return matrix, row_labels, aspect_names


# -- report writers ----------------------------------------------------------------


def grid_rows_csv(rows: list[GridRow]) -> str:
    """CSV with one aggregated row per (k, config); leading comment documents std."""
    buf = io.StringIO()
    buf.write("# std is the population standard deviation over seeds (divides by n)\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "config", "m", "mean_f1", "std_f1", "n_seeds"])
    for r in rows:
        writer.writerow([r.k, r.config_label, r.m, repr(r.mean_f1), repr(r.std_f1),
                         len(r.seeds)])
    return buf.getvalue()


def heatmap_csv(matrix: np.ndarray, row_labels: list[str], col_labels: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["virtual_word"] + list(col_labels))
    for label, row in zip(row_labels, matrix):
        writer.writerow([label] + [repr(float(x)) for x in row])
    return buf.getvalue()


def write_json(payload: dict, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
