"""Workload definitions shared by the acceptance suite and the fixture
freezer, so frozen values and the assertions that check them are produced
by the same code path."""

from dataclasses import dataclass

import numpy as np

from mvre.data import (CorpusSpec, generate_corpus, make_splits, merge_datasets,
                       sample_kshot)
from mvre.experiments import TrainConfig, pretrain_bundle, train
from mvre.model import ModelConfig, PretrainConfig
from mvre.schema import synthetic_schema

# -- multi-view trend workload ---------------------------------------------------
# default corpus (8 relations, 4 aspect groups), 1-shot, 5 seeds, combined init

TREND_CORPUS_SEED = 1
TREND_SPLIT_SEED = 0
TREND_SEEDS = (1, 2, 3, 4, 5)
TREND_K = 1
TREND_M_LOW = 1
TREND_M_HIGH = 3
TREND_MODEL = dict(d=32, n_layers=2, n_heads=2, max_len=48)
TREND_PRETRAIN_STEPS = 3000
TREND_LR = 1e-3
TREND_EPOCHS = 40


def trend_world():
    spec = CorpusSpec()
    dataset = generate_corpus(spec, seed=TREND_CORPUS_SEED)
    splits = make_splits(dataset, seed=TREND_SPLIT_SEED)
    full = merge_datasets([splits.train, splits.dev, splits.test])
    return spec, dataset, splits, full


def trend_pretrained(spec, dataset, full, m):
    """One pretrained bundle per mask count; episode seeds reuse it."""
    schema = synthetic_schema(spec, dataset, m)
    pre, _ = pretrain_bundle(full, schema, ModelConfig(**TREND_MODEL),
                             PretrainConfig(steps=TREND_PRETRAIN_STEPS, seed=0, log_every=0))
    return schema, pre


def trend_config(m, seed):
    return TrainConfig(m=m, lr=TREND_LR, epochs=TREND_EPOCHS, batch_size=8,
                       max_len=TREND_MODEL["max_len"], seed=seed,
                       init_mode="combined", pretrain_steps=0,
                       model=ModelConfig(**TREND_MODEL))


def run_trend() -> dict:
    """Mean micro-F1 at m=1 and m=3 over the five episode seeds."""
    spec, dataset, splits, full = trend_world()
    means = {}
    per_seed = {}
    for m in (TREND_M_LOW, TREND_M_HIGH):
        schema, pre = trend_pretrained(spec, dataset, full, m)
        f1s = []
        for seed in TREND_SEEDS:
            episode = sample_kshot(splits, TREND_K, seed)
            _, result = train(episode, schema, trend_config(m, seed), pretrained=pre)
            f1s.append(result.micro_f1)
        means[m] = float(np.mean(f1s))
        per_seed[m] = f1s
    return {"mean_low": means[TREND_M_LOW], "mean_high": means[TREND_M_HIGH],
            "margin": means[TREND_M_HIGH] - means[TREND_M_LOW],
            "f1s_low": per_seed[TREND_M_LOW], "f1s_high": per_seed[TREND_M_HIGH]}


# -- similarity-protocol fixture workload: k=4, m=4 -------------------------------

PROTOCOL_SEEDS = (1, 2)


def protocol_config():
    return TrainConfig(m=4, lr=5e-3, epochs=12, batch_size=8, max_len=48, seed=1,
                       init_mode="static", pretrain_steps=0,
                       model=ModelConfig(d=16, n_layers=1, n_heads=2, max_len=48))


def run_protocol_fixture() -> dict:
    from mvre.experiments import run_similarity_protocol
    spec, dataset, splits, full = trend_world()
    schema = synthetic_schema(spec, dataset, 4)
    return run_similarity_protocol(splits, schema, 4, 4, list(PROTOCOL_SEEDS),
                                   protocol_config())


# -- probe-init toy checkpoint ----------------------------------------------------

PROBE_SPEC = CorpusSpec(n_relations=3, instances_per_relation=12,
                        aspects_per_relation=2, vocab_pool_size=25,
                        sentence_length_range=(6, 10))
PROBE_CORPUS_SEED = 7
PROBE_M = 3
PROBE_MODEL = dict(d=16, n_layers=1, n_heads=2, max_len=48)
PROBE_PRETRAIN = PretrainConfig(steps=400, seed=0, log_every=0)


def probe_environment():
    """The deterministic model/vocab/schema behind the frozen probe fixture."""
    dataset = generate_corpus(PROBE_SPEC, seed=PROBE_CORPUS_SEED)
    schema = synthetic_schema(PROBE_SPEC, dataset, PROBE_M)
    pre, _ = pretrain_bundle(dataset, schema, ModelConfig(**PROBE_MODEL), PROBE_PRETRAIN)
    return dataset, schema, pre.vocab, pre.verbalizer, pre.model
