"""Workload definitions shared by the acceptance suite and the fixture
freezer, so frozen values and the assertions that check them are produced
by the same code path, and the numerics platform those values hold on."""

import ctypes
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

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


def trend_arm(m: int) -> list[float]:
    """Test micro-F1 of each episode seed at m masks: one pretrained bundle,
    then one fine-tune per seed."""
    spec, dataset, splits, full = trend_world()
    schema, pre = trend_pretrained(spec, dataset, full, m)
    return [train(sample_kshot(splits, TREND_K, seed), schema, trend_config(m, seed),
                  pretrained=pre)[1].micro_f1 for seed in TREND_SEEDS]


def run_trend() -> dict:
    """Mean micro-F1 at m=1 and m=3 over the five episode seeds. The two arms
    run in two fresh (spawned) worker processes, each a pure function of m."""
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        low, high = [pool.submit(trend_arm, m) for m in (TREND_M_LOW, TREND_M_HIGH)]
        f1s_low, f1s_high = low.result(), high.result()
    mean_low, mean_high = float(np.mean(f1s_low)), float(np.mean(f1s_high))
    return {"mean_low": mean_low, "mean_high": mean_high, "margin": mean_high - mean_low,
            "f1s_low": f1s_low, "f1s_high": f1s_high}


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


# -- the numerics platform --------------------------------------------------------
# Another BLAS kernel or numpy loop rounds some results differently, so the
# frozen fixtures and pinned digests hold on the platform they were made on.

PLATFORM_FILE = Path(__file__).resolve().parent / "fixtures" / "platform.json"


def platform() -> dict:
    """The numerics platform of this process. The OpenBLAS fields come from
    numpy's bundled ``libscipy_openblas64_*.so``, and are None without it."""
    config = core = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        get_config, get_core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        for fn in (get_config, get_core):
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        config = get_config().decode()  # "OpenBLAS 0.3.31 ..."
        core = get_core().decode()
    return {"numpy": np.__version__,
            "numpy_avx512": sorted(name for name, on in __cpu_features__.items()
                                   if on and (name.startswith("AVX512") or name == "X86_V4")),
            "openblas": config.split()[1] if config else None,
            "openblas_core": core}


def platform_note() -> str:
    """The running and the recorded platform, and the first field in which
    they differ: what a failed bit-for-bit comparison prints."""
    running = platform()
    recorded = json.loads(PLATFORM_FILE.read_text()) if PLATFORM_FILE.exists() else None
    lines = [f"running platform:  {json.dumps(running)}",
             f"recorded platform: {json.dumps(recorded)}"]
    if recorded is not None:
        differ = [key for key in running if running[key] != recorded.get(key)]
        lines.append(f"the platform differs first in {differ[0]!r}: running "
                     f"{running[differ[0]]!r}, recorded {recorded.get(differ[0])!r}; "
                     f"the fixtures' bits hold on the recorded platform" if differ else
                     "the platforms match, so the platform did not move the bits")
    return "\n".join(f"  {line}" for line in lines)
