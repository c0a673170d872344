"""Training-loop contracts, metric oracles, grids, protocols, heatmap."""

import re
from dataclasses import asdict, replace

import numpy as np
import pytest

import mvre.experiments as exp
from mvre.data import (CorpusSpec, Dataset, RelationInstance, generate_corpus,
                       make_splits, merge_datasets, sample_kshot)
from mvre.errors import AnalysisError, UndefinedRatioError, ValidationError
from mvre.experiments import (GridRow, TrainConfig, evaluate, micro_f1, predict,
                              pretrain_bundle, run_grid, run_similarity_protocol, similarity_ratio,
                              sweep_m, train, view_aspect_heatmap,
                              _population_std, grid_rows_csv, heatmap_csv)
from mvre.losses import infer
from mvre.model import AdamW, MlmModel, ModelConfig, PretrainConfig
from mvre.schema import synthetic_schema
from mvre.vocab import build_vocab, wrap_template


def fast_config(**kw):
    defaults = dict(m=2, lr=5e-3, epochs=3, batch_size=8, max_len=48, seed=1,
                    init_mode="static", pretrain_steps=0,
                    model=ModelConfig(d=12, n_layers=1, n_heads=2, max_len=48))
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_world(n_relations=3, instances_per_relation=12, seed=0):
    spec = CorpusSpec(n_relations=n_relations,
                      instances_per_relation=instances_per_relation,
                      aspects_per_relation=2, vocab_pool_size=20,
                      sentence_length_range=(6, 9))
    ds = generate_corpus(spec, seed=seed)
    schema = synthetic_schema(spec, ds, 2)
    splits = make_splits(ds, seed=seed)
    return spec, ds, schema, splits


class TestMicroF1:
    def test_perfect(self):
        assert micro_f1(["A", "B"], ["A", "B"], na_label=None) == 1.0

    def test_hand_computed_confusion(self):
        # TP=2 (A, B), P=2/4, R=2/3 -> F1 = 4/7
        golds = ["A", "A", "B", "NA"]
        preds = ["A", "B", "B", "B"]
        f1 = micro_f1(preds, golds, na_label="NA")
        assert f1 == pytest.approx(4.0 / 7.0, abs=1e-9)

    def test_all_na_predictions(self):
        assert micro_f1(["NA", "NA"], ["A", "B"], na_label="NA") == 0.0

    def test_no_gold_positives(self):
        assert micro_f1(["A", "B"], ["NA", "NA"], na_label="NA") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            micro_f1(["A"], ["A", "B"], na_label=None)

    def test_permutation_invariance(self, rng):
        labels = ["A", "B", "C", "NA"]
        golds = [labels[i] for i in rng.integers(0, 4, size=50)]
        preds = [labels[i] for i in rng.integers(0, 4, size=50)]
        base = micro_f1(preds, golds, na_label="NA")
        perm = rng.permutation(50)
        shuffled = micro_f1([preds[i] for i in perm], [golds[i] for i in perm], "NA")
        assert shuffled == base

    def test_no_na_label_reduces_to_accuracy(self):
        # without an NA label a match on a label named "NA" counts like any other
        golds = ["A", "NA", "B"]
        preds = ["A", "NA", "A"]
        assert micro_f1(preds, golds, None) == pytest.approx(2 / 3)
        assert micro_f1(preds, golds, "NA") == pytest.approx(1 / 2)


class TestTrain:
    def test_epochs_zero_is_initialized_model(self):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 2, 1)
        cfg = fast_config(epochs=0)
        artifacts, result = train(episode, schema, cfg)
        assert result.per_epoch_losses == []
        # a fresh model with the same init and episode gives the same F1
        artifacts2, result2 = train(episode, schema, cfg)
        assert result.micro_f1 == result2.micro_f1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_fails_at_once(self):
        spec, ds, schema, splits = small_world()
        cfg = fast_config(lr=1e300, epochs=20)
        with pytest.raises(FloatingPointError, match=r"NaN/Inf after AdamW step [1-3]$"):
            train(sample_kshot(splits, 2, 1), schema, cfg)

    def test_deterministic_end_to_end(self):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 2, 3)
        cfg = fast_config(epochs=2, init_mode="combined")
        a1, r1 = train(episode, schema, cfg)
        a2, r2 = train(episode, schema, cfg)
        assert r1.micro_f1 == r2.micro_f1
        assert r1.per_epoch_losses == r2.per_epoch_losses
        for k, v in a1.model.param_values().items():
            assert v.tobytes() == a2.model.param_values()[k].tobytes()
        assert a1.head.w.data.tobytes() == a2.head.w.data.tobytes()

    def test_inner_pretraining_is_the_bundle_path(self):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 2, 3)
        cfg = fast_config(epochs=2, init_mode="combined")
        merged = merge_datasets([episode.train, episode.dev, episode.test])
        bundle, pretrained = pretrain_bundle(
            merged, schema, cfg.model,
            PretrainConfig(steps=20, seed=cfg.seed))
        assert len(pretrained.step_losses) == 20
        a1, r1 = train(episode, schema, replace(cfg, pretrain_steps=20))
        a2, r2 = train(episode, schema, cfg, pretrained=bundle)
        for arenas in ((a1.model.params(), a2.model.params()),
                       (a1.head.params(), a2.head.params())):
            assert arenas[0].flat().tobytes() == arenas[1].flat().tobytes()
        assert r1.per_epoch_losses == r2.per_epoch_losses
        assert r1.micro_f1 == r2.micro_f1

    def test_loss_decreases_on_default_corpus(self):
        """Regression pin: 1-shot on the 8-relation default corpus, m=4,
        combined init, 40 epochs. First measurement: epoch losses drop from
        27.17 to 9.14; the frozen gate requires at least a halving.
        """
        spec = CorpusSpec()
        ds = generate_corpus(spec, seed=1)
        schema = synthetic_schema(spec, ds, 4)
        splits = make_splits(ds, seed=0)
        episode = sample_kshot(splits, 1, 1)
        cfg = fast_config(m=4, epochs=40, init_mode="combined", lr=5e-3,
                          model=ModelConfig(d=32, n_layers=1, n_heads=2, max_len=48))
        _, result = train(episode, schema, cfg)
        assert result.per_epoch_losses[-1] < 0.5 * result.per_epoch_losses[0]

    def test_mismatched_pretrained_m_rejected(self):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 1, 1)
        artifacts, _ = train(episode, schema, fast_config(epochs=0))
        with pytest.raises(ValidationError, match="m="):
            train(episode, schema, fast_config(m=3, epochs=0), pretrained=artifacts)

    @pytest.mark.parametrize("change,message", [
        # a shorter max_len used to train on silently truncated prompts
        (dict(max_len=40), "bundle was built with max_len=48, config wants max_len=40"),
        # result.json records config.model, so it must be the model the run uses
        (dict(model=ModelConfig(d=16, n_layers=1, n_heads=2, max_len=48)),
         "bundle's model is ModelConfig(d=12, n_layers=1, n_heads=2, max_len=48, "
         "vocab_size=74, dtype='float64', dropout=0.0, init_scale=0.02), config wants "
         "ModelConfig(d=16, n_layers=1, n_heads=2, max_len=48, vocab_size=0,"),
        # any field but vocab_size, not only the ones that shape the arrays
        (dict(model=ModelConfig(d=12, n_layers=1, n_heads=2, max_len=48, init_scale=0.05)),
         "config wants ModelConfig(d=12, n_layers=1, n_heads=2, max_len=48, vocab_size=0, "
         "dtype='float64', dropout=0.0, init_scale=0.05)")],
        ids=["max_len", "model", "init_scale"])
    def test_pretrained_model_must_be_the_configs(self, change, message):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 1, 1)
        cfg = fast_config(epochs=0)
        bundle, _ = pretrain_bundle(ds, schema, cfg.model, PretrainConfig(steps=0))
        with pytest.raises(ValidationError, match=re.escape(message)):
            train(episode, schema, replace(cfg, **change), pretrained=bundle)

    def test_built_model_must_have_the_configs_max_len(self):
        # without a bundle train() builds config.model, which result.json
        # records; a max_len other than the model's used to train at one and
        # record the other
        spec, ds, schema, splits = small_world()
        with pytest.raises(ValidationError, match=re.escape(
                "was built with max_len=48, config wants max_len=40")):
            train(sample_kshot(splits, 1, 1), schema, fast_config(epochs=0, max_len=40))

    def test_pretrained_model_may_differ_in_vocab_size_only(self):
        # a config's model leaves vocab_size unset (0); the bundle sets it
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 1, 1)
        cfg = fast_config(epochs=0)
        bundle, _ = pretrain_bundle(ds, schema, cfg.model, PretrainConfig(steps=0))
        assert bundle.model.config.vocab_size != cfg.model.vocab_size
        artifacts, result = train(episode, schema, cfg, pretrained=bundle)
        assert artifacts.model.config == bundle.model.config
        assert result.config["model"] == asdict(cfg.model)

    def test_reordered_pretrained_relations_rejected(self):
        # apply_init writes each relation's vectors by the bundle's order
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 1, 1)
        cfg = fast_config(epochs=0)
        bundle, _ = pretrain_bundle(ds, schema, cfg.model, PretrainConfig(steps=0))
        reordered = replace(schema, relations=schema.relations[::-1])
        with pytest.raises(ValidationError, match=re.escape(
                "['rel2', 'rel1', 'rel0'] differ from the pretrained bundle's "
                "['rel0', 'rel1', 'rel2']")):
            train(episode, reordered, cfg, pretrained=bundle)

    def test_empty_train_split_rejected(self):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 1, 1)
        empty = replace(episode, train=replace(episode.train, instances=()))
        with pytest.raises(ValidationError, match="episode train split is empty"):
            train(empty, schema, fast_config(epochs=0))

    @pytest.mark.parametrize("lr", [0.0, float("nan"), float("inf")])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValidationError, match="lr"):
            TrainConfig(lr=lr).validate()

    def test_zero_batch_size_rejected(self):
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 1, 1)
        with pytest.raises(ValidationError, match="batch_size"):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValidationError, match="batch_size"):
            train(episode, schema, fast_config(batch_size=0))

    @pytest.mark.parametrize("field,value", [
        ("alpha", -1.0), ("beta", -0.1), ("alpha", float("nan")), ("beta", float("inf")),
        ("pretrain_steps", -1), ("epochs", -1), ("seed", -1),
        ("lr", 0.0), ("lr", -3e-5), ("lr", float("nan")), ("lr", float("inf")),
        ("m", 0), ("batch_size", 0), ("init_mode", "foo")])
    def test_bad_field_rejected(self, field, value):
        # a negative alpha or beta would silently turn a regularizer around
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_zero_weights_and_unset_alpha_beta_accepted(self):
        TrainConfig(alpha=0.0, beta=0.0, pretrain_steps=0).validate()
        TrainConfig(alpha=None, beta=None).validate()

    def test_evaluate_batches_like_one_at_a_time(self):
        # evaluate runs packed chunks of batch_size prompts; without an NA
        # label the score is the accuracy of the per-prompt predictions
        spec, ds, schema, splits = small_world(n_relations=3, instances_per_relation=8)
        episode = sample_kshot(splits, 1, 1)
        artifacts, _ = train(episode, schema, fast_config(epochs=1))
        data = splits.test
        for batch_size in (1, 3, 64):
            cfg = fast_config(batch_size=batch_size)
            preds = predict(artifacts, data, cfg)
            prompts = [wrap_template(inst, artifacts.vocab, 2, 48) for inst in data.instances]
            assert preds == [infer(artifacts.model, artifacts.head, p, artifacts.verbalizer)[0]
                             for p in prompts]
            golds = [inst.label for inst in data.instances]
            accuracy = sum(p == g for p, g in zip(preds, golds)) / len(golds)
            assert evaluate(artifacts, data, cfg, None) == pytest.approx(accuracy, abs=1e-15)

    def test_alpha_beta_defaults_switch_with_init_mode(self):
        assert TrainConfig(init_mode="static").resolved_alpha_beta() == (2.0, 0.1)
        assert TrainConfig(init_mode="dynamic").resolved_alpha_beta() == (1.2, 0.7)
        assert TrainConfig(init_mode="combined").resolved_alpha_beta() == (1.2, 0.7)
        assert TrainConfig(init_mode="static", alpha=0.0,
                           beta=0.0).resolved_alpha_beta() == (0.0, 0.0)

    @pytest.mark.parametrize("kw,weights", [
        ({}, (2.0, 0.1)), ({"init_mode": "combined"}, (1.2, 0.7)),
        ({"alpha": 0.0, "beta": 0.0}, (0.0, 0.0))])
    def test_trained_objective_is_total_loss(self, monkeypatch, kw, weights):
        # one losses.total_loss call per optimizer step, with the resolved weights
        calls, steps = [], []
        real_total, real_step = exp.total_loss, AdamW.step

        def total_spy(mvdl, local, global_, alpha, beta):
            calls.append((alpha, beta))
            return real_total(mvdl, local, global_, alpha, beta)

        def step_spy(opt, grads):
            steps.append(len(calls))
            real_step(opt, grads)

        monkeypatch.setattr(exp, "total_loss", total_spy)
        monkeypatch.setattr(AdamW, "step", step_spy)
        spec, ds, schema, splits = small_world()
        episode = sample_kshot(splits, 2, 1)
        cfg = fast_config(epochs=2, batch_size=4, **kw)
        train(episode, schema, cfg)
        n_steps = cfg.epochs * -(-len(episode.train.instances) // cfg.batch_size)
        assert steps == list(range(1, n_steps + 1))
        assert calls == [weights] * n_steps


class TestGridAggregation:
    def test_population_std_hand_case(self):
        assert float(np.mean([40.0, 50.0])) == 45.0
        assert _population_std([40.0, 50.0]) == 5.0

    def test_run_grid_aggregates_injected_f1s(self, monkeypatch):
        fakes = iter([0.40, 0.50])
        monkeypatch.setattr(exp, "_grid_task", lambda task: next(fakes))
        spec, ds, schema, splits = small_world()
        rows = run_grid(splits, schema, [1], [1, 2], [fast_config()])
        assert len(rows) == 1
        assert rows[0].mean_f1 == pytest.approx(0.45)
        assert rows[0].std_f1 == pytest.approx(0.05)
        assert rows[0].f1s == [0.40, 0.50]

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_labels_must_match_configs(self, monkeypatch, labels):
        calls = []
        monkeypatch.setattr(exp, "_grid_task", lambda task: calls.append(task) or 0.5)
        spec, ds, schema, splits = small_world()
        with pytest.raises(ValidationError, match=f"{len(labels)} labels for 2 configs"):
            run_grid(splits, schema, [1, 2], [1, 2], [fast_config(), fast_config(m=2)],
                     labels=labels)
        assert calls == []

    def test_single_run_zero_std(self, monkeypatch):
        monkeypatch.setattr(exp, "_grid_task", lambda task: 0.7)
        spec, ds, schema, splits = small_world()
        rows = run_grid(splits, schema, [1], [1], [fast_config()])
        assert rows[0].std_f1 == 0.0

    def test_grid_reproducible(self):
        spec, ds, schema, splits = small_world()
        cfg = fast_config(epochs=1)
        r1 = run_grid(splits, schema, [1], [1, 2], [cfg])
        r2 = run_grid(splits, schema, [1], [1, 2], [cfg])
        assert r1[0].f1s == r2[0].f1s

    def test_csv_shape(self, monkeypatch):
        monkeypatch.setattr(exp, "_grid_task", lambda task: 0.5)
        spec, ds, schema, splits = small_world()
        rows = run_grid(splits, schema, [1], [1], [fast_config()])
        text = grid_rows_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "k"
        assert len(lines) == 3


class TestSweepM:
    def test_singleton_equals_direct_grid(self, monkeypatch):
        calls = []

        def fake(task):
            calls.append(task)
            return 0.6

        monkeypatch.setattr(exp, "_grid_task", fake)
        spec, ds, schema, splits = small_world()
        cfg = fast_config()
        rows_sweep = sweep_m(splits, schema, 1, [1], [2], cfg)
        rows_grid = run_grid(splits, schema, [1], [1], [fast_config(m=2)],
                             labels=["m=2"])
        assert rows_sweep[0].mean_f1 == rows_grid[0].mean_f1
        assert rows_sweep[0].m == rows_grid[0].m == 2

    def test_rows_ascending_m(self, monkeypatch):
        monkeypatch.setattr(exp, "_grid_task", lambda task: 0.5)
        spec, ds, schema, splits = small_world()
        rows = sweep_m(splits, schema, 1, [1], [3, 1, 2], fast_config())
        assert [r.m for r in rows] == [1, 2, 3]


class TestSimilarityProtocol:
    def test_ratio_arithmetic(self):
        assert similarity_ratio(0.40, 0.50) == pytest.approx(0.80)
        assert similarity_ratio(0.37, 0.37) == 1.0

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedRatioError):
            similarity_ratio(0.5, 0.0)

    def test_k_not_divisible_rejected(self):
        spec, ds, schema, splits = small_world()
        with pytest.raises(ValidationError, match="divisible"):
            run_similarity_protocol(splits, schema, 3, 2, [1], fast_config())

    def test_zero_masks_rejected(self):
        spec, ds, schema, splits = small_world()
        with pytest.raises(ValidationError, match="m must be >= 1"):
            run_similarity_protocol(splits, schema, 4, 0, [1], fast_config())

    def test_shot_arithmetic(self, monkeypatch):
        seen = []

        def fake(splits, k, seed):
            seen.append(k)
            return sample_kshot(splits, k, seed)

        monkeypatch.setattr(exp, "sample_kshot", fake)
        spec, ds, schema, splits = small_world(instances_per_relation=16)
        run_similarity_protocol(splits, schema, 4, 4,
                                [1], fast_config(epochs=0))
        assert seen == [4, 1, 1]

    def test_m1_gives_exact_unit_ratios(self):
        spec, ds, schema, splits = small_world()
        report = run_similarity_protocol(splits, schema, 2, 1, [1],
                                         fast_config(epochs=2))
        assert report["ratio_multi_mask"] == 1.0
        assert report["ratio_single_mask"] == 1.0


class TestHeatmap:
    def make_model(self, n_words=3, m=1, relations=("r1",), d=3):
        toks = tuple(f"word{i}" for i in range(n_words))
        pad = ("x1", "x2", "x3")
        inst = RelationInstance(toks + pad[: max(0, 6 - n_words)], (0, 0), (2, 2), "r1")
        ds = Dataset((inst,), tuple(relations))
        from mvre.schema import RelationSchema
        schema = RelationSchema(tuple(relations), m, None,
                                {r: "word0 [MASK]*m word1" for r in relations},
                                {r: ["word0"] for r in relations})
        vocab, verb = build_vocab(ds, schema)
        cfg = ModelConfig(d=d, n_layers=1, n_heads=1, max_len=16,
                          vocab_size=len(vocab))
        model = MlmModel(cfg, seed=0)
        return ds, vocab, verb, model

    def test_hand_case_top_k_one(self):
        ds, vocab, verb, model = self.make_model()
        te = model.token_embed.data
        te[:] = 0.0
        te[:, 0] = 1.0  # keep every row nonzero
        v_id = verb.virtual_id("r1", 1)
        te[v_id] = [1.0, 0.0, 0.0]
        te[vocab.id_of("word0")] = [1.0, 0.0, 0.0]      # cos 1 with v
        te[vocab.id_of("word1")] = [1.0, 1.0, 0.0]      # cos 1/sqrt(2)
        te[vocab.id_of("word2")] = [0.0, 1.0, 0.0]      # cos 0
        matrix, row_labels, cols = view_aspect_heatmap(
            model, vocab, verb, {"asp": ["word1", "word2"]}, top_k=1)
        # s1 = best ordinary cosine = 1.0 (word0); s2 = mean(1/sqrt2, 0)
        expected = 1.0 * (1.0 / np.sqrt(2.0) + 0.0) / 2.0
        assert matrix[0, 0] == pytest.approx(expected, abs=1e-12)
        assert row_labels == ["r1:1"]

    def test_orthogonal_aspect_zeroes_cell(self):
        ds, vocab, verb, model = self.make_model()
        te = model.token_embed.data
        te[:] = 0.0
        te[:, 0] = 1.0
        v_id = verb.virtual_id("r1", 1)
        te[v_id] = [1.0, 0.0, 0.0]
        te[vocab.id_of("word2")] = [0.0, 1.0, 0.0]
        matrix, _, _ = view_aspect_heatmap(model, vocab, verb,
                                           {"asp": ["word2"]}, top_k=2)
        assert matrix[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_cross_check(self, rng):
        ds, vocab, verb, model = self.make_model(n_words=6, m=2,
                                                 relations=("r1", "r2"), d=4)
        te = model.token_embed.data
        te[:] = rng.normal(size=te.shape)
        aspects = {"a0": ["word0", "word1"], "a1": ["word2"]}
        matrix, rows, cols = view_aspect_heatmap(model, vocab, verb, aspects, top_k=3)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        ordinary = [i for i in range(len(vocab.words))
                    if i not in vocab.special_ids and i < vocab.base_size]
        for row, (rel, j) in enumerate((r, j) for r in ("r1", "r2") for j in (1, 2)):
            v = te[verb.virtual_id(rel, j)]
            sims = sorted((cos(te[i], v) for i in ordinary), reverse=True)
            s1 = sum(sims[:3]) / 3
            for col, name in enumerate(cols):
                s2 = np.mean([cos(te[vocab.id_of(w)], v) for w in aspects[name]])
                assert matrix[row, col] == pytest.approx(s1 * s2, abs=1e-12)

    def test_matrix_shape(self):
        ds, vocab, verb, model = self.make_model(n_words=4, m=3, relations=("r1", "r2"))
        matrix, rows, cols = view_aspect_heatmap(
            model, vocab, verb, {"a": ["word0"], "b": ["word1"], "c": ["word2"]})
        assert matrix.shape == (6, 3)
        assert rows == [f"{r}:{j}" for r in ("r1", "r2") for j in (1, 2, 3)]
        text = heatmap_csv(matrix, rows, cols)
        assert text.splitlines()[0] == "virtual_word,a,b,c"
        assert len(text.splitlines()) == 7

    def test_unknown_aspect_word_named(self):
        ds, vocab, verb, model = self.make_model()
        with pytest.raises(AnalysisError, match="mystery"):
            view_aspect_heatmap(model, vocab, verb, {"a": ["mystery"]})


class TestParallelGrid:
    def test_results_identical_with_workers(self, monkeypatch):
        spec, ds, schema, splits = small_world()
        cfg = fast_config(epochs=1)
        serial = run_grid(splits, schema, [1], [1, 2], [cfg])
        monkeypatch.setenv("MVRE_THREADS", "2")
        parallel = run_grid(splits, schema, [1], [1, 2], [cfg])
        assert serial[0].f1s == parallel[0].f1s

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The sizes of the pools a grid opens: an in-process stand-in records
        them, so no process starts, and every run scores 0.5 untrained."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(exp, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(exp, "_grid_task", lambda task: 0.5)
        return sizes

    def test_workers_capped_at_task_count(self, monkeypatch, pool_sizes):
        spec, ds, schema, splits = small_world()
        for threads, ks in (("16", [1]), ("3", [1, 2])):  # 2 tasks, then 4
            monkeypatch.setenv("MVRE_THREADS", threads)
            rows = run_grid(splits, schema, ks, [1, 2], [fast_config()])
            assert [row.f1s for row in rows] == [[0.5, 0.5]] * len(ks)
        assert pool_sizes == [2, 3]

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "2.5", ""])
    def test_bad_thread_count_fails_before_any_run(self, monkeypatch, pool_sizes, threads):
        runs = []
        monkeypatch.setattr(exp, "_grid_task", runs.append)
        spec, ds, schema, splits = small_world()
        monkeypatch.setenv("MVRE_THREADS", threads)
        with pytest.raises(ValidationError, match=re.escape(f"MVRE_THREADS must be a positive "
                                                            f"integer, got {threads!r}")):
            run_grid(splits, schema, [1], [1, 2], [fast_config()])
        assert pool_sizes == [] and runs == []

    def test_similarity_protocol_identical_with_workers(self, monkeypatch):
        spec, ds, schema, splits = small_world()
        cfg = fast_config(epochs=2, lr=0.01)
        monkeypatch.setenv("MVRE_THREADS", "1")
        serial = run_similarity_protocol(splits, schema, 2, 2, [1, 2], cfg)
        monkeypatch.setenv("MVRE_THREADS", "2")
        assert run_similarity_protocol(splits, schema, 2, 2, [1, 2], cfg) == serial
