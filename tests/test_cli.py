"""Command-line surface: happy paths, exit codes, byte-level reproducibility."""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from mvre.cli import DEFAULTS, build_configs, main, resolve_config, CliError
from mvre.model import MlmModel, ModelConfig, load_checkpoint, save_checkpoint

from conftest import drop_base_word, repeat_relation, rewrite_header, write_array_value

FIXTURES = Path(__file__).resolve().parent / "fixtures"

FAST_SETS = [
    "--set", "corpus.n_relations=3",
    "--set", "corpus.instances_per_relation=8",
    "--set", "corpus.vocab_pool_size=20",
    "--set", "model.d=12",
    "--set", "model.n_layers=1",
    "--set", "model.n_heads=2",
    "--set", "model.max_len=48",
    "--set", "train.m=2",
    "--set", "train.epochs=1",
    "--set", "train.lr=0.005",
    "--set", "train.init_mode=static",
    "--set", "pretrain.steps=3",
]


def run(*argv):
    return main(list(argv))


class TestConfigResolution:
    def test_defaults_plus_overrides(self):
        cfg = resolve_config(None, ["train.lr=0.01", "train.m=3"], None, "train")
        assert cfg["train.lr"] == 0.01
        assert cfg["train.m"] == 3
        assert cfg["train.epochs"] == DEFAULTS["train.epochs"]

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError, match="unknown config key"):
            resolve_config(None, ["nope.key=1"], None, "train")

    def test_config_file_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train.lr": 0.1, "bogus": 2}))
        with pytest.raises(CliError, match="bogus"):
            resolve_config(str(p), [], None, "train")

    def test_malformed_override(self):
        with pytest.raises(CliError, match="key=value"):
            resolve_config(None, ["train.lr"], None, "train")

    def test_seed_flag_maps_per_command(self):
        assert resolve_config(None, [], 7, "generate-corpus")["corpus.seed"] == 7
        assert resolve_config(None, [], 7, "train")["train.seed"] == 7
        assert resolve_config(None, [], 7, "sweep-m")["sweep.seeds"] == [7]
        assert resolve_config(None, [], 7, "sim-protocol")["protocol.seeds"] == [7]

    def test_non_numeric_value_names_key(self):
        with pytest.raises(CliError, match="train.m"):
            resolve_config(None, ["train.m=abc"], None, "train")
        with pytest.raises(CliError, match="train.lr"):
            resolve_config(None, ["train.lr=null"], None, "train")
        with pytest.raises(CliError, match="sweep.seeds"):
            resolve_config(None, ["sweep.seeds=3"], None, "sweep-m")

    def test_boolean_needs_true_or_false(self):
        with pytest.raises(CliError, match="train.entity_markers"):
            resolve_config(None, ["train.entity_markers=no"], None, "train")
        assert resolve_config(None, ["train.entity_markers=false"], None,
                              "train")["train.entity_markers"] is False

    def test_optional_number_accepts_null(self):
        cfg = resolve_config(None, ["train.alpha=null", "train.beta=0.5"], None, "train")
        assert cfg["train.alpha"] is None and cfg["train.beta"] == 0.5

    def test_string_values_pass_through(self):
        cfg = resolve_config(None, ["train.init_mode=dynamic"], None, "train")
        assert cfg["train.init_mode"] == "dynamic"

    def test_default_configuration_pinned(self):
        # each field's key takes the dataclass default; these are the frozen values,
        # compared as the JSON resolved_config.json echoes (0.0 is not 0 there)
        expected = {
            "corpus.n_relations": 8, "corpus.instances_per_relation": 50,
            "corpus.aspects_per_relation": 4, "corpus.vocab_pool_size": 200,
            "corpus.sentence_length_min": 9, "corpus.sentence_length_max": 14,
            "corpus.na_fraction": 0.0, "corpus.seed": 1,
            "data.dev_fraction": 0.2, "data.test_fraction": 0.2, "data.split_seed": 0,
            "data.k": 1,
            "model.d": 64, "model.n_layers": 2, "model.n_heads": 4, "model.max_len": 128,
            "model.dtype": "float64", "model.dropout": 0.0,
            "pretrain.steps": 3000, "pretrain.batch_size": 8, "pretrain.lr": 2e-3,
            "pretrain.mask_rate": 0.15, "pretrain.holdout_fraction": 0.1, "pretrain.seed": 0,
            "train.m": 4, "train.alpha": None, "train.beta": None, "train.lr": 3e-5,
            "train.epochs": 40, "train.batch_size": 8, "train.seed": 1,
            "train.init_mode": "combined", "train.best_dev_selection": False,
            "train.score_mode": "mixture", "train.weight_decay": 0.0,
            "train.entity_order": "sub_obj", "train.entity_markers": True,
            "train.pretrain_steps": 0, "train.pretrain_lr": 2e-3,
            "sweep.k": 1, "sweep.seeds": [1, 2, 3, 4, 5], "sweep.m_values": [1, 2, 3, 4, 5],
            "protocol.k": 4, "protocol.m": 4, "protocol.seeds": [1, 2, 3],
            "analysis.top_k": 10, "eval.include_na": False,
        }
        got = resolve_config(None, [], None, "train")
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_values_convert_to_field_types(self):
        cfg = resolve_config(None, ["train.lr=1", "train.epochs=3.0", "model.d=8",
                                    "model.n_heads=2"], None, "train")
        assert cfg["train.lr"] == 1 and isinstance(cfg["train.lr"], int)  # echoed as given
        tc = build_configs(cfg)["train"]
        assert isinstance(tc.lr, float) and tc.lr == 1.0
        assert isinstance(tc.epochs, int) and tc.epochs == 3
        assert tc.max_len == tc.model.max_len == 128 and tc.model.d == 8


HOSTILE = ["0", "-1", "2.5", "NaN", "inf", "1e400", "", "foo", "[]", "null", "true"]


def assert_rejected_or_valid(overrides):
    """Resolving either raises CliError or yields four valid config objects."""
    try:
        cfg = resolve_config(None, overrides, None, "train")
    except CliError:
        return
    configs = build_configs(cfg)
    replace(configs.pop("model"), vocab_size=1).validate()
    for config in configs.values():
        config.validate()


class TestConfigFuzz:
    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_each_key_with_hostile_values(self, key):
        for value in HOSTILE:
            assert_rejected_or_valid([f"{key}={value}"])

    def test_seeded_multi_key_mutations(self):
        rng = random.Random(20261018)
        keys = sorted(DEFAULTS)
        values = HOSTILE + ["1", "2", "3", "7", "16", "0.5", "0.99", "[0]", "[2, 3]",
                            "false", "product", "obj_sub", "static"]
        for _ in range(400):
            assert_rejected_or_valid([f"{key}={rng.choice(values)}"
                                      for key in rng.sample(keys, rng.randint(2, 5))])


class TestGenerateCorpus:
    def test_writes_corpus_and_schema(self, tmp_path):
        out = tmp_path / "o"
        code = run("generate-corpus", "--out", str(out),
                   "--set", "corpus.n_relations=3",
                   "--set", "corpus.instances_per_relation=5")
        assert code == 0
        lines = (out / "corpus.jsonl").read_text().strip().splitlines()
        assert len(lines) == 15
        schema = json.loads((out / "schema.json").read_text())
        assert len(schema["relations"]) == 3
        assert (out / "resolved_config.json").exists()

    def test_seed_changes_content_not_schema(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            run("generate-corpus", "--out", str(out), "--seed", str(seed),
                "--set", "corpus.n_relations=3",
                "--set", "corpus.instances_per_relation=5")
            outs.append(out)
        c1 = (outs[0] / "corpus.jsonl").read_bytes()
        c2 = (outs[1] / "corpus.jsonl").read_bytes()
        assert c1 != c2
        s1 = json.loads((outs[0] / "schema.json").read_text())
        s2 = json.loads((outs[1] / "schema.json").read_text())
        assert s1 == s2

    def test_malformed_config_exits_2_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken json")
        out = tmp_path / "o"
        code = run("generate-corpus", "--config", str(bad), "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("generate-corpus", "--out", str(out),
                   "--set", "corpus.n_relations=0")
        assert code != 0
        assert "n_relations" in capsys.readouterr().err

    def test_non_numeric_override_exits_2_naming_key(self, tmp_path, capsys):
        code = run("train", "--out", str(tmp_path / "o"), "--set", "train.m=abc")
        assert code == 2
        assert "train.m" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["train.epochs=2.7", "data.k=1.5",
                                          "sweep.seeds=[1, 2.5]"])
    def test_non_integral_integer_exits_2_naming_key(self, tmp_path, capsys, override):
        # int() would truncate: train.epochs=2.7 used to train 2 epochs
        code = run("train", "--out", str(tmp_path / "o"), "--set", override)
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", ["train.m=true", "train.lr=true",
                                          "model.dropout=false", "sweep.seeds=[true,2]",
                                          "train.alpha=true"])
    def test_boolean_for_a_number_exits_2_naming_key(self, tmp_path, capsys, override):
        # float(True) is 1.0: train.m=true used to run m=1
        code = run("train", "--out", str(tmp_path / "o"), "--set", override)
        key = override.split("=")[0]
        assert code == 2
        assert f"error: config key {key!r} needs " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_accepted(self):
        assert resolve_config(None, ["train.epochs=3.0"], None, "train")["train.epochs"] == 3.0

    def test_float32_dtype_exits_2(self, tmp_path, capsys):
        code = run("train", "--out", str(tmp_path / "o"), *FAST_SETS,
                   "--set", "model.dtype=float32")
        assert code == 2
        assert "float32" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,override,name", [
        ("train", "model.dropout=1.5", "dropout"), ("train", "model.dropout=1.0", "dropout"),
        ("train", "model.n_heads=0", "n_heads"), ("train", "model.n_layers=-1", "n_layers"),
        ("train", "train.score_mode=foo", "score_mode"),
        ("train", "train.entity_order=foo", "entity_order"),
        ("train", "train.init_mode=foo", "init_mode"), ("train", "train.m=0", "m must be"),
        ("train", "data.k=0", "data.k"), ("sim-protocol", "protocol.m=0", "protocol.m"),
        ("pretrain", "pretrain.seed=-1", "seed"),
        ("train", "data.test_fraction=-1", "test_fraction"),
        ("train", "data.dev_fraction=-0.5", "dev_fraction"),
        ("train", "data.dev_fraction=NaN", "dev_fraction"),
        ("train", "data.dev_fraction=0.8", "leave room for train"),
        ("sim-protocol", "protocol.k=3", "'protocol.k' (3) must be divisible by 'protocol.m'"),
        # an empty split used to score micro_f1 0.0000 and exit 0
        ("train", "data.test_fraction=0", "test split is empty"),
        ("sweep-m", "data.test_fraction=0", "test split is empty"),
        ("sim-protocol", "data.test_fraction=0", "test split is empty"),
        ("train", "data.dev_fraction=0 train.best_dev_selection=true", "dev split is empty"),
        ("sim-protocol", "data.dev_fraction=0 train.best_dev_selection=true",
         "dev split is empty")])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, command, override,
                                                name):
        sets = [arg for item in override.split() for arg in ("--set", item)]
        code = run(command, "--out", str(tmp_path / "o"), *FAST_SETS, *sets)
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_empty_dev_split_without_selection_trains(self, tmp_path):
        assert run("train", "--out", str(tmp_path / "o"), *FAST_SETS,
                   "--set", "data.dev_fraction=0") == 0

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("generate-corpus", "--out", str(out), "--seed", "3",
                "--set", "corpus.n_relations=3",
                "--set", "corpus.instances_per_relation=5")
        assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()
        assert (a / "schema.json").read_bytes() == (b / "schema.json").read_bytes()


class TestTrainEvalRound:
    def test_train_twice_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run("train", "--out", str(out), *FAST_SETS)
            assert code == 0
            outs.append(out)
        assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
        assert (outs[0] / "result.json").read_bytes() == (outs[1] / "result.json").read_bytes()

    # criterion 10's small configuration, then m=3 with dropout, weight decay,
    # inner pretraining and best-dev selection; a change that shifts any
    # training bit changes these digests
    SMALL = ["corpus.n_relations=3", "corpus.instances_per_relation=8",
             "corpus.vocab_pool_size=20", "model.d=12", "model.n_layers=1",
             "model.n_heads=2", "model.max_len=48", "train.m=2", "train.epochs=2",
             "train.lr=0.005", "train.init_mode=combined"]
    M3 = ["train.m=3", "model.dropout=0.1", "train.weight_decay=0.01",
          "train.pretrain_steps=20", "train.best_dev_selection=true"]

    @pytest.mark.parametrize("sets,ckpt_sha,result_sha", [
        (SMALL, "bc500313b7d01d7fe3ff804cc0e544648ca731e2b8100d2be852a724290ba5f2",
         "ccf44fbe9a15314524e5744c42502184574da8550b14791b0d20638158278cf7"),
        (SMALL + M3, "a2efa89b052a92a94c1c7accfc55c99b62309805196d97f0e930b5dba45106ca",
         "9b58be12d9a006756ca4732fe8dcd3a9bc6d2145ca29f33e926faecc2b6f4f0a"),
        # no Global-Local terms: a zero weight must add exact zeros
        (SMALL + ["train.alpha=0", "train.beta=0"],
         "d64b044400dc0e7324e9d3647fffcdeb34250f7c07cba345c1da9c3eaec6a8d4",
         "edaff6ea081ebc3f54822ff555f39c23e1342a7b3bf30efc14706d54daf4aee7")])
    def test_train_artifacts_pinned(self, tmp_path, sets, ckpt_sha, result_sha):
        sets = [arg for item in sets for arg in ("--set", item)]
        assert run("train", "--out", str(tmp_path), "--seed", "11", *sets) == 0
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert (digest("model.ckpt"), digest("result.json")) == (ckpt_sha, result_sha)

    # criterion 10's checkpoint, and the same run on a corpus with an NA
    # label, evaluated on its whole corpus with and without eval.include_na;
    # a change that flips any prediction changes these digests. Paths are
    # relative, since eval.json echoes the dataset path.
    @pytest.mark.parametrize("corpus_sets,include_na,eval_sha", [
        ([], "false", "a45e7d89ec2120dcb7323f388c1794b3dc9f09dd6ad9ca3850b6549dde82401f"),
        ([], "true", "9d1dc0805429e5a78e35a8e113d6f5a052d75a21cacb62e410e4c09c53dda4b0"),
        (["corpus.na_fraction=0.25"], "false",
         "86e2e0921bb2fd633709d29cd2f01020aa74517e07051e29d1459c7a99509d41"),
        (["corpus.na_fraction=0.25"], "true",
         "a2b2afcdbb43965fc788011c6d587b5f09e4c7c057442eb4685b1f523e6aba9d")])
    def test_eval_artifact_pinned(self, tmp_path, monkeypatch, corpus_sets, include_na,
                                  eval_sha):
        monkeypatch.chdir(tmp_path)
        sets = lambda items: [arg for item in items for arg in ("--set", item)]
        assert run("train", "--out", "plain/t", "--seed", "11",
                   *sets(self.SMALL + corpus_sets)) == 0
        assert run("generate-corpus", "--out", "plain/c",
                   *sets(self.SMALL[:3] + corpus_sets)) == 0
        out = f"plain/e{include_na}"
        assert run("eval", "--out", out, "--checkpoint", "plain/t/model.ckpt",
                   "--dataset", "plain/c/corpus.jsonl",
                   "--set", f"eval.include_na={include_na}") == 0
        assert hashlib.sha256((tmp_path / out / "eval.json").read_bytes()).hexdigest() == eval_sha

    def test_result_json_has_no_wall_time(self, tmp_path):
        out = tmp_path / "o"
        run("train", "--out", str(out), *FAST_SETS)
        payload = json.loads((out / "result.json").read_text())
        assert "wall_time" not in payload
        assert 0.0 <= payload["micro_f1"] <= 1.0
        assert (out / "run.log").exists()

    def test_epochs_zero_then_eval_reproduces_f1(self, tmp_path):
        out = tmp_path / "t"
        sets = [s for s in FAST_SETS]
        sets[sets.index("train.epochs=1")] = "train.epochs=0"
        run("train", "--out", str(out), *sets)
        trained_f1 = json.loads((out / "result.json").read_text())["micro_f1"]

        corpus_out = tmp_path / "c"
        run("generate-corpus", "--out", str(corpus_out),
            "--set", "corpus.n_relations=3",
            "--set", "corpus.instances_per_relation=8",
            "--set", "corpus.vocab_pool_size=20",
            "--set", "train.m=2")
        # evaluating the untrained checkpoint on the episode's own test split
        # is not directly expressible via files; instead eval on the full
        # corpus must agree between two invocations
        ev1, ev2 = tmp_path / "e1", tmp_path / "e2"
        for ev in (ev1, ev2):
            code = run("eval", "--out", str(ev),
                       "--checkpoint", str(out / "model.ckpt"),
                       "--dataset", str(corpus_out / "corpus.jsonl"))
            assert code == 0
        r1 = json.loads((ev1 / "eval.json").read_text())
        r2 = json.loads((ev2 / "eval.json").read_text())
        assert r1["micro_f1"] == r2["micro_f1"]
        assert trained_f1 >= 0.0

    def test_eval_missing_checkpoint_nonzero(self, tmp_path, capsys):
        code = run("eval", "--out", str(tmp_path / "e"),
                   "--checkpoint", str(tmp_path / "missing.ckpt"),
                   "--dataset", str(tmp_path / "missing.jsonl"))
        assert code != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,field", [
        (lambda h: h["config"].update(width=3), "'config' has unknown keys ['width']"),
        (lambda h: h["arrays"][0].pop("shape"), "'arrays[0]' must hold exactly"),
        (drop_base_word, "words, 'config.vocab_size' is"),
        (repeat_relation, "'relation_order' repeats"),
        (lambda h: h["extra"].update(schema=5), "'extra.schema' must be an object whose "
                                                "'na_label' is a string or null, got 5"),
        (lambda h: h["extra"]["schema"].update(na_label=7), "'na_label': 7,")])
    def test_eval_malformed_header_exits_1_naming_file(self, tmp_path, capsys, edit, field):
        out = tmp_path / "t"
        assert run("train", "--out", str(out), *FAST_SETS, "--set", "train.epochs=0") == 0
        corpus = tmp_path / "c"
        assert run("generate-corpus", "--out", str(corpus), *FAST_SETS[:6]) == 0
        rewrite_header(out / "model.ckpt", edit)
        capsys.readouterr()
        code = run("eval", "--out", str(tmp_path / "e"), "--checkpoint", str(out / "model.ckpt"),
                   "--dataset", str(corpus / "corpus.jsonl"))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: {out / 'model.ckpt'}: ") and field in err

    @pytest.mark.parametrize("name,index,value", [("token_embed", 0, float("nan")),
                                                  ("view_head.w", -1, float("-inf"))])
    def test_eval_non_finite_checkpoint_exits_1_naming_file(self, tmp_path, capsys, name,
                                                            index, value):
        ckpt, corpus = tmp_path / "t" / "model.ckpt", tmp_path / "c" / "corpus.jsonl"
        assert run("train", "--out", str(ckpt.parent), *FAST_SETS,
                   "--set", "train.epochs=0") == 0
        assert run("generate-corpus", "--out", str(corpus.parent), *FAST_SETS[:6]) == 0
        write_array_value(ckpt, name, index, value)
        capsys.readouterr()
        code = run("eval", "--out", str(tmp_path / "e"), "--checkpoint", str(ckpt),
                   "--dataset", str(corpus))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: {ckpt}: checkpoint array {name!r} holds NaN or Inf")
        assert not (tmp_path / "e" / "eval.json").exists()

    def test_eval_labels_the_checkpoint_cannot_predict_exit_2(self, tmp_path, capsys):
        ckpt, corpus = tmp_path / "t" / "model.ckpt", tmp_path / "c" / "corpus.jsonl"
        assert run("train", "--out", str(ckpt.parent), *FAST_SETS,
                   "--set", "train.epochs=0") == 0
        assert run("generate-corpus", "--out", str(corpus.parent), *FAST_SETS,
                   "--set", "corpus.n_relations=4") == 0
        capsys.readouterr()
        code = run("eval", "--out", str(tmp_path / "e"), "--checkpoint", str(ckpt),
                   "--dataset", str(corpus))
        assert code == 2
        assert (f"dataset {corpus} has labels that checkpoint {ckpt} cannot predict: "
                f"['rel3']") in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_eval_takes_the_train_runs_resolved_config(self, tmp_path):
        # inner pretraining and non-default model keys: eval checks neither
        # train.pretrain_* nor a model key that matches the checkpoint
        train_out = tmp_path / "t"
        assert run("train", "--out", str(train_out), *FAST_SETS,
                   "--set", "train.pretrain_steps=2", "--set", "train.m=3") == 0
        assert run("generate-corpus", "--out", str(tmp_path / "c"), *FAST_SETS) == 0
        assert run("eval", "--out", str(tmp_path / "e"),
                   "--config", str(train_out / "resolved_config.json"),
                   "--checkpoint", str(train_out / "model.ckpt"),
                   "--dataset", str(tmp_path / "c" / "corpus.jsonl")) == 0
        assert (tmp_path / "e" / "eval.json").exists()

    def test_eval_empty_dataset_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert run("train", "--out", str(out), *FAST_SETS, "--set", "train.epochs=0") == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run("eval", "--out", str(tmp_path / "e"), *FAST_SETS,
                   "--checkpoint", str(out / "model.ckpt"), "--dataset", str(empty))
        assert code == 2
        assert "no instances" in capsys.readouterr().err
        assert not (tmp_path / "e" / "eval.json").exists()

    def test_eval_requires_arguments(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("eval", "--out", str(tmp_path / "e"))
        assert exc.value.code == 2
        assert "--checkpoint, --dataset" in capsys.readouterr().err


class TestPretrainCommand:
    def test_pretrain_writes_checkpoint_and_accuracy(self, tmp_path):
        out = tmp_path / "p"
        code = run("pretrain", "--out", str(out), *FAST_SETS)
        assert code == 0
        assert (out / "pretrained.ckpt").exists()
        payload = json.loads((out / "pretrain.json").read_text())
        assert "holdout_accuracy" in payload

    @pytest.mark.parametrize("override,field", [
        ("pretrain.steps=-3", "steps"), ("pretrain.steps=0", "steps"),
        ("pretrain.lr=nan", "lr"),
        ("pretrain.mask_rate=0", "mask_rate"),
        ("pretrain.holdout_fraction=1.0", "holdout_fraction")])
    def test_bad_pretrain_value_exits_2_naming_field(self, tmp_path, capsys,
                                                      override, field):
        out = tmp_path / "p"
        code = run("pretrain", "--out", str(out), *FAST_SETS, "--set", override)
        assert code == 2
        assert f"error: pretrain {field}" in capsys.readouterr().err
        assert not (out / "pretrained.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_exit_1(self, tmp_path, capsys):
        # steps of 1e300 overflow the parameters to NaN/Inf within three steps
        code = run("pretrain", "--out", str(tmp_path / "p"), *FAST_SETS,
                   "--set", "pretrain.lr=1e300")
        assert code == 1
        assert "NaN/Inf" in capsys.readouterr().err

    def test_train_from_checkpoint(self, tmp_path):
        pre = tmp_path / "p"
        run("pretrain", "--out", str(pre), *FAST_SETS)
        out = tmp_path / "t"
        code = run("train", "--out", str(out), "--checkpoint",
                   str(pre / "pretrained.ckpt"), *FAST_SETS)
        assert code == 0


class TestTrainFromCheckpoint:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pre")
        assert run("pretrain", "--out", str(out), *FAST_SETS) == 0
        return out / "pretrained.ckpt"

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        assert run("generate-corpus", "--out", str(out), *FAST_SETS) == 0
        return out / "corpus.jsonl"

    # FAST_SETS sets train.m=2, the checkpoint's m; train.m=4 is the default
    @pytest.mark.parametrize("command,sets,message", [
        ("train", ["model.d=16", "model.n_layers=3"], "'model.d' is 16, but the run uses 12"),
        ("train", ["model.n_layers=3"], "'model.n_layers' is 3, but the run uses 1"),
        ("train", ["model.max_len=64"], "'model.max_len' is 64, but the run uses 48"),
        ("train", ["model.dropout=0.1"], "'model.dropout' is 0.1, but the run uses 0.0"),
        ("train", ["train.pretrain_steps=20"], "'train.pretrain_steps' is 20, but the run from"),
        ("train", ["train.pretrain_lr=0.01"], "'train.pretrain_lr' is 0.01, but the run from"),
        ("train", ["train.m=3"], "'train.m' is 3, but the run uses 2"),
        ("train", ["train.m=4"], "'train.m' is 4, but the run uses 2"),
        ("eval", ["model.d=16", "model.n_layers=3"], "'model.d' is 16, but the run uses 12"),
        ("eval", ["model.dropout=0.1"], "'model.dropout' is 0.1, but the run uses 0.0"),
        ("eval", ["train.m=5"], "'train.m' is 5, but the run uses 2"),
        ("eval", ["train.m=5", "model.d=16", "model.max_len=20"],
         "'model.d' is 16, but the run uses 12"),
        ("probe-init", ["model.d=16"], "'model.d' is 16, but the run uses 12"),
        ("probe-init", ["train.m=5"], "'train.m' is 5, but the run uses 2"),
        ("analyze-views", ["model.n_layers=3"], "'model.n_layers' is 3, but the run uses 1"),
        ("analyze-views", ["train.m=5"], "'train.m' is 5, but the run uses 2")])
    def test_setting_the_run_cannot_use_exits_2(self, tmp_path, capsys, checkpoint, corpus,
                                                command, sets, message):
        out = tmp_path / "t"
        files = {"eval": ["--dataset", str(corpus)],
                 "probe-init": ["--schema", str(corpus.parent / "schema.json")]}.get(command, [])
        code = run(command, "--out", str(out), "--checkpoint", str(checkpoint), *files,
                   *FAST_SETS, *[arg for item in sets for arg in ("--set", item)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and str(checkpoint) in err
        assert not out.exists()

    def test_default_and_matching_settings_pass(self, tmp_path, checkpoint, corpus):
        # FAST_SETS' model keys match the checkpoint; without them every model
        # key is at its default, and the run takes the checkpoint's max_len
        defaults = [arg for i, arg in enumerate(FAST_SETS) if not arg.startswith("model.")
                    and not (arg == "--set" and FAST_SETS[i + 1].startswith("model."))]
        for name, sets in (("match", FAST_SETS), ("default", defaults)):
            assert run("train", "--out", str(tmp_path / name), "--checkpoint",
                       str(checkpoint), *sets, "--set", "train.pretrain_lr=0.002") == 0
        result = json.loads((tmp_path / "default" / "result.json").read_text())
        assert result["config"]["max_len"] == 48
        # result.json records the checkpoint's model: d=12, 1 layer
        model = result["config"]["model"]
        assert model == asdict(load_checkpoint(checkpoint).model.config)
        assert (model["d"], model["n_layers"], model["max_len"]) == (12, 1, 48)
        # eval reads m from the checkpoint, so the default train.m passes too
        for name, sets in (("eval-default", ["--set", "train.m=4"]),
                           ("eval-match", FAST_SETS)):
            assert run("eval", "--out", str(tmp_path / name), "--checkpoint", str(checkpoint),
                       "--dataset", str(corpus), *sets) == 0

    # the checkpoint's verbalizer holds rel0, rel1 and rel2, in that order
    @pytest.mark.parametrize("n_relations,reverse,code", [
        (2, False, 2), (4, False, 2), (3, True, 2), (3, False, 0)])
    def test_schema_relations_must_be_the_checkpoints(self, tmp_path, capsys, checkpoint,
                                                      n_relations, reverse, code):
        assert run("generate-corpus", "--out", str(tmp_path / "c"), *FAST_SETS,
                   "--set", f"corpus.n_relations={n_relations}") == 0
        schema = tmp_path / "c" / "schema.json"
        payload = json.loads(schema.read_text())
        if reverse:
            payload["relations"].reverse()
            schema.write_text(json.dumps(payload))
        out = tmp_path / "t"
        assert run("train", "--out", str(out), "--checkpoint", str(checkpoint), *FAST_SETS,
                   "--corpus", str(tmp_path / "c" / "corpus.jsonl"),
                   "--schema", str(schema)) == code
        if code == 2:
            err = capsys.readouterr().err
            assert (f"schema.relations {payload['relations']} of {schema} differ from "
                    f"verbalizer.relation_order ['rel0', 'rel1', 'rel2'] of checkpoint "
                    f"{checkpoint}") in err
            assert not out.exists()

    def test_pretrain_schema_file_takes_train_m(self, tmp_path):
        assert run("generate-corpus", "--out", str(tmp_path / "c"), *FAST_SETS,
                   "--set", "train.m=4") == 0
        files = ["--corpus", str(tmp_path / "c" / "corpus.jsonl"),
                 "--schema", str(tmp_path / "c" / "schema.json")]
        assert json.loads((tmp_path / "c" / "schema.json").read_text())["m"] == 4
        assert run("pretrain", "--out", str(tmp_path / "p"), *FAST_SETS, *files) == 0
        assert run("train", "--out", str(tmp_path / "t"), *FAST_SETS, *files,
                   "--checkpoint", str(tmp_path / "p" / "pretrained.ckpt")) == 0


MALFORMED_SCHEMAS = {
    "no relations": ({"m": 2}, "field 'relations'"),
    "relations 5": ({"relations": 5, "m": 2}, "field 'relations'"),
    "m x": ({"relations": ["rel0"], "m": "x"}, "field 'm'"),
    "si_tokens list": ({"relations": ["rel0"], "m": 2, "si_tokens": ["a"]}, "field 'si_tokens'"),
    "na_label typo": ({"relations": ["rel0", "no_relation"], "m": 2, "na_label": "no_relaton"},
                      "field 'na_label' 'no_relaton' is not one of the relations"),
    "json list": (["rel0"], "JSON object"),
}


class TestInputFiles:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        assert run("generate-corpus", "--out", str(out), *FAST_SETS) == 0
        return out / "corpus.jsonl"

    @pytest.mark.parametrize("command", ["train", "pretrain", "sweep-m", "sim-protocol",
                                         "probe-init"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCHEMAS))
    def test_malformed_schema_exits_1_naming_file(self, tmp_path, capsys, corpus, command,
                                                  case):
        payload, field = MALFORMED_SCHEMAS[case]
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload))
        out = tmp_path / "o"
        code = run(command, "--out", str(out), *FAST_SETS, "--corpus", str(corpus),
                   "--schema", str(schema))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {schema}: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ('["a", "b"]', "must map each aspect name"),
        ('{"a": "word"}', "must map each aspect name"),
        ('{"a": []}', "must map each aspect name"),
        ('{"a": ["w", 3]}', "must map each aspect name"),
        ("not json", "Expecting value")])
    def test_malformed_aspects_exit_1_naming_file(self, tmp_path, capsys, text, message):
        aspects = tmp_path / "aspects.json"
        aspects.write_text(text)
        out = tmp_path / "av"
        code = run("analyze-views", "--out", str(out), "--checkpoint",
                   str(FIXTURES / "probe_toy.ckpt"), "--aspects", str(aspects))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {aspects}: ") and message in err
        assert not out.exists()

    def test_valid_aspects_name_the_heatmap_columns(self, tmp_path):
        aspects = tmp_path / "aspects.json"
        aspects.write_text(json.dumps({"second": ["r0a1w0", "r0a1w1"], "first": ["r0a0w0"]}))
        out = tmp_path / "av"
        assert run("analyze-views", "--out", str(out), "--checkpoint",
                   str(FIXTURES / "probe_toy.ckpt"), "--aspects", str(aspects)) == 0
        header = (out / "heatmap.csv").read_text().splitlines()[0]
        assert header == "virtual_word,second,first"


class TestReportCommands:
    def test_sweep_m_rows(self, tmp_path):
        out = tmp_path / "s"
        code = run("sweep-m", "--out", str(out), *FAST_SETS,
                   "--set", "sweep.m_values=[1,2]",
                   "--set", "sweep.seeds=[1]")
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 2   # comment, header, one row per m
        payload = json.loads((out / "sweep.json").read_text())
        assert [r["m"] for r in payload["rows"]] == [1, 2]
        assert payload["config"]["train.epochs"] == 1

    def test_sweep_m_without_m_values_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run("sweep-m", "--out", str(out), *FAST_SETS, "--set", "sweep.m_values=[]")
        assert code == 2
        assert "sweep.m_values" in capsys.readouterr().err
        assert not out.exists()

    def test_sim_protocol_report(self, tmp_path):
        out = tmp_path / "sp"
        code = run("sim-protocol", "--out", str(out), *FAST_SETS,
                   "--set", "train.epochs=6", "--set", "train.lr=0.01",
                   "--set", "protocol.k=2", "--set", "protocol.m=1",
                   "--set", "protocol.seeds=[1]")
        assert code == 0
        payload = json.loads((out / "protocol.json").read_text())
        assert payload["ratio_multi_mask"] == 1.0
        assert payload["ratio_single_mask"] == 1.0

    def test_probe_init_record_per_relation_view(self, tmp_path):
        out = tmp_path / "pi"
        code = run("probe-init", "--out", str(out), *FAST_SETS)
        assert code == 0
        report = json.loads((out / "probe_report.json").read_text())
        assert len(report) == 3 * 2   # relations x views
        assert set(report[0]) == {"relation", "view", "token", "probability"}

    def test_probe_init_honours_pretrain_keys(self, tmp_path):
        reports = []
        for name, sets in (("a", []), ("b", ["--set", "pretrain.batch_size=2",
                                             "--set", "pretrain.mask_rate=0.5"])):
            assert run("probe-init", "--out", str(tmp_path / name), *FAST_SETS, *sets) == 0
            reports.append((tmp_path / name / "probe_report.json").read_bytes())
        assert reports[0] != reports[1]

    def test_analyze_views_shape(self, tmp_path):
        pre = tmp_path / "p"
        run("pretrain", "--out", str(pre), *FAST_SETS)
        out = tmp_path / "av"
        code = run("analyze-views", "--out", str(out),
                   "--checkpoint", str(pre / "pretrained.ckpt"), *FAST_SETS)
        assert code == 0
        lines = (out / "heatmap.csv").read_text().strip().splitlines()
        # header + one row per (relation, view): 3 relations x m=2
        assert len(lines) == 1 + 6
        payload = json.loads((out / "heatmap.json").read_text())
        assert len(payload["columns"]) == json.loads(
            (out / "resolved_config.json").read_text())["corpus.aspects_per_relation"]

    def test_analyze_views_requires_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("analyze-views", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("relations,code", [
        (["rel0", "rel1", "rel2"], 0), (["rel0", "rel1", "rel2", "rel3"], 2),
        (["rel0", "rel1", "other"], 2)])
    def test_probe_init_checks_schema_against_checkpoint(self, tmp_path, capsys,
                                                         relations, code):
        # the fixture checkpoint's verbalizer holds rel0, rel1 and rel2
        payload = json.loads((FIXTURES / "probe_schema.json").read_text())
        for key in ("probe_templates", "si_tokens"):
            payload[key] = {rel: payload[key]["rel0"] for rel in relations}
        payload["relations"] = relations
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload))
        out = tmp_path / "pi"
        assert run("probe-init", "--out", str(out), "--checkpoint",
                   str(FIXTURES / "probe_toy.ckpt"), "--schema", str(schema)) == code
        if code == 2:
            err = capsys.readouterr().err
            assert "schema.relations" in err and "verbalizer.relation_order" in err
            assert str(relations) in err
            assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--seed", "5"], "'pretrain.seed' is 5"),
        (["--set", "pretrain.steps=99"], "'pretrain.steps' is 99"),
        (["--set", "pretrain.mask_rate=0.5"], "'pretrain.mask_rate' is 0.5")])
    def test_probe_init_from_checkpoint_rejects_pretrain_keys(self, tmp_path, capsys, argv,
                                                              message):
        checkpoint, out = FIXTURES / "probe_toy.ckpt", tmp_path / "pi"
        assert run("probe-init", "--out", str(out), "--checkpoint", str(checkpoint),
                   "--schema", str(FIXTURES / "probe_schema.json"), *argv) == 2
        err = capsys.readouterr().err
        assert f"{message}, but the run from checkpoint {checkpoint} does not pretrain" in err
        assert not out.exists()


class TestImports:
    def test_import_and_help_load_no_scipy(self):
        code = ("import sys, mvre, mvre.cli\n"
                "try:\n    mvre.cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["sweep-m", "--checkpoint", "/nonexistent.ckpt"],
        ["sim-protocol", "--dataset", "d.jsonl"], ["generate-corpus", "--corpus", "c.jsonl"],
        ["eval", "--checkpoint", "m.ckpt", "--dataset", "d.jsonl", "--corpus", "c.jsonl"],
        ["eval", "--checkpoint", "m.ckpt", "--dataset", "d.jsonl", "--seed", "5"],
        ["analyze-views", "--checkpoint", "m.ckpt", "--seed", "5"]])
    def test_flag_the_command_does_not_take_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["train", "--corpus", "{tmp}/corpus.jsonl"],
         "--schema is required when --corpus is given"),
        (["probe-init", "--checkpoint", str(FIXTURES / "probe_toy.ckpt")],
         "probe-init with --checkpoint also needs --schema"),
        (["generate-corpus", "--config", "{tmp}/missing.json"],
         "config file not found: {tmp}/missing.json"),
        (["generate-corpus", "--config", "{tmp}/list.json"],
         "config file must hold a JSON object of dotted keys"),
        (["eval", "--checkpoint", "{tmp}/bare.ckpt", "--dataset", "{tmp}/list.json"],
         "checkpoint {tmp}/bare.ckpt carries no vocabulary")])
    def test_missing_or_malformed_input_exits_2(self, tmp_path, capsys, argv, message):
        (tmp_path / "list.json").write_text('["train.lr", 0.1]')
        save_checkpoint(tmp_path / "bare.ckpt", MlmModel(ModelConfig(
            d=8, n_layers=1, n_heads=2, max_len=8, vocab_size=10)))
        code = run(*[arg.format(tmp=tmp_path) for arg in argv], "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and message.format(tmp=tmp_path) in err
        assert not (tmp_path / "o").exists()

    def test_corpus_label_missing_from_schema_exits_2(self, tmp_path, capsys):
        for n in (4, 3):
            assert run("generate-corpus", "--out", str(tmp_path / str(n)),
                       "--set", f"corpus.n_relations={n}",
                       "--set", "corpus.instances_per_relation=5") == 0
        code = run("train", "--out", str(tmp_path / "t"), *FAST_SETS,
                   "--corpus", str(tmp_path / "4" / "corpus.jsonl"),
                   "--schema", str(tmp_path / "3" / "schema.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "lacks: ['rel3']" in err and "Traceback" not in err
        assert not (tmp_path / "t").exists()
