"""Command-line surface: happy paths, exit codes, byte-level reproducibility."""

import json
from pathlib import Path

import pytest

from mvre.cli import DEFAULTS, main, resolve_config, CliError

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

    def test_eval_requires_arguments(self, tmp_path, capsys):
        code = run("eval", "--out", str(tmp_path / "e"))
        assert code == 2


class TestPretrainCommand:
    def test_pretrain_writes_checkpoint_and_accuracy(self, tmp_path):
        out = tmp_path / "p"
        code = run("pretrain", "--out", str(out), *FAST_SETS)
        assert code == 0
        assert (out / "pretrained.ckpt").exists()
        payload = json.loads((out / "pretrain.json").read_text())
        assert "holdout_accuracy" in payload

    @pytest.mark.parametrize("override,field", [
        ("pretrain.steps=-3", "steps"), ("pretrain.lr=nan", "lr"),
        ("pretrain.mask_rate=0", "mask_rate"),
        ("pretrain.holdout_fraction=1.0", "holdout_fraction")])
    def test_bad_pretrain_value_exits_1_naming_field(self, tmp_path, capsys,
                                                      override, field):
        out = tmp_path / "p"
        code = run("pretrain", "--out", str(out), *FAST_SETS, "--set", override)
        assert code == 1
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
        code = run("analyze-views", "--out", str(tmp_path / "x"))
        assert code == 2
