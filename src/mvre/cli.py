"""Command-line entry point wiring corpora, training, and analyses together.

Configuration is a flat JSON object whose keys are dotted paths
(``train.lr``, ``corpus.n_relations``, ...). Resolution order: built-in
defaults, then the ``--config`` file, then repeated ``--set key=value``
overrides, then ``--seed``. Unknown keys are rejected. Every run echoes its
fully resolved configuration next to its outputs, and wall-clock data goes
to a separate log file so the artifact files stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .data import (CorpusSpec, corpus_aspect_groups, generate_corpus, load_jsonl,
                   make_splits, sample_kshot, save_jsonl)
from .errors import MvreError
from .experiments import (TrainConfig, evaluate, grid_rows_csv, heatmap_csv,
                          run_similarity_protocol, sweep_m, train,
                          view_aspect_heatmap, write_json, TrainedArtifacts)
from .init_schemes import dynamic_init, save_probe_report
from .losses import ViewPosteriorHead
from .model import (ModelConfig, MlmModel, PretrainConfig, load_checkpoint,
                    pretrain_mlm, save_checkpoint)
from .schema import RelationSchema, load_schema, save_schema, synthetic_schema
from .vocab import build_vocab, vocab_from_payload, vocab_payload

DEFAULTS: dict[str, object] = {
    "corpus.n_relations": 8,
    "corpus.instances_per_relation": 50,
    "corpus.aspects_per_relation": 4,
    "corpus.vocab_pool_size": 200,
    "corpus.sentence_length_min": 9,
    "corpus.sentence_length_max": 14,
    "corpus.na_fraction": 0.0,
    "corpus.seed": 1,
    "data.dev_fraction": 0.2,
    "data.test_fraction": 0.2,
    "data.split_seed": 0,
    "data.k": 1,
    "model.d": 64,
    "model.n_layers": 2,
    "model.n_heads": 4,
    "model.max_len": 128,
    "model.dtype": "float64",
    "model.dropout": 0.0,
    "pretrain.steps": 3000,
    "pretrain.batch_size": 8,
    "pretrain.lr": 2e-3,
    "pretrain.mask_rate": 0.15,
    "pretrain.holdout_fraction": 0.1,
    "pretrain.seed": 0,
    "train.m": 4,
    "train.alpha": None,
    "train.beta": None,
    "train.lr": 3e-5,
    "train.epochs": 40,
    "train.batch_size": 8,
    "train.seed": 1,
    "train.init_mode": "combined",
    "train.best_dev_selection": False,
    "train.score_mode": "mixture",
    "train.weight_decay": 0.0,
    "train.entity_order": "sub_obj",
    "train.entity_markers": True,
    "train.pretrain_steps": 0,
    "train.pretrain_lr": 2e-3,
    "sweep.k": 1,
    "sweep.seeds": [1, 2, 3, 4, 5],
    "sweep.m_values": [1, 2, 3, 4, 5],
    "protocol.k": 4,
    "protocol.m": 4,
    "protocol.seeds": [1, 2, 3],
    "analysis.top_k": 10,
    "eval.include_na": False,
}

_SEED_KEY = {
    "generate-corpus": "corpus.seed",
    "pretrain": "pretrain.seed",
    "train": "train.seed",
    "eval": "train.seed",
    "probe-init": "pretrain.seed",
    "analyze-views": "pretrain.seed",
}


class CliError(Exception):
    """Configuration/usage problem; maps to exit code 2."""


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _integer(value) -> int:
    """``int(value)`` that refuses to truncate (``int(2.7)`` would train 2 epochs)."""
    n = int(value)
    if n != float(value):
        raise ValueError(f"{value!r} is not integral")
    return n


def _check_type(key: str, value):
    """Reject a value that the commands could not convert like the default's type."""
    default = DEFAULTS[key]
    if isinstance(default, str) or (default is None and value is None):
        return
    if isinstance(default, bool):
        if not isinstance(value, bool):  # bool("false") would be True
            raise CliError(f"config key {key!r} needs true or false, got {value!r}")
        return
    if isinstance(default, list):
        convert, kind = (lambda v: [_integer(x) for x in v]), "a list of integers"
    elif isinstance(default, int):
        convert, kind = _integer, "an integer"
    else:
        convert, kind = float, "a number"
    try:
        convert(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"config key {key!r} needs {kind}, got {value!r}") from None


def resolve_config(config_path: str | None, overrides: list[str],
                   seed: int | None, command: str) -> dict:
    cfg = dict(DEFAULTS)
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"config file not found: {config_path}")
        except json.JSONDecodeError as e:
            raise CliError(f"malformed config file {config_path}: {e.msg}")
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object of dotted keys")
        for key, value in loaded.items():
            if key not in cfg:
                raise CliError(f"unknown config key {key!r}")
            cfg[key] = value
    for item in overrides:
        if "=" not in item:
            raise CliError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        if key not in cfg:
            raise CliError(f"override names unknown config key {key!r}")
        cfg[key] = _parse_value(raw)
    if seed is not None:
        if command == "sweep-m":
            cfg["sweep.seeds"] = [seed]
        elif command == "sim-protocol":
            cfg["protocol.seeds"] = [seed]
        else:
            cfg[_SEED_KEY[command]] = seed
    for key, value in cfg.items():
        _check_type(key, value)
    return cfg


def _corpus_spec(cfg: dict) -> CorpusSpec:
    return CorpusSpec(
        n_relations=int(cfg["corpus.n_relations"]),
        instances_per_relation=int(cfg["corpus.instances_per_relation"]),
        aspects_per_relation=int(cfg["corpus.aspects_per_relation"]),
        vocab_pool_size=int(cfg["corpus.vocab_pool_size"]),
        sentence_length_range=(int(cfg["corpus.sentence_length_min"]),
                               int(cfg["corpus.sentence_length_max"])),
        na_fraction=float(cfg["corpus.na_fraction"]),
    )


def _model_config(cfg: dict, vocab_size: int = 0) -> ModelConfig:
    mc = ModelConfig(
        d=int(cfg["model.d"]),
        n_layers=int(cfg["model.n_layers"]),
        n_heads=int(cfg["model.n_heads"]),
        max_len=int(cfg["model.max_len"]),
        vocab_size=vocab_size,
        dtype=str(cfg["model.dtype"]),
        dropout=float(cfg["model.dropout"]),
    )
    try:
        replace(mc, vocab_size=max(vocab_size, 1)).validate()  # the vocabulary may come later
    except ValueError as e:
        raise CliError(f"model config: {e}") from None
    return mc


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        m=int(cfg["train.m"]),
        alpha=None if cfg["train.alpha"] is None else float(cfg["train.alpha"]),
        beta=None if cfg["train.beta"] is None else float(cfg["train.beta"]),
        lr=float(cfg["train.lr"]),
        epochs=int(cfg["train.epochs"]),
        batch_size=int(cfg["train.batch_size"]),
        max_len=int(cfg["model.max_len"]),
        seed=int(cfg["train.seed"]),
        init_mode=str(cfg["train.init_mode"]),
        best_dev_selection=bool(cfg["train.best_dev_selection"]),
        score_mode=str(cfg["train.score_mode"]),
        weight_decay=float(cfg["train.weight_decay"]),
        entity_order=str(cfg["train.entity_order"]),
        entity_markers=bool(cfg["train.entity_markers"]),
        pretrain_steps=int(cfg["train.pretrain_steps"]),
        pretrain_lr=float(cfg["train.pretrain_lr"]),
        model=_model_config(cfg),
    )


def _load_corpus_and_schema(args, cfg: dict):
    """Load the given corpus/schema files, or generate both from config."""
    if args.corpus is not None:
        dataset = load_jsonl(args.corpus)
        if args.schema is not None:
            schema = load_schema(args.schema)
        else:
            raise CliError("--schema is required when --corpus is given")
    else:
        spec = _corpus_spec(cfg)
        dataset = generate_corpus(spec, int(cfg["corpus.seed"]))
        schema = synthetic_schema(spec, dataset, int(cfg["train.m"]))
    return dataset, schema


def _splits(dataset, cfg: dict):
    return make_splits(dataset, float(cfg["data.dev_fraction"]),
                       float(cfg["data.test_fraction"]), int(cfg["data.split_seed"]))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: dict, out: Path):
    write_json(cfg, out / "resolved_config.json")


def _log(out: Path, lines: list[str]):
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        for line in lines:
            fh.write(f"{stamp} {line}\n")


def _artifacts_from_checkpoint(path: str) -> tuple[TrainedArtifacts, dict]:
    ckpt = load_checkpoint(path)
    if ckpt.vocab_payload is None:
        raise CliError(f"checkpoint {path} carries no vocabulary")
    vocab, verbalizer = vocab_from_payload(ckpt.vocab_payload)
    head = ViewPosteriorHead(ckpt.model.config.d)
    if ckpt.head_w is not None:
        head.w.data = ckpt.head_w.copy()
    return TrainedArtifacts(ckpt.model, head, vocab, verbalizer), ckpt.extra


# -- commands -------------------------------------------------------------------


def cmd_generate_corpus(args, cfg: dict) -> int:
    spec = _corpus_spec(cfg)
    spec.validate()
    dataset = generate_corpus(spec, int(cfg["corpus.seed"]))
    schema = synthetic_schema(spec, dataset, int(cfg["train.m"]))
    out = _out_dir(args)
    _echo_config(cfg, out)
    save_jsonl(dataset, out / "corpus.jsonl")
    save_schema(schema, out / "schema.json")
    print(f"wrote {len(dataset)} instances, {len(dataset.relations)} relations -> {out}")
    return 0


def cmd_pretrain(args, cfg: dict) -> int:
    dataset, schema = _load_corpus_and_schema(args, cfg)
    t0 = time.perf_counter()
    vocab, verbalizer = build_vocab(dataset, schema)
    mc = _model_config(cfg, vocab_size=len(vocab))
    model = MlmModel(mc, seed=int(cfg["pretrain.seed"]))
    pt = PretrainConfig(
        steps=int(cfg["pretrain.steps"]),
        batch_size=int(cfg["pretrain.batch_size"]),
        lr=float(cfg["pretrain.lr"]),
        mask_rate=float(cfg["pretrain.mask_rate"]),
        holdout_fraction=float(cfg["pretrain.holdout_fraction"]),
        seed=int(cfg["pretrain.seed"]),
    )
    result = pretrain_mlm(model, dataset, vocab, pt)
    out = _out_dir(args)
    _echo_config(cfg, out)
    save_checkpoint(out / "pretrained.ckpt", model,
                    vocab_payload=vocab_payload(vocab, verbalizer),
                    extra={"schema": {"relations": list(schema.relations),
                                      "m": schema.m, "na_label": schema.na_label}})
    write_json({
        "config": cfg,
        "holdout_accuracy": result.holdout_accuracy,
        "n_holdout_predictions": result.n_holdout_predictions,
        "final_loss": result.step_losses[-1] if result.step_losses else None,
    }, out / "pretrain.json")
    _log(out, [f"pretrain finished in {time.perf_counter() - t0:.1f}s "
               f"holdout_accuracy={result.holdout_accuracy:.4f}"])
    print(f"held-out masked-token accuracy: {result.holdout_accuracy:.4f}")
    return 0


def cmd_train(args, cfg: dict) -> int:
    dataset, schema = _load_corpus_and_schema(args, cfg)
    tc = _train_config(cfg)
    schema = schema.with_m(tc.m)
    splits = _splits(dataset, cfg)
    episode = sample_kshot(splits, int(cfg["data.k"]), tc.seed)
    pretrained = None
    if args.checkpoint is not None:
        pretrained, _ = _artifacts_from_checkpoint(args.checkpoint)
    artifacts, result = train(episode, schema, tc, pretrained=pretrained)
    out = _out_dir(args)
    _echo_config(cfg, out)
    save_checkpoint(out / "model.ckpt", artifacts.model,
                    head_w=artifacts.head.w.data,
                    vocab_payload=vocab_payload(artifacts.vocab, artifacts.verbalizer),
                    extra={"schema": {"relations": list(schema.relations),
                                      "m": schema.m, "na_label": schema.na_label}})
    write_json(result.payload(), out / "result.json")
    _log(out, [f"train finished in {result.wall_time:.1f}s micro_f1={result.micro_f1:.4f}"])
    print(f"micro_f1: {result.micro_f1:.4f}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    if args.checkpoint is None:
        raise CliError("eval requires --checkpoint")
    if args.dataset is None:
        raise CliError("eval requires --dataset")
    artifacts, extra = _artifacts_from_checkpoint(args.checkpoint)
    dataset = load_jsonl(args.dataset, na_label=extra.get("schema", {}).get("na_label"))
    tc = replace(_train_config(cfg), m=artifacts.verbalizer.m,
                 max_len=artifacts.model.config.max_len)
    if not dataset.instances:
        raise CliError(f"dataset {args.dataset} holds no instances")
    na = extra.get("schema", {}).get("na_label")
    f1 = evaluate(artifacts, dataset, tc, na, include_na=bool(cfg["eval.include_na"]))
    out = _out_dir(args)
    _echo_config(cfg, out)
    write_json({"config": cfg, "micro_f1": f1, "n_instances": len(dataset),
                "dataset": str(args.dataset)}, out / "eval.json")
    print(f"micro_f1: {f1:.4f}")
    return 0


def cmd_sweep_m(args, cfg: dict) -> int:
    if not cfg["sweep.m_values"]:
        raise CliError("sweep.m_values is empty: give at least one mask count")
    dataset, schema = _load_corpus_and_schema(args, cfg)
    splits = _splits(dataset, cfg)
    tc = _train_config(cfg)
    t0 = time.perf_counter()
    rows = sweep_m(splits, schema, int(cfg["sweep.k"]),
                   [int(s) for s in cfg["sweep.seeds"]],
                   [int(m) for m in cfg["sweep.m_values"]], tc)
    out = _out_dir(args)
    _echo_config(cfg, out)
    (out / "sweep.csv").write_text(grid_rows_csv(rows), encoding="utf-8")
    write_json({"config": cfg,
                "rows": [{"m": r.m, "k": r.k, "mean_f1": r.mean_f1,
                          "std_f1": r.std_f1, "f1s": r.f1s, "seeds": r.seeds}
                         for r in rows]}, out / "sweep.json")
    _log(out, [f"sweep finished in {time.perf_counter() - t0:.1f}s"])
    for r in rows:
        print(f"m={r.m} mean_f1={r.mean_f1:.4f} std={r.std_f1:.4f}")
    return 0


def cmd_sim_protocol(args, cfg: dict) -> int:
    dataset, schema = _load_corpus_and_schema(args, cfg)
    splits = _splits(dataset, cfg)
    tc = _train_config(cfg)
    t0 = time.perf_counter()
    report = run_similarity_protocol(splits, schema, int(cfg["protocol.k"]),
                                     int(cfg["protocol.m"]),
                                     [int(s) for s in cfg["protocol.seeds"]], tc)
    out = _out_dir(args)
    _echo_config(cfg, out)
    write_json({"config": cfg, **report}, out / "protocol.json")
    _log(out, [f"protocol finished in {time.perf_counter() - t0:.1f}s"])
    print(f"ratio_multi_mask={report['ratio_multi_mask']:.4f} "
          f"ratio_single_mask={report['ratio_single_mask']:.4f}")
    return 0


def cmd_probe_init(args, cfg: dict) -> int:
    if args.checkpoint is not None:
        artifacts, extra = _artifacts_from_checkpoint(args.checkpoint)
        model, vocab, verbalizer = artifacts.model, artifacts.vocab, artifacts.verbalizer
        if args.schema is not None:
            schema = load_schema(args.schema).with_m(verbalizer.m)
        else:
            raise CliError("probe-init with --checkpoint also needs --schema")
    else:
        dataset, schema = _load_corpus_and_schema(args, cfg)
        schema = schema.with_m(int(cfg["train.m"]))
        vocab, verbalizer = build_vocab(dataset, schema)
        mc = _model_config(cfg, vocab_size=len(vocab))
        model = MlmModel(mc, seed=int(cfg["pretrain.seed"]))
        if int(cfg["pretrain.steps"]) > 0:
            pt = PretrainConfig(steps=int(cfg["pretrain.steps"]),
                                lr=float(cfg["pretrain.lr"]),
                                seed=int(cfg["pretrain.seed"]))
            pretrain_mlm(model, dataset, vocab, pt)
    _, report = dynamic_init(schema, vocab, verbalizer, model)
    out = _out_dir(args)
    _echo_config(cfg, out)
    save_probe_report(report, out / "probe_report.json")
    for rec in report:
        print(f"{rec.relation} view {rec.view}: {rec.token} ({rec.probability:.4f})")
    return 0


def cmd_analyze_views(args, cfg: dict) -> int:
    if args.checkpoint is None:
        raise CliError("analyze-views requires --checkpoint")
    artifacts, _ = _artifacts_from_checkpoint(args.checkpoint)
    if args.aspects is not None:
        with open(args.aspects, encoding="utf-8") as fh:
            aspect_sets = json.load(fh)
    else:
        # derive aspect sets from the corpus pools, keeping observed words only
        spec = _corpus_spec(cfg)
        groups = corpus_aspect_groups(spec)
        aspect_sets: dict[str, list[str]] = {}
        for gi in range(spec.aspects_per_relation):
            words: list[str] = []
            for rel_groups in groups.values():
                words.extend(w for w in rel_groups[gi] if artifacts.vocab.contains(w))
            if words:
                aspect_sets[f"aspect{gi}"] = words
    matrix, row_labels, col_labels = view_aspect_heatmap(
        artifacts.model, artifacts.vocab, artifacts.verbalizer, aspect_sets,
        top_k=int(cfg["analysis.top_k"]))
    out = _out_dir(args)
    _echo_config(cfg, out)
    (out / "heatmap.csv").write_text(heatmap_csv(matrix, row_labels, col_labels),
                                     encoding="utf-8")
    write_json({"config": cfg, "rows": row_labels, "columns": col_labels,
                "matrix": [[float(x) for x in row] for row in matrix]},
               out / "heatmap.json")
    print(f"heatmap {matrix.shape[0]}x{matrix.shape[1]} -> {out / 'heatmap.csv'}")
    return 0


_COMMANDS = {
    "generate-corpus": cmd_generate_corpus,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep-m": cmd_sweep_m,
    "sim-protocol": cmd_sim_protocol,
    "probe-init": cmd_probe_init,
    "analyze-views": cmd_analyze_views,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvre",
        description="Multi-view prompt-tuning for low-resource relation extraction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        p.add_argument("--corpus", default=None, help="JSONL corpus file")
        p.add_argument("--schema", default=None, help="schema JSON file")
        p.add_argument("--checkpoint", default=None, help="model checkpoint file")
        p.add_argument("--dataset", default=None, help="JSONL dataset to evaluate")
        p.add_argument("--aspects", default=None,
                       help="JSON file mapping aspect names to word lists")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.overrides, args.seed, args.command)
        return _COMMANDS[args.command](args, cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MvreError, FileNotFoundError, ValueError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
