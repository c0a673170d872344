"""Command-line entry point wiring corpora, training, and analyses together.

Configuration is a flat JSON object whose keys are dotted paths
(``train.lr``, ``corpus.n_relations``, ...). A ``corpus.*``, ``model.*``,
``pretrain.*`` or ``train.*`` key names a field of ``CorpusSpec``,
``ModelConfig``, ``PretrainConfig`` or ``TrainConfig`` and takes that field's
default and type; only the keys no field backs are written out in ``DEFAULTS``.
Resolution order: defaults, then the ``--config`` file, then repeated
``--set key=value`` overrides, then ``--seed``. Unknown keys are rejected,
and every value is type-checked and all four config objects are built and
validated before any command runs. A run from a checkpoint keeps its
model, m and relation order (``_from_checkpoint``). Exit codes: 0 on success,
1 on a runtime failure (including non-finite parameters), 2 on a usage or
configuration error. Every run echoes its fully resolved configuration next
to its outputs, and wall-clock data goes to a separate log file so the
artifact files stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .data import (CorpusSpec, check_split_fractions, corpus_aspect_groups, generate_corpus,
                   integral, load_jsonl, make_splits, sample_kshot, save_jsonl)
from .errors import MvreError, ValidationError
from .experiments import (TrainConfig, evaluate, grid_rows_csv, heatmap_csv,
                          pretrain_bundle, run_similarity_protocol, sweep_m, train,
                          view_aspect_heatmap, write_json, TrainedArtifacts)
from .init_schemes import DYNAMIC, apply_init, save_probe_report
from .losses import ViewPosteriorHead
from .model import ModelConfig, PretrainConfig, load_checkpoint, save_checkpoint
from .schema import load_schema, save_schema, synthetic_schema
from .vocab import vocab_from_payload, vocab_payload

# section -> (config class, the fields the command line does not expose)
_SECTIONS = {
    "corpus": (CorpusSpec, ("sentence_length_range",)),  # from sentence_length_min/max
    "model": (ModelConfig, ("vocab_size", "dtype", "dropout", "init_scale")),
    "pretrain": (PretrainConfig, ("log_every",)),
    "train": (TrainConfig, ("max_len", "model")),  # both taken from the model section
}


def _field_keys(section: str) -> dict[str, object]:
    cls, hidden = _SECTIONS[section]
    return {f"{section}.{f.name}": f.default for f in fields(cls) if f.name not in hidden}


DEFAULTS: dict[str, object] = {
    **_field_keys("corpus"),
    "corpus.sentence_length_min": CorpusSpec.sentence_length_range[0],
    "corpus.sentence_length_max": CorpusSpec.sentence_length_range[1],
    "corpus.seed": 1,
    "data.dev_fraction": 0.2,
    "data.test_fraction": 0.2,
    "data.k": 1,
    **_field_keys("model"),
    **_field_keys("pretrain"),
    **_field_keys("train"),
    "sweep.k": 1,
    "sweep.seeds": [1, 2, 3, 4, 5],
    "sweep.m_values": [1, 2, 3, 4, 5],
    "protocol.k": 4,
    "protocol.m": 4,
    "protocol.seeds": [1, 2, 3],
}

# Lower bounds of the integer keys no config class validates (of each entry of a list).
_MINIMUM = {"corpus.seed": 0, "data.k": 1, "sweep.k": 1, "sweep.seeds": 0,
            "sweep.m_values": 1, "protocol.k": 1, "protocol.m": 1, "protocol.seeds": 0}

class CliError(Exception):
    """Configuration/usage problem; maps to exit code 2."""


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _integers(value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{value!r} is not a non-empty list")
    return [integral(x) for x in value]


def _get(cfg: dict, key: str):
    """``cfg[key]`` converted to the type of its default (a field's type for a
    field's key); a ``CliError`` naming the key when it cannot be."""
    default, value = DEFAULTS[key], cfg[key]
    if isinstance(default, str):
        return str(value)
    if default is None and value is None:
        return None
    if isinstance(default, list):
        convert, kind = _integers, "a non-empty list of integers"
    elif isinstance(default, int):
        convert, kind = integral, "an integer"
    else:
        convert, kind = float, "a number"
    if isinstance(value, bool):  # float(True) is 1.0; integral() rejects it in a list
        raise CliError(f"config key {key!r} needs {kind}, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"config key {key!r} needs {kind}, got {value!r}") from None


def build_configs(cfg: dict) -> dict:
    """The ``corpus``, ``model``, ``pretrain`` and ``train`` config objects of a
    resolved configuration. The model's ``vocab_size`` stays 0: the commands
    set it once they hold a vocabulary."""
    def build(section: str, **fixed):
        cls, hidden = _SECTIONS[section]
        return cls(**{f.name: _get(cfg, f"{section}.{f.name}")
                      for f in fields(cls) if f.name not in hidden}, **fixed)

    model = build("model")
    lengths = (_get(cfg, "corpus.sentence_length_min"), _get(cfg, "corpus.sentence_length_max"))
    return {"corpus": build("corpus", sentence_length_range=lengths), "model": model,
            "pretrain": build("pretrain"),
            "train": build("train", max_len=model.max_len, model=model)}


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
        key = _COMMANDS[command][1]
        cfg[key] = [seed] if isinstance(DEFAULTS[key], list) else seed
    for key in cfg:
        value, low = _get(cfg, key), _MINIMUM.get(key)
        if low is not None and min(value if isinstance(value, list) else [value]) < low:
            raise CliError(f"config key {key!r} must be >= {low}, got {cfg[key]!r}")
        if isinstance(value, list) and len(set(value)) < len(value):  # a run counted twice
            repeated = next(x for i, x in enumerate(value) if x in value[:i])
            raise CliError(f"config key {key!r} repeats {repeated}, got {cfg[key]!r}")
    k, m = _get(cfg, "protocol.k"), _get(cfg, "protocol.m")
    if k % m:
        raise CliError(f"config key 'protocol.k' ({k}) must be divisible by 'protocol.m' ({m})")
    try:
        check_split_fractions(_get(cfg, "data.dev_fraction"), _get(cfg, "data.test_fraction"))
        configs = build_configs(cfg)
        replace(configs.pop("model"), vocab_size=1).validate()  # the vocabulary comes later
        for config in configs.values():
            config.validate()
    except (ValidationError, ValueError) as e:
        raise CliError(str(e)) from None
    return cfg


def _load_corpus_and_schema(args, cfg: dict):
    """Load the given corpus/schema files, or generate both from config; the
    schema has ``train.m`` views either way. Every corpus label must be one of
    the schema's relations."""
    if args.corpus is None:
        return _synthetic_corpus(cfg)
    if args.schema is None:
        raise CliError("--schema is required when --corpus is given")
    dataset, schema = load_jsonl(args.corpus), load_schema(args.schema)
    missing = [label for label in dataset.relations if label not in schema.relations]
    if missing:
        raise CliError(f"corpus {args.corpus} has labels that schema {args.schema} "
                       f"lacks: {missing}")
    return dataset, schema.with_m(_get(cfg, "train.m"))


def _synthetic_corpus(cfg: dict):
    spec = build_configs(cfg)["corpus"]
    dataset = generate_corpus(spec, _get(cfg, "corpus.seed"))
    return dataset, synthetic_schema(spec, dataset, _get(cfg, "train.m"))


def _splits(dataset, cfg: dict):
    """The corpus's splits; an empty test split is a configuration error (it
    would score a silent 0)."""
    splits = make_splits(dataset, _get(cfg, "data.dev_fraction"), _get(cfg, "data.test_fraction"))
    if not splits.test.instances:
        raise CliError(f"the test split is empty (data.test_fraction="
                       f"{_get(cfg, 'data.test_fraction')}): nothing to evaluate on")
    return splits


def _out_dir(args, cfg: dict) -> Path:
    """The output directory, created, with the resolved configuration echoed into it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(cfg, out / "resolved_config.json")
    return out


def _log(out: Path, lines: list[str]):
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        for line in lines:
            fh.write(f"{stamp} {line}\n")


def _save_checkpoint(path: Path, artifacts: TrainedArtifacts, schema, head_w=None):
    """A checkpoint that carries the vocabulary (the relations and m with it)
    and the schema's NA label."""
    save_checkpoint(path, artifacts.model, head_w=head_w,
                    vocab_payload=vocab_payload(artifacts.vocab, artifacts.verbalizer),
                    extra={"schema": {"na_label": schema.na_label}})


def _from_checkpoint(path: str, cfg: dict, training: bool = False, schema=None,
                     schema_file=None,
                     pretrain_keys=()) -> tuple[TrainedArtifacts, TrainConfig, dict]:
    """The bundle of checkpoint ``path``, the run's train config with the
    checkpoint's model, m and ``max_len``, and the header's ``extra``. A run
    keeps the checkpoint's model, m and relation order: a ``model.*`` key or
    ``train.m`` set away from its default to another value, or a ``schema``
    with other relations or another order, is a configuration error. A
    training run also needs the checkpoint's m, even at the default
    ``train.m``. The run pretrains nothing, so a ``pretrain_keys`` key away
    from its default is an error too."""
    ckpt = load_checkpoint(path)
    if ckpt.vocab_payload is None:
        raise CliError(f"checkpoint {path} carries no vocabulary")
    vocab, verbalizer = vocab_from_payload(ckpt.vocab_payload)
    model_config = ckpt.model.config
    held = {key: getattr(model_config, key.split(".", 1)[1]) for key in _field_keys("model")}
    held["train.m"] = verbalizer.m
    for key, used in held.items():
        given = _get(cfg, key)
        if given != used and (given != DEFAULTS[key] or (training and key == "train.m")):
            raise CliError(f"config key {key!r} is {given!r}, but the run uses {used!r} "
                           f"from checkpoint {path}")
    for key in pretrain_keys:
        if _get(cfg, key) != DEFAULTS[key]:
            raise CliError(f"config key {key!r} is {_get(cfg, key)!r}, but the run from "
                           f"checkpoint {path} does not pretrain")
    if schema is not None and schema.relations != verbalizer.relation_order:
        raise CliError(f"schema.relations {list(schema.relations)} of "
                       f"{schema_file or 'the generated corpus'} differ from "
                       f"verbalizer.relation_order {list(verbalizer.relation_order)} "
                       f"of checkpoint {path}")
    head = ViewPosteriorHead(model_config.d)
    if ckpt.head_w is not None:
        head.w.data[...] = ckpt.head_w
    config = replace(build_configs(cfg)["train"], m=verbalizer.m, max_len=model_config.max_len,
                     model=model_config)
    return TrainedArtifacts(ckpt.model, head, vocab, verbalizer), config, ckpt.extra


# -- commands -------------------------------------------------------------------


def cmd_generate_corpus(args, cfg: dict) -> int:
    dataset, schema = _synthetic_corpus(cfg)
    out = _out_dir(args, cfg)
    save_jsonl(dataset, out / "corpus.jsonl")
    save_schema(schema, out / "schema.json")
    print(f"wrote {len(dataset)} instances, {len(dataset.relations)} relations -> {out}")
    return 0


def cmd_pretrain(args, cfg: dict) -> int:
    configs = build_configs(cfg)
    if configs["pretrain"].steps < 1:
        raise CliError(f"pretrain steps must be >= 1 to write a pretrained checkpoint, "
                       f"got {configs['pretrain'].steps}")
    dataset, schema = _load_corpus_and_schema(args, cfg)
    t0 = time.perf_counter()
    bundle, result = pretrain_bundle(dataset, schema, configs["model"], configs["pretrain"])
    out = _out_dir(args, cfg)
    _save_checkpoint(out / "pretrained.ckpt", bundle, schema)
    write_json({
        "holdout_accuracy": result.holdout_accuracy,
        "n_holdout_predictions": result.n_holdout_predictions,
        "final_loss": result.step_losses[-1],
    }, out / "pretrain.json")
    _log(out, [f"pretrain finished in {time.perf_counter() - t0:.1f}s "
               f"holdout_accuracy={result.holdout_accuracy:.4f}"])
    print(f"held-out masked-token accuracy: {result.holdout_accuracy:.4f}")
    return 0


def cmd_train(args, cfg: dict) -> int:
    dataset, schema = _load_corpus_and_schema(args, cfg)
    tc, pretrained = build_configs(cfg)["train"], None
    if args.checkpoint is not None:
        pretrained, tc, _ = _from_checkpoint(
            args.checkpoint, cfg, training=True, schema=schema, schema_file=args.schema,
            pretrain_keys=("train.pretrain_steps",))
    episode = sample_kshot(_splits(dataset, cfg), _get(cfg, "data.k"), tc.seed)
    artifacts, result = train(episode, schema, tc, pretrained=pretrained)
    out = _out_dir(args, cfg)
    _save_checkpoint(out / "model.ckpt", artifacts, schema, head_w=artifacts.head.w.data)
    write_json(result.payload(), out / "result.json")
    _log(out, [f"train finished in {result.wall_time:.1f}s micro_f1={result.micro_f1:.4f}"])
    print(f"micro_f1: {result.micro_f1:.4f}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    artifacts, tc, extra = _from_checkpoint(args.checkpoint, cfg)
    schema = extra.get("schema", {})
    if not (isinstance(schema, dict) and isinstance(schema.get("na_label"), str | None)):
        raise ValueError(f"{args.checkpoint}: header field 'extra.schema' must be an object "
                         f"whose 'na_label' is a string or null, got {schema!r}")
    na = schema.get("na_label")
    dataset = load_jsonl(args.dataset, na_label=na)
    if not dataset.instances:
        raise CliError(f"dataset {args.dataset} holds no instances")
    missing = [label for label in dataset.relations
               if label not in artifacts.verbalizer.relation_order]
    if missing:
        raise CliError(f"dataset {args.dataset} has labels that checkpoint {args.checkpoint} "
                       f"cannot predict: {missing}")
    f1 = evaluate(artifacts, dataset, tc, na)
    out = _out_dir(args, cfg)
    write_json({"micro_f1": f1, "n_instances": len(dataset),
                "dataset": str(args.dataset)}, out / "eval.json")
    print(f"micro_f1: {f1:.4f}")
    return 0


def cmd_sweep_m(args, cfg: dict) -> int:
    dataset, schema = _load_corpus_and_schema(args, cfg)
    splits = _splits(dataset, cfg)
    t0 = time.perf_counter()
    rows = sweep_m(splits, schema, _get(cfg, "sweep.k"), _get(cfg, "sweep.seeds"),
                   _get(cfg, "sweep.m_values"), build_configs(cfg)["train"])
    out = _out_dir(args, cfg)
    (out / "sweep.csv").write_text(grid_rows_csv(rows), encoding="utf-8")
    write_json({"rows": [{"m": r.m, "k": r.k, "mean_f1": r.mean_f1,
                          "std_f1": r.std_f1, "f1s": r.f1s, "seeds": r.seeds}
                         for r in rows]}, out / "sweep.json")
    _log(out, [f"sweep finished in {time.perf_counter() - t0:.1f}s"])
    for r in rows:
        print(f"m={r.m} mean_f1={r.mean_f1:.4f} std={r.std_f1:.4f}")
    return 0


def cmd_sim_protocol(args, cfg: dict) -> int:
    dataset, schema = _load_corpus_and_schema(args, cfg)
    splits = _splits(dataset, cfg)
    t0 = time.perf_counter()
    report = run_similarity_protocol(splits, schema, _get(cfg, "protocol.k"),
                                     _get(cfg, "protocol.m"), _get(cfg, "protocol.seeds"),
                                     build_configs(cfg)["train"])
    out = _out_dir(args, cfg)
    write_json(report, out / "protocol.json")
    _log(out, [f"protocol finished in {time.perf_counter() - t0:.1f}s"])
    print(f"ratio_multi_mask={report['ratio_multi_mask']:.4f} "
          f"ratio_single_mask={report['ratio_single_mask']:.4f}")
    return 0


def cmd_probe_init(args, cfg: dict) -> int:
    if args.checkpoint is not None:
        if args.schema is None:
            raise CliError("probe-init with --checkpoint also needs --schema")
        schema = load_schema(args.schema)
        artifacts, tc, _ = _from_checkpoint(args.checkpoint, cfg, schema=schema,
                                            schema_file=args.schema,
                                            pretrain_keys=_field_keys("pretrain"))
        schema = schema.with_m(tc.m)
    else:
        dataset, schema = _load_corpus_and_schema(args, cfg)
        configs = build_configs(cfg)
        artifacts, _ = pretrain_bundle(dataset, schema, configs["model"], configs["pretrain"])
    _, report = apply_init(DYNAMIC, schema, artifacts.vocab, artifacts.verbalizer,
                           artifacts.model)
    out = _out_dir(args, cfg)
    save_probe_report(report, out / "probe_report.json")
    for rec in report:
        print(f"{rec.relation} view {rec.view}: {rec.token} ({rec.probability:.4f})")
    return 0


def _load_aspects(path: str) -> dict[str, list[str]]:
    """An ``--aspects`` file: a JSON object mapping each aspect name to a
    non-empty list of words; anything else raises ``ValueError`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            aspects = json.load(fh)
    except ValueError as e:  # JSON and UTF-8 decoding errors
        raise ValueError(f"{path}: {e}") from None
    if not (isinstance(aspects, dict) and all(
            isinstance(words, list) and words and all(isinstance(w, str) for w in words)
            for words in aspects.values())):
        raise ValueError(f"{path}: an aspect file must map each aspect name to a non-empty "
                         f"list of words")
    return aspects


def cmd_analyze_views(args, cfg: dict) -> int:
    artifacts, _, _ = _from_checkpoint(args.checkpoint, cfg)
    if args.aspects is not None:
        aspect_sets = _load_aspects(args.aspects)
    else:
        # derive aspect sets from the corpus pools, keeping observed words only
        spec = build_configs(cfg)["corpus"]
        groups = corpus_aspect_groups(spec)
        aspect_sets: dict[str, list[str]] = {}
        for gi in range(spec.aspects_per_relation):
            words: list[str] = []
            for rel_groups in groups.values():
                words.extend(w for w in rel_groups[gi] if artifacts.vocab.contains(w))
            if words:
                aspect_sets[f"aspect{gi}"] = words
    matrix, row_labels, col_labels = view_aspect_heatmap(
        artifacts.model, artifacts.vocab, artifacts.verbalizer, aspect_sets)
    out = _out_dir(args, cfg)
    (out / "heatmap.csv").write_text(heatmap_csv(matrix, row_labels, col_labels),
                                     encoding="utf-8")
    write_json({"rows": row_labels, "columns": col_labels,
                "matrix": [[float(x) for x in row] for row in matrix]},
               out / "heatmap.json")
    print(f"heatmap {matrix.shape[0]}x{matrix.shape[1]} -> {out / 'heatmap.csv'}")
    return 0


_FLAG_HELP = {
    "corpus": "JSONL corpus file",
    "schema": "schema JSON file",
    "checkpoint": "model checkpoint file",
    "dataset": "JSONL dataset to evaluate",
    "aspects": "JSON file mapping aspect names to word lists",
}
_CORPUS_FLAGS = ("corpus", "schema")

# name -> (handler, the config key --seed sets or None for a command that reads
# no seed, the file flags the command takes; a trailing "!" marks a required
# one). Any other flag is a usage error.
_COMMANDS = {
    "generate-corpus": (cmd_generate_corpus, "corpus.seed", ()),
    "pretrain": (cmd_pretrain, "pretrain.seed", _CORPUS_FLAGS),
    "train": (cmd_train, "train.seed", (*_CORPUS_FLAGS, "checkpoint")),
    "eval": (cmd_eval, None, ("checkpoint!", "dataset!")),
    "sweep-m": (cmd_sweep_m, "sweep.seeds", _CORPUS_FLAGS),
    "sim-protocol": (cmd_sim_protocol, "protocol.seeds", _CORPUS_FLAGS),
    "probe-init": (cmd_probe_init, "pretrain.seed", (*_CORPUS_FLAGS, "checkpoint")),
    "analyze-views": (cmd_analyze_views, None, ("checkpoint!", "aspects")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvre",
        description="Multi-view prompt-tuning for low-resource relation extraction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, seed_key, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        if seed_key is not None:
            p.add_argument("--seed", type=int, default=None, help=f"sets {seed_key}")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        for flag in flags:
            dest = flag.rstrip("!")
            p.add_argument(f"--{dest}", required=flag.endswith("!"), default=None,
                           help=_FLAG_HELP[dest])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.overrides, getattr(args, "seed", None),
                             args.command)
        return _COMMANDS[args.command][0](args, cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MvreError, FileNotFoundError, ValueError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
