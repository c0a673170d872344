"""Relation-extraction datasets: synthetic corpora, JSONL I/O, k-shot episodes.

A k-shot episode is a ``DatasetSplits`` whose train split holds k instances
per relation (``sample_kshot``).

The synthetic generator produces sentences whose only label signal lives in
per-relation "aspect" word pools (e.g. a time-ish group, a place-ish group).
Every instance of a relation contains at least one word from each of that
relation's aspect groups, so a multi-view learner has several independent
cues to latch onto, while entities and filler words are shared across
relations and carry no signal.

Span indices are inclusive on both ends, matching the common JSONL record
convention (``subj_start``/``subj_end`` etc.), so externally prepared files
drop in unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import LoadError, SamplingError, ValidationError

NA_DEFAULT = "no_relation"

# the prefix of every virtual word (``vocab.virtual_word``); no corpus word may carry it
VIRTUAL_PREFIX = "[V:"

_FILLER_ZIPF_EXPONENT = 1.8
_ENTITY_ZIPF_EXPONENT = 1.5
_ASPECT_ZIPF_EXPONENT = 1.5
_WORDS_PER_ASPECT_GROUP = 4
_ENTITY_POOL_SIZE = 32


@dataclass(frozen=True)
class RelationInstance:
    """One labeled example: tokens plus inclusive subject/object spans."""

    tokens: tuple[str, ...]
    subj_span: tuple[int, int]
    obj_span: tuple[int, int]
    label: str

    def validate(self):
        n = len(self.tokens)
        for name, (s, e) in (("subj_span", self.subj_span), ("obj_span", self.obj_span)):
            if not (0 <= s <= e < n):
                raise ValidationError(f"{name} ({s},{e}) out of range for {n} tokens")
        s1, e1 = self.subj_span
        s2, e2 = self.obj_span
        if max(s1, s2) <= min(e1, e2):
            raise ValidationError(f"subj_span {self.subj_span} overlaps obj_span {self.obj_span}")

    @property
    def subj_tokens(self) -> tuple[str, ...]:
        s, e = self.subj_span
        return self.tokens[s : e + 1]

    @property
    def obj_tokens(self) -> tuple[str, ...]:
        s, e = self.obj_span
        return self.tokens[s : e + 1]


@dataclass(frozen=True)
class Dataset:
    """A list of instances plus the ordered relation set they draw labels from."""

    instances: tuple[RelationInstance, ...]
    relations: tuple[str, ...]
    na_label: str | None = None

    def validate(self):
        if len(set(self.relations)) != len(self.relations):
            raise ValidationError("relations contains duplicates")
        known = set(self.relations)
        for i, inst in enumerate(self.instances):
            inst.validate()
            if inst.label not in known:
                raise ValidationError(f"instance {i} label {inst.label!r} not in relation set")

    def by_relation(self) -> dict[str, list[RelationInstance]]:
        grouped: dict[str, list[RelationInstance]] = {r: [] for r in self.relations}
        for inst in self.instances:
            grouped[inst.label].append(inst)
        return grouped

    def word_types(self) -> list[str]:
        seen = set()
        for inst in self.instances:
            seen.update(inst.tokens)
        return sorted(seen)

    def __len__(self):
        return len(self.instances)


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for the synthetic corpus generator."""

    n_relations: int = 8
    instances_per_relation: int = 50
    aspects_per_relation: int = 4
    vocab_pool_size: int = 200
    sentence_length_range: tuple[int, int] = (9, 14)
    na_fraction: float = 0.0

    def validate(self):
        for fname in ("n_relations", "instances_per_relation", "aspects_per_relation", "vocab_pool_size"):
            if getattr(self, fname) <= 0:
                raise ValidationError(f"{fname} must be positive, got {getattr(self, fname)}")
        lo, hi = self.sentence_length_range
        if lo < 6:
            raise ValidationError(f"sentence_length_range min must be >= 6, got {lo}")
        if hi < lo:
            raise ValidationError(f"sentence_length_range max {hi} below min {lo}")
        if not (0.0 <= self.na_fraction < 1.0):
            raise ValidationError(f"na_fraction must be in [0, 1), got {self.na_fraction}")


@dataclass(frozen=True)
class DatasetSplits:
    """Train/dev/test partition of one corpus, or a k-shot episode of one."""

    train: Dataset
    dev: Dataset
    test: Dataset


def corpus_aspect_groups(spec: CorpusSpec) -> dict[str, list[list[str]]]:
    """The per-relation aspect word pools a corpus with this spec draws from.

    Deterministic companion of :func:`generate_corpus`; useful for building
    schemas and for relevance analyses over the same pools.
    """
    spec.validate()
    groups: dict[str, list[list[str]]] = {}
    for ri in range(spec.n_relations):
        rel = f"rel{ri}"
        groups[rel] = [
            [f"r{ri}a{gi}w{wi}" for wi in range(_WORDS_PER_ASPECT_GROUP)]
            for gi in range(spec.aspects_per_relation)
        ]
    return groups


def _zipf(n: int, exponent: float) -> np.ndarray:
    """Rank-frequency probabilities ``rank ** -exponent`` over ``n`` items."""
    probs = np.arange(1, n + 1, dtype=np.float64) ** (-exponent)
    return probs / probs.sum()


def _cdf(probs: np.ndarray) -> np.ndarray:
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _assemble_sentence(rng: np.random.Generator, length: int, subj: list[str],
                       obj: list[str], aspects: list[str], fillers: list[str],
                       filler_cdf: np.ndarray, label: str) -> RelationInstance:
    """Lay out one sentence: filler context around a subj-aspects-obj core.

    The relational phrase (one word per aspect group, in group order) sits
    between the two entity runs, mimicking how real sentences carry the
    relation between its arguments; filler split and entity order vary.
    """
    core = len(subj) + len(obj) + len(aspects)
    length = max(length, core)
    n_fill = length - core
    fill_ids = filler_cdf.searchsorted(rng.random(n_fill), side="right")
    n_front = int(rng.integers(0, n_fill + 1))
    front = [fillers[i] for i in fill_ids[:n_front]]
    back = [fillers[i] for i in fill_ids[n_front:]]
    first, second = (subj, obj) if rng.random() < 0.5 else (obj, subj)
    tokens = front + first + aspects + second + back
    first_span = (len(front), len(front) + len(first) - 1)
    second_start = len(front) + len(first) + len(aspects)
    second_span = (second_start, second_start + len(second) - 1)
    if first is subj:
        subj_span, obj_span = first_span, second_span
    else:
        subj_span, obj_span = second_span, first_span
    return RelationInstance(tuple(tokens), subj_span, obj_span, label)


def generate_corpus(spec: CorpusSpec, seed: int) -> Dataset:
    """Build a synthetic aspect-structured corpus, byte-identical per (spec, seed).

    Non-NA instances embed one word from each of their relation's aspect
    groups; NA instances (when ``na_fraction`` > 0) contain entities and
    fillers only.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    groups = corpus_aspect_groups(spec)
    fillers = [f"w{i:03d}" for i in range(spec.vocab_pool_size)]
    # entity mentions are long-tailed, like real-corpus name frequencies
    entities = [f"ent{i}" for i in range(_ENTITY_POOL_SIZE)]
    entity_probs = _zipf(_ENTITY_POOL_SIZE, _ENTITY_ZIPF_EXPONENT)
    # The draws below are the ones Generator.choice(..., p=...) makes
    # internally (one rng.random per pick, searched in the normalized CDF),
    # with each CDF built once per corpus: every corpus keeps its bytes.
    filler_cdf = _cdf(_zipf(spec.vocab_pool_size, _FILLER_ZIPF_EXPONENT))
    entity_cdf = _cdf(entity_probs)
    group_cdf = _cdf(_zipf(_WORDS_PER_ASPECT_GROUP, _ASPECT_ZIPF_EXPONENT))
    lo, hi = spec.sentence_length_range

    def draw_entities() -> tuple[list[str], list[str]]:
        n_subj = int(rng.integers(1, 3))
        size = n_subj + int(rng.integers(1, 3))
        # without replacement: redraw the missing picks with the picked
        # entities' probabilities zeroed, keeping first occurrences in order
        picks: list[int] = []
        cdf = entity_cdf
        while len(picks) < size:
            if picks:
                probs = entity_probs.copy()
                probs[picks] = 0.0
                cdf = _cdf(probs)
            for i in cdf.searchsorted(rng.random(size - len(picks)), side="right").tolist():
                if i not in picks:
                    picks.append(i)
        return [entities[i] for i in picks[:n_subj]], [entities[i] for i in picks[n_subj:]]

    instances: list[RelationInstance] = []
    relations = [f"rel{ri}" for ri in range(spec.n_relations)]
    for rel in relations:
        for _ in range(spec.instances_per_relation):
            subj, obj = draw_entities()
            picks = group_cdf.searchsorted(rng.random(len(groups[rel])), side="right")
            aspects = [g[i] for g, i in zip(groups[rel], picks)]
            length = int(rng.integers(lo, hi + 1))
            instances.append(_assemble_sentence(rng, length, subj, obj, aspects,
                                                fillers, filler_cdf, rel))

    na_label = None
    non_na = len(instances)
    if spec.na_fraction > 0.0:
        na_label = NA_DEFAULT
        n_na = int(round(non_na * spec.na_fraction / (1.0 - spec.na_fraction)))
        for _ in range(n_na):
            subj, obj = draw_entities()
            length = int(rng.integers(lo, hi + 1))
            instances.append(_assemble_sentence(rng, length, subj, obj, [],
                                                fillers, filler_cdf, na_label))
        relations = relations + [na_label]

    order = rng.permutation(len(instances))
    dataset = Dataset(tuple(instances[i] for i in order), tuple(relations), na_label)
    dataset.validate()
    return dataset


def check_split_fractions(dev_fraction: float, test_fraction: float):
    """Each held-out fraction must be in [0, 1) (not NaN) and leave room for train."""
    for name, value in (("dev_fraction", dev_fraction), ("test_fraction", test_fraction)):
        if not 0.0 <= value < 1.0:
            raise ValidationError(f"{name} must be in [0, 1), got {value}")
    if dev_fraction + test_fraction >= 1.0:
        raise ValidationError(f"dev_fraction + test_fraction must leave room for train, "
                              f"got {dev_fraction} + {test_fraction}")


def make_splits(dataset: Dataset, dev_fraction: float = 0.2, test_fraction: float = 0.2,
                seed: int = 0) -> DatasetSplits:
    """Stratified train/dev/test partition, deterministic per seed."""
    check_split_fractions(dev_fraction, test_fraction)
    rng = np.random.default_rng(seed)
    buckets: dict[str, list[RelationInstance]] = {"train": [], "dev": [], "test": []}
    for rel, insts in dataset.by_relation().items():
        order = rng.permutation(len(insts))
        n_dev = int(round(len(insts) * dev_fraction))
        n_test = int(round(len(insts) * test_fraction))
        for pos, idx in enumerate(order):
            if pos < n_dev:
                buckets["dev"].append(insts[idx])
            elif pos < n_dev + n_test:
                buckets["test"].append(insts[idx])
            else:
                buckets["train"].append(insts[idx])
    make = lambda key: Dataset(tuple(buckets[key]), dataset.relations, dataset.na_label)
    return DatasetSplits(make("train"), make("dev"), make("test"))


def sample_kshot(source: DatasetSplits, k: int, seed: int) -> DatasetSplits:
    """A k-shot episode: k train instances per relation, without replacement,
    with ``source``'s dev and test splits unchanged.

    Each relation draws from its own generator seeded by (seed, relation
    index), so editing the relation set never perturbs the other relations'
    draws.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not source.train.instances:
        raise SamplingError("source train split is empty")
    grouped = source.train.by_relation()
    chosen: list[RelationInstance] = []
    for ri, rel in enumerate(source.train.relations):
        pool = grouped.get(rel, [])
        if not pool:
            raise SamplingError(f"relation {rel!r} has no instances to sample from")
        rng = np.random.default_rng([seed, ri, 0])  # the 0 keeps the frozen episodes
        idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        chosen.extend(pool[i] for i in sorted(int(j) for j in idx))
    train = Dataset(tuple(chosen), source.train.relations, source.train.na_label)
    return DatasetSplits(train, source.dev, source.test)


# -- JSONL I/O ----------------------------------------------------------------

_REQUIRED_KEYS = ("token", "subj_start", "subj_end", "obj_start", "obj_end", "relation")


def integral(value) -> int:
    """``int(value)`` that refuses to truncate (``int(2.7)`` would be 2) and
    booleans (``int(True)`` would be 1)."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    n = int(value)
    if n != float(value):
        raise ValueError(f"{value!r} is not integral")
    return n


def load_jsonl(path: str | Path, na_label: str | None = None) -> Dataset:
    """Read one record per line; relations collected in first-appearance order."""
    instances: list[RelationInstance] = []
    relations: list[str] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise LoadError(f"not UTF-8 ({e.reason} at byte {e.start})", lineno) from None
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise LoadError(f"malformed JSON ({e.msg})", lineno) from e
            if not isinstance(rec, dict):
                raise LoadError(f"a record must be a JSON object, got {line.strip()[:40]}",
                                lineno)
            for key in _REQUIRED_KEYS:
                if key not in rec:
                    raise LoadError(f"missing key {key!r}", lineno)
            tokens = rec["token"]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise LoadError("'token' must be a list of strings", lineno)
            for t in tokens:
                if t.startswith(VIRTUAL_PREFIX):
                    raise LoadError(f"token {t!r} uses the reserved {VIRTUAL_PREFIX!r} prefix",
                                    lineno)
            bounds = []
            for key in _REQUIRED_KEYS[1:5]:  # subj_start, subj_end, obj_start, obj_end
                try:
                    bounds.append(integral(rec[key]))
                except (TypeError, ValueError, OverflowError):
                    raise LoadError(f"{key!r} must be an integer, got {rec[key]!r}",
                                    lineno) from None
            if not isinstance(rec["relation"], str):
                raise LoadError(f"'relation' must be a string, got {rec['relation']!r}", lineno)
            inst = RelationInstance(tuple(tokens), tuple(bounds[:2]), tuple(bounds[2:]),
                                    rec["relation"])
            try:
                inst.validate()
            except ValidationError as e:
                raise LoadError(str(e), lineno) from e
            instances.append(inst)
            if inst.label not in seen:
                seen.add(inst.label)
                relations.append(inst.label)
    if na_label is not None and na_label not in seen and instances:
        relations.append(na_label)
    dataset = Dataset(tuple(instances), tuple(relations), na_label)
    dataset.validate()
    return dataset


def save_jsonl(dataset: Dataset, path: str | Path):
    """Write newline-terminated UTF-8 records, keys in the canonical order."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in dataset.instances:
            rec = {
                "token": list(inst.tokens),
                "subj_start": inst.subj_span[0],
                "subj_end": inst.subj_span[1],
                "obj_start": inst.obj_span[0],
                "obj_end": inst.obj_span[1],
                "relation": inst.label,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def merge_datasets(datasets: Iterable[Dataset]) -> Dataset:
    """Union of instances; relation order follows the first dataset that names each."""
    instances: list[RelationInstance] = []
    relations: list[str] = []
    seen: set[str] = set()
    na = None
    for ds in datasets:
        instances.extend(ds.instances)
        for r in ds.relations:
            if r not in seen:
                seen.add(r)
                relations.append(r)
        na = na or ds.na_label
    return Dataset(tuple(instances), tuple(relations), na)
