"""Synthetic corpus generation, JSONL round trips, and k-shot sampling."""

import hashlib
import json
import random
import re

import numpy as np
import pytest

from mvre.data import (CorpusSpec, Dataset, DatasetSplits, RelationInstance,
                       corpus_aspect_groups, generate_corpus, load_jsonl,
                       make_splits, merge_datasets, sample_kshot, save_jsonl)
from mvre.errors import LoadError, SamplingError, ValidationError
from mvre.vocab import virtual_word

DEFAULT_SPEC = CorpusSpec()


def tiny_dataset(n_per_relation=5, relations=("r1", "r2")):
    instances = []
    for rel in relations:
        for i in range(n_per_relation):
            toks = (f"{rel}tok{i}", "a", "b", "c", "d", "e")
            instances.append(RelationInstance(toks, (0, 0), (2, 2), rel))
    return Dataset(tuple(instances), tuple(relations))


class TestInstanceInvariants:
    def test_span_out_of_range(self):
        inst = RelationInstance(("a", "b"), (0, 0), (1, 5), "r")
        with pytest.raises(ValidationError, match="obj_span"):
            inst.validate()

    def test_overlapping_spans(self):
        inst = RelationInstance(("a", "b", "c"), (0, 1), (1, 2), "r")
        with pytest.raises(ValidationError, match="overlaps"):
            inst.validate()

    def test_unknown_label(self):
        ds = Dataset((RelationInstance(("a", "b", "c"), (0, 0), (2, 2), "zzz"),), ("r",))
        with pytest.raises(ValidationError, match="zzz"):
            ds.validate()


class TestCorpusSpec:
    def test_zero_relations_rejected(self):
        with pytest.raises(ValidationError, match="n_relations"):
            CorpusSpec(n_relations=0).validate()

    def test_short_sentences_rejected(self):
        with pytest.raises(ValidationError, match="sentence_length_range"):
            CorpusSpec(sentence_length_range=(4, 10)).validate()

    def test_bad_na_fraction(self):
        with pytest.raises(ValidationError, match="na_fraction"):
            CorpusSpec(na_fraction=1.0).validate()


class TestGenerateCorpus:
    def test_instance_count_matches_spec(self):
        spec = CorpusSpec(n_relations=8, instances_per_relation=50, na_fraction=0.0)
        ds = generate_corpus(spec, seed=1)
        assert len(ds) == 400
        assert len(ds.relations) == 8
        assert ds.na_label is None

    def test_deterministic(self):
        spec = CorpusSpec(n_relations=3, instances_per_relation=10)
        assert generate_corpus(spec, seed=1) == generate_corpus(spec, seed=1)
        assert generate_corpus(spec, seed=1) != generate_corpus(spec, seed=2)

    def test_invariants_over_generated_instances(self):
        # at least 1000 instances, all must satisfy the value-object invariants
        spec = CorpusSpec(n_relations=10, instances_per_relation=100, na_fraction=0.1)
        ds = generate_corpus(spec, seed=7)
        assert len(ds) >= 1000
        ds.validate()
        for inst in ds.instances:
            inst.validate()

    def test_aspect_coverage(self):
        spec = CorpusSpec(n_relations=4, instances_per_relation=25,
                          aspects_per_relation=3)
        ds = generate_corpus(spec, seed=3)
        groups = corpus_aspect_groups(spec)
        for inst in ds.instances:
            toks = set(inst.tokens)
            for group in groups[inst.label]:
                assert toks & set(group), f"{inst.label} instance missing a group word"

    def test_na_instances_have_no_aspect_words(self):
        spec = CorpusSpec(n_relations=3, instances_per_relation=20, na_fraction=0.25)
        ds = generate_corpus(spec, seed=5)
        assert ds.na_label is not None
        aspect_words = {w for groups in corpus_aspect_groups(spec).values()
                        for g in groups for w in g}
        na = [i for i in ds.instances if i.label == ds.na_label]
        assert na, "expected NA instances at na_fraction=0.25"
        got = len(na) / len(ds)
        assert abs(got - 0.25) < 0.05
        for inst in na:
            assert not set(inst.tokens) & aspect_words

    @pytest.mark.parametrize("spec,seed,digest", [
        (CorpusSpec(), 1,
         "148fc29c55e22c5ef64a248eca116369c64a4e5312990c3075cadb7f0f78916f"),
        (CorpusSpec(sentence_length_range=(24, 40), na_fraction=0.2), 0,
         "8eba57de11183df0be5f14bbffc07e8b876d9904b5f685a236916225da973c5e"),
        (CorpusSpec(sentence_length_range=(24, 40), na_fraction=0.2), 1,
         "9eb25f715427914adb1d5aaa295205a975bdcc611bddec2203d8f78b5fa57483"),
        (CorpusSpec(n_relations=3, instances_per_relation=12, aspects_per_relation=2,
                    vocab_pool_size=25, sentence_length_range=(6, 10)), 7,
         "bd4dfef47d848600991c096ce6d435d916b6e992a620d0380474fc1b3a364892"),
        (CorpusSpec(n_relations=20, instances_per_relation=30, na_fraction=0.5), 3,
         "ed09acca884e12837b26266a857e83310968f8b2ec659c566d6f200e01373dff"),
    ])
    def test_frozen_digests(self, spec, seed, digest):
        """Pins every corpus byte, NA instances included (the default, infer,
        probe and a half-NA spec), to the output of numpy's weighted
        ``Generator.choice`` sampler the generator first used."""
        ds = generate_corpus(spec, seed)
        canon = [list(ds.relations), ds.na_label,
                 [[list(i.tokens), list(i.subj_span), list(i.obj_span), i.label]
                  for i in ds.instances]]
        got = hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()
        assert got == digest


class TestJsonl:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        ds = load_jsonl(path)
        assert len(ds) == 0 and len(ds.relations) == 0

    def test_minimal_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        rec = {"token": ["a", "b", "c"], "subj_start": 0, "subj_end": 0,
               "obj_start": 2, "obj_end": 2, "relation": "r1"}
        path.write_text(json.dumps(rec) + "\n")
        ds = load_jsonl(path)
        assert len(ds) == 1
        assert ds.relations == ("r1",)
        assert ds.instances[0].subj_span == (0, 0)

    def test_span_violation_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"token": ["a", "b", "c"], "subj_start": 0, "subj_end": 5,
               "obj_start": 2, "obj_end": 2, "relation": "r1"}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(LoadError, match="line 1"):
            load_jsonl(path)

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"token": ["a", "b", "c"], "subj_start": 0, "subj_end": 0,
                "obj_start": 2, "obj_end": 2, "relation": "r1"}
        bad = dict(good)
        del bad["obj_end"]
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(LoadError, match="line 2.*obj_end"):
            load_jsonl(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(LoadError, match="line 1"):
            load_jsonl(path)

    @pytest.mark.parametrize("line,match", [
        ('["a", "b"]', "a record must be a JSON object"),
        ("3", "a record must be a JSON object"),
        ('{"subj_start": null}', "'subj_start' must be an integer, got None"),
        ('{"obj_end": "x"}', "'obj_end' must be an integer, got 'x'"),
        ('{"subj_end": 2.5}', "'subj_end' must be an integer, got 2.5"),
        ('{"subj_start": true, "subj_end": 1}', "'subj_start' must be an integer, got True"),
        ('{"token": ["a", 3, "c"]}', "'token' must be a list of strings"),
        ('{"token": "a b c"}', "'token' must be a list of strings"),
        ('{"relation": null}', "'relation' must be a string, got None"),
        ('{"relation": 5}', "'relation' must be a string, got 5"),
        ('{"relation": ["x"]}', "'relation' must be a string, got ['x']")])
    def test_bad_record_reports_line(self, tmp_path, line, match):
        good = {"token": ["a", "b", "c"], "subj_start": 0, "subj_end": 0,
                "obj_start": 2, "obj_end": 2, "relation": "r1"}
        record = json.loads(line)
        if isinstance(record, dict):
            record = {**good, **record}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(LoadError, match=f"line 2: {re.escape(match)}"):
            load_jsonl(path)

    def test_integral_float_span_accepted(self, tmp_path):
        rec = {"token": ["a", "b", "c"], "subj_start": 0.0, "subj_end": 0,
               "obj_start": 2, "obj_end": 2.0, "relation": "r1"}
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        assert load_jsonl(path).instances[0].obj_span == (2, 2)

    def test_reserved_prefix_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"token": [virtual_word("x", 1), "b", "c"], "subj_start": 0, "subj_end": 0,
               "obj_start": 2, "obj_end": 2, "relation": "r1"}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(LoadError, match="reserved"):
            load_jsonl(path)

    def test_round_trip_identity(self, tmp_path):
        ds = generate_corpus(CorpusSpec(n_relations=3, instances_per_relation=8,
                                        na_fraction=0.2), seed=11)
        path = tmp_path / "rt.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path, na_label=ds.na_label)
        assert loaded.instances == ds.instances
        assert set(loaded.relations) == set(ds.relations)

    def test_save_key_order_and_termination(self, tmp_path):
        ds = tiny_dataset(1)
        path = tmp_path / "ord.jsonl"
        save_jsonl(ds, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        first = json.loads(text.splitlines()[0])
        assert list(first) == ["token", "subj_start", "subj_end",
                               "obj_start", "obj_end", "relation"]

    def test_seeded_byte_mutations_raise_load_error(self, tmp_path):
        # each mutated file loads, or raises LoadError naming the line (never a
        # UnicodeDecodeError, KeyError or TypeError traceback)
        ds = generate_corpus(CorpusSpec(n_relations=3, instances_per_relation=3,
                                        na_fraction=0.2), seed=4)
        path = tmp_path / "fuzz.jsonl"
        save_jsonl(ds, path)
        raw = path.read_bytes()
        rng = random.Random(20261019)
        pool = b'{}[]":,0123456789-.eE+ ntrufalsx\\\n'
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(400):
            mutated = bytearray(raw)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(raw))] = (rng.randrange(256) if rng.random() < 0.3
                                                    else rng.choice(pool))
            path.write_bytes(bytes(mutated))
            try:
                load_jsonl(path, na_label=ds.na_label)
                outcomes["loaded"] += 1
            except LoadError as e:
                assert e.line is not None and str(e).startswith(f"line {e.line}: "), e
                outcomes["rejected"] += 1
        assert min(outcomes.values()) > 0, outcomes


def make_source(n_per_relation=10, relations=("r1", "r2", "r3")):
    full = tiny_dataset(n_per_relation, relations)
    empty = Dataset((), full.relations)
    return DatasetSplits(full, empty, empty)


class TestSampleKshot:
    def test_k_instances_per_relation(self):
        src = make_source(10, tuple(f"rel{i}" for i in range(19)))
        ep = sample_kshot(src, k=1, seed=1)
        assert len(ep.train) == 19

    def test_forced_choice(self):
        src = make_source(1, ("only",))
        ep = sample_kshot(src, k=1, seed=42)
        assert ep.train.instances == src.train.instances

    def test_pure_function_of_inputs(self):
        src = make_source()
        assert sample_kshot(src, 2, 9) == sample_kshot(src, 2, 9)
        assert sample_kshot(src, 2, 9) != sample_kshot(src, 2, 10)

    def test_unrelated_relations_unperturbed_by_schema_growth(self):
        # adding a relation must not change which instances other relations draw
        small = make_source(10, ("r1", "r2"))
        big = make_source(10, ("r1", "r2", "r3"))
        pick_small = [i for i in sample_kshot(small, 3, 5).train.instances if i.label == "r1"]
        pick_big = [i for i in sample_kshot(big, 3, 5).train.instances if i.label == "r1"]
        assert pick_small == pick_big

    def test_relation_without_instances_errors(self):
        train = Dataset(tiny_dataset(3, ("r1",)).instances, ("r1", "ghost"))
        src = DatasetSplits(train, Dataset((), train.relations), Dataset((), train.relations))
        with pytest.raises(SamplingError, match="ghost"):
            sample_kshot(src, 1, 0)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            sample_kshot(make_source(), 0, 0)

    def test_disjoint_splits(self):
        ds = generate_corpus(CorpusSpec(n_relations=4, instances_per_relation=20), seed=2)
        splits = make_splits(ds, seed=3)
        ep = sample_kshot(splits, 2, 1)
        assert isinstance(ep, DatasetSplits)
        assert ep.dev is splits.dev and ep.test is splits.test
        train_set = set(ep.train.instances)
        assert not train_set & set(ep.dev.instances)
        assert not train_set & set(ep.test.instances)

    def test_frozen_seed_fixture(self):
        """Regression pin of the seeded sampler's selections.

        Frozen from the first run of this sampler on the fixture source
        below; both seeds pick at least two candidates, so a silent change
        to the seeding scheme would show up here.
        """
        src = make_source(5, ("relA",))
        tok_of = lambda ep: sorted(i.tokens[0] for i in ep.train.instances)
        assert tok_of(sample_kshot(src, 2, seed=1)) == ["relAtok1", "relAtok2"]
        assert tok_of(sample_kshot(src, 2, seed=2)) == ["relAtok1", "relAtok3"]


class TestSplitsAndMerge:
    def test_make_splits_stratified(self):
        ds = generate_corpus(CorpusSpec(n_relations=5, instances_per_relation=20), seed=4)
        splits = make_splits(ds, dev_fraction=0.2, test_fraction=0.2, seed=0)
        by_rel = splits.train.by_relation()
        assert all(len(v) == 12 for v in by_rel.values())
        assert len(splits.dev) == 20 and len(splits.test) == 20

    @pytest.mark.parametrize("dev,test,name", [
        (0.2, -1.0, "test_fraction"), (-0.5, 0.2, "dev_fraction"),
        (float("nan"), 0.2, "dev_fraction"), (0.2, float("nan"), "test_fraction"),
        (1.0, 0.0, "dev_fraction"), (0.6, 0.4, "leave room")])
    def test_bad_fractions_rejected(self, dev, test, name):
        ds = tiny_dataset()
        with pytest.raises(ValidationError, match=name):
            make_splits(ds, dev_fraction=dev, test_fraction=test)

    def test_merge_keeps_first_appearance_order(self):
        a = tiny_dataset(1, ("x", "y"))
        b = tiny_dataset(1, ("y", "z"))
        merged = merge_datasets([a, b])
        assert merged.relations == ("x", "y", "z")
        assert len(merged) == 4
