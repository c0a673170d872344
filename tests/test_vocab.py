"""Vocabulary construction, template wrapping, and serialization."""

import copy
import json
import random

import numpy as np
import pytest

from mvre.data import CorpusSpec, Dataset, RelationInstance, generate_corpus
from mvre.errors import EncodingError, ValidationError
from mvre.init_schemes import encode_probe_template
from mvre.schema import schema_from_relations, synthetic_schema
from mvre.vocab import (MASK, SPECIAL_TOKENS, build_vocab, decode, encode_sentence,
                        vocab_from_payload, vocab_payload, wrap_template)


def small_dataset(relations=("r1", "r2")):
    instances = []
    for ri, rel in enumerate(relations):
        toks = (f"sub{ri}", "was", "linked", "to", f"obj{ri}", "yesterday")
        instances.append(RelationInstance(toks, (0, 0), (4, 4), rel))
    return Dataset(tuple(instances), tuple(relations))


def schema_for(dataset, m):
    return schema_from_relations(dataset.relations, m, dataset.na_label)


class TestBuildVocab:
    def test_virtual_count_19_relations_m4(self):
        relations = tuple(f"rel{i}" for i in range(19))
        ds = small_dataset(relations)
        vocab, verb = build_vocab(ds, schema_for(ds, 4))
        assert len(vocab) - vocab.base_size == 76
        assert verb.all_ids().shape == (76,)

    def test_minimal_case(self):
        ds = small_dataset(("only",))
        vocab, verb = build_vocab(ds, schema_for(ds, 1))
        assert len(vocab) - vocab.base_size == 1
        assert verb.virtual_id("only", 1) == vocab.base_size

    def test_deterministic_assignment(self):
        ds = small_dataset()
        v1, _ = build_vocab(ds, schema_for(ds, 3))
        v2, _ = build_vocab(ds, schema_for(ds, 3))
        assert v1.words == v2.words

    def test_specials_first_and_distinct(self):
        ds = small_dataset()
        vocab, _ = build_vocab(ds, schema_for(ds, 2))
        ids = vocab.special_ids
        assert len(set(ids)) == len(SPECIAL_TOKENS)
        assert max(ids) < vocab.base_size

    def test_virtual_ids_injective_and_dense(self):
        ds = small_dataset(("a", "b", "c"))
        vocab, verb = build_vocab(ds, schema_for(ds, 4))
        seen = {verb.virtual_id(r, j) for r in ("a", "b", "c") for j in range(1, 5)}
        assert len(seen) == 12
        assert min(seen) == vocab.base_size
        assert max(seen) == len(vocab) - 1

    def test_m_zero_rejected(self):
        ds = small_dataset()
        schema = schema_for(ds, 1)
        object.__setattr__(schema, "m", 0)
        with pytest.raises(ValidationError):
            build_vocab(ds, schema)


class TestWrapTemplate:
    def setup_method(self):
        self.ds = small_dataset()
        self.vocab, self.verb = build_vocab(self.ds, schema_for(self.ds, 3))
        self.inst = self.ds.instances[0]

    def test_mask_block_consecutive(self):
        for m in range(1, 9):
            prompt = wrap_template(self.inst, self.vocab, m, 64)
            assert len(prompt.mask_positions) == m
            assert list(prompt.mask_positions) == list(
                range(prompt.mask_positions[0], prompt.mask_positions[0] + m))
            assert all(int(prompt.ids[p]) == self.vocab.mask_id
                       for p in prompt.mask_positions)

    def test_single_mask_degenerate(self):
        prompt = wrap_template(self.inst, self.vocab, 1, 64)
        assert prompt.m == 1

    def test_suffix_layout_sub_obj(self):
        prompt = wrap_template(self.inst, self.vocab, 3, 64)
        words = decode(prompt, self.vocab)
        tail = words[-6:]
        assert tail == ["sub0", MASK, MASK, MASK, "obj0", "[SEP]"]

    def test_prompt_marks_both_entities(self):
        words = decode(wrap_template(self.inst, self.vocab, 2, 64), self.vocab)
        assert words == ["[CLS]", "[SUB]", "sub0", "[/SUB]", "was", "linked", "to", "[OBJ]",
                         "obj0", "[/OBJ]", "yesterday", "[SEP]", "sub0", MASK, MASK, "obj0",
                         "[SEP]"]

    def test_roundtrip_without_truncation(self):
        prompt = wrap_template(self.inst, self.vocab, 2, 64)
        words = decode(prompt, self.vocab)
        for tok in self.inst.tokens:
            assert tok in words

    def test_no_virtual_ids_in_input(self):
        for m in (1, 4):
            prompt = wrap_template(self.inst, self.vocab, m, 64)
            assert prompt.ids.max() < self.vocab.base_size

    def test_ids_are_the_live_tokens(self):
        # both encoders, with and without truncation: no padding, at most max_len
        for max_len in (16, 40):
            for prompt in (wrap_template(self.inst, self.vocab, 2, max_len),
                           encode_probe_template("sub0 [MASK]*m obj0 .", self.vocab, 2,
                                                 max_len)):
                words = [self.vocab.word_of(int(i)) for i in prompt.ids]
                assert words == decode(prompt, self.vocab)
                assert words[0] == "[CLS]" and words[-1] == "[SEP]"
                assert "[PAD]" not in words
                assert len(prompt.ids) <= max_len

    def test_truncation_keeps_entities(self):
        toks = tuple(["pre"] * 10 + ["S"] + ["mid"] * 10 + ["O"] + ["post"] * 10)
        inst = RelationInstance(toks, (10, 10), (21, 21), "r1")
        ds = Dataset((inst,), ("r1",))
        vocab, _ = build_vocab(ds, schema_for(ds, 1))
        prompt = wrap_template(inst, vocab, 2, 20)
        words = decode(prompt, vocab)
        assert "S" in words and "O" in words
        assert len(prompt.ids) <= 20
        # the farthest-out context went first
        assert words.count("mid") >= words.count("pre")

    def test_entities_too_big_for_budget(self):
        toks = tuple(f"t{i}" for i in range(30))
        inst = RelationInstance(toks, (0, 9), (15, 24), "r1")
        ds = Dataset((inst,), ("r1",))
        vocab, _ = build_vocab(ds, schema_for(ds, 1))
        with pytest.raises(EncodingError):
            wrap_template(inst, vocab, 2, 24)

    def test_injective_on_instances(self):
        ds = generate_corpus(CorpusSpec(n_relations=3, instances_per_relation=10), seed=0)
        schema = synthetic_schema(CorpusSpec(n_relations=3, instances_per_relation=10),
                                  ds, 2)
        vocab, _ = build_vocab(ds, schema)
        seen = set()
        for inst in ds.instances:
            prompt = wrap_template(inst, vocab, 2, 128)
            seen.add(prompt.ids.tobytes())
        assert len(seen) == len(ds)


class TestSentenceEncoding:
    def test_marked_sentence_shape(self):
        ds = small_dataset()
        vocab, _ = build_vocab(ds, schema_for(ds, 1))
        ids = encode_sentence(ds.instances[0], vocab)
        words = [vocab.word_of(int(i)) for i in ids]
        assert words[0] == "[CLS]" and words[-1] == "[SEP]"
        assert "[SUB]" in words and "[/SUB]" in words


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        # through a JSON file, as a checkpoint header stores it
        ds = small_dataset(("x", "y", "z"))
        vocab, verb = build_vocab(ds, schema_for(ds, 2))
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(vocab_payload(vocab, verb)))
        vocab2, verb2 = vocab_from_payload(json.loads(path.read_text()))
        assert vocab2.words == vocab.words
        assert vocab2.base_size == vocab.base_size
        assert verb2.relation_order == verb.relation_order
        assert verb2.m == verb.m
        assert (vocab2, verb2) == (vocab, verb)
        for r in ("x", "y", "z"):
            for j in (1, 2):
                assert verb2.virtual_id(r, j) == verb.virtual_id(r, j)

    def test_payload_round_trip(self):
        ds = small_dataset()
        vocab, verb = build_vocab(ds, schema_for(ds, 2))
        vocab2, verb2 = vocab_from_payload(vocab_payload(vocab, verb))
        assert vocab2.words == vocab.words and verb2.m == verb.m

    def test_repeated_relation_rejected_by_name(self):
        ds = small_dataset(("x", "y", "z"))
        payload = vocab_payload(*build_vocab(ds, schema_for(ds, 2)))
        payload["relation_order"] = ["x", "y", "x"]
        with pytest.raises(ValueError, match="'relation_order' repeats 'x'"):
            vocab_from_payload(payload)

    def test_seeded_mutations_round_trip_or_raise_value_error(self):
        # each mutated payload rebuilds maps that give it back, or raises a
        # plain ValueError (never a KeyError, TypeError or ValidationError)
        ds = small_dataset(("x", "y", "z"))
        base = vocab_payload(*build_vocab(ds, schema_for(ds, 2)))
        rng = random.Random(20261019)
        pool = [None, True, 0, -1, 1, 2, 2.5, "x", "", "[PAD]", [], ["x"], [1], {}, {"m": 1}]
        outcomes = {"round trip": 0, "rejected": 0}
        for _ in range(400):
            payload = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                key = rng.choice(sorted(payload) + ["extra"])
                value = payload.get(key)
                kind = rng.randrange(5)
                if kind == 0:
                    payload[key] = rng.choice(pool)
                elif kind == 1:
                    payload.pop(key, None)
                elif isinstance(value, list) and value:
                    i, j = rng.randrange(len(value)), rng.randrange(len(value))
                    if kind == 2:  # an entry replaced, possibly by a copy of another
                        value[i] = rng.choice(pool + [value[j]])
                    elif kind == 3:
                        del value[i]
                    else:
                        value[i], value[j] = value[j], value[i]
                elif type(value) is int:
                    payload[key] = value + rng.choice((-1, 1))
            try:
                vocab, verb = vocab_from_payload(payload)
            except ValueError as e:
                assert type(e) is ValueError, repr(e)
                outcomes["rejected"] += 1
            else:
                assert vocab_payload(vocab, verb) == payload
                outcomes["round trip"] += 1
        assert min(outcomes.values()) > 0, outcomes
