"""Relation schemas: seed-word splitting, templates, JSON round trip."""

import copy
import json
import random
from pathlib import Path

import pytest

from mvre.data import CorpusSpec, generate_corpus
from mvre.errors import ValidationError
from mvre.schema import (MASK_PLACEHOLDER, load_schema, save_schema,
                         schema_from_relations, si_tokens_from_label,
                         synthetic_schema)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestLabelSplitting:
    def test_colon_and_underscore(self):
        assert si_tokens_from_label("per:country_of_birth") == ["per", "country", "of", "birth"]

    def test_org_founded_by(self):
        assert si_tokens_from_label("org:founded_by") == ["org", "founded", "by"]

    def test_dash_slash_lowercase(self):
        assert si_tokens_from_label("Member-Collection/e1") == ["member", "collection", "e1"]

    def test_pure_punctuation_dropped(self):
        assert si_tokens_from_label("a:.:b") == ["a", "b"]


class TestSchemaFromRelations:
    def test_every_relation_gets_template_and_seeds(self):
        schema = schema_from_relations(["org:founded_by", "per:age"], m=3)
        schema.validate()
        for rel in schema.relations:
            assert MASK_PLACEHOLDER in schema.probe_templates[rel]
            assert schema.si_tokens[rel]

    def test_na_label_gets_no_relation_seeds(self):
        schema = schema_from_relations(["r1", "none"], m=2, na_label="none")
        assert schema.si_tokens["none"] == ["no", "relation"]

    def test_missing_template_rejected(self):
        schema = schema_from_relations(["r1"], m=1)
        broken = dict(schema.probe_templates)
        del broken["r1"]
        bad = type(schema)(schema.relations, 1, None, broken, schema.si_tokens)
        with pytest.raises(ValidationError, match="probe template"):
            bad.validate()


class TestSyntheticSchema:
    def test_anchors_are_corpus_words(self):
        spec = CorpusSpec(n_relations=3, instances_per_relation=20, na_fraction=0.2)
        ds = generate_corpus(spec, seed=1)
        schema = synthetic_schema(spec, ds, m=4)
        schema.validate()
        words = set(ds.word_types())
        for rel in schema.relations:
            if rel == ds.na_label:
                continue
            for w in schema.si_tokens[rel]:
                assert w in words

    def test_na_seeds_are_filler_words(self):
        spec = CorpusSpec(n_relations=2, instances_per_relation=30, na_fraction=0.3)
        ds = generate_corpus(spec, seed=5)
        schema = synthetic_schema(spec, ds, m=2)
        assert all(w.startswith("w") for w in schema.si_tokens[ds.na_label])


class TestSchemaIO:
    def test_round_trip(self, tmp_path):
        schema = schema_from_relations(["a:b", "c(e2,e1)"], m=3, na_label=None)
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        loaded = load_schema(path)
        assert loaded == schema

    def test_with_m_changes_only_m(self):
        schema = schema_from_relations(["a", "b"], m=2)
        other = schema.with_m(5)
        assert other.m == 5
        assert other.relations == schema.relations
        assert other.probe_templates == schema.probe_templates

    def test_saved_file_holds_only_read_fields(self, tmp_path):
        path = tmp_path / "schema.json"
        save_schema(schema_from_relations(["a", "b(e2,e1)"], m=2), path)
        assert sorted(json.loads(path.read_text())) == [
            "m", "na_label", "probe_templates", "relations", "si_tokens"]

    def test_older_direction_key_is_ignored(self, tmp_path):
        # files written before the direction flag was dropped still load
        payload = json.loads((FIXTURES / "probe_schema.json").read_text())
        for direction in ({}, {"rel0": "obj_sub"}, "anything"):
            path = tmp_path / "schema.json"
            path.write_text(json.dumps({**payload, "direction": direction}))
            assert load_schema(path) == load_schema(FIXTURES / "probe_schema.json")


def _valid_payload() -> dict:
    schema = schema_from_relations(["x:y", "z", "none"], m=2, na_label="none")
    return {"relations": list(schema.relations), "m": schema.m, "na_label": schema.na_label,
            "probe_templates": schema.probe_templates, "si_tokens": schema.si_tokens}


class TestLoadSchemaErrors:
    @pytest.mark.parametrize("edit,field", [
        (lambda p: p.pop("relations"), "'relations'"),
        (lambda p: p.update(relations=5), "'relations'"),
        (lambda p: p.update(relations=["z", 3]), "'relations'"),
        (lambda p: p.update(m="x"), "'m'"),
        (lambda p: p.update(m=0), "'m'"),
        (lambda p: p.update(m=True), "'m'"),
        (lambda p: p.update(m=2.0), "'m'"),
        (lambda p: p.pop("m"), "'m'"),
        (lambda p: p.update(na_label=1), "'na_label'"),
        (lambda p: p.update(probe_templates=["a"]), "'probe_templates'"),
        (lambda p: p.update(probe_templates={"z": 1}), "'probe_templates'"),
        (lambda p: p.update(si_tokens=["a"]), "'si_tokens'"),
        (lambda p: p.update(si_tokens={"z": "word"}), "'si_tokens'"),
        (lambda p: p.update(relations=["z", "z"]), "duplicates"),
        (lambda p: p["si_tokens"].pop("z"), "no static-init seed words")])
    def test_malformed_field_raises_value_error_naming_file(self, tmp_path, edit, field):
        payload = _valid_payload()
        edit(payload)
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=field) as exc:
            load_schema(path)
        assert type(exc.value) is ValueError and str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("text", ["[1, 2]", "7", "null", "{broken", ""])
    def test_not_a_json_object_raises_value_error_naming_file(self, tmp_path, text):
        path = tmp_path / "schema.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_schema(path)
        assert type(exc.value) is ValueError and str(exc.value).startswith(f"{path}: ")

    def test_seeded_mutations_round_trip_or_raise_value_error(self, tmp_path):
        # each mutated payload loads into a schema that saves its read fields
        # back, or raises a plain ValueError naming the file (never a KeyError,
        # TypeError, AttributeError or ValidationError)
        base = _valid_payload()
        defaults = {"na_label": None, "probe_templates": {}, "si_tokens": {}}
        rng = random.Random(20261019)
        pool = [None, True, 0, -1, 1, 2, 2.5, "x", "", "z", [], ["z"], [1], {}, {"z": "z"},
                {"z": ["a"]}, {"z": [1]}]
        path, saved = tmp_path / "schema.json", tmp_path / "saved.json"
        outcomes = {"round trip": 0, "rejected": 0}
        for _ in range(400):
            payload = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                key = rng.choice(sorted(payload) + ["direction"])
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
                elif isinstance(value, dict) and value:
                    entry = rng.choice(sorted(value))
                    if kind == 2:
                        value[entry] = rng.choice(pool)
                    else:
                        del value[entry]
                elif type(value) is int:
                    payload[key] = value + rng.choice((-1, 1))
            path.write_text(json.dumps(payload))
            try:
                schema = load_schema(path)
            except ValueError as e:
                assert type(e) is ValueError and str(e).startswith(f"{path}: "), repr(e)
                outcomes["rejected"] += 1
            else:
                save_schema(schema, saved)
                payload.pop("direction", None)
                assert json.loads(saved.read_text()) == {**defaults, **payload}
                outcomes["round trip"] += 1
        assert min(outcomes.values()) > 0, outcomes
