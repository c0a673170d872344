"""Relation schemas: the relation set, view count, probe templates, seed words.

A schema owns everything label-side: the ordered relation names, the number
of views m, one cloze probe template per relation (a plain-text sentence
containing the literal ``[MASK]*m`` placeholder), the seed words used by
static initialization.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path

from .data import CorpusSpec, Dataset, corpus_aspect_groups
from .errors import ValidationError

MASK_PLACEHOLDER = "[MASK]*m"


def si_tokens_from_label(label: str) -> list[str]:
    """Split a relation name into seed words: 'per:country_of_birth' -> per country of birth."""
    for sep in (":", "_", "-", "/"):
        label = label.replace(sep, " ")
    words = [w.lower() for w in label.split()]
    return [w for w in words if any(c not in string.punctuation for c in w)]


@dataclass(frozen=True)
class RelationSchema:
    relations: tuple[str, ...]
    m: int
    na_label: str | None = None
    probe_templates: dict[str, str] = field(default_factory=dict)
    si_tokens: dict[str, list[str]] = field(default_factory=dict)

    def validate(self):
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if len(set(self.relations)) != len(self.relations):
            raise ValidationError("schema relations contain duplicates")
        if self.na_label is not None and self.na_label not in self.relations:
            raise ValidationError(f"field 'na_label' {self.na_label!r} is not one of the "
                                  f"relations {list(self.relations)}")
        for rel in self.relations:
            tpl = self.probe_templates.get(rel)
            if not tpl:
                raise ValidationError(f"relation {rel!r} has no probe template")
            if MASK_PLACEHOLDER not in tpl:
                raise ValidationError(
                    f"probe template for {rel!r} lacks the {MASK_PLACEHOLDER!r} placeholder")
            if not self.si_tokens.get(rel):
                raise ValidationError(f"relation {rel!r} has no static-init seed words")

    def with_m(self, m: int) -> "RelationSchema":
        return RelationSchema(self.relations, m, self.na_label, dict(self.probe_templates),
                              {k: list(v) for k, v in self.si_tokens.items()})


def default_probe_template(seed_words: list[str]) -> str:
    return f"subject {' '.join(seed_words)} object . subject {MASK_PLACEHOLDER} object ."


def schema_from_relations(relations, m: int, na_label: str | None = None) -> RelationSchema:
    """Derive a schema from relation names alone.

    Seed words come from splitting each name; probe templates follow the
    ``subject <seed words> object . subject [MASK]*m object .`` pattern.
    """
    relations = tuple(relations)
    si: dict[str, list[str]] = {}
    templates: dict[str, str] = {}
    for rel in relations:
        words = si_tokens_from_label(rel)
        if rel == na_label:
            words = ["no", "relation"]
        if not words:
            raise ValidationError(f"relation {rel!r} yields no seed words")
        si[rel] = words
        templates[rel] = default_probe_template(words)
    schema = RelationSchema(relations, m, na_label, templates, si)
    schema.validate()
    return schema


def synthetic_schema(spec: CorpusSpec, dataset: Dataset, m: int) -> RelationSchema:
    """Schema for a generated corpus: one anchor word per aspect group.

    Anchors (the first word of each aspect group) are corpus words, so both
    static initialization and cloze probing operate on in-vocabulary tokens.
    The NA relation, having no aspect pool, seeds from the most common
    filler words instead.
    """
    groups = corpus_aspect_groups(spec)
    si: dict[str, list[str]] = {}
    templates: dict[str, str] = {}
    for rel in dataset.relations:
        if rel == dataset.na_label:
            si[rel] = [f"w{i:03d}" for i in range(3)]
            templates[rel] = f"subject no relation object . subject {MASK_PLACEHOLDER} object ."
        else:
            anchors = [g[0] for g in groups[rel]]
            si[rel] = anchors
            templates[rel] = default_probe_template(anchors)
    schema = RelationSchema(tuple(dataset.relations), m, dataset.na_label, templates, si)
    schema.validate()
    return schema


def save_schema(schema: RelationSchema, path: str | Path):
    payload = {
        "relations": list(schema.relations),
        "m": schema.m,
        "na_label": schema.na_label,
        "probe_templates": schema.probe_templates,
        "si_tokens": schema.si_tokens,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(w, str) for w in value)


def _schema_from_payload(payload) -> RelationSchema:
    """The schema a ``save_schema`` payload describes; ``ValueError`` naming the
    field when a field has the wrong type. Other keys (an older file's
    ``direction``) are ignored."""
    if not isinstance(payload, dict):
        raise ValueError(f"a schema file must hold a JSON object, got {type(payload).__name__}")
    relations, m, na_label = (payload.get(k) for k in ("relations", "m", "na_label"))
    templates = payload.get("probe_templates", {})
    si = payload.get("si_tokens", {})
    if not _strings(relations):
        raise ValueError(f"field 'relations' must be a list of strings, got {relations!r}")
    if type(m) is not int or m < 1:
        raise ValueError(f"field 'm' must be a positive integer, got {m!r}")
    if not (na_label is None or isinstance(na_label, str)):
        raise ValueError(f"field 'na_label' must be a string or null, got {na_label!r}")
    if not (isinstance(templates, dict) and all(isinstance(t, str) for t in templates.values())):
        raise ValueError("field 'probe_templates' must map relations to strings")
    if not (isinstance(si, dict) and all(_strings(v) for v in si.values())):
        raise ValueError("field 'si_tokens' must map relations to lists of strings")
    schema = RelationSchema(tuple(relations), m, na_label, dict(templates),
                            {k: list(v) for k, v in si.items()})
    try:
        schema.validate()
    except ValidationError as e:
        raise ValueError(str(e)) from None
    return schema


def load_schema(path: str | Path) -> RelationSchema:
    """Read a ``save_schema`` file; a malformed one raises ``ValueError``
    naming the file and the field."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _schema_from_payload(json.load(fh))
    except ValueError as e:  # JSON and UTF-8 decoding errors are ValueErrors too
        raise ValueError(f"{path}: {e}") from None
