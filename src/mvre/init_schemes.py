"""Virtual-word initialization: static seed-word averages, cloze probing, or both.

Static initialization averages the embeddings of each relation's seed words
and writes that one vector into all m of its virtual-word rows. Dynamic
initialization instead asks the trained model itself: each relation's probe
sentence is encoded with m masks, and the top-probability ordinary token at
each mask donates its embedding to the matching virtual word. The combined
scheme averages the two, elementwise.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import InitError
from .model import MlmModel, forward_batch
from .schema import MASK_PLACEHOLDER, RelationSchema
from .vocab import CLS, MASK, SEP, EncodedPrompt, Verbalizer, Vocab

logger = logging.getLogger(__name__)

STATIC = "static"
DYNAMIC = "dynamic"
COMBINED = "combined"
RANDOM = "random"

INIT_MODES = (STATIC, DYNAMIC, COMBINED, RANDOM)


@dataclass(frozen=True)
class ProbeRecord:
    """One probing outcome: the token chosen for a (relation, view) slot."""

    relation: str
    view: int
    token: str
    probability: float


def encode_probe_template(template: str, vocab: Vocab, m: int,
                          max_len: int) -> EncodedPrompt:
    """Turn a probe template string into a model input with m masks.

    The template is whitespace-tokenized; the literal ``[MASK]*m`` token
    expands to m mask ids, every other word maps through the vocabulary
    (unknowns to UNK).
    """
    words = template.split()
    if MASK_PLACEHOLDER not in words:
        raise InitError(f"template lacks the {MASK_PLACEHOLDER!r} placeholder: {template!r}")
    out: list[str] = [CLS]
    mask_positions: list[int] = []
    for w in words:
        if w == MASK_PLACEHOLDER:
            mask_positions.extend(range(len(out), len(out) + m))
            out.extend([MASK] * m)
        else:
            out.append(w)
    out.append(SEP)
    if len(out) > max_len:
        raise InitError(f"probe template needs {len(out)} tokens, max_len is {max_len}")
    return EncodedPrompt(vocab.encode_words(out), tuple(mask_positions))


def _static_vectors(schema: RelationSchema, vocab: Vocab,
                    model: MlmModel) -> np.ndarray:
    """Mean seed-word embedding per relation, tiled over views: [|Y|, m, d]."""
    te = model.token_embed.data
    d = te.shape[1]
    out = np.zeros((len(schema.relations), schema.m, d))
    for ri, rel in enumerate(schema.relations):
        tokens = schema.si_tokens.get(rel, [])
        known = [t for t in tokens if vocab.contains(t)]
        unknown = [t for t in tokens if not vocab.contains(t)]
        if unknown:
            logger.warning("static init: relation %r seed words %s not in vocabulary, "
                           "mapping to UNK", rel, unknown)
        if not known:
            raise InitError(f"relation {rel!r}: no seed word is in the vocabulary")
        ids = [vocab.id_of(t) for t in tokens]
        mean = te[ids].mean(axis=0)
        out[ri, :, :] = mean
    return out


def _dynamic_vectors(schema: RelationSchema, vocab: Vocab, model: MlmModel) -> tuple[np.ndarray, list[ProbeRecord]]:
    """Probe each relation's template; returns embeddings [|Y|, m, d] and the report."""
    m = schema.m
    prompts = []
    for rel in schema.relations:
        template = schema.probe_templates.get(rel)
        if not template:
            raise InitError(f"relation {rel!r} has no probe template")
        prompts.append(encode_probe_template(template, vocab, m, model.config.max_len))
    with ad.no_grad():
        _, logits = forward_batch(model, [p.ids for p in prompts],
                                  reads=[p.mask_positions for p in prompts])
        probs = ad.softmax(logits).data  # [|Y| * m, V], rows relation by relation, then view
    # only corpus words donate: never a special or a virtual word
    tok_ids = np.where(vocab.ordinary_mask, probs, -np.inf).argmax(axis=-1)
    report = [ProbeRecord(schema.relations[row // m], row % m + 1, vocab.word_of(t),
                          float(probs[row, t])) for row, t in enumerate(tok_ids.tolist())]
    te = model.token_embed.data
    return te[tok_ids].reshape(len(schema.relations), m, te.shape[1]), report


def apply_init(mode: str, schema: RelationSchema, vocab: Vocab, verbalizer: Verbalizer,
               model: MlmModel) -> tuple[np.ndarray | None, list[ProbeRecord]]:
    """Write the mode's virtual-word vectors into the model; returns them, [|Y|, m, d],
    plus the probe report (empty for 'static'). 'random' keeps the model's own
    initialization and returns ``(None, [])``."""
    if mode == RANDOM:
        return None, []
    if mode == STATIC:
        vectors, report = _static_vectors(schema, vocab, model), []
    elif mode == DYNAMIC:
        vectors, report = _dynamic_vectors(schema, vocab, model)
    elif mode == COMBINED:
        static = _static_vectors(schema, vocab, model)
        probed, report = _dynamic_vectors(schema, vocab, model)
        vectors = 0.5 * (static + probed)  # elementwise mean per (relation, view)
    else:
        raise InitError(f"unknown init mode {mode!r}; expected one of {INIT_MODES}")
    model.token_embed.data[verbalizer.all_ids()] = vectors.reshape(-1, vectors.shape[-1])
    return vectors, report


def save_probe_report(report: list[ProbeRecord], path: str | Path):
    """Machine-readable probe outcomes: one record per (relation, view)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in report], fh, ensure_ascii=False, indent=2)
        fh.write("\n")
