"""Word-level vocabulary, virtual relation words, and prompt templates.

The vocabulary is deliberately word-level (no subwords): every corpus word
type gets one id, unknown words map to ``[UNK]``, and the m virtual words
per relation are appended after the base vocabulary in a fixed
(relation, view) order so their ids are computable from the layout alone.

A prompt wraps a sentence as::

    [CLS] ... [SUB] subject [/SUB] ... [OBJ] object [/OBJ] ... [SEP]
    subject-tokens [MASK] x m object-tokens [SEP]

A prompt holds exactly these live tokens; ``max_len`` bounds its length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import VIRTUAL_PREFIX, Dataset, RelationInstance
from .errors import EncodingError, ValidationError

PAD, CLS, SEP, MASK = "[PAD]", "[CLS]", "[SEP]", "[MASK]"
SUB_OPEN, SUB_CLOSE = "[SUB]", "[/SUB]"
OBJ_OPEN, OBJ_CLOSE = "[OBJ]", "[/OBJ]"
UNK = "[UNK]"

# no prompt holds [PAD]; it keeps its id, which fixes the layout of every checkpoint
SPECIAL_TOKENS = (PAD, CLS, SEP, MASK, SUB_OPEN, SUB_CLOSE, OBJ_OPEN, OBJ_CLOSE, UNK)


def virtual_word(relation: str, view: int) -> str:
    return f"{VIRTUAL_PREFIX}{relation}:{view}]"


@dataclass(frozen=True)
class Vocab:
    """Bijective word/id maps; specials first, then corpus words, then virtual words."""

    words: tuple[str, ...]
    base_size: int

    def __post_init__(self):
        object.__setattr__(self, "_id_of", {w: i for i, w in enumerate(self.words)})
        if len(self._id_of) != len(self.words):
            raise ValidationError("vocabulary contains duplicate words")

    def __len__(self):
        return len(self.words)

    def id_of(self, word: str) -> int:
        return self._id_of.get(word, self._id_of[UNK])

    def contains(self, word: str) -> bool:
        return word in self._id_of

    def word_of(self, idx: int) -> str:
        return self.words[idx]

    @property
    def mask_id(self) -> int:
        return self._id_of[MASK]

    @property
    def special_ids(self) -> tuple[int, ...]:
        return tuple(self._id_of[w] for w in SPECIAL_TOKENS)

    @property
    def ordinary_mask(self) -> np.ndarray:
        """True at each corpus word's id; False at the specials and the virtual words."""
        mask = np.arange(len(self.words)) < self.base_size
        mask[list(self.special_ids)] = False
        return mask

    def encode_words(self, words) -> np.ndarray:
        """``id_of`` of each word as an int64 array, with one lookup per word."""
        get, unk = self._id_of.get, self._id_of[UNK]
        return np.array([get(w, unk) for w in words], dtype=np.int64)


@dataclass(frozen=True)
class Verbalizer:
    """Maps (relation, view j) to the id of its virtual relation word."""

    relation_order: tuple[str, ...]
    m: int
    base_size: int

    def virtual_id(self, relation: str, view: int) -> int:
        if not (1 <= view <= self.m):
            raise IndexError(f"view {view} out of range [1, {self.m}]")
        ri = self.relation_order.index(relation)
        return self.base_size + ri * self.m + (view - 1)

    def virtual_id_by_index(self, relation_index: int, view: int) -> int:
        return self.base_size + relation_index * self.m + (view - 1)

    def view_ids(self, view: int) -> np.ndarray:
        """Virtual ids of every relation for one view, in relation order."""
        if not (1 <= view <= self.m):
            raise IndexError(f"view {view} out of range [1, {self.m}]")
        start = self.base_size + (view - 1)
        return np.array([start + ri * self.m for ri in range(len(self.relation_order))])

    def all_ids(self) -> np.ndarray:
        """All virtual ids, ordered (relation, view): row-major over the grid."""
        n = len(self.relation_order) * self.m
        return np.arange(self.base_size, self.base_size + n)


def build_vocab(dataset: Dataset, schema) -> tuple[Vocab, Verbalizer]:
    """Base vocabulary (specials + sorted corpus word types) plus virtual words.

    Builds identically for identical inputs: word types are sorted, and the
    |Y| * m virtual words are appended in (relation, view) order taken from
    the schema.
    """
    if schema.m < 1:
        raise ValidationError(f"m must be >= 1, got {schema.m}")
    relation_order = tuple(schema.relations)
    base = list(SPECIAL_TOKENS) + dataset.word_types()
    base_size = len(base)
    for rel in relation_order:
        for j in range(1, schema.m + 1):
            base.append(virtual_word(rel, j))
    return Vocab(tuple(base), base_size), Verbalizer(relation_order, schema.m, base_size)


@dataclass(frozen=True)
class EncodedPrompt:
    """Model-ready id sequence, ``[CLS]`` ... ``[SEP]`` with no padding, and the
    positions of its m ``[MASK]`` tokens."""

    ids: np.ndarray
    mask_positions: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.mask_positions)


def _marked_sentence(instance: RelationInstance) -> tuple[list[str], set[int]]:
    """Sentence tokens with entity markers inserted, and the positions of the entity tokens."""
    (s1, e1), (s2, e2) = instance.subj_span, instance.obj_span
    out: list[str] = []
    entity: set[int] = set()
    for i, tok in enumerate(instance.tokens):
        if i == s1:
            out.append(SUB_OPEN)
        if i == s2:
            out.append(OBJ_OPEN)
        if s1 <= i <= e1 or s2 <= i <= e2:
            entity.add(len(out))
        out.append(tok)
        if i == e1:
            out.append(SUB_CLOSE)
        if i == e2:
            out.append(OBJ_CLOSE)
    return out, entity


def wrap_template(instance: RelationInstance, vocab: Vocab, m: int, max_len: int
                  ) -> EncodedPrompt:
    """Encode an instance into the multi-mask cloze template.

    When the full encoding overflows ``max_len``, sentence tokens outside
    both entity spans are dropped farthest-from-entities first; entities,
    markers and the prompt suffix are never truncated.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    instance.validate()

    sent, protected = _marked_sentence(instance)
    subj = list(instance.subj_tokens)
    suffix = subj + [MASK] * m + list(instance.obj_tokens)
    overhead = 3 + len(suffix)  # CLS, sentence SEP, suffix, final SEP

    budget = max_len - overhead
    if len(protected) + 4 > budget:  # the entities and their four markers
        raise EncodingError(
            f"entities and prompt suffix need more than max_len={max_len} tokens")
    if len(sent) > budget:
        # rank droppable positions by distance to the nearest entity token
        def distance(i: int) -> int:
            return min(abs(i - p) for p in protected)

        droppable = [i for i in range(len(sent)) if i not in protected
                     and sent[i] not in (SUB_OPEN, SUB_CLOSE, OBJ_OPEN, OBJ_CLOSE)]
        droppable.sort(key=lambda i: (distance(i), i), reverse=True)
        to_drop = set(droppable[: len(sent) - budget])
        if len(sent) - len(to_drop) > budget:
            raise EncodingError(
                f"entities and markers do not fit within max_len={max_len}")
        sent = [tok for i, tok in enumerate(sent) if i not in to_drop]

    first_mask = 1 + len(sent) + 1 + len(subj)  # after CLS, the sentence, SEP and `subj`
    return EncodedPrompt(vocab.encode_words([CLS] + sent + [SEP] + suffix + [SEP]),
                         tuple(range(first_mask, first_mask + m)))


def decode(prompt: EncodedPrompt, vocab: Vocab) -> list[str]:
    """Words of a prompt."""
    return [vocab.word_of(int(i)) for i in prompt.ids]


def encode_sentence(instance: RelationInstance, vocab: Vocab) -> np.ndarray:
    """CLS + sentence with entity markers + SEP as raw ids (no padding);
    pretraining input."""
    words, _ = _marked_sentence(instance)
    return vocab.encode_words([CLS] + words + [SEP])


_PAYLOAD = {"words", "base_size", "m", "relation_order"}


def vocab_payload(vocab: Vocab, verbalizer: Verbalizer) -> dict:
    """JSON form that rebuilds both maps exactly; checkpoints carry it."""
    return {
        "words": list(vocab.words),
        "base_size": vocab.base_size,
        "m": verbalizer.m,
        "relation_order": list(verbalizer.relation_order),
    }


def vocab_from_payload(payload: dict) -> tuple[Vocab, Verbalizer]:
    """Rebuild the maps of a ``vocab_payload``; a malformed payload raises
    ``ValueError`` naming the field."""
    if not isinstance(payload, dict) or payload.keys() != _PAYLOAD:
        raise ValueError(f"vocabulary payload must hold exactly {sorted(_PAYLOAD)}, got "
                         f"{sorted(payload) if isinstance(payload, dict) else payload!r}")
    words, relations, base_size, m = (payload[k] for k in ("words", "relation_order",
                                                          "base_size", "m"))
    for key, value in (("words", words), ("relation_order", relations)):
        if not (isinstance(value, list) and all(isinstance(w, str) for w in value)):
            raise ValueError(f"vocabulary payload field {key!r} must be a list of strings")
    for i, rel in enumerate(relations):
        if rel in relations[:i]:
            raise ValueError(f"vocabulary payload field 'relation_order' repeats {rel!r}")
    if not all(type(n) is int and n >= 1 for n in (base_size, m)):
        raise ValueError(f"vocabulary payload fields 'base_size' and 'm' must be positive "
                         f"integers, got {base_size!r} and {m!r}")
    missing = [w for w in SPECIAL_TOKENS if w not in words[:base_size]]
    if missing:
        raise ValueError(f"vocabulary payload field 'words' lacks the special words {missing} "
                         f"among its first 'base_size' words")
    if len(words) != base_size + len(relations) * m:
        raise ValueError(f"vocabulary payload holds {len(words)} words, 'base_size' + "
                         f"'relation_order' x 'm' implies {base_size + len(relations) * m}")
    try:
        vocab = Vocab(tuple(words), base_size)
    except ValidationError as e:
        raise ValueError(f"vocabulary payload field 'words': {e}") from None
    return vocab, Verbalizer(tuple(relations), m, base_size)
