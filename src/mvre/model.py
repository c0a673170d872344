"""The tiny masked language model: pre-norm transformer with a tied MLM head.

Output logits are always the final hidden states projected against the
transposed token embedding plus a per-token bias, so anything written into
an embedding row (e.g. virtual-word initialization) shapes both input and
output behavior at once.

Everything runs in float64; forward passes are deterministic functions of
(parameters, input). ``forward_batch`` is the one entry: it takes a list of
id sequences, each exactly its live tokens (a prompt carries no padding),
and runs them packed: the tokens of all its sequences form one
[sum L, d] matrix, so row-wise math runs once per batch while every matmul
and each sequence's attention run per sequence; each sequence gets the bits
it gets alone, and each gradient the bits of one graph per sequence. A
caller names the rows it reads (the masks), and the last layer, the final
norm and the head run their row-wise work on those rows only. Training and
inference run the same ops; under ``autodiff.no_grad`` they record no graph.

The parameters live in one flat vector (an ``autodiff.Arena``), so AdamW,
snapshots, the finiteness check and checkpoints each touch one array.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset
from .errors import ValidationError
from .vocab import Vocab, encode_sentence, vocab_from_payload

logger = logging.getLogger(__name__)


@dataclass
class ModelConfig:
    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_len: int = 128
    vocab_size: int = 0
    dtype: str = "float64"
    dropout: float = 0.0
    init_scale: float = 0.02

    def validate(self):
        for name, low in (("d", 1), ("n_layers", 0), ("n_heads", 1), ("max_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be set before building a model")
        if self.dtype != "float64":  # kept as a field so checkpoint headers keep their bytes
            raise ValueError(f"unsupported dtype {self.dtype!r}: every parameter is float64")


def param_table(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, initializer) of every parameter, in creation order.

    The initializer is ``normal`` (drawn from the model seed), ``zeros`` or
    ``ones``; the draw order of the ``normal`` entries fixes the model bits.
    """
    d, v = config.d, config.vocab_size
    table = {"token_embed": ((v, d), "normal"),
             "pos_embed": ((config.max_len, d), "normal")}
    for i in range(config.n_layers):
        b = f"blocks.{i}."
        table[b + "ln1.gamma"] = ((d,), "ones")
        table[b + "ln1.beta"] = ((d,), "zeros")
        for w in "qkvo":
            table[b + f"attn.w{w}"] = ((d, d), "normal")
            table[b + f"attn.b{w}"] = ((d,), "zeros")
        table[b + "ln2.gamma"] = ((d,), "ones")
        table[b + "ln2.beta"] = ((d,), "zeros")
        table[b + "ffn.w1"] = ((d, 4 * d), "normal")
        table[b + "ffn.b1"] = ((4 * d,), "zeros")
        table[b + "ffn.w2"] = ((4 * d, d), "normal")
        table[b + "ffn.b2"] = ((d,), "zeros")
    table["final_norm.gamma"] = ((d,), "ones")
    table["final_norm.beta"] = ((d,), "zeros")
    table["head_bias"] = ((v,), "zeros")
    return table


class MlmModel:
    """Parameter store plus forward pass. The parameters form one ``ad.Arena``
    in ``param_table`` order, drawn from ``seed`` or copied from ``values``
    (name -> array). Write parameter values in place; never rebind ``.data``."""

    def __init__(self, config: ModelConfig, seed: int = 0,
                 values: dict[str, np.ndarray] | None = None):
        config.validate()
        self.config = config
        table = param_table(config)
        if values is None:
            rng = np.random.default_rng(seed)
            make = {"normal": lambda shape: rng.normal(0.0, config.init_scale, size=shape),
                    "zeros": np.zeros, "ones": np.ones}
            values = {name: make[init](shape) for name, (shape, init) in table.items()}
        self._params = ad.Arena({name: values[name] for name in table})

    def params(self) -> ad.Arena:
        return self._params

    @property
    def token_embed(self) -> Tensor:
        return self._params["token_embed"]

    def param_values(self) -> dict[str, np.ndarray]:
        """A copy of every parameter: views into one copy of the arena."""
        return self._params.unflatten(self._params.flat().copy())

    def copy(self) -> "MlmModel":
        return MlmModel(self.config, values=self.param_values())

    def check_finite(self):
        ad.check_finite(self._params)


# per-block parameter names, in the argument order of the sublayer ops
_ATTENTION = ("ln1.gamma", "ln1.beta", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
              "attn.wv", "attn.bv", "attn.wo", "attn.bo")
_FFN = ("ln2.gamma", "ln2.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


def forward_batch(model: MlmModel, id_seqs, rng: np.random.Generator | None = None,
                  reads=None) -> tuple[Tensor, Tensor]:
    """Run the encoder over a batch of id sequences, packed; a batch of one
    is ``forward_batch(model, [ids])``.

    The tokens of all sequences are stacked into one [sum L, d] matrix
    (``autodiff`` describes the packed layout): layer norms, bias adds, GELU,
    residual adds and the embedding gather run once per batch, every matmul
    and each sequence's attention per sequence. ``reads[s]`` holds the
    positions the caller reads in sequence ``s``, strictly increasing
    (default: every position). Returns (hidden, logits) of the read rows,
    sequence by sequence: post-norm hidden states [R, d] and the logits the
    head gives them [R, V]. The last layer runs its row-wise work on the read
    rows only. Every value and gradient has the bits of one graph per
    sequence read at those rows. Dropout applies exactly when ``rng`` is
    given and draws its masks in that graph's order: sequence, then layer,
    then attention before FFN. Under
    ``ad.no_grad()`` the same ops run and record no graph.
    """
    cfg = model.config
    seqs = [np.asarray(ids, dtype=np.int64) for ids in id_seqs]
    if not seqs:
        raise ValueError("forward_batch needs at least one sequence")
    for ids in seqs:
        if len(ids) > cfg.max_len:
            raise ValueError(f"sequence length {len(ids)} exceeds max_len {cfg.max_len}")
        if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
            raise ValueError("token id out of vocabulary range")
    rows = ad.packed_rows([len(ids) for ids in seqs])
    reads = None if reads is None else ad.read_rows(rows, reads)
    drop = cfg.dropout if rng is not None else 0.0
    draws = (np.concatenate([rng.random((2 * cfg.n_layers, len(ids), cfg.d)) for ids in seqs],
                            axis=1) if drop > 0.0 else None)
    p = model._params
    tied = ad.TiedEmbedding(p["token_embed"], p["pos_embed"], rows)
    x = tied.embed(np.concatenate(seqs))
    for i in range(cfg.n_layers):
        b, last = f"blocks.{i}.", reads if i == cfg.n_layers - 1 else None
        o = ad.attention_sublayer(x, *(p[b + n] for n in _ATTENTION), n_heads=cfg.n_heads,
                                  rows=rows, reads=last)
        if drop > 0.0:
            o = ad.dropout(o, drop, draws[2 * i])
        x = x + o
        f = ad.ffn_sublayer(x, *(p[b + n] for n in _FFN), rows=rows, reads=last)
        if drop > 0.0:
            f = ad.dropout(f, drop, draws[2 * i + 1])
        x = x + f
    hidden = ad.layer_norm(x, p["final_norm.gamma"], p["final_norm.beta"], rows=rows,
                           reads=reads)
    return hidden, tied.head(hidden, p["head_bias"], reads)


# -- optimizer ------------------------------------------------------------------


ADAMW_BETAS, ADAMW_EPS = (0.9, 0.999), 1e-8


class AdamW:
    """Decoupled-weight-decay Adam, in place on a fixed parameter set; a step
    that leaves a non-finite value raises, naming the parameter.

    ``params`` is an ``ad.Arena`` or a sequence of them, as ``ad.grad`` takes
    it (``ad.arenas``). Each arena moves as one vector and reads its gradient
    vector, so ``grads`` must hold the views ``ad.grad`` returned for it. Each
    update runs in place through two scratch vectors, and each element goes
    through the expressions of a per-parameter update in the same
    association, so the grouping does not change a bit.
    """

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params = ad.arenas(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(arena.flat()) for arena in self.params]
        self.v = [np.zeros_like(m) for m in self.m]
        self.scratch = np.empty((2, max((m.size for m in self.m), default=0)))

    def step(self, grads: dict[str, np.ndarray]):
        b1, b2 = ADAMW_BETAS
        slots = [(arena.flat(), arena.grad_vector(grads)) for arena in self.params]
        self.t += 1
        for (w, g), m, v in zip(slots, self.m, self.v):
            s, u = self.scratch[:, : w.size]
            if self.weight_decay != 0.0:
                w -= np.multiply(w, self.lr * self.weight_decay, out=s)  # w - lr * wd * w
            m *= b1  # m = b1 * m + (1 - b1) * g
            m += np.multiply(g, 1.0 - b1, out=s)
            v *= b2  # v = b2 * v + (1 - b2) * (g * g)
            v += np.multiply(np.multiply(g, g, out=s), 1.0 - b2, out=s)
            np.divide(m, 1.0 - b1 ** self.t, out=s)  # m_hat
            np.divide(v, 1.0 - b2 ** self.t, out=u)  # v_hat
            np.sqrt(u, out=u)  # w - lr * m_hat / (sqrt(v_hat) + eps)
            u += ADAMW_EPS
            s *= self.lr
            s /= u
            w -= s
        ad.check_finite(self.params, f" after AdamW step {self.t}")


# -- masked-token pretraining ---------------------------------------------------


@dataclass
class PretrainConfig:
    steps: int = 3000
    batch_size: int = 8
    lr: float = 2e-3
    mask_rate: float = 0.15
    holdout_fraction: float = 0.1
    seed: int = 0
    log_every: int = 200

    def validate(self):
        if self.steps < 0:
            raise ValidationError(f"pretrain steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValidationError(f"pretrain batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"pretrain lr must be positive and finite, got {self.lr}")
        if not 0.0 < self.mask_rate <= 1.0:
            raise ValidationError(f"pretrain mask_rate must be in (0, 1], got {self.mask_rate}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValidationError(f"pretrain holdout_fraction must be in [0, 1), "
                                  f"got {self.holdout_fraction}")
        if self.seed < 0:
            raise ValidationError(f"pretrain seed must be >= 0, got {self.seed}")


@dataclass
class PretrainResult:
    model: MlmModel
    holdout_accuracy: float
    n_holdout_predictions: int
    step_losses: list[float] = field(default_factory=list)


def _apply_mlm_mask(ids: np.ndarray, candidates: np.ndarray, mask_id: int, rate: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace ~rate of the candidate (non-special) positions with [MASK]; at least one."""
    n = max(1, int(round(rate * len(candidates))))
    picked = rng.choice(len(candidates), size=min(n, len(candidates)), replace=False)
    positions = np.sort(candidates[picked])
    corrupted = ids.copy()
    corrupted[positions] = mask_id
    return corrupted, positions, ids[positions]


def maskable_positions(encoded: list[np.ndarray], vocab: Vocab) -> list[np.ndarray]:
    """The non-special positions of each id sequence, through one boolean lookup."""
    special = np.zeros(len(vocab), dtype=bool)
    special[list(vocab.special_ids)] = True
    return [np.where(~special[ids])[0] for ids in encoded]


def pretrain_mlm(model: MlmModel, corpus: Dataset, vocab: Vocab,
                 config: PretrainConfig) -> PretrainResult:
    """Masked-token prediction training on a corpus' sentences.

    A held-out slice of the corpus measures masked-token accuracy after
    training; the score is logged and returned. Zero steps leave the model
    untouched. No dropout mask is drawn, whatever ``model.config.dropout``
    says: dropout applies to prompt fine-tuning only.
    """
    if not corpus.instances:
        raise ValueError("pretraining corpus is empty")
    config.validate()
    rng = np.random.default_rng([config.seed, 0xA11])
    encoded = [encode_sentence(inst, vocab) for inst in corpus.instances]
    for i, ids in enumerate(encoded):
        if len(ids) > model.config.max_len:
            raise ValidationError(f"pretraining sentence {i} is {len(ids)} tokens long with "
                                  f"its markers, over model.max_len={model.config.max_len}")
    maskable = maskable_positions(encoded, vocab)
    n_hold = int(round(len(encoded) * config.holdout_fraction))
    if n_hold >= len(encoded):
        raise ValidationError(f"pretrain holdout_fraction={config.holdout_fraction} holds out "
                              f"all {len(encoded)} sentences, leaving none to train on")
    order = rng.permutation(len(encoded))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]

    def masked_batch(indices, mask_rng):
        """Mask each sentence in turn; the logits and targets of the masks."""
        seqs, positions, targets = [], [], []
        for i in indices:
            corrupted, pos, target = _apply_mlm_mask(
                encoded[i], maskable[i], vocab.mask_id, config.mask_rate, mask_rng)
            seqs.append(corrupted)
            positions.append(pos)
            targets.append(target)
        _, logits = forward_batch(model, seqs, reads=positions)
        return logits, np.concatenate(targets)

    opt = AdamW(model.params(), lr=config.lr)
    losses: list[float] = []
    for step in range(config.steps):
        batch_ids = rng.integers(0, len(train_idx), size=config.batch_size)
        logits, targets = masked_batch(train_idx[batch_ids], rng)
        probs = ad.softmax(logits)
        picked = ad.index(probs, (np.arange(len(targets)), targets))
        loss = ad.tmean(-ad.log(picked + 1e-12))
        grads = ad.grad(loss, model.params())
        opt.step(grads)
        losses.append(loss.item())
        if config.log_every and (step + 1) % config.log_every == 0:
            logger.info("pretrain step %d/%d loss %.4f", step + 1, config.steps, losses[-1])

    correct = total = 0
    eval_rng = np.random.default_rng([config.seed, 0xE7A1])
    with ad.no_grad():
        for start in range(0, n_hold, config.batch_size):
            logits, targets = masked_batch(hold_idx[start : start + config.batch_size],
                                           eval_rng)
            correct += int((logits.data.argmax(axis=-1) == targets).sum())
            total += len(targets)
    accuracy = correct / total if total else 0.0
    logger.info("pretrain held-out masked-token accuracy: %.4f (%d predictions)",
                accuracy, total)
    model.check_finite()
    return PretrainResult(model, accuracy, total, losses)


# -- checkpoint I/O ---------------------------------------------------------------

_MAGIC = b"MVRECKPT1\n"
_HEADER = {"config", "arrays", "vocab", "extra"}


def save_checkpoint(path: str | Path, model: MlmModel,
                    head_w: np.ndarray | None = None,
                    vocab_payload: dict | None = None,
                    extra: dict | None = None):
    """Single-file checkpoint: JSON header plus raw little-endian float64 arrays."""
    shapes = [(name, p.data.shape) for name, p in model.params().items()]
    blobs = [np.ascontiguousarray(model.params().flat(), dtype="<f8").tobytes()]
    if head_w is not None:
        shapes.append(("view_head.w", np.shape(head_w)))
        blobs.append(np.ascontiguousarray(head_w, dtype="<f8").tobytes())
    header = {
        "config": asdict(model.config),
        "arrays": [{"name": n, "shape": list(s)} for n, s in shapes],
        "vocab": vocab_payload,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    Path(path).write_bytes(b"".join([_MAGIC, struct.pack("<Q", len(blob)), blob, *blobs]))


@dataclass
class Checkpoint:
    model: MlmModel
    head_w: np.ndarray | None
    vocab_payload: dict | None
    extra: dict


def _header_config(config, bad) -> ModelConfig:
    """The model config of a checkpoint header, validated; ``bad(message)``
    makes the error."""
    if not isinstance(config, dict):
        raise bad(f"header field 'config' must be an object, got {config!r}")
    types = {f.name: f.type for f in fields(ModelConfig)}
    if config.keys() != types.keys():
        raise bad(f"header field 'config' has unknown keys "
                  f"{sorted(config.keys() - types.keys())} and lacks "
                  f"{sorted(types.keys() - config.keys())}")
    allowed = {"int": (int,), "float": (int, float), "str": (str,)}
    for key, value in config.items():
        if isinstance(value, bool) or not isinstance(value, allowed[types[key]]):
            raise bad(f"header field 'config.{key}' must be {types[key]}, got {value!r}")
    model_config = ModelConfig(**config)
    try:
        model_config.validate()
    except ValueError as e:
        raise bad(f"header field 'config': {e}") from None
    return model_config


def _header_arrays(arrays, bad) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each array entry of a checkpoint header; each name once."""
    if not isinstance(arrays, list):
        raise bad(f"header field 'arrays' must be a list, got {arrays!r}")
    out = []
    for i, entry in enumerate(arrays):
        if not (isinstance(entry, dict) and entry.keys() == {"name", "shape"}):
            raise bad(f"header field 'arrays[{i}]' must hold exactly 'name' and 'shape', "
                      f"got {entry!r}")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str):
            raise bad(f"header field 'arrays[{i}].name' must be a string, got {name!r}")
        if any(name == seen for seen, _ in out):
            raise bad(f"header field 'arrays[{i}].name' repeats the array {name!r}")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise bad(f"header field 'arrays[{i}].shape' must be a list of sizes, got {shape!r}")
        out.append((name, tuple(shape)))
    return out


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a ``save_checkpoint`` file. A malformed one raises ``ValueError``
    naming the path and, for a bad header, the field; so does one whose arrays
    hold NaN or Inf, naming the first such array."""
    raw = Path(path).read_bytes()

    def bad(message: str) -> ValueError:
        return ValueError(f"{path}: {message}")

    if not raw.startswith(_MAGIC):
        raise ValueError(f"{path} is not a recognized checkpoint file")
    off = len(_MAGIC) + 8
    hlen = struct.unpack_from("<Q", raw, len(_MAGIC))[0] if len(raw) >= off else None
    if hlen is None or off + hlen > len(raw):
        raise bad(f"truncated checkpoint header ({len(raw)} bytes)")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise bad(f"checkpoint header is not UTF-8 JSON: {e}") from None
    off += hlen
    if not isinstance(header, dict) or not {"config", "arrays"} <= header.keys() <= _HEADER:
        raise bad(f"checkpoint header must be an object with the fields {sorted(_HEADER)} "
                  f"('vocab' and 'extra' optional), got "
                  f"{sorted(header) if isinstance(header, dict) else header!r}")
    if not isinstance(header.get("extra", {}), dict):
        raise bad(f"header field 'extra' must be an object, got {header['extra']!r}")
    config = _header_config(header["config"], bad)
    if header.get("vocab") is not None:
        try:
            vocab, _ = vocab_from_payload(header["vocab"])
        except ValueError as e:
            raise bad(f"header field 'vocab': {e}") from None
        if len(vocab) != config.vocab_size:  # each word names one embedding row
            raise bad(f"header field 'vocab' holds {len(vocab)} words, 'config.vocab_size' "
                      f"is {config.vocab_size}")
    entries = _header_arrays(header["arrays"], bad)
    size = off + 8 * sum(math.prod(shape) for _, shape in entries)
    if len(raw) != size:
        raise bad(f"checkpoint is {len(raw)} bytes, its header implies {size}")
    expected = {name: shape for name, (shape, _) in param_table(config).items()}
    values: dict[str, np.ndarray] = {}
    head_w = None
    for name, shape in entries:
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        off += count * 8
        if not np.isfinite(arr).all():
            raise bad(f"checkpoint array {name!r} holds NaN or Inf")
        if name == "view_head.w":
            if shape != (config.d,):
                raise bad(f"view head shape {shape} mismatches d={config.d}")
            head_w = arr.astype(np.float64)
            continue
        if name not in expected:
            raise bad(f"checkpoint contains unknown array {name!r}")
        if shape != expected[name]:
            raise bad(f"checkpoint array {name!r} has shape {shape}, "
                      f"config implies {expected[name]}")
        values[name] = arr
    missing = set(expected) - set(values)
    if missing:
        raise bad(f"checkpoint missing arrays: {sorted(missing)}")
    return Checkpoint(MlmModel(config, values=values), head_w, header.get("vocab"),
                      header.get("extra", {}))
