"""The tiny masked language model: pre-norm transformer with a tied MLM head.

Output logits are always the final hidden states projected against the
transposed token embedding plus a per-token bias, so anything written into
an embedding row (e.g. virtual-word initialization) shapes both input and
output behavior at once.

Everything runs in float64; forward passes are deterministic functions of
(parameters, input), and padded positions are simply trimmed before the
encoder, which keeps them out of attention entirely. A batch runs packed
(``forward_batch``): the live tokens of all its sequences form one
[sum L, d] matrix, so row-wise math runs once per batch while every matmul
and each sequence's attention run per sequence; each sequence gets the bits
it gets alone, and each gradient the bits of one graph per sequence.

The parameters live in one flat vector (an ``autodiff.Arena``), so AdamW,
snapshots, the finiteness check and checkpoints each touch one array.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Dataset
from .errors import ValidationError
from .vocab import EncodedPrompt, Vocab, encode_sentence

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
        if self.d % self.n_heads != 0:
            raise ValueError(f"d={self.d} not divisible by n_heads={self.n_heads}")
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

    def load_param_values(self, values: dict[str, np.ndarray]):
        """Write parameter values in place."""
        views = self._params.unflatten(self._params.flat())
        for k, v in values.items():
            if k not in views:
                raise ValueError(f"unknown parameter {k!r}")
            if views[k].shape != v.shape:
                raise ValueError(f"shape mismatch for {k!r}: {views[k].shape} vs {v.shape}")
            views[k][...] = v

    def copy(self) -> "MlmModel":
        return MlmModel(self.config, values=self.param_values())

    def check_finite(self):
        ad.check_finite(self._params)


# per-block parameter names, in the argument order of the sublayer ops
_ATTENTION = ("ln1.gamma", "ln1.beta", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
              "attn.wv", "attn.bv", "attn.wo", "attn.bo")
_FFN = ("ln2.gamma", "ln2.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


def forward_batch(model: MlmModel, id_seqs, rng: np.random.Generator | None = None,
                  train: bool = False) -> tuple[Tensor, Tensor, np.ndarray]:
    """Run the encoder over a batch of raw (unpadded) id sequences, packed.

    The live tokens of all sequences are stacked into one [sum L, d] matrix
    (``autodiff`` describes the packed layout): layer norms, bias adds, GELU,
    residual adds and the embedding gather run once per batch, every matmul
    and each sequence's attention per sequence. Returns (hidden, logits,
    starts): packed post-norm hidden states [sum L, d], the logits the head
    reads [sum L, V], and each sequence's first row. Every value and
    gradient has the bits of one graph per sequence, and dropout draws its
    masks in that graph's order: sequence, then layer, then attention
    before FFN.
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
    p = model._params
    rows = ad.packed_rows([len(ids) for ids in seqs])
    drop = cfg.dropout if (train and rng is not None) else 0.0
    if drop > 0.0:
        draws = [rng.random((2 * cfg.n_layers, len(ids), cfg.d)) for ids in seqs]

    tied = ad.TiedEmbedding(p["token_embed"], p["pos_embed"], rows)
    x = tied.embed(np.concatenate(seqs))
    for i in range(cfg.n_layers):
        b = f"blocks.{i}."
        o = ad.attention_sublayer(x, *(p[b + n] for n in _ATTENTION), n_heads=cfg.n_heads,
                                  rows=rows)
        if drop > 0.0:
            o = ad.dropout(o, drop, np.concatenate([u[2 * i] for u in draws]))
        x = x + o
        f = ad.ffn_sublayer(x, *(p[b + n] for n in _FFN), rows=rows)
        if drop > 0.0:
            f = ad.dropout(f, drop, np.concatenate([u[2 * i + 1] for u in draws]))
        x = x + f
    hidden = ad.layer_norm(x, p["final_norm.gamma"], p["final_norm.beta"], rows=rows)
    logits = tied.head(hidden, p["head_bias"])
    return hidden, logits, np.array([r.start for r in rows])


def forward_ids(model: MlmModel, ids: np.ndarray,
                rng: np.random.Generator | None = None,
                train: bool = False) -> tuple[Tensor, Tensor]:
    """Run the encoder over one raw (unpadded) id sequence: a batch of one.

    Returns (hidden, logits); hidden is the post-norm state the head reads.
    """
    hidden, logits, _ = forward_batch(model, [ids], rng=rng, train=train)
    return hidden, logits


def forward(model: MlmModel, prompt: EncodedPrompt,
            rng: np.random.Generator | None = None,
            train: bool = False) -> tuple[Tensor, Tensor]:
    """Encode a prompt; PAD positions are excluded by trimming to the live prefix."""
    return forward_ids(model, prompt.ids[: prompt.attention_length], rng=rng,
                       train=train)


def mask_hidden(hidden: Tensor, prompt: EncodedPrompt, j: int) -> Tensor:
    """Final-layer hidden state at the j-th mask (1-based view index)."""
    if not (1 <= j <= prompt.m):
        raise IndexError(f"view index {j} out of range [1, {prompt.m}]")
    return ad.index(hidden, prompt.mask_positions[j - 1])


# -- optimizer ------------------------------------------------------------------


def adamw_step(params, grads: dict[str, np.ndarray], state: dict, lr: float,
               betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
               weight_decay: float = 0.0):
    """One decoupled-weight-decay Adam update, in place on params and state.

    ``params`` is a name -> parameter dict or a sequence of them, as for
    ``ad.grad``. An ``ad.Arena`` moves as one vector and reads its gradient
    vector, so ``grads`` must hold the views ``ad.grad`` returned for it; a
    plain dict moves parameter by parameter, a missing gradient counting as
    zeros. Each update runs in place through two scratch vectors, and each
    element goes through the expressions of a per-parameter update in the
    same association, so the grouping does not change a bit.
    """
    b1, b2 = betas
    slots = []  # (values, gradient): one per arena, one per loose parameter
    for group in ad.param_groups(params):
        if isinstance(group, ad.Arena):
            slots.append((group.flat(), group.grad_vector(grads)))
            continue
        for name, p in group.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} mismatches param {name!r} "
                                 f"{p.data.shape}")
            slots.append((p.data, g))
    if not state:
        n = max((w.size for w, _ in slots), default=0)
        state.update(m=[np.zeros_like(w) for w, _ in slots],
                     v=[np.zeros_like(w) for w, _ in slots], t=0, scratch=np.empty((2, n)))
    state["t"] += 1
    t = state["t"]
    for (w, g), m, v in zip(slots, state["m"], state["v"]):
        s, u = (x.reshape(w.shape) for x in state["scratch"][:, : w.size])
        if weight_decay != 0.0:
            w -= np.multiply(w, lr * weight_decay, out=s)  # w - lr * weight_decay * w
        m *= b1  # m = b1 * m + (1 - b1) * g
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2  # v = b2 * v + (1 - b2) * (g * g)
        v += np.multiply(np.multiply(g, g, out=s), 1.0 - b2, out=s)
        np.divide(m, 1.0 - b1 ** t, out=s)  # m_hat
        np.divide(v, 1.0 - b2 ** t, out=u)  # v_hat
        np.sqrt(u, out=u)  # w - lr * m_hat / (sqrt(v_hat) + eps)
        u += eps
        s *= lr
        s /= u
        w -= s


class AdamW:
    """Stateful wrapper around :func:`adamw_step` for a fixed parameter set;
    a step that leaves a non-finite value raises, naming the parameter."""

    def __init__(self, params, lr: float, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.state: dict = {}

    def step(self, grads: dict[str, np.ndarray]):
        adamw_step(self.params, grads, self.state, self.lr, self.betas,
                   self.eps, self.weight_decay)
        ad.check_finite(self.params, f" after AdamW step {self.state['t']}")


# -- masked-token pretraining ---------------------------------------------------


@dataclass
class PretrainConfig:
    steps: int = 3000
    batch_size: int = 8
    lr: float = 2e-3
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.0
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
    untouched.
    """
    if not corpus.instances:
        raise ValueError("pretraining corpus is empty")
    config.validate()
    rng = np.random.default_rng([config.seed, 0xA11])
    encoded = [encode_sentence(inst, vocab) for inst in corpus.instances]
    maskable = maskable_positions(encoded, vocab)
    n_hold = int(round(len(encoded) * config.holdout_fraction))
    if n_hold >= len(encoded):
        raise ValidationError(f"pretrain holdout_fraction={config.holdout_fraction} holds out "
                              f"all {len(encoded)} sentences, leaving none to train on")
    order = rng.permutation(len(encoded))
    hold_idx, train_idx = order[:n_hold], order[n_hold:]

    def masked_batch(indices, mask_rng):
        """Mask each sentence in turn; the packed rows and targets of the masks."""
        seqs, positions, targets = [], [], []
        for i in indices:
            corrupted, pos, target = _apply_mlm_mask(
                encoded[i], maskable[i], vocab.mask_id, config.mask_rate, mask_rng)
            seqs.append(corrupted)
            positions.append(pos)
            targets.append(target)
        _, logits, starts = forward_batch(model, seqs)
        rows = np.concatenate([s + pos for s, pos in zip(starts, positions)])
        return logits, rows, np.concatenate(targets)

    opt = AdamW(model.params(), lr=config.lr, betas=config.betas,
                weight_decay=config.weight_decay)
    losses: list[float] = []
    for step in range(config.steps):
        batch_ids = rng.integers(0, len(train_idx), size=config.batch_size)
        logits, rows, targets = masked_batch(train_idx[batch_ids], rng)
        probs = ad.softmax(ad.index(logits, rows))
        picked = ad.index(probs, (np.arange(len(rows)), targets))
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
            logits, rows, targets = masked_batch(hold_idx[start : start + config.batch_size],
                                                 eval_rng)
            correct += int((logits.data[rows].argmax(axis=-1) == targets).sum())
            total += len(targets)
    accuracy = correct / total if total else 0.0
    logger.info("pretrain held-out masked-token accuracy: %.4f (%d predictions)",
                accuracy, total)
    model.check_finite()
    return PretrainResult(model, accuracy, total, losses)


# -- checkpoint I/O ---------------------------------------------------------------

_MAGIC = b"MVRECKPT1\n"


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


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise ValueError(f"{path} is not a recognized checkpoint file")
    off = len(_MAGIC) + 8
    hlen = struct.unpack_from("<Q", raw, len(_MAGIC))[0] if len(raw) >= off else None
    if hlen is None or off + hlen > len(raw):
        raise ValueError(f"{path}: truncated checkpoint header ({len(raw)} bytes)")
    header = json.loads(raw[off : off + hlen].decode("utf-8"))
    off += hlen
    config = ModelConfig(**header["config"])
    size = off + 8 * sum(int(np.prod(e["shape"])) for e in header["arrays"])
    if len(raw) != size:
        raise ValueError(f"{path}: checkpoint is {len(raw)} bytes, its header "
                         f"implies {size}")
    expected = {name: shape for name, (shape, _) in param_table(config).items()}
    values: dict[str, np.ndarray] = {}
    head_w = None
    for entry in header["arrays"]:
        name, shape = entry["name"], tuple(entry["shape"])
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        off += count * 8
        if name == "view_head.w":
            if shape != (config.d,):
                raise ValueError(f"view head shape {shape} mismatches d={config.d}")
            head_w = arr.astype(np.float64)
            continue
        if name not in expected:
            raise ValueError(f"checkpoint contains unknown array {name!r}")
        if shape != expected[name]:
            raise ValueError(f"checkpoint array {name!r} has shape {shape}, "
                             f"config implies {expected[name]}")
        values[name] = arr
    missing = set(expected) - set(values)
    if missing:
        raise ValueError(f"checkpoint missing arrays: {sorted(missing)}")
    return Checkpoint(MlmModel(config, values=values), head_w, header.get("vocab"),
                      header.get("extra", {}))
