"""The tiny masked language model: pre-norm transformer with a tied MLM head.

Output logits are always the final hidden states projected against the
transposed token embedding plus a per-token bias, so anything written into
an embedding row (e.g. virtual-word initialization) shapes both input and
output behavior at once.

Everything runs in float64 by default; forward passes are deterministic
functions of (parameters, input), and padded positions are simply trimmed
before the encoder, which keeps them out of attention entirely.
"""

from __future__ import annotations

import io
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
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")


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
    """Parameter store plus forward pass. Parameters live in a flat name->Tensor map."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        dtype = np.dtype(config.dtype)
        rng = np.random.default_rng(seed)
        make = {"normal": lambda shape: rng.normal(0.0, config.init_scale, size=shape),
                "zeros": np.zeros, "ones": np.ones}
        self._params: dict[str, Tensor] = {
            name: ad.parameter(make[init](shape).astype(dtype))
            for name, (shape, init) in param_table(config).items()}

    def params(self) -> dict[str, Tensor]:
        return self._params

    @property
    def token_embed(self) -> Tensor:
        return self._params["token_embed"]

    def param_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def load_param_values(self, values: dict[str, np.ndarray]):
        for k, v in values.items():
            if k not in self._params:
                raise ValueError(f"unknown parameter {k!r}")
            if self._params[k].data.shape != v.shape:
                raise ValueError(f"shape mismatch for {k!r}: "
                                 f"{self._params[k].data.shape} vs {v.shape}")
            self._params[k].data = v.astype(self._params[k].data.dtype, copy=True)

    def copy(self) -> "MlmModel":
        clone = MlmModel(self.config, seed=0)
        clone.load_param_values(self.param_values())
        return clone

    def check_finite(self):
        for name, p in self._params.items():
            if not np.all(np.isfinite(p.data)):
                raise FloatingPointError(f"parameter {name!r} contains NaN/Inf")


# per-block parameter names, in the argument order of the sublayer ops
_ATTENTION = ("ln1.gamma", "ln1.beta", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
              "attn.wv", "attn.bv", "attn.wo", "attn.bo")
_FFN = ("ln2.gamma", "ln2.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


def forward_ids(model: MlmModel, ids: np.ndarray,
                rng: np.random.Generator | None = None,
                train: bool = False) -> tuple[Tensor, Tensor]:
    """Run the encoder over a raw (unpadded) id sequence.

    Returns (hidden, logits); hidden is the post-norm state the head reads.
    """
    cfg = model.config
    ids = np.asarray(ids, dtype=np.int64)
    L = len(ids)
    if L > cfg.max_len:
        raise ValueError(f"sequence length {L} exceeds max_len {cfg.max_len}")
    if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
        raise ValueError("token id out of vocabulary range")
    p = model._params
    drop = cfg.dropout if (train and rng is not None) else 0.0

    x = ad.embedding(p["token_embed"], ids) + ad.index(p["pos_embed"], slice(0, L))
    for i in range(cfg.n_layers):
        b = f"blocks.{i}."
        o = ad.attention_sublayer(x, *(p[b + n] for n in _ATTENTION), n_heads=cfg.n_heads)
        if drop > 0.0:
            o = ad.dropout(o, drop, rng)
        x = x + o
        f = ad.ffn_sublayer(x, *(p[b + n] for n in _FFN))
        if drop > 0.0:
            f = ad.dropout(f, drop, rng)
        x = x + f
    hidden = ad.layer_norm(x, p["final_norm.gamma"], p["final_norm.beta"])
    logits = hidden @ p["token_embed"].T + p["head_bias"]
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


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: dict, lr: float, betas: tuple[float, float] = (0.9, 0.999),
               eps: float = 1e-8, weight_decay: float = 0.0):
    """One decoupled-weight-decay Adam update, in place on params and state.

    All parameters move as one flat vector (a missing gradient counts as
    zeros), so ``state`` holds the flat moments of one fixed parameter set.
    Every element goes through the same expressions as in a per-parameter
    update, so the result does not depend on the grouping.
    """
    b1, b2 = betas
    flat = []
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} mismatches param {name!r} "
                             f"{p.data.shape}")
        flat.append(g.ravel())
    g = np.concatenate(flat)
    w = np.concatenate([p.data.ravel() for p in params.values()])
    if not state:
        state.update(m=np.zeros_like(w), v=np.zeros_like(w), t=0)
    state["t"] += 1
    t = state["t"]
    state["m"] = b1 * state["m"] + (1.0 - b1) * g
    state["v"] = b2 * state["v"] + (1.0 - b2) * (g * g)
    m_hat = state["m"] / (1.0 - b1 ** t)
    v_hat = state["v"] / (1.0 - b2 ** t)
    if weight_decay != 0.0:
        w = w - lr * weight_decay * w
    w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    start = 0
    for p in params.values():
        p.data = w[start : start + p.data.size].reshape(p.data.shape)
        start += p.data.size


class AdamW:
    """Stateful wrapper around :func:`adamw_step` for a fixed parameter set."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.state: dict = {}

    def step(self, grads: dict[str, np.ndarray]):
        adamw_step(self.params, grads, self.state, self.lr, self.betas,
                   self.eps, self.weight_decay)


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
    special = np.array(vocab.special_ids)
    maskable = [np.where(~np.isin(ids, special))[0] for ids in encoded]
    n_hold = int(round(len(encoded) * config.holdout_fraction))
    order = rng.permutation(len(encoded))
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:] if n_hold < len(encoded) else order

    opt = AdamW(model.params(), lr=config.lr, betas=config.betas,
                weight_decay=config.weight_decay)
    losses: list[float] = []
    for step in range(config.steps):
        batch_ids = rng.integers(0, len(train_idx), size=config.batch_size)
        rows, targets = [], []
        for bi in batch_ids:
            i = train_idx[int(bi)]
            corrupted, positions, target = _apply_mlm_mask(
                encoded[i], maskable[i], vocab.mask_id, config.mask_rate, rng)
            _, logits = forward_ids(model, corrupted)
            rows.append(ad.index(logits, positions))
            targets.append(target)
        probs = ad.softmax(ad.concat(rows))
        picked = ad.index(probs, (np.arange(probs.shape[0]), np.concatenate(targets)))
        loss = ad.tmean(-ad.log(picked + 1e-12))
        grads = ad.grad(loss, model.params())
        opt.step(grads)
        losses.append(loss.item())
        if config.log_every and (step + 1) % config.log_every == 0:
            logger.info("pretrain step %d/%d loss %.4f", step + 1, config.steps, losses[-1])

    correct = total = 0
    eval_rng = np.random.default_rng([config.seed, 0xE7A1])
    with ad.no_grad():
        for i in hold_idx:
            corrupted, positions, targets = _apply_mlm_mask(
                encoded[i], maskable[i], vocab.mask_id, config.mask_rate, eval_rng)
            _, logits = forward_ids(model, corrupted)
            preds = logits.data[positions].argmax(axis=-1)
            correct += int((preds == targets).sum())
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
    arrays: list[tuple[str, np.ndarray]] = [
        (name, p.data) for name, p in model.params().items()
    ]
    if head_w is not None:
        arrays.append(("view_head.w", np.asarray(head_w, dtype=np.float64)))
    header = {
        "config": asdict(model.config),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "vocab": vocab_payload,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<Q", len(blob)))
    buf.write(blob)
    for _, a in arrays:
        buf.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


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
        values[name] = arr.astype(np.float64)
    missing = set(expected) - set(values)
    if missing:
        raise ValueError(f"checkpoint missing arrays: {sorted(missing)}")
    model = MlmModel(config, seed=0)
    model.load_param_values(values)
    return Checkpoint(model, head_w, header.get("vocab"), header.get("extra", {}))
