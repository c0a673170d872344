"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and records the operations applied to it.
Calling :meth:`Tensor.backward` on a scalar walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

The op set is deliberately small: elementwise arithmetic, matmul,
embedding gather / indexing, softmax, layer norm, GELU/tanh, sigmoid,
log/exp, row-pair cosine similarity (``cosine_pairs``), per-row dots
(``row_dots``), sum/mean reductions, and the transformer's parts as single
nodes over a packed batch of sequences: ``attention_sublayer`` (layer norm,
Q/K/V, every head and the output projection), ``ffn_sublayer`` (layer norm,
two linear maps around a GELU) and ``TiedEmbedding`` (token plus position
embedding, and the tied output head). A packed batch stacks the rows of all
its sequences into one [sum L, d] array: row-wise math runs once per batch,
every matmul once per sequence, and each op gives the bits of the graph of
small ops, one graph per sequence, that it replaces (see "packed sequences").
Everything runs in the dtype of its inputs (float64 by default throughout
the package). A model's parameters are packed into an ``Arena``, one flat
vector with a parallel gradient vector (see "parameter arenas"); a packed
parameter's ``.data`` must never be rebound.

Division propagates gradients through the already-computed quotient
(``d(a/b)/db = -(a/b)/b``) rather than recomputing ``a/b**2``; besides
saving a multiply this makes ``x/x`` contribute an exactly-zero gradient,
which downstream code relies on for bit-reproducible degenerate cases.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError

_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """An ndarray plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a fresh array (never an alias of g, which add() hands to both
            # parents), with the bits of zeros + g: -0.0 becomes +0.0
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return index(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    return data if isinstance(data, Tensor) else Tensor(data)


def parameter(data) -> Tensor:
    """A leaf tensor that collects gradients."""
    t = Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)
    return t


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes that broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            # quotient form: exact zero when a and b hold identical values
            b._accumulate(_unbroadcast(-(g * out_data) / b.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    exponent = float(exponent)
    out_data = a.data ** exponent

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.ndim}-D @ {b.ndim}-D")
    out_data = a.data @ b.data

    def backward(g):
        if a.ndim == 2 and b.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        elif a.ndim == 1 and b.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(np.outer(a.data, g))
        elif a.ndim == 2 and b.ndim == 1:
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        else:  # dot product of two vectors
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)

    return _make(out_data, (a, b), backward)


def dot(a, b) -> Tensor:
    return matmul(a, b)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    out_data = a.data.T

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(out_data, (a,), backward)


# -- indexing -----------------------------------------------------------

def index(a, key) -> Tensor:
    """``a[key]`` with gradient scattered back via ``np.add.at``."""
    a = _as_tensor(a)
    out_data = np.array(a.data[key])

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, key, g)

    return _make(out_data, (a,), backward)


def embedding(table, ids) -> Tensor:
    """Gather rows of an embedding table by integer id."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ValueError("embedding ids must be integers")
    return index(table, ids)


# -- unary functions ------------------------------------------------------

def log(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def _gelu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of an array and the normal CDF its gradient reuses."""
    cdf = 0.5 * (1.0 + erf(a * _INV_SQRT2))
    return a * cdf, cdf


def _gelu_grad(g: np.ndarray, a: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * a * a) * _INV_SQRT_2PI
    return g * (cdf + a * pdf)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    a = _as_tensor(a)
    out_data, cdf = _gelu(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_gelu_grad(g, a.data, cdf))

    return _make(out_data, (a,), backward)


# -- reductions -----------------------------------------------------------

def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims))

    return _make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.data.shape, axis, keepdims) / n)

    return _make(out_data, (a,), backward)


# -- structured ops ---------------------------------------------------------

def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    out_data = _softmax(a.data, axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_softmax_grad(g, out_data, axis))

    return _make(out_data, (a,), backward)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, same bits, without numpy's Python-level
    ``_mean`` wrapper (a sum, then a division by the count)."""
    return np.add.reduce(a, -1, keepdims=True) / a.shape[-1]


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of an array over its last axis, with the normalized input
    and the inverse standard deviation that the backward pass reuses."""
    centered = x - _mean_last(x)
    inv_std = 1.0 / np.sqrt(_mean_last(centered * centered) + eps)
    xhat = centered * inv_std
    return gamma * xhat + beta, xhat, inv_std


def _layer_norm_backward(g: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor,
                         xhat: np.ndarray, inv_std: np.ndarray, rows):
    _accumulate_sums(gamma, g * xhat, rows)
    _accumulate_sums(beta, g, rows)
    if x.requires_grad:
        dxhat = g * gamma.data
        term = dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat)
        x._accumulate(term * inv_std)


def layer_norm(x, gamma, beta, eps: float = 1e-5, rows=None) -> Tensor:
    """Normalize the rows of ``x`` [n, d], then scale and shift. ``rows``
    marks packed sequences (see below; default: one sequence)."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    rows = [slice(0, x.data.shape[0])] if rows is None else rows
    out_data, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data, eps)
    return _make(out_data, (x, gamma, beta),
                 lambda g: _layer_norm_backward(g, x, gamma, beta, xhat, inv_std, rows))


# -- packed sequences ----------------------------------------------------------
#
# A batch of sequences runs packed: the rows of every sequence stacked into one
# [sum L, d] array, sequence s in the row block ``rows[s]`` (a slice). Row-wise
# and elementwise math (layer norm, bias adds, GELU, residual adds, dropout)
# runs once over the packed array. Every matmul runs per sequence on its row
# block, because BLAS does not promise a row its bits when the number of rows
# changes, and attention mixes the rows of one sequence only. A parameter's
# gradient is a sum of per-sequence terms (``x[s].T @ g[s]``,
# ``g[s].sum(axis=0)``) added in batch order. So each sequence gets the bits
# it gets when it runs alone, and each gradient the bits of one graph per
# sequence whose backward pass visits the sequences in batch order.
#
# The transformer sublayers are one node each, and their forward and backward
# replay the numpy calls of the graph of small nodes they stand for, operand
# layouts included. That graph stored every intermediate gradient with
# ``+ 0.0`` (-0.0 became +0.0); the replay skips it, because the sign of a
# zero changes no nonzero result of the sums and products below, and every
# gradient that leaves a node is stored through ``_accumulate``, which makes
# the same -0.0 -> +0.0 change.


def packed_rows(lengths: Sequence[int]) -> list[slice]:
    """Row block of each sequence in a packed array, in order."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return [slice(int(e - n), int(e)) for n, e in zip(lengths, ends)]


def _matmul_rows(x: np.ndarray, w: np.ndarray, rows) -> np.ndarray:
    """``x[r] @ w`` for every row block ``r``, written into one packed array."""
    out = np.empty((x.shape[0], w.shape[1]), dtype=np.result_type(x, w))
    for r in rows:
        np.matmul(x[r], w, out=out[r])
    return out


def _accumulate_sums(p: Tensor, g: np.ndarray, rows):
    """Gradient of a parameter broadcast over the rows of ``g``: the column
    sums of each row block, accumulated in batch order. (``np.add.reduceat``
    would sum the same blocks with other bits.)"""
    if p.requires_grad:
        for r in rows:
            p._accumulate(np.add.reduce(g[r], 0))  # g[r].sum(axis=0) without its wrapper


def _linear_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor, rows) -> np.ndarray:
    """Backward of ``x @ w + b`` over packed rows: accumulates the bias and
    weight gradients and returns the gradient of ``x``."""
    _accumulate_sums(b, g, rows)
    if w.requires_grad:
        for r in rows:
            w._accumulate(x[r].T @ g[r])
    return _matmul_rows(g, w.data.T, rows)


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[L, d] -> a contiguous [H, L, dh] stack, head h holding columns h*dh:(h+1)*dh."""
    return np.ascontiguousarray(a.reshape(a.shape[0], n_heads, -1).transpose(1, 0, 2))


def _merge_heads(out: np.ndarray, heads: np.ndarray):
    """Write an [H, L, dh] stack into the C-ordered [L, d] block ``out``. (A
    reshape of the transposed stack can return an F-ordered view, whose column
    sums, e.g. a bias gradient, have other bits.)"""
    out.reshape(out.shape[0], heads.shape[0], -1)[...] = heads.transpose(1, 0, 2)


def attention_sublayer(x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo,
                       n_heads: int, rows=None) -> Tensor:
    """Pre-norm multi-head self-attention of packed sequences ``x`` [sum L, d], one node.

    With ``xn = layer_norm(x, gamma, beta)`` and ``q, k, v = xn @ w + b``,
    head h reads the columns ``h*dh:(h+1)*dh`` (``dh = d / n_heads``) and
    gives ``softmax(qh @ kh.T * dh**-0.5) @ vh`` within each sequence; the
    heads are concatenated and projected, ``@ wo + bo``. ``rows`` holds each
    sequence's row block (default: one sequence, all rows). Replays the
    per-head graph: each sequence's heads run as one contiguous [H, L, dh]
    stack, scores are ``(qh @ kh.T) * scale``, the key gradient is
    ``(qh.T @ g).T`` and the gradient of ``xn`` sums the q, k and v paths in
    that order.
    """
    x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo = map(
        _as_tensor, (x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo))
    d = x.data.shape[1]
    if d % n_heads != 0:
        raise ValueError(f"width {d} not divisible by n_heads={n_heads}")
    rows = [slice(0, x.data.shape[0])] if rows is None else rows
    scale = 1.0 / np.sqrt(d // n_heads)
    xn, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data)
    q, k, v = (_matmul_rows(xn, w.data, rows) + b.data
               for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    cat = np.empty_like(q)
    stacks = []
    for r in rows:
        qs, ks, vs = (_split_heads(a[r], n_heads) for a in (q, k, v))
        att = _softmax(np.matmul(qs, ks.transpose(0, 2, 1)) * scale, -1)
        _merge_heads(cat[r], np.matmul(att, vs))
        stacks.append((qs, ks, vs, att))
    out_data = _matmul_rows(cat, wo.data, rows)
    out_data += bo.data

    def backward(g):
        gcat = _linear_backward(g, cat, wo, bo, rows)
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for r, (qs, ks, vs, att) in zip(rows, stacks):
            gh = _split_heads(gcat[r], n_heads)
            gs = _softmax_grad(np.matmul(gh, vs.transpose(0, 2, 1)), att, -1) * scale
            _merge_heads(gq[r], np.matmul(gs, ks))
            _merge_heads(gk[r], np.matmul(qs.transpose(0, 2, 1), gs).transpose(0, 2, 1))
            _merge_heads(gv[r], np.matmul(att.transpose(0, 2, 1), gh))
        gxn = _linear_backward(gq, xn, wq, bq, rows)
        gxn += _linear_backward(gk, xn, wk, bk, rows)
        gxn += _linear_backward(gv, xn, wv, bv, rows)
        _layer_norm_backward(gxn, x, gamma, beta, xhat, inv_std, rows)

    return _make(out_data, (x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def ffn_sublayer(x, gamma, beta, w1, b1, w2, b2, rows=None) -> Tensor:
    """Pre-norm position-wise feed-forward of packed ``x`` [sum L, d], one node:
    ``gelu(layer_norm(x, gamma, beta) @ w1 + b1) @ w2 + b2``, each matmul per
    row block of ``rows`` (default: all rows)."""
    x, gamma, beta, w1, b1, w2, b2 = map(_as_tensor, (x, gamma, beta, w1, b1, w2, b2))
    rows = [slice(0, x.data.shape[0])] if rows is None else rows
    xn, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data)
    a = _matmul_rows(xn, w1.data, rows)
    a += b1.data
    h, cdf = _gelu(a)
    out_data = _matmul_rows(h, w2.data, rows)
    out_data += b2.data

    def backward(g):
        ga = _gelu_grad(_linear_backward(g, h, w2, b2, rows), a, cdf)
        gxn = _linear_backward(ga, xn, w1, b1, rows)
        _layer_norm_backward(gxn, x, gamma, beta, xhat, inv_std, rows)

    return _make(out_data, (x, gamma, beta, w1, b1, w2, b2), backward)


class TiedEmbedding:
    """Input embedding and tied output head of packed sequences, two nodes.

    ``embed`` gathers token rows of ``table`` plus position rows of
    ``pos_table``; ``head`` projects hidden states on ``table.T`` and adds a
    bias. One graph per sequence sums ``table``'s gradient interleaved:
    the gather of sequence 0, the head of sequence 0, the gather of sequence
    1, and so on. To keep those bits the head node holds its per-sequence
    parts of that gradient, and the embed node adds them in that order. Its
    backward pass runs after the head's, since the head reads states computed
    from the embedding; ``head`` must be given such states.
    """

    def __init__(self, table, pos_table, rows):
        self.table, self.pos_table = _as_tensor(table), _as_tensor(pos_table)
        self.rows = rows
        self._held: list[np.ndarray] | None = None

    def embed(self, ids: np.ndarray) -> Tensor:
        """Token plus position embedding of packed ids; positions restart at 0
        in each row block."""
        table, pos, rows = self.table, self.pos_table, self.rows
        positions = np.concatenate([np.arange(r.stop - r.start) for r in rows])
        out_data = table.data[ids] + pos.data[positions]

        def backward(g):
            held, self._held = self._held, None
            if table.requires_grad:
                if table.grad is None:
                    table.grad = np.zeros_like(table.data)
                for s, r in enumerate(rows):
                    np.add.at(table.grad, ids[r], g[r])
                    if held is not None:
                        table._accumulate(held[s].T)
            if pos.requires_grad:
                if pos.grad is None:
                    pos.grad = np.zeros_like(pos.data)
                for r in rows:
                    pos.grad[: r.stop - r.start] += g[r]

        return _make(out_data, (table, pos), backward)

    def head(self, hidden, bias) -> Tensor:
        """Logits ``hidden @ table.T + bias`` of packed hidden states."""
        hidden, bias, table, rows = _as_tensor(hidden), _as_tensor(bias), self.table, self.rows
        out_data = _matmul_rows(hidden.data, table.data.T, rows)
        out_data += bias.data

        def backward(g):
            _accumulate_sums(bias, g, rows)
            if table.requires_grad:
                self._held = [hidden.data[r].T @ g[r] for r in rows]
            if hidden.requires_grad:
                hidden._accumulate(_matmul_rows(g, table.data, rows))

        return _make(out_data, (hidden, table, bias), backward)


def row_dots(a, w) -> Tensor:
    """``a[..., i, :] @ w`` for every row of ``a``, shape ``a.shape[:-1]``.

    Each row is one 1-D BLAS dot, the bits of a loop of vector dots (a
    matrix-vector product runs gemv, whose bits differ). ``w``'s gradient
    adds the rows' terms one at a time, in row order.
    """
    a, w = _as_tensor(a), _as_tensor(w)
    flat = a.data.reshape(-1, a.data.shape[-1])
    out_data = np.array([w.data @ row for row in flat]).reshape(a.data.shape[:-1])

    def backward(g):
        if w.requires_grad:
            for gi, row in zip(g.reshape(-1), flat):
                w._accumulate(gi * row)
        if a.requires_grad:
            a._accumulate(g[..., None] * w.data)

    return _make(out_data, (a, w), backward)


def cosine_pairs(a, left, right) -> Tensor:
    """Cosine similarity of the row pairs ``(a[left[p]], a[right[p]])``, shape [P].

    Gives the bits of one scalar cosine per pair: each row norm is
    ``np.linalg.norm`` of that row and each pair's dot the 1-D ``x @ y``
    BLAS call (a Gram matrix ``a @ a.T`` runs dgemm, whose bits differ).
    Identical rows yield exactly 1.0 (their true cosine), with the
    correspondingly exact zero gradient, instead of a value one rounding
    step away from 1. The backward pass scatters the pair gradients in the
    order ``left[0], right[0], left[1], right[1], ...``.
    """
    a = _as_tensor(a)
    left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
    if a.ndim != 2 or left.ndim != 1 or left.shape != right.shape:
        raise ValueError("cosine_pairs expects a 2-D tensor and two equal-length index vectors")
    norms = np.array([np.linalg.norm(row) for row in a.data])
    nl, nr = norms[left], norms[right]
    if np.any(nl == 0.0) or np.any(nr == 0.0):
        raise NumericError("cosine similarity undefined for zero-norm vector")
    x, y = a.data[left], a.data[right]
    dots = np.array([u @ v for u, v in zip(x, y)])
    c = np.where(np.all(x == y, axis=1), 1.0, dots / (nl * nr))

    def backward(g):
        if a.requires_grad:
            gp, cp, nlr = g[:, None], c[:, None], (nl * nr)[:, None]
            gx = gp * (y / nlr - cp * x / (nl * nl)[:, None])
            gy = gp * (x / nlr - cp * y / (nr * nr)[:, None])
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, np.stack([left, right], axis=1).ravel(),
                      np.stack([gx, gy], axis=1).reshape(-1, a.data.shape[1]))

    return _make(c, (a,), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(ts, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(out_data, ts, backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(out_data, ts, backward)


def dropout(a, rate: float, rng) -> Tensor:
    """Inverted dropout; identity when rate is 0. ``rng`` is a generator, or
    an array of uniform draws of ``a``'s shape drawn from one."""
    a = _as_tensor(a)
    if rate <= 0.0:
        return a
    draws = rng.random(a.data.shape) if isinstance(rng, np.random.Generator) else rng
    keep = (draws >= rate).astype(a.data.dtype) / (1.0 - rate)
    out_data = a.data * keep

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _make(out_data, (a,), backward)


# -- parameter arenas ----------------------------------------------------------
#
# An arena packs parameters into one flat float64 vector: each ``.data`` is a
# view into it, and a parallel vector holds the gradients. ``grad`` zeroes that
# vector and binds each ``.grad`` to its view, so the backward pass adds into it
# (``0.0 + g`` has the bits of a fresh ``g + 0.0``, -0.0 becoming +0.0, and a
# parameter the loss never reaches reads zeros); an optimizer then updates the
# vector in place. Packing is the last rebind of ``.data``: write into it
# instead. Every whole-arena read (``Arena.flat``) checks the views, so a
# rebound parameter raises rather than leaving a stale copy in training.
# Callers hand arenas to ``grad`` and the optimizer themselves: a parameter
# does not know its arena.

class Arena(dict):
    """Name -> new leaf ``Tensor`` holding ``values[name]``, packed in order."""

    def __init__(self, values: dict[str, np.ndarray]):
        super().__init__()
        starts = np.cumsum([0] + [np.size(v) for v in values.values()])
        self._layout = [(name, slice(s, e), np.shape(v))
                        for (name, v), s, e in zip(values.items(), starts, starts[1:])]
        self._flat, self._grad = np.empty(starts[-1]), np.zeros(starts[-1])
        self._views = tuple(self.unflatten(self._flat).values())
        self._grads = tuple(self.unflatten(self._grad).values())
        for (name, v), view in zip(values.items(), self._views):
            view[...] = v
            self[name] = Tensor(view, requires_grad=True)

    def __reduce__(self):  # unpickled, the views would be loose copies: repack them
        return Arena, (self.unflatten(self.flat()),)

    def unflatten(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of a flat vector laid out like this arena."""
        return {name: vec[sl].reshape(shape) for name, sl, shape in self._layout}

    def flat(self) -> np.ndarray:
        """The parameter vector, once every parameter is checked to view it."""
        for (name, p), view in zip(self.items(), self._views):
            if p.data is not view:
                raise ValueError(f"parameter {name!r} no longer views its arena: .data rebound")
        return self._flat

    def grad_vector(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """The gradient vector, once ``grads`` is checked to hold its views, as
        :func:`grad` returns them."""
        for name, view in zip(self, self._grads):
            if grads.get(name) is not view:
                raise ValueError(f"gradient of {name!r} is not its arena view: "
                                 f"pass the gradients grad() returns for this arena")
        return self._grad


def param_groups(params) -> list[dict[str, Tensor]]:
    """``params`` as a list of name -> parameter dicts: it is one such dict (an
    ``Arena`` or a plain dict) or a sequence of them."""
    return [params] if isinstance(params, dict) else list(params)


def check_finite(params, when: str = ""):
    """Raise ``FloatingPointError`` naming the first parameter holding NaN/Inf;
    an arena is checked as one vector first."""
    for group in param_groups(params):
        if isinstance(group, Arena) and np.isfinite(group.flat()).all():
            continue
        for name, p in group.items():
            if not np.isfinite(p.data).all():
                raise FloatingPointError(f"parameter {name!r} contains NaN/Inf{when}")


# -- gradient helpers ---------------------------------------------------------

def grad(loss: Tensor, params) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every parameter in ``params`` (one name
    -> parameter dict or a sequence of them, see :func:`param_groups`).

    An ``Arena``'s gradient vector is zeroed and each parameter's ``.grad``
    bound to its view first, so the arrays returned for an arena's parameters
    are those views: the next ``grad`` on that arena overwrites them, so copy
    any that must outlive it. Parameters the loss does not depend on receive
    zeros of matching shape.
    """
    if not isinstance(loss, Tensor):
        raise ValueError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    groups = param_groups(params)
    for group in groups:
        if isinstance(group, Arena):
            group._grad.fill(0.0)
            for p, view in zip(group.values(), group._grads):
                p.grad = view
        else:
            for p in group.values():
                p.grad = None
    loss.backward()
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for group in groups for name, p in group.items()}
