"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and records the operations applied to it.
Calling :meth:`Tensor.backward` on a scalar walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

The op set is deliberately small: elementwise arithmetic, matmul,
embedding gather / indexing, softmax, layer norm, GELU/tanh, sigmoid,
log/exp, row-pair cosine similarity (``cosine_pairs``), sum/mean
reductions, and the two transformer sublayers of one sequence as single
nodes: ``attention_sublayer`` (layer norm, Q/K/V, every head and the output
projection) and ``ffn_sublayer`` (layer norm, two linear maps around a
GELU), each bit for bit equal to the graph of small ops it replaces.
Everything runs in the dtype of its inputs (float64 by default throughout
the package).

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


def grad_enabled() -> bool:
    return _GRAD_ENABLED


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


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of an array over its last axis, with the normalized input
    and the inverse standard deviation that the backward pass reuses."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return gamma * xhat + beta, xhat, inv_std


def _layer_norm_backward(g: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor,
                         xhat: np.ndarray, inv_std: np.ndarray):
    if gamma.requires_grad:
        gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape))
    if beta.requires_grad:
        beta._accumulate(_unbroadcast(g, beta.data.shape))
    if x.requires_grad:
        dxhat = g * gamma.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(term * inv_std)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    out_data, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data, eps)
    return _make(out_data, (x, gamma, beta),
                 lambda g: _layer_norm_backward(g, x, gamma, beta, xhat, inv_std))


# -- transformer sublayers ---------------------------------------------------
#
# Each sublayer of one sequence is one node whose forward and backward replay
# the numpy calls of the graph of small nodes it stands for, operand layouts
# included, so values and gradients keep their bits. That graph stored every
# intermediate gradient with ``+ 0.0`` (-0.0 became +0.0); the replay skips
# it, because the sign of a zero changes no nonzero result of the sums and
# products below, and every gradient that leaves the node is stored through
# ``_accumulate``, which makes the same -0.0 -> +0.0 change.


def _linear_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """Backward of the node pair ``x @ w + b`` for a 2-D ``x``: accumulates the
    bias and weight gradients and returns the gradient of ``x``."""
    if b.requires_grad:
        b._accumulate(_unbroadcast(g, b.data.shape))
    if w.requires_grad:
        w._accumulate(x.T @ g)
    return g @ w.data.T


def attention_sublayer(x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo,
                       n_heads: int) -> Tensor:
    """Pre-norm multi-head self-attention of one sequence ``x`` [L, d], one node.

    With ``xn = layer_norm(x, gamma, beta)`` and ``q, k, v = xn @ w + b``,
    head h reads the columns ``h*dh:(h+1)*dh`` (``dh = d / n_heads``) and
    gives ``softmax(qh @ kh.T * dh**-0.5) @ vh``; the heads are concatenated
    and projected, ``@ wo + bo``. Replays the former per-head graph: each
    head's q, k and v are contiguous copies, scores are ``(qh @ kh.T) *
    scale``, the key gradient is ``(qh.T @ g).T`` and the gradient of ``xn``
    sums the q, k and v paths in that order.
    """
    x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo = map(
        _as_tensor, (x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo))
    d = x.data.shape[1]
    if d % n_heads != 0:
        raise ValueError(f"width {d} not divisible by n_heads={n_heads}")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    xn, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data)
    q = xn @ wq.data + bq.data
    k = xn @ wk.data + bk.data
    v = xn @ wv.data + bv.data
    cols = [slice(h * dh, (h + 1) * dh) for h in range(n_heads)]
    qs, ks, vs = ([np.array(a[:, c]) for c in cols] for a in (q, k, v))
    atts = [_softmax((qh @ kh.T) * scale, -1) for qh, kh in zip(qs, ks)]
    cat = np.concatenate([att @ vh for att, vh in zip(atts, vs)], axis=1)
    out_data = cat @ wo.data + bo.data

    def backward(g):
        gcat = _linear_backward(g, cat, wo, bo)
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for c, qh, kh, vh, att in zip(cols, qs, ks, vs, atts):
            gh = np.array(gcat[:, c])  # contiguous, as the head node stored it
            gs = _softmax_grad(gh @ vh.T, att, -1) * scale
            gq[:, c] = gs @ kh
            gk[:, c] = (qh.T @ gs).T
            gv[:, c] = att.T @ gh
        gxn = _linear_backward(gq, xn, wq, bq)
        gxn += _linear_backward(gk, xn, wk, bk)
        gxn += _linear_backward(gv, xn, wv, bv)
        _layer_norm_backward(gxn, x, gamma, beta, xhat, inv_std)

    return _make(out_data, (x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def ffn_sublayer(x, gamma, beta, w1, b1, w2, b2) -> Tensor:
    """Pre-norm position-wise feed-forward of ``x`` [L, d], one node:
    ``gelu(layer_norm(x, gamma, beta) @ w1 + b1) @ w2 + b2``."""
    x, gamma, beta, w1, b1, w2, b2 = map(_as_tensor, (x, gamma, beta, w1, b1, w2, b2))
    xn, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data)
    a = xn @ w1.data + b1.data
    h, cdf = _gelu(a)
    out_data = h @ w2.data + b2.data

    def backward(g):
        ga = _gelu_grad(_linear_backward(g, h, w2, b2), a, cdf)
        gxn = _linear_backward(ga, xn, w1, b1)
        _layer_norm_backward(gxn, x, gamma, beta, xhat, inv_std)

    return _make(out_data, (x, gamma, beta, w1, b1, w2, b2), backward)


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


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with an explicit generator; identity when rate is 0."""
    a = _as_tensor(a)
    if rate <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    out_data = a.data * keep

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _make(out_data, (a,), backward)


# -- gradient helpers ---------------------------------------------------------

def zero_grads(params: dict[str, Tensor]):
    for p in params.values():
        p.zero_grad()


def grad(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every registered parameter.

    Parameters the loss does not depend on receive zero arrays of the
    matching shape.
    """
    if not isinstance(loss, Tensor):
        raise ValueError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    zero_grads(params)
    loss.backward()
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
