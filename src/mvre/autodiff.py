"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and records the operations applied to it.
:func:`grad` is the one backward pass: it walks the recorded graph of a
scalar loss in reverse topological order into the gradient vectors of
parameter arenas. Gradients live only inside that walk: afterwards no
tensor holds one.

The op set is deliberately small, only what the model uses: add, multiply,
divide and negate, matmul (2-D @ 2-D, or the dot of two vectors), indexing
(the embedding gather), reshape, softmax, layer norm, GELU, sigmoid, log,
row-pair cosine similarity (``cosine_pairs``), per-row dots
(``row_dots``), sum/mean reductions, and the transformer's parts as single
nodes over a packed batch of sequences: ``attention_sublayer`` (layer norm,
Q/K/V, every head and the output projection), ``ffn_sublayer`` (layer norm,
two linear maps around a GELU) and ``TiedEmbedding`` (token plus position
embedding, and the tied output head). A packed batch stacks the rows of all
its sequences into one [sum L, d] array: row-wise math runs once per batch,
every matmul once per sequence, and each op gives the bits of the graph of
small ops, one graph per sequence, that it replaces (see "packed sequences").
Every tensor holds float64: ``Tensor`` converts anything else on the way in.
A model's parameters are packed into an ``Arena``, one flat vector with a
parallel gradient vector (see "parameter arenas"); a packed parameter's
``.data`` must never be rebound.

Training and inference run the same ops: under :func:`no_grad` each op
computes its value and records no graph (no parents, no backward). A packed
batch can be read at a few rows only (:class:`Reads`): the sublayers then
run their row-wise work on those rows alone.

Division propagates gradients through the already-computed quotient
(``d(a/b)/db = -(a/b)/b``) rather than recomputing ``a/b**2``; besides
saving a multiply this makes ``x/x`` contribute an exactly-zero gradient,
which downstream code relies on for bit-reproducible degenerate cases.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
    """A float64 ndarray plus the bookkeeping needed for reverse-mode autodiff.
    ``data`` that already is a float64 ndarray is kept, not copied: an arena's
    parameters view its vector this way."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a fresh array (never an alias of g, which add() hands to both
            # parents), with the bits of zeros + g: -0.0 becomes +0.0
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def _scatter(self, key, g: np.ndarray):
        """``grad[key] += g`` with repeated indices adding up, from zeros if unset."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        np.add.at(self.grad, key, g)

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    """An op's operand as a Tensor; private, so that a profiler wrapping this
    module's public functions does not count each coercion as an op call."""
    return x if isinstance(x, Tensor) else Tensor(x)


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


def matmul(a, b) -> Tensor:
    """``a @ b`` of two matrices, or the dot product of two vectors; any other
    pair of operands raises ``ValueError``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.ndim, b.ndim) not in ((2, 2), (1, 1)):
        raise ValueError(f"matmul takes 2-D @ 2-D or 1-D @ 1-D operands, "
                         f"got shapes {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        else:  # dot product of two vectors
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)

    return _make(out_data, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


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
            a._scatter(key, g)

    return _make(out_data, (a,), backward)


# -- unary functions ------------------------------------------------------

def log(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


# The coefficients of cephes ``erf`` (ndtr.c): ``erf(x) = x T(x*x) / U(x*x)``
# for |x| <= 1, else ``1 - erfc(|x|)`` with x's sign, where
# ``erfc(a) = exp(-a*a) P(a) / Q(a)`` for a < 8. U and Q lead with the 1 that
# cephes ``p1evl`` implies (``x * 1.0`` is exact, so the bits are p1evl's).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """cephes ``polevl``: Horner's rule, one rounding per multiply and per add."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Error function of an array, C-ordered: the bits of ``scipy.special.erf``,
    a numpy transcription of the cephes ``erf`` it runs.

    Each multiply and add rounds once, in cephes' order (numpy fuses none).
    ``exp`` is the C library's: numpy's float64 ``exp`` is a SIMD routine whose
    last bit differs from libm's on some inputs, while its complex128 ``exp``
    calls libm's ``cexp``, which gives ``exp(r)`` for ``r + 0j``. Cephes'
    branch for a >= 8 (other coefficients, and 0 once a*a passes log(DBL_MAX))
    never reaches erf's bits: erfc(8) < 1.2e-29, far below half an ulp of 1,
    so ``1 - erfc`` rounds to 1 for every a >= 8, as it does at a = 8. So a
    is clamped to 8. Only the elements with |x| > 1 pay for ``erfc``.
    """
    with np.errstate(all="ignore"):  # overflow in x*x for huge |x| is overwritten
        flat = np.ravel(x)
        z = flat * flat
        out = _polevl(z, _ERF_T)
        out *= flat
        out /= _polevl(z, _ERF_U)
        far = np.flatnonzero(z > 1.0)  # |x| > 1, NaN excluded
        if far.size:
            xf = flat[far]
            a = np.minimum(np.abs(xf), 8.0)
            e = (-(a * a)).astype(np.complex128)
            np.exp(e, out=e)
            y = _polevl(a, _ERFC_P)
            y *= e.real
            y /= _polevl(a, _ERFC_Q)
            out[far] = np.copysign(1.0 - y, xf)
    return out.reshape(np.shape(x))


def _gelu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of an array and the normal CDF its gradient reuses."""
    cdf = _erf(a * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return a * cdf, cdf


def _gelu_grad(g: np.ndarray, a: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * a * a) * _INV_SQRT_2PI
    return g * (cdf + a * pdf)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact erf form: ``a * 0.5 * (1 + erf(a / sqrt 2))``
    with ``_erf``, the cephes erf on the C library's ``exp``, bit for bit."""
    a = _as_tensor(a)
    out_data, cdf = _gelu(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_gelu_grad(g, a.data, cdf))

    return _make(out_data, (a,), backward)


# -- reductions -----------------------------------------------------------

def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum of every element (``axis=None``) or over one axis."""
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), backward)


def tmean(a) -> Tensor:
    """Mean of every element."""
    a = _as_tensor(a)
    out_data = a.data.mean()

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g / a.data.size, a.data.shape))

    return _make(out_data, (a,), backward)


# -- structured ops ---------------------------------------------------------

def _softmax(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - inner)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    out_data = _softmax(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_softmax_grad(g, out_data))

    return _make(out_data, (a,), backward)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, same bits, without numpy's Python-level
    ``_mean`` wrapper (a sum, then a division by the count)."""
    return np.add.reduce(a, -1, keepdims=True) / a.shape[-1]


def _layer_norm(x: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of an array over its last axis (eps 1e-5), with the normalized
    input and the inverse standard deviation that the backward pass reuses."""
    centered = x - _mean_last(x)
    inv_std = 1.0 / np.sqrt(_mean_last(centered * centered) + 1e-5)
    xhat = centered * inv_std
    out = gamma * xhat
    out += beta
    return out, xhat, inv_std


def _layer_norm_backward(g: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor,
                         xhat: np.ndarray, inv_std: np.ndarray, rows):
    _accumulate_sums(gamma, g * xhat, rows)
    _accumulate_sums(beta, g, rows)
    if x.requires_grad:
        dxhat = g * gamma.data
        term = dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat)
        x._accumulate(term * inv_std)


def layer_norm(x, gamma, beta, rows=None, reads=None) -> Tensor:
    """Normalize the rows of ``x`` [n, d] (eps 1e-5), then scale and shift. ``rows``
    marks packed sequences (see below; default: one sequence); with
    ``reads`` only the rows it names are normalized and returned, in order."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    n = x.data.shape[0]
    rows = [slice(0, n)] if rows is None else rows
    out_data, xhat, inv_std = _layer_norm(_rows(x.data, reads), gamma.data, beta.data)

    def backward(g):
        g, xhat_n, inv_std_n = (_full(a, reads, n) for a in (g, xhat, inv_std))
        _layer_norm_backward(g, x, gamma, beta, xhat_n, inv_std_n, rows)

    return _make(out_data, (x, gamma, beta), backward)


# -- packed sequences ----------------------------------------------------------
#
# A batch of sequences runs packed: the rows of every sequence stacked into one
# [sum L, d] array, sequence s in the row block ``rows[s]`` (a slice). Row-wise
# and elementwise math (layer norm, bias adds, GELU, residual adds) runs once
# over the packed array. Every matmul runs per sequence on its row block,
# because BLAS does not promise a row its bits when the number of rows
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
#
# A caller that reads only some rows (``Reads``) can say so to the last
# layer's sublayers, the final layer norm and the head. Their row-wise work
# (softmax query rows, layer norm, bias adds, GELU) then runs on those rows
# only, while every matmul still runs over whole row blocks, the unread rows
# set to zero: no matmul changes its row count, so each read row keeps its
# bits. A read row's gradient reaches the unread rows of these sublayers as
# exact zeros, as it did when every row was computed and the caller gathered
# its rows, so the backward passes run unchanged on zero-filled rows and each
# parameter gradient keeps its bits too.


def packed_rows(lengths: Sequence[int]) -> list[slice]:
    """Row block of each sequence in a packed array, in order."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return [slice(int(e - n), int(e)) for n, e in zip(lengths, ends)]


class Reads(NamedTuple):
    """The rows a caller reads from a packed batch: ``index`` holds their
    packed row numbers in order, ``positions[s]`` their positions within
    sequence ``s``."""

    index: np.ndarray
    positions: list[np.ndarray]


def read_rows(rows, positions) -> Reads:
    """``Reads`` of the packed blocks ``rows`` at ``positions[s]`` in sequence
    ``s``: strictly increasing positions inside the sequence (possibly none)."""
    if len(positions) != len(rows):
        raise ValueError(f"reads name {len(positions)} sequences, the batch has {len(rows)}")
    local = [np.asarray(p, dtype=np.intp).reshape(-1) for p in positions]
    for s, (r, p) in enumerate(zip(rows, local)):
        if p.size and (p[0] < 0 or p[-1] >= r.stop - r.start or np.any(p[1:] <= p[:-1])):
            raise ValueError(f"read positions of sequence {s} must increase strictly within "
                             f"its {r.stop - r.start} rows, got {p.tolist()}")
    return Reads(np.concatenate([r.start + p for r, p in zip(rows, local)]), local)


def _rows(a: np.ndarray, reads: Reads | None) -> np.ndarray:
    """The read rows of a packed array (``a`` itself when every row is read)."""
    return a if reads is None else a[reads.index]


def _full(a: np.ndarray, reads: Reads | None, n: int) -> np.ndarray:
    """Read rows ``a`` placed back into n packed rows, zeros elsewhere; the
    inverse of ``_rows`` (``a`` itself when every row is read)."""
    if reads is None:
        return a
    out = np.zeros((n, *a.shape[1:]))
    out[reads.index] = a
    return out


def _add_rows(a: np.ndarray, b: np.ndarray, reads: Reads | None):
    """``a += b`` on the read rows of ``a``."""
    if reads is None:
        a += b
    else:
        a[reads.index] += b


def _matmul_rows(x: np.ndarray, w: np.ndarray, rows) -> np.ndarray:
    """``x[r] @ w`` for every row block ``r``, written into one packed array."""
    if len(rows) == 1:  # one block of every row: the same BLAS call
        return x @ w
    out = np.empty((x.shape[0], w.shape[1]))
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


def _merge_heads(heads: np.ndarray) -> np.ndarray:
    """An [H, L, dh] stack as a new C-ordered [L, d] array. (A reshape of the
    transposed stack can return an F-ordered view, whose column sums, e.g. a
    bias gradient, have other bits.)"""
    return np.ascontiguousarray(heads.transpose(1, 0, 2)).reshape(heads.shape[1], -1)


def attention_sublayer(x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo,
                       n_heads: int, rows=None, reads: Reads | None = None) -> Tensor:
    """Pre-norm multi-head self-attention of packed sequences ``x`` [sum L, d], one node.

    With ``xn = layer_norm(x, gamma, beta)`` and ``q, k, v = xn @ w + b``,
    head h reads the columns ``h*dh:(h+1)*dh`` (``dh = d / n_heads``) and
    gives ``softmax(qh @ kh.T * dh**-0.5) @ vh`` within each sequence; the
    heads are concatenated and projected, ``@ wo + bo``. ``rows`` holds each
    sequence's row block (default: one sequence, all rows); with ``reads``
    only the read rows of the output are computed, the others are zero.
    Replays the per-head graph: q, k and v are split once per batch into
    contiguous [H, sum L, dh] stacks, each sequence's heads run as one stacked
    matmul on its rows ``[:, r]`` of them (every head's [L, dh] block a
    contiguous matrix, as in the per-head graph), scores are
    ``(qh @ kh.T) * scale``, the key gradient is ``(qh.T @ g).T`` and the
    gradient of ``xn`` sums the q, k and v paths in that order.
    """
    ts = x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo = tuple(map(
        _as_tensor, (x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo)))
    d = x.data.shape[1]
    if d % n_heads != 0:
        raise ValueError(f"width {d} not divisible by n_heads={n_heads}")
    rows = [slice(0, x.data.shape[0])] if rows is None else rows
    scale = 1.0 / np.sqrt(d // n_heads)
    xn, xhat, inv_std = _layer_norm(x.data, gamma.data, beta.data)
    q, k, v = (_matmul_rows(xn, w.data, rows) for w in (wq, wk, wv))
    q += bq.data
    k += bk.data
    v += bv.data
    qh, kh, vh = (_split_heads(a, n_heads) for a in (q, k, v))
    cat_h, atts = np.empty_like(vh), []
    for s, r in enumerate(rows):
        scores = np.matmul(qh[:, r], kh[:, r].transpose(0, 2, 1))
        if reads is None:
            scores *= scale
            att = _softmax(scores)
        else:  # only the read query rows get a softmax
            att, p = np.zeros_like(scores), reads.positions[s]
            att[:, p] = _softmax(scores[:, p] * scale)
        np.matmul(att, vh[:, r], out=cat_h[:, r])
        atts.append(att)
    cat = _merge_heads(cat_h)
    out_data = _matmul_rows(cat, wo.data, rows)
    _add_rows(out_data, bo.data, reads)

    def backward(g):
        gh = _split_heads(_linear_backward(g, cat, wo, bo, rows), n_heads)
        gqh, gkh, gvh = np.empty_like(qh), np.empty_like(kh), np.empty_like(vh)
        for r, att in zip(rows, atts):
            gs = _softmax_grad(np.matmul(gh[:, r], vh[:, r].transpose(0, 2, 1)), att) * scale
            np.matmul(gs, kh[:, r], out=gqh[:, r])
            gkh[:, r] = np.matmul(qh[:, r].transpose(0, 2, 1), gs).transpose(0, 2, 1)
            np.matmul(att.transpose(0, 2, 1), gh[:, r], out=gvh[:, r])
        gq, gk, gv = (_merge_heads(a) for a in (gqh, gkh, gvh))
        gxn = _linear_backward(gq, xn, wq, bq, rows)
        gxn += _linear_backward(gk, xn, wk, bk, rows)
        gxn += _linear_backward(gv, xn, wv, bv, rows)
        _layer_norm_backward(gxn, x, gamma, beta, xhat, inv_std, rows)

    return _make(out_data, ts, backward)


def ffn_sublayer(x, gamma, beta, w1, b1, w2, b2, rows=None,
                 reads: Reads | None = None) -> Tensor:
    """Pre-norm position-wise feed-forward of packed ``x`` [sum L, d], one node:
    ``gelu(layer_norm(x, gamma, beta) @ w1 + b1) @ w2 + b2``, each matmul per
    row block of ``rows`` (default: all rows); with ``reads`` only the read
    rows of the output are computed, the others are zero."""
    ts = x, gamma, beta, w1, b1, w2, b2 = tuple(map(_as_tensor, (x, gamma, beta, w1, b1, w2, b2)))
    n = x.data.shape[0]
    rows = [slice(0, n)] if rows is None else rows
    # with reads the layer norm, the first bias and the GELU see the read rows only
    xn, xhat, inv_std = _layer_norm(_rows(x.data, reads), gamma.data, beta.data)
    xn = _full(xn, reads, n)
    a = _rows(_matmul_rows(xn, w1.data, rows), reads)
    a += b1.data
    h, cdf = _gelu(a)
    h = _full(h, reads, n)
    out_data = _matmul_rows(h, w2.data, rows)
    _add_rows(out_data, b2.data, reads)

    def backward(g):
        xhat_n, inv_std_n, a_n, cdf_n = (_full(t, reads, n) for t in (xhat, inv_std, a, cdf))
        ga = _gelu_grad(_linear_backward(g, h, w2, b2, rows), a_n, cdf_n)
        gxn = _linear_backward(ga, xn, w1, b1, rows)
        _layer_norm_backward(gxn, x, gamma, beta, xhat_n, inv_std_n, rows)

    return _make(out_data, ts, backward)


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
                for s, r in enumerate(rows):
                    table._scatter(ids[r], g[r])
                    if held is not None:
                        table._accumulate(held[s].T)
            if pos.requires_grad:
                if pos.grad is None:  # a table outside the arenas grad() binds
                    pos.grad = np.zeros_like(pos.data)
                for r in rows:
                    pos.grad[: r.stop - r.start] += g[r]

        return _make(out_data, (table, pos), backward)

    def head(self, hidden, bias, reads: Reads | None = None) -> Tensor:
        """Logits ``hidden @ table.T + bias`` of packed hidden states, or of
        the read rows ``hidden`` holds: those are placed into zero rows, so
        that the matmul of each block keeps its row count."""
        hidden, bias, table, rows = _as_tensor(hidden), _as_tensor(bias), self.table, self.rows
        full = _full(hidden.data, reads, rows[-1].stop)
        out_data = _rows(_matmul_rows(full, table.data.T, rows), reads)
        out_data += bias.data

        def backward(g):
            g = _full(g, reads, full.shape[0])
            _accumulate_sums(bias, g, rows)
            if table.requires_grad:
                self._held = [full[r].T @ g[r] for r in rows]
            if hidden.requires_grad:
                hidden._accumulate(_rows(_matmul_rows(g, table.data, rows), reads))

        return _make(out_data, (hidden, table, bias), backward)


def _pair_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for each row (``y`` may be one broadcast row).

    One stacked matmul of 1 x d by d x 1 products, which numpy hands to
    the same BLAS dot a loop of 1-D ``x[i] @ y[i]`` calls: the same bits.
    """
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def row_dots(a, w) -> Tensor:
    """``a[..., i, :] @ w`` for every row of ``a``, shape ``a.shape[:-1]``.

    Each row is one 1-D BLAS dot, the bits of a loop of vector dots (a
    matrix-vector product runs gemv, whose bits differ). ``w``'s gradient
    adds the rows' terms one at a time, in row order.
    """
    a, w = _as_tensor(a), _as_tensor(w)
    flat = a.data.reshape(-1, a.data.shape[-1])
    out_data = _pair_dots(flat, w.data[None, :]).reshape(a.data.shape[:-1])

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
    rows = np.ascontiguousarray(a.data)  # np.linalg.norm dots a contiguous copy
    norms = np.sqrt(_pair_dots(rows, rows))
    nl, nr = norms[left], norms[right]
    if np.any(nl == 0.0) or np.any(nr == 0.0):
        raise NumericError("cosine similarity undefined for zero-norm vector")
    x, y = a.data[left], a.data[right]
    dots = _pair_dots(x, y)
    c = np.where(np.all(x == y, axis=1), 1.0, dots / (nl * nr))

    def backward(g):
        if a.requires_grad:
            gp, cp, nlr = g[:, None], c[:, None], (nl * nr)[:, None]
            gx = gp * (y / nlr - cp * x / (nl * nl)[:, None])
            gy = gp * (x / nlr - cp * y / (nr * nr)[:, None])
            a._scatter(np.stack([left, right], axis=1).ravel(),
                       np.stack([gx, gy], axis=1).reshape(-1, a.data.shape[1]))

    return _make(c, (a,), backward)


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """The tensors stacked along a new first axis."""
    ts = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts])

    def backward(g):
        for t, piece in zip(ts, g):
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


# -- parameter arenas ----------------------------------------------------------
#
# An arena packs parameters into one flat float64 vector: each ``.data`` is a
# view into it, and a parallel vector holds the gradients. ``grad`` zeroes that
# vector, binds each ``.grad`` to its view for one backward pass, which adds
# into it (``0.0 + g`` has the bits of a fresh ``g + 0.0``, -0.0 becoming +0.0,
# and a parameter the loss never reaches reads zeros), and unbinds them: only
# the call that zeroed a view writes into it. An optimizer then updates the
# vector in place. Packing is the last rebind of ``.data``: write into it
# instead. Every whole-arena read (``Arena.flat``) checks the views, so a
# rebound parameter raises rather than leaving a stale copy in training.
# Callers hand arenas to ``grad``, the optimizer and ``check_finite``
# themselves (see ``arenas``): a parameter does not know its arena.

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


def arenas(params) -> list[Arena]:
    """``params``, an ``Arena`` or a sequence of them, as a list: the form
    :func:`grad`, the optimizer and :func:`check_finite` take. Anything else,
    a plain dict of parameters included, raises ``TypeError``."""
    groups = [params] if isinstance(params, dict) else list(params)
    if not all(isinstance(group, Arena) for group in groups):
        raise TypeError(f"expected an ad.Arena or a sequence of them, got "
                        f"{[type(group).__name__ for group in groups]}")
    return groups


def check_finite(params, when: str = ""):
    """Raise ``FloatingPointError`` naming the first parameter holding NaN/Inf.
    ``params`` is an ``Arena`` or a sequence of them; each is checked as one
    vector, and a failing one is searched for the parameter."""
    for arena in arenas(params):
        if not np.isfinite(arena.flat()).all():
            name = next(n for n, p in arena.items() if not np.isfinite(p.data).all())
            raise FloatingPointError(f"parameter {name!r} contains NaN/Inf{when}")


# -- gradient helpers ---------------------------------------------------------

def grad(loss: Tensor, params) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every parameter of ``params``, an
    ``Arena`` or a sequence of them (see :func:`arenas`): the tape's one
    backward pass.

    Each arena's gradient vector is zeroed and each parameter's ``.grad``
    bound to its view for this pass only, so the arrays returned are those
    views, and a parameter the loss does not reach gets exact zeros. The walk
    visits the recorded graph in reverse topological order and releases each
    node's ``.grad`` as it hands it to the node's backward, so no tensor holds
    a gradient after ``grad`` returns and the same loss differentiated twice
    gives the same gradients. The next ``grad`` on the same arena zeroes and refills
    the views: copy any that must outlive it.
    """
    if not isinstance(loss, Tensor):
        raise ValueError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    groups = arenas(params)
    for arena in groups:
        arena._grad.fill(0.0)
        for p, view in zip(arena.values(), arena._grads):
            p.grad = view
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        g, node.grad = node.grad, None
        if node._backward is not None and g is not None:
            node._backward(g)
    for arena in groups:
        for p in arena.values():
            p.grad = None
    return {name: view for arena in groups for name, view in zip(arena, arena._grads)}
