"""Shared numeric oracles and file helpers for the test suite."""

import json
import math
import struct

import numpy as np
import pytest

from mvre import autodiff as ad


def central_difference(f, params: dict[str, ad.Tensor], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Gradient of scalar f() w.r.t. every entry of every parameter.

    Perturbs one entry at a time and re-evaluates the full computation;
    independent of the reverse-mode path it checks.
    """
    out = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                f_plus = float(f().data)
            flat[i] = orig - h
            with ad.no_grad():
                f_minus = float(f().data)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        out[name] = g
    return out


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray]) -> float:
    """Per-array sup-norm discrepancy, normalized by the larger gradient scale."""
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
        worst = max(worst, float(np.abs(a - n).max(initial=0.0)) / denom)
    return worst


def assert_grads_close(f, params, names=None, tol: float = 1e-4, h: float = 1e-5):
    """``ad.grad`` of scalar f() for ``params`` (an ``ad.Arena`` or a sequence
    of them) matches central differences on the parameters ``names`` (all of
    them by default)."""
    analytic = ad.grad(f(), params)
    leaves = {name: p for arena in ad.arenas(params) for name, p in arena.items()}
    names = list(leaves) if names is None else names
    numeric = central_difference(f, {name: leaves[name] for name in names}, h=h)
    err = max_relative_error({name: analytic[name] for name in names}, numeric)
    assert err < tol, f"max relative gradient error {err:.3e} >= {tol}"


def scalar_cosine(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Cosine of two 1-D tensors as one scalar node: the engine's former op.

    ``ad.cosine_pairs`` and the losses built on it must reproduce a graph of
    these nodes bit for bit, in value and gradient.
    """
    na, nb = np.linalg.norm(a.data), np.linalg.norm(b.data)
    c = 1.0 if np.array_equal(a.data, b.data) else float(a.data @ b.data) / (na * nb)

    def backward(g):
        a._accumulate(g * (b.data / (na * nb) - c * a.data / (na * na)))
        b._accumulate(g * (a.data / (na * nb) - c * b.data / (nb * nb)))

    return ad._make(np.asarray(c), (a, b), backward)


def reference_forward_ids(model, ids, rng=None):
    """The encoder over one sequence as a graph of small nodes.

    ``model.forward_batch(model, [ids])`` runs each sublayer as one node and
    must reproduce this graph bit for bit, in hidden states, logits and every
    gradient.
    """
    cfg, p = model.config, model.params()
    ids = np.asarray(ids, dtype=np.int64)
    L = len(ids)
    drop = cfg.dropout if rng is not None else 0.0
    x = ad.index(p["token_embed"], ids) + ad.index(p["pos_embed"], slice(0, L))
    dh = cfg.d // cfg.n_heads
    scale = 1.0 / np.sqrt(dh)
    for i in range(cfg.n_layers):
        b = f"blocks.{i}."
        xn = ad.layer_norm(x, p[b + "ln1.gamma"], p[b + "ln1.beta"])
        q = xn @ p[b + "attn.wq"] + p[b + "attn.bq"]
        k = xn @ p[b + "attn.wk"] + p[b + "attn.bk"]
        v = xn @ p[b + "attn.wv"] + p[b + "attn.bv"]
        heads = []
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
            att = ad.softmax((qh @ kh.T) * scale)
            heads.append(att @ vh)
        o = ad.concat(heads, axis=1) @ p[b + "attn.wo"] + p[b + "attn.bo"]
        if drop > 0.0:
            o = ad.dropout(o, drop, rng.random(o.shape))
        x = x + o
        xn2 = ad.layer_norm(x, p[b + "ln2.gamma"], p[b + "ln2.beta"])
        f = ad.gelu(xn2 @ p[b + "ffn.w1"] + p[b + "ffn.b1"]) @ p[b + "ffn.w2"] + p[b + "ffn.b2"]
        if drop > 0.0:
            f = ad.dropout(f, drop, rng.random(f.shape))
        x = x + f
    hidden = ad.layer_norm(x, p["final_norm.gamma"], p["final_norm.beta"])
    logits = hidden @ p["token_embed"].T + p["head_bias"]
    return hidden, logits


def reference_view_posterior(head, states):
    """The view posterior as one dot and one sigmoid node per view state: the
    former ``losses.view_posterior``."""
    sig = ad.stack([ad.sigmoid(ad.matmul(head.w, h)) for h in states])
    return sig / ad.tsum(sig)


def reference_adamw_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8,
                         weight_decay=0.0):
    """AdamW one parameter at a time, with its moments in ``state``: the
    former ``adamw_step``.

    ``model.AdamW.step`` updates each arena as one flat vector and must give
    the same bits.
    """
    b1, b2 = betas
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        st = state.setdefault(name, {"m": np.zeros_like(p.data),
                                     "v": np.zeros_like(p.data), "t": 0})
        st["t"] += 1
        t = st["t"]
        st["m"] = b1 * st["m"] + (1.0 - b1) * g
        st["v"] = b2 * st["v"] + (1.0 - b2) * (g * g)
        m_hat = st["m"] / (1.0 - b1 ** t)
        v_hat = st["v"] / (1.0 - b2 ** t)
        if weight_decay != 0.0:
            p.data = p.data - lr * weight_decay * p.data
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# cephes ndtr.c, whole: erf for |x| <= 1 (T/U), erfc for 1 <= a < 8 (P/Q) and
# a >= 8 (R/S), underflowing to 0 once a*a > MAXLOG. Q, U and S have an
# implicit leading 1 (p1evl).
_CEPHES_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
             7.00332514112805075473E3, 5.55923013010394962768E4)
_CEPHES_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
             2.26290000613890934246E4, 4.92673942608635921086E4)
_CEPHES_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
             4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
             9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_CEPHES_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
             9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
             1.65666309194161350182E3, 5.57535340817727675546E2)
_CEPHES_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
             6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_CEPHES_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
             1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_CEPHES_MAXLOG = 7.09782712893383996843E2


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def reference_erfc(a: float) -> float:
    """cephes ``erfc``, one Python float operation per C one, on ``math.exp``."""
    if math.isnan(a):
        return math.nan
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - reference_erf(a)
    z = -a * a
    if z < -_CEPHES_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _CEPHES_P), _p1evl(x, _CEPHES_Q)
    else:
        p, q = _polevl(x, _CEPHES_R), _p1evl(x, _CEPHES_S)
    y = (z * p) / q
    if a < 0.0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0.0 else 0.0
    return y


def reference_erf(x: float) -> float:
    """cephes ``erf``, the function ``scipy.special.erf`` runs: the oracle of
    ``autodiff._erf``."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -reference_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - reference_erfc(x)
    z = x * x
    return x * _polevl(z, _CEPHES_T) / _p1evl(z, _CEPHES_U)


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header in place, keeping the arrays."""
    raw = path.read_bytes()
    start = len(b"MVRECKPT1\n") + 8
    hlen = struct.unpack_from("<Q", raw, start - 8)[0]
    header = json.loads(raw[start : start + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[: start - 8] + struct.pack("<Q", len(blob)) + blob
                     + raw[start + hlen :])


def write_array_value(path, name, index, value):
    """Set entry ``index`` (of the flattened array) of the checkpoint array
    ``name`` to ``value`` in place, keeping the header."""
    raw = bytearray(path.read_bytes())
    start = len(b"MVRECKPT1\n") + 8
    hlen = struct.unpack_from("<Q", raw, start - 8)[0]
    off = start + hlen
    for entry in json.loads(raw[start : start + hlen])["arrays"]:
        size = math.prod(entry["shape"])
        if entry["name"] == name:
            struct.pack_into("<d", raw, off + 8 * (index % size), value)
            path.write_bytes(bytes(raw))
            return
        off += 8 * size
    raise KeyError(name)


def drop_base_word(header):
    """Checkpoint header edit: the vocab payload loses its last base word, so
    it names one word fewer than the embedding has rows."""
    vocab = header["vocab"]
    del vocab["words"][vocab["base_size"] - 1]
    vocab["base_size"] -= 1


def repeat_relation(header):
    """Checkpoint header edit: the last relation of the vocab payload becomes
    a second copy of the first."""
    order = header["vocab"]["relation_order"]
    order[-1] = order[0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
