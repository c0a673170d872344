"""Shared numeric oracles for the test suite."""

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


def assert_grads_close(f, params: dict[str, ad.Tensor], tol: float = 1e-4, h: float = 1e-5):
    loss = f()
    analytic = ad.grad(loss, params)
    numeric = central_difference(f, params, h=h)
    err = max_relative_error(analytic, numeric)
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


def reference_forward_ids(model, ids, rng=None, train=False):
    """The encoder as a graph of small nodes: the former ``forward_ids``.

    ``model.forward_ids`` runs each sublayer as one node and must reproduce
    this graph bit for bit, in hidden states, logits and every gradient.
    """
    cfg, p = model.config, model.params()
    ids = np.asarray(ids, dtype=np.int64)
    L = len(ids)
    drop = cfg.dropout if (train and rng is not None) else 0.0
    x = ad.embedding(p["token_embed"], ids) + ad.index(p["pos_embed"], slice(0, L))
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
            att = ad.softmax((qh @ kh.T) * scale, axis=-1)
            heads.append(att @ vh)
        o = ad.concat(heads, axis=1) @ p[b + "attn.wo"] + p[b + "attn.bo"]
        if drop > 0.0:
            o = ad.dropout(o, drop, rng)
        x = x + o
        xn2 = ad.layer_norm(x, p[b + "ln2.gamma"], p[b + "ln2.beta"])
        f = ad.gelu(xn2 @ p[b + "ffn.w1"] + p[b + "ffn.b1"]) @ p[b + "ffn.w2"] + p[b + "ffn.b2"]
        if drop > 0.0:
            f = ad.dropout(f, drop, rng)
        x = x + f
    hidden = ad.layer_norm(x, p["final_norm.gamma"], p["final_norm.beta"])
    logits = hidden @ p["token_embed"].T + p["head_bias"]
    return hidden, logits


def reference_adamw_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8,
                         weight_decay=0.0):
    """AdamW one parameter at a time: the former ``adamw_step``.

    ``model.adamw_step`` updates all parameters as one flat vector and must
    give the same bits.
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
