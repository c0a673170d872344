"""The numeric core: reverse-mode gradients and the tiny masked LM.

The engine records every operation applied to a Tensor. ad.grad, its one
backward pass, walks that graph in reverse into the gradient vector of a
parameter arena; gradients live only inside that walk. The model is a
pre-norm transformer whose output head is the transposed token-embedding
table, so embeddings serve double duty as input vectors and output scores.
"""

import numpy as np

from mvre import autodiff as ad
from mvre import (CorpusSpec, MlmModel, ModelConfig, build_vocab, forward_batch,
                  generate_corpus, synthetic_schema, wrap_template)

# --- gradients by hand vs by engine ------------------------------------------
params = ad.Arena({"w": np.array([1.0, -2.0, 0.5])})  # ad.grad differentiates arenas
w = params["w"]
x = np.array([0.3, 0.1, -0.4])
s_node = ad.sigmoid(w @ ad.tensor(x))
print("engine gradient: ", ad.grad(s_node * s_node, params)["w"])
z = float(w.data @ x)
s = 1.0 / (1.0 + np.exp(-z))
print("chain-rule byhand:", 2 * s * s * (1 - s) * x)

# --- finite-difference spot check ---------------------------------------------
def f():
    return ad.tsum(ad.softmax(a) * mask)

rng = np.random.default_rng(0)
arena = ad.Arena({"a": rng.normal(size=(3, 5))})
a = arena["a"]
mask = rng.normal(size=(3, 5))
analytic = ad.grad(f(), arena)["a"]
h = 1e-6
numeric = np.zeros_like(a.data)
flat, nflat = a.data.reshape(-1), numeric.reshape(-1)
for i in range(flat.size):
    orig = flat[i]
    flat[i] = orig + h
    up = float(f().data)
    flat[i] = orig - h
    dn = float(f().data)
    flat[i] = orig
    nflat[i] = (up - dn) / (2 * h)
print(f"\nsoftmax grad max abs diff vs finite differences: "
      f"{np.abs(analytic - numeric).max():.2e}")

# --- the tiny MLM -------------------------------------------------------------
spec = CorpusSpec(n_relations=3, instances_per_relation=8)
dataset = generate_corpus(spec, seed=1)
schema = synthetic_schema(spec, dataset, m=3)
vocab, verbalizer = build_vocab(dataset, schema)
model = MlmModel(ModelConfig(d=32, n_layers=2, n_heads=2, max_len=48,
                             vocab_size=len(vocab)), seed=0)

prompt = wrap_template(dataset.instances[0], vocab, m=3, max_len=48)
hidden, logits = forward_batch(model, [prompt.ids])
probs = ad.softmax(logits).data
print(f"\nprompt length {len(prompt.ids)}, masks at {prompt.mask_positions}")
print(f"hidden {hidden.shape}, logits {logits.shape}")
print(f"every softmax row sums to 1: {np.allclose(probs.sum(-1), 1.0)}")
print(f"forward is deterministic: "
      f"{np.array_equal(logits.data, forward_batch(model, [prompt.ids])[1].data)}")
