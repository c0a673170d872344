"""Pretrain the tiny MLM, then ask it how to initialize the virtual words.

Dynamic initialization runs each relation's probe sentence through the
model with m masks and reads off the top token at each slot; its embedding
seeds the matching virtual relation word. Static initialization instead
averages the embeddings of each relation's seed words; combined takes the
elementwise mean of both.
"""

import numpy as np

from mvre import (CorpusSpec, ModelConfig, PretrainConfig, apply_init, generate_corpus,
                  pretrain_bundle, synthetic_schema)

spec = CorpusSpec(n_relations=4, instances_per_relation=30)
dataset = generate_corpus(spec, seed=1)
schema = synthetic_schema(spec, dataset, m=3)

pre, result = pretrain_bundle(dataset, schema,
                              ModelConfig(d=32, n_layers=2, n_heads=2, max_len=48),
                              PretrainConfig(steps=800, log_every=0))
vocab, verbalizer, model = pre.vocab, pre.verbalizer, pre.model
print(f"held-out masked-token accuracy after 800 steps: "
      f"{result.holdout_accuracy:.3f} "
      f"(uniform would be {1 / len(vocab):.4f})\n")

print("probe templates and their top tokens per mask slot:")
dvec, report = apply_init("dynamic", schema, vocab, verbalizer, model)
for rel in schema.relations:
    print(f"  {rel}: {schema.probe_templates[rel]!r}")
    row = [r for r in report if r.relation == rel]
    print("    -> " + "  ".join(f"{r.token}({r.probability:.2f})" for r in row))

si, _ = apply_init("static", schema, vocab, verbalizer, model)
combined, _ = apply_init("combined", schema, vocab, verbalizer, model)
print(f"\nstatic vectors {si.shape}; combined == elementwise mean of both: "
      f"{np.allclose(combined, 0.5 * (si + dvec))}")
vid = verbalizer.virtual_id(schema.relations[0], 1)
print(f"virtual row norm for {schema.relations[0]} view 1: "
      f"{np.linalg.norm(model.token_embed.data[vid]):.3f}")
