"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Frozen values (trend means, fixture files) were
generated once by scripts/freeze_fixtures.py; regenerate and update them
only after a deliberate change to deterministic numerics.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mvre import autodiff as ad
from mvre.cli import main as cli_main
from mvre.data import Dataset, RelationInstance, generate_corpus, make_splits, sample_kshot
from mvre.errors import InitError
from mvre.experiments import micro_f1, run_similarity_protocol
from mvre.init_schemes import DYNAMIC, apply_init
from mvre.losses import (MVDL_EPS, ViewPosteriorHead, global_loss, infer,
                         local_loss, mvdl_loss, total_loss,
                         verbalizer_embeddings, view_posterior, view_scores)
from mvre.model import AdamW, MlmModel, ModelConfig, forward_batch, load_checkpoint
from mvre.schema import RelationSchema, load_schema
from mvre.vocab import build_vocab, vocab_from_payload, wrap_template

from acceptance_workloads import (PROTOCOL_SEEDS, platform_note, protocol_config,
                                  run_trend, trend_world)
from conftest import central_difference, max_relative_error

FIXTURES = Path(__file__).parent / "fixtures"

# frozen by scripts/freeze_fixtures.py; tolerance is half the observed margin
TREND_MEAN_M1 = 0.29000000000000004
TREND_MEAN_M3 = 0.3375
TREND_MARGIN = 0.04749999999999999


def report(criterion: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def small_config(rng):
    """One random small configuration: tiny corpus, model, verbalizer, head."""
    n_rel = int(rng.integers(1, 5))         # |Y| <= 4
    m = int(rng.integers(1, 5))             # m <= 4
    d = int(rng.choice([8, 12, 16]))        # d <= 16
    word_pool = [f"t{i}" for i in range(int(rng.integers(6, 12)))]
    instances = []
    relations = tuple(f"R{i}" for i in range(n_rel))
    for rel in relations:
        toks = tuple(rng.choice(word_pool, size=6)) + ("su", "ob")
        instances.append(RelationInstance(toks, (6, 6), (7, 7), rel))
    ds = Dataset(tuple(instances), relations)
    schema = RelationSchema(relations, m, None,
                            {r: "su [MASK]*m ob" for r in relations},
                            {r: ["su"] for r in relations})
    vocab, verb = build_vocab(ds, schema)
    assert len(vocab) <= 40
    cfg = ModelConfig(d=d, n_layers=1, n_heads=2, max_len=32, vocab_size=len(vocab))
    model = MlmModel(cfg, seed=int(rng.integers(0, 1000)))
    head = ViewPosteriorHead(d)
    head.w.data[...] = rng.normal(size=d) * 0.5
    prompt = wrap_template(ds.instances[0], vocab, m, 32)
    y = int(rng.integers(0, n_rel))
    return ds, schema, vocab, verb, model, head, prompt, y, n_rel, m


class TestCriterion1GradientCorrectness:
    @pytest.mark.slow
    def test_losses_match_finite_differences(self):
        """Every loss vs central differences on 20 random small configs.

        Parameter subsets rotate across configs so every parameter kind is
        exercised; the budget stays under the two-minute bound.
        """
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240001)
        rotation = [
            ["token_embed", "view_head.w"],
            ["blocks.0.attn.wq", "blocks.0.attn.bv", "view_head.w"],
            ["blocks.0.ffn.w1", "blocks.0.ln1.gamma", "head_bias"],
            ["pos_embed", "blocks.0.attn.wo", "final_norm.beta"],
            ["blocks.0.ffn.w2", "blocks.0.ffn.b2", "blocks.0.ln2.beta"],
        ]
        worst = 0.0
        for idx in range(20):
            ds, schema, vocab, verb, model, head, prompt, y, n_rel, m = small_config(rng)
            params = dict(model.params())
            params.update(head.params())
            names = rotation[idx % len(rotation)]
            subset = {n: params[n] for n in names}

            def loss_mvdl():
                return mvdl_loss(view_scores(model, head, prompt, verb), y)

            def loss_local():
                return local_loss(verbalizer_embeddings(model, verb), n_rel, m)

            def loss_global():
                return global_loss(verbalizer_embeddings(model, verb), n_rel, m)

            def loss_total():
                emb = verbalizer_embeddings(model, verb)
                return total_loss(mvdl_loss(view_scores(model, head, prompt, verb), y),
                                  local_loss(emb, n_rel, m),
                                  global_loss(emb, n_rel, m), alpha=2.0, beta=0.1)

            for f in (loss_mvdl, loss_local, loss_global, loss_total):
                grads = ad.grad(f(), (model.params(), head.params()))
                numeric = central_difference(f, subset)
                worst = max(worst, max_relative_error({n: grads[n] for n in names}, numeric))
        elapsed = time.perf_counter() - t0
        report(1, f"gradients match finite differences "
                  f"(max rel err {worst:.2e}, {elapsed:.0f}s)",
               worst < 1e-4 and elapsed < 120.0)


class TestCriterion2ReductionProperty:
    def test_single_mask_step_bit_identical(self):
        """m=1 with zero contrastive weights equals plain single-mask tuning."""
        from mvre.data import CorpusSpec
        from mvre.schema import synthetic_schema
        all_ok = True
        for seed in (1, 2, 3, 4, 5):
            spec = CorpusSpec(n_relations=3, instances_per_relation=6,
                              aspects_per_relation=2, vocab_pool_size=15,
                              sentence_length_range=(6, 9))
            ds = generate_corpus(spec, seed=seed)
            schema = synthetic_schema(spec, ds, 1)
            vocab, verb = build_vocab(ds, schema)
            cfg = ModelConfig(d=16, n_layers=1, n_heads=2, max_len=40,
                              vocab_size=len(vocab))
            prompts = [wrap_template(i, vocab, 1, 40) for i in ds.instances[:3]]
            labels = [verb.relation_order.index(i.label) for i in ds.instances[:3]]

            model_a = MlmModel(cfg, seed=seed)
            head = ViewPosteriorHead(cfg.d)
            params_a = (model_a.params(), head.params())
            opt_a = AdamW(params_a, lr=3e-3)
            terms = [mvdl_loss(view_scores(model_a, head, p, verb), y)
                     for p, y in zip(prompts, labels)]
            emb = verbalizer_embeddings(model_a, verb)
            loss_a = total_loss(ad.tmean(ad.stack(terms)),
                                local_loss(emb, len(verb.relation_order), 1),
                                global_loss(emb, len(verb.relation_order), 1),
                                alpha=0.0, beta=0.0)
            opt_a.step(ad.grad(loss_a, params_a))

            model_b = MlmModel(cfg, seed=seed)
            params_b = model_b.params()
            opt_b = AdamW(params_b, lr=3e-3)
            refs = []
            for p, y in zip(prompts, labels):
                _, logits = forward_batch(model_b, [p.ids])
                row = ad.softmax(ad.index(logits, p.mask_positions[0]))
                refs.append(-ad.log(ad.index(row, verb.virtual_id_by_index(y, 1))
                                    + MVDL_EPS))
            opt_b.step(ad.grad(ad.tmean(ad.stack(refs)), params_b))

            va, vb = model_a.param_values(), model_b.param_values()
            same = all(va[k].tobytes() == vb[k].tobytes() for k in vb)
            same &= bool(np.all(head.w.data == 0.0))
            all_ok &= same
        report(2, "m=1, alpha=beta=0 training step bit-identical to the "
                  "single-mask reference on 5 seeds", all_ok)


class TestCriterion3PosteriorContract:
    def test_normalization_and_hand_value(self):
        rng = np.random.default_rng(3)
        ok = True
        for m in range(1, 9):
            head = ViewPosteriorHead(6)
            head.w.data[...] = rng.normal(size=6)
            states = [ad.Tensor(rng.normal(size=6) * 2) for _ in range(m)]
            post = view_posterior(head, ad.stack(states)).data
            ok &= abs(post.sum() - 1.0) <= 1e-9
            ok &= bool(np.all(post > 0) and np.all(post < 1 + 1e-15))
        head = ViewPosteriorHead(2)
        head.w.data[...] = np.array([1.0, 0.0])
        states = [ad.Tensor(np.array([1.0, 0.0])), ad.Tensor(np.array([-1.0, 0.0]))]
        post = view_posterior(head, ad.stack(states)).data
        ok &= np.allclose(np.round(post, 4), [0.7311, 0.2689])
        report(3, "posterior sums to 1 +/- 1e-9 and matches the "
                  "sigmoid-normalization hand case", ok)


class TestCriterion4GlClosedForms:
    def test_anchors(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 6))
        collinear = ad.Tensor(np.repeat(base, 4, axis=0))
        ok = local_loss(collinear, 3, 4).item() == -1.0
        same_row = ad.Tensor(np.tile(rng.normal(size=6), (8, 1)))
        ok &= global_loss(same_row, 4, 2).item() == 1.0
        ortho = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        ok &= local_loss(ortho, 1, 2).item() == -0.5
        ok &= global_loss(ortho, 2, 1).item() == 0.5
        report(4, "contrastive losses hit -1/1 exactly on identical "
                  "embeddings and -0.5/0.5 on the orthogonal hand cases", ok)


class TestCriterion5GlOptimizationDirection:
    def test_hundred_steps(self):
        n_rel, m, d = 4, 4, 16
        alpha, beta = 2.0, 0.1
        rng = np.random.default_rng(5)
        arena = ad.Arena({"emb": rng.normal(size=(n_rel * m, d))})
        emb = arena["emb"]

        def cosines(x):
            unit = x / np.linalg.norm(x, axis=1, keepdims=True)
            intra = [unit[r * m + i] @ unit[r * m + j]
                     for r in range(n_rel) for i in range(m) for j in range(m) if i != j]
            inter = [unit[ru * m + i] @ unit[rv * m + i]
                     for i in range(m) for ru in range(n_rel)
                     for rv in range(n_rel) if ru != rv]
            return float(np.mean(intra)), float(np.mean(inter))

        before_intra, before_inter = cosines(emb.data)
        opt = AdamW(arena, lr=0.02)
        for _ in range(100):
            loss = alpha * local_loss(emb, n_rel, m) + beta * global_loss(emb, n_rel, m)
            opt.step(ad.grad(loss, arena))
        after_intra, after_inter = cosines(emb.data)
        report(5, f"100 contrastive steps raise intra-relation cosine "
                  f"({before_intra:.3f}->{after_intra:.3f}) and lower "
                  f"inter-relation cosine ({before_inter:.3f}->{after_inter:.3f})",
               after_intra > before_intra and after_inter < before_inter)


class TestCriterion6InferenceOracle:
    def test_mixture_equals_brute_force(self):
        import math
        rng = np.random.default_rng(6)
        worst = 0.0
        checked = 0
        for m in (1, 2):
            for n_rel in (1, 2, 3):
                base = 12 - n_rel * m
                verb_relations = tuple(f"R{i}" for i in range(n_rel))
                from mvre.vocab import Verbalizer, EncodedPrompt
                verb = Verbalizer(verb_relations, m, base)
                for trial in range(4):
                    seq = int(rng.integers(m + 2, m + 6))
                    d = int(rng.choice([4, 6]))
                    hidden = rng.normal(size=(seq, d))
                    logits = rng.normal(size=(seq, 12)) * 2
                    w = rng.normal(size=d)
                    positions = tuple(range(seq - m, seq))
                    prompt = EncodedPrompt(np.zeros(seq, dtype=np.int64), positions)
                    head = ViewPosteriorHead(d)
                    head.w.data[...] = w
                    states = [ad.Tensor(hidden[p]) for p in positions]
                    post = view_posterior(head, ad.stack(states)).data
                    from mvre.losses import per_view_label_probs, relation_scores
                    pv = per_view_label_probs(ad.Tensor(logits), prompt, verb).data
                    got = relation_scores(post, pv)

                    expected = []
                    sig = [1.0 / (1.0 + math.exp(-sum(wi * hi for wi, hi in zip(w, hidden[p]))))
                           for p in positions]
                    zsig = sum(sig)
                    for y in range(n_rel):
                        acc = 0.0
                        for j, p in enumerate(positions):
                            row = logits[p]
                            mx = max(row)
                            exps = [math.exp(v - mx) for v in row]
                            acc += (sig[j] / zsig) * exps[verb.virtual_id(f"R{y}", j + 1)] / sum(exps)
                        expected.append(acc)
                    worst = max(worst, float(np.max(np.abs(got - np.array(expected)))))
                    checked += 1
        report(6, f"mixture scores equal straight-line evaluation to 1e-12 "
                  f"({checked} cases, worst {worst:.1e})", worst <= 1e-12)


class TestCriterion7MicroF1Oracle:
    def test_hand_confusion(self):
        f1 = micro_f1(["A", "B", "B", "B"], ["A", "A", "B", "NA"], na_label="NA")
        report(7, f"hand confusion gives F1 {f1:.10f} = 4/7",
               abs(f1 - 4.0 / 7.0) < 1e-9)


class TestCriterion8MultiViewTrend:
    @pytest.mark.slow
    def test_three_masks_beat_one(self):
        """Frozen trend: means 0.2900 (m=1) vs 0.3375 (m=3), margin 0.0475.

        The gate asserts a strict win plus at least half the frozen margin,
        inside the 20-minute budget.
        """
        t0 = time.perf_counter()
        trend = run_trend()
        elapsed = time.perf_counter() - t0
        margin = trend["mean_high"] - trend["mean_low"]
        ok = (trend["mean_high"] > trend["mean_low"]
              and margin >= TREND_MARGIN / 2.0
              and elapsed < 1200.0)
        report(8, f"1-shot mean F1 m=3 {trend['mean_high']:.4f} vs m=1 "
                  f"{trend['mean_low']:.4f} (margin {margin:+.4f}, frozen "
                  f"{TREND_MARGIN:.4f}, {elapsed:.0f}s)", ok)


class TestCriterion9InitializationDeterminism:
    def test_probe_report_bitwise(self):
        ckpt = load_checkpoint(FIXTURES / "probe_toy.ckpt")
        vocab, verb = vocab_from_payload(ckpt.vocab_payload)
        schema = load_schema(FIXTURES / "probe_schema.json")
        _, got = apply_init(DYNAMIC, schema, vocab, verb, ckpt.model)
        frozen = json.loads((FIXTURES / "probe_report.json").read_text())
        ok = len(got) == len(frozen)
        for rec, ref in zip(got, frozen):
            ok &= (rec.relation == ref["relation"] and rec.view == ref["view"]
                   and rec.token == ref["token"]
                   and rec.probability == ref["probability"])
        report(9, "probe on the frozen checkpoint reproduces the frozen "
                  "token report bitwise" + ("" if ok else "\n" + platform_note()), ok)

    def test_probe_never_emits_special_or_virtual(self):
        rng = np.random.default_rng(9)
        toks = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
        instances = tuple(RelationInstance(toks, (0, 0), (2, 2), r)
                          for r in ("rA", "rB"))
        ds = Dataset(instances, ("rA", "rB"))
        schema = RelationSchema(("rA", "rB"), 2, None,
                                {r: "alpha [MASK]*m beta" for r in ("rA", "rB")},
                                {r: ["alpha"] for r in ("rA", "rB")})
        vocab, verb = build_vocab(ds, schema)
        cfg = ModelConfig(d=8, n_layers=1, n_heads=2, max_len=24,
                          vocab_size=len(vocab))
        specials = {vocab.words[i] for i in vocab.special_ids}
        ok = True
        for trial in range(200):
            model = MlmModel(cfg, seed=int(rng.integers(0, 10**9)))
            scale = float(rng.uniform(0.01, 2.0))
            for p in model.params().values():
                p.data *= scale
            _, rep = apply_init(DYNAMIC, schema, vocab, verb, model)
            for rec in rep:
                ok &= rec.token not in specials and not rec.token.startswith("[V:")
        report(9, "probing 200 random models never selects special or "
                  "virtual tokens", ok)


class TestCriterion10EndToEndReproducibility:
    def test_cmd_train_byte_identical(self, tmp_path):
        sets = ["--set", "corpus.n_relations=3",
                "--set", "corpus.instances_per_relation=8",
                "--set", "corpus.vocab_pool_size=20",
                "--set", "model.d=12", "--set", "model.n_layers=1",
                "--set", "model.n_heads=2", "--set", "model.max_len=48",
                "--set", "train.m=2", "--set", "train.epochs=2",
                "--set", "train.lr=0.005", "--set", "train.init_mode=combined"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(["train", "--out", str(out), "--seed", "11"] + sets)
            assert code == 0
            outs.append(out)
        ck = (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
        rj = (outs[0] / "result.json").read_bytes() == (outs[1] / "result.json").read_bytes()
        report(10, "two identical train invocations produce byte-identical "
                   "checkpoint and result JSON", ck and rj)


class TestCriterion11SimilarityProtocol:
    def test_m1_unit_ratios(self):
        spec, dataset, splits, full = trend_world()
        from mvre.schema import synthetic_schema
        schema = synthetic_schema(spec, dataset, 1)
        cfg = protocol_config()
        from dataclasses import replace
        report_m1 = run_similarity_protocol(splits, schema, 2, 1, [1],
                                            replace(cfg, m=1))
        ok = (report_m1["ratio_multi_mask"] == 1.0
              and report_m1["ratio_single_mask"] == 1.0)
        report(11, "m=1 protocol yields ratios exactly 1.0", ok)

    def test_k4_m4_fixture(self):
        got = run_protocol_fixture_cached()
        frozen = json.loads((FIXTURES / "protocol_k4_m4.json").read_text())
        ok = got == frozen
        report(11, f"k=4, m=4 protocol run reproduces the frozen report "
                   f"(multi ratio {got['ratio_multi_mask']:.4f})", ok)


_protocol_cache = {}


def run_protocol_fixture_cached():
    if "report" not in _protocol_cache:
        from acceptance_workloads import run_protocol_fixture
        _protocol_cache["report"] = run_protocol_fixture()
    return _protocol_cache["report"]
