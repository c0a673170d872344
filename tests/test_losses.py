"""Multi-view scoring: hand-computed anchors, brute-force oracles, gradients."""

import hashlib
import math

import numpy as np
import pytest

from mvre import autodiff as ad
from mvre.data import CorpusSpec, generate_corpus
from mvre.errors import NumericError
from mvre.losses import (MVDL_EPS, ViewPosteriorHead, ViewScores, global_loss,
                         infer, infer_batch, local_loss, mvdl_loss,
                         per_view_label_probs, relation_scores, total_loss,
                         verbalizer_embeddings, view_posterior, view_scores)
from mvre.model import AdamW, MlmModel, ModelConfig, forward_batch
from mvre.schema import synthetic_schema
from mvre.vocab import EncodedPrompt, Verbalizer, build_vocab, wrap_template

from conftest import (assert_grads_close, reference_forward_ids, reference_view_posterior,
                      scalar_cosine)


def head_with(w):
    head = ViewPosteriorHead(len(w))
    head.w.data[...] = np.asarray(w, dtype=np.float64)
    return head


def states_for(dots, w):
    """View states whose dot with w equals the requested values (w = e_1 scaled)."""
    d = len(w)
    states = []
    for val in dots:
        h = np.zeros(d)
        h[0] = val / w[0]
        states.append(ad.Tensor(h))
    return ad.stack(states)


class TestViewPosterior:
    def test_single_view_is_exactly_one(self):
        head = head_with([1.0, 0.0])
        post = view_posterior(head, states_for([3.7], head.w.data))
        assert post.data[0] == 1.0

    def test_symmetric_zero_scores(self):
        head = head_with([1.0, 0.0])
        post = view_posterior(head, states_for([0.0, 0.0], head.w.data))
        np.testing.assert_allclose(post.data, [0.5, 0.5], atol=1e-15)

    def test_hand_computed_sigmoid_normalization(self):
        # sigmoid(1)=0.7311, sigmoid(-1)=0.2689; their sum is 1 so the
        # normalization returns the sigmoids themselves, to 4 decimals
        head = head_with([1.0, 0.0])
        post = view_posterior(head, states_for([1.0, -1.0], head.w.data))
        np.testing.assert_allclose(np.round(post.data, 4), [0.7311, 0.2689])

    def test_sums_to_one_all_m(self, rng):
        for m in range(1, 9):
            head = head_with(rng.normal(size=6))
            states = ad.stack([ad.Tensor(rng.normal(size=6) * 3) for _ in range(m)])
            post = view_posterior(head, states).data
            assert abs(post.sum() - 1.0) <= 1e-9
            assert np.all(post > 0.0) and np.all(post < 1.0 + 1e-15)

    def test_dimension_mismatch(self):
        head = ViewPosteriorHead(4)
        with pytest.raises(ValueError, match="mismatch"):
            view_posterior(head, ad.stack([ad.Tensor(np.zeros(5))]))

    def test_differentiable_wrt_w_and_h(self, rng):
        head = ViewPosteriorHead(5)
        head.w.data[...] = rng.normal(size=5)
        hs = ad.Arena({f"h{j}": rng.normal(size=5) for j in range(3)})
        def f():
            p = view_posterior(head, ad.stack(list(hs.values())))
            return ad.tsum(p * p)

        assert_grads_close(f, (head.params(), hs))


def fake_prompt_and_verbalizer(m, n_rel, seq_len, vocab_size):
    """A minimal prompt/verbalizer pair over an abstract vocabulary."""
    base = vocab_size - n_rel * m
    assert base >= 1
    verb = Verbalizer(tuple(f"R{i}" for i in range(n_rel)), m, base)
    mask_positions = tuple(range(seq_len - m, seq_len))
    ids = np.zeros(seq_len, dtype=np.int64)
    return EncodedPrompt(ids, mask_positions), verb


class TestPerViewLabelProbs:
    def test_uniform_logits(self):
        prompt, verb = fake_prompt_and_verbalizer(2, 3, 8, 12)
        logits = ad.Tensor(np.zeros((8, 12)))
        pv = per_view_label_probs(logits, prompt, verb).data
        np.testing.assert_allclose(pv, 1.0 / 12, atol=1e-15)

    def test_one_hot_limit(self):
        prompt, verb = fake_prompt_and_verbalizer(1, 2, 4, 10)
        arr = np.zeros((4, 10))
        target = verb.virtual_id("R0", 1)
        arr[prompt.mask_positions[0], target] = 500.0
        pv = per_view_label_probs(ad.Tensor(arr), prompt, verb).data
        assert pv[0, 0] == pytest.approx(1.0)
        assert pv[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_need_not_sum_to_one(self, rng):
        # softmax runs over the whole 10-word vocabulary, so mass escapes to
        # non-virtual words; verified against an explicit softmax
        prompt, verb = fake_prompt_and_verbalizer(2, 2, 6, 10)
        arr = rng.normal(size=(6, 10))
        pv = per_view_label_probs(ad.Tensor(arr), prompt, verb).data
        for j in range(2):
            row = arr[prompt.mask_positions[j]]
            full = [math.exp(v) for v in row]
            z = sum(full)
            expected = [full[verb.virtual_id(f"R{y}", j + 1)] / z for y in range(2)]
            np.testing.assert_allclose(pv[j], expected, rtol=1e-12)
            assert pv[j].sum() < 1.0


def scores_of(posterior, per_view):
    return ViewScores(ad.Tensor(posterior), ad.Tensor(per_view))


class TestMvdlLoss:
    def test_single_view_half_probability(self):
        s = scores_of([1.0], [[0.5]])
        assert mvdl_loss(s, 0).item() == pytest.approx(0.6931, abs=1e-4)

    def test_two_views_half_posterior(self):
        s = scores_of([0.5, 0.5], [[1.0], [1.0]])
        assert mvdl_loss(s, 0).item() == pytest.approx(1.3863, abs=1e-4)

    def test_perfect_prediction_floor(self):
        s = scores_of([1.0], [[1.0]])
        assert mvdl_loss(s, 0).item() == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            post = rng.dirichlet(np.ones(m))
            pv = rng.uniform(0, 1, size=(m, n))
            y = int(rng.integers(0, n))
            assert mvdl_loss(scores_of(post, pv), y).item() >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            mvdl_loss(scores_of([1.0], [[0.5]]), 1)


class TestLocalLoss:
    def test_identical_views_give_minus_one(self, rng):
        base = rng.normal(size=(3, 5))
        emb = np.repeat(base, 4, axis=0)  # 3 relations x 4 identical views
        assert local_loss(ad.Tensor(emb), 3, 4).item() == pytest.approx(-1.0)

    def test_orthogonal_pair_hand_case(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])  # |Y|=1, m=2
        assert local_loss(ad.Tensor(emb), 1, 2).item() == pytest.approx(-0.5)

    def test_m_equals_one_always_minus_one(self, rng):
        emb = rng.normal(size=(4, 6))
        assert local_loss(ad.Tensor(emb), 4, 1).item() == pytest.approx(-1.0)

    def test_range(self, rng):
        for _ in range(20):
            emb = rng.normal(size=(6, 4))
            val = local_loss(ad.Tensor(emb), 2, 3).item()
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9

    def test_zero_norm_rejected(self):
        emb = np.zeros((2, 3))
        emb[0, 0] = 1.0
        with pytest.raises(NumericError):
            local_loss(ad.Tensor(emb), 1, 2)


class TestGlobalLoss:
    def test_identical_relations_give_one(self, rng):
        row = rng.normal(size=4)
        emb = np.tile(row, (6, 1))  # 2 relations x 3 views, all identical
        assert global_loss(ad.Tensor(emb), 2, 3).item() == pytest.approx(1.0)

    def test_orthogonal_relations_hand_case(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])  # |Y|=2, m=1
        assert global_loss(ad.Tensor(emb), 2, 1).item() == pytest.approx(0.5)

    def test_single_relation_always_one(self, rng):
        emb = rng.normal(size=(3, 5))
        assert global_loss(ad.Tensor(emb), 1, 3).item() == pytest.approx(1.0)

    def test_range(self, rng):
        for _ in range(20):
            emb = rng.normal(size=(6, 4))
            val = global_loss(ad.Tensor(emb), 3, 2).item()
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


class TestTotalLoss:
    def test_weighted_arithmetic(self):
        # alpha/beta at their base defaults
        assert total_loss(1.0, -1.0, 1.0, alpha=2.0, beta=0.1) == pytest.approx(-0.9)

    def test_zero_weights_reduce_to_mvdl(self):
        assert total_loss(3.3, -0.7, 0.9, alpha=0.0, beta=0.0) == 3.3

    def test_works_on_tensors(self):
        out = total_loss(ad.Tensor(1.0), ad.Tensor(-1.0), ad.Tensor(1.0), 2.0, 0.1)
        assert out.item() == pytest.approx(-0.9)


class TestRelationScores:
    def test_hand_mixture(self):
        out = relation_scores(np.array([0.5, 0.5]), np.array([[0.8, 0.3], [0.6, 0.9]]))
        np.testing.assert_allclose(out, [0.7, 0.6])

    def test_scale_invariant_argmax(self, rng):
        post = rng.dirichlet(np.ones(3))
        pv = rng.uniform(0.01, 1.0, size=(3, 4))
        s1 = relation_scores(post, pv)
        s2 = relation_scores(post, pv * 7.3)
        assert np.argmax(s1) == np.argmax(s2)

    def test_product_mode(self):
        out = relation_scores(np.array([0.5, 0.5]), np.array([[0.8, 0.3], [0.6, 0.9]]),
                              mode="product")
        np.testing.assert_allclose(out, [0.4 * 0.3, 0.15 * 0.45])


def tiny_real_setup(m, n_relations, seed):
    spec = CorpusSpec(n_relations=n_relations, instances_per_relation=4,
                      aspects_per_relation=2, vocab_pool_size=12,
                      sentence_length_range=(6, 8))
    ds = generate_corpus(spec, seed=seed)
    schema = synthetic_schema(spec, ds, m)
    vocab, verb = build_vocab(ds, schema)
    cfg = ModelConfig(d=12, n_layers=1, n_heads=2, max_len=40, vocab_size=len(vocab))
    model = MlmModel(cfg, seed=seed)
    return ds, schema, vocab, verb, model


class TestInferOracle:
    def brute_force(self, hidden, logits, w, prompt, verb):
        """Straight-line mixture score: plain python loops and math.exp."""
        m = prompt.m
        sig = []
        for j in range(m):
            h = hidden[prompt.mask_positions[j]]
            z = sum(wi * hi for wi, hi in zip(w, h))
            sig.append(1.0 / (1.0 + math.exp(-z)))
        total = sum(sig)
        post = [s / total for s in sig]
        scores = []
        for y, rel in enumerate(verb.relation_order):
            acc = 0.0
            for j in range(m):
                row = logits[prompt.mask_positions[j]]
                exps = [math.exp(v - max(row)) for v in row]
                zsum = sum(exps)
                acc += post[j] * exps[verb.virtual_id(rel, j + 1)] / zsum
            scores.append(acc)
        return np.array(scores)

    def test_exhaustive_small_grid(self, rng):
        for m in (1, 2):
            for n_rel in (1, 2, 3):
                for seed in (0, 1):
                    ds, schema, vocab, verb, model = tiny_real_setup(m, n_rel, seed)
                    head = ViewPosteriorHead(model.config.d)
                    head.w.data[...] = rng.normal(size=model.config.d)
                    for inst in ds.instances[:3]:
                        prompt = wrap_template(inst, vocab, m, 40)
                        pred, scores = infer(model, head, prompt, verb)
                        with ad.no_grad():
                            hidden, logits = forward_batch(model, [prompt.ids])
                        expected = self.brute_force(hidden.data, logits.data,
                                                    head.w.data, prompt, verb)
                        np.testing.assert_allclose(scores, expected, atol=1e-12)
                        assert pred == verb.relation_order[int(np.argmax(expected))]

    def test_m1_reduces_to_single_mask_argmax(self, rng):
        ds, schema, vocab, verb, model = tiny_real_setup(1, 3, 0)
        head = ViewPosteriorHead(model.config.d)
        prompt = wrap_template(ds.instances[0], vocab, 1, 40)
        pred, scores = infer(model, head, prompt, verb)
        with ad.no_grad():
            _, logits = forward_batch(model, [prompt.ids])
        row = logits.data[prompt.mask_positions[0]]
        vids = [verb.virtual_id(r, 1) for r in verb.relation_order]
        assert pred == verb.relation_order[int(np.argmax(row[vids]))]

    def test_tie_breaks_to_lowest_index(self):
        s = relation_scores(np.array([1.0]), np.array([[0.4, 0.4, 0.1]]))
        assert int(np.argmax(s)) == 0


class TestLossGradients:
    """Finite-difference checks of each loss through the full model graph."""

    def test_mvdl_through_model(self, rng):
        ds, schema, vocab, verb, model = tiny_real_setup(2, 2, 3)
        head = ViewPosteriorHead(model.config.d)
        head.w.data[...] = rng.normal(size=model.config.d) * 0.5
        prompt = wrap_template(ds.instances[0], vocab, 2, 40)
        assert_grads_close(
            lambda: mvdl_loss(view_scores(model, head, prompt, verb), 1),
            (model.params(), head.params()),
            ["token_embed", "view_head.w", "blocks.0.attn.wv", "final_norm.gamma",
             "head_bias"])

    def test_gl_losses_through_embeddings(self, rng):
        ds, schema, vocab, verb, model = tiny_real_setup(2, 3, 5)

        def f():
            emb = verbalizer_embeddings(model, verb)
            return (2.0 * local_loss(emb, 3, 2)
                    + 0.1 * global_loss(emb, 3, 2))

        assert_grads_close(f, model.params(), ["token_embed"])

    def test_total_through_everything(self, rng):
        ds, schema, vocab, verb, model = tiny_real_setup(2, 2, 7)
        head = ViewPosteriorHead(model.config.d)
        head.w.data[...] = rng.normal(size=model.config.d) * 0.3
        prompt = wrap_template(ds.instances[1], vocab, 2, 40)

        def f():
            mv = mvdl_loss(view_scores(model, head, prompt, verb), 0)
            emb = verbalizer_embeddings(model, verb)
            return total_loss(mv, local_loss(emb, 2, 2), global_loss(emb, 2, 2),
                              alpha=1.2, beta=0.7)

        assert_grads_close(f, (model.params(), head.params()),
                           ["token_embed", "view_head.w", "blocks.0.ffn.w2", "pos_embed"])


class TestGlOptimizationDirection:
    def test_local_tightens_and_global_separates(self):
        n_rel, m, d = 4, 4, 16
        rng = np.random.default_rng(2024)
        arena = ad.Arena({"emb": rng.normal(size=(n_rel * m, d))})
        emb = arena["emb"]

        def mean_cosines(x):
            unit = x / np.linalg.norm(x, axis=1, keepdims=True)
            intra, inter = [], []
            for r in range(n_rel):
                block = unit[r * m : (r + 1) * m]
                for i in range(m):
                    for j in range(m):
                        if i != j:
                            intra.append(block[i] @ block[j])
            for i in range(m):
                for ru in range(n_rel):
                    for rv in range(n_rel):
                        if ru != rv:
                            inter.append(unit[ru * m + i] @ unit[rv * m + i])
            return float(np.mean(intra)), float(np.mean(inter))

        before_intra, before_inter = mean_cosines(emb.data)
        opt = AdamW(arena, lr=0.02)
        for _ in range(100):
            loss = 2.0 * local_loss(emb, n_rel, m) + 0.1 * global_loss(emb, n_rel, m)
            opt.step(ad.grad(loss, arena))
        after_intra, after_inter = mean_cosines(emb.data)
        assert after_intra > before_intra
        assert after_inter < before_inter


# -- the former scalar graphs, kept as bit-exact references ----------------------

def scalar_local_loss(emb, n_relations, m):
    terms = [scalar_cosine(emb[r * m + i], emb[r * m + j])
             for r in range(n_relations) for i in range(m) for j in range(m)]
    return -(ad.tsum(ad.stack(terms)) / (n_relations * m * m))


def scalar_global_loss(emb, n_relations, m):
    terms = [scalar_cosine(emb[ru * m + i], emb[rv * m + i])
             for i in range(m) for ru in range(n_relations) for rv in range(n_relations)]
    return ad.tsum(ad.stack(terms)) / (n_relations * n_relations * m)


def scalar_per_view_label_probs(logits, prompt, verbalizer):
    return ad.stack([
        ad.index(ad.softmax(ad.index(logits, prompt.mask_positions[j - 1])),
                 verbalizer.view_ids(j))
        for j in range(1, prompt.m + 1)])


def scalar_mvdl_loss(scores, y, eps=MVDL_EPS):
    m = scores.per_view.shape[0]
    return ad.tsum(ad.stack([
        -ad.log(ad.index(scores.posterior, j) * ad.index(scores.per_view, (j, y)) + eps)
        for j in range(m)]))


def assert_same_bits(new, old):
    """Two (loss, gradient dict) evaluations agree byte for byte."""
    (loss_new, grads_new), (loss_old, grads_old) = new, old
    assert loss_new.data.tobytes() == loss_old.data.tobytes()
    assert grads_new.keys() == grads_old.keys()
    for name in grads_new:
        assert grads_new[name].tobytes() == grads_old[name].tobytes(), name


class TestBitwiseAgainstScalarGraphs:
    """The array-valued losses give the bits of the per-pair / per-view graphs."""

    def evaluate(self, build, arrays):
        params = ad.Arena(arrays)
        loss = build(params)
        return loss, ad.grad(loss, params)

    def test_local_and_global(self, rng):
        for n_rel, m in [(1, 2), (2, 1), (2, 3), (3, 2), (8, 3), (4, 4)]:
            n = n_rel * m
            rows = rng.normal(size=(n + 2, 7)) * rng.uniform(0.1, 10.0)
            rows[-1] = rows[0]  # an identical copy: cosine exactly one
            ids = rng.permutation(np.concatenate([[0], 1 + rng.permutation(n)[: n - 2],
                                                  [n + 1]]))
            for new_fn, old_fn in [(local_loss, scalar_local_loss),
                                   (global_loss, scalar_global_loss)]:
                assert_same_bits(*[
                    self.evaluate(lambda p: fn(ad.index(p["table"], ids), n_rel, m),
                                  {"table": rows})
                    for fn in (new_fn, old_fn)])

    def test_per_view_label_probs(self, rng):
        for m, n_rel in [(1, 2), (3, 4), (4, 8)]:
            prompt, verb = fake_prompt_and_verbalizer(m, n_rel, 9, 40)
            logits = rng.normal(size=(9, 40)) * 3.0
            weights = rng.normal(size=(m, n_rel))
            assert_same_bits(*[
                self.evaluate(lambda p: ad.tsum(fn(p["logits"], prompt, verb) * weights),
                              {"logits": logits})
                for fn in (per_view_label_probs, scalar_per_view_label_probs)])

    def test_mvdl_loss(self, rng):
        for m, n_rel in [(1, 1), (3, 8), (4, 5)]:
            arrays = {"post": rng.dirichlet(np.ones(m)),
                      "pv": rng.uniform(0.0, 1.0, size=(m, n_rel))}
            arrays["pv"][0, 0] = 0.0  # the eps floor carries this term
            for y in range(n_rel):
                assert_same_bits(*[
                    self.evaluate(lambda p: fn(ViewScores(p["post"], p["pv"]), y), arrays)
                    for fn in (mvdl_loss, scalar_mvdl_loss)])

    def test_training_step_through_model(self):
        # the fine-tuning objective of one batch, every parameter's gradient
        ds, schema, vocab, verb, model = tiny_real_setup(3, 4, 11)
        prompts = [wrap_template(inst, vocab, 3, 40) for inst in ds.instances[:3]]
        head_w = np.random.default_rng(5).normal(size=model.config.d)
        values = model.params().flat().copy()

        def step(probs_fn, mvdl_fn, local_fn, global_fn):
            model.params().flat()[...] = values
            head = head_with(head_w)
            terms = []
            for y, prompt in enumerate(prompts):
                hidden, logits = forward_batch(model, [prompt.ids])
                states = [ad.index(hidden, pos) for pos in prompt.mask_positions]
                scores = ViewScores(view_posterior(head, ad.stack(states)),
                                    probs_fn(logits, prompt, verb))
                terms.append(mvdl_fn(scores, y))
            loss = (ad.tmean(ad.stack(terms))
                    + 1.2 * local_fn(verbalizer_embeddings(model, verb), 4, 3)
                    + 0.7 * global_fn(verbalizer_embeddings(model, verb), 4, 3))
            grads = ad.grad(loss, (model.params(), head.params()))
            return loss, {k: g.copy() for k, g in grads.items()}

        assert_same_bits(
            step(per_view_label_probs, mvdl_loss, local_loss, global_loss),
            step(scalar_per_view_label_probs, scalar_mvdl_loss,
                 scalar_local_loss, scalar_global_loss))


class TestPackedBatchAgainstPerSequenceGraphs:
    """A packed fine-tuning step gives the bits of one graph per prompt."""

    def setup_method(self):
        spec = CorpusSpec(n_relations=4, instances_per_relation=3, aspects_per_relation=2,
                          vocab_pool_size=12, sentence_length_range=(6, 14))
        self.ds = generate_corpus(spec, seed=11)
        self.schema = synthetic_schema(spec, self.ds, 3)
        self.vocab, self.verb = build_vocab(self.ds, self.schema)
        # prompts of unequal lengths, labels given by position
        self.prompts = [wrap_template(inst, self.vocab, 3, 40) for inst in self.ds.instances[:5]]
        assert len({len(p.ids) for p in self.prompts}) > 1
        self.labels = [i % 4 for i in range(5)]

    def objective(self, packed, model, head, rng):
        """``experiments.train``'s loss of one batch, MVDL + local + global."""
        verb = self.verb
        if packed:
            scores = view_scores(model, head, self.prompts, verb, rng=rng)
            mvdl = ad.tmean(mvdl_loss(scores, self.labels))
            local_fn, global_fn = local_loss, global_loss
        else:
            terms = []
            for prompt, y in zip(self.prompts, self.labels):
                hidden, logits = reference_forward_ids(model, prompt.ids, rng=rng)
                states = [ad.index(hidden, pos) for pos in prompt.mask_positions]
                scores = ViewScores(reference_view_posterior(head, states),
                                    scalar_per_view_label_probs(logits, prompt, verb))
                terms.append(scalar_mvdl_loss(scores, y))
            mvdl = ad.tmean(ad.stack(terms))
            local_fn, global_fn = scalar_local_loss, scalar_global_loss
        loss = mvdl + 1.2 * local_fn(verbalizer_embeddings(model, verb), 4, 3)
        return loss + 0.7 * global_fn(verbalizer_embeddings(model, verb), 4, 3)

    def evaluate(self, packed, dropout, seed):
        cfg = ModelConfig(d=24, n_layers=2, n_heads=3, max_len=40,
                          vocab_size=len(self.vocab), dropout=dropout)
        model = MlmModel(cfg, seed=seed)
        head = head_with(np.random.default_rng(seed).normal(size=cfg.d))
        rng = np.random.default_rng(seed + 10) if dropout else None
        loss = self.objective(packed, model, head, rng)
        grads = ad.grad(loss, (model.params(), head.params()))
        return loss, {k: g.copy() for k, g in grads.items()}

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_training_objective(self, dropout):
        for seed in range(2):
            assert_same_bits(self.evaluate(True, dropout, seed),
                             self.evaluate(False, dropout, seed))

    def test_batched_posterior_matches_per_state_graph(self, rng):
        head = head_with(rng.normal(size=6))
        for m in (1, 3, 9):
            arrays = {f"h{j}": rng.normal(size=6) * 2 for j in range(m)}
            weights = rng.normal(size=m)
            new, old = [self.posterior_grads(fn, head, arrays, weights)
                        for fn in (lambda h, s: view_posterior(h, ad.stack(s)),
                                   reference_view_posterior)]
            assert_same_bits(new, old)

    @staticmethod
    def posterior_grads(fn, head, arrays, weights):
        states = ad.Arena(arrays)
        loss = ad.tsum(fn(head, list(states.values())) * weights)
        grads = ad.grad(loss, (states, head.params()))
        return loss, {k: g.copy() for k, g in grads.items()}

    def test_infer_batch_matches_one_prompt_at_a_time(self):
        model = MlmModel(ModelConfig(d=24, n_layers=2, n_heads=3, max_len=40,
                                     vocab_size=len(self.vocab)), seed=3)
        head = head_with(np.random.default_rng(3).normal(size=24))
        for mode in ("mixture", "product"):
            batch = infer_batch(model, head, self.prompts, self.verb, mode=mode)
            for prompt, (label, scores) in zip(self.prompts, batch):
                one_label, one_scores = infer(model, head, prompt, self.verb, mode=mode)
                assert label == one_label
                assert scores.tobytes() == one_scores.tobytes()


class TestTapeFreeInference:
    """Scoring under ``no_grad`` runs the same ops as training: the bits of
    the tape path, and outputs that carry no graph."""

    @staticmethod
    def world(m):
        spec = CorpusSpec(n_relations=3, instances_per_relation=4, aspects_per_relation=2,
                          vocab_pool_size=12, sentence_length_range=(6, 14), na_fraction=0.25)
        ds = generate_corpus(spec, seed=m)
        vocab, verb = build_vocab(ds, synthetic_schema(spec, ds, m))
        assert ds.na_label in verb.relation_order
        model = MlmModel(ModelConfig(d=24, n_layers=2, n_heads=3, max_len=48,
                                     vocab_size=len(vocab)), seed=m)
        head = head_with(np.random.default_rng(m).normal(size=24))
        return verb, model, head, [wrap_template(inst, vocab, m, 48) for inst in ds.instances]

    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_tape_bits_and_no_graph_node(self, m):
        verb, model, head, prompts = self.world(m)
        tape = view_scores(model, head, prompts, verb)
        tape_one = [view_scores(model, head, p, verb) for p in prompts]
        assert tape.posterior.requires_grad and tape.per_view.requires_grad
        with ad.no_grad():
            free = view_scores(model, head, prompts, verb)
            free_one = [view_scores(model, head, p, verb) for p in prompts]
        for new, old in [(free, tape), *zip(free_one, tape_one)]:
            for t in (new.posterior, new.per_view):
                assert not t.requires_grad and t._parents == () and t._backward is None
            assert new.posterior.data.tobytes() == old.posterior.data.tobytes()
            assert new.per_view.data.tobytes() == old.per_view.data.tobytes()
        for mode in ("mixture", "product"):
            batch = infer_batch(model, head, prompts, verb, mode=mode)
            for i, (prompt, (label, scores)) in enumerate(zip(prompts, batch)):
                old = relation_scores(tape.posterior.data[i], tape.per_view.data[i], mode)
                assert scores.tobytes() == old.tobytes()
                assert label == verb.relation_order[int(np.argmax(old))]
                one_label, one_scores = infer(model, head, prompt, verb, mode=mode)
                assert (one_label, one_scores.tobytes()) == (label, scores.tobytes())

    # sha256 of the labels and score bytes of infer_batch (mixture, then
    # product) and of the tape path's view_scores, frozen from the full-row
    # encoder before it read the mask rows only: an automatic check that
    # inference keeps its bits across changes to the encoder
    @pytest.mark.parametrize("m,digest", [
        (1, "44ce0f6d375a7ef09a7fedb9f6c03f807c9dbc763dc5af3dfce4718bd5369f02"),
        (3, "42f8ca8121564487c68d0679e7d76d4639ada51dd2685df51c69f70b07bbb195"),
        (9, "29d38f49180db00bc818e6f77129e4540953f6fa38b42dc116ec8b6790041b5a")])
    def test_score_bits_pinned(self, m, digest):
        verb, model, head, prompts = self.world(m)
        h = hashlib.sha256()
        for mode in ("mixture", "product"):
            for label, scores in infer_batch(model, head, prompts, verb, mode=mode):
                h.update(label.encode())
                h.update(scores.tobytes())
        tape = view_scores(model, head, prompts, verb)
        h.update(tape.posterior.data.tobytes())
        h.update(tape.per_view.data.tobytes())
        assert h.hexdigest() == digest
