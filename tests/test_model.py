"""Forward-pass contracts, optimizer arithmetic, pretraining, checkpoints."""

import contextlib
import pickle
import random
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from mvre import autodiff as ad
from mvre.cli import DEFAULTS, _from_checkpoint
from mvre.data import CorpusSpec, Dataset, generate_corpus, make_splits, sample_kshot
from mvre.errors import ValidationError
from mvre.experiments import TrainConfig, train
from mvre.losses import ViewPosteriorHead
from mvre.model import (AdamW, MlmModel, ModelConfig, PretrainConfig,
                        forward_batch, load_checkpoint, maskable_positions,
                        pretrain_mlm, save_checkpoint)
from mvre.schema import synthetic_schema
from mvre.vocab import build_vocab, encode_sentence, vocab_payload, wrap_template

from acceptance_workloads import TREND_M_HIGH, trend_world
from conftest import (assert_grads_close, drop_base_word, reference_adamw_step,
                      reference_forward_ids, repeat_relation, rewrite_header)


def toy_setup(m=2, n_relations=3, d=16, n_layers=1, n_heads=2, seed=0,
              max_len=48, instances_per_relation=6):
    spec = CorpusSpec(n_relations=n_relations,
                      instances_per_relation=instances_per_relation,
                      aspects_per_relation=2, vocab_pool_size=30,
                      sentence_length_range=(6, 9))
    ds = generate_corpus(spec, seed=seed)
    schema = synthetic_schema(spec, ds, m)
    vocab, verb = build_vocab(ds, schema)
    cfg = ModelConfig(d=d, n_layers=n_layers, n_heads=n_heads, max_len=max_len,
                      vocab_size=len(vocab))
    model = MlmModel(cfg, seed=seed)
    return spec, ds, schema, vocab, verb, model


class TestForward:
    def setup_method(self):
        (self.spec, self.ds, self.schema, self.vocab,
         self.verb, self.model) = toy_setup()
        self.prompt = wrap_template(self.ds.instances[0], self.vocab, 2, 48)

    def test_softmax_rows_normalize(self):
        _, logits = forward_batch(self.model, [self.prompt.ids])
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_zero_model_uniform(self):
        zeroed = self.model.copy()
        for p in zeroed.params().values():
            p.data[...] = 0.0
        _, logits = forward_batch(zeroed, [self.prompt.ids])
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs, 1.0 / len(self.vocab), atol=1e-12)

    def test_bitwise_deterministic(self):
        _, l1 = forward_batch(self.model, [self.prompt.ids])
        _, l2 = forward_batch(self.model, [self.prompt.ids])
        assert l1.data.tobytes() == l2.data.tobytes()

    def test_hidden_rows_cover_live_prefix(self):
        hidden, logits = forward_batch(self.model, [self.prompt.ids])
        assert hidden.shape == (len(self.prompt.ids), self.model.config.d)
        assert logits.shape == (len(self.prompt.ids), len(self.vocab))

    def test_too_long_sequence_rejected(self):
        ids = np.zeros(self.model.config.max_len + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="max_len"):
            forward_batch(self.model, [ids])

    def test_out_of_vocab_id_rejected(self):
        ids = np.array([len(self.vocab) + 5])
        with pytest.raises(ValueError, match="vocabulary"):
            forward_batch(self.model, [ids])

    def test_gradients_flow_through_encoder(self):
        small = toy_setup(d=8, n_heads=2, instances_per_relation=2)
        _, ds, _, vocab, _, model = small
        prompt = wrap_template(ds.instances[0], vocab, 1, 48)

        def f():
            _, logits = forward_batch(model, [prompt.ids])
            row = ad.softmax(ad.index(logits, prompt.mask_positions[0]))
            return -ad.log(ad.index(row, 5) + 1e-12)

        # full-model finite-difference check on a few parameters
        assert_grads_close(f, model.params(),
                           ["token_embed", "blocks.0.attn.wq", "blocks.0.ffn.w1",
                            "final_norm.gamma", "head_bias", "pos_embed"], tol=1e-4)


class TestSublayersBitwise:
    """One node per sublayer gives the bits of the former graph of small nodes."""

    def run(self, forward_fn, model, ids, w, rows, rng=None):
        hidden, logits = forward_fn(model, ids, rng=rng)
        # reads a few rows of the head, as the masked-token loss does, so most
        # positions get an exactly zero upstream gradient
        loss = ad.tsum(ad.index(logits, rows) * w)
        grads = ad.grad(loss, model.params())
        return hidden.data, logits.data, {k: g.copy() for k, g in grads.items()}

    def assert_same(self, cfg, L, seed, dropout_seed=None, upstream=1.0):
        model = MlmModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.params().values():  # off the initial ones and zeros
            p.data += rng.normal(0.0, 0.3, size=p.data.shape)
        ids = rng.integers(0, cfg.vocab_size, size=L)
        rows = np.unique(rng.integers(0, L, size=3))
        w = rng.normal(size=(len(rows), cfg.vocab_size)) * upstream

        def generator():  # a fresh, equal one for each side
            return None if dropout_seed is None else np.random.default_rng(dropout_seed)

        new = self.run(lambda model, ids, rng: forward_batch(model, [ids], rng=rng),
                       model, ids, w, rows, generator())
        old = self.run(reference_forward_ids, model, ids, w, rows, generator())
        assert new[0].tobytes() == old[0].tobytes()
        assert new[1].tobytes() == old[1].tobytes()
        assert new[2].keys() == old[2].keys()
        for name in old[2]:
            assert new[2][name].tobytes() == old[2][name].tobytes(), name

    # dh = 16 makes the score scale 1/4, exact; dh = 8 makes it round
    @pytest.mark.parametrize("d,n_heads,L", [(32, 2, 13), (64, 4, 21), (16, 1, 9),
                                             (24, 3, 10), (32, 2, 1)])
    def test_values_and_gradients(self, d, n_heads, L):
        cfg = ModelConfig(d=d, n_layers=2, n_heads=n_heads, max_len=32, vocab_size=40)
        for seed in range(3):
            self.assert_same(cfg, L, seed)

    @pytest.mark.parametrize("L", [1, 9])
    def test_zero_upstream_gradient(self, L):
        # every gradient is zero, so the sign of each zero must match too:
        # where the old graph stored a node's gradient, -0.0 became +0.0
        cfg = ModelConfig(d=32, n_layers=2, n_heads=2, max_len=32, vocab_size=40)
        for seed in range(3):
            self.assert_same(cfg, L, seed, upstream=0.0)

    def test_dropout_with_equal_generators(self):
        cfg = ModelConfig(d=32, n_layers=2, n_heads=2, max_len=32, vocab_size=40,
                          dropout=0.1)
        for seed in range(3):
            self.assert_same(cfg, 11, seed, dropout_seed=seed + 10)

    def test_no_grad_forward(self):
        _, _, _, _, _, model = toy_setup(d=32, n_layers=2, n_heads=2)
        ids = np.arange(1, 12)
        with ad.no_grad():
            hidden, logits = forward_batch(model, [ids])
            ref_hidden, ref_logits = reference_forward_ids(model, ids)
        assert hidden._parents == () and not logits.requires_grad
        assert hidden.data.tobytes() == ref_hidden.data.tobytes()
        assert logits.data.tobytes() == ref_logits.data.tobytes()


def offsets(lengths) -> np.ndarray:
    """First packed row of each sequence of a batch of these lengths."""
    return np.cumsum([0, *lengths[:-1]])


def assert_same_step(new, old):
    """Equal bits of two ``TestPackedBatchBitwise.step`` results."""
    assert new[0].tobytes() == old[0].tobytes()
    assert new[1].tobytes() == old[1].tobytes()
    if new[2] is not None:
        assert new[2].tobytes() == old[2].tobytes()
    assert new[3].keys() == old[3].keys()
    for name in old[3]:
        assert new[3][name].tobytes() == old[3][name].tobytes(), name


class TestPackedBatchBitwise:
    """A packed pretraining step gives the bits of one graph per sequence."""

    LENGTHS = (9, 1, 17, 12, 5, 3)  # unequal, with a 1-token sequence

    def batch(self, cfg, seed):
        model = MlmModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.params().values():  # off the initial ones and zeros
            p.data += rng.normal(0.0, 0.3, size=p.data.shape)
        seqs = [rng.integers(0, cfg.vocab_size, size=L) for L in self.LENGTHS]
        reads = [np.unique(rng.integers(0, L, size=3)) for L in self.LENGTHS]
        targets = np.concatenate([rng.integers(0, cfg.vocab_size, size=len(r))
                                  for r in reads])
        return model, seqs, reads, targets

    def step(self, mode, model, seqs, reads, targets, rng=None):
        """The masked-token loss of ``pretrain_mlm``: (loss, read logits, every
        logit or None, gradients). Mode "reads" runs the forward as
        ``pretrain_mlm`` does, on the read rows; "packed" computes every row and
        gathers the read ones; "graphs" runs one reference graph per sequence."""
        if mode == "reads":
            rows, logits = forward_batch(model, seqs, rng=rng, reads=reads)[1], None
        elif mode == "packed":
            _, logits = forward_batch(model, seqs, rng=rng)
            rows = ad.index(logits, np.concatenate(
                [s + r for s, r in zip(offsets(self.LENGTHS), reads)]))
            logits = logits.data
        else:
            outs = [reference_forward_ids(model, ids, rng=rng)[1] for ids in seqs]
            rows = ad.concat([ad.index(lg, r) for lg, r in zip(outs, reads)])
            logits = np.concatenate([lg.data for lg in outs])
        probs = ad.softmax(rows)
        loss = ad.tmean(-ad.log(ad.index(probs, (np.arange(len(targets)), targets)) + 1e-12))
        grads = ad.grad(loss, model.params()) if loss.requires_grad else {}
        return loss.data, rows.data, logits, {k: g.copy() for k, g in grads.items()}

    def assert_same(self, cfg, seed, dropout_seed=None):
        args = self.batch(cfg, seed)

        def generator():  # a fresh, equal one for each side
            return None if dropout_seed is None else np.random.default_rng(dropout_seed)

        old = self.step("graphs", *args, rng=generator())
        for mode in ("packed", "reads"):
            new = self.step(mode, *args, rng=generator())
            assert_same_step(new, old)

    @pytest.mark.parametrize("d,n_heads", [(32, 2), (64, 4), (24, 3)])
    def test_loss_logits_and_gradients(self, d, n_heads):
        cfg = ModelConfig(d=d, n_layers=2, n_heads=n_heads, max_len=32, vocab_size=40)
        for seed in range(3):
            self.assert_same(cfg, seed)

    def test_dropout_with_equal_generators(self):
        cfg = ModelConfig(d=32, n_layers=2, n_heads=2, max_len=32, vocab_size=40,
                          dropout=0.1)
        for seed in range(3):
            self.assert_same(cfg, seed, dropout_seed=seed + 10)

    def test_no_grad(self):
        cfg = ModelConfig(d=32, n_layers=2, n_heads=2, max_len=32, vocab_size=40)
        args = self.batch(cfg, 0)
        with ad.no_grad():
            hidden, logits = forward_batch(args[0], args[1])
            assert hidden._parents == () and not logits.requires_grad
            old = self.step("graphs", *args)
            for mode in ("packed", "reads"):
                assert_same_step(self.step(mode, *args), old)
        assert old[3] == {}
        assert hidden.shape == (sum(self.LENGTHS), 32) and logits.shape == (sum(self.LENGTHS), 40)
        assert list(offsets(self.LENGTHS)) == [0, 9, 10, 27, 39, 44]

    def test_empty_batch_rejected(self):
        cfg = ModelConfig(d=8, n_layers=1, n_heads=2, max_len=8, vocab_size=10)
        with pytest.raises(ValueError, match="at least one sequence"):
            forward_batch(MlmModel(cfg), [])


class TestReadRowsBitwise:
    """A forward that reads some rows gives each of them the bits of the
    forward that computes every row, on the tape and under ``no_grad``."""

    LENGTHS = TestPackedBatchBitwise.LENGTHS

    def read_sets(self, rng):
        """One row per sequence, every row, the last row only, random subsets."""
        yield [rng.integers(0, L, size=1) for L in self.LENGTHS]
        yield [np.arange(L) for L in self.LENGTHS]
        yield [np.array([L - 1]) for L in self.LENGTHS]
        yield [np.unique(rng.integers(0, L, size=rng.integers(0, 4))) for L in self.LENGTHS]

    def assert_same(self, cfg, seed, dropout_seed=None):
        model, seqs, _, _ = TestPackedBatchBitwise().batch(cfg, seed)

        def forward(reads=None):  # a fresh, equal generator for each call
            rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
            return forward_batch(model, seqs, rng=rng, reads=reads)

        hidden, logits = forward()
        for reads in self.read_sets(np.random.default_rng(seed)):
            rows = np.concatenate([o + r for o, r in zip(offsets(self.LENGTHS), reads)])
            for grad_mode in (contextlib.nullcontext, ad.no_grad):
                with grad_mode():
                    read_hidden, read_logits = forward(reads)
                assert read_hidden.data.tobytes() == hidden.data[rows].tobytes()
                assert read_logits.data.tobytes() == logits.data[rows].tobytes()

    @pytest.mark.parametrize("d,n_heads", [(32, 2), (64, 4), (24, 3)])
    def test_read_rows_keep_their_bits(self, d, n_heads):
        cfg = ModelConfig(d=d, n_layers=2, n_heads=n_heads, max_len=32, vocab_size=40)
        for seed in range(3):
            self.assert_same(cfg, seed)

    def test_dropout_with_equal_generators(self):
        cfg = ModelConfig(d=32, n_layers=2, n_heads=2, max_len=32, vocab_size=40,
                          dropout=0.1)
        for seed in range(3):
            self.assert_same(cfg, seed, dropout_seed=seed + 10)

    def test_one_layer_and_no_layer(self):
        for n_layers in (1, 0):
            self.assert_same(ModelConfig(d=32, n_layers=n_layers, n_heads=2, max_len=32,
                                         vocab_size=40), 0)

    @pytest.mark.parametrize("reads,match", [
        ([[0]], "reads name 1 sequences, the batch has 2"),
        ([[1, 0], [0]], "sequence 0 must increase strictly"),
        ([[0, 0], [0]], "sequence 0 must increase strictly"),
        ([[0], [3]], "within its 3 rows"),
        ([[-1], [0]], "sequence 0")])
    def test_bad_reads_rejected(self, reads, match):
        model = MlmModel(ModelConfig(d=8, n_layers=1, n_heads=2, max_len=8, vocab_size=10))
        with pytest.raises(ValueError, match=re.escape(match)):
            forward_batch(model, [[1, 2, 3, 4], [5, 6, 7]], reads=reads)


def arena_grads(arena: ad.Arena, g: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The gradient views ``ad.grad`` returns for ``arena``, holding exactly
    ``g`` (zeros for a parameter ``g`` omits): the gradient of sum(p * g)."""
    return ad.grad(sum(ad.tsum(arena[k] * v) for k, v in g.items()), arena)


class TestAdamW:
    def test_zero_grad_no_decay_fixed_point(self):
        arena = ad.Arena({"p": np.array([1.0, -2.0])})
        AdamW(arena, lr=0.1).step(arena_grads(arena, {"p": np.zeros(2)}))
        np.testing.assert_array_equal(arena["p"].data, [1.0, -2.0])

    def test_zero_grad_with_decay_scales(self):
        arena = ad.Arena({"p": np.array([1.0, -2.0])})
        AdamW(arena, lr=0.1, weight_decay=0.5).step(arena_grads(arena, {"p": np.zeros(2)}))
        np.testing.assert_allclose(arena["p"].data, [0.95, -1.9])

    def test_hand_computed_single_step(self):
        # m=0.1, v=0.001 -> m_hat=1, v_hat=1 -> p = 1 - 0.1/(1+1e-8)
        arena = ad.Arena({"p": np.array(1.0)})
        AdamW(arena, lr=0.1, weight_decay=0.0).step(arena_grads(arena, {"p": np.array(1.0)}))
        assert arena["p"].data == pytest.approx(0.9, abs=1e-6)

    def test_plain_dict_rejected(self):
        p = ad.Tensor(np.ones(2))
        arena = ad.Arena({"q": np.ones(2)})
        for params in ({"p": p}, [{"p": p}], (arena, {"p": p})):
            with pytest.raises(TypeError, match=r"ad\.Arena"):
                AdamW(params, lr=0.1)
            with pytest.raises(TypeError, match=r"ad\.Arena"):
                ad.check_finite(params)
            with pytest.raises(TypeError, match=r"ad\.Arena"):
                ad.grad(ad.tsum(p * arena["q"]), params)

    def test_matches_reference_trajectory(self):
        # against an independently coded update rule, several steps
        rng = np.random.default_rng(3)
        arena = ad.Arena({"p": rng.normal(size=4)})
        ref = arena["p"].data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        opt = AdamW(arena, lr=0.01, weight_decay=0.1)
        for t in range(1, 6):
            g = rng.normal(size=4)
            opt.step(arena_grads(arena, {"p": g}))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref = ref - 0.01 * 0.1 * ref
            ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(arena["p"].data, ref, rtol=1e-12)

    def test_flat_update_matches_per_parameter_update(self):
        rng = np.random.default_rng(5)
        shapes = {"a": (16, 24), "b": (24,), "c": (), "d": (8, 8)}
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat = ad.Arena(start)
        ref = {k: ad.Tensor(v) for k, v in start.items()}
        opt, ref_state = AdamW(flat, lr=0.01, weight_decay=0.1), {}
        for _ in range(5):
            g = {k: rng.normal(size=s) for k, s in shapes.items() if k != "b"}
            grads = arena_grads(flat, g)
            assert all(grads[k].tobytes() == v.tobytes() for k, v in g.items())
            opt.step(grads)
            reference_adamw_step(ref, g, ref_state, lr=0.01, weight_decay=0.1)
            for k in shapes:
                assert flat[k].data.shape == shapes[k]
                assert flat[k].data.tobytes() == ref[k].data.tobytes(), k
        assert_packed(flat)


def assert_packed(params: ad.Arena):
    """Every parameter's ``.data`` is its own slice of the arena's one vector."""
    flat, start = params.flat(), 0
    for name, p in params.items():
        assert p.data.base is flat, name
        assert np.shares_memory(p.data, flat[start : start + p.data.size]), name
        assert not np.shares_memory(p.data, flat[start + p.data.size :]), name
        start += p.data.size
    assert start == flat.size


def masked_token_loss(model, prompts, targets):
    _, logits = forward_batch(model, [p.ids for p in prompts])
    rows = (offsets([len(p.ids) for p in prompts])
            + np.array([p.mask_positions[0] for p in prompts]))
    probs = ad.softmax(ad.index(logits, rows))
    return ad.tmean(-ad.log(ad.index(probs, (np.arange(len(rows)), targets)) + 1e-12))


class TestParameterArena:
    def setup_method(self):
        (self.spec, self.ds, self.schema, self.vocab,
         self.verb, self.model) = toy_setup()

    def test_packed_after_construction_and_copy(self):
        assert_packed(self.model.params())
        clone = self.model.copy()
        assert_packed(clone.params())
        assert not np.shares_memory(clone.params().flat(), self.model.params().flat())
        assert clone.params().flat().tobytes() == self.model.params().flat().tobytes()
        head = ViewPosteriorHead(self.model.config.d)
        assert_packed(head.params())
        assert head.params().flat().shape == (self.model.config.d,)

    def test_packed_after_load_checkpoint_and_cli_artifacts(self, tmp_path):
        path = tmp_path / "m.ckpt"
        head_w = np.linspace(-1.0, 1.0, self.model.config.d)
        save_checkpoint(path, self.model, head_w=head_w,
                        vocab_payload=vocab_payload(self.vocab, self.verb))
        ckpt = load_checkpoint(path)
        assert_packed(ckpt.model.params())
        artifacts, _, _ = _from_checkpoint(str(path), dict(DEFAULTS))
        for params in (artifacts.model.params(), artifacts.head.params()):
            assert_packed(params)
        assert artifacts.head.w.data.tobytes() == head_w.tobytes()
        assert (artifacts.model.params().flat().tobytes()
                == self.model.params().flat().tobytes())

    def test_packed_after_best_dev_selection_train(self):
        splits = make_splits(self.ds, seed=0)
        cfg = TrainConfig(m=2, lr=5e-3, epochs=3, max_len=48, init_mode="static",
                          best_dev_selection=True,
                          model=ModelConfig(d=12, n_layers=1, n_heads=2, max_len=48))
        artifacts, _ = train(sample_kshot(splits, 2, 1), self.schema, cfg)
        assert_packed(artifacts.model.params())
        assert_packed(artifacts.head.params())

    def test_adamw_steps_in_place_match_per_parameter_update(self):
        ref = self.model.copy()
        prompts = [wrap_template(i, self.vocab, 2, 48) for i in self.ds.instances[:4]]
        targets = np.array([self.verb.virtual_id_by_index(i % 3, 1) for i in range(4)])
        opt, ref_state = AdamW(self.model.params(), lr=0.01, weight_decay=0.01), {}
        flat = self.model.params().flat()
        for _ in range(5):
            opt.step(ad.grad(masked_token_loss(self.model, prompts, targets),
                             self.model.params()))
            grads = ad.grad(masked_token_loss(ref, prompts, targets), ref.params())
            reference_adamw_step(ref.params(), grads, ref_state, lr=0.01,
                                 weight_decay=0.01)
        assert self.model.params().flat() is flat
        assert_packed(self.model.params())
        for name, p in self.model.params().items():
            assert p.data.tobytes() == ref.params()[name].data.tobytes(), name

    def test_packed_after_pickling(self):
        head = ViewPosteriorHead(self.model.config.d)
        model, head = pickle.loads(pickle.dumps((self.model, head)))
        assert_packed(model.params())
        assert_packed(head.params())
        assert head.w is head.params()["view_head.w"]
        assert model.params().flat().tobytes() == self.model.params().flat().tobytes()

    def test_rebound_data_raises_naming_the_parameter(self, tmp_path):
        opt = AdamW(self.model.params(), lr=0.01)
        p = self.model.params()["blocks.0.attn.wq"]
        p.data = p.data.copy()
        for whole_arena_read in (self.model.param_values, self.model.copy,
                                 self.model.check_finite, lambda: opt.step({}),
                                 lambda: save_checkpoint(tmp_path / "x.ckpt", self.model)):
            with pytest.raises(ValueError, match="'blocks.0.attn.wq' no longer views"):
                whole_arena_read()

    def test_arena_step_takes_only_the_gradient_views_grad_returns(self):
        opt = AdamW(self.model.params(), lr=0.01)
        grads = {k: np.zeros_like(p.data) for k, p in self.model.params().items()}
        with pytest.raises(ValueError, match="'token_embed' is not its arena view"):
            opt.step(grads)

    def test_grad_binds_views_of_one_gradient_vector(self):
        params = self.model.params()
        prompts = [wrap_template(i, self.vocab, 2, 48) for i in self.ds.instances[:2]]
        grads = ad.grad(masked_token_loss(self.model, prompts, np.array([3, 4])), params)
        base = grads["token_embed"].base
        assert all(g.base is base for g in grads.values())
        assert base.size == params.flat().size
        assert all(p.grad is None for p in params.values())


class TestPretrain:
    def setup_method(self):
        (self.spec, self.ds, self.schema, self.vocab,
         self.verb, self.model) = toy_setup(instances_per_relation=10)

    def test_zero_steps_noop(self):
        before = self.model.param_values()
        pretrain_mlm(self.model, self.ds, self.vocab, PretrainConfig(steps=0))
        after = self.model.param_values()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValidationError, match="batch_size"):
            pretrain_mlm(self.model, self.ds, self.vocab, PretrainConfig(batch_size=0))

    @pytest.mark.parametrize("field,value", [
        ("steps", -3), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
        ("lr", float("inf")), ("mask_rate", 0.0), ("mask_rate", 1.5),
        ("mask_rate", float("nan")), ("holdout_fraction", 1.0),
        ("holdout_fraction", -0.1), ("seed", -1)])
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            pretrain_mlm(self.model, self.ds, self.vocab,
                         PretrainConfig(**{field: value}))

    def test_holdout_taking_every_sentence_rejected(self):
        # round(3 * 0.9) = 3 would leave nothing to train on, and the
        # "held-out" accuracy would be measured on training sentences
        corpus = Dataset(self.ds.instances[:3], self.ds.relations)
        with pytest.raises(ValidationError, match="holdout_fraction=0.9 holds out all 3"):
            pretrain_mlm(self.model, corpus, self.vocab,
                         PretrainConfig(steps=1, holdout_fraction=0.9))

    @pytest.mark.parametrize("part", ["train", "held-out"])
    def test_sentence_over_max_len_rejected_before_any_step(self, monkeypatch, part):
        # 43 words + [CLS], [SEP] and four entity markers = 49 tokens, over max_len 48
        instances = list(self.ds.instances)
        order = np.random.default_rng([0, 0xA11]).permutation(len(instances))
        n_hold = int(round(len(instances) * 0.1))
        i = int(order[0] if part == "held-out" else order[-1])
        assert (i in order[:n_hold]) == (part == "held-out")
        instances[i] = replace(instances[i], tokens=instances[i].tokens
                               + ("w",) * (43 - len(instances[i].tokens)))
        steps, real_step = [], AdamW.step

        def step_spy(opt, grads):
            steps.append(opt.t)
            real_step(opt, grads)

        monkeypatch.setattr(AdamW, "step", step_spy)
        with pytest.raises(ValidationError, match=rf"pretraining sentence {i} is 49 tokens "
                                                  rf"long .*model\.max_len=48"):
            pretrain_mlm(self.model, Dataset(instances, self.ds.relations), self.vocab,
                         PretrainConfig(steps=3, seed=0, log_every=0))
        assert steps == []

    def test_edge_values_accepted(self):
        PretrainConfig(steps=0, mask_rate=1.0, holdout_fraction=0.0).validate()

    def test_maskable_positions_match_isin(self):
        spec, dataset, _, full = trend_world()
        vocab, _ = build_vocab(full, synthetic_schema(spec, dataset, TREND_M_HIGH))
        encoded = [encode_sentence(inst, vocab) for inst in full.instances]
        special = np.array(vocab.special_ids)
        for ids, got in zip(encoded, maskable_positions(encoded, vocab)):
            want = np.where(~np.isin(ids, special))[0]
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_fails_at_once(self):
        # steps of 1e300 overflow token_embed after step 2; training stops there
        cfg = PretrainConfig(steps=50, lr=1e300, log_every=0)
        with pytest.raises(FloatingPointError, match=r"NaN/Inf after AdamW step [123]$"):
            pretrain_mlm(self.model, self.ds, self.vocab, cfg)

    def test_deterministic(self):
        m1 = self.model.copy()
        m2 = self.model.copy()
        cfg = PretrainConfig(steps=5, seed=3, log_every=0)
        r1 = pretrain_mlm(m1, self.ds, self.vocab, cfg)
        r2 = pretrain_mlm(m2, self.ds, self.vocab, cfg)
        for k, v in m1.param_values().items():
            assert v.tobytes() == m2.param_values()[k].tobytes()
        assert r1.holdout_accuracy == r2.holdout_accuracy

    @pytest.mark.slow
    def test_accuracy_beats_uniform_by_wide_margin(self):
        """Regression gate: held-out masked-token accuracy >= 50x uniform.

        At the default 3000-step budget on the default corpus this measures
        0.347 against a 50x-uniform bar of 0.207; the 50x bar is the frozen
        threshold.
        """
        spec = CorpusSpec()
        ds = generate_corpus(spec, seed=1)
        schema = synthetic_schema(spec, ds, 1)
        vocab, _ = build_vocab(ds, schema)
        cfg = ModelConfig(d=32, n_layers=1, n_heads=2, max_len=48, vocab_size=len(vocab))
        model = MlmModel(cfg, seed=0)
        result = pretrain_mlm(model, ds, vocab, PretrainConfig(log_every=0))
        uniform = 1.0 / len(vocab)
        assert result.holdout_accuracy >= 50.0 * uniform, (
            f"accuracy {result.holdout_accuracy:.4f} below 50x uniform "
            f"{50.0 * uniform:.4f}")


class TestModelConfig:
    def test_float32_rejected(self):
        # every parameter is float64, so another dtype would be a silent lie
        cfg = ModelConfig(d=8, n_heads=2, vocab_size=10, dtype="float32")
        with pytest.raises(ValueError, match="float32"):
            cfg.validate()
        with pytest.raises(ValueError, match="float32"):
            MlmModel(cfg)

    @pytest.mark.parametrize("field,value", [
        ("d", 0), ("n_layers", -1), ("n_heads", 0), ("max_len", 0), ("dropout", 1.0),
        ("dropout", 1.5), ("dropout", -0.1), ("dropout", float("nan"))])
    def test_bad_field_rejected(self, field, value):
        # n_heads=0 used to end in a ZeroDivisionError, dropout=1.5 in all-zero masks
        with pytest.raises(ValueError, match=field):
            replace(ModelConfig(vocab_size=10), **{field: value}).validate()

    def test_edge_values_accepted(self):
        ModelConfig(d=1, n_layers=0, n_heads=1, max_len=1, vocab_size=1).validate()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        _, _, schema, vocab, verb, model = toy_setup()
        head_w = np.linspace(-1, 1, model.config.d)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, head_w=head_w,
                        vocab_payload=vocab_payload(vocab, verb),
                        extra={"note": "t"})
        ckpt = load_checkpoint(path)
        for k, v in model.param_values().items():
            np.testing.assert_array_equal(ckpt.model.param_values()[k], v)
        np.testing.assert_array_equal(ckpt.head_w, head_w)
        assert ckpt.vocab_payload["base_size"] == vocab.base_size
        assert ckpt.extra == {"note": "t"}

    def test_shape_validation(self, tmp_path):
        _, _, _, vocab, verb, model = toy_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        # tamper: claim a different d in the header config
        text = raw.decode("latin-1")
        text = text.replace('"d":16', '"d":8', 1)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        _, _, _, vocab, verb, model = toy_setup()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, vocab_payload=vocab_payload(vocab, verb))
        save_checkpoint(p2, model, vocab_payload=vocab_payload(vocab, verb))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_names_both_sizes(self, tmp_path):
        _, _, _, vocab, verb, model = toy_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab_payload=vocab_payload(vocab, verb))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match=f"{len(raw) - 8} bytes.*implies {len(raw)}"):
            load_checkpoint(path)
        for cut in (12, 40):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"truncated checkpoint header \\({cut} bytes"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, _, vocab, verb, model = toy_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\0" * 8)
        with pytest.raises(ValueError, match=f"{len(raw) + 8} bytes.*implies {len(raw)}"):
            load_checkpoint(path)

    def test_seeded_header_mutations_name_the_file(self, tmp_path):
        # each mutated header loads, or raises a plain ValueError naming the
        # file (never a UnicodeDecodeError, KeyError or TypeError traceback)
        _, _, _, vocab, verb, model = toy_setup(d=8, n_heads=2)
        path = tmp_path / "fuzz.ckpt"
        save_checkpoint(path, model, head_w=np.zeros(8),
                        vocab_payload=vocab_payload(vocab, verb), extra={"note": "t"})
        raw = path.read_bytes()
        start = len(b"MVRECKPT1\n") + 8
        hlen = struct.unpack_from("<Q", raw, start - 8)[0]
        rng = random.Random(20261019)
        pool = b'{}[]":,0123456789-.eE+ ntrufalsdx'
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(400):
            mutated = bytearray(raw)
            for _ in range(rng.randint(1, 3)):
                mutated[start + rng.randrange(hlen)] = (rng.randrange(256) if rng.random() < 0.3
                                                        else rng.choice(pool))
            path.write_bytes(bytes(mutated))
            try:
                load_checkpoint(path)
                outcomes["loaded"] += 1
            except ValueError as e:
                assert type(e) is ValueError and str(e).startswith(f"{path}: "), repr(e)
                outcomes["rejected"] += 1
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("edit,field", [
        (lambda h: h["config"].update(width=3), "'config' has unknown keys ['width']"),
        (lambda h: h["arrays"][1].pop("shape"), "'arrays[1]' must hold exactly"),
        (lambda h: h["config"].update(d="16"), "'config.d' must be int"),
        (lambda h: h["arrays"][0].update(shape=[-76, -16]), "'arrays[0].shape'"),
        (lambda h: h.update(vocab=[1]), "'vocab': vocabulary payload must hold exactly"),
        (lambda h: h["vocab"].update(base_size="7"), "'base_size' and 'm' must be positive"),
        (lambda h: h["vocab"]["words"].append("w"), "'relation_order' x 'm' implies"),
        (repeat_relation, "'relation_order' repeats"),
        (lambda h: h["vocab"]["words"].__setitem__(0, "[PADDING]"),
         "lacks the special words ['[PAD]']")])
    def test_bad_header_field_named(self, tmp_path, edit, field):
        _, _, _, vocab, verb, model = toy_setup(d=8, n_heads=2)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, model, vocab_payload=vocab_payload(vocab, verb))
        rewrite_header(path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(field)}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["head_bias", "view_head.w"])
    def test_repeated_array_name_rejected(self, tmp_path, name):
        # a second entry for an array, its bytes appended: no copy may win silently
        _, _, _, vocab, verb, model = toy_setup(d=8, n_heads=2)
        path = tmp_path / "twice.ckpt"
        save_checkpoint(path, model, head_w=np.zeros(8), vocab_payload=vocab_payload(vocab, verb))
        shapes = []

        def repeat(header):
            entry = next(e for e in header["arrays"] if e["name"] == name)
            shapes.append(entry["shape"])
            header["arrays"].append(dict(entry))

        rewrite_header(path, repeat)
        path.write_bytes(path.read_bytes() + np.full(shapes[0], 7.0).tobytes())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: header field "
                           rf"'arrays\[\d+\]\.name' repeats the array {re.escape(repr(name))}$"):
            load_checkpoint(path)

    def test_vocab_must_name_every_embedding_row(self, tmp_path):
        # one base word fewer would shift every virtual-word id by one row
        _, _, _, vocab, verb, model = toy_setup(d=8, n_heads=2)
        path = tmp_path / "short.ckpt"
        save_checkpoint(path, model, vocab_payload=vocab_payload(vocab, verb))
        rewrite_header(path, drop_base_word)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header field 'vocab' "
                           f"holds {len(vocab) - 1} words, 'config.vocab_size' is {len(vocab)}$"):
            load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a recognized"):
            load_checkpoint(path)


class TestStability:
    def test_no_nan_inf_over_1000_steps(self):
        _, ds, schema, vocab, verb, model = toy_setup(d=8, n_heads=2)
        prompts = [wrap_template(i, vocab, 2, 48) for i in ds.instances[:4]]
        targets = [verb.virtual_id_by_index(i % 3, 1) for i in range(4)]
        opt = AdamW(model.params(), lr=0.01, weight_decay=0.01)
        for step in range(1000):
            p = prompts[step % len(prompts)]
            _, logits = forward_batch(model, [p.ids])
            row = ad.softmax(ad.index(logits, p.mask_positions[0]))
            loss = -ad.log(ad.index(row, targets[step % 4]) + 1e-12)
            opt.step(ad.grad(loss, model.params()))
        model.check_finite()
