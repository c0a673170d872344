"""Forward-pass contracts, optimizer arithmetic, pretraining, checkpoints."""

import numpy as np
import pytest

from mvre import autodiff as ad
from mvre.data import CorpusSpec, generate_corpus
from mvre.errors import ValidationError
from mvre.model import (AdamW, MlmModel, ModelConfig, PretrainConfig, adamw_step,
                        forward, forward_ids, load_checkpoint, mask_hidden,
                        pretrain_mlm, save_checkpoint)
from mvre.schema import synthetic_schema
from mvre.vocab import build_vocab, vocab_payload, wrap_template

from conftest import assert_grads_close, reference_adamw_step, reference_forward_ids


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
        _, logits = forward(self.model, self.prompt)
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_zero_model_uniform(self):
        zeroed = self.model.copy()
        for p in zeroed.params().values():
            p.data = np.zeros_like(p.data)
        _, logits = forward(zeroed, self.prompt)
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs, 1.0 / len(self.vocab), atol=1e-12)

    def test_bitwise_deterministic(self):
        _, l1 = forward(self.model, self.prompt)
        _, l2 = forward(self.model, self.prompt)
        assert l1.data.tobytes() == l2.data.tobytes()

    def test_hidden_rows_cover_live_prefix(self):
        hidden, logits = forward(self.model, self.prompt)
        assert hidden.shape == (self.prompt.attention_length, self.model.config.d)
        assert logits.shape == (self.prompt.attention_length, len(self.vocab))

    def test_too_long_sequence_rejected(self):
        ids = np.zeros(self.model.config.max_len + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="max_len"):
            forward_ids(self.model, ids)

    def test_out_of_vocab_id_rejected(self):
        ids = np.array([len(self.vocab) + 5])
        with pytest.raises(ValueError, match="vocabulary"):
            forward_ids(self.model, ids)

    def test_mask_hidden_bounds(self):
        hidden, _ = forward(self.model, self.prompt)
        v = mask_hidden(hidden, self.prompt, 1)
        np.testing.assert_array_equal(v.data, hidden.data[self.prompt.mask_positions[0]])
        v2 = mask_hidden(hidden, self.prompt, 2)
        np.testing.assert_array_equal(v2.data, hidden.data[self.prompt.mask_positions[1]])
        with pytest.raises(IndexError):
            mask_hidden(hidden, self.prompt, 3)

    def test_gradients_flow_through_encoder(self):
        small = toy_setup(d=8, n_heads=2, instances_per_relation=2)
        _, ds, _, vocab, _, model = small
        prompt = wrap_template(ds.instances[0], vocab, 1, 48)

        def f():
            _, logits = forward(model, prompt)
            row = ad.softmax(ad.index(logits, prompt.mask_positions[0]))
            return -ad.log(ad.index(row, 5) + 1e-12)

        # full-model finite-difference check on a few parameters
        params = model.params()
        subset = {k: params[k] for k in
                  ["token_embed", "blocks.0.attn.wq", "blocks.0.ffn.w1",
                   "final_norm.gamma", "head_bias", "pos_embed"]}
        assert_grads_close(f, subset, tol=1e-4)


class TestSublayersBitwise:
    """One node per sublayer gives the bits of the former graph of small nodes."""

    def run(self, forward_fn, model, ids, w, rows, rng=None):
        hidden, logits = forward_fn(model, ids, rng=rng, train=rng is not None)
        # reads a few rows of the head, as the masked-token loss does, so most
        # positions get an exactly zero upstream gradient
        loss = ad.tsum(ad.index(logits, rows) * w)
        grads = ad.grad(loss, model.params())
        return hidden.data, logits.data, grads

    def assert_same(self, cfg, L, seed, dropout_seed=None, upstream=1.0):
        model = MlmModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.params().values():  # off the initial ones and zeros
            p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
        ids = rng.integers(0, cfg.vocab_size, size=L)
        rows = np.unique(rng.integers(0, L, size=3))
        w = rng.normal(size=(len(rows), cfg.vocab_size)) * upstream

        def generator():  # a fresh, equal one for each side
            return None if dropout_seed is None else np.random.default_rng(dropout_seed)

        new = self.run(forward_ids, model, ids, w, rows, generator())
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
            hidden, logits = forward_ids(model, ids)
            ref_hidden, ref_logits = reference_forward_ids(model, ids)
        assert hidden._parents == () and not logits.requires_grad
        assert hidden.data.tobytes() == ref_hidden.data.tobytes()
        assert logits.data.tobytes() == ref_logits.data.tobytes()


class TestAdamW:
    def test_zero_grad_no_decay_fixed_point(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        params = {"p": p}
        adamw_step(params, {"p": np.zeros(2)}, {}, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_zero_grad_with_decay_scales(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        adamw_step({"p": p}, {"p": np.zeros(2)}, {}, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p.data, [0.95, -1.9])

    def test_hand_computed_single_step(self):
        # m=0.1, v=0.001 -> m_hat=1, v_hat=1 -> p = 1 - 0.1/(1+1e-8)
        p = ad.parameter(np.array(1.0))
        adamw_step({"p": p}, {"p": np.array(1.0)}, {}, lr=0.1,
                   betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        assert p.data == pytest.approx(0.9, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        p = ad.parameter(np.ones(3))
        with pytest.raises(ValueError, match="shape"):
            adamw_step({"p": p}, {"p": np.ones(4)}, {}, lr=0.1)

    def test_matches_reference_trajectory(self):
        # against an independently coded update rule, several steps
        rng = np.random.default_rng(3)
        p = ad.parameter(rng.normal(size=4))
        ref = p.data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.1)
        for t in range(1, 6):
            g = rng.normal(size=4)
            opt.step({"p": g})
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref = ref - 0.01 * 0.1 * ref
            ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(p.data, ref, rtol=1e-12)

    def test_flat_update_matches_per_parameter_update(self):
        rng = np.random.default_rng(5)
        shapes = {"a": (16, 24), "b": (24,), "c": (), "d": (8, 8)}
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat = {k: ad.parameter(v) for k, v in start.items()}
        ref = {k: ad.parameter(v) for k, v in start.items()}
        flat_state, ref_state = {}, {}
        for _ in range(5):
            grads = {k: rng.normal(size=s) for k, s in shapes.items() if k != "b"}
            adamw_step(flat, grads, flat_state, lr=0.01, weight_decay=0.1)
            reference_adamw_step(ref, grads, ref_state, lr=0.01, weight_decay=0.1)
            for k in shapes:
                assert flat[k].data.shape == shapes[k]
                assert flat[k].data.tobytes() == ref[k].data.tobytes(), k


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
        ("holdout_fraction", -0.1)])
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            pretrain_mlm(self.model, self.ds, self.vocab,
                         PretrainConfig(**{field: value}))

    def test_edge_values_accepted(self):
        PretrainConfig(steps=0, mask_rate=1.0, holdout_fraction=0.0).validate()

    def test_deterministic(self):
        m1 = self.model.copy()
        m2 = self.model.copy()
        cfg = PretrainConfig(steps=5, seed=3, log_every=0)
        r1 = pretrain_mlm(m1, self.ds, self.vocab, cfg)
        r2 = pretrain_mlm(m2, self.ds, self.vocab, cfg)
        for k, v in m1.param_values().items():
            assert v.tobytes() == m2.param_values()[k].tobytes()
        assert r1.holdout_accuracy == r2.holdout_accuracy

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
            _, logits = forward(model, p)
            row = ad.softmax(ad.index(logits, p.mask_positions[0]))
            loss = -ad.log(ad.index(row, targets[step % 4]) + 1e-12)
            opt.step(ad.grad(loss, model.params()))
        model.check_finite()
