"""Virtual-word initialization: seed-word means, cloze probing, combination."""

import numpy as np
import pytest

from mvre.data import Dataset, RelationInstance
from mvre.errors import InitError
from mvre.init_schemes import (apply_init, dynamic_init, encode_probe_template,
                               _dynamic_vectors, _static_vectors)
from mvre.model import MlmModel, ModelConfig
from mvre.schema import RelationSchema, schema_from_relations
from mvre.vocab import MASK, UNK, build_vocab, decode


def make_env(m=2, relations=("relA", "relB"), d=6, si_tokens=None, templates=None):
    instances = []
    for rel in relations:
        toks = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
        instances.append(RelationInstance(toks, (0, 0), (2, 2), rel))
    ds = Dataset(tuple(instances), tuple(relations))
    si = si_tokens or {r: ["alpha", "beta"] for r in relations}
    tpl = templates or {r: f"alpha beta [MASK]*m gamma" for r in relations}
    schema = RelationSchema(tuple(relations), m, None, tpl, si)
    schema.validate()
    vocab, verb = build_vocab(ds, schema)
    cfg = ModelConfig(d=d, n_layers=1, n_heads=2, max_len=32, vocab_size=len(vocab))
    model = MlmModel(cfg, seed=0)
    return ds, schema, vocab, verb, model


class TestProbeTemplate:
    def test_expansion_and_positions(self):
        ds, schema, vocab, verb, model = make_env(m=3)
        prompt = encode_probe_template("alpha [MASK]*m beta .", vocab, 3, 32)
        words = decode(prompt, vocab)
        assert words == ["[CLS]", "alpha", MASK, MASK, MASK, "beta", "[UNK]", "[SEP]"]
        assert prompt.mask_positions == (2, 3, 4)

    def test_missing_placeholder(self):
        ds, schema, vocab, verb, model = make_env()
        with pytest.raises(InitError, match="placeholder"):
            encode_probe_template("alpha beta", vocab, 2, 32)

    def test_too_long(self):
        ds, schema, vocab, verb, model = make_env()
        with pytest.raises(InitError, match="max_len"):
            encode_probe_template("alpha [MASK]*m " + "beta " * 40, vocab, 2, 32)


class TestStaticInit:
    def test_hand_computed_mean(self):
        ds, schema, vocab, verb, model = make_env(
            d=2, si_tokens={"relA": ["alpha", "beta", "gamma"],
                            "relB": ["alpha"]})
        te = model.token_embed.data
        te[vocab.id_of("alpha")] = [1.0, 0.0]
        te[vocab.id_of("beta")] = [0.0, 1.0]
        te[vocab.id_of("gamma")] = [1.0, 1.0]
        vectors, report = apply_init("static", schema, vocab, verb, model)
        assert report == []
        np.testing.assert_allclose(vectors[0, 0], [2 / 3, 2 / 3])
        np.testing.assert_allclose(vectors[0, 1], [2 / 3, 2 / 3])  # same for all views
        # single seed word: embedding verbatim
        np.testing.assert_allclose(vectors[1, 0], [1.0, 0.0])
        # and the virtual rows were written
        np.testing.assert_allclose(te[verb.virtual_id("relA", 1)], [2 / 3, 2 / 3])

    def test_unknown_tokens_map_to_unk(self, caplog):
        ds, schema, vocab, verb, model = make_env(
            si_tokens={"relA": ["alpha", "nosuchword"], "relB": ["beta"]})
        with caplog.at_level("WARNING"):
            vectors, _ = apply_init("static", schema, vocab, verb, model)
        assert "nosuchword" in caplog.text
        te = model.token_embed.data
        expected = 0.5 * (te[vocab.id_of("alpha")] + te[vocab.id_of(UNK)])
        np.testing.assert_allclose(vectors[0, 0], expected)

    def test_all_unknown_errors_with_relation_name(self):
        ds, schema, vocab, verb, model = make_env(
            si_tokens={"relA": ["zzz", "qqq"], "relB": ["beta"]})
        with pytest.raises(InitError, match="relA"):
            apply_init("static", schema, vocab, verb, model)


class TestDynamicInit:
    def test_report_shape_and_writes(self):
        ds, schema, vocab, verb, model = make_env(m=3)
        vectors, report = dynamic_init(schema, vocab, verb, model)
        assert vectors.shape == (2, 3, model.config.d)
        assert len(report) == 6
        assert {(r.relation, r.view) for r in report} == {
            (rel, j) for rel in ("relA", "relB") for j in (1, 2, 3)}
        te = model.token_embed.data
        for rec in report:
            donor = te[vocab.id_of(rec.token)]
            vid = verb.virtual_id(rec.relation, rec.view)
            np.testing.assert_allclose(te[vid], donor)

    def test_never_special_or_virtual(self):
        ds, schema, vocab, verb, model = make_env()
        special = set(vocab.words[i] for i in vocab.special_ids)
        for seed in range(25):
            m2 = MlmModel(model.config, seed=seed)
            _, report = dynamic_init(schema, vocab, verb, m2)
            for rec in report:
                assert rec.token not in special
                assert not rec.token.startswith("[V:")

    def test_uniform_model_tie_breaks_to_lowest_id(self):
        ds, schema, vocab, verb, model = make_env()
        for p in model.params().values():
            p.data[...] = 0.0
        _, report = dynamic_init(schema, vocab, verb, model)
        # all-zero model -> uniform logits -> argmax over allowed ids is the
        # first ordinary word, which is the lexicographically first corpus word
        first_ordinary = vocab.word_of(len(vocab.special_ids))
        for rec in report:
            assert rec.token == first_ordinary
            assert rec.probability == pytest.approx(1.0 / len(vocab))

    def test_missing_template_errors(self):
        ds, schema, vocab, verb, model = make_env()
        broken = RelationSchema(schema.relations, schema.m, None,
                                {"relA": schema.probe_templates["relA"]},
                                schema.si_tokens)
        with pytest.raises(InitError, match="relB"):
            dynamic_init(broken, vocab, verb, model)

    def test_probabilities_are_full_softmax_values(self):
        ds, schema, vocab, verb, model = make_env()
        _, report = dynamic_init(schema, vocab, verb, model)
        for rec in report:
            assert 0.0 < rec.probability < 1.0


class TestCombinedInit:
    def test_elementwise_mean(self):
        ds, schema, vocab, verb, model = make_env()
        s = _static_vectors(schema, vocab, model)
        dvec, _ = _dynamic_vectors(schema, vocab, model)
        combined, _ = apply_init("combined", schema, vocab, verb, model)
        np.testing.assert_allclose(combined, 0.5 * (s + dvec))

    def test_idempotent_when_equal(self):
        ds, schema, vocab, verb, model = make_env(
            si_tokens={"relA": ["alpha"], "relB": ["alpha"]})
        te = model.token_embed.data
        # force the probe to also pick alpha by making its logit dominate
        alpha_id = vocab.id_of("alpha")
        model.params()["head_bias"].data[alpha_id] = 50.0
        combined, report = apply_init("combined", schema, vocab, verb, model)
        assert all(r.token == "alpha" for r in report)
        np.testing.assert_allclose(combined[0, 0], te[alpha_id])


class TestApplyInit:
    def test_random_mode_is_noop(self):
        ds, schema, vocab, verb, model = make_env()
        before = model.param_values()
        assert apply_init("random", schema, vocab, verb, model) == (None, [])
        for k, v in model.param_values().items():
            np.testing.assert_array_equal(before[k], v)

    def test_unknown_mode(self):
        ds, schema, vocab, verb, model = make_env()
        with pytest.raises(InitError, match="unknown init mode"):
            apply_init("bogus", schema, vocab, verb, model)

    @pytest.mark.parametrize("mode", ["static", "dynamic", "combined"])
    def test_modes_touch_only_virtual_rows(self, mode):
        ds, schema, vocab, verb, model = make_env()
        before = model.token_embed.data.copy()
        vectors, _ = apply_init(mode, schema, vocab, verb, model)
        after = model.token_embed.data
        # the [|Y|, m, d] vectors land in (relation, view) order, bit for bit
        assert after[verb.all_ids()].tobytes() == vectors.tobytes()
        np.testing.assert_array_equal(before[: vocab.base_size],
                                      after[: vocab.base_size])
        assert not np.array_equal(before[vocab.base_size :],
                                  after[vocab.base_size :])
