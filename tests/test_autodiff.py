"""Gradient correctness of every engine op against central finite differences."""

import numpy as np
import pytest

from mvre import autodiff as ad
from mvre.errors import NumericError

from conftest import assert_grads_close, scalar_cosine


class TestBasics:
    def test_square_gradient(self):
        w = ad.parameter(np.array(3.0))
        loss = w * w
        loss.backward()
        assert w.grad == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        w = ad.parameter(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.grad(w * w, {"w": w})

    def test_unreachable_param_gets_zero_gradient(self):
        w = ad.parameter(np.array(2.0))
        other = ad.parameter(np.ones((2, 3)))
        grads = ad.grad(w * w, {"w": w, "other": other})
        assert grads["other"].shape == (2, 3)
        assert np.all(grads["other"] == 0.0)

    def test_no_grad_blocks_recording(self):
        w = ad.parameter(np.array(2.0))
        with ad.no_grad():
            y = w * w
        assert y._parents == ()
        assert not y.requires_grad

    def test_grad_accumulates_across_uses(self):
        w = ad.parameter(np.array(2.0))
        loss = w * w + w * 3.0
        loss.backward()
        assert w.grad == pytest.approx(7.0)

    def test_division_of_identical_values_has_exact_zero_gradient(self):
        # x / x must contribute a bitwise-zero gradient, not a rounding residue
        for val in (0.3, 1.7, 123.456, 1e-3):
            x = ad.parameter(np.array(val))
            s = ad.tsum(ad.stack([x]))
            ratio = x / s
            ratio.backward()
            assert x.grad == 0.0


class TestElementwiseGradients:
    @pytest.mark.parametrize("op", [ad.log, ad.exp, ad.sigmoid, ad.tanh, ad.gelu])
    def test_unary(self, op, rng):
        x = ad.parameter(rng.uniform(0.2, 2.0, size=(3, 4)))
        assert_grads_close(lambda: ad.tsum(op(x)), {"x": x})

    def test_binary_broadcasting(self, rng):
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4,)) + 2.0)
        assert_grads_close(lambda: ad.tsum(a * b + a / b - b), {"a": a, "b": b})

    def test_power(self, rng):
        x = ad.parameter(rng.uniform(0.5, 2.0, size=5))
        assert_grads_close(lambda: ad.tsum(x ** 3), {"x": x})


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4, 2)))
        assert_grads_close(lambda: ad.tsum(a @ b), {"a": a, "b": b})

    def test_1d_2d(self, rng):
        a = ad.parameter(rng.normal(size=4))
        b = ad.parameter(rng.normal(size=(4, 3)))
        assert_grads_close(lambda: ad.tsum(a @ b), {"a": a, "b": b})

    def test_2d_1d(self, rng):
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=4))
        assert_grads_close(lambda: ad.tsum(a @ b), {"a": a, "b": b})

    def test_dot(self, rng):
        a = ad.parameter(rng.normal(size=4))
        b = ad.parameter(rng.normal(size=4))
        assert_grads_close(lambda: ad.dot(a, b), {"a": a, "b": b})

    def test_transpose(self, rng):
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(3, 2)))
        assert_grads_close(lambda: ad.tsum(a.T @ b), {"a": a, "b": b})


class TestStructuredGradients:
    def test_softmax(self, rng):
        x = ad.parameter(rng.normal(size=(4, 7)))
        w = rng.normal(size=(4, 7))
        assert_grads_close(lambda: ad.tsum(ad.softmax(x) * w), {"x": x})

    def test_softmax_cross_entropy(self, rng):
        # classic case: -log softmax picked at one class per row
        x = ad.parameter(rng.normal(size=(4, 7)))
        targets = rng.integers(0, 7, size=4)

        def f():
            probs = ad.softmax(x)
            picked = ad.index(probs, (np.arange(4), targets))
            return -ad.tsum(ad.log(picked))

        assert_grads_close(f, {"x": x})

    def test_layer_norm(self, rng):
        x = ad.parameter(rng.normal(size=(5, 8)))
        gamma = ad.parameter(rng.normal(size=8))
        beta = ad.parameter(rng.normal(size=8))
        w = rng.normal(size=(5, 8))
        assert_grads_close(lambda: ad.tsum(ad.layer_norm(x, gamma, beta) * w),
                           {"x": x, "gamma": gamma, "beta": beta})

    def test_attention_sublayer(self, rng):
        L, d = 3, 4
        names = ("x", "gamma", "beta", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        shapes = {"x": (L, d), "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d)}
        args = {n: ad.parameter(rng.normal(size=shapes.get(n, (d,)))) for n in names}
        w = rng.normal(size=(L, d))
        # the key bias shifts a whole row of scores, which softmax ignores:
        # its gradient is zero, checked apart from the relative comparison
        checked = {n: t for n, t in args.items() if n != "bk"}
        for n_heads in (1, 2):
            def f():
                return ad.tsum(ad.attention_sublayer(*args.values(), n_heads=n_heads) * w)
            assert_grads_close(f, checked)
            np.testing.assert_allclose(ad.grad(f(), args)["bk"], 0.0, atol=1e-12)

    def test_ffn_sublayer(self, rng):
        L, d, h = 3, 4, 6
        shapes = {"x": (L, d), "gamma": (d,), "beta": (d,), "w1": (d, h), "b1": (h,),
                  "w2": (h, d), "b2": (d,)}
        args = {n: ad.parameter(rng.normal(size=s)) for n, s in shapes.items()}
        w = rng.normal(size=(L, d))
        assert_grads_close(lambda: ad.tsum(ad.ffn_sublayer(*args.values()) * w), args)

    def test_cosine_pairs(self, rng):
        a = ad.parameter(rng.normal(size=(4, 6)))
        left, right = np.array([0, 1, 2, 3, 0]), np.array([1, 1, 0, 2, 3])
        w = rng.normal(size=5)
        assert_grads_close(lambda: ad.tsum(ad.cosine_pairs(a, left, right) * w),
                           {"a": a})

    def test_cosine_pairs_rejects_zero_norm(self):
        a = ad.parameter(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.raises(NumericError):
            ad.cosine_pairs(a, [0], [1])

    def test_embedding_gather(self, rng):
        table = ad.parameter(rng.normal(size=(10, 4)))
        ids = np.array([1, 3, 3, 7])
        w = rng.normal(size=(4, 4))
        assert_grads_close(lambda: ad.tsum(ad.embedding(table, ids) * w),
                           {"table": table})

    def test_index_scalar_entry(self, rng):
        x = ad.parameter(rng.normal(size=(3, 4)))
        assert_grads_close(lambda: ad.index(x, (1, 2)) * 2.0, {"x": x})

    def test_stack_and_concat(self, rng):
        a = ad.parameter(rng.normal(size=(2, 3)))
        b = ad.parameter(rng.normal(size=(2, 3)))
        assert_grads_close(lambda: ad.tsum(ad.stack([a, b]) ** 2), {"a": a, "b": b})
        assert_grads_close(lambda: ad.tsum(ad.concat([a, b], axis=1) ** 2),
                           {"a": a, "b": b})

    def test_reductions(self, rng):
        x = ad.parameter(rng.normal(size=(3, 4)))
        assert_grads_close(lambda: ad.tmean(x), {"x": x})
        assert_grads_close(lambda: ad.tsum(ad.tmean(x, axis=0) ** 2), {"x": x})
        assert_grads_close(lambda: ad.tsum(ad.tsum(x, axis=1, keepdims=True) ** 2),
                           {"x": x})


class TestComposedGraphs:
    def test_mlp_chain(self, rng):
        x = rng.normal(size=(5, 6))
        w1 = ad.parameter(rng.normal(size=(6, 8)) * 0.3)
        b1 = ad.parameter(rng.normal(size=8) * 0.1)
        w2 = ad.parameter(rng.normal(size=(8, 3)) * 0.3)

        def f():
            h = ad.gelu(ad.tensor(x) @ w1 + b1)
            logits = h @ w2
            return ad.tmean(ad.softmax(logits) ** 2)

        assert_grads_close(f, {"w1": w1, "b1": b1, "w2": w2})

    def test_dropout_identity_at_zero_rate(self, rng):
        x = ad.parameter(rng.normal(size=(3, 3)))
        out = ad.dropout(x, 0.0, rng)
        assert out is x

    def test_dropout_scales_kept_entries(self):
        rng = np.random.default_rng(0)
        x = ad.parameter(np.ones((100, 100)))
        out = ad.dropout(x, 0.5, rng)
        vals = np.unique(out.data)
        assert set(vals.tolist()) == {0.0, 2.0}


class TestCosinePairsBitwise:
    """One array node gives the bits of one scalar cosine node per pair."""

    def run_both(self, rows, left, right, weights):
        def value_and_grad(cosines):
            e = ad.parameter(rows)
            c = cosines(ad.embedding(e, np.arange(len(rows))))
            ad.tsum(c * weights).backward()
            return c.data, e.grad

        new = value_and_grad(lambda emb: ad.cosine_pairs(emb, left, right))
        old = value_and_grad(lambda emb: ad.stack(
            [scalar_cosine(emb[int(i)], emb[int(j)]) for i, j in zip(left, right)]))
        return new, old

    def test_random_pairs_match_scalar_chain(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 40))
            rows = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)
            p = int(rng.integers(1, 30))
            left, right = rng.integers(0, n, size=p), rng.integers(0, n, size=p)
            (c_new, g_new), (c_old, g_old) = self.run_both(
                rows, left, right, rng.normal(size=p))
            assert c_new.tobytes() == c_old.tobytes()
            assert g_new.tobytes() == g_old.tobytes()

    def test_identical_rows_give_exact_one_and_zero_gradient(self, rng):
        row = rng.normal(size=5)
        rows = np.stack([row, row, rng.normal(size=5)])
        left, right = np.array([0, 1, 0]), np.array([1, 0, 0])
        (c_new, g_new), (c_old, g_old) = self.run_both(rows, left, right,
                                                       np.array([1.0, -2.0, 3.0]))
        assert c_new.tolist() == [1.0, 1.0, 1.0]
        assert np.all(g_new == 0.0) and not np.any(np.signbit(g_new))
        assert c_new.tobytes() == c_old.tobytes()
        assert g_new.tobytes() == g_old.tobytes()


class TestAccumulate:
    def test_shared_upstream_gradient_is_not_aliased(self, rng):
        # add() hands the same upstream array to both parents; a later
        # accumulation into one parent must not leak into the other
        a, b = ad.parameter(rng.normal(size=3)), ad.parameter(rng.normal(size=3))
        w, v = rng.normal(size=3), rng.normal(size=3)
        ad.tsum((a + b) * w + a * v).backward()
        np.testing.assert_array_equal(a.grad, w + v)
        np.testing.assert_array_equal(b.grad, w)
        assert not np.shares_memory(a.grad, b.grad)

    def test_self_sum_gets_both_contributions(self, rng):
        x = ad.parameter(rng.normal(size=4))
        w = rng.normal(size=4)
        y = x + x
        (ad.tsum(y * w) + ad.tsum(x * w)).backward()
        np.testing.assert_array_equal(x.grad, w + w + w)
        assert not np.shares_memory(x.grad, y.grad)

    def test_first_negative_zero_is_stored_as_positive_zero_in_arena(self):
        arena = ad.Arena({"x": np.ones(3), "y": np.ones(2)})
        x = arena["x"]
        grads = ad.grad(ad.tsum(x * np.array([-0.0, 1.0, -0.0])), arena)
        assert grads["x"] is x.grad and np.shares_memory(x.grad, grads["y"].base)
        assert grads["x"].tolist() == [0.0, 1.0, 0.0]
        assert not np.any(np.signbit(grads["x"]))

    def test_unreached_parameter_gets_exact_zeros_in_arena(self, rng):
        arena = ad.Arena({"x": rng.normal(size=3), "y": rng.normal(size=2)})
        x, y = arena["x"], arena["y"]
        ad.grad(ad.tsum(x * y[0]) + ad.tsum(y), arena)  # leaves nonzeros in y's view
        grads = ad.grad(ad.tsum(x * x), arena)
        assert grads["y"].tolist() == [0.0, 0.0] and not np.any(np.signbit(grads["y"]))
        np.testing.assert_array_equal(grads["x"], 2.0 * x.data)

    def test_first_negative_zero_is_stored_as_positive_zero(self):
        x = ad.parameter(np.ones(3))
        ad.tsum(x * np.array([-0.0, 1.0, -0.0])).backward()
        assert x.grad.tolist() == [0.0, 1.0, 0.0]
        assert not np.any(np.signbit(x.grad))
