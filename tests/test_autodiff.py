"""Gradient correctness of every engine op against central finite differences."""

import re
import warnings

import numpy as np
import pytest

from mvre import autodiff as ad
from mvre.errors import NumericError

from conftest import assert_grads_close, reference_erf, scalar_cosine


def sum_of_squares(y):
    return ad.tsum(y * y)


class TestBasics:
    def test_tensor_holds_float64(self):
        for data in (np.arange(3), np.ones(3, dtype=np.float32), [1, 2], 5):
            t = ad.Tensor(data)
            assert t.data.dtype == np.float64
            np.testing.assert_array_equal(t.data, np.asarray(data))
        arr = np.ones((2, 3))
        assert ad.Tensor(arr).data is arr

    def test_square_gradient(self):
        arena = ad.Arena({"w": np.array(3.0)})
        w = arena["w"]
        assert ad.grad(w * w, arena)["w"] == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        arena = ad.Arena({"w": np.ones(3)})
        with pytest.raises(ValueError, match="scalar"):
            ad.grad(arena["w"] * arena["w"], arena)

    def test_unreachable_param_gets_zero_gradient(self):
        arena = ad.Arena({"w": np.array(2.0), "other": np.ones((2, 3))})
        grads = ad.grad(arena["w"] * arena["w"], arena)
        assert grads["other"].shape == (2, 3)
        assert np.all(grads["other"] == 0.0)

    def test_no_grad_blocks_recording(self):
        w = ad.Arena({"w": np.array(2.0)})["w"]
        with ad.no_grad():
            y = w * w
        assert y._parents == ()
        assert not y.requires_grad

    def test_grad_accumulates_across_uses(self):
        arena = ad.Arena({"w": np.array(2.0)})
        w = arena["w"]
        assert ad.grad(w * w + w * 3.0, arena)["w"] == pytest.approx(7.0)

    def test_division_of_identical_values_has_exact_zero_gradient(self):
        # x / x must contribute a bitwise-zero gradient, not a rounding residue
        for val in (0.3, 1.7, 123.456, 1e-3):
            arena = ad.Arena({"x": np.array(val)})
            x = arena["x"]
            s = ad.tsum(ad.stack([x]))
            assert ad.grad(x / s, arena)["x"] == 0.0


class TestElementwiseGradients:
    @pytest.mark.parametrize("op", [ad.log, ad.sigmoid, ad.gelu])
    def test_unary(self, op, rng):
        p = ad.Arena({"x": rng.uniform(0.2, 2.0, size=(3, 4))})
        assert_grads_close(lambda: ad.tsum(op(p["x"])), p)

    def test_binary_broadcasting(self, rng):
        p = ad.Arena({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,)) + 2.0})
        a, b = p["a"], p["b"]
        assert_grads_close(lambda: ad.tsum(a * b + a / b + -b), p)


def erf_sample() -> np.ndarray:
    """Seeded inputs over every branch of cephes erf, both signs, with the
    values at and next to each branch boundary and the special values."""
    rng = np.random.default_rng(20231229)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 8.0,
             np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 26.64, 26.7, 1e155, 1e300,
             np.finfo(np.float64).max, np.inf, tiny, 1000 * tiny,
             np.finfo(np.float64).tiny, np.nextafter(np.finfo(np.float64).tiny, 0.0)]
    magnitudes = np.concatenate([
        edges, rng.uniform(0.0, 1.0, 3000), rng.uniform(1.0, 8.0, 6000),
        rng.uniform(8.0, 26.7, 500), rng.uniform(26.7, 1e3, 500),
        10.0 ** rng.uniform(-320, -5, 500)])
    return np.concatenate([magnitudes, -magnitudes, [np.nan, -np.nan]])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns, any NaN standing for any NaN."""
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestErfKernel:
    @pytest.mark.parametrize("strict", [False, True])
    def test_cephes_bits(self, strict):
        x = erf_sample()
        expected = np.array([reference_erf(float(v)) for v in x])
        with warnings.catch_warnings(), np.errstate(all="raise" if strict else "warn"):
            if strict:
                warnings.simplefilter("error")
            got = ad._erf(x)
        assert same_bits(got, expected)

    def test_scipy_bits(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([erf_sample(), np.random.default_rng(7).normal(0.0, 4.0, 100_000)])
        assert same_bits(ad._erf(x), special.erf(x))

    def test_shapes_and_layouts(self):
        x = erf_sample()[:600]
        for arr in (x.reshape(20, 30), np.asfortranarray(x.reshape(20, 30)), x[::2],
                    np.array(0.5)):
            got = ad._erf(arr)
            assert got.shape == arr.shape and same_bits(got.ravel(), ad._erf(arr.ravel()))


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        p = ad.Arena({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))})
        assert_grads_close(lambda: ad.tsum(p["a"] @ p["b"]), p)

    @pytest.mark.parametrize("a_shape, b_shape", [((4,), (4, 3)), ((3, 4), (4,)),
                                                  ((2, 3, 4), (4, 2))])
    def test_other_operand_pairs_rejected(self, a_shape, b_shape):
        a, b = ad.Tensor(np.ones(a_shape)), ad.Tensor(np.ones(b_shape))
        with pytest.raises(ValueError, match=re.escape(f"got shapes {a_shape} @ {b_shape}")):
            ad.matmul(a, b)

    def test_dot(self, rng):
        p = ad.Arena({"a": rng.normal(size=4), "b": rng.normal(size=4)})
        assert_grads_close(lambda: p["a"] @ p["b"], p)

    def test_transpose(self, rng):
        p = ad.Arena({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 2))})
        assert_grads_close(lambda: ad.tsum(p["a"].T @ p["b"]), p)


class TestStructuredGradients:
    def test_softmax(self, rng):
        p = ad.Arena({"x": rng.normal(size=(4, 7))})
        w = rng.normal(size=(4, 7))
        assert_grads_close(lambda: ad.tsum(ad.softmax(p["x"]) * w), p)

    def test_softmax_cross_entropy(self, rng):
        # classic case: -log softmax picked at one class per row
        p = ad.Arena({"x": rng.normal(size=(4, 7))})
        targets = rng.integers(0, 7, size=4)

        def f():
            probs = ad.softmax(p["x"])
            picked = ad.index(probs, (np.arange(4), targets))
            return -ad.tsum(ad.log(picked))

        assert_grads_close(f, p)

    def test_layer_norm(self, rng):
        p = ad.Arena({"x": rng.normal(size=(5, 8)), "gamma": rng.normal(size=8),
                      "beta": rng.normal(size=8)})
        w = rng.normal(size=(5, 8))
        assert_grads_close(lambda: ad.tsum(ad.layer_norm(*p.values()) * w), p)

    def test_attention_sublayer(self, rng):
        L, d = 3, 4
        names = ("x", "gamma", "beta", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        shapes = {"x": (L, d), "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d)}
        args = ad.Arena({n: rng.normal(size=shapes.get(n, (d,))) for n in names})
        w = rng.normal(size=(L, d))
        # the key bias shifts a whole row of scores, which softmax ignores:
        # its gradient is zero, checked apart from the relative comparison
        checked = [n for n in names if n != "bk"]
        for n_heads in (1, 2):
            def f():
                return ad.tsum(ad.attention_sublayer(*args.values(), n_heads=n_heads) * w)
            assert_grads_close(f, args, checked)
            np.testing.assert_allclose(ad.grad(f(), args)["bk"], 0.0, atol=1e-12)

    def test_ffn_sublayer(self, rng):
        L, d, h = 3, 4, 6
        shapes = {"x": (L, d), "gamma": (d,), "beta": (d,), "w1": (d, h), "b1": (h,),
                  "w2": (h, d), "b2": (d,)}
        args = ad.Arena({n: rng.normal(size=s) for n, s in shapes.items()})
        w = rng.normal(size=(L, d))
        assert_grads_close(lambda: ad.tsum(ad.ffn_sublayer(*args.values()) * w), args)

    def test_cosine_pairs(self, rng):
        p = ad.Arena({"a": rng.normal(size=(4, 6))})
        left, right = np.array([0, 1, 2, 3, 0]), np.array([1, 1, 0, 2, 3])
        w = rng.normal(size=5)
        assert_grads_close(lambda: ad.tsum(ad.cosine_pairs(p["a"], left, right) * w), p)

    def test_cosine_pairs_rejects_zero_norm(self):
        a = ad.Arena({"a": np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])})["a"]
        with pytest.raises(NumericError):
            ad.cosine_pairs(a, [0], [1])

    def test_embedding_gather(self, rng):
        p = ad.Arena({"table": rng.normal(size=(10, 4))})
        ids = np.array([1, 3, 3, 7])
        w = rng.normal(size=(4, 4))
        assert_grads_close(lambda: ad.tsum(ad.index(p["table"], ids) * w), p)

    def test_index_scalar_entry(self, rng):
        p = ad.Arena({"x": rng.normal(size=(3, 4))})
        assert_grads_close(lambda: ad.index(p["x"], (1, 2)) * 2.0, p)

    def test_stack_and_concat(self, rng):
        p = ad.Arena({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 3))})
        assert_grads_close(lambda: sum_of_squares(ad.stack(list(p.values()))), p)
        assert_grads_close(lambda: sum_of_squares(ad.concat(list(p.values()), axis=1)), p)

    def test_reductions(self, rng):
        p = ad.Arena({"x": rng.normal(size=(3, 4))})
        assert_grads_close(lambda: ad.tmean(p["x"]), p)
        assert_grads_close(lambda: sum_of_squares(ad.tsum(p["x"], axis=1, keepdims=True)), p)

    @pytest.mark.parametrize("axis", [1, -1, -2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_over_one_axis_of_3d(self, rng, axis, keepdims):
        p = ad.Arena({"x": rng.normal(size=(2, 3, 4))})
        w = rng.normal(size=np.sum(p["x"].data, axis=axis, keepdims=keepdims).shape)
        assert_grads_close(lambda: ad.tsum(ad.tsum(p["x"], axis=axis, keepdims=keepdims) * w), p)


class TestComposedGraphs:
    def test_mlp_chain(self, rng):
        x = rng.normal(size=(5, 6))
        p = ad.Arena({"w1": rng.normal(size=(6, 8)) * 0.3, "b1": rng.normal(size=8) * 0.1,
                      "w2": rng.normal(size=(8, 3)) * 0.3})

        def f():
            h = ad.gelu(ad.Tensor(x) @ p["w1"] + p["b1"])
            logits = h @ p["w2"]
            probs = ad.softmax(logits)
            return ad.tmean(probs * probs)

        assert_grads_close(f, p)

    def test_dropout_identity_at_zero_rate(self, rng):
        x = ad.Arena({"x": rng.normal(size=(3, 3))})["x"]
        out = ad.dropout(x, 0.0, rng.random(x.shape))
        assert out is x

    def test_dropout_scales_kept_entries(self):
        rng = np.random.default_rng(0)
        x = ad.Arena({"x": np.ones((100, 100))})["x"]
        out = ad.dropout(x, 0.5, rng.random(x.shape))
        vals = np.unique(out.data)
        assert set(vals.tolist()) == {0.0, 2.0}


class TestCosinePairsBitwise:
    """One array node gives the bits of one scalar cosine node per pair."""

    def run_both(self, rows, left, right, weights):
        def value_and_grad(cosines):
            arena = ad.Arena({"e": rows})
            c = cosines(ad.index(arena["e"], np.arange(len(rows))))
            return c.data, ad.grad(ad.tsum(c * weights), arena)["e"]

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
        # add() hands the same upstream array to both parents, here the
        # interior nodes ha and hb; a later accumulation into one of them
        # must not leak into the other
        arena = ad.Arena({"a": rng.normal(size=3), "b": rng.normal(size=3)})
        w, v, u = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        ha, hb = arena["a"] * 1.0, arena["b"] * 1.0
        grads = ad.grad(ad.tsum((ha + hb) * w + ha * v + hb * u), arena)
        np.testing.assert_array_equal(grads["a"], w + v)
        np.testing.assert_array_equal(grads["b"], w + u)
        assert not np.shares_memory(grads["a"], grads["b"])

    def test_self_sum_gets_both_contributions(self, rng):
        arena = ad.Arena({"x": rng.normal(size=4)})
        w = rng.normal(size=4)
        hx = arena["x"] * 1.0
        y = hx + hx
        grads = ad.grad(ad.tsum(y * w) + ad.tsum(hx * w), arena)
        np.testing.assert_array_equal(grads["x"], w + w + w)

    def test_first_negative_zero_is_stored_as_positive_zero_in_arena(self):
        arena = ad.Arena({"x": np.ones(3), "y": np.ones(2)})
        x = arena["x"]
        grads = ad.grad(ad.tsum(x * np.array([-0.0, 1.0, -0.0])), arena)
        assert grads["x"].base is grads["y"].base and grads["x"].base.size == 5
        assert all(p.grad is None for p in arena.values())
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
        # through an interior node, whose first gradient is a fresh array
        arena = ad.Arena({"x": np.ones(3)})
        grads = ad.grad(ad.tsum((arena["x"] * 1.0) * np.array([-0.0, 1.0, -0.0])), arena)
        assert grads["x"].tolist() == [0.0, 1.0, 0.0]
        assert not np.any(np.signbit(grads["x"]))


class TestGradViews:
    """Only the call that zeroed a gradient view writes into it: a view
    ``ad.grad`` returned holds that call's gradient until the next ``grad``
    on the same arena. No tensor keeps a gradient after ``grad`` returns."""

    def test_later_grad_on_another_arena_leaves_views_unchanged(self):
        first = ad.Arena({"a": np.array([1.0, 2.0])})
        second = ad.Arena({"b": np.array([3.0, 3.0])})
        a, b = first["a"], second["b"]
        grads = ad.grad(ad.tsum(a * a), first)
        assert grads["a"].tolist() == [2.0, 4.0]
        ad.grad(ad.tsum(a * b), second)
        assert grads["a"].tolist() == [2.0, 4.0]

    def test_later_grad_through_shared_parameters_leaves_views_unchanged(self):
        arena = ad.Arena({"w": np.array([3.0]), "b": np.array([3.0])})
        other = ad.Arena({"c": np.array([1.0])})
        w, b = arena["w"], arena["b"]
        grads = ad.grad(ad.tsum(w * w) + ad.tsum(b * b), arena)
        assert grads["w"].tolist() == [6.0] and grads["b"].tolist() == [6.0]
        later = ad.grad(ad.tsum(w * b * other["c"]), other)
        assert grads["w"].tolist() == [6.0] and grads["b"].tolist() == [6.0]
        assert later["c"].tolist() == [9.0]

    def test_grad_on_one_arena_through_tables_of_another(self, rng):
        # the tables need gradients but belong to no arena grad() is given
        tables = ad.Arena({"table": rng.normal(size=(5, 3)), "pos": rng.normal(size=(4, 3))})
        scale = ad.Arena({"c": np.array(2.0)})
        emb = ad.TiedEmbedding(tables["table"], tables["pos"], ad.packed_rows([3, 2]))
        out = emb.embed(np.array([1, 2, 3, 0, 4]))
        assert ad.grad(ad.tsum(out) * scale["c"], scale)["c"] == out.data.sum()
        assert all(p.grad is None for p in tables.values())

    @pytest.mark.parametrize("build, expected", [
        (lambda a: ad.tsum(a * a), [2.0, 4.0]),
        (lambda a: ad.tsum(ad.index(a * 1.0, np.array([0, 0, 1]))), [2.0, 1.0])],
        ids=["dense", "scatter"])
    def test_same_loss_twice_gives_same_gradients(self, build, expected):
        arena = ad.Arena({"a": np.array([1.0, 2.0])})
        loss = build(arena["a"])
        assert ad.grad(loss, arena)["a"].tolist() == expected
        assert ad.grad(loss, arena)["a"].tolist() == expected
        nodes, stack = [], [loss]
        while stack:  # every tensor reachable from the loss
            node = stack.pop()
            nodes.append(node)
            stack.extend(node._parents)
        assert len(nodes) > 3 and all(node.grad is None for node in nodes)
