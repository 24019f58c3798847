import math
import warnings
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from se3bc import tensornet as tn


def rnd(rng, *shape):
    return rng.normal(size=shape)


class TestForwardPrimitives:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rnd(rng, 3, 4)
        npt.assert_array_equal(tn.matmul(tn.Tensor(a), tn.Tensor(np.eye(4))).data, a)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(tn.TensorError, match=r"\(2, 3\) @ \(4, 2\)"):
            tn.matmul(tn.Tensor(np.zeros((2, 3))), tn.Tensor(np.zeros((4, 2))))

    def test_softmax_of_zeros(self):
        out = tn.softmax(tn.Tensor(np.zeros(4)))
        npt.assert_array_equal(out.data, np.full(4, 0.25))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = tn.softmax(tn.Tensor(rnd(rng, 5, 7) * 10))
        npt.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softmax_matches_the_reference_formula_bit_for_bit(self, dtype):
        # Rows of large magnitude, with the row max tied between two columns.
        rng = np.random.default_rng(29)
        x = rng.normal(size=(3, 2, 4, 7)) * np.array([1.0, 1e2, 1e4])[:, None, None, None]
        x[..., 5] = x[..., 1] = x.max(axis=-1)
        x, g = x.astype(dtype), rnd(rng, 3, 2, 4, 7).astype(dtype)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        ref = e / e.sum(axis=-1, keepdims=True)
        a = tn.Tensor(x, requires_grad=True)
        with tn.GradientTape() as tape:
            out = tn.softmax(a)
            loss = oracles.sum_all(oracles.mul(out, tn.Tensor(g)))
        npt.assert_array_equal(out.data, ref)
        npt.assert_array_equal(tn.backward(tape, loss)[a], ref * (g - (g * ref).sum(axis=-1, keepdims=True)))

    def test_l1_loss_offset_example(self):
        # +0.01 offset in all 6 dims -> 0.06 at any horizon (up to fp rounding)
        for horizon in [1, 4, 8]:
            pred = np.zeros((horizon, 6))
            target = np.full((horizon, 6), 0.01)
            loss = tn.l1_loss(tn.Tensor(pred), tn.Tensor(target))
            assert abs(float(loss.data) - 0.06) < 1e-15

    def test_l1_loss_batch_mean(self):
        rng = np.random.default_rng(2)
        p, t = rnd(rng, 3, 8, 6), rnd(rng, 3, 8, 6)
        loss = tn.l1_loss(tn.Tensor(p), tn.Tensor(t))
        expect = np.abs(p - t).sum() / 24
        npt.assert_allclose(float(loss.data), expect, atol=1e-12)

    def test_layer_norm_zero_mean(self):
        rng = np.random.default_rng(3)
        out = tn.layer_norm(tn.Tensor(rnd(rng, 4, 16)), np.ones(16), np.zeros(16))
        npt.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-10)

    def test_layer_norm_unit_variance_for_large_scale(self):
        # eps=1e-5 biases the variance by eps/sigma^2; with sigma ~1e3 the
        # residual is ~1e-11, inside the 1e-10 property tolerance.
        rng = np.random.default_rng(4)
        out = tn.layer_norm(tn.Tensor(rnd(rng, 4, 64) * 1e3), np.ones(64), np.zeros(64))
        npt.assert_allclose(out.data.var(axis=-1), np.ones(4), atol=1e-10)

    def test_gelu_matches_the_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(28)
        x_arr, g = rnd(rng, 4, 16) * 3, rnd(rng, 4, 16)
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x_arr + 0.044715 * (x_arr * x_arr) * x_arr))
        dinner = c * (1.0 + 3 * 0.044715 * (x_arr * x_arr))
        x = tn.Tensor(x_arr, requires_grad=True)
        with tn.GradientTape() as tape:
            out = tn.gelu(x)
            loss = oracles.sum_all(oracles.mul(out, tn.Tensor(g)))
        npt.assert_array_equal(out.data, 0.5 * x_arr * (1.0 + t))
        npt.assert_array_equal(tn.backward(tape, loss)[x], g * (0.5 * (1.0 + t) + 0.5 * x_arr * (1.0 - t * t) * dinner))

    def test_concat_narrow_round_trip(self):
        rng = np.random.default_rng(5)
        a, b = rnd(rng, 3, 2), rnd(rng, 3, 5)
        cat = tn.concat([tn.Tensor(a), tn.Tensor(b)], axis=-1)
        npt.assert_array_equal(tn.narrow(cat, -1, 2, 5).data, b)

    def test_swapaxes_rejects_bad_axes(self):
        x = tn.Tensor(np.zeros((2, 3)))
        with pytest.raises(tn.TensorError):
            tn.swapaxes(x, 0, 2)
        with pytest.raises(tn.TensorError):
            tn.swapaxes(tn.Tensor(np.zeros(3)), -1, -2)

    def test_numeric_fault_detection(self):
        huge = np.exp(700.0) * np.ones(1)
        with np.errstate(over="ignore"):
            with pytest.raises(tn.NumericFaultError, match="'mul'"):
                oracles.mul(tn.Tensor(huge), tn.Tensor(huge))  # -> inf


class TestRope:
    def test_position_zero_unchanged(self):
        rng = np.random.default_rng(6)
        x = rnd(rng, 1, 8)
        npt.assert_array_equal(tn.rope(tn.Tensor(x), [0]).data, x)

    def test_norm_preserved_per_pair(self):
        rng = np.random.default_rng(7)
        x = rnd(rng, 5, 8)
        out = tn.rope(tn.Tensor(x), np.arange(1, 6)).data
        for i in range(4):
            npt.assert_allclose(
                np.hypot(out[:, 2 * i], out[:, 2 * i + 1]),
                np.hypot(x[:, 2 * i], x[:, 2 * i + 1]),
                atol=1e-12,
            )

    def test_relative_position_property(self):
        # <rope(q, m), rope(k, n)> depends only on m - n.
        rng = np.random.default_rng(8)
        q, k = rnd(rng, 1, 16), rnd(rng, 1, 16)

        def dot(m, n):
            qr = tn.rope(tn.Tensor(q), [m]).data
            kr = tn.rope(tn.Tensor(k), [n]).data
            return float((qr * kr).sum())

        assert abs(dot(2, 5) - dot(5, 8)) < 1e-10
        assert abs(dot(0, 7) - dot(3, 10)) < 1e-10

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_uncached_formula_and_reuses_its_tables(self, dtype):
        rng = np.random.default_rng(30)
        x, g = rnd(rng, 2, 3, 5, 8).astype(dtype), rnd(rng, 2, 3, 5, 8).astype(dtype)
        positions = np.arange(1, 6)
        ang = positions[:, None] * tn.ROPE_BASE ** (-2.0 * np.arange(4) / 8)
        cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
        expect, expect_grad = np.empty_like(x), np.empty_like(g)
        expect[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        expect[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        expect_grad[..., 0::2] = g[..., 0::2] * cos + g[..., 1::2] * sin
        expect_grad[..., 1::2] = -g[..., 0::2] * sin + g[..., 1::2] * cos
        tn._rope_tables.cache_clear()
        for _ in range(2):
            a = tn.Tensor(x, requires_grad=True)
            with tn.GradientTape() as tape:
                out = tn.rope(a, positions)
                loss = oracles.sum_all(oracles.mul(out, tn.Tensor(g)))
            npt.assert_array_equal(out.data, expect)
            npt.assert_array_equal(tn.backward(tape, loss)[a], expect_grad)
        info = tn._rope_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(tn.TensorError):
            tn.rope(tn.Tensor(np.zeros((2, 5))), [0, 1])


def make_attention_params(rng, d):
    mats = {}
    for name in ["wq", "wk", "wv", "wo"]:
        mats[name] = rnd(rng, d, d) / math.sqrt(d)
    for name in ["bq", "bk", "bv", "bo"]:
        mats[name] = rnd(rng, d) * 0.1
    return mats


def loop_attention(q_in, kv_in, heads, m):
    """Unvectorized per-head reference."""
    d = q_in.shape[-1]
    dh = d // heads
    q = q_in @ m["wq"] + m["bq"]
    k = kv_in @ m["wk"] + m["bk"]
    v = kv_in @ m["wv"] + m["bv"]
    outs = np.zeros((q_in.shape[0], d))
    for h in range(heads):
        qh = q[:, h * dh : (h + 1) * dh]
        kh = k[:, h * dh : (h + 1) * dh]
        vh = v[:, h * dh : (h + 1) * dh]
        for i in range(q_in.shape[0]):
            scores = np.array([qh[i] @ kh[j] / math.sqrt(dh) for j in range(kv_in.shape[0])])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            outs[i, h * dh : (h + 1) * dh] = sum(w[j] * vh[j] for j in range(kv_in.shape[0]))
    return outs @ m["wo"] + m["bo"]


def per_head_attention(q_in, kv_in, heads, wq, wk, wv, wo, bq, bk, bv, bo, positions=None):
    """multi_head_attention as one recorded computation per head."""
    dh = q_in.shape[-1] // heads
    q, k, v = tn.linear(q_in, wq, bq), tn.linear(kv_in, wk, bk), tn.linear(kv_in, wv, bv)
    outs = []
    for h in range(heads):
        qh, kh, vh = (tn.narrow(x, -1, h * dh, dh) for x in (q, k, v))
        if positions is not None:
            qh, kh = tn.rope(qh, positions), tn.rope(kh, positions)
        scores = tn.scale(tn.matmul(qh, tn.swapaxes(kh, -1, -2)), 1.0 / math.sqrt(dh))
        outs.append(tn.matmul(tn.softmax(scores), vh))
    return tn.linear(tn.concat(outs, axis=-1), wo, bo)


class TestFusedOps:
    """Each fused op equals its composition of primitives, in value and gradient."""

    @staticmethod
    def value_and_grads(fn, arrays):
        leaves = [tn.Tensor(a, requires_grad=True) for a in arrays]
        with tn.GradientTape() as tape:
            out = fn(*leaves)
            weight = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
            loss = oracles.sum_all(oracles.mul(out, tn.Tensor(weight)))
        grads = tn.backward(tape, loss)
        return out.data, [grads[t] for t in leaves]

    def assert_same(self, fused, composed, arrays):
        out, grads = self.value_and_grads(fused, arrays)
        ref_out, ref_grads = self.value_and_grads(composed, arrays)
        npt.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        for g, ref in zip(grads, ref_grads):
            npt.assert_allclose(g, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (3, 4)], ids=["batched", "unbatched"])
    def test_linear_is_matmul_plus_bias(self, x_shape):
        rng = np.random.default_rng(21)
        x, w, b = rnd(rng, *x_shape), rnd(rng, 4, 5), rnd(rng, 5)
        self.assert_same(tn.linear, lambda x, w, b: tn.add(tn.matmul(x, w), b), [x, w, b])
        self.assert_same(tn.linear, tn.matmul, [x, w])

    def test_affine_layer_norm_is_normalize_mul_add(self):
        rng = np.random.default_rng(22)
        x, g, b = rnd(rng, 2, 3, 6), rnd(rng, 6), rnd(rng, 6)

        def composed(x, g, b):
            return tn.add(oracles.mul(tn.layer_norm(x, np.ones(6), np.zeros(6)), g), b)

        self.assert_same(tn.layer_norm, composed, [x, g, b])

    def test_linear_is_one_tape_node(self):
        rng = np.random.default_rng(23)
        x = tn.Tensor(rnd(rng, 2, 3, 4), requires_grad=True)
        with tn.GradientTape() as tape:
            tn.linear(x, tn.Tensor(rnd(rng, 4, 5)), tn.Tensor(rnd(rng, 5)))
        assert [n.op for n in tape.nodes] == ["leaf", "linear"]

    def test_linear_skips_the_gradient_of_an_untracked_input(self):
        rng = np.random.default_rng(31)
        x, w, b, weight = rnd(rng, 2, 3, 4), rnd(rng, 4, 5), rnd(rng, 5), rnd(rng, 2, 3, 5)

        def vjp_outputs(x_tracked):
            leaves = [tn.Tensor(x, requires_grad=x_tracked), tn.Tensor(w, requires_grad=True),
                      tn.Tensor(b, requires_grad=True)]
            with tn.GradientTape() as tape:
                loss = oracles.sum_all(oracles.mul(tn.linear(*leaves), tn.Tensor(weight)))
            node = next(n for n in tape.nodes if n.op == "linear")
            returned, vjp = [], node.vjp
            node.vjp = lambda g: returned.append(vjp(g)) or returned[-1]
            tn.backward(tape, loss)
            return returned[0]

        dx, dw, db = vjp_outputs(x_tracked=False)
        ref_dx, ref_dw, ref_db = vjp_outputs(x_tracked=True)
        assert dx is None and ref_dx is not None
        npt.assert_array_equal(dw, ref_dw)
        npt.assert_array_equal(db, ref_db)

    def test_head_split_and_merge_are_one_node_each(self):
        x = tn.Tensor(np.arange(24.0).reshape(3, 8), requires_grad=True)
        with tn.GradientTape() as tape:
            heads = tn.split_heads(x, 2)
            merged = tn.merge_heads(heads)
        assert [n.op for n in tape.nodes] == ["leaf", "split_heads", "merge_heads"]
        npt.assert_array_equal(heads.data, x.data.reshape(3, 2, 4).swapaxes(0, 1))
        npt.assert_array_equal(merged.data, x.data)

    def test_linear_rejects_bad_shapes(self):
        with pytest.raises(tn.TensorError, match=r"\(2, 3\) @ \(4, 2\)"):
            tn.linear(tn.Tensor(np.zeros((2, 3))), tn.Tensor(np.zeros((4, 2))))
        with pytest.raises(tn.TensorError, match="2-d weight"):
            tn.linear(tn.Tensor(np.zeros((2, 3))), tn.Tensor(np.zeros((2, 3, 2))))
        with pytest.raises(tn.TensorError, match="bias shape"):
            tn.linear(tn.Tensor(np.zeros((2, 3))), tn.Tensor(np.zeros((3, 2))), tn.Tensor(np.zeros((1, 2))))


@pytest.fixture
def softmax_outputs(monkeypatch):
    """The arrays tn.softmax returns, in call order: the attention weights of
    each multi_head_attention call, one (..., heads, T, Tk) array each."""
    outputs, softmax = [], tn.softmax

    def recording(a):
        out = softmax(a)
        outputs.append(out.data)
        return out

    monkeypatch.setattr(tn, "softmax", recording)
    return outputs


class TestAttention:
    @pytest.mark.parametrize("q_shape,kv_shape,self_attention", [
        ((2, 5, 8), (2, 5, 8), True),  # batched self-attention with RoPE positions
        ((3, 8), (2, 4, 8), False),  # 2-D queries broadcast against a batch of keys
    ], ids=["batched_self_rope", "broadcast_cross"])
    def test_matches_per_head_reference(self, q_shape, kv_shape, self_attention):
        rng = np.random.default_rng(17)
        d, heads = q_shape[-1], 4
        arrays = {"q_in": rnd(rng, *q_shape), "kv_in": rnd(rng, *kv_shape),
                  **make_attention_params(rng, d)}
        positions = np.arange(q_shape[-2]) if self_attention else None

        def run(attention):
            leaves = {name: tn.Tensor(a, requires_grad=True) for name, a in arrays.items()}
            q_in, kv_in = leaves.pop("q_in"), leaves.pop("kv_in")
            kv = q_in if self_attention else kv_in
            with tn.GradientTape() as tape:
                out = attention(q_in, kv, heads, **leaves, positions=positions)
                out_weight = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
                loss = oracles.sum_all(oracles.mul(out, tn.Tensor(out_weight)))
            leaves.update(q_in=q_in, kv_in=kv_in)
            grads = tn.backward(tape, loss)
            return out.data, {name: grads.get(t) for name, t in leaves.items()}

        out, grads = run(tn.multi_head_attention)
        ref_out, ref_grads = run(per_head_attention)
        npt.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-15)
        for name, ref in ref_grads.items():
            if ref is None:  # kv_in is unused in self-attention
                assert grads[name] is None, name
            else:
                npt.assert_allclose(grads[name], ref, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_key_bias_without_positions_changes_nothing(self):
        # Without RoPE a key bias adds q . bk to every score of a query; softmax ignores that.
        rng = np.random.default_rng(19)
        d = 8
        m = {k: tn.Tensor(v) for k, v in make_attention_params(rng, d).items()}
        q_in, kv_in = tn.Tensor(rnd(rng, 3, d)), tn.Tensor(rnd(rng, 2, 5, d))
        with_bias = tn.multi_head_attention(q_in, kv_in, 2, **{**m, "bk": tn.Tensor(rnd(rng, d))})
        without = tn.multi_head_attention(q_in, kv_in, 2, **{**m, "bk": None})
        npt.assert_allclose(with_bias.data, without.data, rtol=0, atol=1e-12)

    def test_single_kv_token(self, softmax_outputs):
        # One key/value token: every query gets exactly its value projection.
        rng = np.random.default_rng(9)
        d = 8
        m = make_attention_params(rng, d)
        q_in, kv_in = rnd(rng, 3, d), rnd(rng, 1, d)
        out = tn.multi_head_attention(
            tn.Tensor(q_in), tn.Tensor(kv_in), 2, **{k: tn.Tensor(v) for k, v in m.items()}
        )
        [weights] = softmax_outputs
        v = kv_in @ m["wv"] + m["bv"]
        expect = np.tile(v, (3, 1)) @ m["wo"] + m["bo"]
        npt.assert_allclose(out.data, expect, atol=1e-12)
        for w in weights:
            npt.assert_array_equal(w, np.ones((3, 1)))

    def test_uniform_keys_give_uniform_weights(self, softmax_outputs):
        rng = np.random.default_rng(10)
        d = 8
        m = make_attention_params(rng, d)
        kv = np.tile(rnd(rng, 1, d), (5, 1))
        tn.multi_head_attention(
            tn.Tensor(rnd(rng, 2, d)), tn.Tensor(kv), 2, **{k: tn.Tensor(v) for k, v in m.items()}
        )
        [weights] = softmax_outputs
        for w in weights:
            npt.assert_allclose(w, np.full((2, 5), 0.2), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        d = 8
        m = make_attention_params(rng, d)
        q_in, kv_in = rnd(rng, 3, d), rnd(rng, 4, d)
        out = tn.multi_head_attention(
            tn.Tensor(q_in), tn.Tensor(kv_in), 2, **{k: tn.Tensor(v) for k, v in m.items()}
        )
        npt.assert_allclose(out.data, loop_attention(q_in, kv_in, 2, m), atol=1e-10)

    def test_weights_on_simplex(self, softmax_outputs):
        rng = np.random.default_rng(12)
        d = 12
        m = make_attention_params(rng, d)
        tn.multi_head_attention(
            tn.Tensor(rnd(rng, 4, d)), tn.Tensor(rnd(rng, 6, d)), 3,
            **{k: tn.Tensor(v) for k, v in m.items()},
        )
        [weights] = softmax_outputs
        for w in weights:
            assert np.all(w >= 0)
            npt.assert_allclose(w.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(13)
        m = make_attention_params(rng, 8)
        with pytest.raises(tn.TensorError):
            tn.multi_head_attention(
                tn.Tensor(rnd(rng, 2, 8)), tn.Tensor(rnd(rng, 2, 8)), 3,
                **{k: tn.Tensor(v) for k, v in m.items()},
            )


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with tn.GradientTape() as tape:
            loss = oracles.sum_all(x)
        grads = tn.backward(tape, loss)
        npt.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_l1_of_linear_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        w0, x0 = rnd(rng, 4, 3), rnd(rng, 2, 4)
        target = rnd(rng, 2, 3)

        def fn(ts):
            w, x = ts
            return tn.l1_loss(tn.matmul(x, w), tn.Tensor(target))

        res = oracles.grad_check(fn, [w0, x0])
        assert res.max_rel_error < 1e-6
        assert not res.excluded

    def test_two_losses_on_one_tape_error(self):
        x = tn.Tensor(np.ones(3), requires_grad=True)
        with tn.GradientTape() as tape:
            l1 = oracles.sum_all(x)
            l2 = oracles.sum_all(oracles.mul(x, x))
        tn.backward(tape, l1)
        with pytest.raises(tn.TapeError):
            tn.backward(tape, l2)

    def test_non_scalar_loss_rejected(self):
        x = tn.Tensor(np.ones(3), requires_grad=True)
        with tn.GradientTape() as tape:
            y = oracles.mul(x, x)
        with pytest.raises(tn.TensorError):
            tn.backward(tape, y)

    def test_foreign_loss_rejected(self):
        x = tn.Tensor(np.ones(3), requires_grad=True)
        with tn.GradientTape():
            _ = oracles.sum_all(x)
        with tn.GradientTape() as tape2:
            pass
        y = oracles.sum_all(tn.Tensor(np.ones(2)))
        with pytest.raises(tn.TapeError):
            tn.backward(tape2, y)

    def test_backward_frees_saved_inputs_without_gc(self):
        # An op's vjp closure holds its inputs, and every recorded tensor
        # holds its tape; backward must break that cycle itself.
        x = tn.Tensor(np.arange(3.0), requires_grad=True)
        with tn.GradientTape() as tape:
            y = oracles.mul(x, x)
            loss = oracles.sum_all(oracles.mul(y, y))
        y_data = weakref.ref(y.data)
        tn.backward(tape, loss)
        del y, loss
        assert y_data() is None

    def test_forward_fault_on_a_tape_raises_in_backward_naming_the_op(self):
        x = tn.Tensor(np.exp(700.0) * np.ones(1), requires_grad=True)
        with np.errstate(over="ignore"):
            with tn.GradientTape() as tape:
                y = oracles.mul(x, x)  # -> inf, recorded without a check
                loss = oracles.sum_all(tn.scale(y, 2.0))
            assert not np.isfinite(y.data).all()
            with pytest.raises(tn.NumericFaultError, match="op 'mul' produced non-finite values"):
                tn.backward(tape, loss)

    def test_gradient_overflow_raises(self):
        # Forward: 1e-300 * 1e300 * 1e300 = 1e300, finite. Backward: the
        # gradient of x is 1e300 * 1e300, which overflows.
        x = tn.Tensor(np.full(2, 1e-300), requires_grad=True)
        with tn.GradientTape() as tape:
            loss = oracles.sum_all(oracles.mul(oracles.mul(x, tn.Tensor(np.full(2, 1e300))), tn.Tensor(np.full(2, 1e300))))
        assert np.isfinite(loss.data)
        with np.errstate(over="ignore"):
            with pytest.raises(tn.NumericFaultError, match="gradient"):
                tn.backward(tape, loss)

    def test_grad_accumulates_on_reused_tensor(self):
        x = tn.Tensor(np.array([2.0]), requires_grad=True)
        with tn.GradientTape() as tape:
            loss = oracles.sum_all(oracles.mul(x, x))  # d/dx x^2 = 2x
        grads = tn.backward(tape, loss)
        npt.assert_allclose(grads[x], [4.0], atol=1e-12)


OPS_FOR_GRADCHECK = [
    ("add", lambda ts: oracles.sum_all(oracles.mul(tn.add(ts[0], ts[1]), tn.Tensor(_W33))), 2),
    ("mul", lambda ts: oracles.sum_all(oracles.mul(oracles.mul(ts[0], ts[1]), tn.Tensor(_W33))), 2),
    ("scale", lambda ts: oracles.sum_all(oracles.mul(tn.scale(ts[0], 1.7), tn.Tensor(_W33))), 1),
    ("matmul", lambda ts: oracles.sum_all(oracles.mul(tn.matmul(ts[0], ts[1]), tn.Tensor(_W33))), 2),
    ("gelu", lambda ts: oracles.sum_all(oracles.mul(tn.gelu(ts[0]), tn.Tensor(_W33))), 1),
    ("sigmoid", lambda ts: oracles.sum_all(oracles.mul(tn.sigmoid(ts[0]), tn.Tensor(_W33))), 1),
    ("softmax", lambda ts: oracles.sum_all(oracles.mul(tn.softmax(ts[0]), tn.Tensor(_W33))), 1),
    ("layer_norm", lambda ts: oracles.sum_all(oracles.mul(tn.layer_norm(ts[0], np.ones(3), np.zeros(3)), tn.Tensor(_W33))), 1),
    ("normalize_rows", lambda ts: oracles.sum_all(oracles.mul(tn.normalize_rows(ts[0]), tn.Tensor(_W33))), 1),
    ("concat", lambda ts: oracles.sum_all(oracles.mul(tn.concat(ts, axis=-1), tn.Tensor(_W36))), 2),
    ("narrow", lambda ts: oracles.sum_all(oracles.mul(tn.narrow(ts[0], -1, 1, 2), tn.Tensor(_W32))), 1),
    ("split_heads", lambda ts: oracles.sum_all(oracles.mul(tn.split_heads(ts[0], 2), tn.Tensor(_W223))), 1),
    ("merge_heads", lambda ts: oracles.sum_all(oracles.mul(tn.merge_heads(ts[0]), tn.Tensor(_W34))), 1),
    ("swapaxes", lambda ts: oracles.sum_all(oracles.mul(tn.swapaxes(ts[0], 0, 1), tn.Tensor(_W33))), 1),
    ("rope", lambda ts: oracles.sum_all(oracles.mul(tn.rope(ts[0], [1, 2, 3]), tn.Tensor(_W34))), 1),
    ("l1_loss", lambda ts: tn.l1_loss(ts[0], ts[1]), 2),
]

_rng = np.random.default_rng(20250101)
_W33 = _rng.normal(size=(3, 3))
_W36 = _rng.normal(size=(3, 6))
_W32 = _rng.normal(size=(3, 2))
_W34 = _rng.normal(size=(3, 4))
_W223 = _rng.normal(size=(2, 3, 2))


class TestGradCheckPerOp:
    @pytest.mark.parametrize("name,fn,arity", OPS_FOR_GRADCHECK, ids=[o[0] for o in OPS_FOR_GRADCHECK])
    def test_op_gradient(self, name, fn, arity):
        rng = np.random.default_rng(hash(name) % 2**32)
        shape = {"rope": (3, 4), "split_heads": (3, 4), "merge_heads": (2, 3, 2)}.get(name, (3, 3))
        inputs = [rng.normal(size=shape) for _ in range(arity)]
        res = oracles.grad_check(fn, inputs)
        assert res.max_rel_error < 1e-6, f"{name}: {res}"

    @pytest.mark.parametrize("b_shape", [(4, 5), (2, 4, 5)], ids=["weight", "batched"])
    def test_matmul_leading_dims_gradient(self, b_shape):
        rng = np.random.default_rng(17)
        w = rnd(rng, 2, 3, 5)

        def fn(ts):
            return oracles.sum_all(oracles.mul(tn.matmul(ts[0], ts[1]), tn.Tensor(w)))

        res = oracles.grad_check(fn, [rnd(rng, 2, 3, 4), rnd(rng, *b_shape)])
        assert res.max_rel_error < 1e-6, res

    @pytest.mark.parametrize("x_shape", [(2, 3, 4), (3, 4)], ids=["batched", "unbatched"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_linear_gradient(self, x_shape, bias):
        rng = np.random.default_rng(24)
        out_weight = rnd(rng, *x_shape[:-1], 5)

        def fn(ts):
            return oracles.sum_all(oracles.mul(tn.linear(*ts), tn.Tensor(out_weight)))

        inputs = [rnd(rng, *x_shape), rnd(rng, 4, 5)] + ([rnd(rng, 5)] if bias else [])
        res = oracles.grad_check(fn, inputs)
        assert res.max_rel_error < 1e-6, res

    def test_linear_untracked_input_gradient(self):
        # The encoder's case: the observation tokens are constants.
        rng = np.random.default_rng(25)
        x, out_weight = rnd(rng, 2, 3, 4), rnd(rng, 2, 3, 5)

        def fn(ts):
            return oracles.sum_all(oracles.mul(tn.linear(tn.Tensor(x), *ts), tn.Tensor(out_weight)))

        res = oracles.grad_check(fn, [rnd(rng, 4, 5), rnd(rng, 5)])
        assert res.max_rel_error < 1e-6, res

    def test_layer_norm_affine_gradient(self):
        rng = np.random.default_rng(26)
        out_weight = rnd(rng, 2, 3, 4)

        def fn(ts):
            return oracles.sum_all(oracles.mul(tn.layer_norm(*ts), tn.Tensor(out_weight)))

        res = oracles.grad_check(fn, [rnd(rng, 2, 3, 4), rnd(rng, 4), rnd(rng, 4)])
        assert res.max_rel_error < 1e-6, res

    def test_attention_gradient(self):
        rng = np.random.default_rng(15)
        d, heads = 4, 2
        q_in, kv_in = rnd(rng, 2, d), rnd(rng, 3, d)

        def fn(ts):
            wq, wk, wv, wo = ts
            out = tn.multi_head_attention(tn.Tensor(q_in), tn.Tensor(kv_in), heads, wq, wk, wv, wo)
            return tn.l1_loss(out, tn.Tensor(np.zeros((2, d))))

        res = oracles.grad_check(fn, [rnd(rng, d, d) for _ in range(4)])
        assert res.max_rel_error < 1e-6

    def test_linear_function_error_tiny(self, monkeypatch):
        rng = np.random.default_rng(16)
        w = rnd(rng, 3, 3)

        def fn(ts):
            return oracles.sum_all(tn.matmul(ts[0], tn.Tensor(w)))

        # Linear: zero truncation error, so a coarser step leaves only roundoff.
        monkeypatch.setattr(oracles, "GRAD_CHECK_STEP", 1e-4)
        res = oracles.grad_check(fn, [rnd(rng, 2, 3)])
        assert res.max_rel_error < 1e-10

    def test_l1_kink_excluded_not_failed(self):
        # pred == target exactly: every coordinate sits on the kink.
        x = np.full((2, 3), 0.5)

        def fn(ts):
            return tn.l1_loss(ts[0], tn.Tensor(x))

        res = oracles.grad_check(fn, [x.copy()])
        assert res == oracles.GradCheckResult(max_rel_error=0.0, n_checked=0, excluded=[(0, j) for j in range(6)])


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self, monkeypatch):
        monkeypatch.setattr(tn, "ADAMW_LR", 1e-3)
        monkeypatch.setattr(tn, "ADAMW_WEIGHT_DECAY", 0.0)
        params = tn.ParamSet(seed=1)
        w = params.linear_weight("w", 4, 4)
        before = w.data.copy()
        state = tn.OptimizerState(warmup_steps=1, total_steps=10)
        tn.adamw_step(params, {w: np.zeros((4, 4))}, state)
        npt.assert_array_equal(w.data, before)

    def test_lr_at_warmup_boundary(self, monkeypatch):
        monkeypatch.setattr(tn, "ADAMW_LR", 2e-4)
        state = tn.OptimizerState(warmup_steps=5000, total_steps=50000)
        assert tn.lr_at(state, 5000) == 2e-4
        assert tn.lr_at(state, 2500) == 1e-4
        assert tn.lr_at(state, 50000) == pytest.approx(0.0, abs=1e-20)

    def test_three_step_scalar_trace_matches_reference(self, monkeypatch):
        # Hand-rolled AdamW on a scalar with g=1 each step.
        lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
        for name, value in [("LR", lr), ("BETAS", (b1, b2)), ("EPS", eps), ("WEIGHT_DECAY", wd)]:
            monkeypatch.setattr(tn, f"ADAMW_{name}", value)
        params = tn.ParamSet(seed=0)
        p = params.zeros("p", (1,))
        p.data = np.array([1.0])
        state = tn.OptimizerState(warmup_steps=1, total_steps=1000)

        ref_p, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            sched = tn.lr_at(state, t)
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref_p = ref_p - sched * (mhat / (math.sqrt(vhat) + eps) + wd * ref_p)
            tn.adamw_step(params, {p: np.ones(1)}, state)
        npt.assert_allclose(p.data, [ref_p], atol=1e-12)

    def test_in_place_steps_match_the_reference_formula_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(tn, "ADAMW_LR", 0.05)
        monkeypatch.setattr(tn, "ADAMW_WEIGHT_DECAY", 0.01)
        b1, b2 = tn.ADAMW_BETAS
        for dtype in (np.float64, np.float32):
            params = tn.ParamSet(seed=3)
            params.linear_weight("w", 4, 5)
            params.ones("g", (5,))
            for name, t in list(params.items()):
                oracles.swap(params, name, tn.Tensor(t.data.astype(dtype), requires_grad=True))
            state = tn.OptimizerState(warmup_steps=2, total_steps=10)
            ref = {name: [t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)] for name, t in params.items()}
            rng = np.random.default_rng(27)
            for t in range(1, 6):
                grads = {p: rng.normal(size=p.data.shape).astype(dtype) for _, p in params.items()}
                tn.adamw_step(params, grads, state)
                lr = tn.lr_at(state, t)
                for name, (p, m, v) in ref.items():
                    g = grads[params[name]]
                    m = b1 * m + (1.0 - b1) * g
                    v = b2 * v + (1.0 - b2) * g * g
                    mhat = m / (1.0 - b1**t)
                    vhat = v / (1.0 - b2**t)
                    p = p - lr * (mhat / (np.sqrt(vhat) + tn.ADAMW_EPS) + tn.ADAMW_WEIGHT_DECAY * p)
                    ref[name] = [p, m, v]
            assert state.m.dtype == state.v.dtype == dtype
            for name, (p, m, v) in ref.items():
                assert params[name].data.dtype == dtype
                npt.assert_array_equal(params[name].data, p)
            npt.assert_array_equal(state.m, np.concatenate([m.reshape(-1) for _, m, _ in ref.values()]))
            npt.assert_array_equal(state.v, np.concatenate([v.reshape(-1) for _, _, v in ref.values()]))

    @staticmethod
    def small_params():
        params = tn.ParamSet(seed=3)
        params.linear_weight("w", 4, 5)
        params.ones("g", (5,))
        return params

    @staticmethod
    def assert_views_of_one_buffer(params):
        """Every parameter's data views the buffer that flat_data() returns
        without rebuilding it."""
        buffer = params["w"].data.base
        assert buffer is not None and buffer.size == sum(t.data.size for _, t in params.items())
        assert all(np.shares_memory(t.data, buffer) for _, t in params.items())
        assert params.flat_data() is buffer

    def test_a_swapped_parameter_is_moved_into_a_rebuilt_buffer(self):
        params = self.small_params()

        def ones():  # a gradient of ones for each current parameter
            return {t: np.ones(t.shape, np.float32) for _, t in params.items()}

        state = tn.OptimizerState(warmup_steps=1, total_steps=10)
        tn.adamw_step(params, ones(), state)
        self.assert_views_of_one_buffer(params)
        first = params.flat_data()
        swapped_in = tn.Tensor(np.full(5, 2.0, np.float32), requires_grad=True)
        old = oracles.swap(params, "g", swapped_in)
        old_values = old.data.copy()
        tn.adamw_step(params, ones(), state)
        self.assert_views_of_one_buffer(params)
        assert params.flat_data() is not first and params["g"] is swapped_in
        assert np.all(swapped_in.data < 2.0)  # the step reached the swapped-in values
        npt.assert_array_equal(old.data, old_values)

    def test_a_missing_gradient_names_the_parameter(self):
        params = self.small_params()
        state = tn.OptimizerState(warmup_steps=1, total_steps=10)
        with pytest.raises(tn.TensorError, match="no gradient for parameter 'g'"):
            tn.adamw_step(params, {params["w"]: np.ones((4, 5), np.float32)}, state)
        assert state.step == 0

    def test_moments_of_another_dtype_are_refused(self):
        params = self.small_params()
        state = tn.OptimizerState(warmup_steps=1, total_steps=10)
        tn.adamw_step(params, {params["w"]: np.ones((4, 5)), params["g"]: np.ones(5)}, state)
        for name, t in list(params.items()):
            oracles.swap(params, name, tn.Tensor(t.data.astype(np.float64), requires_grad=True))
        with pytest.raises(tn.TensorError, match="does not fit"):
            tn.adamw_step(params, {params["w"]: np.ones((4, 5)), params["g"]: np.ones(5)}, state)

    def test_the_buffer_holds_one_dtype(self):
        params = self.small_params()
        oracles.swap(params, "g", tn.Tensor(np.ones(5), requires_grad=True))  # float64 beside float32
        with pytest.raises(tn.TensorError, match="one dtype"):
            params.flat_data()

    def test_warns_once_past_total(self, monkeypatch):
        monkeypatch.setattr(tn, "ADAMW_LR", 0.1)
        params = tn.ParamSet(seed=0)
        p = params.zeros("p", (1,))
        state = tn.OptimizerState(warmup_steps=1, total_steps=2)
        g = {p: np.ones(1)}
        for _ in range(2):
            tn.adamw_step(params, g, state)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tn.adamw_step(params, g, state)
            tn.adamw_step(params, g, state)
        assert len(caught) == 1
        assert tn.lr_at(state, state.step) == 0.0


class TestParamSetCheckpoint:
    def test_duplicate_name_rejected(self):
        params = tn.ParamSet(seed=0)
        params.zeros("a", (2,))
        with pytest.raises(tn.TensorError):
            params.zeros("a", (3,))

    def test_init_deterministic_per_seed_and_name(self):
        a = tn.ParamSet(seed=7).linear_weight("w", 8, 8)
        b = tn.ParamSet(seed=7).linear_weight("w", 8, 8)
        npt.assert_array_equal(a.data, b.data)
        c = tn.ParamSet(seed=8).linear_weight("w", 8, 8)
        assert not np.array_equal(a.data, c.data)

    def test_init_schemes(self):
        params = tn.ParamSet(seed=3)
        w = params.linear_weight("w", 16, 4)
        assert np.max(np.abs(w.data)) <= 0.25
        b = params.zeros("b", (4,))
        npt.assert_array_equal(b.data, np.zeros(4))
        q = params.query_normal("q", (8, 4))
        assert abs(q.data.std() - 0.02) < 0.02
