"""Gradient, optimizer and schedule tests for the tensor substrate."""

import math
import re
import threading

import numpy as np
import pytest

import concept_parse.autodiff as ad
from concept_parse.autodiff import Schedule, Tensor
from concept_parse.errors import NonFiniteError, NotScalarError, ShapeError

from helpers import (
    composed_feed_forward,
    composed_mha,
    method_layer_norm,
    method_layer_norm_input_grad,
    method_log_softmax,
    method_softmax,
    parameter,
    reference_trunc_normal,
    scaled_dot_attention,
    zero_grads,
)


def make_param(rng, shape, name="p"):
    return parameter(name, rng.standard_normal(shape))


def numeric_grad(loss_fn, param, h=1e-6):
    """Central finite differences of loss_fn() with respect to every entry."""
    grad = np.zeros_like(param.data)
    flat = param.data.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = loss_fn()
        flat[i] = original - h
        down = loss_fn()
        flat[i] = original
        out[i] = (up - down) / (2 * h)
    return grad


def check_op(build_loss, params, tolerance=1e-7):
    """Backprop gradients must match central differences on every parameter."""
    zero_grads(params)
    loss = build_loss()
    ad.backward(loss)
    for p in params:
        expected = numeric_grad(lambda: build_loss().item(), p)
        scale = np.maximum(np.abs(expected), 1.0)
        np.testing.assert_allclose(p.grad / scale, expected / scale,
                                   atol=tolerance, err_msg=p.name)


def weighted_sum(t: Tensor, weights: np.ndarray) -> Tensor:
    return ad.sum_all(ad.mul(t, ad.constant(weights)))


def pad_mask(dtype=np.float64, keys=4) -> np.ndarray:
    """Additive (2, 1, 1, keys) key mask: the second row's last key is padding."""
    mask = np.zeros((2, 1, 1, keys), dtype=dtype)
    mask[1, ..., keys - 1] = -1e9
    return mask


def mha_weights(rng, d=8, dtype=np.float64):
    """The stacked weight w (4, d, d) and bias b (4, d) of a width-d attention
    sublayer, each in its own arena."""
    return [parameter(name, rng.standard_normal(shape).astype(dtype))
            for name, shape in (("w", (4, d, d)), ("b", (4, d)))]


def ff_weights(rng, d=8, ff=12, dtype=np.float64):
    """w1, b1, w2 and b2 of a width-d feed-forward sublayer."""
    shapes = {"w1": (d, ff), "b1": (ff,), "w2": (ff, d), "b2": (d,)}
    return [parameter(name, rng.standard_normal(shape).astype(dtype))
            for name, shape in shapes.items()]


def attention_inputs(rng, kind, masked, dtype=np.float64):
    """Queries' input x (2, 3, 8), keys' and values' input (None for
    self-attention, else (2, 4, 8)) and the pad mask over the keys, or None."""
    x = parameter("x", rng.standard_normal((2, 3, 8)).astype(dtype))
    kv = None if kind == "self" else parameter("kv", rng.standard_normal((2, 4, 8)).astype(dtype))
    mask = pad_mask(dtype, 3 if kv is None else 4) if masked else None
    return x, kv, mask


def sublayer_results(op, inputs, params, g):
    """The output of ``op(*inputs)`` and every parameter's gradient of its
    inner product with ``g``."""
    zero_grads(params)
    out = op(*inputs)
    ad.backward(weighted_sum(out, g))
    return [out.data] + [p.grad.copy() for p in params]


def assert_gradients_agree(fused, composed, dtype):
    """Within 1e-12 in double; in single, within 1e-6 of the largest gradient,
    since a gradient that is 0 in exact arithmetic (a key bias's) is rounding."""
    atol = 1e-12 if dtype == np.float64 else 1e-6 * max(np.abs(b).max() for b in composed)
    for a, b in zip(fused, composed):
        assert a.dtype == dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)


class TestAffine:
    def test_identity(self):
        x = ad.constant(np.array([[1.0, 0.0]]))
        w = ad.constant(np.eye(2))
        b = ad.constant(np.zeros(2))
        assert np.allclose(ad.affine(x, w, b).data, [[1.0, 0.0]])

    def test_hand_sum(self):
        x = ad.constant(np.array([[1.0, 2.0]]))
        w = ad.constant(np.array([[1.0], [1.0]]))
        b = ad.constant(np.array([1.0]))
        assert np.allclose(ad.affine(x, w, b).data, [[4.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = make_param(rng, (3, 4), "x")
        w = make_param(rng, (4, 2), "w")
        b = make_param(rng, (2,), "b")
        check_op(lambda: ad.sum_all(ad.affine(x, w, b)),
                 [x, w, b], tolerance=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))

    def test_one_dimensional_operand_rejected(self):
        for a, b in (((3,), (3, 2)), ((2, 3), (3,))):
            with pytest.raises(ShapeError, match="at least 2 dimensions"):
                ad.matmul(ad.constant(np.ones(a)), ad.constant(np.ones(b)))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(ad.softmax(ad.constant(np.zeros(2))).data, [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-7.5, 0.0, 300.0):
            out = ad.softmax(ad.constant(np.full(4, c))).data
            assert np.allclose(out, 0.25)

    def test_oracle_values(self):
        z = np.array([1.0, 2.0, 3.0])
        e = np.exp(z)  # direct high-precision evaluation
        assert np.allclose(ad.softmax(ad.constant(z)).data, e / e.sum(), atol=1e-9)

    def test_sums_to_one_and_shift_stable(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.standard_normal(int(rng.integers(1, 9)))
            y = ad.softmax(ad.constant(z)).data
            assert abs(y.sum() - 1.0) < 1e-6
            shifted = ad.softmax(ad.constant(z + 123.456)).data
            assert np.abs(y - shifted).max() <= 1e-12


class TestAttention:
    def test_identical_keys_uniform(self):
        rng = np.random.default_rng(2)
        q = ad.constant(rng.standard_normal(8))
        keys = ad.constant(np.tile(rng.standard_normal(8), (5, 1)))
        values = ad.constant(rng.standard_normal((5, 8)))
        weights, _ = scaled_dot_attention(q, keys, values)
        assert np.allclose(weights.data, 0.2)

    def test_single_key(self):
        q = ad.constant(np.ones(4))
        k = ad.constant(np.ones((1, 4)))
        v = ad.constant(np.arange(4.0).reshape(1, 4))
        weights, mix = scaled_dot_attention(q, k, v)
        assert np.allclose(weights.data, [1.0])
        assert np.allclose(mix.data, np.arange(4.0))

    def test_large_margin_concentrates(self):
        d = 4
        key0 = np.ones(d)
        q = ad.constant(key0 * (20 * math.sqrt(d) / d))  # logit gap 20 vs zero keys
        keys = ad.constant(np.stack([key0, np.zeros(d), np.zeros(d)]))
        values = ad.constant(np.eye(3, d))
        weights, _ = scaled_dot_attention(q, keys, values)
        assert weights.data[0] > 0.999


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        x = ad.constant(np.full((1, 6), 3.3))
        out = ad.layer_norm(x, ad.constant(np.ones(6)), ad.constant(np.zeros(6)))
        assert np.abs(out.data).max() < 1e-3

    def test_two_point_analytic(self):
        x = ad.constant(np.array([[1.0, -1.0]]))
        out = ad.layer_norm(x, ad.constant(np.ones(2)), ad.constant(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_last_axis_of_one_rejected(self):
        with pytest.raises(ShapeError, match="last dimension of at least 2"):
            ad.layer_norm(ad.constant(np.ones((3, 1))), ad.constant(np.ones(1)),
                          ad.constant(np.zeros(1)))

    def test_output_mean_is_bias(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.standard_normal((4, 8)))
        bias = rng.standard_normal(8)
        out = ad.layer_norm(x, ad.constant(np.ones(8)), ad.constant(bias))
        assert np.allclose(out.data.mean(axis=0).mean(), bias.mean(), atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        p = parameter("p", np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(p))
        assert np.allclose(p.grad, 1.0)

    def test_sum_of_squares(self):
        p = parameter("p", np.array([1.0, -2.0, 3.0]))
        ad.backward(ad.sum_all(ad.mul(p, p)))
        assert np.allclose(p.grad, 2 * p.data)

    def test_repeated_backward_accumulates(self):
        p = parameter("p", np.ones(3))
        ad.backward(ad.sum_all(p))
        ad.backward(ad.sum_all(p))
        assert np.allclose(p.grad, 2.0)

    def test_non_scalar_rejected(self):
        p = parameter("p", np.ones(3))
        with pytest.raises(NotScalarError):
            ad.backward(p)

    def test_loss_that_reaches_no_parameter_leaves_grads_zero(self):
        p = parameter("p", np.ones(3))
        loss = ad.sum_all(ad.mul(ad.constant(np.ones(3)), ad.constant(np.full(3, 2.0))))
        assert not loss.requires_grad
        ad.backward(loss)
        assert not p.grad.any()

    def test_no_grad_suppresses_graph(self):
        p = parameter("p", np.ones(3))
        w, b = parameter("w", np.ones((3, 2))), parameter("b", np.zeros(2))
        with ad.no_grad():
            out = ad.sum_all(p)
            mapped = ad.affine(ad.constant(np.ones((4, 3))), w, b)
        assert not out.requires_grad
        assert not mapped.requires_grad and mapped.parents == ()

    def test_parameter_is_its_own_graph_leaf(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.standard_normal((4, 3)))
        w, b = make_param(rng, (3, 2), "w"), make_param(rng, (2,), "b")
        assert isinstance(w, Tensor)
        out = ad.affine(x, w, b)
        assert len(out.parents) == 3
        assert all(got is want for got, want in zip(out.parents, (x, w, b)))

    def test_parameter_read_twice_adds_its_summed_gradient_once(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((3, 2)).astype(np.float32)
        c = ad.constant(rng.standard_normal((3, 2)).astype(np.float32))
        x = ad.constant(rng.standard_normal((5, 3)).astype(np.float32))
        reads = (lambda p: ad.sum_all(ad.mul(p, c)), lambda p: ad.sum_all(ad.matmul(x, p)))
        alone = []
        for read in reads:
            p = parameter("p", values)
            ad.backward(read(p))
            alone.append(p.grad.copy())
        p = parameter("p", values)
        first, second = (read(p) for read in reads)
        loss = ad.add(first, second)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(node.parents)
        assert [n for n in nodes.values() if isinstance(n, ad.Parameter)] == [p]
        ad.backward(loss)
        assert p.grad.dtype == np.float32
        assert p.grad.tobytes() == (alone[0] + alone[1]).tobytes()

    def test_no_grad_is_per_thread(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with ad.no_grad():
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=hold_no_grad)
        thread.start()
        try:
            assert entered.wait(timeout=10)
            p = parameter("p", np.ones(3))
            assert ad.sum_all(p).requires_grad
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_broadcast(self):
        a = make_param(self.rng, (3, 4), "a")
        b = make_param(self.rng, (4,), "b")
        w = self.rng.standard_normal((3, 4))
        check_op(lambda: weighted_sum(ad.add(a, b), w), [a, b])

    def test_mul_broadcast(self):
        a = make_param(self.rng, (2, 3, 4), "a")
        b = make_param(self.rng, (3, 1), "b")
        w = self.rng.standard_normal((2, 3, 4))
        check_op(lambda: weighted_sum(ad.mul(a, b), w), [a, b])

    def test_matmul_batched(self):
        a = make_param(self.rng, (2, 3, 4), "a")
        b = make_param(self.rng, (4, 5), "b")
        w = self.rng.standard_normal((2, 3, 5))
        check_op(lambda: weighted_sum(ad.matmul(a, b), w), [a, b],
                 tolerance=1e-6)

    def test_matmul_4d(self):
        a = make_param(self.rng, (2, 2, 3, 4), "a")
        b = make_param(self.rng, (2, 2, 4, 3), "b")
        w = self.rng.standard_normal((2, 2, 3, 3))
        check_op(lambda: weighted_sum(ad.matmul(a, b), w), [a, b],
                 tolerance=1e-6)

    def test_reshape_transpose(self):
        a = make_param(self.rng, (2, 6), "a")
        w = self.rng.standard_normal((3, 2, 2))

        def loss():
            t = ad.reshape(a, (2, 3, 2))
            return weighted_sum(ad.transpose(t, (1, 0, 2)), w)
        check_op(loss, [a])

    def test_concat(self):
        a = make_param(self.rng, (2, 3), "a")
        b = make_param(self.rng, (2, 2), "b")
        w = self.rng.standard_normal((2, 5))
        check_op(lambda: weighted_sum(ad.concat([a, b], axis=-1), w),
                 [a, b])

    def test_gather_rows_with_repeats(self):
        table = make_param(self.rng, (5, 3), "table")
        ids = np.array([[0, 2, 2], [4, 0, 0]])
        w = self.rng.standard_normal((2, 3, 3))
        check_op(lambda: weighted_sum(ad.gather_rows(table, ids), w), [table])

    def test_gather_rows_by_slice_equals_by_ids(self):
        table = make_param(self.rng, (5, 3), "table")
        g = self.rng.standard_normal((3, 3))
        results = []
        for rows in (slice(1, 4), np.arange(1, 4)):
            out = ad.gather_rows(table, rows)
            results.append((out.data, out.vjp(g)[0]))
        for by_slice, by_ids in zip(*results):
            assert by_slice.tobytes() == by_ids.tobytes()

    def test_take_index(self):
        a = make_param(self.rng, (3, 4, 2), "a")
        w = self.rng.standard_normal((3, 2))
        check_op(lambda: weighted_sum(ad.take_index(a, 0, axis=1), w), [a])

    def test_take_along_last(self):
        a = make_param(self.rng, (3, 4), "a")
        ids = np.array([1, 0, 3])
        w = self.rng.standard_normal(3)
        check_op(lambda: weighted_sum(ad.take_along_last(a, ids), w), [a])

    def test_softmax(self):
        a = make_param(self.rng, (3, 5), "a")
        w = self.rng.standard_normal((3, 5))
        check_op(lambda: weighted_sum(ad.softmax(a), w), [a], tolerance=1e-6)

    def test_log_softmax(self):
        a = make_param(self.rng, (3, 5), "a")
        w = self.rng.standard_normal((3, 5))
        check_op(lambda: weighted_sum(ad.log_softmax(a), w), [a],
                 tolerance=1e-6)

    def test_layer_norm(self):
        x = make_param(self.rng, (3, 6), "x")
        gain = make_param(self.rng, (6,), "gain")
        bias = make_param(self.rng, (6,), "bias")
        w = self.rng.standard_normal((3, 6))
        check_op(lambda: weighted_sum(
            ad.layer_norm(x, gain, bias), w),
            [x, gain, bias], tolerance=1e-5)

    def test_gelu(self):
        a = make_param(self.rng, (4, 4), "a")
        w = self.rng.standard_normal((4, 4))
        check_op(lambda: weighted_sum(ad.gelu(a), w), [a], tolerance=1e-6)

    def test_attention_composite(self):
        q = make_param(self.rng, (6,), "q")
        k = make_param(self.rng, (4, 6), "k")
        v = make_param(self.rng, (4, 6), "v")
        w = self.rng.standard_normal(6)

        def loss():
            _, mix = scaled_dot_attention(q, k, v)
            return weighted_sum(mix, w)
        check_op(loss, [q, k, v], tolerance=1e-6)

    def test_affine_3d(self):
        x = make_param(self.rng, (2, 3, 4), "x")
        w = make_param(self.rng, (4, 5), "w")
        b = make_param(self.rng, (5,), "b")
        g = self.rng.standard_normal((2, 3, 5))
        check_op(lambda: weighted_sum(ad.affine(x, w, b), g),
                 [x, w, b], tolerance=1e-6)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.affine(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 5))),
                      ad.constant(np.zeros(5)))

    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "pad_mask"])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_attention(self, heads, masked):
        """`ad.mha`'s gradients, as self- and as cross-attention."""
        weights = mha_weights(self.rng)
        g = self.rng.standard_normal((2, 3, 8))
        for kind in ("self", "cross"):
            x, kv, mask = attention_inputs(self.rng, kind, masked)
            params = [x, *weights] if kv is None else [x, kv, *weights]
            check_op(lambda: weighted_sum(ad.mha(x, *weights, heads, mask, kv), g), params,
                     tolerance=1e-6)

    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "pad_mask"])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_attention_equals_composed_ops(self, heads, masked):
        """`ad.mha` against `composed_mha`, as self- and as cross-attention, in
        double and single precision: the output bit for bit, and the gradients
        as `assert_gradients_agree` bounds them."""
        for dtype in (np.float64, np.float32):
            weights = mha_weights(self.rng, dtype=dtype)
            g = self.rng.standard_normal((2, 3, 8)).astype(dtype)
            for kind in ("self", "cross"):
                x, kv, mask = attention_inputs(self.rng, kind, masked, dtype)
                params = [x, *weights] if kv is None else [x, kv, *weights]
                fused, composed = (sublayer_results(op, (x, *weights, heads, mask, kv), params, g)
                                   for op in (ad.mha, composed_mha))
                assert fused[0].dtype == dtype
                assert fused[0].tobytes() == composed[0].tobytes()
                assert_gradients_agree(fused[1:], composed[1:], dtype)

    def test_feed_forward(self):
        x = make_param(self.rng, (2, 3, 8), "x")
        weights = ff_weights(self.rng)
        g = self.rng.standard_normal((2, 3, 8))
        check_op(lambda: weighted_sum(ad.feed_forward(x, *weights), g), [x, *weights],
                 tolerance=1e-6)


class TestFusedSublayers:
    """`ad.mha` and `ad.feed_forward` beyond their gradients (`TestOpGradients`)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_feed_forward_equals_composed_ops(self, dtype):
        """The output and every gradient bit for bit."""
        rng = np.random.default_rng(13)
        weights = ff_weights(rng, dtype=dtype)
        x = parameter("x", (rng.standard_normal((2, 3, 8)) * 2).astype(dtype))
        g = rng.standard_normal((2, 3, 8)).astype(dtype)
        fused, composed = (sublayer_results(op, (x, *weights), [x, *weights], g)
                           for op in (ad.feed_forward, composed_feed_forward))
        # the vjp takes each product and sum of the composed graph's, in its order
        for a, b in zip(fused, composed):
            assert a.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_each_input_is_one_parent(self):
        rng = np.random.default_rng(14)
        weights = mha_weights(rng)
        for kind, count in (("self", 3), ("cross", 4)):
            x, kv, _ = attention_inputs(rng, kind, False)
            node = ad.mha(x, *weights, 2, None, kv)
            assert len(node.parents) == count == len(node.vjp(np.ones((2, 3, 8))))
            assert [id(p) for p in node.parents].count(id(x)) == 1
        node = ad.feed_forward(x, *ff_weights(rng))
        assert len(node.parents) == 5 == len(node.vjp(np.ones((2, 3, 8))))

    def test_shapes_are_checked(self):
        rng = np.random.default_rng(15)
        w, b = mha_weights(rng)
        x, kv, _ = attention_inputs(rng, "cross", False)
        for bad in (lambda: ad.mha(x, w, b, 3),                           # 3 does not divide 8
                    lambda: ad.mha(x, ad.constant(w.data[:3]), b, 2),     # no output projection
                    lambda: ad.mha(x, w, ad.constant(b.data[0]), 2),      # one bias, not four
                    lambda: ad.mha(x, *mha_weights(rng, d=4), 2),         # weights of width 4
                    lambda: ad.mha(x, w, b, 2, kv=ad.constant(np.ones((3, 4, 8)))),
                    lambda: ad.mha(ad.constant(np.ones((3, 8))), w, b, 2),
                    lambda: ad.feed_forward(x, *ff_weights(rng, d=4)),
                    lambda: ad.feed_forward(x, *ff_weights(rng)[:2], *ff_weights(rng, ff=5)[2:])):
            with pytest.raises(ShapeError):
                bad()


def method_oracle_cases(test):
    """Parametrize over both precisions, four shapes, and standard normals or
    inputs scaled by 1e4 and offset by 1e3."""
    for mark in (pytest.mark.parametrize("dtype", [np.float32, np.float64]),
                 # 48 is not a power of two, so dividing by it is not exact
                 pytest.mark.parametrize("shape", [(1, 64), (4, 64), (16, 20, 64), (5, 48)],
                                         ids=["1x64", "4x64", "16x20x64", "5x48"]),
                 pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e4, 1e3)],
                                         ids=["normal", "scaled"])):
        test = mark(test)
    return test


# The layer-norm tolerance policy (ROADMAP item 18), fixed before the row
# statistics became products. In double precision: 1e-12. In single precision:
# 4x the largest error that the summed-reduction kernel had against the
# double-precision oracle on `method_oracle_cases`. An error is absolute on the
# normalized rows and relative to the oracle's largest magnitude elsewhere.
LN_TOLERANCE = {np.float64: dict(xhat=1e-12, out=1e-12, inv=1e-12, gx=1e-12),
                np.float32: dict(xhat=1.9e-6, out=5.4e-7, inv=4.1e-7, gx=6.2e-7)}


def assert_near(got, expected, dtype, quantity):
    """``got`` is within `LN_TOLERANCE` of ``expected`` for its precision."""
    scale = 1.0 if quantity == "xhat" else float(np.abs(expected).max())
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=LN_TOLERANCE[dtype][quantity] * scale)


def in_double(*arrays):
    return [a.astype(np.float64) for a in arrays]


class TestKernels:
    """The shared forward kernels and the one-GEMM path of `matmul` against references."""

    def test_gelu_single_matches_double_reference(self):
        x = np.linspace(-10.0, 10.0, 200001, dtype=np.float32)
        got, _ = ad.gelu_kernel(x)
        assert got.dtype == np.float32
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                         * (x64 + 0.044715 * x64 ** 3)))
        # float32 epsilon scaled by 1 + |x|; the worst case measured is 0.76 of it
        tolerance = np.finfo(np.float32).eps * (1.0 + np.abs(x64))
        assert np.all(np.abs(got - ref) <= tolerance)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_gelu_equals_decode_gelu(self, dtype):
        x = (np.random.default_rng(3).standard_normal((4, 3, 16)) * 4).astype(dtype)
        assert ad.gelu(ad.constant(x)).data.tobytes() == ad.gelu_kernel(x)[0].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_norms_equal_kernels(self, dtype):
        rng = np.random.default_rng(4)
        x = (rng.standard_normal((4, 3, 16)) * 4).astype(dtype)
        gain = (rng.standard_normal(16) + 1).astype(dtype)
        bias = rng.standard_normal(16).astype(dtype)
        graph_ln = ad.layer_norm(ad.constant(x), ad.constant(gain), ad.constant(bias))
        kernel_ln, _, _ = ad.layer_norm_kernel(x, gain, bias)
        assert graph_ln.data.dtype == dtype
        assert graph_ln.data.tobytes() == kernel_ln.tobytes()
        assert ad.softmax(ad.constant(x)).data.tobytes() == \
            ad.softmax_kernel(x).tobytes()
        assert ad.log_softmax(ad.constant(x)).data.tobytes() == \
            ad.log_softmax_kernel(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_attention_equals_kernel(self, dtype):
        """`ad.mha` is its projections, `attention_kernel` and the merge."""
        rng = np.random.default_rng(5)
        x, kv = (rng.standard_normal((2, t, 16)).astype(dtype) for t in (3, 4))
        w, b = (p.data for p in mha_weights(rng, 16, dtype))
        mask = pad_mask(dtype)
        graph = ad.mha(ad.constant(x), ad.constant(w), ad.constant(b), 4, mask, ad.constant(kv))

        def split(rows, weight, bias):
            projected = rows.reshape(-1, 16) @ weight + bias
            return projected.reshape(2, -1, 4, 4).transpose(0, 2, 1, 3)

        (wq, wk, wv, wo), (bq, bk, bv, bo) = w, b
        mix, probs = ad.attention_kernel(split(x, wq, bq), split(kv, wk, bk), split(kv, wv, bv),
                                         mask)
        expected = mix.transpose(0, 2, 1, 3).reshape(6, 16) @ wo + bo
        assert graph.data.dtype == mix.dtype == dtype
        assert graph.data.tobytes() == expected.tobytes()
        assert np.all(probs[1, ..., 3] == 0.0)

    @staticmethod
    def oracle_inputs(dtype, shape, scale, offset, count):
        rng = np.random.default_rng([len(shape), shape[0], int(scale)])
        return [(rng.standard_normal(shape) * scale + offset).astype(dtype)
                for _ in range(count)]

    @method_oracle_cases
    def test_layer_norm_kernel_equals_method_oracle(self, dtype, shape, scale, offset):
        x, gain, bias = self.oracle_inputs(dtype, shape, scale, offset, 3)
        gain, bias = gain.reshape(-1, shape[-1])[0], bias.reshape(-1, shape[-1])[0]
        got = ad.layer_norm_kernel(x, gain, bias)
        oracle = method_layer_norm(*in_double(x, gain, bias))
        for kernel, expected, quantity in zip(got, oracle, ("out", "xhat", "inv")):
            assert kernel.dtype == dtype
            assert_near(kernel, expected, dtype, quantity)

    @method_oracle_cases
    def test_graph_layer_norm_equals_method_oracle(self, dtype, shape, scale, offset):
        x, gain, bias = self.oracle_inputs(dtype, shape, scale, offset, 3)
        gain, bias = gain.reshape(-1, shape[-1])[0], bias.reshape(-1, shape[-1])[0]
        out = ad.layer_norm(ad.constant(x), ad.constant(gain), ad.constant(bias))
        assert out.data.dtype == dtype
        assert_near(out.data, method_layer_norm(*in_double(x, gain, bias))[0], dtype, "out")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_is_normalize_then_gain_and_bias(self, dtype):
        rng = np.random.default_rng(6)
        x = (rng.standard_normal((4, 3, 48)) * 4 + 2).astype(dtype)
        gain = (rng.standard_normal(48) + 1).astype(dtype)
        bias = rng.standard_normal(48).astype(dtype)
        centred, deviation = ad.normalize_kernel(x)
        out, kernel_xhat, kernel_inv = ad.layer_norm_kernel(x, gain, bias)
        assert centred.dtype == deviation.dtype == dtype
        xhat = centred / deviation
        assert_near(out, xhat * gain + bias, dtype, "out")
        assert_near(kernel_xhat, xhat, dtype, "xhat")
        assert_near(kernel_inv, 1.0 / deviation, dtype, "inv")

    @method_oracle_cases
    def test_layer_norm_vjp_equals_method_oracle(self, dtype, shape, scale, offset):
        x, gain, g = self.oracle_inputs(dtype, shape, scale, offset, 3)
        gain = gain.reshape(-1, shape[-1])[0]
        out = ad.layer_norm(parameter("x", x), ad.constant(gain),
                            ad.constant(np.zeros_like(gain)))
        gx = out.vjp(g)[0]
        assert gx.dtype == dtype
        x, gain, g = in_double(x, gain, g)
        _, xhat, inv = method_layer_norm(x, gain, np.zeros_like(gain))
        assert_near(gx, method_layer_norm_input_grad(g, gain, xhat, inv), dtype, "gx")

    @method_oracle_cases
    def test_softmax_kernels_equal_method_oracles(self, dtype, shape, scale, offset):
        x, = self.oracle_inputs(dtype, shape, scale, offset, 1)
        for kernel, oracle in ((ad.softmax_kernel, method_softmax),
                               (ad.log_softmax_kernel, method_log_softmax)):
            got = kernel(x)
            assert got.dtype == dtype
            assert got.tobytes() == oracle(x).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kernel", ["normalize", "layer_norm", "softmax", "log_softmax",
                                        "attention", "gelu"])
    def test_a_non_finite_input_row_reaches_its_output_row(self, kernel, bad):
        """No-grad forwards check no node, only each inference entry's output
        (ROADMAP item 10). That is sound because IEEE 754 arithmetic carries a
        NaN or an infinity in one input row into that row of every kernel's
        output, and into no other row. Attention's rows are its queries'.

        One exception is pinned as it is: softmax maps a single -Inf to a
        probability of exactly 0 (exp(-inf) = 0), the masked entry of a finite
        row. Its logits are made inside `attention_kernel`, where no node ever
        checked them."""
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 3, 8)).astype(np.float32)
        x[1, 2, 5] = bad
        gain, bias = (rng.standard_normal(8).astype(np.float32) for _ in range(2))
        keys = rng.standard_normal((4, 6, 8)).astype(np.float32)
        runs = {"normalize": lambda: ad.normalize_kernel(x),
                "layer_norm": lambda: ad.layer_norm_kernel(x, gain, bias),
                "softmax": lambda: (ad.softmax_kernel(x),),
                "log_softmax": lambda: (ad.log_softmax_kernel(x),),
                "attention": lambda: ad.attention_kernel(x, keys, keys),
                "gelu": lambda: ad.gelu_kernel(x)[:1]}
        with np.errstate(invalid="ignore", over="ignore"):
            outputs = runs[kernel]()
        for out in outputs:
            rows = out.reshape(-1, out.shape[-1])
            assert np.isfinite(np.delete(rows, 1 * 3 + 2, axis=0)).all()
            if kernel == "softmax" and bad == -np.inf:
                assert np.isfinite(out[1, 2]).all() and out[1, 2, 5] == 0.0
            else:
                assert not np.isfinite(out[1, 2]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(63, 11), (64, 11), (16, 4, 11, 11), (4, 4, 30)],
                             ids=["63x11", "64x11", "16x4x11x11", "4x4x30"])
    def test_row_max_is_the_plain_reduce(self, dtype, shape):
        """Below and from 64 rows, with NaN, ±Inf and signed zeros, and on a
        transposed view: the bytes of ``np.maximum.reduce``."""
        x = np.random.default_rng(list(shape)).standard_normal(shape).astype(dtype)
        rows = x.reshape(-1, shape[-1])
        rows[0, 3] = np.nan
        rows[1] = np.inf
        rows[2, 0] = np.inf
        rows[3] = -np.inf
        rows[4, 1] = -np.inf
        rows[5] = 0.0
        rows[5, ::2] = -0.0
        rows[6] = -0.0
        rows[6, 1] = 0.0
        for operand in (x, np.swapaxes(x, 0, -1)):
            got = ad.row_max(operand)
            expected = np.maximum.reduce(operand, axis=-1, keepdims=True)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernels_leave_their_inputs_unchanged(self, dtype):
        """`decode_step` passes views of a state's arrays into the kernels, so a
        kernel writes only into arrays it allocated: each input's bytes are the
        same after the call, for contiguous, strided and transposed inputs on
        both sides of `row_max`'s 64 rows."""
        rng = np.random.default_rng(16)
        base = (rng.standard_normal((2, 70, 16)) * 3).astype(dtype)
        gain, bias = (rng.standard_normal(16).astype(dtype) for _ in range(2))
        qkv = rng.standard_normal((2, 4, 6, 8)).astype(dtype)
        calls = []
        for x in (base, base[:, ::3], base.transpose(1, 0, 2), base[0, :4]):
            calls += [(ad.row_max, [x]), (ad.softmax_kernel, [x]), (ad.log_softmax_kernel, [x]),
                      (ad.normalize_kernel, [x]), (ad.layer_norm_kernel, [x, gain, bias]),
                      (ad.gelu_kernel, [x]), (ad.gelu_grad, [x, np.tanh(x)])]
        keys_transposed_in_memory = qkv.swapaxes(-1, -2).copy().swapaxes(-1, -2)
        calls += [(ad.attention_kernel, [qkv[:, :, :3], qkv[:, :, 1:5], qkv[:, :, ::-1][:, :, :4],
                                         pad_mask(dtype)]),
                  (ad.attention_kernel, [qkv[:, :, :1], keys_transposed_in_memory, qkv[:, ::-1]])]
        for kernel, args in calls:
            before = [a.tobytes() for a in args]
            kernel(*args)
            assert [a.tobytes() for a in args] == before, kernel.__name__

    def test_vjps_leave_the_gradient_unchanged(self):
        """`add` hands one gradient array to both of its inputs, so no vjp
        writes into the gradient it is given."""
        rng = np.random.default_rng(17)
        x = parameter("x", rng.standard_normal((2, 3, 8)))
        ones, zeros = parameter("gain", np.ones(8)), parameter("bias", np.zeros(8))
        _, kv, mask = attention_inputs(rng, "cross", True)
        nodes = [ad.mha(x, *mha_weights(rng), 2), ad.mha(x, *mha_weights(rng), 4, mask, kv),
                 ad.feed_forward(x, *ff_weights(rng)), ad.layer_norm(x, ones, zeros),
                 ad.affine(x, *ff_weights(rng)[:2]), ad.gelu(x), ad.softmax(x),
                 ad.log_softmax(x)]
        for node in nodes:
            g = rng.standard_normal(node.shape)
            before = g.tobytes()
            node.vjp(g)
            assert g.tobytes() == before

    @pytest.mark.parametrize("case", ["3d", "transposed", "4d"])
    def test_weight_product_matches_einsum(self, case):
        rng = np.random.default_rng(9)
        shapes = {"3d": (4, 6, 8), "transposed": (6, 4, 8), "4d": (2, 3, 4, 8)}
        # quarter-integers: every product and partial sum is exact in double,
        # so any summation order gives the same forward
        x = parameter("x", rng.integers(-8, 9, size=shapes[case]) / 4.0)
        w = parameter("w", rng.integers(-8, 9, size=(8, 5)) / 4.0)

        def operand():
            return ad.transpose(x, (1, 0, 2)) if case == "transposed" else x

        a = operand().data
        assert a.flags.c_contiguous == (case != "transposed")
        out = ad.matmul(operand(), w)
        np.testing.assert_array_equal(out.data, np.einsum("...d,de->...e", a, w.data))

        g = rng.standard_normal(out.shape)
        ad.backward(weighted_sum(out, g))
        ga = np.einsum("...e,de->...d", g, w.data)
        if case == "transposed":
            ga = np.transpose(ga, (1, 0, 2))
        np.testing.assert_allclose(x.grad, ga, rtol=0, atol=1e-12)
        lead = "abc"[:a.ndim - 1]
        np.testing.assert_allclose(w.grad, np.einsum(f"{lead}d,{lead}e->de", a, g),
                                   rtol=0, atol=1e-12)


class RecordingRng:
    """Normal draws ``widen`` times wider than asked, each draw's size logged."""

    def __init__(self, seed, widen):
        self.rng, self.widen, self.sizes = np.random.default_rng(seed), widen, []

    def normal(self, loc, scale, size):
        self.sizes.append(size)
        return self.rng.normal(loc, scale * self.widen, size=size)


class TestTruncNormal:
    @pytest.mark.parametrize("widen", [1.0, 8.0], ids=["as_asked", "past_the_round_cap"])
    @pytest.mark.parametrize("shape", [(64, 64), (7,), (3, 4, 5), (256,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_whole_array_loop(self, shape, dtype, widen):
        """The same draws, of the same sizes, land in the same places; eight
        times wider draws leave values out of range after the 16th round."""
        fast, slow = RecordingRng(3, widen), RecordingRng(3, widen)
        got = ad.trunc_normal(fast, shape, dtype=dtype)
        expected = reference_trunc_normal(slow, shape, dtype=dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert fast.sizes == slow.sizes
        assert np.abs(got).max() <= 0.04


class TestAdam:
    def test_decay_only_step(self):
        p = parameter("p", np.full(4, 2.0))
        ad.adam_step([p], lr=0.001, weight_decay=0.01)
        assert np.allclose(p.data, 2.0 * (1 - 1e-5), rtol=0, atol=1e-12)

    def test_zero_lr_no_change(self):
        p = parameter("p", np.array([1.0, -2.0]))
        p.grad = np.array([5.0, -3.0])
        ad.adam_step([p], lr=0.0, weight_decay=0.01)
        assert np.allclose(p.data, [1.0, -2.0])
        assert np.allclose(p.grad, 0.0)

    def test_matches_scalar_reference(self):
        # independent scalar recurrence, bias-corrected, no decay
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        theta, m, v = 1.5, 0.0, 0.0
        p = parameter("p", np.array([1.5]))
        for t in range(1, 6):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
            p.grad = np.array([g])
            ad.adam_step([p], lr=lr)
            assert abs(p.data[0] - theta) < 1e-10

    def test_first_step_close_to_signed_lr(self):
        p = parameter("p", np.array([0.0]))
        p.grad = np.array([2.0])
        ad.adam_step([p], lr=0.01)
        # bias-corrected first step is -lr * g / (|g| + eps)
        assert abs(p.data[0] + 0.01) < 1e-7

    def test_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(5)
            p = parameter("p", rng.standard_normal(8))
            for _ in range(20):
                p.grad = rng.standard_normal(8)
                ad.adam_step([p], lr=0.01, weight_decay=0.01)
            return p.data.tobytes()
        assert run() == run()


    @pytest.mark.parametrize("kwargs, message", [
        (dict(lr=float("nan")), "lr must be a finite number at least 0, got nan"),
        (dict(lr=-1e-3), "lr must be a finite number at least 0"),
        (dict(lr="0.1"), "lr must be a finite number at least 0"),
        (dict(lr=True), "lr must be a finite number at least 0"),
        (dict(betas=(1.0, 0.999)), "betas[0] must be a finite number in [0, 1), got 1.0"),
        (dict(betas=(0.9, -0.5)), "betas[1] must be a finite number in [0, 1)"),
        (dict(eps=0.0), "eps must be a finite number above 0, got 0.0"),
        (dict(weight_decay=float("inf")), "weight_decay must be a finite number at least 0"),
    ], ids=["lr_nan", "lr_negative", "lr_string", "lr_bool", "beta1_one", "beta2_negative",
            "eps_zero", "decay_inf"])
    def test_bad_hyper_parameter_is_refused_before_any_write(self, kwargs, message):
        p = parameter("p", np.array([1.0, -2.0, 3.0]))
        p.grad[...] = [0.1, 0.0, 0.0]
        ad.adam_step([p], lr=0.01)
        p.grad[...] = [0.1, 0.0, 0.0]
        arena = p.arena
        before = [buffer.tobytes() for buffer in (arena.data, arena.grad, arena.m, arena.v)]
        with pytest.raises(ValueError, match=re.escape(message)):
            ad.adam_step([p], **dict(dict(lr=0.01), **kwargs))
        assert arena.step == 1
        assert [buffer.tobytes() for buffer in (arena.data, arena.grad, arena.m, arena.v)] \
            == before


class TestSchedule:
    def test_zero_at_start(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 0) == 0.0

    def test_linear_warmup_value(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 4) == 2e-5 * 4 / 10

    def test_base_at_warmup_end(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 10) == 2e-5

    def test_linear_decay_value(self):
        assert math.isclose(ad.lr_at(Schedule(2e-5, 0.1, 100), 55), 2e-5 * 46 / 91)

    def test_clamps_past_total(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 101) == 0.0
        assert math.isclose(ad.lr_at(Schedule(2e-5, 0.1, 100), 100), 2e-5 / 91)

    def test_warmup_proportion_validated(self):
        with pytest.raises(ValueError):
            Schedule(1e-3, 1.5, 10)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.1, 10), "base_lr"),
        ((-1.0, 0.1, 10), "base_lr"),
        ((1e-3, True, 10), "warmup_proportion"),
        ((1e-3, "0.5", 10), "warmup_proportion"),
        ((1e-3, 0.1, -5), "total_steps"),
        ((1e-3, 0.1, 2.5), "total_steps"),
    ], ids=["nan_rate", "negative_rate", "bool_warmup", "string_warmup",
            "negative_steps", "fractional_steps"])
    def test_every_field_validated(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Schedule(*args)

    def test_no_steps_is_a_schedule(self):
        """A regime with no records schedules 0 steps."""
        assert ad.lr_at(Schedule(1e-3, 0.1, 0), 0) == 0.0


class TestFiniteGuard:
    def test_no_nan_from_finite_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            z = ad.constant(rng.standard_normal(6) * 100)
            ad.softmax(z)
            ad.log_softmax(z)
            ad.layer_norm(ad.constant(rng.standard_normal((2, 6))),
                          ad.constant(np.ones(6)), ad.constant(np.zeros(6)))

    def test_guard_raises_on_overflow(self):
        big = ad.constant(np.array([[1e300]]))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                ad.matmul(big, ad.constant(np.array([[1e300]])))

    def test_fused_ops_guard_their_outputs(self):
        big = ad.constant(np.full((1, 2, 4), 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                ad.affine(big, ad.constant(np.full((4, 4), 1e300)),
                          ad.constant(np.zeros(4)))
            with pytest.raises(NonFiniteError):
                ad.mha(big, ad.constant(np.full((4, 4, 4), 1e300)),
                       ad.constant(np.full((4, 4), 1e300)), 2)
            with pytest.raises(NonFiniteError):
                ad.feed_forward(big, ad.constant(np.full((4, 6), 1e300)),
                                ad.constant(np.zeros(6)), ad.constant(np.ones((6, 4))),
                                ad.constant(np.zeros(4)))
