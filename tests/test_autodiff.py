"""Gradient, optimizer, schedule, and checkpoint tests for the tensor substrate."""

import math

import numpy as np
import pytest

import concept_parse.autodiff as ad
from concept_parse.autodiff import Parameter, Schedule, Tensor
from concept_parse.errors import NonFiniteError, NotScalarError, ShapeError

from helpers import zero_grads


def make_param(rng, shape, name="p"):
    return Parameter(name, rng.standard_normal(shape))


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
        check_op(lambda: ad.sum_all(ad.affine(x.leaf(), w.leaf(), b.leaf())),
                 [x, w, b], tolerance=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))


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
        weights, _ = ad.scaled_dot_attention(q, keys, values)
        assert np.allclose(weights.data, 0.2)

    def test_single_key(self):
        q = ad.constant(np.ones(4))
        k = ad.constant(np.ones((1, 4)))
        v = ad.constant(np.arange(4.0).reshape(1, 4))
        weights, mix = ad.scaled_dot_attention(q, k, v)
        assert np.allclose(weights.data, [1.0])
        assert np.allclose(mix.data, np.arange(4.0))

    def test_large_margin_concentrates(self):
        d = 4
        key0 = np.ones(d)
        q = ad.constant(key0 * (20 * math.sqrt(d) / d))  # logit gap 20 vs zero keys
        keys = ad.constant(np.stack([key0, np.zeros(d), np.zeros(d)]))
        values = ad.constant(np.eye(3, d))
        weights, _ = ad.scaled_dot_attention(q, keys, values)
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

    def test_output_mean_is_bias(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.standard_normal((4, 8)))
        bias = rng.standard_normal(8)
        out = ad.layer_norm(x, ad.constant(np.ones(8)), ad.constant(bias))
        assert np.allclose(out.data.mean(axis=0).mean(), bias.mean(), atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter("p", np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(p.leaf()))
        assert np.allclose(p.grad, 1.0)

    def test_sum_of_squares(self):
        p = Parameter("p", np.array([1.0, -2.0, 3.0]))
        leaf = p.leaf()
        ad.backward(ad.sum_all(ad.mul(leaf, leaf)))
        assert np.allclose(p.grad, 2 * p.data)

    def test_repeated_backward_accumulates(self):
        p = Parameter("p", np.ones(3))
        ad.backward(ad.sum_all(p.leaf()))
        ad.backward(ad.sum_all(p.leaf()))
        assert np.allclose(p.grad, 2.0)

    def test_non_scalar_rejected(self):
        p = Parameter("p", np.ones(3))
        with pytest.raises(NotScalarError):
            ad.backward(p.leaf())

    def test_no_grad_suppresses_graph(self):
        p = Parameter("p", np.ones(3))
        with ad.no_grad():
            out = ad.sum_all(p.leaf())
        assert not out.requires_grad


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_broadcast(self):
        a = make_param(self.rng, (3, 4), "a")
        b = make_param(self.rng, (4,), "b")
        w = self.rng.standard_normal((3, 4))
        check_op(lambda: weighted_sum(ad.add(a.leaf(), b.leaf()), w), [a, b])

    def test_mul_broadcast(self):
        a = make_param(self.rng, (2, 3, 4), "a")
        b = make_param(self.rng, (3, 1), "b")
        w = self.rng.standard_normal((2, 3, 4))
        check_op(lambda: weighted_sum(ad.mul(a.leaf(), b.leaf()), w), [a, b])

    def test_matmul_batched(self):
        a = make_param(self.rng, (2, 3, 4), "a")
        b = make_param(self.rng, (4, 5), "b")
        w = self.rng.standard_normal((2, 3, 5))
        check_op(lambda: weighted_sum(ad.matmul(a.leaf(), b.leaf()), w), [a, b],
                 tolerance=1e-6)

    def test_matmul_4d(self):
        a = make_param(self.rng, (2, 2, 3, 4), "a")
        b = make_param(self.rng, (2, 2, 4, 3), "b")
        w = self.rng.standard_normal((2, 2, 3, 3))
        check_op(lambda: weighted_sum(ad.matmul(a.leaf(), b.leaf()), w), [a, b],
                 tolerance=1e-6)

    def test_reshape_transpose(self):
        a = make_param(self.rng, (2, 6), "a")
        w = self.rng.standard_normal((3, 2, 2))

        def loss():
            t = ad.reshape(a.leaf(), (2, 3, 2))
            return weighted_sum(ad.transpose(t, (1, 0, 2)), w)
        check_op(loss, [a])

    def test_concat(self):
        a = make_param(self.rng, (2, 3), "a")
        b = make_param(self.rng, (2, 2), "b")
        w = self.rng.standard_normal((2, 5))
        check_op(lambda: weighted_sum(ad.concat([a.leaf(), b.leaf()], axis=-1), w),
                 [a, b])

    def test_gather_rows_with_repeats(self):
        table = make_param(self.rng, (5, 3), "table")
        ids = np.array([[0, 2, 2], [4, 0, 0]])
        w = self.rng.standard_normal((2, 3, 3))
        check_op(lambda: weighted_sum(ad.gather_rows(table.leaf(), ids), w), [table])

    def test_take_index(self):
        a = make_param(self.rng, (3, 4, 2), "a")
        w = self.rng.standard_normal((3, 2))
        check_op(lambda: weighted_sum(ad.take_index(a.leaf(), 0, axis=1), w), [a])

    def test_take_along_last(self):
        a = make_param(self.rng, (3, 4), "a")
        ids = np.array([1, 0, 3])
        w = self.rng.standard_normal(3)
        check_op(lambda: weighted_sum(ad.take_along_last(a.leaf(), ids), w), [a])

    def test_softmax(self):
        a = make_param(self.rng, (3, 5), "a")
        w = self.rng.standard_normal((3, 5))
        check_op(lambda: weighted_sum(ad.softmax(a.leaf()), w), [a], tolerance=1e-6)

    def test_log_softmax(self):
        a = make_param(self.rng, (3, 5), "a")
        w = self.rng.standard_normal((3, 5))
        check_op(lambda: weighted_sum(ad.log_softmax(a.leaf()), w), [a],
                 tolerance=1e-6)

    def test_layer_norm(self):
        x = make_param(self.rng, (3, 6), "x")
        gain = make_param(self.rng, (6,), "gain")
        bias = make_param(self.rng, (6,), "bias")
        w = self.rng.standard_normal((3, 6))
        check_op(lambda: weighted_sum(
            ad.layer_norm(x.leaf(), gain.leaf(), bias.leaf()), w),
            [x, gain, bias], tolerance=1e-5)

    def test_gelu(self):
        a = make_param(self.rng, (4, 4), "a")
        w = self.rng.standard_normal((4, 4))
        check_op(lambda: weighted_sum(ad.gelu(a.leaf()), w), [a], tolerance=1e-6)

    def test_attention_composite(self):
        q = make_param(self.rng, (6,), "q")
        k = make_param(self.rng, (4, 6), "k")
        v = make_param(self.rng, (4, 6), "v")
        w = self.rng.standard_normal(6)

        def loss():
            _, mix = ad.scaled_dot_attention(q.leaf(), k.leaf(), v.leaf())
            return weighted_sum(mix, w)
        check_op(loss, [q, k, v], tolerance=1e-6)


class TestKernels:
    """The shared GELU kernel and the one-GEMM path of `matmul` against references."""

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

    @pytest.mark.parametrize("case", ["3d", "transposed", "4d"])
    def test_weight_product_matches_einsum(self, case):
        rng = np.random.default_rng(9)
        shapes = {"3d": (4, 6, 8), "transposed": (6, 4, 8), "4d": (2, 3, 4, 8)}
        # quarter-integers: every product and partial sum is exact in double,
        # so any summation order gives the same forward
        x = Parameter("x", rng.integers(-8, 9, size=shapes[case]) / 4.0)
        w = Parameter("w", rng.integers(-8, 9, size=(8, 5)) / 4.0)

        def operand():
            return ad.transpose(x.leaf(), (1, 0, 2)) if case == "transposed" else x.leaf()

        a = operand().data
        assert a.flags.c_contiguous == (case != "transposed")
        out = ad.matmul(operand(), w.leaf())
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


class TestAdam:
    def test_decay_only_step(self):
        p = Parameter("p", np.full(4, 2.0))
        ad.adam_step([p], lr=0.001, weight_decay=0.01)
        assert np.allclose(p.data, 2.0 * (1 - 1e-5), rtol=0, atol=1e-12)

    def test_zero_lr_no_change(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        p.grad = np.array([5.0, -3.0])
        ad.adam_step([p], lr=0.0, weight_decay=0.01)
        assert np.allclose(p.data, [1.0, -2.0])
        assert np.allclose(p.grad, 0.0)

    def test_matches_scalar_reference(self):
        # independent scalar recurrence, bias-corrected, no decay
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.37
        theta, m, v = 1.5, 0.0, 0.0
        p = Parameter("p", np.array([1.5]))
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
        p = Parameter("p", np.array([0.0]))
        p.grad = np.array([2.0])
        ad.adam_step([p], lr=0.01)
        # bias-corrected first step is -lr * g / (|g| + eps)
        assert abs(p.data[0] + 0.01) < 1e-7

    def test_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(5)
            p = Parameter("p", rng.standard_normal(8))
            for _ in range(20):
                p.grad = rng.standard_normal(8)
                ad.adam_step([p], lr=0.01, weight_decay=0.01)
            return p.data.tobytes()
        assert run() == run()


class TestSchedule:
    def test_zero_at_start(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 0) == 0.0

    def test_base_at_warmup_end(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 10) == 2e-5

    def test_linear_decay_value(self):
        assert math.isclose(ad.lr_at(Schedule(2e-5, 0.1, 100), 55),
                            2e-5 * (100 - 55) / 90)

    def test_clamps_past_total(self):
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 101) == 0.0
        assert ad.lr_at(Schedule(2e-5, 0.1, 100), 100) == 0.0

    def test_warmup_proportion_validated(self):
        with pytest.raises(ValueError):
            Schedule(1e-3, 1.5, 10)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        params = {
            "a.weight": Parameter("a.weight", rng.standard_normal((3, 4)).astype(np.float32)),
            "b.bias": Parameter("b.bias", rng.standard_normal(5).astype(np.float32)),
        }
        path = tmp_path / "model.ckpt"
        ad.save_parameters(params, path, "single")
        arrays, precision = ad.load_parameters(path)
        assert precision == "single"
        assert set(arrays) == set(params)
        for name, p in params.items():
            assert arrays[name].dtype == np.float32
            assert np.array_equal(arrays[name], p.data)

    def test_double_precision(self, tmp_path):
        params = {"w": Parameter("w", np.array([1.0, 2.0]))}
        path = tmp_path / "model.ckpt"
        ad.save_parameters(params, path, "double")
        arrays, precision = ad.load_parameters(path)
        assert precision == "double"
        assert np.array_equal(arrays["w"], params["w"].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTCKPT0" + b"\x00" * 16)
        with pytest.raises(ValueError):
            ad.load_parameters(path)

    def test_unknown_precision_code(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ad.save_parameters({"w": Parameter("w", np.ones(2))}, path, "double")
        blob = bytearray(path.read_bytes())
        blob[12] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="precision code 7"):
            ad.load_parameters(path)

    def test_truncation_raises_with_path(self, tmp_path):
        rng = np.random.default_rng(7)
        params = {
            "a.weight": Parameter("a.weight", rng.standard_normal((3, 4)).astype(np.float32)),
            "b.bias": Parameter("b.bias", rng.standard_normal(5).astype(np.float32)),
        }
        full = tmp_path / "model.ckpt"
        ad.save_parameters(params, full, "single")
        blob = full.read_bytes()
        path = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            try:
                arrays, _ = ad.load_parameters(path)
            except ValueError as exc:
                assert str(path) in str(exc), size
            else:
                # a cut between two parameters leaves a shorter well-formed file;
                # the model loader rejects the missing names
                assert list(arrays) == list(params)[:len(arrays)], size
                for name, data in arrays.items():
                    assert np.array_equal(data, params[name].data)


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
