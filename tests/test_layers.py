"""Layer forward semantics, gradients, and the constancy certificate."""

import itertools

import numpy as np
import pytest

from arrn.autodiff import Parameter, Tensor, gradient_check, no_grad
from arrn import layers
from arrn.grids import GridSpec
from arrn.layers import (
    BatchNorm,
    DepthwiseConv,
    Dropout,
    FeatureMap,
    GlobalPoolHead,
    InnerBlock,
    InnerBlockSpec,
    PointwiseConv,
    SiLU,
    _pad_spatial,
    depthwise_conv_op,
    silu_op,
    softmax_cross_entropy,
    zero_constancy_check,
)
from arrn.resample import MATRIX_AXIS_MAX, ROW_TILE


def rng_for(seed):
    return np.random.default_rng(seed)


def banded(extents):
    """Whether a depthwise convolution over ``extents`` runs as per-slice
    matrices (:func:`arrn.layers._banded_rows`)."""
    return len(extents) == 2 and max(extents) <= MATRIX_AXIS_MAX


def tap_sum(w, b, x, padding):
    """The depthwise convolution as the padded shifted copies' sum, in offset
    order, in the dtype of ``w``, ``b`` and ``x``."""
    dims = x.ndim - 2
    mode = "edge" if padding == "replicate" else "constant"
    padded = np.pad(x, [(0, 0)] * 2 + [(1, 1)] * dims, mode=mode)
    per_channel = (1, -1) + (1,) * dims
    expected = np.zeros_like(x)
    for off in np.ndindex(*(3,) * dims):
        window = padded[(slice(None),) * 2 + tuple(
            slice(o, o + n) for o, n in zip(off, x.shape[2:]))]
        expected = expected + w[(slice(None),) + off].reshape(per_channel) * window
    return expected + b.reshape(per_channel)


class TestSiLU:
    def test_closed_form_values(self):
        x = Tensor(np.array([0.0, 1.0]))
        out = silu_op(x).values
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)
        assert out[1] == pytest.approx(0.731059, abs=1e-6)

    def test_derivative_at_zero_is_half(self):
        x = Parameter(np.array([0.0]))
        out = silu_op(x)
        out.backward(np.ones(1))
        assert x.grad[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 12.0])
    def test_gradcheck(self, scale):
        p = Parameter(scale * rng_for(0).standard_normal((2, 3, 4)))
        assert gradient_check(lambda: silu_op(p), [p]) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_x_over_one_plus_exp_bitwise(self, dtype):
        extremes = [-1e4, -800.0, -100.0, -89.0, -0.0, 0.0, 50.0, 1e4]
        x = np.concatenate([30.0 * rng_for(24).standard_normal(200), extremes])
        x = x.astype(dtype)
        with np.errstate(over="ignore"):
            expected = x / (1 + np.exp(-x))
        out = silu_op(Tensor(x)).values
        assert out.dtype == dtype
        assert out.tobytes() == expected.tobytes()
        # exp(1e4) overflows: the output of a large negative input is -0.
        assert out[-8] == 0.0 and np.signbit(out[-8])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_equals_the_textbook_expression(self, dtype):
        x = Parameter(rng_for(18).standard_normal((4, 3, 8)).astype(dtype))
        g = rng_for(19).standard_normal((4, 3, 8)).astype(dtype)
        silu_op(x).backward(g)
        s = 1.0 / (1.0 + np.exp(-x.values))
        np.testing.assert_array_equal(x.grad, g * (s * (1.0 + x.values * (1.0 - s))))


class TestPointwiseConv:
    def test_identity_initialization_passthrough(self):
        layer = PointwiseConv(3, 3, rng_for(1))
        layer.weight.assign(np.eye(3))
        x = rng_for(2).standard_normal((2, 3, 5))
        out = layer.forward(Tensor(x)).values
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_linear_weight_gradient_is_outer_product(self):
        w = Parameter(rng_for(3).standard_normal((2, 3)))
        b = Parameter(np.zeros(2))
        x = Tensor(rng_for(4).standard_normal((1, 3, 1)))
        from arrn.layers import pointwise_conv_op

        out = pointwise_conv_op(x, w, b)
        g = rng_for(5).standard_normal(out.shape)
        out.backward(g)
        expected = np.einsum("bos,bcs->oc", g, x.values)
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_gradcheck(self):
        layer = PointwiseConv(3, 4, rng_for(6))
        x = Parameter(rng_for(7).standard_normal((2, 3, 5)))
        params = [x, layer.weight, layer.bias]
        assert gradient_check(lambda: layer.forward(x), params) <= 1e-6


class TestPadSpatial:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "dims, axes", [(1, (2,)), (2, (2, 3)), (2, (2,)), (2, (3,))],
        ids=["1", "2", "2-rows", "2-columns"],
    )
    def test_equals_np_pad_bitwise(self, dims, axes, dtype):
        for extents in itertools.product(range(1, 5), repeat=dims):
            x = rng_for(sum(extents)).standard_normal((2, 3) + extents).astype(dtype)
            out = _pad_spatial(x, axes)
            widths = [(1, 1) if a in axes else (0, 0) for a in range(x.ndim)]
            expected = np.pad(x, widths, mode="edge")
            assert out.dtype == dtype and out.shape == expected.shape
            assert out.tobytes() == expected.tobytes(), extents

    @pytest.mark.parametrize("axes", [(2,), (2, 3), (3,)])
    def test_unpad_fold_is_the_adjoint(self, axes):
        x = rng_for(36).standard_normal((2, 3, 4, 5))
        y = rng_for(37).standard_normal(_pad_spatial(x, axes).shape)
        lhs = np.vdot(_pad_spatial(x, axes), y)
        assert lhs == pytest.approx(np.vdot(x, layers._unpad_fold(y, axes)), rel=1e-12)


class TestDepthwiseConv:
    @pytest.mark.parametrize("dims", [1, 2])
    def test_gradcheck_replicate(self, dims):
        layer = DepthwiseConv(2, dims, rng_for(8))
        shape = (2, 2) + (4,) * dims
        x = Parameter(rng_for(9).standard_normal(shape))
        params = [x, layer.weight, layer.bias]
        assert gradient_check(lambda: layer.forward(x), params) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "extents", [(5,), (5, 5), (65, 3), (65,)], ids=["1", "2", "65x3", "65"]
    )
    def test_forward_equals_the_tap_sum(self, extents, dtype):
        dims = len(extents)
        layer = DepthwiseConv(3, dims, rng_for(20), dtype=dtype)
        layer.bias.assign(rng_for(21).standard_normal(3))
        x = rng_for(22).standard_normal((2, 3) + extents).astype(dtype)
        expected = tap_sum(layer.weight.values, layer.bias.values, x, "replicate")
        out = layer.forward(Tensor(x)).values
        if max(extents) > MATRIX_AXIS_MAX:  # the tap sum itself
            np.testing.assert_array_equal(out, expected)
            return
        # The banded matrix products sum in another order: each output lies
        # within 8 eps of the magnitudes it sums, against an f64 tap sum.
        w, b = layer.weight.values.astype(np.float64), layer.bias.values
        exact = tap_sum(w, b.astype(np.float64), x.astype(np.float64), "replicate")
        scale = tap_sum(np.abs(w), np.abs(b).astype(np.float64),
                        np.abs(x).astype(np.float64), "replicate")
        assert out.dtype == dtype
        assert np.all(np.abs(out - exact) <= 8 * np.finfo(dtype).eps * scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "extents", [(1, 1), (1, 5), (5, 1), (6, 4), (24, 16), (64, 64)],
        ids=lambda e: "x".join(map(str, e)),
    )
    def test_banded_sample_is_bitwise_the_same_in_any_batch(self, extents, dtype):
        assert banded(extents)
        layer = DepthwiseConv(3, 2, rng_for(25), dtype=dtype)
        layer.bias.assign(rng_for(26).standard_normal(3))
        x = rng_for(27).standard_normal((5, 3) + extents).astype(dtype)
        whole = layer.forward(Tensor(x)).values
        for rows in (slice(0, 1), slice(4, 5), slice(1, 4)):
            part = layer.forward(Tensor(x[rows])).values
            assert part.tobytes() == whole[rows].tobytes(), rows

    @pytest.mark.parametrize("extents", [(5, 5), (65, 3), (5,)])
    def test_matrices_run_exactly_within_the_bound(self, extents, monkeypatch):
        calls = []
        banded_rows = layers._banded_rows
        monkeypatch.setattr(
            layers, "_banded_rows", lambda *a: calls.append(a) or banded_rows(*a)
        )
        layer = DepthwiseConv(2, len(extents), rng_for(28))
        layer.forward(Tensor(rng_for(29).standard_normal((1, 2) + extents)))
        assert len(calls) == banded(extents)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_1d_sample_is_bitwise_the_same_in_any_batch(self, n, dtype):
        layer = DepthwiseConv(3, 1, rng_for(40), dtype=dtype)
        layer.bias.assign(rng_for(41).standard_normal(3))
        x = rng_for(42).standard_normal((300, 3, n)).astype(dtype)
        with no_grad():
            whole = layer.forward(Tensor(x)).values

            def same(rows):
                part = layer.forward(Tensor(x[rows])).values
                return part.tobytes() == whole[rows].tobytes()

            # Prefixes and suffixes of every length put each sample at
            # every offset within a tile, and in a padded last tile.
            for batch in range(1, 301):
                assert same(slice(0, batch)) and same(slice(300 - batch, 300)), batch
            for b in (0, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 299):
                assert same(slice(b, b + 1)), b

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_gradcheck_1d(self, n):
        layer = DepthwiseConv(2, 1, rng_for(43))
        layer.bias.assign(rng_for(44).standard_normal(2))
        # A full tile and a padded one.
        x = Parameter(rng_for(45).standard_normal((ROW_TILE + 1, 2, n)))
        params = [x, layer.weight, layer.bias]
        assert gradient_check(lambda: layer.forward(x), params) <= 1e-6

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("batch", [1, 3, ROW_TILE + 3])
    def test_tiled_vjp_equals_the_tap_vjp(self, n, batch):
        rng = rng_for(46)
        x = rng.standard_normal((batch, 4, n))
        w = rng.standard_normal((4, 3))
        g = rng.standard_normal(x.shape)
        out, vjp = layers._banded_tiles(x, w)
        tap_out, tap_vjp = layers._tap_sum(x, w)
        np.testing.assert_allclose(out, tap_out, rtol=0, atol=1e-13)
        for got, want in zip(vjp(g), tap_vjp(g)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("extents", [(64,), (65,), (5,), (5, 5)])
    def test_1d_tiles_run_exactly_within_the_bound(self, extents, monkeypatch):
        calls = []
        tiles = layers._banded_tiles
        monkeypatch.setattr(
            layers, "_banded_tiles", lambda *a: calls.append(a) or tiles(*a)
        )
        layer = DepthwiseConv(2, len(extents), rng_for(47))
        layer.forward(Tensor(rng_for(48).standard_normal((1, 2) + extents)))
        assert len(calls) == (len(extents) == 1 and max(extents) <= MATRIX_AXIS_MAX)

    @pytest.mark.parametrize(
        "extents", [(6, 4), (3, 5), (1, 4), (4, 1), (65, 3)],
        ids=lambda e: "x".join(map(str, e)),
    )
    def test_gradcheck_2d(self, extents):
        layer = DepthwiseConv(2, 2, rng_for(30))
        layer.bias.assign(rng_for(31).standard_normal(2))
        x = Parameter(rng_for(32).standard_normal((2, 2) + extents))
        params = [x, layer.weight, layer.bias]
        assert gradient_check(lambda: layer.forward(x), params) <= 1e-6

    @pytest.mark.parametrize("extents", [(1, 1), (7, 5), (16, 24)])
    def test_banded_vjp_equals_the_tap_vjp(self, extents):
        rng = rng_for(33)
        x = rng.standard_normal((3, 4) + extents)
        w = rng.standard_normal((4, 3, 3))
        g = rng.standard_normal(x.shape)
        out, vjp = layers._banded_rows(x, w)
        tap_out, tap_vjp = layers._tap_sum(x, w)
        np.testing.assert_allclose(out, tap_out, rtol=0, atol=1e-13)
        for got, want in zip(vjp(g), tap_vjp(g)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shift_matrices_are_cached_and_read_only(self):
        s = layers._shift_matrices(4, np.dtype(np.float64))
        assert s is layers._shift_matrices(4, np.dtype(np.float64))
        assert not s.flags.writeable
        row = np.arange(1.0, 5.0)
        np.testing.assert_array_equal(np.stack([row @ m for m in s]),
                                      [[1, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 4]])

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_shift_matrices_are_windows_of_the_edge_padded_identity(self, n):
        for dtype in (np.float32, np.float64):
            s = layers._shift_matrices(n, np.dtype(dtype))
            padded = np.pad(np.eye(n, dtype=dtype), [(0, 0), (1, 1)], mode="edge")
            assert s.dtype == dtype and s.shape == (3, n, n)
            for t in range(3):
                assert s[t].tobytes() == padded[:, t : t + n].tobytes(), (dtype, t)

    def test_replicate_padding_preserves_constancy(self):
        layer = DepthwiseConv(2, 2, rng_for(12))
        layer.bias.assign(np.array([0.3, -0.2]))
        x = Tensor(np.full((1, 2, 4, 4), 1.7))
        out = layer.forward(x).values
        assert np.max(out.std(axis=(2, 3))) <= 1e-12

    def test_averaging_kernel_known_values(self):
        layer = DepthwiseConv(1, 1, rng_for(13))
        layer.weight.assign(np.array([[1.0, 1.0, 1.0]]) / 3.0)
        layer.bias.assign(np.zeros(1))
        x = Tensor(np.array([[[0.0, 3.0, 6.0, 9.0]]]))
        out = layer.forward(x).values[0, 0]
        # Edge replication: first window sees (0, 0, 3), last sees (6, 9, 9).
        np.testing.assert_allclose(out, [1.0, 3.0, 6.0, 8.0], atol=1e-12)


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        layer = BatchNorm(3)
        x = Tensor(rng_for(14).standard_normal((4, 3, 8)))
        out = layer.forward(x, mode="train").values
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(0, 2)), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch(self):
        layer = BatchNorm(1)
        x = Tensor(np.full((2, 1, 4), 10.0))
        layer.forward(x, mode="train")
        assert layer.running_mean[0] == pytest.approx(1.0)  # 0.9*0 + 0.1*10

    def test_eval_uses_running_stats(self):
        layer = BatchNorm(1)
        layer.running_mean[:] = 2.0
        layer.running_var[:] = 4.0
        x = Tensor(np.full((1, 1, 4), 6.0))
        out = layer.forward(x, mode="eval").values
        np.testing.assert_allclose(out, (6.0 - 2.0) / np.sqrt(4.0 + 1e-5), atol=1e-9)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape", [(8, 3, 16), (4, 3, 6, 5)])
    def test_train_matches_textbook_statistics(self, shape, dtype, tol):
        rng = rng_for(16)
        x = (3.0 * rng.standard_normal(shape) + 1.5).astype(dtype)
        layer = BatchNorm(3, dtype=dtype)
        layer.gamma.assign(rng.uniform(0.5, 1.5, 3))
        layer.beta.assign(rng.standard_normal(3))
        axes = (0,) + tuple(range(2, len(shape)))
        per_channel = (1, 3) + (1,) * (len(shape) - 2)
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        xhat = (x - mean.reshape(per_channel)) / np.sqrt(
            var.reshape(per_channel) + 1e-5
        )
        expected = (
            layer.gamma.values.reshape(per_channel) * xhat
            + layer.beta.values.reshape(per_channel)
        )
        out = layer.forward(Tensor(x), mode="train").values
        assert out.dtype == dtype
        np.testing.assert_allclose(out, expected, rtol=tol, atol=tol)
        np.testing.assert_allclose(layer.running_mean, 0.1 * mean, rtol=tol, atol=tol)
        np.testing.assert_allclose(
            layer.running_var, 0.9 + 0.1 * var, rtol=tol, atol=tol
        )
        plain = BatchNorm(3, dtype=dtype)
        got = plain.forward(Tensor(x), mode="train").values
        np.testing.assert_allclose(got, xhat, rtol=tol, atol=tol)

    def test_train_gradcheck_on_a_2d_map(self):
        layer = BatchNorm(2)
        layer.gamma.assign(np.array([1.3, 0.7]))
        layer.beta.assign(np.array([-0.2, 0.4]))
        x = Parameter(rng_for(17).standard_normal((3, 2, 4, 3)))
        params = [x, layer.gamma, layer.beta]
        assert gradient_check(lambda: layer.forward(x, mode="train"), params) <= 1e-6

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradcheck(self, mode):
        layer = BatchNorm(2)
        layer.running_mean[:] = [0.3, -0.1]
        layer.running_var[:] = [1.2, 0.7]
        layer.gamma.assign(np.array([1.1, 0.9]))
        layer.beta.assign(np.array([0.2, -0.3]))
        x = Parameter(rng_for(15).standard_normal((3, 2, 4)))
        params = [x, layer.gamma, layer.beta]
        assert gradient_check(lambda: layer.forward(x, mode=mode), params) <= 1e-6


class TestHeadAndLoss:
    def test_constant_map_pools_to_affine_logits(self):
        head = GlobalPoolHead(3, 2, rng_for(16), dropout_p=0.2)
        v = np.array([0.5, -1.0, 2.0])
        x = Tensor(np.broadcast_to(v[None, :, None], (1, 3, 7)).copy())
        out = head.forward(x, mode="eval").values
        expected = head.weight.values @ v + head.bias.values
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_eval_ignores_dropout_and_p0_is_deterministic(self):
        head = GlobalPoolHead(3, 2, rng_for(17), dropout_p=0.5)
        x = Tensor(rng_for(18).standard_normal((2, 3, 4)))
        a = head.forward(x, mode="eval").values
        b = head.forward(x, mode="eval").values
        np.testing.assert_array_equal(a, b)
        head0 = GlobalPoolHead(3, 2, rng_for(17), dropout_p=0.0)
        c = head0.forward(x, mode="train", rng=rng_for(19)).values
        d = head0.forward(x, mode="train", rng=rng_for(20)).values
        np.testing.assert_array_equal(c, d)

    def test_dropout_gradcheck_with_fixed_stream(self):
        drop = Dropout(0.4)
        x = Parameter(rng_for(21).standard_normal((2, 3, 4)))
        assert (
            gradient_check(
                lambda: drop.forward(x, mode="train", rng=rng_for(99)), [x]
            )
            <= 1e-6
        )

    def test_cross_entropy_uniform_logits(self):
        for classes in (2, 5, 10):
            logits = Tensor(np.zeros((4, classes)))
            labels = np.array([0, 1, 0, 1]) % classes
            loss = softmax_cross_entropy(logits, labels)
            assert float(loss.values) == pytest.approx(np.log(classes), abs=1e-12)

    def test_cross_entropy_gradcheck(self):
        logits = Parameter(rng_for(22).standard_normal((3, 4)))
        labels = np.array([0, 3, 1])
        assert (
            gradient_check(lambda: softmax_cross_entropy(logits, labels), [logits])
            <= 1e-6
        )


class TestInnerBlock:
    def test_structure(self):
        block = InnerBlock(InnerBlockSpec(4, expansion=2, depth=2), 1, rng_for(23))
        kinds = [type(l).__name__ for l in block.layers]
        assert kinds == [
            "PointwiseConv",
            "BatchNorm", "SiLU", "DepthwiseConv", "BatchNorm", "SiLU", "PointwiseConv",
            "BatchNorm", "SiLU", "DepthwiseConv", "BatchNorm", "SiLU", "PointwiseConv",
        ]

    @pytest.mark.parametrize("dims", [1, 2])
    def test_keeps_grid_and_features(self, dims):
        block = InnerBlock(InnerBlockSpec(3), dims, rng_for(24))
        shape = (2, 3) + (4,) * dims
        out = block.forward(Tensor(rng_for(25).standard_normal(shape)))
        assert out.shape == shape

    def test_full_block_gradcheck_small_2d(self):
        block = InnerBlock(InnerBlockSpec(2, expansion=2, depth=1), 2, rng_for(26))
        # Nonzero biases and shifted running stats make the check non-trivial.
        for p in block.parameters():
            if p.values.ndim == 1:
                p.assign(rng_for(27).standard_normal(p.shape) * 0.3 + p.values)
        x = Parameter(rng_for(28).standard_normal((2, 2, 2, 2)))
        params = [x] + block.parameters()
        assert gradient_check(lambda: block.forward(x, mode="eval"), params) <= 1e-4

    def test_train_mode_gradcheck(self):
        block = InnerBlock(InnerBlockSpec(2, expansion=1, depth=1), 1, rng_for(29))
        x = Parameter(rng_for(30).standard_normal((3, 2, 4)))
        params = [x] + block.parameters()
        assert (
            gradient_check(lambda: block.forward(x, mode="train"), params) <= 1e-4
        )


class TestZeroConstancy:
    def _randomize(self, block, seed):
        rng = rng_for(seed)
        for layer in block.layers:
            for p in layer.parameters():
                p.assign(rng.standard_normal(p.shape) * 0.5)
            if isinstance(layer, BatchNorm):
                layer.running_mean = rng.standard_normal(layer.running_mean.shape) * 0.3
                layer.running_var = rng.uniform(0.5, 1.5, layer.running_var.shape)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_provided_layer_set_passes(self, dims, seed):
        block = InnerBlock(InnerBlockSpec(3, expansion=2, depth=2), dims, rng_for(seed))
        self._randomize(block, seed + 100)
        grid = GridSpec((6,) * dims)
        ok, dev = zero_constancy_check(block, grid, 3)
        assert ok, f"deviation {dev}"

    def test_zero_padded_conv_fails_on_nonzero_bias(self):
        # A pointwise conv with nonzero bias feeds a constant into a
        # zero-padded depthwise conv, whose edges then see injected zeros.
        # arrn pads only by replication, so the counterexample is built here.
        class ZeroPaddedConv(DepthwiseConv):
            def forward(self, x, mode="eval", rng=None):
                w, b = self.weight.values, self.bias.values
                return Tensor(tap_sum(w, b, x.values, "zero"))

        block = InnerBlock(InnerBlockSpec(2, expansion=1, depth=2), 1, rng_for(34))
        block.layers = [
            ZeroPaddedConv(2, 1, rng_for(34)) if isinstance(layer, DepthwiseConv)
            else layer
            for layer in block.layers
        ]
        self._randomize(block, 35)
        block.layers[0].bias.assign(np.array([0.7, -0.4]))
        ok, dev = zero_constancy_check(block, GridSpec((8,)), 2)
        assert not ok and dev > 1e-6

    def test_empty_block_passes(self):
        class Identity:
            def forward(self, x, mode="eval", rng=None):
                return x

            def parameters(self):
                return []

        ok, dev = zero_constancy_check(Identity(), GridSpec((8,)), 3)
        assert ok and dev == 0.0

    def test_feature_map_validation(self):
        with pytest.raises(Exception):
            FeatureMap(GridSpec((4,)), np.zeros((2, 3, 5)))
        fm = FeatureMap(GridSpec((4,)), np.zeros((2, 3, 4)))
        assert fm.batch == 2 and fm.features == 3
