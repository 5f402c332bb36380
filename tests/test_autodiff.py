"""Reverse-mode engine and differentiable resampling operators.

Gradients are verified against central finite differences; linear
operator adjoints are additionally verified through the inner-product
identity <A x, y> = <x, A^T y> on random vectors.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrn import layers, macs
from arrn.autodiff import (
    Parameter,
    Tensor,
    decimate_op,
    downsample_op,
    gradient_check,
    lowpass_op,
    mean_reject_op,
    mul_const,
    project_channels,
    scale,
)
from arrn.kernels import SmoothingKernelSpec
from arrn.resample import (
    decimate_array,
    downsample_array,
    lowpass_array,
    upsample_array,
    zero_insert_array,
)

PERFECT = SmoothingKernelSpec.perfect()
GAUSS = SmoothingKernelSpec.truncated_gaussian()


class TestEngine:
    def test_add_mul_chain(self):
        a = Parameter(np.array([2.0, -1.0]))
        b = Parameter(np.array([3.0, 4.0]))
        out = (a + b) * b
        out.backward(np.ones(2))
        np.testing.assert_allclose(a.grad, b.values)
        np.testing.assert_allclose(b.grad, a.values + 2 * b.values)

    def test_shared_node_accumulates(self):
        a = Parameter(np.array([1.5]))
        out = a * a + scale(a, 3.0)
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, 2 * 1.5 + 3.0)

    def test_seed_shape_mismatch(self):
        a = Parameter(np.zeros(3))
        with pytest.raises(ValueError):
            (a + a).backward(np.ones(4))

    def test_mask_multiply(self):
        a = Parameter(np.arange(4.0))
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        out = mul_const(a, mask)
        out.backward(np.ones(4))
        np.testing.assert_array_equal(a.grad, mask)

    def test_gradient_check_utility(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.standard_normal(5))
        err = gradient_check(lambda: p * p, [p])
        assert err <= 1e-8


class TestAdjoints:
    """<A x, y> = <x, A^T y> for every linear resampling operator."""

    def _check(self, forward, adjoint, in_shape, out_shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(in_shape)
        y = rng.standard_normal(out_shape)
        lhs = float(np.sum(forward(x) * y))
        rhs = float(np.sum(x * adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("kernel", [PERFECT, GAUSS])
    def test_lowpass_self_adjoint(self, kernel):
        self._check(
            lambda v: lowpass_array(v, (16,), (8,), kernel, 1),
            lambda v: lowpass_array(v, (16,), (8,), kernel, 1),
            (2, 16),
            (2, 16),
            seed=1,
        )

    def test_decimate_adjoint_is_zero_insertion(self):
        self._check(
            lambda v: decimate_array(v, (2,), 1),
            lambda v: zero_insert_array(v, (16,), 1),
            (3, 16),
            (3, 8),
            seed=2,
        )

    @pytest.mark.parametrize("kernel", [PERFECT, GAUSS])
    def test_downsample_adjoint(self, kernel):
        from arrn.resample import downsample_adjoint_array

        self._check(
            lambda v: downsample_array(v, (8,), kernel, 1),
            lambda v: downsample_adjoint_array(v, (16,), kernel, 1),
            (2, 16),
            (2, 8),
            seed=3,
        )

    def test_downsample_adjoint_2d(self):
        from arrn.resample import downsample_adjoint_array

        self._check(
            lambda v: downsample_array(v, (4, 8), PERFECT, 2),
            lambda v: downsample_adjoint_array(v, (8, 16), PERFECT, 2),
            (2, 8, 16),
            (2, 4, 8),
            seed=4,
        )

    def test_perfect_adjoint_matches_scaled_upsample_below_nyquist(self):
        # Away from the coarse Nyquist pair the adjoint coincides with the
        # value-preserving upsample scaled by M/N.
        rng = np.random.default_rng(5)
        y = lowpass_array(rng.standard_normal((1, 8)), (8,), (7,), PERFECT, 1)
        expected = 0.5 * upsample_array(y, (16,), 1)
        from arrn.resample import downsample_adjoint_array

        np.testing.assert_allclose(
            downsample_adjoint_array(y, (16,), PERFECT, 1), expected, atol=1e-12
        )


class TestResampleOpGradients:
    @pytest.mark.parametrize("kernel", [PERFECT, GAUSS])
    def test_downsample_op(self, kernel):
        rng = np.random.default_rng(7)
        p = Parameter(rng.standard_normal((1, 2, 8)))
        err = gradient_check(lambda: downsample_op(p, (4,), kernel, 1), [p])
        assert err <= 1e-6

    def test_lowpass_op(self):
        rng = np.random.default_rng(8)
        p = Parameter(rng.standard_normal((1, 2, 8)))
        err = gradient_check(lambda: lowpass_op(p, (4,), PERFECT, 1), [p])
        assert err <= 1e-6

    def test_decimate_op(self):
        rng = np.random.default_rng(9)
        p = Parameter(rng.standard_normal((1, 1, 8)))
        err = gradient_check(lambda: decimate_op(p, (4,), 1), [p])
        assert err <= 1e-6

    def test_mean_reject_op(self):
        rng = np.random.default_rng(10)
        p = Parameter(rng.standard_normal((2, 2, 6)))
        err = gradient_check(lambda: mean_reject_op(p, 1), [p])
        assert err <= 1e-6

    def test_project_channels(self):
        rng = np.random.default_rng(11)
        x = Parameter(rng.standard_normal((2, 3, 5)))
        w = Parameter(rng.standard_normal((4, 3)))
        out = project_channels(x, w)
        assert out.shape == (2, 4, 5)
        err = gradient_check(lambda: project_channels(x, w), [x, w])
        assert err <= 1e-6


# Tolerances for the merged channel-mix op against the einsum reference,
# fixed per dtype: the two sum in different orders.
CHANNEL_MIX_TOL = {np.float32: 1e-4, np.float64: 1e-10}


class TestProjectChannels:
    """The one channel-mix op: pointwise convs, level projections, the head."""

    def test_pointwise_conv_op_is_the_same_function(self):
        assert layers.pointwise_conv_op is project_channels

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 3),
        cin=st.integers(1, 5),
        cout=st.integers(1, 5),
        spatial=st.sampled_from([(), (7,), (4, 3)]),
        with_bias=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_einsum_reference(
        self, batch, cin, cout, spatial, with_bias, dtype, seed
    ):
        tol = CHANNEL_MIX_TOL[dtype]
        rng = np.random.default_rng(seed)
        x = Parameter(rng.standard_normal((batch, cin) + spatial).astype(dtype))
        w = Parameter(rng.standard_normal((cout, cin)).astype(dtype))
        b = Parameter(rng.standard_normal(cout).astype(dtype)) if with_bias else None
        with macs.recording() as counter:
            out = project_channels(x, w, b)
        assert counter.total == batch * macs.pointwise_macs(prod(spatial), cin, cout)

        expected = np.einsum("oc,bc...->bo...", w.values, x.values)
        if with_bias:
            expected = expected + b.values.reshape((1, -1) + (1,) * len(spatial))
        assert out.dtype == dtype
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.values, expected, rtol=tol, atol=tol)

        g = rng.standard_normal(out.shape).astype(dtype)
        out.backward(g)
        sum_axes = (0,) + tuple(range(2, g.ndim))
        np.testing.assert_allclose(
            x.grad, np.einsum("oc,bo...->bc...", w.values, g), rtol=tol, atol=tol
        )
        gw = np.einsum(
            "bos,bcs->oc", g.reshape(batch, cout, -1), x.values.reshape(batch, cin, -1)
        )
        np.testing.assert_allclose(w.grad, gw, rtol=tol, atol=tol)
        if with_bias:
            np.testing.assert_allclose(b.grad, g.sum(axis=sum_axes), rtol=tol, atol=tol)

    @pytest.mark.parametrize(
        "spatial, with_bias", [((), False), ((), True), ((5,), True), ((3, 2), True)]
    )
    def test_gradient_check(self, spatial, with_bias):
        rng = np.random.default_rng(12)
        x = Parameter(rng.standard_normal((3, 4) + spatial))
        w = Parameter(rng.standard_normal((2, 4)))
        bias = Parameter(rng.standard_normal(2)) if with_bias else None
        params = [x, w] + ([bias] if with_bias else [])
        err = gradient_check(lambda: project_channels(x, w, bias), params)
        assert err <= 1e-6
