"""Reverse-mode engine and differentiable resampling operators.

Gradients are verified against central finite differences; linear
operator adjoints are additionally verified through the inner-product
identity <A x, y> = <x, A^T y> on random vectors.
"""

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
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
    add,
    lowpass_op,
    matmul,
    mean_reject_op,
    mul,
    no_grad,
    project_channels,
    scale,
    scale_rows,
    sub,
)
from arrn.kernels import SmoothingKernelSpec
from arrn.resample import (
    decimate_array,
    downsample_array,
    lowpass_array,
    resample_perfect_array,
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

    def test_gradient_check_utility(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.standard_normal(5))
        err = gradient_check(lambda: p * p, [p])
        assert err <= 1e-8


def _graph(root):
    """Every node reachable from the tensor ``root``, in the order backward
    visits them."""
    topo, visited, stack = [], set(), [(root.grad_node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents)
    return topo


def _reference_grads(root, seed):
    """Gradients by out-of-place accumulation into copies, in backward's order."""
    grads = {id(root.grad_node): seed.copy()}
    for node in reversed(_graph(root)):
        g = grads.get(id(node))
        if node.vjp is None or g is None:
            continue
        for parent, contribution in zip(node.parents, node.vjp(g)):
            if contribution is None:
                continue
            key = id(parent)
            grads[key] = (
                contribution.copy() if key not in grads else grads[key] + contribution
            )
    return grads


def _small_model_loss():
    from arrn.grids import ResolutionLadder
    from arrn.model import ArrnModel

    rng = np.random.default_rng(5)
    model = ArrnModel(
        ResolutionLadder.from_extents([16, 8]), 1, (3, 4), 3, PERFECT,
        rng, dtype=np.float32,
    )
    logits = model.forward_graph(
        rng.standard_normal((6, 1, 16)).astype(np.float32),
        mode=layers.TRAIN, rng=np.random.default_rng(6),
    )
    return layers.softmax_cross_entropy(logits, np.array([0, 1, 2, 0, 1, 2]))


def _backward_cases():
    """Graphs whose leaves receive several, partly aliased, contributions."""
    rng = np.random.default_rng(31)

    def leaf(*shape):
        return Parameter(rng.standard_normal(shape))

    a, b, x, y = leaf(2, 3, 4), leaf(2, 3, 4), leaf(2, 3, 4), leaf(2, 3, 4)
    w = leaf(5, 3)
    return {
        # add returns (g, g): the seed reaches ``a`` twice.
        "add_self": add(a, a),
        # The seed reaches ``b`` as is, then ``b`` gets two more terms.
        "seed_reaches_leaf": add(b, mul(b, b)),
        # The sum hands one array to ``x`` and ``y`` before their other terms.
        "sum_with_further_uses": scale(add(add(x, y), mul(x, y)), 1.5),
        "leaf_in_three_ops": add(
            add(mul(x, y), scale(x, 2.5)),
            project_channels(layers.silu_op(x), Parameter(np.eye(3))),
        ),
        "channel_mix_reused": add(
            project_channels(x, w), project_channels(layers.silu_op(x), w)
        ),
        "train_step": _small_model_loss(),
    }


class TestBackwardAccumulation:
    @pytest.mark.parametrize("name", list(_backward_cases()))
    def test_matches_out_of_place_reference(self, name):
        root = _backward_cases()[name]
        seed = np.random.default_rng(8).standard_normal(root.shape)
        seed = seed.astype(root.dtype)
        kept = seed.copy()
        expected = _reference_grads(root, seed)
        nodes = _graph(root)
        root.backward(seed)
        np.testing.assert_array_equal(seed, kept)
        for node in nodes:
            if node is root.grad_node or node.vjp is None:
                np.testing.assert_array_equal(node.grad, expected[id(node)])
            else:
                assert node.grad is None

    def test_leaf_grads_accumulate_across_calls(self):
        a = Parameter(np.array([1.0, 2.0]))
        first = mul(a, a)
        first.backward(np.ones(2))
        held = a.grad
        kept = held.copy()
        add(a, scale(a, 2.0)).backward(np.ones(2))
        np.testing.assert_array_equal(a.grad, 2 * a.values + 3.0)
        np.testing.assert_array_equal(held, kept)


class TestRetention:
    """The graph keeps only the arrays its VJPs read: once ``forward_graph``
    returns, no array survives that only forward code used."""

    @pytest.mark.parametrize("dropped", [0, 1])
    @pytest.mark.parametrize("extents", [[32, 16, 8], [(12, 8), (6, 4), (3, 2)]],
                             ids=["1d", "2d"])
    def test_unread_outputs_die_with_the_forward(self, monkeypatch, extents, dropped):
        from arrn import model as model_module
        from arrn.grids import ResolutionLadder
        from arrn.model import ArrnModel, LaplacianResidual

        refs = {name: [] for name in
                ("lowpass_op", "decimate_op", "mean_reject_op", "downsample_op")}
        refs["conv_into_norm"] = []
        in_residual = [False]

        def record(name, op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                if in_residual[0]:  # forward_graph's own resampling feeds a mix
                    refs[name].append(weakref.ref(out.values))
                return out
            return wrapper

        for name in ("lowpass_op", "decimate_op", "mean_reject_op", "downsample_op"):
            monkeypatch.setattr(model_module, name,
                                record(name, getattr(model_module, name)))
        residual_forward = LaplacianResidual.forward

        def residual(self, *args, **kwargs):
            in_residual[0] = True
            try:
                return residual_forward(self, *args, **kwargs)
            finally:
                in_residual[0] = False

        monkeypatch.setattr(LaplacianResidual, "forward", residual)
        norm = layers.batchnorm_train_op

        def norm_of_a_conv(x, gamma, beta):
            refs["conv_into_norm"].append(weakref.ref(x.values))
            return norm(x, gamma, beta)

        monkeypatch.setattr(layers, "batchnorm_train_op", norm_of_a_conv)

        rng = np.random.default_rng(7)
        model = ArrnModel(ResolutionLadder.from_extents(extents), 1, (3, 4, 4), 3,
                          PERFECT, rng, dtype=np.float32)
        values = rng.standard_normal((5, 1) + model.ladder[0].extents)
        logits = model.forward_graph(values.astype(np.float32), dropped,
                                     mode=layers.TRAIN, rng=np.random.default_rng(8))
        loss = layers.softmax_cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        del logits
        for name, found in refs.items():
            assert found, name
            assert all(ref() is None for ref in found), name

        seed = np.ones_like(loss.values)
        expected = _reference_grads(loss, seed)
        loss.backward(seed)
        for p in model.parameters():
            if p.grad is not None:
                assert p.grad.tobytes() == expected[id(p.grad_node)].tobytes(), p.name


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
            lambda v: lowpass_array(v, (8,), kernel),
            lambda v: lowpass_array(v, (8,), kernel),
            (2, 16),
            (2, 16),
            seed=1,
        )

    def test_decimate_adjoint_is_zero_insertion(self):
        self._check(
            lambda v: decimate_array(v, (8,)),
            lambda v: zero_insert_array(v, (16,)),
            (3, 16),
            (3, 8),
            seed=2,
        )

    @pytest.mark.parametrize("kernel", [PERFECT, GAUSS])
    def test_downsample_adjoint(self, kernel):
        from arrn.resample import downsample_adjoint_array

        self._check(
            lambda v: downsample_array(v, (8,), kernel),
            lambda v: downsample_adjoint_array(v, (16,), kernel),
            (2, 16),
            (2, 8),
            seed=3,
        )

    def test_downsample_adjoint_2d(self):
        from arrn.resample import downsample_adjoint_array

        self._check(
            lambda v: downsample_array(v, (4, 8), PERFECT),
            lambda v: downsample_adjoint_array(v, (8, 16), PERFECT),
            (2, 8, 16),
            (2, 4, 8),
            seed=4,
        )

    def test_perfect_adjoint_matches_scaled_upsample_below_nyquist(self):
        # Away from the coarse Nyquist pair the adjoint coincides with the
        # value-preserving upsample scaled by M/N.
        rng = np.random.default_rng(5)
        y = lowpass_array(rng.standard_normal((1, 8)), (7,), PERFECT)
        expected = 0.5 * resample_perfect_array(y, (16,))
        from arrn.resample import downsample_adjoint_array

        np.testing.assert_allclose(
            downsample_adjoint_array(y, (16,), PERFECT), expected, atol=1e-12
        )


class TestResampleOpGradients:
    @pytest.mark.parametrize("kernel", [PERFECT, GAUSS])
    def test_downsample_op(self, kernel):
        rng = np.random.default_rng(7)
        p = Parameter(rng.standard_normal((1, 2, 8)))
        err = gradient_check(lambda: downsample_op(p, (4,), kernel), [p])
        assert err <= 1e-6

    def test_lowpass_op(self):
        rng = np.random.default_rng(8)
        p = Parameter(rng.standard_normal((1, 2, 8)))
        err = gradient_check(lambda: lowpass_op(p, (4,), PERFECT), [p])
        assert err <= 1e-6

    def test_decimate_op(self):
        rng = np.random.default_rng(9)
        p = Parameter(rng.standard_normal((1, 1, 8)))
        err = gradient_check(lambda: decimate_op(p, (4,)), [p])
        assert err <= 1e-6

    def test_mean_reject_op(self):
        rng = np.random.default_rng(10)
        p = Parameter(rng.standard_normal((2, 2, 6)))
        err = gradient_check(lambda: mean_reject_op(p), [p])
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


class TestParameterFolds:
    """The ops that fold eval batch norm and the terminal projection count
    no MACs, and their vector-Jacobian products pass the f64 check."""

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (4, 3, 3)])
    def test_scale_rows_gradient_check(self, shape):
        rng = np.random.default_rng(13)
        a = Parameter(rng.standard_normal(shape))
        s = Parameter(rng.standard_normal(4))
        with macs.recording() as counter:
            out = scale_rows(a, s)
        np.testing.assert_array_equal(
            out.values, a.values * s.values.reshape((4,) + (1,) * (len(shape) - 1)))
        assert counter.total == 0
        assert gradient_check(lambda: scale_rows(a, s), [a, s]) <= 1e-6

    def test_matmul_gradient_check(self):
        rng = np.random.default_rng(14)
        a = Parameter(rng.standard_normal((3, 5)))
        b = Parameter(rng.standard_normal((5, 4)))
        with macs.recording() as counter:
            out = matmul(a, b)
        np.testing.assert_array_equal(out.values, a.values @ b.values)
        assert counter.total == 0
        assert gradient_check(lambda: matmul(a, b), [a, b]) <= 1e-6


def _ops():
    """One call of every differentiable op, keyed by name."""
    rng = np.random.default_rng(21)
    x = Parameter(rng.standard_normal((2, 3, 8)))
    y = Parameter(rng.standard_normal((2, 3, 8)))
    w = Parameter(rng.standard_normal((4, 3)))
    b = Parameter(rng.standard_normal(4))
    dw = Parameter(rng.standard_normal((3, 3)))
    gamma, beta = Parameter(np.ones(3) * 1.1), Parameter(np.full(3, 0.2))
    stats = (np.full(3, 0.1), np.full(3, 0.9))
    logits = Parameter(rng.standard_normal((2, 4)))
    return {
        "add": lambda: add(x, y),
        "sub": lambda: sub(x, y),
        "mul": lambda: mul(x, y),
        "scale": lambda: scale(x, 2.5),
        "scale_rows": lambda: scale_rows(w, b),
        "matmul": lambda: matmul(w, dw),
        "mean_reject": lambda: mean_reject_op(x),
        "lowpass": lambda: lowpass_op(x, (4,), GAUSS),
        "downsample": lambda: downsample_op(x, (4,), PERFECT),
        "decimate": lambda: decimate_op(x, (4,)),
        "project_channels": lambda: project_channels(x, w),
        "project_channels_bias": lambda: project_channels(x, w, b),
        "silu": lambda: layers.silu_op(x),
        "depthwise_conv": lambda: layers.depthwise_conv_op(x, dw, None),
        "batchnorm_eval": lambda: layers.batchnorm_op(x, gamma, beta, *stats),
        "batchnorm_train": lambda: layers.batchnorm_train_op(x, gamma, beta)[0],
        "global_mean_pool": lambda: layers.global_mean_pool_op(x),
        "dropout": lambda: layers.dropout_op(x, 0.5, np.random.default_rng(0)),
        "cross_entropy": lambda: layers.softmax_cross_entropy(logits, np.array([1, 3])),
    }


class TestNoGrad:
    @pytest.mark.parametrize("name", list(_ops()))
    def test_every_op_builds_no_node(self, name):
        op = _ops()[name]
        with_graph = op()
        with no_grad():
            bare = op()
        assert with_graph._vjp is not None and with_graph.grad_node.parents
        assert bare._node is None and bare._vjp is None
        np.testing.assert_array_equal(bare.values, with_graph.values)

    def test_restored_after_exception_and_when_nested(self):
        a = Parameter(np.ones(2))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert (a + a)._vjp is not None
        with no_grad():
            with no_grad():
                assert (a + a)._vjp is None
            assert (a + a)._vjp is None
        assert (a + a)._vjp is not None

    def test_a_worker_under_no_grad_leaves_the_caller_graph_on(self):
        a = Parameter(np.ones(2))
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(10)
                return (a + a)._vjp is None

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(worker)
            assert entered.wait(10)
            assert (a + a)._vjp is not None
            release.set()
            assert future.result()
