"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` holds the values of a computation and, for an op's
result, a :class:`GradNode`: its gradient, its parents' nodes and a
vector-Jacobian closure. Calling ``backward`` on any tensor seeds its
gradient and propagates adjoints over the nodes in reverse topological
order, accumulating into every reachable leaf.

The graph is made of nodes, not tensors: a node references no tensor, so
an op's output array lives only while forward code holds its tensor or a
VJP closure holds the array. Each closure captures the arrays and shapes
its VJP reads and nothing else, never an input tensor. During a training
step the graph therefore keeps the inputs that the convolutions, SiLU and
the cross-entropy read, the batch norms' normalized maps and SiLU's
denominators, but not the outputs of the low-pass, decimation, constant
rejection and downsample, nor a convolution's output that only feeds a
batch norm. A leaf gets its node the first time an op reads it or its
gradient is set.

The resampling primitives from :mod:`arrn.resample` are wrapped here as
differentiable ops; their backward passes use closed-form adjoints:

* the perfect low-pass and the mean-rejection filter are self-adjoint,
* symmetric circular convolution is self-adjoint,
* stride decimation's adjoint is zero insertion,
* the fused spectral downsample's adjoint embeds the coarse spectrum back
  into the fine layout (see :func:`arrn.resample.downsample_adjoint_array`).

Inside a :func:`no_grad` context every op returns a bare tensor with no
node, so evaluation (:func:`arrn.model.forward_full`,
:func:`arrn.model.forward_adapted` and everything built on them) builds
no graph and keeps no array alive for a backward pass that never runs.
Every op has one implementation; it hands its result, parents and closure
to :func:`node`, which drops the last two under ``no_grad``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import prod

import numpy as np

from . import macs
from .kernels import SmoothingKernelSpec
from .resample import (
    decimate_array,
    downsample_adjoint_array,
    downsample_array,
    lowpass_array,
    zero_insert_array,
)
from .signal import mean_reject_array


class GradNode:
    """The gradient side of one tensor: its ``grad``, its parents' nodes and
    its vector-Jacobian closure (``None`` on a leaf)."""

    __slots__ = ("grad", "parents", "vjp")

    def __init__(self, parents=(), vjp=None):
        self.grad = None
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """Values, and the node that carries them in the reverse-mode graph."""

    __slots__ = ("values", "_node")

    def __init__(self, values, parents=(), vjp=None):
        self.values = np.asarray(values)
        self._node = (
            None if vjp is None else GradNode(tuple(p.grad_node for p in parents), vjp)
        )

    @property
    def grad_node(self) -> GradNode:
        """This tensor's node; a leaf gets one when an op or a gradient first
        needs it."""
        if self._node is None:
            self._node = GradNode()
        return self._node

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self.grad_node.grad = value

    @property
    def _vjp(self):
        """The closure ``backward`` calls for this tensor's node; the benchmark
        tracer (``benchmarks/tracing.py``) replaces it to time the closure."""
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self.grad_node.vjp = vjp

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def zero_grad(self):
        if self._node is not None:
            self._node.grad = None

    def backward(self, seed: np.ndarray | None = None):
        """Propagate adjoints from this node back to every reachable leaf.

        Leaves (and this node) keep their gradients; an interior node's
        gradient is dropped once its vector-Jacobian product has run. No
        MACs are added to an active :func:`arrn.macs.recording`.
        """
        if seed is None:
            seed = np.ones_like(self.values)
        seed = np.asarray(seed, dtype=self.values.dtype)
        if seed.shape != self.values.shape:
            raise ValueError(f"seed shape {seed.shape} != value shape {self.shape}")

        root = self.grad_node
        topo: list[GradNode] = []
        visited: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                stack.append((parent, False))

        root.grad = seed if root.grad is None else root.grad + seed
        # Nodes whose grad is an array this call allocated. Only those are
        # summed into in place: a first contribution is stored as is and may
        # alias another node's grad (``add`` returns ``(g, g)``) or the seed.
        owned: set[int] = set()
        # The VJPs reuse counting forward functions; a throwaway recording
        # keeps them out of the caller's, so MAC counts are forward-only.
        with macs.recording():
            for node in reversed(topo):
                if node.vjp is None or node.grad is None:
                    continue
                for parent, contribution in zip(node.parents, node.vjp(node.grad)):
                    if contribution is None:
                        continue
                    if parent.grad is None:
                        parent.grad = contribution
                    elif id(parent) in owned:
                        parent.grad += contribution
                    else:
                        parent.grad = parent.grad + contribution
                        owned.add(id(parent))
                if node is not root:
                    node.grad = None

    # operator sugar used by layers and tests
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Parameter(Tensor):
    """A trainable leaf tensor."""

    __slots__ = ("name", "decay")

    def __init__(self, values, name: str = "", decay: bool = True):
        super().__init__(np.asarray(values))
        self.name = name
        self.decay = decay

    def assign(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=self.values.dtype)


_graph_off: ContextVar[bool] = ContextVar("arrn_no_grad", default=False)


@contextmanager
def no_grad():
    """Build no graph for the duration of the context (this thread only)."""
    token = _graph_off.set(True)
    try:
        yield
    finally:
        _graph_off.reset(token)


def node(values, parents, vjp) -> Tensor:
    """An op's result: a graph node, or a bare tensor under :func:`no_grad`."""
    if _graph_off.get():
        return Tensor(values)
    return Tensor(values, parents, vjp)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    return node(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    return node(a.values * c, (a,), lambda g: (g * c,))


# Parameter folds: ops on parameter-sized arrays, which count no MACs.


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Scale row ``i`` of ``a`` (its leading axis) by ``s[i]``."""
    a, s = as_tensor(a), as_tensor(s)
    av = a.values
    column = s.values.reshape((-1,) + (1,) * (av.ndim - 1))

    def vjp(g):
        return g * column, (g * av).reshape(len(column), -1).sum(axis=1)

    return node(av * column, (a, s), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The matrix product ``a @ b`` of two matrices."""
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    return node(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


# ---------------------------------------------------------------------------
# Differentiable resampling operators.
# ---------------------------------------------------------------------------


def mean_reject_op(x: Tensor) -> Tensor:
    rank = x.values.ndim - 2
    out = mean_reject_array(x.values, rank)
    return node(out, (x,), lambda g: (mean_reject_array(g, rank),))


def lowpass_op(
    x: Tensor, band_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> Tensor:
    def run(v):
        return lowpass_array(v, band_extents, kernel)

    # Both realizations are self-adjoint: the perfect variant is an
    # orthogonal projector and the spatial taps are symmetric.
    return node(run(x.values), (x,), lambda g: (run(g),))


def downsample_op(
    x: Tensor, to_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> Tensor:
    fine = x.values.shape[x.values.ndim - len(to_extents) :]
    out = downsample_array(x.values, to_extents, kernel)
    return node(out, (x,), lambda g: (downsample_adjoint_array(g, fine, kernel),))


def decimate_op(x: Tensor, to_extents: tuple[int, ...]) -> Tensor:
    fine = x.values.shape[x.values.ndim - len(to_extents) :]
    out = decimate_array(x.values, to_extents)
    return node(out, (x,), lambda g: (zero_insert_array(g, fine),))


def channel_rows(values: np.ndarray) -> tuple[np.ndarray, int]:
    """A ``(batch, channels, *spatial)`` map as ``(batch, channels * sites)``
    rows, and its sites; a per-channel ``v`` is the row ``np.repeat(v, sites)``."""
    return values.reshape(values.shape[0], -1), prod(values.shape[2:])


def channel_sum(rows: np.ndarray, sites: int, other: np.ndarray | None = None):
    """Per-channel sum of ``rows`` (times ``other``): batch first, then sites."""
    total = rows.sum(axis=0) if other is None else np.einsum("bk,bk->k", rows, other)
    return total.reshape(-1, sites).sum(axis=1)


def project_channels(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Apply an (out, in) matrix and an optional per-channel bias at every site.

    ``x`` is ``(batch, in, *spatial)``; the spatial axes are flattened to
    S sites so both passes are one batched ``np.matmul``. A map with no
    spatial axes, such as the pooled head input, is the case S = 1.
    """
    w = weight.values
    shape = x.values.shape
    batch, cin = shape[:2]
    flat = x.values.reshape(batch, cin, -1)
    macs.add_macs(macs.pointwise_macs(flat[:, 0].size, cin, w.shape[0]))
    out = np.matmul(w, flat)
    rows, sites = channel_rows(out)  # a view: the product is contiguous
    biased = bias is not None
    if biased:
        rows += np.repeat(bias.values, sites)

    def vjp(g):
        gf = g.reshape(batch, w.shape[0], -1)
        gx = np.matmul(w.T, gf).reshape(shape)
        gw = np.matmul(gf, flat.transpose(0, 2, 1)).sum(axis=0)
        if not biased:
            return gx, gw
        return gx, gw, channel_sum(*channel_rows(g))

    parents = (x, weight, bias) if biased else (x, weight)
    return node(out.reshape((batch, w.shape[0]) + shape[2:]), parents, vjp)


def gradient_check(
    output_fn,
    params: list[Tensor],
    h: float = 1e-3,
) -> float:
    """Max relative error between reverse-mode and central finite differences.

    ``output_fn`` must rebuild the graph from the current parameter values
    and return a Tensor. The scalar functional under test is the inner
    product of the output with a fixed random weighting, which avoids
    degenerate cases (e.g. operators whose output always sums to zero).
    The relative error is measured per parameter as
    ``max|g_ad - g_fd| / max(max|g_fd|, max|g_ad|, 1e-6)``; the floor
    keeps parameters with an exactly-zero gradient (e.g. a per-channel
    shift of a train-mode batch normalization's input, which its mean
    subtraction cancels) from dividing finite-difference noise by itself.
    """
    out = output_fn()
    weights = np.random.default_rng(1234).standard_normal(out.values.shape)
    weights = weights.astype(out.values.dtype)

    def objective():
        return float(np.sum(output_fn().values * weights))

    for p in params:
        p.zero_grad()
    out.backward(weights)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        numeric = np.zeros_like(p.values)
        flat = p.values.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = objective()
            flat[i] = keep - h
            down = objective()
            flat[i] = keep
            num_flat[i] = (up - down) / (2 * h)
        denom = max(
            float(np.max(np.abs(numeric))),
            float(np.max(np.abs(analytic))),
            1e-6,
        )
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / denom)
    return worst
