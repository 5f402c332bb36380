"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` records the values of a computation node plus, for
non-leaf nodes, its parents and a vector-Jacobian closure. Calling
``backward`` on any node seeds its gradient and propagates adjoints in
reverse topological order, accumulating into every reachable leaf.

The resampling primitives from :mod:`arrn.resample` are wrapped here as
differentiable ops; their backward passes use closed-form adjoints:

* the perfect low-pass and the mean-rejection filter are self-adjoint,
* symmetric circular convolution is self-adjoint,
* stride decimation's adjoint is zero insertion,
* the fused spectral downsample's adjoint embeds the coarse spectrum back
  into the fine layout (see :func:`arrn.resample.downsample_adjoint_array`).

Inside a :func:`no_grad` context every op returns a bare tensor with no
parents and no closure, so evaluation (:func:`arrn.model.forward_full`,
:func:`arrn.model.forward_adapted` and everything built on them) builds
no graph and keeps no array alive for a backward pass that never runs.
Every op has one implementation; it hands its result, parents and closure
to :func:`node`, which drops the last two under ``no_grad``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

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


class Tensor:
    """A node in the reverse-mode graph."""

    __slots__ = ("values", "grad", "_parents", "_vjp")

    def __init__(self, values, parents=(), vjp=None):
        self.values = np.asarray(values)
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def zero_grad(self):
        self.grad = None

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

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        self.grad = seed if self.grad is None else self.grad + seed
        # Nodes whose grad is an array this call allocated. Only those are
        # summed into in place: a first contribution is stored as is and may
        # alias another node's grad (``add`` returns ``(g, g)``) or the seed.
        owned: set[int] = set()
        # The VJPs reuse counting forward functions; a throwaway recording
        # keeps them out of the caller's, so MAC counts are forward-only.
        with macs.recording():
            for node in reversed(topo):
                if node._vjp is None or node.grad is None:
                    continue
                for parent, contribution in zip(node._parents, node._vjp(node.grad)):
                    if contribution is None:
                        continue
                    if parent.grad is None:
                        parent.grad = contribution
                    elif id(parent) in owned:
                        parent.grad += contribution
                    else:
                        parent.grad = parent.grad + contribution
                        owned.add(id(parent))
                if node is not self:
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
    return node(
        a.values * b.values, (a, b), lambda g: (g * b.values, g * a.values)
    )


def scale(a: Tensor, c: float) -> Tensor:
    return node(a.values * c, (a,), lambda g: (g * c,))


# Parameter folds: ops on parameter-sized arrays, which count no MACs.


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Scale row ``i`` of ``a`` (its leading axis) by ``s[i]``."""
    a, s = as_tensor(a), as_tensor(s)
    column = s.values.reshape((-1,) + (1,) * (a.values.ndim - 1))

    def vjp(g):
        return g * column, (g * a.values).reshape(len(column), -1).sum(axis=1)

    return node(a.values * column, (a, s), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The matrix product ``a @ b`` of two matrices."""
    a, b = as_tensor(a), as_tensor(b)
    return node(
        a.values @ b.values, (a, b), lambda g: (g @ b.values.T, a.values.T @ g)
    )


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


def project_channels(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Apply an (out, in) matrix and an optional per-channel bias at every site.

    ``x`` is ``(batch, in, *spatial)``; the spatial axes are flattened to
    S sites so both passes are one batched ``np.matmul``. A map with no
    spatial axes, such as the pooled head input, is the case S = 1.
    """
    w = weight.values
    batch, cin = x.values.shape[:2]
    flat = x.values.reshape(batch, cin, -1)
    macs.add_macs(macs.pointwise_macs(flat[:, 0].size, cin, w.shape[0]))
    out = np.matmul(w, flat)
    if bias is not None:
        out += bias.values[:, None]

    def vjp(g):
        gf = g.reshape(out.shape)
        gx = np.matmul(w.T, gf).reshape(x.values.shape)
        gw = np.matmul(gf, flat.transpose(0, 2, 1)).sum(axis=0)
        if bias is None:
            return gx, gw
        return gx, gw, gf.sum(axis=(0, 2))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return node(out.reshape((batch, w.shape[0]) + x.values.shape[2:]), parents, vjp)


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
    keeps parameters with an exactly-zero gradient (e.g. a bias feeding a
    train-mode batch normalization) from dividing finite-difference noise
    by itself.
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
