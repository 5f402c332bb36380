"""Fixed-resolution neural layers with reverse-mode differentiation.

Every layer here maps a spatially constant input to a spatially constant
output (in eval mode), which is the compatibility condition a block must
satisfy to sit inside an adaptive-resolution residual: with a zero input
the block then produces a per-channel constant that the constant-rejection
filter cancels exactly.

Layers operate on batched feature maps of shape ``(batch, channels,
*spatial)``. Depthwise convolutions keep resolution fixed and use
edge-replication padding by default; zero padding is available only to
construct counterexamples that violate the constancy condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod

import numpy as np

from . import macs
from .autodiff import Parameter, Tensor, project_channels
from .errors import NumericError, ShapeError
from .grids import GridSpec

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

TRAIN = "train"
EVAL = "eval"


@dataclass(frozen=True)
class FeatureMap:
    """Batched multichannel signal carrier used inside blocks."""

    grid: GridSpec
    values: np.ndarray  # (batch, channels, *grid.extents)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 + self.grid.dims or v.shape[2:] != self.grid.extents:
            raise ShapeError(
                f"values shape {v.shape} does not match (batch, channels, "
                f"{self.grid.extents})"
            )
        if not np.all(np.isfinite(v)):
            raise NumericError("feature map values must all be finite")
        object.__setattr__(self, "values", v)

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def features(self) -> int:
        return self.values.shape[1]


def _slice_at(ndim: int, axis: int, index) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = index
    return tuple(out)


# ---------------------------------------------------------------------------
# Differentiable layer ops.
# ---------------------------------------------------------------------------


def silu_op(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.values))
    out = x.values * s
    return Tensor(out, (x,), lambda g: (g * (s * (1.0 + x.values * (1.0 - s))),))


# The same function object, kept because benchmarks/tracing.py binds this name.
pointwise_conv_op = project_channels


def _pad_spatial(values: np.ndarray, spatial_ndim: int, mode: str) -> np.ndarray:
    widths = [(0, 0)] * (values.ndim - spatial_ndim) + [(1, 1)] * spatial_ndim
    np_mode = "edge" if mode == "replicate" else "constant"
    return np.pad(values, widths, mode=np_mode)


def _unpad_fold(gpad: np.ndarray, spatial_ndim: int, mode: str) -> np.ndarray:
    """Adjoint of :func:`_pad_spatial`: collapse pad borders back inward."""
    out = gpad
    for a in range(spatial_ndim):
        axis = out.ndim - spatial_ndim + a
        inner = out[_slice_at(out.ndim, axis, slice(1, -1))].copy()
        if mode == "replicate":
            inner[_slice_at(inner.ndim, axis, 0)] += out[_slice_at(out.ndim, axis, 0)]
            inner[_slice_at(inner.ndim, axis, -1)] += out[
                _slice_at(out.ndim, axis, -1)
            ]
        out = inner
    return out


def depthwise_conv_op(
    x: Tensor, weight: Tensor, bias: Tensor | None, padding: str = "replicate"
) -> Tensor:
    """Per-channel 3-tap (1-D) or 3x3 (2-D) convolution, stride 1."""
    spatial_ndim = x.values.ndim - 2
    spatial = x.values.shape[2:]
    w = weight.values  # (channels, 3[, 3])
    macs.add_macs(x.values.shape[0] * prod(spatial) * w.shape[0] * prod(w.shape[1:]))
    padded = _pad_spatial(x.values, spatial_ndim, padding)
    offsets = list(np.ndindex(*w.shape[1:]))
    per_channel = (1, w.shape[0]) + (1,) * spatial_ndim

    def window_at(values, off):
        sl = (slice(None), slice(None)) + tuple(
            slice(o, o + s) for o, s in zip(off, spatial)
        )
        return sl, values[sl]

    out = np.zeros_like(x.values)
    for off in offsets:
        _, window = window_at(padded, off)
        out = out + w[(slice(None),) + off].reshape(per_channel) * window
    if bias is not None:
        out = out + bias.values.reshape((1, -1) + (1,) * spatial_ndim)

    def vjp(g):
        reduce_axes = (0,) + tuple(range(2, g.ndim))
        gpad = np.zeros_like(padded)
        gw = np.zeros_like(w)
        for off in offsets:
            sl, window = window_at(padded, off)
            gw[(slice(None),) + off] = (g * window).sum(axis=reduce_axes)
            gpad[sl] += w[(slice(None),) + off].reshape(per_channel) * g
        gx = _unpad_fold(gpad, spatial_ndim, padding)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0,) + tuple(range(2, g.ndim)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out, parents, vjp)


def batchnorm_op(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    batch_stats: bool,
) -> Tensor:
    """Per-channel normalization with the given statistics.

    With ``batch_stats`` the statistics are functions of ``x`` and the
    backward pass includes their dependence; otherwise they are frozen
    constants (eval mode with running statistics).
    """
    ndim = x.values.ndim
    axes = (0,) + tuple(range(2, ndim))
    shape = (1, -1) + (1,) * (ndim - 2)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.values - mean.reshape(shape)) * inv.reshape(shape)
    out = gamma.values.reshape(shape) * xhat + beta.values.reshape(shape)

    def vjp(g):
        ggamma = (g * xhat).sum(axis=axes)
        gbeta = g.sum(axis=axes)
        gxhat = g * gamma.values.reshape(shape)
        if batch_stats:
            m = gxhat.mean(axis=axes, keepdims=True)
            mx = (gxhat * xhat).mean(axis=axes, keepdims=True)
            gx = inv.reshape(shape) * (gxhat - m - xhat * mx)
        else:
            gx = gxhat * inv.reshape(shape)
        return gx, ggamma, gbeta

    return Tensor(out, (x, gamma, beta), vjp)


def global_mean_pool_op(x: Tensor) -> Tensor:
    axes = tuple(range(2, x.values.ndim))
    sites = prod(x.values.shape[2:])
    out = x.values.mean(axis=axes)

    def vjp(g):
        expanded = g.reshape(g.shape + (1,) * len(axes))
        return (np.broadcast_to(expanded / sites, x.values.shape).astype(g.dtype),)

    return Tensor(out, (x,), vjp)


def dropout_op(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted elementwise dropout; call only in train mode with p > 0."""
    keep = (rng.random(x.values.shape) >= p).astype(x.values.dtype) / (1.0 - p)
    return Tensor(x.values * keep, (x,), lambda g: (g * keep,))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    z = logits.values
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + zmax
    batch = z.shape[0]
    picked = z[np.arange(batch), labels]
    loss = float((logsum[:, 0] - picked).mean())

    def vjp(g):
        soft = np.exp(z - logsum)
        soft[np.arange(batch), labels] -= 1.0
        return (soft * (g / batch),)

    return Tensor(np.asarray(loss, dtype=z.dtype), (logits,), vjp)


# ---------------------------------------------------------------------------
# Layer objects: parameters plus a forward that builds the graph.
# ---------------------------------------------------------------------------


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class PointwiseConv:
    def __init__(self, cin: int, cout: int, rng, dtype=np.float64, name=""):
        self.weight = Parameter(_uniform(rng, (cout, cin), cin, dtype), f"{name}.w")
        self.bias = Parameter(np.zeros(cout, dtype=dtype), f"{name}.b", decay=False)

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        return project_channels(x, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]

    def count_macs(self, sites: int) -> int:
        return macs.pointwise_macs(sites, self.weight.shape[1], self.weight.shape[0])


class DepthwiseConv:
    """Per-channel convolution, kernel extent 3 per spatial axis, stride 1."""

    def __init__(
        self, channels: int, dims: int, rng, dtype=np.float64,
        padding: str = "replicate", name="",
    ):
        if padding not in ("replicate", "zero"):
            raise ValueError(f"unsupported padding {padding!r}")
        taps = (3,) * dims
        fan_in = prod(taps)
        self.padding = padding
        self.weight = Parameter(
            _uniform(rng, (channels,) + taps, fan_in, dtype), f"{name}.w"
        )
        self.bias = Parameter(np.zeros(channels, dtype=dtype), f"{name}.b", decay=False)

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        return depthwise_conv_op(x, self.weight, self.bias, self.padding)

    def parameters(self):
        return [self.weight, self.bias]

    def count_macs(self, sites: int) -> int:
        return macs.depthwise_macs(
            sites, self.weight.shape[0], prod(self.weight.shape[1:])
        )


class BatchNorm:
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, dtype=np.float64, name=""):
        self.gamma = Parameter(np.ones(channels, dtype=dtype), f"{name}.g", decay=False)
        self.beta = Parameter(np.zeros(channels, dtype=dtype), f"{name}.b", decay=False)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        if mode == TRAIN:
            axes = (0,) + tuple(range(2, x.values.ndim))
            mean = x.values.mean(axis=axes)
            var = x.values.var(axis=axes)
            self.running_mean = (
                (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            )
            self.running_var = (
                (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
            )
            return batchnorm_op(x, self.gamma, self.beta, mean, var, batch_stats=True)
        return batchnorm_op(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            batch_stats=False,
        )

    def parameters(self):
        return [self.gamma, self.beta]

    def count_macs(self, sites: int) -> int:
        return 0


class SiLU:
    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        return silu_op(x)

    def parameters(self):
        return []

    def count_macs(self, sites: int) -> int:
        return 0


class Dropout:
    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        if mode != TRAIN or self.p == 0.0:
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs a generator")
        return dropout_op(x, self.p, rng)

    def parameters(self):
        return []

    def count_macs(self, sites: int) -> int:
        return 0


@dataclass(frozen=True)
class InnerBlockSpec:
    """Shape of the learned block nested inside one residual level.

    A pointwise expansion is followed by ``depth`` alternating pairs of
    depthwise and pointwise convolutions (the final pointwise contracts
    back to the input width), every convolution separated by batch
    normalization and SiLU.
    """

    features: int
    expansion: int = 2
    depth: int = 1
    padding: str = "replicate"

    def __post_init__(self):
        if self.features < 1 or self.expansion < 1 or self.depth < 1:
            raise ValueError("features, expansion, and depth must be positive")

    def describe(self) -> dict:
        return {
            "features": self.features,
            "expansion": self.expansion,
            "depth": self.depth,
            "padding": self.padding,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "InnerBlockSpec":
        return cls(**desc)


class InnerBlock:
    """The fixed-resolution block: expand, mix depthwise/pointwise, contract."""

    def __init__(self, spec: InnerBlockSpec, dims: int, rng, dtype=np.float64, name=""):
        f, e = spec.features, spec.expansion
        wide = f * e
        self.spec = spec
        layers: list = [PointwiseConv(f, wide, rng, dtype, name=f"{name}.expand")]
        for i in range(spec.depth):
            last = i == spec.depth - 1
            layers += [
                BatchNorm(wide, dtype, name=f"{name}.bn{2 * i}"),
                SiLU(),
                DepthwiseConv(
                    wide, dims, rng, dtype, padding=spec.padding,
                    name=f"{name}.dw{i}",
                ),
                BatchNorm(wide, dtype, name=f"{name}.bn{2 * i + 1}"),
                SiLU(),
                PointwiseConv(
                    wide, f if last else wide, rng, dtype,
                    name=f"{name}.pw{i}",
                ),
            ]
        self.layers = layers

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def count_macs(self, sites: int) -> int:
        return sum(layer.count_macs(sites) for layer in self.layers)


class GlobalPoolHead:
    """Spatial mean pooling, elementwise dropout, and a dense class map."""

    def __init__(self, cin: int, classes: int, rng, dtype=np.float64, dropout_p=0.2):
        self.weight = Parameter(_uniform(rng, (classes, cin), cin, dtype), "head.w")
        self.bias = Parameter(np.zeros(classes, dtype=dtype), "head.b", decay=False)
        self.dropout = Dropout(dropout_p)

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        pooled = global_mean_pool_op(x)
        pooled = self.dropout.forward(pooled, mode=mode, rng=rng)
        return project_channels(pooled, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]

    def count_macs(self, sites: int) -> int:
        return macs.pointwise_macs(1, self.weight.shape[1], self.weight.shape[0])


def zero_constancy_check(
    block, grid: GridSpec, channels: int, tol: float = 1e-10, dtype=np.float64
) -> tuple[bool, float]:
    """Certify that the block maps a zero input to a spatially constant output.

    Runs an eval-mode forward on a zero feature map and returns
    ``(ok, max_spatial_std)`` over the (batch, channel) slices.
    """
    zero = Tensor(np.zeros((1, channels) + grid.extents, dtype=dtype))
    out = block.forward(zero, mode=EVAL).values
    spatial_axes = tuple(range(2, out.ndim))
    deviation = float(np.max(out.std(axis=spatial_axes)))
    return deviation <= tol, deviation
