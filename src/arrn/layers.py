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
from .autodiff import Parameter, Tensor, no_grad, node, project_channels
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
    # s = 1 / (1 + exp(-x)), built in one buffer.
    s = np.negative(x.values)
    with np.errstate(over="ignore"):  # an overflow only rounds s to 0
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    out = x.values * s

    def vjp(g):
        d = 1.0 - s  # g * s * (1 + x * (1 - s)), built in one buffer
        d *= x.values
        d += 1.0
        d *= s
        d *= g
        return (d,)

    return node(out, (x,), vjp)


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
    # Sites over the batch, channels, and taps per channel.
    macs.add_macs(macs.depthwise_macs(x.values[:, 0].size, w.shape[0], w[0].size))
    padded = _pad_spatial(x.values, spatial_ndim, padding)
    offsets = list(np.ndindex(*w.shape[1:]))
    per_channel = (1, w.shape[0]) + (1,) * spatial_ndim

    def window(off):
        return (slice(None), slice(None)) + tuple(
            slice(o, o + s) for o, s in zip(off, spatial)
        )

    def tap(off):
        return w[(slice(None),) + off].reshape(per_channel)

    # Accumulate into the first tap's product in place, in offset order.
    out = tap(offsets[0]) * padded[window(offsets[0])]
    term = np.empty_like(out)
    for off in offsets[1:]:
        out += np.multiply(tap(off), padded[window(off)], out=term)
    if bias is not None:
        out += bias.values.reshape((1, -1) + (1,) * spatial_ndim)

    def vjp(g):
        sites = "bc" + "xyz"[:spatial_ndim]
        gpad = np.zeros_like(padded)
        gw = np.empty_like(w)
        for off in offsets:
            sl = window(off)
            gw[(slice(None),) + off] = np.einsum(f"{sites},{sites}->c", g, padded[sl])
            gpad[sl] += tap(off) * g
        gx = _unpad_fold(gpad, spatial_ndim, padding)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0,) + tuple(range(2, g.ndim)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return node(out, parents, vjp)


def batchnorm_op(
    x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray, var: np.ndarray
) -> Tensor:
    """Per-channel normalization with frozen statistics (eval mode with
    running statistics): one per-channel affine map ``x * scale + shift``."""
    ndim = x.values.ndim
    axes = (0,) + tuple(range(2, ndim))
    shape = (1, -1) + (1,) * (ndim - 2)
    std = np.sqrt(var + BN_EPS)
    scale = gamma.values / std
    shift = (beta.values - mean * scale).reshape(shape)
    scale = scale.reshape(shape)
    out = x.values * scale
    out += shift

    def vjp(g):
        xhat = (x.values - mean.reshape(shape)) / std.reshape(shape)
        return g * scale, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return node(out, (x, gamma, beta), vjp)


def _channel_sum(flat: np.ndarray) -> np.ndarray:
    """Per-channel sum of a ``(batch, channels, sites)`` array, sites first."""
    return flat.sum(axis=2).sum(axis=0)


def batchnorm_train_op(
    x: Tensor, gamma: Tensor, beta: Tensor
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel normalization with the batch's own ``(mean, var)``,
    returned with the output. The backward pass needs two per-channel
    sums, ``sg = sum(g)`` and ``sgx = sum(g * xhat)``, which are also the
    beta and gamma gradients."""
    batch, channels = x.values.shape[:2]
    flat = x.values.reshape(batch, channels, -1)
    n = batch * flat.shape[2]
    mean = _channel_sum(flat) / n
    xhat = flat - mean[:, None]
    var = np.einsum("bcs,bcs->c", xhat, xhat) / n
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    out = xhat * gamma.values[:, None]
    out += beta.values[:, None]

    def vjp(g):
        gf = g.reshape(xhat.shape)
        sg = _channel_sum(gf)
        sgx = np.einsum("bcs,bcs->c", gf, xhat)
        # gamma * inv * (g - sg / n - xhat * sgx / n), in one buffer.
        gx = xhat * (sgx / n)[:, None]
        np.subtract(gf, gx, out=gx)
        gx -= (sg / n)[:, None]
        gx *= (gamma.values * inv)[:, None]
        return gx.reshape(x.values.shape), sgx, sg

    return node(out.reshape(x.values.shape), (x, gamma, beta), vjp), mean, var


def global_mean_pool_op(x: Tensor) -> Tensor:
    axes = tuple(range(2, x.values.ndim))
    sites = prod(x.values.shape[2:])
    out = x.values.mean(axis=axes)

    def vjp(g):
        expanded = g.reshape(g.shape + (1,) * len(axes))
        return (np.broadcast_to(expanded / sites, x.values.shape).astype(g.dtype),)

    return node(out, (x,), vjp)


def dropout_op(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted elementwise dropout; call only in train mode with p > 0."""
    keep = (rng.random(x.values.shape) >= p).astype(x.values.dtype) / (1.0 - p)
    return node(x.values * keep, (x,), lambda g: (g * keep,))


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

    return node(np.asarray(loss, dtype=z.dtype), (logits,), vjp)


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


class BatchNorm:
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, dtype=np.float64, name=""):
        self.gamma = Parameter(np.ones(channels, dtype=dtype), f"{name}.g", decay=False)
        self.beta = Parameter(np.zeros(channels, dtype=dtype), f"{name}.b", decay=False)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        if mode == TRAIN:
            out, mean, var = batchnorm_train_op(x, self.gamma, self.beta)
            self.running_mean = (
                (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            )
            self.running_var = (
                (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
            )
            return out
        return batchnorm_op(
            x, self.gamma, self.beta, self.running_mean, self.running_var
        )

    def parameters(self):
        return [self.gamma, self.beta]


class SiLU:
    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        return silu_op(x)

    def parameters(self):
        return []


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


def zero_constancy_check(
    block, grid: GridSpec, channels: int, tol: float = 1e-10, dtype=np.float64
) -> tuple[bool, float]:
    """Certify that the block maps a zero input to a spatially constant output.

    Runs an eval-mode forward on a zero feature map and returns
    ``(ok, max_spatial_std)`` over the (batch, channel) slices.
    """
    zero = Tensor(np.zeros((1, channels) + grid.extents, dtype=dtype))
    with no_grad():
        out = block.forward(zero, mode=EVAL).values
    spatial_axes = tuple(range(2, out.ndim))
    deviation = float(np.max(out.std(axis=spatial_axes)))
    return deviation <= tol, deviation
