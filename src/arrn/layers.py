"""Fixed-resolution neural layers with reverse-mode differentiation.

Every layer here maps a spatially constant input to a spatially constant
output (in eval mode), which is the compatibility condition a block must
satisfy to sit inside an adaptive-resolution residual: with a zero input
the block then produces a per-channel constant that the constant-rejection
filter cancels exactly.

Layers operate on batched feature maps of shape ``(batch, channels,
*spatial)``. Depthwise convolutions keep resolution fixed and replicate
their edges, the only padding there is: a zero pad would feed zeros into
the edge sites of a constant map, so a block would no longer map a
constant to a constant. :func:`_pad_spatial` and its adjoint
:func:`_unpad_fold` are the only code that knows this edge rule.

A depthwise convolution over a map whose extents are all at most
:data:`arrn.resample.MATRIX_AXIS_MAX` runs as banded matrix products. On
a 2-D map, row offset ``i`` of a channel's 3x3 taps is one ``(W, W)``
matrix ``M_i`` with the column padding folded in, and the output is the
sum of ``rows_i @ M_i``, ``rows_i`` a window of the row-padded input, one
GEMM per (sample, channel) slice. On a 1-D map a channel's three taps are
one ``(n, n)`` matrix, and its rows are multiplied on fixed tiles of
:data:`arrn.resample.ROW_TILE` rows (:func:`arrn.resample.tiled_rows`),
the batch completed with zero rows: one product over the whole batch
would let BLAS choose its kernel by the row count. Either way a sample's
output is bitwise the same in any batch. A map with a longer axis runs
the sum of shifted copies of its padded input. Per call (2-core Xeon, one
BLAS thread, median of 40, microseconds), matrices against the tap sum:
f64 ``(2, 16, W, W)``, W = 16 49 vs 195, 32 449 vs 811, 64 3984 vs 5497,
96 9596 vs 8232, 128 18499 vs 12371; f32 ``(B, 16, 64)``, B = 1 42 vs 37,
16 37 vs 65, 128 178 vs 415, 256 273 vs 939.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from . import macs
from .autodiff import (
    Parameter,
    Tensor,
    add,
    matmul,
    no_grad,
    node,
    project_channels,
    scale_rows,
    sub,
)
from .errors import NumericError, ShapeError
from .grids import GridSpec, is_integer
from .resample import MATRIX_AXIS_MAX, tiled_rows

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
    # x / d with d = 1 + exp(-x), built in one buffer: four passes, one rounding.
    d = np.negative(x.values)
    with np.errstate(over="ignore"):  # an overflow makes d inf and the output -0
        np.exp(d, out=d)
    d += 1.0
    out = x.values / d

    def vjp(g):
        s = np.reciprocal(d)  # the sigmoid
        gx = 1.0 - s  # g * s * (1 + x * (1 - s)), built in one buffer
        gx *= x.values
        gx += 1.0
        gx *= s
        gx *= g
        return (gx,)

    return node(out, (x,), vjp)


# The same function object, kept because benchmarks/tracing.py binds this name.
pointwise_conv_op = project_channels


def _pad_spatial(values: np.ndarray, axes) -> np.ndarray:
    """``values`` with one sample of edge replication at both ends of each of
    ``axes``: ``np.pad``'s ``"edge"`` result, filled by slicing into one
    buffer. With :func:`_unpad_fold` the only code that knows the edge rule."""
    axes = tuple(axes)
    shape = tuple(n + 2 * (a in axes) for a, n in enumerate(values.shape))
    out = np.empty(shape, values.dtype)
    inner = tuple(slice(1, -1) if a in axes else slice(None) for a in range(out.ndim))
    out[inner] = values
    for a in axes:  # the borders of earlier axes come along
        out[_slice_at(out.ndim, a, 0)] = out[_slice_at(out.ndim, a, 1)]
        out[_slice_at(out.ndim, a, -1)] = out[_slice_at(out.ndim, a, -2)]
    return out


def _unpad_fold(gpad: np.ndarray, axes) -> np.ndarray:
    """Adjoint of :func:`_pad_spatial`: collapse pad borders back inward."""
    out = gpad
    for a in axes:
        inner = out[_slice_at(out.ndim, a, slice(1, -1))].copy()
        inner[_slice_at(inner.ndim, a, 0)] += out[_slice_at(out.ndim, a, 0)]
        inner[_slice_at(inner.ndim, a, -1)] += out[_slice_at(out.ndim, a, -1)]
        out = inner
    return out


def _tap_sum(values: np.ndarray, w: np.ndarray):
    """The convolution as a sum of shifted copies of the padded input, one
    per tap, and its VJP ``g -> (gx, gw)``."""
    spatial_ndim = values.ndim - 2
    spatial = values.shape[2:]
    axes = range(2, values.ndim)
    padded = _pad_spatial(values, axes)
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

    def vjp(g):
        sites = "bc" + "xyz"[:spatial_ndim]
        gpad = np.zeros_like(padded)
        gw = np.empty_like(w)
        for off in offsets:
            sl = window(off)
            gw[(slice(None),) + off] = np.einsum(f"{sites},{sites}->c", g, padded[sl])
            gpad[sl] += tap(off) * g
        return _unpad_fold(gpad, axes), gw

    return out, vjp


@lru_cache(maxsize=64)
def _shift_matrices(n: int, dtype: np.dtype) -> np.ndarray:
    """Read-only ``(3, n, n)`` 0/1 matrices ``S``: ``(row @ S[t])[k]`` is
    ``row[k + t - 1]`` with the row's edges padded, the column windows of
    the padded identity."""
    padded = _pad_spatial(np.eye(n, dtype=dtype), (1,))
    out = np.stack([padded[:, t : t + n] for t in range(3)])
    out.flags.writeable = False
    return out


def _banded_rows(values: np.ndarray, w: np.ndarray):
    """A 2-D convolution as banded matrix products, and its VJP.

    Row offset ``i`` of the taps becomes one ``(W, W)`` matrix per channel,
    ``M[c, i] = sum_t w[c, i, t] S[t]`` (:func:`_shift_matrices`), which holds
    the row's three taps with the column edges folded in. The output is the
    sum over ``i`` of ``rows_i @ M[:, i]``, ``rows_i`` the window of rows
    ``i : i + H`` of the row-padded input: one GEMM per (sample, channel)
    slice. The VJP scatters ``g @ M[:, i].T`` into a row-padded gradient
    and folds its borders back (:func:`_unpad_fold`). The matrices are built
    one offset at a time, in the forward pass and again in the VJP, so a
    call holds one offset's matrices next to the padded rows and the graph
    keeps neither.
    """
    channels, height, width = w.shape[0], values.shape[-2], values.shape[-1]
    shifts = _shift_matrices(width, np.result_type(values, w)).reshape(3, -1)

    def band(i):  # M[:, i], (channels, W, W)
        return (w[:, i] @ shifts).reshape(channels, width, width)

    rows = _pad_spatial(values, (2,))
    out = rows[..., :height, :] @ band(0)
    for i in (1, 2):
        out += rows[..., i : i + height, :] @ band(i)

    def vjp(g):
        # -0.0 is the exact additive identity: a sum keeps the sign of a zero.
        gpad = np.full(g.shape[:2] + (height + 2, width), -0.0, g.dtype)
        for i in range(3):
            gpad[..., i : i + height, :] += g @ band(i).swapaxes(-1, -2)
        # The products of the input's row windows with g, summed over the
        # batch, are the gradients of the matrices M[:, i].
        rows = _pad_spatial(values, (2,)).swapaxes(-1, -2)
        grams = np.stack(
            [(rows[..., i : i + height] @ g).sum(axis=0) for i in range(3)], axis=1
        )
        gw = (grams.reshape(3 * channels, -1) @ shifts.T).reshape(w.shape)
        return _unpad_fold(gpad, (2,)), gw

    return out, vjp


def _banded_tiles(values: np.ndarray, w: np.ndarray):
    """A 1-D convolution as banded matrix products on row tiles, and its VJP.

    Channel ``c`` becomes one ``(n, n)`` matrix ``M[c] = sum_t w[c, t]
    S[t]`` (:func:`_shift_matrices`), which holds its three taps with the
    edges folded in, and the output is ``values[:, c] @ M[c]``, run by
    :func:`arrn.resample.tiled_rows` so that a sample's output is bitwise
    the same in any batch. The VJP runs the same tiles with ``M.T`` and
    contracts the per-channel products ``values[:, c].T @ g[:, c]``, the
    gradients of the matrices, with the ``S[t]`` for the taps. The VJP
    builds ``M.T`` anew from the transposed ``S[t]``, so the graph keeps no
    matrix, and its products take contiguous operands: a transposed view
    of ``M`` made them twice as slow in f32.
    """
    channels, width = w.shape[0], values.shape[-1]
    shifts = _shift_matrices(width, np.result_type(values, w))

    def band(s):  # sum_t w[:, t] s[t], (channels, n, n)
        return (w @ s.reshape(3, -1)).reshape(channels, width, width)

    out = tiled_rows(values, band(shifts))

    def vjp(g):
        gx = tiled_rows(g, band(shifts.swapaxes(1, 2)))
        grams = values.transpose(1, 2, 0) @ g.transpose(1, 0, 2)
        return gx, grams.reshape(channels, -1) @ shifts.reshape(3, -1).T

    return out, vjp


def depthwise_conv_op(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """Per-channel 3-tap (1-D) or 3x3 (2-D) convolution, stride 1, with
    replicated edges.

    A map whose extents are all at most :data:`MATRIX_AXIS_MAX` runs as
    banded matrix products, a 1-D one on row tiles (:func:`_banded_tiles`),
    a 2-D one per (sample, channel) slice (:func:`_banded_rows`); any other
    map runs as a sum of shifted copies (:func:`_tap_sum`). All count
    ``taps`` MACs per site.
    """
    spatial_ndim = x.values.ndim - 2
    w = weight.values  # (channels, 3[, 3])
    # Sites over the batch, channels, and taps per channel.
    macs.add_macs(macs.depthwise_macs(x.values[:, 0].size, w.shape[0], w[0].size))
    if max(x.values.shape[2:]) > MATRIX_AXIS_MAX:
        conv = _tap_sum
    else:
        conv = _banded_tiles if spatial_ndim == 1 else _banded_rows
    out, conv_vjp = conv(x.values, w)
    if bias is not None:
        out += bias.values.reshape((1, -1) + (1,) * spatial_ndim)

    def vjp(g):
        gx, gw = conv_vjp(g)
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

    def __init__(self, channels: int, dims: int, rng, dtype=np.float64, name=""):
        taps = (3,) * dims
        fan_in = prod(taps)
        self.weight = Parameter(
            _uniform(rng, (channels,) + taps, fan_in, dtype), f"{name}.w"
        )
        self.bias = Parameter(np.zeros(channels, dtype=dtype), f"{name}.b", decay=False)

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        return depthwise_conv_op(x, self.weight, self.bias)

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

    def fold_into(self, conv):
        """``conv`` followed by this layer in eval mode, as one convolution.

        A copy of ``conv`` (a :class:`PointwiseConv` or
        :class:`DepthwiseConv`) whose weight and bias are scaled per output
        channel by ``s = gamma / sqrt(var + eps)``, with ``beta - mean * s``
        added to the bias. The fold is built from the parameters by graph
        ops on every call, so gradients still reach ``gamma`` and ``beta``.
        """
        s = scale_rows(self.gamma, 1.0 / np.sqrt(self.running_var + BN_EPS))
        folded = copy.copy(conv)
        folded.weight = scale_rows(conv.weight, s)
        shifted = sub(conv.bias, self.running_mean)
        folded.bias = add(scale_rows(shifted, s), self.beta)
        return folded


class SiLU:
    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        return silu_op(x)

    def parameters(self):
        return []


class Dropout:
    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = float(p)

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

    def __post_init__(self):
        for name in ("features", "expansion", "depth"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    def describe(self) -> dict:
        # ARNN1 block records name the edge rule; replication is the only one.
        return {
            "features": int(self.features),
            "expansion": int(self.expansion),
            "depth": int(self.depth),
            "padding": "replicate",
        }

    @classmethod
    def from_description(cls, desc: dict) -> "InnerBlockSpec":
        fields = dict(desc)
        padding = fields.pop("padding", None)
        if padding != "replicate":
            raise ValueError(f"block padding must be 'replicate', got {padding!r}")
        return cls(**fields)


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
                DepthwiseConv(wide, dims, rng, dtype, name=f"{name}.dw{i}"),
                BatchNorm(wide, dtype, name=f"{name}.bn{2 * i + 1}"),
                SiLU(),
                PointwiseConv(
                    wide, f if last else wide, rng, dtype,
                    name=f"{name}.pw{i}",
                ),
            ]
        self.layers = layers

    def forward(self, x: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        layers = self.layers if mode == TRAIN else self.folded_layers()
        for layer in layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def folded_layers(self) -> list:
        """The eval-mode layers: every batch norm folded into the
        convolution before it (:meth:`BatchNorm.fold_into`)."""
        out: list = []
        for layer in self.layers:
            out.append(layer.fold_into(out.pop()) if isinstance(layer, BatchNorm)
                       else layer)
        return out

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

    def fold_in(self, projection: Tensor) -> "GlobalPoolHead":
        """This head after the channel mix ``projection``, in eval mode.

        With dropout off, a channel mix commutes with the mean pool, so
        ``head(P x) = (W P) mean(x) + b``: a copy of this head whose weight
        is the graph op ``W @ P``, rebuilt on every call.
        """
        folded = copy.copy(self)
        folded.weight = matmul(self.weight, projection)
        return folded


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
