"""Multiply-accumulate accounting.

Compute cost is tracked as MAC counts rather than wall-clock time so that
results are hardware-independent and exactly reproducible. Each cost
convention below is one function of this module, and both routes price
every op with it, so the two must agree exactly:

* the *instrumented* count: forward ops add to the counter of an active
  :func:`recording` context. It is forward-only: a backward pass runs its
  vector-Jacobian products inside a throwaway recording and adds nothing;
* the *analytic* count, :func:`arrn.evaluate.count_macs` alone: a walk
  over the model's structure that mirrors which ops run.

Cost conventions (single sample, i.e. batch size 1):

* pointwise convolution / channel projection over S sites: ``S*cin*cout``
* depthwise convolution over S sites, C channels, K taps: ``S*C*K``
* dense layer: the pointwise convention at S = 1, i.e. ``cin*cout``
* separable spatial convolution with per-axis tap counts T_a over S
  sites and C channels: ``S*C*sum(T_a)``, where a 1-tap axis is the
  identity and counts 0
* one FFT (or inverse FFT) over a grid of S sites, per channel:
  ``S*ceil(log2(S))``; spectral resampling costs one transform at the
  input grid plus one at the output grid, and the perfect low-pass one
  transform and its inverse at the input grid (0 when the band holds the
  whole grid)
* stride decimation, sample-preserving reshapes, normalization,
  activations, dropout, pooling, additions, and mean subtraction: 0
* parameter folds (:func:`arrn.autodiff.scale_rows`,
  :func:`arrn.autodiff.matmul`): 0. They act on parameters, not on the
  sample, so their cost does not grow with the batch or the grid

The band operators of :mod:`arrn.resample` run as one dense matrix
product per axis on axes up to ``MATRIX_AXIS_MAX`` samples, and as a real
FFT pair or tap convolution per axis on longer ones. They are still
counted by the whole-grid transform and separable-tap conventions above,
so the counts stay independent of how an axis is realized.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from math import prod


class MacCounter:
    """Accumulates multiply-accumulate operations."""

    def __init__(self):
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)


_active: ContextVar[MacCounter | None] = ContextVar("arrn_mac_counter", default=None)


@contextmanager
def recording():
    """Activate a fresh counter for the duration of the context."""
    counter = MacCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)


def add_macs(n: int) -> None:
    counter = _active.get()
    if counter is not None:
        counter.add(n)


def fft_macs(extents: tuple[int, ...]) -> int:
    """Cost of one (inverse) FFT over a grid, per channel."""
    sites = prod(extents)
    if sites <= 1:
        return 0
    return sites * math.ceil(math.log2(sites))


def spectral_resample_macs(
    in_extents: tuple[int, ...], out_extents: tuple[int, ...], channels: int
) -> int:
    """Forward transform at the input grid plus inverse at the output grid."""
    if tuple(in_extents) == tuple(out_extents):
        return 0
    return channels * (fft_macs(tuple(in_extents)) + fft_macs(tuple(out_extents)))


def lowpass_perfect_macs(
    extents: tuple[int, ...], band: tuple[int, ...], channels: int
) -> int:
    """A transform and its inverse at the input grid; 0 if the band holds it."""
    if all(m >= n for m, n in zip(band, extents)):
        return 0
    return channels * 2 * fft_macs(tuple(extents))


def separable_conv_macs(
    extents: tuple[int, ...], tap_counts: tuple[int, ...], channels: int
) -> int:
    """Per-axis convolutions; a 1-tap axis is the identity and costs 0."""
    return channels * prod(extents) * sum(t for t in tap_counts if t > 1)


def pointwise_macs(sites: int, cin: int, cout: int) -> int:
    return sites * cin * cout


def depthwise_macs(sites: int, channels: int, kernel_taps: int) -> int:
    return sites * channels * kernel_taps

