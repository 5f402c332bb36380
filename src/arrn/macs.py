"""Multiply-accumulate accounting.

Compute cost is tracked as MAC counts rather than wall-clock time so that
results are hardware-independent and exactly reproducible. Two routes
exist and must agree exactly:

* an *instrumented* counter that executing code adds to while a
  :func:`recording` context is active, and
* *analytic* closed-form counts derived from model structure alone
  (see :func:`arrn.evaluate.count_macs`).

Cost conventions (single sample, i.e. batch size 1):

* pointwise convolution / channel projection over S sites: ``S*cin*cout``
* depthwise convolution over S sites, C channels, K taps: ``S*C*K``
* dense layer: the pointwise convention at S = 1, i.e. ``cin*cout``
* separable spatial convolution with per-axis tap counts T_a over S
  sites and C channels: ``S*C*sum(T_a)``
* one FFT (or inverse FFT) over a grid of S sites, per channel:
  ``S*ceil(log2(S))``; spectral resampling costs one transform at the
  input grid plus one at the output grid. The perfect kernel runs one
  real ``rfft``/``irfft`` pair per axis; it is counted by this whole-grid
  convention, so the counts stay independent of the transform layout
* stride decimation, sample-preserving reshapes, normalization,
  activations, additions, and mean subtraction: 0
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


def separable_conv_macs(
    extents: tuple[int, ...], tap_counts: tuple[int, ...], channels: int
) -> int:
    sites = prod(extents)
    return channels * sites * sum(tap_counts)


def pointwise_macs(sites: int, cin: int, cout: int) -> int:
    return sites * cin * cout


def depthwise_macs(sites: int, channels: int, kernel_taps: int) -> int:
    return sites * channels * kernel_taps

