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
* one FFT (or inverse FFT) over a grid of S sites, per channel:
  ``S*ceil(log2(S))``
* a band operator (:func:`band_macs`, the only band convention) keeps
  the band of a fine grid of S sites and yields an output grid, per
  channel. With the perfect kernel a low-pass (output grid = fine grid)
  costs one transform and its inverse at the fine grid, 0 when the band
  holds the whole grid; a resampling (output grid != fine grid) costs one
  transform at the fine grid plus one at the output grid. With any other
  kernel it is a separable convolution over the S fine sites, with axis
  ``a`` taking the T_a taps the kernel realizes at factor
  ``fine[a] // band[a]``: ``S*sum(T_a)``, where a 1-tap axis is the
  identity and counts 0. An adjoint is priced like its forward operator
  (inside a backward pass that count is discarded, as above)
* stride decimation, sample-preserving reshapes, normalization,
  activations, dropout, pooling, additions, and mean subtraction: 0
* parameter folds (:func:`arrn.autodiff.scale_rows`,
  :func:`arrn.autodiff.matmul`): 0. They act on parameters, not on the
  sample, so their cost does not grow with the batch or the grid

The band operators of :mod:`arrn.resample` run as one dense matrix
product per axis on axes up to ``MATRIX_AXIS_MAX`` samples, and as a real
FFT pair or tap convolution per axis on longer ones. Each is priced by
:func:`band_macs` whichever way an axis runs, so the counts stay
independent of how an axis is realized.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from math import prod

from .kernels import SmoothingKernelSpec, realized_taps


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


def band_macs(
    kernel: SmoothingKernelSpec,
    fine: tuple[int, ...],
    band: tuple[int, ...],
    out: tuple[int, ...],
    leading: int,
) -> int:
    """The one price of a band operator, or of its adjoint.

    It keeps band ``band`` of the ``fine`` grid and yields the ``out``
    grid, over ``leading`` channels (see the module docstring).
    """
    fine, band, out = tuple(fine), tuple(band), tuple(out)
    if not kernel.is_perfect:
        counts = (len(realized_taps(kernel, n // m)) for n, m in zip(fine, band))
        return leading * prod(fine) * sum(t for t in counts if t > 1)
    if out != fine:
        return leading * (fft_macs(fine) + fft_macs(out))
    if all(m >= n for n, m in zip(fine, band)):
        return 0
    return leading * 2 * fft_macs(fine)


def pointwise_macs(sites: int, cin: int, cout: int) -> int:
    return sites * cin * cout


def depthwise_macs(sites: int, channels: int, kernel_taps: int) -> int:
    return sites * channels * kernel_taps

