"""Band reduction and resampling on the periodic unit domain.

The perfect kernel follows one band rule, applied per axis to the
discrete Fourier coefficients. The band of extent ``M`` holds the integer
frequencies ``-floor(M/2) < k <= floor(M/2)``. Truncating a spectrum to
that band keeps those bins; for even ``M`` the two Nyquist-rate
coefficients ``+M/2`` and ``-M/2`` alias onto a single coarse bin, which
takes their sum. Embedding a band at a larger extent zero-pads it and
splits the Nyquist bin evenly over the pair again. Every perfect-kernel
operation is truncate-then-embed:

* resampling truncates or embeds each axis to its target extent;
* the low-pass truncates to the band and embeds back at the input
  extent, so an even band's Nyquist pair becomes its average (of the two
  Nyquist degrees of freedom, the cosine survives and the sine is
  rejected). This keeps real inputs real, makes the low-pass an
  orthogonal projector, and makes decimation and interpolation exact
  inverses on the retained band;
* the adjoint of downsampling embeds with full Nyquist copies.

The band projector is a tensor product of 1-D projectors, so every
operation runs as one ``scipy.fft.rfft``/``irfft`` pass per spatial
axis, each mapping real samples to real samples. A pass holds only bins
``0..n//2``, where the ``-m/2`` member of an even band's Nyquist pair is
``conj(X[m/2])``: truncation folds the pair to ``2 Re X[m/2]``,
embedding with a split halves the bin and the adjoint keeps it whole,
the inverse real transform supplying the mirror. The band scales
``m/n`` and ``n/m`` are carried by the transforms' normalisation, so no
in-band bin is rescaled.

Approximate kernels instead perform separable spatial circular
convolution with the realized taps (see :mod:`arrn.kernels`), followed by
stride decimation where a resolution change is requested.

Array-level functions take the extents of the grid they map to, act on
the trailing ``len(extents)`` axes of their array, read the source grid
from those axes' extents, and broadcast over any leading (batch, channel)
axes. Signal-level wrappers enforce the grid-comparability contracts.
"""

from __future__ import annotations

from math import prod

import numpy as np
from scipy import fft as sfft
from scipy import ndimage

from . import macs
from .errors import GridError
from .grids import GridSpec
from .kernels import SmoothingKernelSpec
from .signal import DiscreteSignal


def _spatial(x: np.ndarray, extents: tuple[int, ...]) -> tuple[int, ...]:
    """The extents of the trailing ``len(extents)`` axes of ``x``."""
    return x.shape[x.ndim - len(extents) :]


def _leading(x: np.ndarray, extents: tuple[int, ...]) -> int:
    return prod(x.shape[: x.ndim - len(extents)])


def _spectral_axis(
    x: np.ndarray, axis: int, m: int, n: int, adjoint: bool
) -> np.ndarray:
    """Keep the band of extent m on one axis, then resample it to extent n.

    The spectrum is edited in place where the axis shrinks or keeps its
    extent, and zero-padded explicitly where it grows.
    """
    extent = x.shape[axis]
    if m >= extent and n == extent:
        return x
    norm = "backward" if adjoint else "forward"
    spectrum = sfft.rfft(np.moveaxis(x, axis, -1), norm=norm)
    band = min(m, extent)
    nyq = band // 2
    if band < extent:
        spectrum[..., nyq + 1 : n // 2 + 1] = 0
        if band % 2 == 0:
            spectrum[..., nyq] = 2 * spectrum[..., nyq].real
    if n > extent:
        padded = np.zeros(spectrum.shape[:-1] + (n // 2 + 1,), spectrum.dtype)
        padded[..., : extent // 2 + 1] = spectrum
        spectrum = padded
    if band % 2 == 0 and band < n and not adjoint:
        spectrum[..., nyq] /= 2
    return np.moveaxis(sfft.irfft(spectrum, n=n, norm=norm), -1, axis)


def _spectral(
    x: np.ndarray,
    band: tuple[int, ...],
    out: tuple[int, ...],
    adjoint: bool = False,
) -> np.ndarray:
    """Truncate each trailing axis to its band, then embed it at the output extent.

    One real transform pair per axis. The band scales live in the
    transforms' normalisation: ``norm="forward"`` divides by the input
    extent, so samples are preserved; the ``adjoint`` of downsampling uses
    ``norm="backward"`` with whole Nyquist bins.
    """
    y = x
    for axis, m, n in zip(range(-len(out), 0), band, out):
        y = _spectral_axis(y, axis, m, n, adjoint)
    return np.ascontiguousarray(y, dtype=x.dtype)


def resample_perfect_array(x: np.ndarray, to_extents: tuple[int, ...]) -> np.ndarray:
    """Spectral resampling of the trailing axes to arbitrary new extents.

    Axes may grow (Fourier zero padding, sample-value preserving) or
    shrink (band truncation with Nyquist-pair aliasing) independently; no
    divisibility between old and new extents is required.
    """
    to_extents = tuple(to_extents)
    from_extents = _spatial(x, to_extents)
    if from_extents == to_extents:
        return x.copy()
    lead = _leading(x, to_extents)
    macs.add_macs(macs.spectral_resample_macs(from_extents, to_extents, lead))
    return _spectral(x, to_extents, to_extents)


def lowpass_perfect_array(x: np.ndarray, band_extents: tuple[int, ...]) -> np.ndarray:
    """Orthogonal projection onto the band of ``band_extents``, same grid."""
    from_extents = _spatial(x, band_extents)
    if all(m >= n for m, n in zip(band_extents, from_extents)):
        return x.copy()
    macs.add_macs(2 * macs.fft_macs(from_extents) * _leading(x, band_extents))
    return _spectral(x, tuple(band_extents), from_extents)


def convolve_taps_array(
    x: np.ndarray, band_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> np.ndarray:
    """Separable circular convolution with the kernel's taps for each band.

    Each trailing axis of extent ``n`` gets the taps of the decimation
    factor ``n // m`` down to its band extent ``m``.
    """
    from_extents = _spatial(x, band_extents)
    taps_per_axis = [
        kernel.realize(n // m) for n, m in zip(from_extents, band_extents)
    ]
    counted = tuple(len(t) for t in taps_per_axis if len(t) > 1)
    if counted:
        lead = _leading(x, band_extents)
        macs.add_macs(macs.separable_conv_macs(from_extents, counted, lead))
    out = x
    for axis, taps in zip(range(-len(band_extents), 0), taps_per_axis):
        if len(taps) > 1:
            out = ndimage.convolve1d(out, taps, axis=axis, mode="wrap")
    return np.ascontiguousarray(out, dtype=x.dtype)


def lowpass_array(
    x: np.ndarray, band_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> np.ndarray:
    if kernel.is_perfect:
        return lowpass_perfect_array(x, band_extents)
    return convolve_taps_array(x, band_extents, kernel)


def _strides(fine: tuple[int, ...], coarse: tuple[int, ...]) -> tuple[slice, ...]:
    """Per-axis stride slices from ``fine`` down to ``coarse``."""
    if any(m < 1 or n % m for n, m in zip(fine, coarse)):
        raise GridError(
            f"grid {tuple(coarse)} is not a per-axis divisor of {tuple(fine)}"
        )
    return tuple(slice(None, None, n // m) for n, m in zip(fine, coarse))


def decimate_array(x: np.ndarray, to_extents: tuple[int, ...]) -> np.ndarray:
    """Stride subsampling anchored at index 0 on every axis."""
    fine = _spatial(x, to_extents)
    strides = _strides(fine, to_extents)
    if tuple(fine) == tuple(to_extents):
        return x.copy()
    return np.ascontiguousarray(x[(...,) + strides])


def zero_insert_array(x: np.ndarray, fine_extents: tuple[int, ...]) -> np.ndarray:
    """Adjoint of stride decimation: place samples at stride sites, zeros between."""
    coarse = _spatial(x, fine_extents)
    strides = _strides(fine_extents, coarse)
    out = np.zeros(x.shape[: x.ndim - len(coarse)] + tuple(fine_extents), x.dtype)
    out[(...,) + strides] = x
    return out


def downsample_array(
    x: np.ndarray, to_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> np.ndarray:
    """Fused band reduction plus decimation as one linear operator.

    With the perfect kernel the coarse samples are assembled directly in
    the spectral domain (one transform per grid); approximate kernels
    convolve spatially and then take the stride subset.
    """
    if kernel.is_perfect:
        return resample_perfect_array(x, to_extents)
    return decimate_array(convolve_taps_array(x, to_extents, kernel), to_extents)


def downsample_adjoint_array(
    g: np.ndarray, fine_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> np.ndarray:
    """Adjoint of :func:`downsample_array` (for reverse-mode gradients).

    The perfect spectral downsample embeds the coarse spectrum back into
    the fine layout with unit weights (full copies on the even-extent
    Nyquist pair, where the forward summed the aliases). The approximate
    path (symmetric convolution then stride) has adjoint zero-insertion
    followed by the same convolution.
    """
    fine_extents = tuple(fine_extents)
    coarse = _spatial(g, fine_extents)
    if not kernel.is_perfect:
        return convolve_taps_array(zero_insert_array(g, fine_extents), coarse, kernel)
    if coarse == fine_extents:
        return g.copy()
    return _spectral(g, coarse, fine_extents, adjoint=True)


# ---------------------------------------------------------------------------
# Signal-level wrappers with grid contracts.
# ---------------------------------------------------------------------------


def _require_coarser(signal: DiscreteSignal, to_grid: GridSpec) -> None:
    if not to_grid.is_coarser_equal(signal.grid):
        raise GridError(
            f"target grid {to_grid.extents} is not a per-axis divisor of "
            f"{signal.grid.extents}"
        )


def lowpass(
    signal: DiscreteSignal, target_level_grid: GridSpec, kernel: SmoothingKernelSpec
) -> DiscreteSignal:
    """Convolve with the smoothing kernel whose cutoff matches the target grid.

    Returns a signal on the *input* grid. The perfect variant is the
    orthogonal band projector described in the module docstring;
    approximate variants perform spatial circular convolution with the
    realized taps.
    """
    _require_coarser(signal, target_level_grid)
    return signal.with_values(
        lowpass_array(signal.values, target_level_grid.extents, kernel)
    )


def decimate(signal: DiscreteSignal, to_grid: GridSpec) -> DiscreteSignal:
    """Keep the stride subset of samples coinciding with the coarse sites."""
    _require_coarser(signal, to_grid)
    return DiscreteSignal(to_grid, decimate_array(signal.values, to_grid.extents))


def downsample(
    signal: DiscreteSignal, to_grid: GridSpec, kernel: SmoothingKernelSpec
) -> DiscreteSignal:
    """Low-pass to the target band, then decimate; fused as one operator."""
    _require_coarser(signal, to_grid)
    return DiscreteSignal(
        to_grid, downsample_array(signal.values, to_grid.extents, kernel)
    )


def upsample(signal: DiscreteSignal, to_grid: GridSpec) -> DiscreteSignal:
    """Interpolate to a finer grid; exact on the source band.

    The target only needs per-axis extents >= the source extents (spectral
    zero padding has no divisibility requirement).
    """
    if to_grid.dims != signal.grid.dims or any(
        t < s for t, s in zip(to_grid.extents, signal.grid.extents)
    ):
        raise GridError(
            f"target grid {to_grid.extents} is not finer-or-equal to "
            f"{signal.grid.extents}"
        )
    values = resample_perfect_array(signal.values, to_grid.extents)
    return DiscreteSignal(to_grid, values)


def resample_to(signal: DiscreteSignal, to_grid: GridSpec) -> DiscreteSignal:
    """Perfect-kernel resampling to an arbitrary grid (up or down per axis)."""
    if to_grid.dims != signal.grid.dims:
        raise GridError("grids must share dimensionality")
    values = resample_perfect_array(signal.values, to_grid.extents)
    return DiscreteSignal(to_grid, values)


def check_bandlimited(
    signal: DiscreteSignal,
    level_grid: GridSpec,
    kernel: SmoothingKernelSpec,
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """Membership test for the kernel's invariant set at the given band.

    Returns ``(ok, max_deviation)`` where the deviation is the sup norm of
    ``lowpass(signal) - signal``.
    """
    smoothed = lowpass(signal, level_grid, kernel)
    deviation = float(np.max(np.abs(smoothed.values - signal.values)))
    return deviation <= tol, deviation
