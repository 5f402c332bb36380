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

Array-level functions operate on the trailing ``spatial_ndim`` axes and
broadcast over any leading (batch, channel) axes. Signal-level wrappers
enforce the grid-comparability contracts.
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


def _axis_index(ndim: int, spatial_ndim: int, spatial_axis: int) -> int:
    return ndim - spatial_ndim + spatial_axis


def _leading(x: np.ndarray, spatial_ndim: int) -> int:
    return prod(x.shape[: x.ndim - spatial_ndim]) if x.ndim > spatial_ndim else 1


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
    band_extents: tuple[int, ...],
    out_extents: tuple[int, ...],
    spatial_ndim: int,
    adjoint: bool = False,
) -> np.ndarray:
    """Truncate each spatial axis to its band, then embed it at the output extent.

    One real transform pair per axis. The band scales live in the
    transforms' normalisation: ``norm="forward"`` divides by the input
    extent, so samples are preserved; the ``adjoint`` of downsampling uses
    ``norm="backward"`` with whole Nyquist bins.
    """
    out = x
    for a, (m, n) in enumerate(zip(band_extents, out_extents)):
        axis = _axis_index(x.ndim, spatial_ndim, a)
        out = _spectral_axis(out, axis, m, n, adjoint)
    return np.ascontiguousarray(out, dtype=x.dtype)


def resample_perfect_array(
    x: np.ndarray, to_extents: tuple[int, ...], spatial_ndim: int
) -> np.ndarray:
    """Spectral resampling of the trailing axes to arbitrary new extents.

    Axes may grow (Fourier zero padding, sample-value preserving) or
    shrink (band truncation with Nyquist-pair aliasing) independently; no
    divisibility between old and new extents is required.
    """
    from_extents = x.shape[x.ndim - spatial_ndim :]
    if tuple(from_extents) == tuple(to_extents):
        return x.copy()
    macs.add_macs(
        macs.spectral_resample_macs(
            tuple(from_extents), tuple(to_extents), _leading(x, spatial_ndim)
        )
    )
    return _spectral(x, tuple(to_extents), tuple(to_extents), spatial_ndim)


def lowpass_perfect_array(
    x: np.ndarray, band_extents: tuple[int, ...], spatial_ndim: int
) -> np.ndarray:
    """Orthogonal projection onto the band of ``band_extents``, same grid."""
    from_extents = x.shape[x.ndim - spatial_ndim :]
    if all(m >= n for m, n in zip(band_extents, from_extents)):
        return x.copy()
    macs.add_macs(
        2 * macs.fft_macs(tuple(from_extents)) * _leading(x, spatial_ndim)
    )
    return _spectral(x, tuple(band_extents), tuple(from_extents), spatial_ndim)


def convolve_taps_array(
    x: np.ndarray,
    factors: tuple[int, ...],
    kernel: SmoothingKernelSpec,
    spatial_ndim: int,
) -> np.ndarray:
    """Separable circular convolution with the kernel's taps for each factor."""
    taps_per_axis = [kernel.realize(f) for f in factors]
    counted = tuple(len(t) for t in taps_per_axis if len(t) > 1)
    if counted:
        from_extents = x.shape[x.ndim - spatial_ndim :]
        macs.add_macs(
            macs.separable_conv_macs(
                tuple(from_extents), counted, _leading(x, spatial_ndim)
            )
        )
    out = x
    for a, taps in enumerate(taps_per_axis):
        if len(taps) == 1:
            continue
        axis = _axis_index(x.ndim, spatial_ndim, a)
        out = ndimage.convolve1d(out, taps, axis=axis, mode="wrap")
    return np.ascontiguousarray(out, dtype=x.dtype)


def lowpass_array(
    x: np.ndarray,
    from_extents: tuple[int, ...],
    band_extents: tuple[int, ...],
    kernel: SmoothingKernelSpec,
    spatial_ndim: int,
) -> np.ndarray:
    if kernel.is_perfect:
        return lowpass_perfect_array(x, band_extents, spatial_ndim)
    factors = tuple(n // m for n, m in zip(from_extents, band_extents))
    return convolve_taps_array(x, factors, kernel, spatial_ndim)


def decimate_array(
    x: np.ndarray, factors: tuple[int, ...], spatial_ndim: int
) -> np.ndarray:
    """Stride subsampling anchored at index 0 on every axis."""
    if all(f == 1 for f in factors):
        return x.copy()
    index = [slice(None)] * (x.ndim - spatial_ndim)
    index += [slice(None, None, f) for f in factors]
    return np.ascontiguousarray(x[tuple(index)])


def zero_insert_array(
    x: np.ndarray, fine_extents: tuple[int, ...], spatial_ndim: int
) -> np.ndarray:
    """Adjoint of stride decimation: place samples at stride sites, zeros between."""
    lead = x.shape[: x.ndim - spatial_ndim]
    coarse = x.shape[x.ndim - spatial_ndim :]
    out = np.zeros(lead + tuple(fine_extents), dtype=x.dtype)
    index = [slice(None)] * len(lead)
    index += [slice(None, None, n // m) for n, m in zip(fine_extents, coarse)]
    out[tuple(index)] = x
    return out


def downsample_array(
    x: np.ndarray,
    to_extents: tuple[int, ...],
    kernel: SmoothingKernelSpec,
    spatial_ndim: int,
) -> np.ndarray:
    """Fused band reduction plus decimation as one linear operator.

    With the perfect kernel the coarse samples are assembled directly in
    the spectral domain (one transform per grid); approximate kernels
    convolve spatially and then take the stride subset.
    """
    from_extents = x.shape[x.ndim - spatial_ndim :]
    if kernel.is_perfect:
        return resample_perfect_array(x, tuple(to_extents), spatial_ndim)
    factors = tuple(n // m for n, m in zip(from_extents, to_extents))
    smoothed = convolve_taps_array(x, factors, kernel, spatial_ndim)
    return decimate_array(smoothed, factors, spatial_ndim)


def upsample_array(
    x: np.ndarray, to_extents: tuple[int, ...], spatial_ndim: int
) -> np.ndarray:
    """Whittaker-Shannon interpolation on the torus (spectral zero padding)."""
    return resample_perfect_array(x, tuple(to_extents), spatial_ndim)


def downsample_adjoint_array(
    g: np.ndarray,
    fine_extents: tuple[int, ...],
    kernel: SmoothingKernelSpec,
    spatial_ndim: int,
) -> np.ndarray:
    """Adjoint of :func:`downsample_array` (for reverse-mode gradients).

    The perfect spectral downsample embeds the coarse spectrum back into
    the fine layout with unit weights (full copies on the even-extent
    Nyquist pair, where the forward summed the aliases). The approximate
    path (symmetric convolution then stride) has adjoint zero-insertion
    followed by the same convolution.
    """
    coarse = g.shape[g.ndim - spatial_ndim :]
    if kernel.is_perfect:
        if tuple(coarse) == tuple(fine_extents):
            return g.copy()
        return _spectral(
            g, tuple(coarse), tuple(fine_extents), spatial_ndim, adjoint=True
        )
    stuffed = zero_insert_array(g, tuple(fine_extents), spatial_ndim)
    factors = tuple(n // m for n, m in zip(fine_extents, coarse))
    return convolve_taps_array(stuffed, factors, kernel, spatial_ndim)


# ---------------------------------------------------------------------------
# Signal-level wrappers with grid contracts.
# ---------------------------------------------------------------------------


def _require_coarser(signal: DiscreteSignal, to_grid: GridSpec) -> tuple[int, ...]:
    if not to_grid.is_coarser_equal(signal.grid):
        raise GridError(
            f"target grid {to_grid.extents} is not a per-axis divisor of "
            f"{signal.grid.extents}"
        )
    return signal.grid.stride_factors(to_grid)


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
    values = lowpass_array(
        signal.values, signal.grid.extents, target_level_grid.extents, kernel,
        signal.grid.dims,
    )
    return signal.with_values(values)


def decimate(signal: DiscreteSignal, to_grid: GridSpec) -> DiscreteSignal:
    """Keep the stride subset of samples coinciding with the coarse sites."""
    factors = _require_coarser(signal, to_grid)
    return DiscreteSignal(
        to_grid, decimate_array(signal.values, factors, signal.grid.dims)
    )


def downsample(
    signal: DiscreteSignal, to_grid: GridSpec, kernel: SmoothingKernelSpec
) -> DiscreteSignal:
    """Low-pass to the target band, then decimate; fused as one operator."""
    _require_coarser(signal, to_grid)
    return DiscreteSignal(
        to_grid,
        downsample_array(signal.values, to_grid.extents, kernel, signal.grid.dims),
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
    return DiscreteSignal(
        to_grid, upsample_array(signal.values, to_grid.extents, signal.grid.dims)
    )


def resample_to(signal: DiscreteSignal, to_grid: GridSpec) -> DiscreteSignal:
    """Perfect-kernel resampling to an arbitrary grid (up or down per axis)."""
    if to_grid.dims != signal.grid.dims:
        raise GridError("grids must share dimensionality")
    return DiscreteSignal(
        to_grid,
        resample_perfect_array(signal.values, to_grid.extents, signal.grid.dims),
    )


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
