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
* the adjoint of downsampling is the transpose of downsampling.

Approximate kernels instead perform separable spatial circular
convolution with the realized taps (see :mod:`arrn.kernels`), followed by
stride decimation where a resolution change is requested.

Every operator is a tensor product of 1-D operators, one per spatial
axis, each mapping real samples to real samples. An axis of at most
:data:`MATRIX_AXIS_MAX` samples runs its operator as a real
``n_in x n_out`` matrix, built once in f64 per kernel, extents and dtype
and cached read-only: the perfect kernel's by one real transform pair on
the identity, an approximate kernel's as the circulant of its taps, every
``f``-th column kept for a decimation by ``f``. On a 2-D grid the last
axis is a product ``x @ M`` and the one before it ``M.T @ x``, one matrix
product per trailing 2-D slice, which lies within one sample. On a 1-D
grid every row is multiplied alone, on the fixed row tiles of
:func:`tiled_rows`. On either grid a sample's result is the same bit for
bit whatever batch it is in. The adjoint is the transpose ``M.T``. A
longer axis runs one ``scipy.fft.rfft``/``irfft`` pass (the band scales
``m/n`` and ``n/m`` carried by the transforms' normalisation) or one
``scipy.ndimage.convolve1d``; scipy is imported only there.

Every low-pass, downsample, resampling and adjoint is one call of one
band operator, which takes the kernel spec, checks an approximate
kernel's strides and adds :func:`arrn.macs.band_macs` to the MAC count,
whichever way its axes run.

Array-level functions take the extents of the grid they map to, act on
the trailing ``len(extents)`` axes of their array, read the source grid
from those axes' extents, and broadcast over any leading (batch, channel)
axes. Signal-level wrappers enforce the grid-comparability contracts.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from . import macs
from .errors import GridError
from .grids import GridSpec
from .kernels import SmoothingKernelSpec, realized_taps
from .signal import DiscreteSignal

_PERFECT = SmoothingKernelSpec.perfect()

# Axes of at most this many samples (input or output) run their operator as
# a cached dense matrix; longer ones keep the FFT pair or tap convolution,
# whose cost grows as n log n or n * taps instead of n * n_out. On its own
# the matrix wins further out (2-core Xeon, f32, median of 30 calls, matrix
# vs FFT pair in us, 1-D (16, 8, n) perfect low-pass to band n/2: n=64 13 vs
# 58; 128 36 vs 81; 256 106 vs 131; 320 343 vs 266). But OpenBLAS splits a
# product of m * n * k > 2**18 multiplies over threads, and those stall on a
# loaded machine: a 256x256 decompose, whose 128-point axes are 128^3
# products, read 32 ms in 2 of 40 processes against 1.6-3.0 ms otherwise.
# At 64 the products of a 2-D map of up to 64x64, and the row tiles of a 1-D
# one, stay on the calling thread; 64 is also the longest axis the
# benchmark workloads run. Its second user, `layers.depthwise_conv_op`, runs
# a map whose axes are all at most 64 as banded (n, n) matrix products: on a
# 2-D map they beat its tap sum 2.5x at 64 but only 1.1x at 96 and 0.9x at
# 128 (f64, (2, 16, W, W)); a 1-D map runs them on the row tiles below.
MATRIX_AXIS_MAX = 64

# Rows per product of `tiled_rows`: a one-row batch pays for 16 rows, and a
# batch of B rows makes ceil(B / 16) BLAS calls per channel.
ROW_TILE = 16


def tiled_rows(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``out[b, c] = x[b, c] @ mats[c]`` for ``x`` of shape ``(B, C, n)`` and
    ``mats`` of shape ``(C, n, k)``, every product of one fixed shape.

    The batch is cut into tiles of :data:`ROW_TILE` rows, the last one
    completed with zero rows, and each product is one ``(ROW_TILE, n) @
    (n, k)`` GEMM over one channel of one tile. A row's result is then
    bitwise the same in any batch. One product over the whole batch is
    not: BLAS picks its kernel by the row count, so a 1-row batch takes
    another path, and some row counts round differently in f64. The full
    tiles are strided views of ``x`` and of the output, so only a last
    partial tile is copied.
    """
    batch, channels, n = x.shape
    out = np.empty((batch, channels, mats.shape[-1]), np.result_type(x, mats))
    mats = mats[:, None]

    def tiles(a):  # (T * ROW_TILE, C, m) -> its (C, T, ROW_TILE, m) view
        return a.reshape(-1, ROW_TILE, channels, a.shape[-1]).transpose(2, 0, 1, 3)

    full = batch - batch % ROW_TILE
    if full:
        np.matmul(tiles(x[:full]), mats, out=tiles(out[:full]))
    if full < batch:
        last = np.zeros((ROW_TILE, channels, n), out.dtype)
        last[: batch - full] = x[full:]
        last_out = np.empty((ROW_TILE,) + out.shape[1:], out.dtype)
        np.matmul(tiles(last), mats, out=tiles(last_out))
        out[full:] = last_out[: batch - full]
    return out


def _spatial(x: np.ndarray, extents: tuple[int, ...]) -> tuple[int, ...]:
    """The extents of the trailing ``len(extents)`` axes of ``x``."""
    return x.shape[x.ndim - len(extents) :]


def _leading(x: np.ndarray, extents: tuple[int, ...]) -> int:
    return prod(x.shape[: x.ndim - len(extents)])


def _spectral_axis(
    x: np.ndarray, axis: int, m: int, n: int, adjoint: bool, fft
) -> np.ndarray:
    """Keep the band of extent m on one axis, then resample it to extent n.

    One real transform pair from the ``fft`` module (``numpy.fft`` or
    ``scipy.fft``). A pass holds only bins ``0..n//2``, where the ``-m/2``
    member of an even band's Nyquist pair is ``conj(X[m/2])``: truncation
    folds the pair to ``2 Re X[m/2]``, embedding with a split halves the
    bin and the ``adjoint`` of truncation keeps it whole. ``norm="forward"``
    divides by the input extent, so samples are preserved; the adjoint
    uses ``norm="backward"``. The spectrum is edited in place where the
    axis shrinks or keeps its extent, and zero-padded where it grows.
    """
    extent = x.shape[axis]
    norm = "backward" if adjoint else "forward"
    spectrum = fft.rfft(np.moveaxis(x, axis, -1), norm=norm)
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
    return np.moveaxis(fft.irfft(spectrum, n=n, norm=norm), -1, axis)


@lru_cache(maxsize=128)
def _axis_matrix(
    kernel: SmoothingKernelSpec, n: int, m: int, k: int, dtype: np.dtype
) -> np.ndarray:
    """One axis's operator as a read-only ``n x k`` matrix ``M``, ``y = x @ M``.

    It keeps the band of extent ``m`` of an extent-``n`` axis and yields
    extent ``k``. The perfect kernel's is the spectral pass run on the
    identity. Any other kernel's is the circulant of its taps at factor
    ``n // m``, which wraps taps longer than the axis onto it, with every
    ``n // k``-th column kept.
    """
    if kernel.is_perfect:
        mat = _spectral_axis(np.eye(n), -1, m, k, False, np.fft)
    else:
        taps = realized_taps(kernel, n // m)
        half = len(taps) // 2
        # y[i] = sum_t taps[t] x[(i - t) % n]: x[j] enters y[i] with the sum
        # of the taps whose offset t is i - j modulo n.
        column = np.bincount(np.arange(-half, half + 1) % n, taps, minlength=n)
        sites = np.arange(n)
        mat = column[(sites[None, :] - sites[:, None]) % n][:, :: n // k]
    mat = np.ascontiguousarray(mat, dtype=dtype)
    mat.flags.writeable = False
    return mat


def _long_axis(
    x: np.ndarray,
    axis: int,
    kernel: SmoothingKernelSpec,
    n: int,
    m: int,
    k: int,
    adjoint: bool,
) -> np.ndarray:
    """:func:`_axis_matrix`'s operator (or its adjoint), without the matrix.

    ``scipy.fft`` rather than ``numpy.fft``: along the second-to-last axis
    of a 512x512 map its pass takes about a fifth less time.
    """
    from scipy import fft, ndimage

    if kernel.is_perfect:
        if adjoint:
            return _spectral_axis(x, axis, k, n, True, fft)
        return _spectral_axis(x, axis, m, k, False, fft)
    stride = (..., slice(None, None, n // k)) + (slice(None),) * (-1 - axis)
    if adjoint:
        fine = np.zeros(x.shape[:axis] + (n,) + x.shape[x.ndim + axis + 1 :], x.dtype)
        fine[stride] = x
        x = fine
    taps = realized_taps(kernel, n // m)
    if len(taps) > 1:
        x = ndimage.convolve1d(x, taps, axis=axis, mode="wrap")
    return x if adjoint else x[stride]


def _band_op(
    x: np.ndarray,
    kernel: SmoothingKernelSpec,
    fine: tuple[int, ...],
    band: tuple[int, ...],
    out: tuple[int, ...],
    adjoint: bool = False,
) -> np.ndarray:
    """One priced band operator, or its ``adjoint``; always a new C-ordered array.

    Axis ``a`` keeps band ``band[a]`` of extent ``fine[a]`` and yields
    extent ``out[a]``; the adjoint maps ``out`` back to ``fine``. An
    approximate kernel needs ``band`` and ``out`` to divide ``fine`` on
    every axis (:class:`GridError` otherwise); the perfect kernel takes
    any band. The
    call adds :func:`arrn.macs.band_macs` to the MAC count, then runs one
    axis operator per trailing axis, skipping an axis whose operator is
    the identity.
    """
    if kernel.is_perfect:
        kernel = _PERFECT  # one cached matrix whatever the unused fields
    else:
        _strides(fine, band)
        _strides(fine, out)
    macs.add_macs(macs.band_macs(kernel, fine, band, out, _leading(x, out)))
    dtype = np.result_type(x.dtype, np.float32)
    y = x
    for axis, n, m, k in zip(range(-len(out), 0), fine, band, out):
        if k == n and (
            m >= n if kernel.is_perfect else len(realized_taps(kernel, n // m)) == 1
        ):
            continue
        if max(n, k) > MATRIX_AXIS_MAX:
            y = _long_axis(y, axis, kernel, n, m, k, adjoint)
            continue
        mat = _axis_matrix(kernel, n, m, k, dtype)
        if adjoint:
            mat = mat.T
        if len(out) == 1:  # a 1-D grid: every row alone, on row tiles
            rows = y.reshape(-1, 1, y.shape[-1])
            y = tiled_rows(rows, mat[None]).reshape(y.shape[:-1] + mat.shape[-1:])
        elif axis == -1:
            y = y @ mat
        else:
            y = np.swapaxes(np.matmul(mat.T, np.swapaxes(y, axis, -2)), axis, -2)
    if y is x:
        return x.copy()
    return np.ascontiguousarray(y, dtype=x.dtype)


def resample_perfect_array(x: np.ndarray, to_extents: tuple[int, ...]) -> np.ndarray:
    """Spectral resampling of the trailing axes to arbitrary new extents.

    Axes may grow (Fourier zero padding, sample-value preserving) or
    shrink (band truncation with Nyquist-pair aliasing) independently; no
    divisibility between old and new extents is required.
    """
    return _band_op(x, _PERFECT, _spatial(x, to_extents), to_extents, to_extents)


def lowpass_array(
    x: np.ndarray, band_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> np.ndarray:
    """Reduction to the band of ``band_extents``, on the input grid.

    The perfect kernel's is the orthogonal band projector; an approximate
    kernel convolves each axis of extent ``n`` with its taps for the
    decimation factor ``n // m`` down to the band extent ``m``, which must
    divide ``n``.
    """
    fine = _spatial(x, band_extents)
    return _band_op(x, kernel, fine, band_extents, fine)


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

    With the perfect kernel this is spectral resampling; an approximate
    kernel's axis matrix keeps only the circulant's stride columns, so the
    dropped samples are never computed.
    """
    return _band_op(x, kernel, _spatial(x, to_extents), to_extents, to_extents)


def downsample_adjoint_array(
    g: np.ndarray, fine_extents: tuple[int, ...], kernel: SmoothingKernelSpec
) -> np.ndarray:
    """Adjoint of :func:`downsample_array` (for reverse-mode gradients).

    Each axis runs the transpose of the forward axis operator. For the
    perfect kernel that embeds the coarse spectrum back into the fine
    layout with unit weights (full copies on the even-extent Nyquist pair,
    where the forward summed the aliases); for an approximate kernel it is
    zero-insertion followed by the same symmetric convolution.
    """
    coarse = _spatial(g, fine_extents)
    return _band_op(g, kernel, fine_extents, coarse, coarse, adjoint=True)


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
