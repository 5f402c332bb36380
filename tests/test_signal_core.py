"""Grid, kernel, container, and resampling contracts.

Derived expected values are computed against independent oracles defined
in this file: a separable band projector and a separable resampler built
from explicit complex-exponential DFT matrices, a closed-form
periodic-sinc (Dirichlet) interpolation formula, and a double-loop
circular convolution.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrn.errors import FormatError, GridError, NumericError, ShapeError
from arrn.grids import GridSpec, ResolutionLadder
from arrn import macs
from arrn.kernels import MAX_TAPS, SmoothingKernelSpec, realized_taps
from arrn.macs import band_macs
from arrn.resample import (
    MATRIX_AXIS_MAX,
    ROW_TILE,
    _axis_matrix,
    check_bandlimited,
    decimate,
    decimate_array,
    downsample,
    downsample_adjoint_array,
    downsample_array,
    lowpass,
    lowpass_array,
    resample_perfect_array,
    resample_to,
    upsample,
    zero_insert_array,
)
from arrn.signal import (
    DiscreteSignal,
    atomic_write,
    mean_reject,
    read_arsg,
    write_arsg,
)

PERFECT = SmoothingKernelSpec.perfect()
SINC = SmoothingKernelSpec.windowed_sinc()
GAUSS = SmoothingKernelSpec.truncated_gaussian()


def sig1d(values, features=1):
    arr = np.asarray(values, dtype=np.float64).reshape(features, -1)
    return DiscreteSignal(GridSpec((arr.shape[1],)), arr)


def cosine1d(n, freq, phase=0.0):
    x = np.arange(n) / n
    return sig1d(np.cos(2 * np.pi * freq * x + phase))


def random_signal(grid, features=1, seed=0):
    rng = np.random.default_rng(seed)
    return DiscreteSignal(grid, rng.standard_normal((features,) + grid.extents))


# -- oracles ---------------------------------------------------------------


def band_projector(n, m):
    """The n x n perfect low-pass for band extent m, as DFT-matrix products.

    Bins with signed frequency ``|k| <= (m - 1) // 2`` are kept; for even
    ``m < n`` the Nyquist pair ``+m/2``, ``-m/2`` is replaced by its average.
    """
    if m >= n:
        return np.eye(n)
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
    signed = np.where(j <= n // 2, j, j - n)
    select = np.diag((np.abs(signed) <= (m - 1) // 2).astype(complex))
    if m % 2 == 0:
        pair = [m // 2, n - m // 2]
        select[np.ix_(pair, pair)] = 0.5
    return (dft.conj() @ select @ dft / n).real


def dft_oracle_lowpass(values, band_extents):
    """Separable band projection of the trailing ``len(band_extents)`` axes."""
    out = np.asarray(values, dtype=np.float64)
    for a, m in enumerate(band_extents):
        axis = out.ndim - len(band_extents) + a
        proj = band_projector(out.shape[axis], m)
        out = np.moveaxis(np.tensordot(proj, out, axes=([1], [axis])), 0, axis)
    return out


def resample_matrix(n, m):
    """The m x n perfect resampler, as complex DFT-matrix products.

    Signed frequencies ``|k| <= (min(n, m) - 1) // 2`` carry over. For an
    even ``min(n, m)`` with half-width h, shrinking sums the pair ``+h``,
    ``-h`` into one coarse bin and growing splits that bin evenly over the
    pair. Unnormalised forward transform at n, inverse at m, then ``1/n``.
    """
    fwd = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    inv = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
    select = np.zeros((m, n), dtype=complex)
    low = min(n, m)
    for k in range(-((low - 1) // 2), (low - 1) // 2 + 1):
        select[k % m, k % n] = 1
    if low % 2 == 0:
        h = low // 2
        if m < n:
            select[h, h] = select[h, n - h] = 1
        elif m > n:
            select[h, h] = select[m - h, h] = 0.5
        else:
            select[h, h] = 1
    return inv @ select @ fwd / n


def dft_oracle_resample(values, to_extents):
    """Separable complex resampling of the trailing axes; real part at the end."""
    out = np.asarray(values, dtype=complex)
    for a, m in enumerate(to_extents):
        axis = out.ndim - len(to_extents) + a
        mat = resample_matrix(out.shape[axis], m)
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [axis])), 0, axis)
    return out.real


def dirichlet_interp(coarse_values, m, n):
    """Closed-form periodic-sinc interpolation of 1-D samples from m to n sites.

    For even m the kernel is sin(pi*m*x) / (m*tan(pi*x)), for odd m it is
    sin(pi*m*x) / (m*sin(pi*x)); both tend to 1 at x = 0.
    """

    def kernel(x):
        x = x - round(x)  # periodic distance
        if abs(x) < 1e-15:
            return 1.0
        if m % 2 == 0:
            return math.sin(math.pi * m * x) / (m * math.tan(math.pi * x))
        return math.sin(math.pi * m * x) / (m * math.sin(math.pi * x))

    out = np.zeros(n)
    for i in range(n):
        for j in range(m):
            out[i] += coarse_values[j] * kernel(i / n - j / m)
    return out


def circular_convolve_oracle(x, taps):
    """Double-loop 1-D circular convolution with a symmetric odd tap vector."""
    n = len(x)
    half = (len(taps) - 1) // 2
    out = np.zeros(n)
    for i in range(n):
        for t in range(-half, half + 1):
            out[i] += taps[t + half] * x[(i - t) % n]
    return out


# -- grids -----------------------------------------------------------------


class TestGrids:
    def test_extent_validation(self):
        with pytest.raises(GridError):
            GridSpec((0,))
        with pytest.raises(GridError):
            GridSpec((4, 4, 4))

    def test_comparability(self):
        assert GridSpec((4,)).is_coarser_equal(GridSpec((8,)))
        assert not GridSpec((3,)).is_coarser_equal(GridSpec((8,)))
        assert GridSpec((4, 2)).is_coarser_equal(GridSpec((8, 8)))

    def test_ladder_requires_strict_decrease_and_divisibility(self):
        ResolutionLadder.from_extents([64, 32, 16])
        with pytest.raises(GridError):
            ResolutionLadder.from_extents([64, 64])
        with pytest.raises(GridError):
            ResolutionLadder.from_extents([64, 24])
        with pytest.raises(GridError):
            ResolutionLadder.from_extents([])
        assert len(ResolutionLadder.from_extents([64])) == 1

    def test_ladder_lookup(self):
        ladder = ResolutionLadder.from_extents([(32, 32), (16, 16), (8, 8)])
        assert ladder.index_of(GridSpec((16, 16))) == 1
        assert ladder.top_level == 2
        with pytest.raises(GridError):
            ladder.index_of(GridSpec((12, 12)))


# -- kernels ---------------------------------------------------------------


class TestKernels:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SmoothingKernelSpec(variant="windowed_sinc", taps_per_axis=4)
        with pytest.raises(ValueError):
            SmoothingKernelSpec(variant="boxcar")
        with pytest.raises(ValueError):
            SmoothingKernelSpec.truncated_gaussian(sigma_factor=-1.0)

    @pytest.mark.parametrize("taps", [9.5, 9.0, True])
    def test_tap_count_that_is_no_integer_is_rejected(self, taps):
        with pytest.raises(ValueError, match="taps_per_axis must be an integer"):
            SmoothingKernelSpec.windowed_sinc(taps)

    def test_numpy_tap_count_is_described_as_a_plain_int(self):
        desc = SmoothingKernelSpec.windowed_sinc(np.int64(9)).describe()
        assert json.dumps(desc) == '{"variant": "windowed_sinc", "taps_per_axis": 9}'

    @pytest.mark.parametrize("fields", [
        {"variant": "windowed_sinc", "taps_per_axis": MAX_TAPS + 2},
        {"variant": "windowed_sinc", "taps_per_axis": 999999999},
        {"variant": "truncated_gaussian", "sigma_factor": 1e20},
        {"variant": "truncated_gaussian", "radius_factor": 1e20},
        {"variant": "truncated_gaussian", "sigma_factor": 256.0,
         "radius_factor": np.nextafter(2.0, 3.0)},
        {"variant": "perfect", "sigma_factor": 1e20},
    ], ids=["sinc", "sinc-huge", "sigma", "radius", "just-over", "unused"])
    def test_taps_over_the_ceiling_are_rejected(self, fields):
        # Only the spec is built: no taps are realized.
        with pytest.raises(ValueError, match="must be <="):
            SmoothingKernelSpec(**fields)

    def test_the_ceiling_is_realizable(self):
        sinc = SmoothingKernelSpec.windowed_sinc(MAX_TAPS)
        gauss = SmoothingKernelSpec.truncated_gaussian(256.0, 2.0)
        assert len(sinc.realize(2)) <= MAX_TAPS
        assert len(gauss.realize(1)) == MAX_TAPS
        assert len(gauss.realize(4)) <= 4 * MAX_TAPS

    @pytest.mark.parametrize("kernel", [SINC, GAUSS])
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_unit_dc_gain(self, kernel, factor):
        taps = kernel.realize(factor)
        assert taps.sum() == pytest.approx(1.0, abs=1e-15)
        assert len(taps) % 2 == 1

    def test_windowed_sinc_factor_one_is_identity(self):
        taps = SINC.realize(1)
        np.testing.assert_allclose(taps, np.eye(len(taps))[(len(taps) - 1) // 2])

    def test_numpy_gaussian_factors_are_stored_as_python_floats(self):
        kernel = SmoothingKernelSpec.truncated_gaussian(np.float32(0.6), np.float64(2.0))
        assert type(kernel.sigma_factor) is float and type(kernel.radius_factor) is float
        assert kernel.sigma_factor == float(np.float32(0.6))
        assert json.loads(json.dumps(kernel.describe()))["radius_factor"] == 2.0

    @pytest.mark.parametrize("sigma", [1, np.int64(1)], ids=["int", "numpy-int"])
    def test_integer_gaussian_factors_are_kept_as_ints(self, sigma):
        kernel = SmoothingKernelSpec.truncated_gaussian(sigma, 3)
        text = json.dumps(kernel.describe())
        assert text == ('{"variant": "truncated_gaussian", "sigma_factor": 1, '
                        '"radius_factor": 3}')
        again = SmoothingKernelSpec.from_description(json.loads(text))
        assert json.dumps(again.describe()) == text

    def test_description_roundtrip(self):
        for kernel in (PERFECT, SINC, GAUSS):
            again = SmoothingKernelSpec.from_description(kernel.describe())
            assert again == kernel


# -- low-pass --------------------------------------------------------------


class TestLowpass:
    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS])
    def test_constant_passthrough(self, kernel):
        sig = sig1d(np.full(8, 3.25))
        out = lowpass(sig, GridSpec((4,)), kernel)
        np.testing.assert_allclose(out.values, 3.25, atol=1e-14)

    def test_out_of_band_cosine_zeroed(self):
        out = lowpass(cosine1d(8, 3), GridSpec((4,)), PERFECT)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_in_band_cosine_unchanged(self):
        sig = cosine1d(8, 1)
        out = lowpass(sig, GridSpec((4,)), PERFECT)
        np.testing.assert_allclose(out.values, sig.values, atol=1e-12)

    def test_matches_direct_dft_oracle(self):
        sig = random_signal(GridSpec((16,)), seed=3)
        out = lowpass(sig, GridSpec((4,)), PERFECT)
        np.testing.assert_allclose(
            out.values, dft_oracle_lowpass(sig.values, (4,)), atol=1e-12
        )

    def test_nyquist_cosine_survives_sine_rejected(self):
        # The coarse Nyquist pair carries one recoverable degree of freedom.
        cos = lowpass(cosine1d(8, 2), GridSpec((4,)), PERFECT)
        np.testing.assert_allclose(cos.values, cosine1d(8, 2).values, atol=1e-12)
        sin = lowpass(cosine1d(8, 2, phase=-np.pi / 2), GridSpec((4,)), PERFECT)
        np.testing.assert_allclose(sin.values, 0.0, atol=1e-12)

    def test_idempotent_projector(self):
        sig = random_signal(GridSpec((32,)), features=2, seed=1)
        once = lowpass(sig, GridSpec((8,)), PERFECT)
        twice = lowpass(once, GridSpec((8,)), PERFECT)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS])
    def test_mean_preserved(self, kernel):
        sig = random_signal(GridSpec((16, 8)), features=3, seed=2)
        out = lowpass(sig, GridSpec((4, 4)), kernel)
        np.testing.assert_allclose(
            out.values.mean(axis=(1, 2)), sig.values.mean(axis=(1, 2)), atol=1e-12
        )

    def test_approx_matches_spatial_convolution_oracle(self):
        sig = random_signal(GridSpec((16,)), seed=5)
        for kernel in (SINC, GAUSS):
            out = lowpass(sig, GridSpec((8,)), kernel)
            taps = kernel.realize(2)
            expected = circular_convolve_oracle(sig.values[0], taps)
            np.testing.assert_allclose(out.values[0], expected, atol=1e-12)

    def test_incomparable_grid_rejected(self):
        sig = random_signal(GridSpec((8,)))
        with pytest.raises(GridError):
            lowpass(sig, GridSpec((3,)), PERFECT)
        with pytest.raises(GridError):
            lowpass(sig, GridSpec((16,)), PERFECT)

    @pytest.mark.parametrize("kernel", [SINC, GAUSS])
    def test_array_lowpass_refuses_a_band_that_does_not_divide(self, kernel):
        # Bands 10 and 13 on 27 samples would both floor to the factor-2 taps.
        x = np.random.default_rng(6).standard_normal((1, 27))
        for band in ((10,), (13,)):
            with pytest.raises(GridError, match="not a per-axis divisor"):
                lowpass_array(x, band, kernel)
        grid = np.random.default_rng(7).standard_normal((2, 27, 12))
        with pytest.raises(GridError, match="not a per-axis divisor"):
            lowpass_array(grid, (9, 5), kernel)
        assert lowpass_array(grid, (9, 4), kernel).shape == grid.shape

    def test_perfect_array_lowpass_takes_any_band(self):
        x = np.random.default_rng(6).standard_normal((1, 27))
        out = lowpass_array(x, (10,), PERFECT)
        np.testing.assert_allclose(out, dft_oracle_lowpass(x, (10,)), atol=1e-12)
        grid = np.random.default_rng(7).standard_normal((2, 27, 12))
        np.testing.assert_allclose(
            lowpass_array(grid, (9, 5), PERFECT),
            dft_oracle_lowpass(grid, (9, 5)), atol=1e-12,
        )

    def test_nonfinite_values_rejected_at_construction(self):
        with pytest.raises(NumericError):
            sig1d([1.0, np.nan, 0.0, 0.0])


# -- decimate / upsample ---------------------------------------------------


class TestDecimateUpsample:
    def test_stride_subsample(self):
        sig = sig1d(np.arange(8.0))
        out = decimate(sig, GridSpec((4,)))
        np.testing.assert_array_equal(out.values, [[0.0, 2.0, 4.0, 6.0]])

    def test_same_grid_identity(self):
        sig = random_signal(GridSpec((8,)))
        np.testing.assert_array_equal(decimate(sig, sig.grid).values, sig.values)

    def test_2d_corner_samples(self):
        ramp = np.arange(16.0).reshape(1, 4, 4)
        sig = DiscreteSignal(GridSpec((4, 4)), ramp)
        out = decimate(sig, GridSpec((2, 2)))
        np.testing.assert_array_equal(out.values[0], [[0.0, 2.0], [8.0, 10.0]])

    def test_upsample_impulse_is_dirichlet_kernel(self):
        sig = sig1d([1.0, 0.0, 0.0, 0.0])
        out = upsample(sig, GridSpec((8,)))
        expected = dirichlet_interp(sig.values[0], 4, 8)
        np.testing.assert_allclose(out.values[0], expected, atol=1e-12)

    def test_upsample_constant(self):
        sig = sig1d(np.full(4, -1.5))
        out = upsample(sig, GridSpec((12,)))
        np.testing.assert_allclose(out.values, -1.5, atol=1e-12)

    def test_upsample_then_decimate_identity_any_signal(self):
        for seed in range(4):
            sig = random_signal(GridSpec((8,)), features=2, seed=seed)
            back = decimate(upsample(sig, GridSpec((32,))), sig.grid)
            np.testing.assert_allclose(back.values, sig.values, atol=1e-10)

    def test_upsample_nondivisible_target(self):
        # 12 -> 16 must work: spectral zero padding needs no divisibility.
        sig = random_signal(GridSpec((12,)), seed=9)
        out = upsample(sig, GridSpec((16,)))
        back = resample_to(out, sig.grid)
        np.testing.assert_allclose(back.values, sig.values, atol=1e-10)

    def test_upsample_rejects_coarser_target(self):
        sig = random_signal(GridSpec((8,)))
        with pytest.raises(GridError):
            upsample(sig, GridSpec((4,)))

    @pytest.mark.parametrize("fine, coarse", [((3,), (2,)), ((8,), (3,)),
                                              ((4, 6), (2, 4)), ((4,), (8,))])
    def test_array_ops_reject_a_target_that_does_not_divide(self, fine, coarse):
        with pytest.raises(GridError, match="not a per-axis divisor"):
            decimate_array(np.zeros((1,) + fine), coarse)
        with pytest.raises(GridError, match="not a per-axis divisor"):
            zero_insert_array(np.zeros((1,) + coarse), fine)


# -- downsample ------------------------------------------------------------


class TestDownsample:
    def test_roundtrip_on_retained_band(self):
        base = random_signal(GridSpec((8,)), seed=7)
        sig = lowpass(base, GridSpec((4,)), PERFECT)
        down = downsample(sig, GridSpec((4,)), PERFECT)
        up = upsample(down, GridSpec((8,)))
        np.testing.assert_allclose(up.values, sig.values, atol=1e-10)

    def test_fused_equals_lowpass_then_decimate(self):
        sig = random_signal(GridSpec((16, 16)), features=2, seed=11)
        for kernel in (PERFECT, SINC, GAUSS):
            fused = downsample(sig, GridSpec((4, 8)), kernel)
            reference = decimate(lowpass(sig, GridSpec((4, 8)), kernel), GridSpec((4, 8)))
            np.testing.assert_allclose(fused.values, reference.values, atol=1e-12)

    def test_gaussian_differs_from_perfect_on_noise(self):
        sig = random_signal(GridSpec((32,)), seed=13)
        a = downsample(sig, GridSpec((16,)), PERFECT)
        b = downsample(sig, GridSpec((16,)), GAUSS)
        assert np.max(np.abs(a.values - b.values)) > 0

    def test_constant_passthrough(self):
        sig = sig1d(np.full(16, 2.0))
        for kernel in (PERFECT, SINC, GAUSS):
            out = downsample(sig, GridSpec((4,)), kernel)
            np.testing.assert_allclose(out.values, 2.0, atol=1e-13)

    def test_incomparable_grid_rejected(self):
        sig = random_signal(GridSpec((16,)))
        with pytest.raises(GridError):
            downsample(sig, GridSpec((6,)), PERFECT)


# -- spectral core on drawn ladders -----------------------------------------

# Per-dtype tolerances, fixed beforehand: a few hundred ulps of unit-scale
# values, which FFT round-off at these extents stays well inside.
SPECTRAL_TOL = {np.float32: 1e-5, np.float64: 1e-12}

# (fine extents, band extents): odd, non-power-of-two and unequal 2-D steps.
LISTED_STEPS = [((27,), (9,)), ((9,), (3,)), ((36,), (12,)), ((12,), (4,)),
                ((24, 16), (12, 8)), ((12, 8), (6, 4))]


@st.composite
def drawn_step(draw):
    dims = draw(st.integers(1, 2))
    band = tuple(draw(st.integers(1, 12)) for _ in range(dims))
    fine = tuple(m * draw(st.integers(1, 4)) for m in band)
    return fine, band


# (from extents, to extents): up, down, non-divisible and mixed per axis,
# including odd leading axes in front of an even trailing one.
LISTED_RESAMPLES = [((27,), (9,)), ((9,), (27,)), ((12,), (9,)), ((9,), (12,)),
                    ((7, 12), (7, 6)), ((9, 8), (5, 6)), ((5, 6), (9, 8)),
                    ((9, 10), (6, 4)), ((6, 4), (9, 10)), ((15, 8), (10, 14))]


@st.composite
def drawn_resample(draw):
    dims = draw(st.integers(1, 2))
    extents = st.integers(1, 16)
    return (tuple(draw(extents) for _ in range(dims)),
            tuple(draw(extents) for _ in range(dims)))


SPECTRAL_CASE = dict(
    step=st.one_of(st.sampled_from(LISTED_STEPS), drawn_step()),
    lead=st.sampled_from([(), (2,), (2, 3)]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)


class TestSpectralCoreProperties:
    """Perfect-kernel resample, low-pass and adjoint on randomly drawn steps."""

    @settings(max_examples=60, deadline=None)
    @given(
        step=st.one_of(st.sampled_from(LISTED_RESAMPLES), drawn_resample()),
        lead=SPECTRAL_CASE["lead"],
        dtype=SPECTRAL_CASE["dtype"],
        seed=SPECTRAL_CASE["seed"],
    )
    def test_resample_matches_complex_dft_oracle(self, step, lead, dtype, seed):
        source, target = step
        x = np.random.default_rng(seed).standard_normal(lead + source).astype(dtype)
        out = resample_perfect_array(x, target)
        assert out.dtype == dtype and out.shape == lead + target
        assert out.flags.c_contiguous
        tol = SPECTRAL_TOL[dtype]
        np.testing.assert_allclose(
            out, dft_oracle_resample(x, target), rtol=tol, atol=tol
        )

    @settings(max_examples=60, deadline=None)
    @given(**SPECTRAL_CASE)
    def test_lowpass_matches_dft_matrix_oracle(self, step, lead, dtype, seed):
        fine, band = step
        x = np.random.default_rng(seed).standard_normal(lead + fine).astype(dtype)
        out = lowpass_array(x, band, PERFECT)
        assert out.dtype == dtype and out.shape == x.shape
        assert out.flags.c_contiguous
        tol = SPECTRAL_TOL[dtype]
        np.testing.assert_allclose(
            out, dft_oracle_lowpass(x, band), rtol=tol, atol=tol
        )

    @settings(max_examples=60, deadline=None)
    @given(**SPECTRAL_CASE)
    def test_downsample_adjoint_inner_products(self, step, lead, dtype, seed):
        fine, band = step
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + fine).astype(dtype)
        y = rng.standard_normal(lead + band).astype(dtype)
        down = downsample_array(x, band, PERFECT)
        adj = downsample_adjoint_array(y, fine, PERFECT)
        assert down.dtype == adj.dtype == dtype
        assert down.shape == lead + band and adj.shape == lead + fine
        assert down.flags.c_contiguous and adj.flags.c_contiguous
        lhs = np.vdot(down.astype(np.float64), y.astype(np.float64))
        rhs = np.vdot(x.astype(np.float64), adj.astype(np.float64))
        scale = np.linalg.norm(x) * np.linalg.norm(adj) + np.linalg.norm(
            down
        ) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= SPECTRAL_TOL[dtype] * scale


# Steps whose axes exceed MATRIX_AXIS_MAX run the FFT pair and tap
# convolution instead of a matrix; the 2-D one mixes a long and a short axis.
LONG_STEPS = [((300,), (100,)), ((260, 8), (130, 4))]


class TestLongAxisPath:
    """The spectral properties above, on axes too long for a matrix."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fine, band", LONG_STEPS)
    def test_resample_matches_complex_dft_oracle(self, fine, band, dtype):
        assert max(fine) > MATRIX_AXIS_MAX
        x = np.random.default_rng(1).standard_normal((2,) + fine).astype(dtype)
        tol = SPECTRAL_TOL[dtype]
        for source, target in ((x, band), (resample_perfect_array(x, band), fine)):
            out = resample_perfect_array(source, target)
            assert out.dtype == dtype and out.flags.c_contiguous
            np.testing.assert_allclose(
                out, dft_oracle_resample(source, target), rtol=tol, atol=tol
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fine, band", LONG_STEPS)
    def test_lowpass_matches_dft_matrix_oracle(self, fine, band, dtype):
        x = np.random.default_rng(2).standard_normal((2,) + fine).astype(dtype)
        out = lowpass_array(x, band, PERFECT)
        assert out.dtype == dtype and out.flags.c_contiguous
        tol = SPECTRAL_TOL[dtype]
        np.testing.assert_allclose(
            out, dft_oracle_lowpass(x, band), rtol=tol, atol=tol
        )

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS], ids=["perfect", "sinc", "gauss"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fine, band", LONG_STEPS)
    def test_downsample_adjoint_inner_products(self, fine, band, dtype, kernel):
        check_downsample_adjoint(fine, band, (2,), dtype, 3, kernel)

    @pytest.mark.parametrize("kernel", [SINC, GAUSS], ids=["sinc", "gauss"])
    @pytest.mark.parametrize("fine, band", LONG_STEPS)
    def test_approx_lowpass_matches_convolution_oracle(self, fine, band, kernel):
        x = np.random.default_rng(4).standard_normal((2,) + fine)
        np.testing.assert_allclose(
            lowpass_array(x, band, kernel),
            separable_convolve_oracle(x, band, kernel),
            atol=1e-12,
        )


def check_downsample_adjoint(fine, band, lead, dtype, seed, kernel):
    """<downsample x, y> equals <x, adjoint y> to the dtype's tolerance."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + fine).astype(dtype)
    y = rng.standard_normal(lead + band).astype(dtype)
    down = downsample_array(x, band, kernel)
    adj = downsample_adjoint_array(y, fine, kernel)
    assert down.dtype == adj.dtype == dtype
    assert down.shape == lead + band and adj.shape == lead + fine
    assert down.flags.c_contiguous and adj.flags.c_contiguous
    lhs = np.vdot(down.astype(np.float64), y.astype(np.float64))
    rhs = np.vdot(x.astype(np.float64), adj.astype(np.float64))
    scale = np.linalg.norm(x) * np.linalg.norm(adj) + np.linalg.norm(
        down
    ) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= SPECTRAL_TOL[dtype] * scale


def separable_convolve_oracle(x, band, kernel):
    """The double-loop convolution along each trailing axis, with the taps of
    that axis's factor down to its band."""
    out = np.asarray(x, dtype=np.float64)
    for a, m in enumerate(band):
        axis = out.ndim - len(band) + a
        taps = kernel.realize(out.shape[axis] // m)
        out = np.apply_along_axis(circular_convolve_oracle, axis, out, taps)
    return out


# (fine extents, band extents) whose taps outrun the axis and wrap onto it:
# the Gaussian realizes 11 taps at factor 4 and 5 at factor 1.
WRAPPING_STEPS = [((8,), (2,)), ((4,), (1,)), ((3,), (3,)), ((8, 4), (2, 1))]

APPROX_CASE = dict(
    step=st.one_of(st.sampled_from(WRAPPING_STEPS + LISTED_STEPS), drawn_step()),
    lead=st.sampled_from([(), (2,), (2, 3)]),
    dtype=st.sampled_from([np.float32, np.float64]),
    kernel=st.sampled_from([SINC, GAUSS, SmoothingKernelSpec.windowed_sinc(3)]),
    seed=st.integers(0, 2**16),
)


class TestApproximateKernelProperties:
    """Windowed-sinc and Gaussian low-pass and adjoint on randomly drawn steps."""

    @settings(max_examples=60, deadline=None)
    @given(**APPROX_CASE)
    def test_lowpass_matches_convolution_oracle(self, step, lead, dtype, kernel, seed):
        fine, band = step
        x = np.random.default_rng(seed).standard_normal(lead + fine).astype(dtype)
        out = lowpass_array(x, band, kernel)
        assert out.dtype == dtype and out.shape == x.shape
        assert out.flags.c_contiguous
        tol = SPECTRAL_TOL[dtype]
        np.testing.assert_allclose(
            out, separable_convolve_oracle(x, band, kernel), rtol=tol, atol=tol
        )

    @settings(max_examples=60, deadline=None)
    @given(**APPROX_CASE)
    def test_downsample_adjoint_inner_products(self, step, lead, dtype, kernel, seed):
        fine, band = step
        check_downsample_adjoint(fine, band, lead, dtype, seed, kernel)

    def test_taps_longer_than_the_axis_wrap(self):
        taps = GAUSS.realize(4)
        assert len(taps) > 8
        x = np.random.default_rng(5).standard_normal((1, 8))
        np.testing.assert_allclose(
            lowpass_array(x, (2,), GAUSS)[0],
            circular_convolve_oracle(x[0], taps),
            atol=1e-12,
        )


# -- band operators as cached matrices ----------------------------------------


def _slices_match(op, x):
    whole = op(x)
    assert whole.tobytes() == np.stack([op(row) for row in x]).tobytes()


class TestBandMatrices:
    @pytest.mark.parametrize("kernel", [PERFECT, SINC], ids=["perfect", "sinc"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fine, band", [((36,), (12,)), ((24, 16), (12, 8))])
    def test_a_stack_equals_its_slices_bitwise(self, fine, band, dtype, kernel):
        # Each slice carries channels, as a batch row of a feature map does.
        x = np.random.default_rng(6).standard_normal((5, 3) + fine).astype(dtype)
        y = downsample_array(x, band, kernel)
        _slices_match(lambda v: lowpass_array(v, band, kernel), x)
        _slices_match(lambda v: downsample_array(v, band, kernel), x)
        _slices_match(lambda v: downsample_adjoint_array(v, fine, kernel), y)
        _slices_match(lambda v: resample_perfect_array(v, fine), y)

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS], ids=["perfect", "sinc", "gauss"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 300])
    def test_a_1d_stack_equals_its_rows_bitwise(self, batch, dtype, kernel):
        # A (batch, n) stack has no channel axis: each row is a sample.
        fine, band = (64,), (16,)
        x = np.random.default_rng(9).standard_normal((batch,) + fine).astype(dtype)
        y = downsample_array(x, band, kernel)
        _slices_match(lambda v: lowpass_array(v, band, kernel), x)
        _slices_match(lambda v: downsample_array(v, band, kernel), x)
        _slices_match(lambda v: downsample_adjoint_array(v, fine, kernel), y)
        _slices_match(lambda v: resample_perfect_array(v, fine), y)

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS], ids=["perfect", "sinc", "gauss"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_matrices_are_read_only(self, kernel, dtype):
        mat = _axis_matrix(kernel, 16, 8, 8, np.dtype(dtype))
        assert mat is _axis_matrix(kernel, 16, 8, 8, np.dtype(dtype))
        assert mat.shape == (16, 8) and mat.dtype == dtype
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_perfect_matrix_whatever_the_unused_fields(self, dtype):
        other = SmoothingKernelSpec(PERFECT.variant, taps_per_axis=11)
        x = np.random.default_rng(8).standard_normal((2, 20)).astype(dtype)
        _axis_matrix.cache_clear()
        same = lowpass_array(x, (10,), PERFECT)
        assert lowpass_array(x, (10,), other).tobytes() == same.tobytes()
        assert _axis_matrix.cache_info().currsize == 1

    @pytest.mark.parametrize("kernel", [SINC, GAUSS], ids=["sinc", "gauss"])
    def test_realized_taps_are_cached_read_only(self, kernel):
        taps = realized_taps(kernel, 3)
        assert taps is realized_taps(kernel, 3)
        np.testing.assert_array_equal(taps, kernel.realize(3))
        with pytest.raises(ValueError):
            taps[0] = 1.0

    def test_import_loads_no_scipy_module(self):
        # Nor concurrent.futures, which only ablation_grid needs, or secrets.
        import arrn

        src = os.path.dirname(os.path.dirname(os.path.abspath(arrn.__file__)))
        code = ("import sys, arrn; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'concurrent', 'secrets')))")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "[]"


# Short, odd, 2-D, long and long-by-short steps.
PRICED_STEPS = [((27,), (9,)), ((24, 16), (12, 8)), ((128,), (64,)), ((256, 8), (64, 4))]


class TestBandPricing:
    """Every band operator records :func:`band_macs`, whichever way it runs."""

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS], ids=["perfect", "sinc", "gauss"])
    @pytest.mark.parametrize("fine, band", PRICED_STEPS)
    def test_each_call_records_its_band_price(self, fine, band, kernel):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3) + fine)
        y = rng.standard_normal((2, 3) + band)
        down = band_macs(kernel, fine, band, band, 6)
        priced = [
            (lambda: lowpass_array(x, band, kernel), band_macs(kernel, fine, band, fine, 6)),
            (lambda: downsample_array(x, band, kernel), down),
            # The adjoint is priced like its forward operator.
            (lambda: downsample_adjoint_array(y, fine, kernel), down),
            (lambda: resample_perfect_array(x, band), band_macs(PERFECT, fine, band, band, 6)),
            (lambda: resample_perfect_array(y, fine), band_macs(PERFECT, band, fine, fine, 6)),
        ]
        for op, price in priced:
            with macs.recording() as counter:
                op()
            assert price > 0 and counter.total == price

    def test_the_convention_by_hand(self):
        # 27 sites, ceil(log2 27) = 5; 9 sites, ceil(log2 9) = 4.
        assert band_macs(PERFECT, (27,), (9,), (27,), 2) == 2 * 2 * 27 * 5
        assert band_macs(PERFECT, (27,), (27,), (27,), 2) == 0
        assert band_macs(PERFECT, (27,), (9,), (9,), 2) == 2 * (27 * 5 + 9 * 4)
        assert band_macs(PERFECT, (9,), (27,), (27,), 2) == 2 * (9 * 4 + 27 * 5)
        # Taps at the factor fine // band on each axis; a 1-tap axis counts 0.
        assert len(realized_taps(SINC, 1)) == 1
        taps = len(realized_taps(SINC, 2))
        assert band_macs(SINC, (24, 16), (12, 16), (24, 16), 3) == 3 * 24 * 16 * taps
        assert band_macs(SINC, (24, 16), (12, 16), (12, 16), 3) == 3 * 24 * 16 * taps
        assert band_macs(SINC, (24, 16), (24, 16), (24, 16), 3) == 0


# -- bandlimited membership -------------------------------------------------


class TestCheckBandlimited:
    def test_projector_output_is_member(self):
        sig = random_signal(GridSpec((32,)), seed=17)
        smoothed = lowpass(sig, GridSpec((8,)), PERFECT)
        ok, dev = check_bandlimited(smoothed, GridSpec((8,)), PERFECT, tol=1e-10)
        assert ok and dev <= 1e-10

    def test_fullband_noise_is_not_member(self):
        sig = random_signal(GridSpec((32,)), seed=19)
        ok, dev = check_bandlimited(sig, GridSpec((8,)), PERFECT, tol=1e-10)
        assert not ok and dev > 1e-3

    def test_constant_is_member_of_any_band(self):
        sig = sig1d(np.full(32, 4.5))
        for kernel in (PERFECT, SINC, GAUSS):
            ok, _ = check_bandlimited(sig, GridSpec((4,)), kernel, tol=1e-12)
            assert ok

    def test_bandlimited_signal_roundtrips_through_decimation(self):
        for seed in range(3):
            sig = lowpass(
                random_signal(GridSpec((64,)), features=2, seed=seed),
                GridSpec((16,)),
                PERFECT,
            )
            back = upsample(decimate(sig, GridSpec((16,))), sig.grid)
            np.testing.assert_allclose(back.values, sig.values, atol=1e-10)


# -- mean rejection ----------------------------------------------------------


class TestMeanReject:
    def test_constant_to_zero(self):
        out = mean_reject(sig1d(np.full(8, 9.0)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_small_example(self):
        out = mean_reject(sig1d([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out.values[0], [-1.5, -0.5, 0.5, 1.5])

    def test_idempotent(self):
        sig = random_signal(GridSpec((16, 4)), features=2, seed=23)
        once = mean_reject(sig)
        twice = mean_reject(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_zero_mean_and_orthogonal_to_constant(self):
        sig = random_signal(GridSpec((32,)), features=3, seed=29)
        out = mean_reject(sig)
        assert np.all(np.abs(out.values.mean(axis=1)) <= 1e-12)
        ones = np.ones(32)
        for c in range(3):
            assert abs(np.dot(out.values[c], ones)) <= 1e-9


# -- container format --------------------------------------------------------


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_block_a_write(self, tmp_path):
        path = tmp_path / "sig.arsg"
        (tmp_path / "sig.arsg.tmp").mkdir()
        sig = random_signal(GridSpec((8,)))
        write_arsg(path, sig)
        np.testing.assert_array_equal(read_arsg(path).values, sig.values)

    def test_failed_publish_keeps_old_file_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.csv"
        atomic_write(path, "old\n")

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated"):
            atomic_write(path, b"new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestArsgFormat:
    def test_roundtrip_f64(self, tmp_path):
        sig = random_signal(GridSpec((8, 4)), features=3, seed=31)
        path = tmp_path / "sig.arsg"
        write_arsg(path, sig)
        again = read_arsg(path)
        assert again.grid == sig.grid
        assert again.dtype == np.float64
        np.testing.assert_array_equal(again.values, sig.values)

    def test_roundtrip_f32(self, tmp_path):
        sig = random_signal(GridSpec((16,)), seed=37).astype(np.float32)
        path = tmp_path / "sig.arsg"
        write_arsg(path, sig)
        again = read_arsg(path)
        assert again.dtype == np.float32
        np.testing.assert_array_equal(again.values, sig.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.arsg"
        path.write_bytes(b"NOPE99\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            read_arsg(path)

    def test_truncated_payload(self, tmp_path):
        sig = random_signal(GridSpec((8,)), seed=41)
        path = tmp_path / "sig.arsg"
        write_arsg(path, sig)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_arsg(path)

    def test_bad_dtype_code(self, tmp_path):
        import struct

        header = b"ARSG1\n" + struct.pack("<4I", 1, 4, 1, 7)
        path = tmp_path / "sig.arsg"
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_arsg(path)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            DiscreteSignal(GridSpec((4,)), np.zeros((1, 5)))
