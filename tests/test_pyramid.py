"""Pyramid decomposition, reconstruction, and skip-entry contracts.

Derived expectations come from two oracles: direct summation of stored
terms on a common grid, and an independent recomputation of the smoothing
chain without the fused storage path.
"""

import numpy as np
import pytest

from arrn.errors import GridError
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.pyramid import (
    decompose,
    decompose_adapted,
    load_pyramid,
    reconstruct,
    save_pyramid,
)
from arrn.resample import decimate, downsample, lowpass, upsample
from arrn.signal import DiscreteSignal

PERFECT = SmoothingKernelSpec.perfect()
GAUSS = SmoothingKernelSpec.truncated_gaussian()

LADDER = ResolutionLadder.from_extents([64, 32, 16])


def random_signal(grid, features=1, seed=0):
    rng = np.random.default_rng(seed)
    return DiscreteSignal(grid, rng.standard_normal((features,) + grid.extents))


def chain_oracle(signal, ladder, kernel):
    """Recompute the smoothing chain exactly as stored: smooth, split, decimate."""
    lows = [lowpass(signal, ladder[0], kernel)]
    diffs = []
    for level in range(1, len(ladder)):
        smoothed = lowpass(lows[-1], ladder[level], kernel)
        diffs.append(lows[-1].with_values(lows[-1].values - smoothed.values))
        lows.append(decimate(smoothed, ladder[level]))
    return diffs, lows


class TestDecompose:
    def test_constant_signal(self):
        sig = DiscreteSignal(LADDER[0], np.full((1, 64), 5.0))
        decomp = decompose(sig, LADDER, PERFECT)
        for diff in decomp.diffs:
            np.testing.assert_allclose(diff.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(decomp.low.values, 5.0, atol=1e-12)

    def test_bandlimited_input_gives_leading_zero_diffs(self):
        sig = lowpass(random_signal(LADDER[0], seed=1), LADDER[1], PERFECT)
        decomp = decompose(sig, LADDER, PERFECT)
        np.testing.assert_allclose(decomp.diffs[0].values, 0.0, atol=1e-12)
        assert np.max(np.abs(decomp.diffs[1].values)) > 1e-3

    def test_terms_sum_to_smoothed_input(self):
        sig = random_signal(LADDER[0], features=2, seed=2)
        decomp = decompose(sig, LADDER, PERFECT)
        total = upsample(decomp.low, LADDER[0]).values
        for diff in decomp.diffs:
            total = total + upsample(diff, LADDER[0]).values
        expected = lowpass(sig, LADDER[0], PERFECT).values
        np.testing.assert_allclose(total, expected, atol=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            decompose(random_signal(GridSpec((32,))), LADDER, PERFECT)

    def test_diff_count_invariant(self):
        sig = random_signal(LADDER[0], seed=3)
        assert len(decompose(sig, LADDER, PERFECT).diffs) == LADDER.top_level

    def test_storage_is_lossless_for_perfect_kernel(self):
        # Each stored diff, interpolated back to the finest grid, must equal
        # the same term computed without any decimation of the chain.
        sig = random_signal(LADDER[0], seed=4)
        decomp = decompose(sig, LADDER, PERFECT)
        low_full = lowpass(sig, LADDER[0], PERFECT)
        for i, stored in enumerate(decomp.diffs):
            smoothed = lowpass(low_full, LADDER[i + 1], PERFECT)
            full_diff = low_full.values - smoothed.values
            np.testing.assert_allclose(
                upsample(stored, LADDER[0]).values, full_diff, atol=1e-10
            )
            low_full = smoothed

    def test_band_disjoint_supports_for_perfect_kernel(self):
        sig = random_signal(LADDER[0], seed=5)
        decomp = decompose(sig, LADDER, PERFECT)
        for i, diff in enumerate(decomp.diffs):
            up = upsample(diff, LADDER[0])
            inside = lowpass(up, LADDER[i + 1], PERFECT)
            assert np.max(np.abs(inside.values)) <= 1e-10


class TestReconstruct:
    def test_top_level_is_low_term_alone(self):
        sig = random_signal(LADDER[0], seed=6)
        decomp = decompose(sig, LADDER, PERFECT)
        out = reconstruct(decomp, LADDER.top_level)
        np.testing.assert_array_equal(out.values, decomp.low.values)

    def test_perfect_equals_lowpass_at_level_one(self):
        for seed in range(3):
            sig = random_signal(LADDER[0], seed=seed)
            decomp = decompose(sig, LADDER, PERFECT)
            out = reconstruct(decomp, 1)
            expected = downsample(sig, LADDER[1], PERFECT)
            np.testing.assert_allclose(out.values, expected.values, atol=1e-10)

    def test_gaussian_matches_chain_oracle_not_perfect(self):
        sig = random_signal(LADDER[0], seed=7)
        decomp = decompose(sig, LADDER, GAUSS)
        out = reconstruct(decomp, 1)
        diffs, lows = chain_oracle(sig, LADDER, GAUSS)
        expected = upsample(lows[2], LADDER[1]).values + upsample(
            decimate(diffs[1], LADDER[1]), LADDER[1]
        ).values
        np.testing.assert_allclose(out.values, expected, atol=1e-10)
        perfect_ref = downsample(sig, LADDER[1], PERFECT)
        assert np.max(np.abs(out.values - perfect_ref.values)) > 1e-6

    def test_additive_telescoping(self):
        sig = random_signal(LADDER[0], features=2, seed=8)
        for kernel in (PERFECT, GAUSS):
            decomp = decompose(sig, LADDER, kernel)
            base = reconstruct(decomp, 0)
            for level in range(1, LADDER.top_level + 1):
                total = upsample(reconstruct(decomp, level), LADDER[0]).values
                for i in range(level):
                    total = total + upsample(decomp.diffs[i], LADDER[0]).values
                np.testing.assert_allclose(total, base.values, atol=1e-10)

    def test_level_out_of_range(self):
        decomp = decompose(random_signal(LADDER[0]), LADDER, PERFECT)
        with pytest.raises(GridError):
            reconstruct(decomp, 3)
        adapted = decompose_adapted(
            random_signal(LADDER[1], seed=1), LADDER, PERFECT
        )
        with pytest.raises(GridError):
            reconstruct(adapted, 0)

    @pytest.mark.parametrize("level", [0.0, 1.0, True, False])
    def test_level_that_is_not_an_integer(self, level):
        decomp = decompose(random_signal(LADDER[0]), LADDER, PERFECT)
        with pytest.raises(GridError):
            reconstruct(decomp, level)
        np.testing.assert_array_equal(
            reconstruct(decomp, np.int64(1)).values, reconstruct(decomp, 1).values
        )


class TestAdaptedEntry:
    def test_entry_zero_is_full_decompose(self):
        sig = random_signal(LADDER[0], seed=9)
        full = decompose(sig, LADDER, GAUSS)
        adapted = decompose_adapted(sig, LADDER, GAUSS)
        assert adapted.start_level == 0
        for a, b in zip(adapted.diffs, full.diffs):
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(adapted.low.values, full.low.values)

    def test_skip_matches_full_decompose_of_upsampled_input(self):
        for seed in range(3):
            coarse = random_signal(LADDER[1], seed=seed)
            adapted = decompose_adapted(coarse, LADDER, PERFECT)
            assert adapted.start_level == 1
            assert len(adapted.diffs) == 1
            full = decompose(upsample(coarse, LADDER[0]), LADDER, PERFECT)
            np.testing.assert_allclose(full.diffs[0].values, 0.0, atol=1e-10)
            np.testing.assert_allclose(
                adapted.diffs[0].values, full.diffs[1].values, atol=1e-10
            )
            np.testing.assert_allclose(
                adapted.low.values, full.low.values, atol=1e-10
            )

    def test_entry_at_coarsest_is_passthrough(self):
        coarse = random_signal(LADDER[2], seed=10)
        adapted = decompose_adapted(coarse, LADDER, GAUSS)
        assert adapted.diffs == ()
        np.testing.assert_array_equal(adapted.low.values, coarse.values)

    def test_unknown_grid_rejected(self):
        with pytest.raises(GridError):
            decompose_adapted(random_signal(GridSpec((24,))), LADDER, PERFECT)


class TestPyramidIO:
    def test_directory_roundtrip(self, tmp_path):
        sig = random_signal(LADDER[0], features=2, seed=11)
        decomp = decompose(sig, LADDER, GAUSS)
        save_pyramid(tmp_path / "pyr", decomp)
        again = load_pyramid(tmp_path / "pyr")
        assert again.ladder == decomp.ladder
        assert again.kernel == decomp.kernel
        assert again.start_level == 0
        for a, b in zip(again.diffs, decomp.diffs):
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(again.low.values, decomp.low.values)
