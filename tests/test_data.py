"""Synthetic task generation and the band-energy oracle."""

import numpy as np
import pytest

from arrn.data import (
    SynthDatasetSpec,
    band_rms,
    band_shells,
    generate_dataset,
    load_dataset,
    oracle_predict,
    save_dataset,
)
from arrn.errors import FormatError, GridError
from arrn.grids import GridSpec
from arrn.resample import resample_perfect_array
from arrn.signal import DiscreteSignal, read_arsg, write_arsg


class TestGeneration:
    def test_same_seed_is_bit_identical(self):
        spec = SynthDatasetSpec(classes=3, samples_per_class=8, seed=5)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        np.testing.assert_array_equal(a.train.inputs, b.train.inputs)
        np.testing.assert_array_equal(a.test.inputs, b.test.inputs)
        np.testing.assert_array_equal(a.signatures, b.signatures)

    def test_different_seed_differs(self):
        a = generate_dataset(SynthDatasetSpec(samples_per_class=4, seed=1))
        b = generate_dataset(SynthDatasetSpec(samples_per_class=4, seed=2))
        assert np.max(np.abs(a.train.inputs - b.train.inputs)) > 0

    def test_split_sizes_and_balance(self):
        spec = SynthDatasetSpec(classes=4, samples_per_class=10, train_fraction=0.8)
        ds = generate_dataset(spec)
        assert len(ds.train) == 32 and len(ds.test) == 8
        for cls in range(4):
            assert np.sum(ds.train.labels == cls) == 8
            assert np.sum(ds.test.labels == cls) == 2

    def test_coarse_band_signatures_are_separated(self):
        for seed in range(5):
            ds = generate_dataset(SynthDatasetSpec(classes=4, samples_per_class=2, seed=seed))
            coarse = np.sort(ds.signatures[:, 0])
            assert np.min(np.diff(coarse)) > 0.1

    def test_band_rms_matches_signature_when_noiseless(self):
        spec = SynthDatasetSpec(
            classes=2, samples_per_class=4, noise=0.0, seed=3,
            signatures=((0.5, 1.0, 0.25), (1.5, 0.1, 0.9)),
        )
        ds = generate_dataset(spec)
        rms = band_rms(ds.train.inputs, spec.level_extents).mean(axis=1)
        for i, label in enumerate(ds.train.labels):
            np.testing.assert_allclose(rms[i], ds.signatures[label], atol=1e-10)

    @pytest.mark.parametrize("spec", [
        SynthDatasetSpec(samples_per_class=16),
        SynthDatasetSpec(samples_per_class=16, noise=0.0),
        SynthDatasetSpec(level_extents=((32, 32), (16, 16), (8, 8)), features=4,
                         samples_per_class=4),
        SynthDatasetSpec(level_extents=((27,), (9,), (3,)), noise=0.3,
                         samples_per_class=8),
        SynthDatasetSpec(level_extents=((24, 16), (12, 8), (6, 4)), features=2,
                         noise=0.0, samples_per_class=4),
        # A level repeated: its shell is zero and must add nothing.
        SynthDatasetSpec(level_extents=((16,), (16,), (8,)), samples_per_class=4),
    ], ids=["64", "64-noiseless", "32x32-4f", "27-9-3", "24x16-2f", "zero-shell"])
    def test_matches_the_per_sample_loop_bit_for_bit(self, spec):
        ds = generate_dataset(spec)
        # The reference: one sample at a time from the same stream.
        roots = np.random.SeedSequence(spec.seed).spawn(2)
        rng = np.random.default_rng(roots[1])
        shape = (spec.features,) + spec.base_extents
        expected = []
        for cls in np.repeat(np.arange(spec.classes), spec.samples_per_class):
            white = rng.standard_normal(shape)
            sample = np.zeros(shape)
            for b, shell in enumerate(band_shells(white, spec.level_extents)):
                rms = np.sqrt(np.mean(shell**2))
                if rms > 0:
                    sample += ds.signatures[cls, b] * shell / rms
            if spec.noise > 0:
                sample += spec.noise * rng.standard_normal(shape)
            expected.append(sample)
        expected = np.stack(expected)
        train = np.arange(len(expected)) % spec.samples_per_class < spec.train_per_class
        assert ds.train.inputs.tobytes() == expected[train].tobytes()
        assert ds.test.inputs.tobytes() == expected[~train].tobytes()

    def test_signature_shape_validation(self):
        with pytest.raises(ValueError):
            SynthDatasetSpec(classes=2, signatures=((1.0, 2.0),))

    @pytest.mark.parametrize("features", [0, -1])
    def test_features_below_one_rejected(self, features):
        with pytest.raises(ValueError, match="features must be positive"):
            SynthDatasetSpec(features=features, samples_per_class=2)


class TestOracle:
    def test_perfect_accuracy_on_disjoint_noiseless_classes(self):
        spec = SynthDatasetSpec(
            classes=2, samples_per_class=16, noise=0.0, seed=7,
            signatures=((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        )
        ds = generate_dataset(spec)
        pred = oracle_predict(ds.test.inputs, ds.signatures, spec.level_extents)
        assert np.mean(pred == ds.test.labels) == 1.0

    def test_oracle_stays_above_chance_at_quarter_resolution(self):
        spec = SynthDatasetSpec(classes=4, samples_per_class=16, noise=0.1, seed=8)
        ds = generate_dataset(spec)
        low = resample_perfect_array(ds.test.inputs, (16,))
        pred = oracle_predict(low, ds.signatures, spec.level_extents)
        assert np.mean(pred == ds.test.labels) > 0.5  # chance is 0.25

    def test_oracle_uses_only_available_bands(self):
        spec = SynthDatasetSpec(classes=2, samples_per_class=8, noise=0.0, seed=9,
                                signatures=((0.4, 1.0, 1.0), (1.2, 1.0, 1.0)))
        ds = generate_dataset(spec)
        low = resample_perfect_array(ds.test.inputs, (16,))
        pred = oracle_predict(low, ds.signatures, spec.level_extents)
        assert np.mean(pred == ds.test.labels) == 1.0

    def test_input_coarser_than_every_level_is_rejected(self):
        spec = SynthDatasetSpec(classes=2, samples_per_class=4, seed=10)
        ds = generate_dataset(spec)
        low = resample_perfect_array(ds.test.inputs, (8,))
        with pytest.raises(GridError, match="coarser than every ladder level"):
            oracle_predict(low, ds.signatures, spec.level_extents)


class TestCache:
    def test_directory_roundtrip(self, tmp_path):
        spec = SynthDatasetSpec(classes=3, samples_per_class=6, seed=11)
        ds = generate_dataset(spec)
        save_dataset(tmp_path / "cache", ds)
        again = load_dataset(tmp_path / "cache")
        assert again.spec == spec
        np.testing.assert_array_equal(again.train.inputs, ds.train.inputs)
        np.testing.assert_array_equal(again.train.labels, ds.train.labels)
        np.testing.assert_array_equal(again.test.inputs, ds.test.inputs)
        np.testing.assert_array_equal(again.signatures, ds.signatures)

    def test_split_on_another_grid_rejected(self, tmp_path):
        # Twice the rows on half the grid: the element count is unchanged.
        save_dataset(tmp_path, generate_dataset(
            SynthDatasetSpec(classes=3, samples_per_class=6, seed=11)))
        train = read_arsg(tmp_path / "train.arsg")
        assert train.grid == GridSpec((64,))
        write_arsg(tmp_path / "train.arsg",
                   DiscreteSignal(GridSpec((32,)), train.values.reshape(-1, 32)))
        with pytest.raises(FormatError, match=r"train\.arsg holds 30 rows"):
            load_dataset(tmp_path)

    def test_split_rows_unlike_its_labels_rejected(self, tmp_path):
        save_dataset(tmp_path, generate_dataset(
            SynthDatasetSpec(classes=3, samples_per_class=6, seed=11)))
        labels = tmp_path / "test_labels.txt"
        labels.write_text(labels.read_text() + "0\n")
        with pytest.raises(FormatError, match="labels have shape"):
            load_dataset(tmp_path)

    def test_label_too_large_for_int64_rejected(self, tmp_path):
        save_dataset(tmp_path, generate_dataset(
            SynthDatasetSpec(classes=3, samples_per_class=6, seed=11)))
        (tmp_path / "train_labels.txt").write_text("99999999999999999999\n")
        with pytest.raises(FormatError, match="malformed dataset cache"):
            load_dataset(tmp_path)
