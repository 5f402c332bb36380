"""Synthetic multiscale classification task.

Each class is identified by a signature of per-band amplitudes over a
chain of nested frequency bands (shells) aligned with a resolution
ladder. A sample is white noise split into those shells, each shell
rescaled to its class amplitude, plus optional broadband noise. Band
energies are therefore sufficient statistics for the label, which gives
an analytic nearest-signature oracle, and the coarsest-band amplitudes
are always distinct across classes so labels remain partially
recoverable after heavy downsampling.

Generation is a pure function of the spec (including its seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import json

import numpy as np

from .errors import FormatError
from .grids import GridSpec
from .resample import lowpass_perfect_array
from .signal import DiscreteSignal, atomic_write, read_arsg, write_arsg


@dataclass(frozen=True)
class SynthDatasetSpec:
    """Shape of the synthetic task. ``level_extents`` mirrors a ladder,
    finest first; there is one frequency shell per level."""

    classes: int = 4
    level_extents: tuple[tuple[int, ...], ...] = ((64,), (32,), (16,))
    samples_per_class: int = 256
    noise: float = 0.1
    features: int = 1
    seed: int = 0
    train_fraction: float = 0.8
    signatures: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.signatures is not None:
            rows = len(self.signatures)
            if rows != self.classes or any(
                len(r) != self.bands for r in self.signatures
            ):
                raise ValueError(
                    f"signatures must be {self.classes} x {self.bands}"
                )

    @property
    def base_extents(self) -> tuple[int, ...]:
        return tuple(self.level_extents[0])

    @property
    def bands(self) -> int:
        return len(self.level_extents)

    @property
    def train_per_class(self) -> int:
        """Samples of each class in the train split; the rest are test."""
        return int(round(self.train_fraction * self.samples_per_class))

    def describe(self) -> dict:
        return {
            "classes": self.classes,
            "level_extents": [list(e) for e in self.level_extents],
            "samples_per_class": self.samples_per_class,
            "noise": self.noise,
            "features": self.features,
            "seed": self.seed,
            "train_fraction": self.train_fraction,
            "signatures": [list(s) for s in self.signatures]
            if self.signatures
            else None,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "SynthDatasetSpec":
        kwargs = dict(desc)
        kwargs["level_extents"] = tuple(tuple(e) for e in kwargs["level_extents"])
        if kwargs.get("signatures"):
            kwargs["signatures"] = tuple(tuple(s) for s in kwargs["signatures"])
        return cls(**kwargs)


@dataclass(frozen=True)
class LabeledSignals:
    inputs: np.ndarray  # (n, features, *base_extents)
    labels: np.ndarray  # (n,)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class SynthDataset:
    spec: SynthDatasetSpec
    signatures: np.ndarray  # (classes, bands)
    train: LabeledSignals
    test: LabeledSignals


def band_shells(
    values: np.ndarray, level_extents, spatial_ndim: int
) -> list[np.ndarray]:
    """Split into nested frequency shells: shell 0 is the coarsest band,
    shell j adds the detail between level j and level j-1 (finest last)."""
    extents = list(level_extents)
    shells: list[np.ndarray] = []
    current = values
    for coarse in extents[1:]:
        smoothed = lowpass_perfect_array(current, tuple(coarse), spatial_ndim)
        shells.append(current - smoothed)
        current = smoothed
    shells.append(current)
    return shells[::-1]


def band_rms(values: np.ndarray, level_extents, spatial_ndim: int) -> np.ndarray:
    """Per-shell root-mean-square energies, coarsest shell first.

    ``values`` may carry any leading (sample, channel) axes; the result
    collapses the spatial axes only.
    """
    shells = band_shells(values, level_extents, spatial_ndim)
    axes = tuple(range(values.ndim - spatial_ndim, values.ndim))
    return np.stack(
        [np.sqrt(np.mean(shell**2, axis=axes)) for shell in shells], axis=-1
    )


def _default_signatures(spec: SynthDatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Random signatures with guaranteed class separation in the coarse band.

    The coarsest-band amplitudes are a shuffled evenly spaced sweep, so any
    two classes differ there by at least the sweep step; finer bands get
    independent draws with a wider spread, which makes the fine bands the
    more discriminative ones at full resolution.
    """
    coarse = np.linspace(0.4, 1.2, spec.classes)
    rng.shuffle(coarse)
    sig = rng.uniform(0.2, 1.6, size=(spec.classes, spec.bands))
    sig[:, 0] = coarse
    return sig


def generate_dataset(spec: SynthDatasetSpec) -> SynthDataset:
    """Deterministically build the labeled train/test split for a spec."""
    roots = np.random.SeedSequence(spec.seed).spawn(2)
    sig_rng = np.random.default_rng(roots[0])
    data_rng = np.random.default_rng(roots[1])
    if spec.signatures is not None:
        signatures = np.asarray(spec.signatures, dtype=np.float64)
    else:
        signatures = _default_signatures(spec, sig_rng)

    dims = len(spec.base_extents)
    total = spec.classes * spec.samples_per_class
    inputs = np.zeros((total, spec.features) + spec.base_extents)
    labels = np.zeros(total, dtype=np.int64)
    idx = 0
    for cls in range(spec.classes):
        for _ in range(spec.samples_per_class):
            white = data_rng.standard_normal((spec.features,) + spec.base_extents)
            shells = band_shells(white, spec.level_extents, dims)
            sample = np.zeros_like(white)
            for b, shell in enumerate(shells):
                rms = np.sqrt(np.mean(shell**2))
                if rms > 0:
                    sample += signatures[cls, b] * shell / rms
            if spec.noise > 0:
                sample += spec.noise * data_rng.standard_normal(sample.shape)
            inputs[idx] = sample
            labels[idx] = cls
            idx += 1

    # Per-class split so both halves keep the class balance.
    train_idx, test_idx = [], []
    per_class = spec.samples_per_class
    cut = spec.train_per_class
    for cls in range(spec.classes):
        start = cls * per_class
        train_idx.extend(range(start, start + cut))
        test_idx.extend(range(start + cut, start + per_class))
    train_idx = np.array(train_idx, dtype=np.int64)
    test_idx = np.array(test_idx, dtype=np.int64)
    return SynthDataset(
        spec=spec,
        signatures=signatures,
        train=LabeledSignals(inputs[train_idx], labels[train_idx]),
        test=LabeledSignals(inputs[test_idx], labels[test_idx]),
    )


def oracle_predict(
    inputs: np.ndarray, signatures: np.ndarray, level_extents
) -> np.ndarray:
    """Nearest-signature labels from band energies alone (no learning).

    Works at any resolution whose band structure is a prefix of the
    generating one: shells finer than the input's grid are simply absent
    and are excluded from the distance.
    """
    spatial_ndim = len(level_extents[0])
    in_extents = inputs.shape[inputs.ndim - spatial_ndim :]
    usable = [
        e for e in level_extents if all(a <= b for a, b in zip(e, in_extents))
    ]
    bands = len(usable)
    energies = band_rms(inputs, usable, spatial_ndim)  # (n, f, bands)
    energies = energies.mean(axis=1)  # collapse channels
    ref = signatures[:, :bands]
    dist = ((energies[:, None, :] - ref[None, :, :]) ** 2).sum(axis=-1)
    return np.argmin(dist, axis=1)


# ---------------------------------------------------------------------------
# Dataset cache: one ARSG per split plus labels and a manifest.
# ---------------------------------------------------------------------------


def save_dataset(directory: str | Path, dataset: SynthDataset) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = GridSpec(dataset.spec.base_extents)
    for name, split in (("train", dataset.train), ("test", dataset.test)):
        n, f = split.inputs.shape[:2]
        packed = split.inputs.reshape((n * f,) + grid.extents)
        write_arsg(directory / f"{name}.arsg", DiscreteSignal(grid, packed))
        labels_text = "\n".join(str(int(l)) for l in split.labels) + "\n"
        atomic_write(directory / f"{name}_labels.txt", labels_text)
    manifest = {
        "spec": dataset.spec.describe(),
        "signatures": dataset.signatures.tolist(),
    }
    atomic_write(
        directory / "dataset.json",
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def load_dataset(directory: str | Path) -> SynthDataset:
    directory = Path(directory)
    manifest_path = directory / "dataset.json"
    if not manifest_path.exists():
        raise FormatError(f"{directory}: missing dataset.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        spec = SynthDatasetSpec.from_description(manifest["spec"])
        signatures = np.asarray(manifest["signatures"], dtype=np.float64)
        splits = {}
        for name in ("train", "test"):
            try:
                packed = read_arsg(directory / f"{name}.arsg")
                label_text = (directory / f"{name}_labels.txt").read_text()
            except OSError as exc:
                raise FormatError(f"{directory}: unreadable {name} split: {exc}") from exc
            labels = np.array(
                [int(line) for line in label_text.splitlines() if line.strip()],
                dtype=np.int64,
            )
            n = labels.shape[0]
            inputs = packed.values.reshape(
                (n, spec.features) + spec.base_extents
            )
            splits[name] = LabeledSignals(inputs, labels)
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{directory}: malformed dataset cache: {exc}") from exc
    return SynthDataset(
        spec=spec, signatures=signatures, train=splits["train"], test=splits["test"]
    )
