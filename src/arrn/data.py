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

import math

import numpy as np

from .errors import FormatError, GridError, ShapeError
from .grids import GridSpec, ResolutionLadder, is_integer
from .kernels import SmoothingKernelSpec
from .resample import lowpass_array
from .signal import DiscreteSignal, atomic_write, read_arsg, read_file, write_arsg
from .signal import malformed, read_manifest, write_manifest


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
        for name in ("classes", "samples_per_class", "features", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # A level repeated in place adds a zero shell; the levels must
        # otherwise form a ladder.
        levels = [tuple(e) for e in self.level_extents]
        ResolutionLadder.from_extents(
            [e for i, e in enumerate(levels) if i == 0 or e != levels[i - 1]]
        )
        if self.classes < 2:
            raise ValueError("need at least two classes")
        for name in ("samples_per_class", "features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        elements = (
            self.classes * self.samples_per_class * self.features
            * math.prod(self.base_extents)
        )
        if elements > np.iinfo(np.intp).max:
            raise ValueError(f"the input array's {elements} elements cannot be indexed")
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


def band_shells(values: np.ndarray, level_extents) -> list[np.ndarray]:
    """Split into nested frequency shells: shell 0 is the coarsest band,
    shell j adds the detail between level j and level j-1 (finest last)."""
    extents = list(level_extents)
    shells: list[np.ndarray] = []
    current = values
    for coarse in extents[1:]:
        smoothed = lowpass_array(current, tuple(coarse), SmoothingKernelSpec.perfect())
        shells.append(current - smoothed)
        current = smoothed
    shells.append(current)
    return shells[::-1]


def band_rms(values: np.ndarray, level_extents) -> np.ndarray:
    """Per-shell root-mean-square energies, coarsest shell first.

    ``values`` may carry any leading (sample, channel) axes; the result
    collapses the spatial axes only.
    """
    shells = band_shells(values, level_extents)
    axes = tuple(range(-len(level_extents[0]), 0))
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

    total = spec.classes * spec.samples_per_class
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.samples_per_class)
    # Per sample, the stream gives its white noise, then its extra noise.
    draws = data_rng.standard_normal(
        (total, 1 + (spec.noise > 0), spec.features) + spec.base_extents
    )
    inputs = np.zeros(draws.shape[:1] + draws.shape[2:])
    lead = (slice(None),) + (None,) * (inputs.ndim - 1)
    for b, shell in enumerate(band_shells(draws[:, 0], spec.level_extents)):
        # Each sample's shell is scaled by its own RMS; a zero shell adds nothing.
        rms = np.sqrt(np.mean(shell.reshape(total, -1) ** 2, axis=1))[lead]
        nonzero = rms > 0
        scaled = signatures[labels, b][lead] * shell / np.where(nonzero, rms, 1.0)
        np.add(inputs, scaled, out=inputs, where=nonzero)
    if spec.noise > 0:
        inputs += spec.noise * draws[:, 1]

    # Per-class split so both halves keep the class balance.
    train = np.arange(total) % spec.samples_per_class < spec.train_per_class
    return SynthDataset(
        spec=spec,
        signatures=signatures,
        train=LabeledSignals(inputs[train], labels[train]),
        test=LabeledSignals(inputs[~train], labels[~train]),
    )


def check_labels(labels, rows: int, classes: int) -> None:
    """Raise ShapeError unless there is one label in ``[0, classes)`` per row."""
    if np.shape(labels) != (rows,):
        raise ShapeError(
            f"labels have shape {np.shape(labels)}, the {rows} input rows need ({rows},)"
        )
    if not np.isin(labels, np.arange(classes)).all():
        raise ShapeError(f"labels must be integers in [0, {classes})")


def oracle_predict(
    inputs: np.ndarray, signatures: np.ndarray, level_extents
) -> np.ndarray:
    """Nearest-signature labels from band energies alone (no learning).

    Works at any resolution whose band structure is a prefix of the
    generating one: shells finer than the input's grid are simply absent
    and are excluded from the distance.
    """
    in_extents = inputs.shape[inputs.ndim - len(level_extents[0]) :]
    usable = [
        e for e in level_extents if all(a <= b for a, b in zip(e, in_extents))
    ]
    if not usable:
        raise GridError(f"input {in_extents} is coarser than every ladder level")
    bands = len(usable)
    energies = band_rms(inputs, usable)  # (n, f, bands)
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
    write_manifest(directory / "dataset.json", manifest)


def load_dataset(directory: str | Path) -> SynthDataset:
    """Read a cache :func:`save_dataset` wrote. Each split must hold
    ``features`` rows per label on the spec's base grid, and its labels must
    pass :func:`check_labels`; anything else raises FormatError."""
    directory = Path(directory)
    with malformed(directory, "dataset cache"):
        manifest = read_manifest(directory / "dataset.json")
        spec = SynthDatasetSpec.from_description(manifest["spec"])
        signatures = np.asarray(manifest["signatures"], dtype=np.float64)
        if signatures.shape != (spec.classes, spec.bands):
            raise FormatError(
                f"{directory}: signatures of shape {signatures.shape}, not "
                f"(classes, bands) = {(spec.classes, spec.bands)}"
            )
        extents = spec.base_extents
        splits = {}
        for name in ("train", "test"):
            packed = read_arsg(directory / f"{name}.arsg")
            label_text = read_file(directory / f"{name}_labels.txt", "labels", text=True)
            labels = np.array(
                [int(line) for line in label_text.splitlines() if line.strip()],
                dtype=np.int64,
            )
            if packed.grid.extents != extents or packed.features % spec.features:
                raise FormatError(
                    f"{directory}: {name}.arsg holds {packed.features} rows of "
                    f"{packed.grid.extents}, not {spec.features}-channel samples "
                    f"of the base grid {extents}"
                )
            inputs = packed.values.reshape((-1, spec.features) + extents)
            check_labels(labels, len(inputs), spec.classes)
            splits[name] = LabeledSignals(inputs, labels)
    return SynthDataset(
        spec=spec, signatures=signatures, train=splits["train"], test=splits["test"]
    )
