"""Resolution sweeps, compute accounting, and the kernel/dropout ablation.

Low-resolution test inputs are always synthesized by perfect-kernel
downsampling of the base-resolution test signals, independent of the
model's own smoothing kernel. ``full`` mode interpolates each input back
to the finest grid and evaluates every residual; ``adapted`` mode routes
through :func:`arrn.model.entry_level` and skips the residuals above the
entry level.

MAC totals follow the conventions in :mod:`arrn.macs`; the closed-form
counts here must match the instrumented counter exactly (asserted in the
test suite), and they are what the sweep CSV reports (per sample, i.e.
batch size one). Wall-clock times are measured only when requested so
that CSV outputs can be byte-reproducible.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import macs
from .data import SynthDataset, SynthDatasetSpec, generate_dataset
from .errors import GridError
from .grids import GridSpec, ResolutionLadder
from .kernels import SmoothingKernelSpec
from .layers import FeatureMap
from .model import (
    PREFER_FINER,
    ArrnModel,
    entry_level,
    forward_adapted,
    forward_full,
)
from .resample import resample_perfect_array
from .signal import atomic_write
from .training import TrainConfig, train

SWEEP_CSV_HEADER = "resolution,mode,kernel,dropout,accuracy,macs,wall_ms"

FULL = "full"
ADAPTED = "adapted"


@dataclass(frozen=True)
class SweepRow:
    resolution: str
    mode: str
    kernel: str
    dropout: str
    accuracy: float
    macs: int
    wall_ms: float


@dataclass(frozen=True)
class EvalSweepResult:
    rows: tuple[SweepRow, ...]

    def accuracy_at(self, resolution: str, mode: str) -> float:
        for row in self.rows:
            if row.resolution == resolution and row.mode == mode:
                return row.accuracy
        raise KeyError(f"no row for ({resolution}, {mode})")

    def mean_accuracy(self, mode: str | None = None) -> float:
        rows = [r for r in self.rows if mode is None or r.mode == mode]
        return float(np.mean([r.accuracy for r in rows]))


# ---------------------------------------------------------------------------
# Closed-form MAC counts (must mirror the instrumented execution exactly).
# ---------------------------------------------------------------------------


def _taps_counts(
    kernel: SmoothingKernelSpec, factors: tuple[int, ...]
) -> tuple[int, ...]:
    return tuple(
        n for n in (len(kernel.realize(f)) for f in factors) if n > 1
    )


def _lowpass_macs(
    kernel: SmoothingKernelSpec, fine: GridSpec, band: GridSpec, channels: int
) -> int:
    if kernel.is_perfect:
        if all(b >= f for b, f in zip(band.extents, fine.extents)):
            return 0
        return channels * 2 * macs.fft_macs(fine.extents)
    counted = _taps_counts(kernel, fine.stride_factors(band))
    if not counted:
        return 0
    return macs.separable_conv_macs(fine.extents, counted, channels)


def _downsample_macs(
    kernel: SmoothingKernelSpec, fine: GridSpec, coarse: GridSpec, channels: int
) -> int:
    if kernel.is_perfect:
        return macs.spectral_resample_macs(fine.extents, coarse.extents, channels)
    counted = _taps_counts(kernel, fine.stride_factors(coarse))
    if not counted:
        return 0
    return macs.separable_conv_macs(fine.extents, counted, channels)


def count_macs(model: ArrnModel, entry: int = 0, mode: str = ADAPTED) -> int:
    """Single-sample multiply-accumulate total for one evaluation path.

    ``mode="full"`` is the all-residual path from the finest grid;
    ``mode="adapted"`` enters at ladder level ``entry`` through the
    composed projection (entry 0 is definitionally the full path).
    """
    ladder = model.ladder
    total = 0
    if mode == FULL or entry == 0:
        total += _lowpass_macs(
            model.kernel, ladder[0], ladder[0], model.input_features
        )
        total += macs.pointwise_macs(
            ladder[0].num_samples, model.input_features, model.features[0]
        )
        start = 0
    elif mode == ADAPTED:
        total += macs.pointwise_macs(
            ladder[entry].num_samples, model.input_features, model.features[entry]
        )
        start = entry
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for i in range(start, len(model.residuals)):
        res = model.residuals[i]
        fine, coarse = ladder[i], ladder[i + 1]
        total += _lowpass_macs(model.kernel, fine, coarse, res.in_features)
        total += res.block.count_macs(fine.num_samples)
        total += _downsample_macs(model.kernel, fine, coarse, res.in_features)
        total += macs.pointwise_macs(
            coarse.num_samples, res.in_features, res.out_features
        )
    top_sites = ladder[ladder.top_level].num_samples
    total += macs.pointwise_macs(
        top_sites, model.features[-1], model.features[-1]
    )
    total += model.head.count_macs(top_sites)
    return total


# ---------------------------------------------------------------------------
# Accuracy sweeps.
# ---------------------------------------------------------------------------


def _resolution_grid(resolution, dims: int) -> GridSpec:
    if isinstance(resolution, GridSpec):
        return resolution
    if isinstance(resolution, int):
        return GridSpec((resolution,) * dims)
    return GridSpec(tuple(resolution))


def _batched_logits(model, values, grid, adapted_entry, batch_size):
    out = []
    elapsed = 0.0
    for start in range(0, values.shape[0], batch_size):
        chunk = values[start : start + batch_size]
        fmap = FeatureMap(grid, chunk)
        t0 = time.perf_counter()
        if adapted_entry is None:
            logits = forward_full(model, fmap)
        else:
            logits = forward_adapted(model, fmap)
        elapsed += time.perf_counter() - t0
        out.append(logits)
    return np.concatenate(out), elapsed


def evaluate_sweep(
    model: ArrnModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    resolutions,
    modes=(FULL, ADAPTED),
    policy: str = PREFER_FINER,
    dropout_label: str = "off",
    measure_time: bool = True,
    batch_size: int = 256,
) -> EvalSweepResult:
    """Accuracy / MAC / time table over synthetic lower resolutions.

    ``inputs`` are base-resolution test signals ``(n, channels, *extents)``.
    """
    dims = model.ladder[0].dims
    base = model.ladder[0]
    rows = []
    for resolution in resolutions:
        grid = _resolution_grid(resolution, dims)
        if any(g > b for g, b in zip(grid.extents, base.extents)):
            raise GridError(f"resolution {grid} exceeds the base grid {base}")
        low = resample_perfect_array(inputs, grid.extents, dims).astype(model.dtype)
        for mode in modes:
            if mode == FULL:
                values = resample_perfect_array(low, base.extents, dims).astype(
                    model.dtype
                )
                logits, elapsed = _batched_logits(
                    model, values, base, None, batch_size
                )
                macs_total = count_macs(model, 0, FULL)
            elif mode == ADAPTED:
                level, target = entry_level(model.ladder, grid, policy)
                values = resample_perfect_array(
                    low, target.extents, dims
                ).astype(model.dtype)
                logits, elapsed = _batched_logits(
                    model, values, target, level, batch_size
                )
                macs_total = count_macs(model, level, ADAPTED)
            else:
                raise ValueError(f"unknown mode {mode!r}")
            accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
            rows.append(
                SweepRow(
                    resolution=str(grid),
                    mode=mode,
                    kernel=model.kernel.variant,
                    dropout=dropout_label,
                    accuracy=accuracy,
                    macs=macs_total,
                    wall_ms=elapsed * 1000.0 if measure_time else 0.0,
                )
            )
    return EvalSweepResult(tuple(rows))


def write_sweep_csv(path: str | Path, rows) -> None:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.resolution},{r.mode},{r.kernel},{r.dropout},"
            f"{r.accuracy!r},{r.macs},{r.wall_ms!r}"
        )
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Kernel x dropout x adaptation ablation.
# ---------------------------------------------------------------------------

KERNEL_CHOICES = {
    "perfect": SmoothingKernelSpec.perfect,
    "windowed_sinc": SmoothingKernelSpec.windowed_sinc,
    "truncated_gaussian": SmoothingKernelSpec.truncated_gaussian,
}


@dataclass(frozen=True)
class AblationCell:
    kernel: str
    dropout: str  # "on" / "off"
    mode: str
    accuracy: float  # mean over seeds and resolutions


def _train_one_cell(
    kernel_name: str,
    dropout_on: bool,
    seed: int,
    dataset: SynthDataset,
    ladder: ResolutionLadder,
    features: tuple[int, ...],
    base_config: TrainConfig,
    resolutions,
    dropout_p: float,
    policy: str,
):
    kernel = KERNEL_CHOICES[kernel_name]()
    model = ArrnModel(
        ladder=ladder,
        input_features=dataset.spec.features,
        features=features,
        classes=dataset.spec.classes,
        kernel=kernel,
        rng=np.random.default_rng(seed),
        dtype=base_config.numpy_dtype,
    )
    config = replace(
        base_config, dropout=dropout_p if dropout_on else None, seed=seed
    )
    train(model, dataset.train.inputs, dataset.train.labels, config)
    sweep = evaluate_sweep(
        model,
        dataset.test.inputs,
        dataset.test.labels,
        resolutions,
        modes=(FULL, ADAPTED),
        policy=policy,
        dropout_label="on" if dropout_on else "off",
        measure_time=False,
    )
    return kernel_name, dropout_on, sweep


def default_thread_count() -> int:
    try:
        return max(1, int(os.environ.get("ARRN_THREADS", "1")))
    except ValueError:
        return 1


def ablation_grid(
    dataset_spec: SynthDatasetSpec,
    ladder: ResolutionLadder,
    features: tuple[int, ...],
    base_config: TrainConfig,
    seeds=(0, 1, 2),
    resolutions=None,
    dropout_p: float = 0.3,
    kernels=("perfect", "windowed_sinc", "truncated_gaussian"),
    policy: str = PREFER_FINER,
    threads: int | None = None,
) -> tuple[list[AblationCell], list[dict]]:
    """Train every (kernel, dropout) cell per seed and tabulate both modes.

    Returns the 12-cell table (kernel x dropout x mode, accuracy averaged
    over seeds and resolutions) and the decision-tree ratio rows: each
    node's mean accuracy and its multiplicative change relative to its
    parent node.
    """
    if resolutions is None:
        resolutions = [g.extents if g.dims > 1 else g.extents[0] for g in ladder.levels]
    jobs = []
    for seed in seeds:
        desc = dataset_spec.describe()
        desc["seed"] = seed
        dataset = generate_dataset(SynthDatasetSpec.from_description(desc))
        for kernel_name in kernels:
            for dropout_on in (True, False):
                jobs.append((kernel_name, dropout_on, seed, dataset))
    workers = threads if threads is not None else default_thread_count()
    results = []

    def run(job):
        kernel_name, dropout_on, seed, dataset = job
        return _train_one_cell(
            kernel_name, dropout_on, seed, dataset, ladder, features,
            base_config, resolutions, dropout_p, policy,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    # Aggregate into 12 cells.
    buckets: dict[tuple[str, str, str], list[float]] = {}
    for kernel_name, dropout_on, sweep in results:
        for mode in (FULL, ADAPTED):
            key = (kernel_name, "on" if dropout_on else "off", mode)
            buckets.setdefault(key, []).append(sweep.mean_accuracy(mode))
    cells = [
        AblationCell(k, d, m, float(np.mean(buckets[(k, d, m)])))
        for k in kernels
        for d in ("on", "off")
        for m in (FULL, ADAPTED)
    ]

    # Decision-tree ratios: filter choice, then dropout, then adaptation.
    def mean_of(predicate):
        return float(np.mean([c.accuracy for c in cells if predicate(c)]))

    tree: list[dict] = []
    root = mean_of(lambda c: True)
    tree.append({"node": "root", "mean_accuracy": root, "ratio": 1.0})
    for k in kernels:
        k_mean = mean_of(lambda c: c.kernel == k)
        tree.append(
            {"node": f"kernel={k}", "mean_accuracy": k_mean, "ratio": k_mean / root}
        )
        for d in ("on", "off"):
            d_mean = mean_of(lambda c: c.kernel == k and c.dropout == d)
            tree.append(
                {
                    "node": f"kernel={k}/dropout={d}",
                    "mean_accuracy": d_mean,
                    "ratio": d_mean / k_mean,
                }
            )
            for m in (FULL, ADAPTED):
                cell = next(
                    c for c in cells
                    if c.kernel == k and c.dropout == d and c.mode == m
                )
                tree.append(
                    {
                        "node": f"kernel={k}/dropout={d}/mode={m}",
                        "mean_accuracy": cell.accuracy,
                        "ratio": cell.accuracy / d_mean,
                    }
                )
    return cells, tree


def write_ablation_csv(path: str | Path, cells: list[AblationCell]) -> None:
    lines = ["kernel,dropout,mode,accuracy"]
    for c in cells:
        lines.append(f"{c.kernel},{c.dropout},{c.mode},{c.accuracy!r}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_tree_csv(path: str | Path, tree: list[dict]) -> None:
    lines = ["node,mean_accuracy,ratio"]
    for row in tree:
        lines.append(f"{row['node']},{row['mean_accuracy']!r},{row['ratio']!r}")
    atomic_write(path, "\n".join(lines) + "\n")
