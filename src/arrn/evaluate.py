"""Resolution sweeps, compute accounting, and the kernel/dropout ablation.

Low-resolution test inputs are always synthesized by perfect-kernel
downsampling of the base-resolution test signals, independent of the
model's own smoothing kernel. ``full`` mode interpolates each input back
to the finest grid and evaluates every residual; ``adapted`` mode routes
through :func:`arrn.model.entry_level` and evaluates the model cast to
the entry level (:meth:`arrn.model.ArrnModel.cast`).

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
from .data import SynthDatasetSpec, generate_dataset
from .errors import GridError
from .grids import GridSpec, ResolutionLadder
from .kernels import VARIANTS, SmoothingKernelSpec
from .layers import FeatureMap
from .model import PREFER_FINER, ArrnModel, entry_level, forward_adapted
from .resample import resample_perfect_array
from .signal import write_csv
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

    The count of :func:`arrn.model.forward_full` on ``model.cast(u)``:
    ``mode="adapted"`` enters at ``u = entry``, ``mode="full"`` at
    ``u = 0``. Each residual supplies its own kernel and grids.
    """
    if mode not in (FULL, ADAPTED):
        raise ValueError(f"unknown mode {mode!r}")
    model = model.cast(entry if mode == ADAPTED else 0)
    base = model.ladder[0]
    total = macs.pointwise_macs(
        base.num_samples, model.input_features, model.features[0]
    )
    if model.base_lowpass:
        total += _lowpass_macs(model.kernel, base, base, model.input_features)
    for res in model.residuals:
        fine, coarse = res.in_grid, res.out_grid
        total += _lowpass_macs(res.kernel, fine, coarse, res.in_features)
        total += res.block.count_macs(fine.num_samples)
        total += _downsample_macs(res.kernel, fine, coarse, res.in_features)
        total += macs.pointwise_macs(
            coarse.num_samples, res.in_features, res.out_features
        )
    top_sites = model.ladder[-1].num_samples
    total += macs.pointwise_macs(top_sites, model.features[-1], model.features[-1])
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


def _batched_logits(model, values, grid, batch_size):
    """Logits in batches; the input grid picks the entry level."""
    out = []
    elapsed = 0.0
    for start in range(0, values.shape[0], batch_size):
        chunk = values[start : start + batch_size]
        fmap = FeatureMap(grid, chunk)
        t0 = time.perf_counter()
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
    base = model.ladder[0]
    grids = [_resolution_grid(resolution, base.dims) for resolution in resolutions]
    for grid in grids:
        if grid.dims != base.dims:
            raise GridError(
                f"resolution {grid} is {grid.dims}-D but the ladder is {base.dims}-D"
            )
        if any(g > b for g, b in zip(grid.extents, base.extents)):
            raise GridError(f"resolution {grid} exceeds the base grid {base}")
    rows = []
    for grid in grids:
        low = resample_perfect_array(inputs, grid.extents).astype(model.dtype)
        for mode in modes:
            if mode == FULL:
                level, target = 0, base
            elif mode == ADAPTED:
                level, target = entry_level(model.ladder, grid, policy)
            else:
                raise ValueError(f"unknown mode {mode!r}")
            values = resample_perfect_array(low, target.extents)
            logits, elapsed = _batched_logits(model, values, target, batch_size)
            accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
            rows.append(
                SweepRow(
                    resolution=str(grid),
                    mode=mode,
                    kernel=model.kernel.variant,
                    dropout=dropout_label,
                    accuracy=accuracy,
                    macs=count_macs(model, level, mode),
                    wall_ms=elapsed * 1000.0 if measure_time else 0.0,
                )
            )
    return EvalSweepResult(tuple(rows))


def write_sweep_csv(path: str | Path, rows) -> None:
    write_csv(path, SWEEP_CSV_HEADER, (
        f"{r.resolution},{r.mode},{r.kernel},{r.dropout},"
        f"{r.accuracy!r},{r.macs},{r.wall_ms!r}"
        for r in rows
    ))


# ---------------------------------------------------------------------------
# Kernel x dropout x adaptation ablation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationCell:
    kernel: str
    dropout: str  # "on" / "off"
    mode: str
    accuracy: float  # mean over seeds and resolutions


def _ratio_tree(means: dict, prefix: tuple = (), parent_mean=None) -> list[dict]:
    """Depth-first rows for the node ``prefix`` of (kernel, dropout, mode).

    A node's mean is that of the cells under its prefix, its ratio that
    mean over its parent's: 1.0 at the root, and under a zero parent, whose
    children are all zero too since accuracies are non-negative.
    """
    depth = len(prefix)
    under = {key: acc for key, acc in means.items() if key[:depth] == prefix}
    mean = float(np.mean(list(under.values())))
    node = "/".join(f"{f}={v}" for f, v in zip(("kernel", "dropout", "mode"), prefix))
    ratio = mean / parent_mean if parent_mean else 1.0
    rows = [{"node": node or "root", "mean_accuracy": mean, "ratio": ratio}]
    if depth < 3:
        for value in dict.fromkeys(key[depth] for key in under):
            rows += _ratio_tree(under, prefix + (value,), mean)
    return rows


def ablation_grid(
    dataset_spec: SynthDatasetSpec,
    ladder: ResolutionLadder,
    features: tuple[int, ...],
    base_config: TrainConfig,
    seeds=(0, 1, 2),
    resolutions=None,
    dropout_p: float = 0.3,
    kernels=VARIANTS,
    policy: str = PREFER_FINER,
    threads: int | None = None,
) -> tuple[list[AblationCell], list[dict]]:
    """Train every (kernel, dropout) cell per seed and tabulate both modes.

    Returns the 12-cell table (kernel x dropout x mode, accuracy averaged
    over seeds and resolutions) and the decision-tree ratio rows: each
    node's mean accuracy and its multiplicative change relative to its
    parent node. Cells train on ``threads`` worker threads, by default one
    per CPU; the results do not depend on the count.
    """
    if resolutions is None:
        resolutions = [g.extents if g.dims > 1 else g.extents[0] for g in ladder.levels]
    dropouts = {"on": dropout_p, "off": None}
    modes = (FULL, ADAPTED)

    def run(job) -> dict[tuple[str, str, str], float]:
        kernel_name, dropout, seed, dataset = job
        model = ArrnModel(
            ladder=ladder,
            input_features=dataset.spec.features,
            features=features,
            classes=dataset.spec.classes,
            kernel=SmoothingKernelSpec(variant=kernel_name),
            rng=np.random.default_rng(seed),
            dtype=base_config.numpy_dtype,
        )
        config = replace(base_config, dropout=dropouts[dropout], seed=seed)
        train(model, dataset.train.inputs, dataset.train.labels, config)
        sweep = evaluate_sweep(
            model,
            dataset.test.inputs,
            dataset.test.labels,
            resolutions,
            modes=modes,
            policy=policy,
            dropout_label=dropout,
            measure_time=False,
        )
        return {(kernel_name, dropout, m): sweep.mean_accuracy(m) for m in modes}

    jobs = []
    for seed in seeds:
        dataset = generate_dataset(replace(dataset_spec, seed=seed))
        jobs += [(k, d, seed, dataset) for k in kernels for d in dropouts]
    workers = threads if threads is not None else min(len(jobs), os.cpu_count() or 1)
    # Jobs are seed-major, so keys first appear in kernel, dropout, mode order.
    accuracies: dict[tuple[str, str, str], list[float]] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for result in pool.map(run, jobs):
            for key, accuracy in result.items():
                accuracies.setdefault(key, []).append(accuracy)
    means = {key: float(np.mean(values)) for key, values in accuracies.items()}
    cells = [AblationCell(*key, accuracy) for key, accuracy in means.items()]
    return cells, _ratio_tree(means)


def write_ablation_csv(path: str | Path, cells: list[AblationCell]) -> None:
    write_csv(path, "kernel,dropout,mode,accuracy", (
        f"{c.kernel},{c.dropout},{c.mode},{c.accuracy!r}" for c in cells
    ))


def write_tree_csv(path: str | Path, tree: list[dict]) -> None:
    write_csv(path, "node,mean_accuracy,ratio", (
        f"{row['node']},{row['mean_accuracy']!r},{row['ratio']!r}" for row in tree
    ))
