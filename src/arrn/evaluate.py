"""Resolution sweeps, compute accounting, and the kernel/dropout ablation.

Low-resolution test inputs are always synthesized by perfect-kernel
downsampling of the base-resolution test signals, independent of the
model's own smoothing kernel. ``full`` mode interpolates each input back
to the finest grid and evaluates every residual; ``adapted`` mode routes
through :func:`arrn.model.entry_level` and evaluates the model cast to
the entry level (:meth:`arrn.model.ArrnModel.cast`).

MAC totals follow the conventions in :mod:`arrn.macs`; the closed-form
counts of :func:`count_macs` must match the instrumented forward count
exactly (asserted in the test suite), and they are what the sweep CSV
reports (per sample, i.e. batch size one). Wall-clock times are measured
only when requested so that CSV outputs can be byte-reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import macs
from .data import SynthDatasetSpec, check_labels, generate_dataset
from .grids import GridSpec, ResolutionLadder
from .kernels import VARIANTS, SmoothingKernelSpec
from .layers import FeatureMap, InnerBlockSpec
from .model import PREFER_FINER, ArrnModel, check_inputs, entry_level, forward_adapted
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
# Closed-form MAC counts: which ops run, each priced by its arrn.macs function.
# ---------------------------------------------------------------------------


def _block_macs(spec: InnerBlockSpec, grid: GridSpec) -> int:
    """The inner block: expand, ``depth`` depthwise 3-per-axis convolutions
    with ``depth - 1`` pointwise mixes between them, then contract."""
    sites, narrow = grid.num_samples, spec.features
    wide = narrow * spec.expansion
    return (
        macs.pointwise_macs(sites, narrow, wide)
        + spec.depth * macs.depthwise_macs(sites, wide, 3**grid.dims)
        + (spec.depth - 1) * macs.pointwise_macs(sites, wide, wide)
        + macs.pointwise_macs(sites, wide, narrow)
    )


def count_macs(model: ArrnModel, entry: int = 0, mode: str = ADAPTED) -> int:
    """Single-sample multiply-accumulate total for one evaluation path.

    The count of :func:`arrn.model.forward_full` on ``model.cast(u)``:
    ``mode="adapted"`` enters at ``u = entry``, ``mode="full"`` at
    ``u = 0``, in eval mode with its parameter folds. It is stated from
    the model's structure alone, without asking any layer for a cost, so
    its agreement with the instrumented count checks the layers against
    their specs.
    """
    if mode not in (FULL, ADAPTED):
        raise ValueError(f"unknown mode {mode!r}")
    model = model.cast(entry if mode == ADAPTED else 0)
    base = model.ladder[0]
    total = macs.pointwise_macs(
        base.num_samples, model.input_features, model.features[0]
    )
    if not model.skipped:
        grid, channels = base.extents, model.input_features
        total += macs.band_macs(model.kernel, grid, grid, grid, channels)
    for res in model.residuals:
        fine, coarse, width = res.in_grid.extents, res.out_grid.extents, res.in_features
        total += macs.band_macs(res.kernel, fine, coarse, fine, width)
        total += _block_macs(res.block.spec, res.in_grid)
        total += macs.band_macs(res.kernel, fine, coarse, coarse, width)
        total += macs.pointwise_macs(res.out_grid.num_samples, width, res.out_features)
    # The terminal projection is folded into the head.
    return total + macs.pointwise_macs(1, model.features[-1], model.classes)


# ---------------------------------------------------------------------------
# Accuracy sweeps.
# ---------------------------------------------------------------------------


def _resolution_grid(resolution, dims: int) -> GridSpec:
    if isinstance(resolution, GridSpec):
        return resolution
    if isinstance(resolution, int):
        return GridSpec((resolution,) * dims)
    return GridSpec(tuple(resolution))


def evaluate_sweep(
    model: ArrnModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    resolutions,
    modes=(FULL, ADAPTED),
    policy: str = PREFER_FINER,
    dropout_label: str = "off",
    measure_time: bool = True,
) -> EvalSweepResult:
    """Accuracy / MAC / time table over synthetic lower resolutions.

    ``inputs`` are base-resolution test signals ``(n, channels, *extents)``
    and ``labels`` their ``n`` classes, each in ``[0, model.classes)``.
    Every row is planned, its resolution routed by :func:`entry_level` and
    its MACs counted, before any input is resampled.
    """
    check_inputs(model, inputs)
    check_labels(labels, len(inputs), model.classes)
    base = model.ladder[0]
    plan = []
    for resolution in resolutions:
        grid = _resolution_grid(resolution, base.dims)
        entry = entry_level(model.ladder, grid, policy)
        runs = []
        for mode in modes:
            level, target = entry if mode == ADAPTED else (0, base)
            runs.append((mode, target, count_macs(model, level, mode)))
        plan.append((grid, runs))
    rows = []
    for grid, runs in plan:
        low = resample_perfect_array(inputs, grid.extents).astype(model.dtype)
        for mode, target, mac_count in runs:
            fmap = FeatureMap(target, resample_perfect_array(low, target.extents))
            start = time.perf_counter()
            logits = forward_adapted(model, fmap)
            elapsed = time.perf_counter() - start
            accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
            rows.append(
                SweepRow(
                    resolution=str(grid),
                    mode=mode,
                    kernel=model.kernel.variant,
                    dropout=dropout_label,
                    accuracy=accuracy,
                    macs=mac_count,
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
    from concurrent.futures import ThreadPoolExecutor  # kept off `import arrn`

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
