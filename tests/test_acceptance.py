"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``).

Criteria 7 and 8 train six small models each from scratch on the
synthetic task, on a thread pool, and take most of the suite's time;
everything else is seconds.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from arrn import macs
from arrn.autodiff import Parameter, Tensor, gradient_check, no_grad, project_channels
from arrn.data import SynthDatasetSpec, generate_dataset
from arrn.evaluate import ADAPTED, FULL, count_macs, evaluate_sweep
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.layers import (
    BatchNorm,
    DepthwiseConv,
    Dropout,
    FeatureMap,
    GlobalPoolHead,
    InnerBlock,
    InnerBlockSpec,
    PointwiseConv,
    SiLU,
    depthwise_conv_op,
    softmax_cross_entropy,
    zero_constancy_check,
)
from arrn.model import (
    ArrnModel,
    equivalence_report,
    forward_adapted,
    forward_full,
    randomize_for_verification,
)
from arrn.pyramid import decompose, reconstruct
from arrn.resample import downsample, downsample_array, lowpass
from arrn.signal import DiscreteSignal
from arrn.training import TrainConfig, train

PERFECT = SmoothingKernelSpec.perfect()
SINC = SmoothingKernelSpec.windowed_sinc()
GAUSS = SmoothingKernelSpec.truncated_gaussian()

LADDER = ResolutionLadder.from_extents([64, 32, 16])
FEATURES = (8, 16, 32)
CLASSES = 4


def desk_model(seed, kernel=PERFECT, dtype=np.float64, randomized=True):
    model = ArrnModel(
        LADDER, 1, FEATURES, CLASSES, kernel,
        np.random.default_rng(seed), dtype=dtype,
    )
    if randomized:
        randomize_for_verification(model, np.random.default_rng(seed + 5000))
    return model


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1PyramidReconstruction:
    def test_reconstruction_identity(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sig = DiscreteSignal(LADDER[0], rng.standard_normal((1, 64)))
            decomp = decompose(sig, LADDER, PERFECT)
            rebuilt = reconstruct(decomp, 1)
            expected = downsample(sig, LADDER[1], PERFECT)
            worst = max(worst, float(np.max(np.abs(rebuilt.values - expected.values))))
        elapsed = time.perf_counter() - start
        report(
            1,
            worst <= 1e-10 and elapsed < 1.0,
            f"reconstruct-vs-lowpass max abs {worst:.2e} (tol 1e-10), "
            f"{elapsed:.2f}s (< 1s)",
        )


class TestCriterion2SkipTheorem:
    def test_twenty_models_three_entry_levels(self):
        start = time.perf_counter()
        worst_abs = 0.0
        for seed in range(20):
            model = desk_model(seed)
            rng = np.random.default_rng(10_000 + seed)
            for level in (0, 1, 2):
                rep = equivalence_report(model, level, rng, repetitions=2)
                worst_abs = max(worst_abs, rep["max_abs"])
        worst_rel = 0.0
        for seed in range(20):
            model = desk_model(seed, dtype=np.float32)
            rng = np.random.default_rng(20_000 + seed)
            for level in (0, 1, 2):
                rep = equivalence_report(model, level, rng, repetitions=2)
                worst_rel = max(worst_rel, rep["max_rel"])
        elapsed = time.perf_counter() - start
        report(
            2,
            worst_abs <= 1e-9 and worst_rel <= 1e-4 and elapsed < 30.0,
            f"64-bit max abs {worst_abs:.2e} (tol 1e-9), 32-bit max rel "
            f"{worst_rel:.2e} (tol 1e-4), {elapsed:.1f}s (< 30s)",
        )


class TestCriterion3DropoutDownsamplingIdentity:
    def test_gated_prefix_equals_downsampled_adapted(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(5):
            model = desk_model(seed + 100)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((2, 1, 64))
            for k in (1, 2):
                with no_grad():
                    gated = model.forward_graph(x, dropped=k).values
                values = x
                for level in range(1, k + 1):
                    values = downsample_array(
                        values, LADDER[level].extents, PERFECT
                    )
                adapted = forward_adapted(model, FeatureMap(LADDER[k], values))
                worst = max(worst, float(np.max(np.abs(gated - adapted))))
        elapsed = time.perf_counter() - start
        report(
            3,
            worst <= 1e-9 and elapsed < 10.0,
            f"gate-prefix vs downsampled-input max abs {worst:.2e} (tol 1e-9), "
            f"{elapsed:.1f}s (< 10s)",
        )


class TestCriterion4ConstancyAndCancellation:
    def test_blocks_and_residual_collapse(self):
        worst_std = 0.0
        for seed in range(5):
            model = desk_model(seed + 200)
            for res in model.residuals:
                ok, dev = zero_constancy_check(
                    res.block, res.in_grid, res.in_features, tol=1e-10
                )
                worst_std = max(worst_std, dev)
        worst_gap = 0.0
        for seed in range(5):
            model = desk_model(seed + 300)
            res = model.residuals[0]
            x = np.full((1, FEATURES[0], 64), 0.7 + 0.1 * seed)
            out = res.forward(Tensor(x)).values
            expected = np.einsum(
                "oc,bcs->bos",
                res.projection.values,
                downsample_array(x, (32,), PERFECT),
            )
            worst_gap = max(worst_gap, float(np.max(np.abs(out - expected))))
        report(
            4,
            worst_std <= 1e-10 and worst_gap <= 1e-10,
            f"zero-input spatial std {worst_std:.2e} (tol 1e-10), constant-input "
            f"residual collapse {worst_gap:.2e} (tol 1e-10)",
        )


class TestCriterion5GradientChecks:
    def test_every_layer_type_and_full_composition(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0

        def check(build_out, params):
            nonlocal worst
            worst = max(worst, gradient_check(build_out, params))

        # Block convolutions have no bias; the ops' optional bias is the
        # one the eval folds and the head pass.
        x = Parameter(rng.standard_normal((2, 3, 6)))
        layer = PointwiseConv(3, 4, rng)
        bias = Parameter(rng.standard_normal(4))
        check(lambda: layer.forward(x), [x, layer.weight])
        check(lambda: project_channels(x, layer.weight, bias), [x, layer.weight, bias])

        for dims in (1, 2):
            xd = Parameter(rng.standard_normal((2, 2) + (4,) * dims))
            conv = DepthwiseConv(2, dims, rng)
            bd = Parameter(rng.standard_normal(2))
            check(lambda: conv.forward(xd), [xd, conv.weight])
            check(lambda: depthwise_conv_op(xd, conv.weight, bd), [xd, conv.weight, bd])

        xb = Parameter(rng.standard_normal((3, 2, 5)))
        bn = BatchNorm(2)
        bn.running_mean[:] = [0.2, -0.4]
        bn.running_var[:] = [1.1, 0.8]
        for mode in ("train", "eval"):
            check(lambda m=mode: bn.forward(xb, mode=m), [xb, bn.gamma, bn.beta])

        xs = Parameter(rng.standard_normal((2, 2, 4)))
        check(lambda: SiLU().forward(xs), [xs])

        xr = Parameter(rng.standard_normal((2, 3, 8)))
        drop = Dropout(0.4)
        check(
            lambda: drop.forward(xr, mode="train", rng=np.random.default_rng(7)),
            [xr],
        )

        xh = Parameter(rng.standard_normal((2, 3, 4)))
        head = GlobalPoolHead(3, 2, rng, dropout_p=0.0)
        check(lambda: head.forward(xh), [xh, head.weight, head.bias])

        # One full composition: every level, terminal stage, head, and loss.
        small = ArrnModel(
            ResolutionLadder.from_extents([8, 4]), 1, (2, 3), 2, PERFECT,
            np.random.default_rng(1), dtype=np.float64,
        )
        randomize_for_verification(small, np.random.default_rng(2))
        labels = np.array([0, 1])
        batch = np.random.default_rng(3).standard_normal((2, 1, 8))
        params = small.parameters()

        def full_loss():
            logits = small.forward_graph(batch, mode="eval")
            return softmax_cross_entropy(logits, labels)

        check(full_loss, params)

        # The cast to level 1 owns no parameter: its gradients reach the
        # model's, the input projection and res0's through their product.
        cast = small.cast(1)
        coarse = batch[..., ::2]

        def cast_loss():
            logits = cast.forward_graph(coarse, mode="eval")
            return softmax_cross_entropy(logits, labels)

        check(cast_loss, cast.parameters())
        elapsed = time.perf_counter() - start
        report(
            5,
            worst <= 1e-4 and elapsed < 60.0,
            f"worst layer/composition gradient rel err {worst:.2e} (tol 1e-4), "
            f"{elapsed:.1f}s (< 60s)",
        )


class TestCriterion6KernelQualityMonotonicity:
    def test_median_discrepancy_ordering(self):
        discrepancies = {name: [] for name in ("perfect", "sinc", "gauss")}
        for seed in range(10):
            for name, kernel in (
                ("perfect", PERFECT), ("sinc", SINC), ("gauss", GAUSS)
            ):
                model = desk_model(seed + 400, kernel=kernel)
                rep = equivalence_report(
                    model, 1, np.random.default_rng(seed), repetitions=2
                )
                discrepancies[name].append(rep["max_abs"])
        med = {k: float(np.median(v)) for k, v in discrepancies.items()}
        ok = (
            med["perfect"] <= med["sinc"] <= med["gauss"]
            and med["perfect"] <= 1e-9
            and med["gauss"] > 1e-6
        )
        report(
            6,
            ok,
            f"median discrepancy perfect={med['perfect']:.2e} <= "
            f"sinc={med['sinc']:.2e} <= gauss={med['gauss']:.2e}, "
            f"perfect <= 1e-9, gauss > 1e-6",
        )


def _train_cell(kernel, dropout, seed, dataset):
    model = ArrnModel(
        LADDER, 1, FEATURES, CLASSES, kernel,
        np.random.default_rng(seed), dtype=np.float32,
    )
    config = TrainConfig(
        epochs=60, batch_size=128, dropout=dropout, seed=seed, dtype="f32"
    )
    train(model, dataset.train.inputs, dataset.train.labels, config)
    return model


def _trained_sweeps(kernel, resolutions):
    """Sweeps of the dropout-0.3 and the no-dropout cell for seeds 0-2,
    keyed ``(seed, dropout)`` in seed-major order. The cells train on a
    thread pool; each is deterministic, so the readings do not depend on
    the pool."""
    datasets = [
        generate_dataset(
            SynthDatasetSpec(classes=CLASSES, samples_per_class=256,
                             noise=0.1, seed=seed)
        )
        for seed in range(3)
    ]

    def run(job):
        seed, dropout = job
        dataset = datasets[seed]
        model = _train_cell(kernel, dropout, seed, dataset)
        return evaluate_sweep(
            model, dataset.test.inputs, dataset.test.labels,
            resolutions, measure_time=False,
        )

    jobs = [(seed, p) for seed in range(3) for p in (0.3, None)]
    with ThreadPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        return dict(zip(jobs, pool.map(run, jobs)))


@pytest.mark.slow
class TestCriterion7RobustnessDirection:
    def test_dropout_gains_at_coarse_resolution(self):
        start = time.perf_counter()
        full_acc = {"drop": [], "plain": []}
        coarse_acc = {"drop": [], "plain": []}
        for (_, p), sweep in _trained_sweeps(PERFECT, [64, 16]).items():
            label = "plain" if p is None else "drop"
            full_acc[label].append(sweep.accuracy_at("64", FULL))
            coarse_acc[label].append(sweep.accuracy_at("16", ADAPTED))
        gain = 100 * (np.mean(coarse_acc["drop"]) - np.mean(coarse_acc["plain"]))
        cost = 100 * (np.mean(full_acc["plain"]) - np.mean(full_acc["drop"]))
        elapsed = time.perf_counter() - start
        report(
            7,
            gain >= 5.0 and cost <= 3.0 and elapsed < 600.0,
            f"coarse-resolution gain {gain:.1f} pts (>= 5), full-resolution "
            f"cost {cost:.1f} pts (<= 3), {elapsed:.0f}s (< 600s)",
        )


@pytest.mark.slow
class TestCriterion8DualRegularizationDirection:
    def test_matched_error_regimes_win_with_gaussian_kernel(self):
        start = time.perf_counter()
        cells = {("on", ADAPTED): [], ("off", ADAPTED): [], ("off", FULL): []}
        for (_, p), sweep in _trained_sweeps(GAUSS, [64, 32, 16]).items():
            if p is not None:
                cells[("on", ADAPTED)].append(sweep.mean_accuracy(ADAPTED))
            else:
                cells[("off", ADAPTED)].append(sweep.mean_accuracy(ADAPTED))
                cells[("off", FULL)].append(sweep.mean_accuracy(FULL))
        drop_adapted = float(np.mean(cells[("on", ADAPTED)]))
        plain_adapted = float(np.mean(cells[("off", ADAPTED)]))
        plain_full = float(np.mean(cells[("off", FULL)]))
        elapsed = time.perf_counter() - start
        report(
            8,
            drop_adapted >= plain_adapted and plain_full >= plain_adapted
            and elapsed < 1200.0,
            f"gaussian cells: dropout+adapted {drop_adapted:.3f} >= "
            f"no-dropout+adapted {plain_adapted:.3f}; no-dropout+full "
            f"{plain_full:.3f} >= no-dropout+adapted {plain_adapted:.3f}; "
            f"{elapsed:.0f}s (< 1200s)",
        )


class TestCriterion9ComputeScaling:
    def test_mac_counts(self):
        def instrumented(model, level, mode):
            grid = model.ladder[0] if mode == FULL else model.ladder[level]
            values = np.zeros((1, 1) + grid.extents)
            with macs.recording() as counter:
                if mode == FULL:
                    forward_full(model, FeatureMap(grid, values))
                else:
                    forward_adapted(model, FeatureMap(grid, values))
            return counter.total

        ok = True
        details = []
        for kernel in (PERFECT, SINC, GAUSS):
            model = desk_model(900, kernel=kernel)
            counts = [count_macs(model, u, ADAPTED) for u in range(3)]
            full = count_macs(model, 0, FULL)
            exact = all(
                count_macs(model, u, ADAPTED) == instrumented(model, u, ADAPTED)
                for u in range(3)
            ) and full == instrumented(model, 0, FULL)
            decreasing = counts[0] > counts[1] > counts[2]
            ratio = counts[2] / full
            ok = ok and exact and decreasing and ratio <= 0.40
            details.append(f"{kernel.variant}: ratio {ratio:.4f}")
        report(
            9,
            ok,
            "analytic == instrumented, strictly decreasing, coarsest/full "
            + "; ".join(details) + " (<= 0.40)",
        )


class TestCriterion10Determinism:
    def test_byte_identical_checkpoints_and_csvs(self, tmp_path):
        from arrn.cli import main

        checkpoints = []
        sweeps = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.arnn"
            code = main([
                "train", "--levels", "64,32,16", "--features", "4,8,8",
                "--classes", "3", "--samples-per-class", "16",
                "--epochs", "3", "--batch-size", "32", "--seed", "9",
                "--data-seed", "9", "--dropout", "0.3",
                "--out", str(ckpt),
                "--loss-csv", str(tmp_path / f"{tag}_loss.csv"),
            ])
            assert code == 0
            sweep = tmp_path / f"{tag}_sweep.csv"
            code = main([
                "eval", "--checkpoint", str(ckpt), "--resolutions", "64,32,16",
                "--classes", "3", "--samples-per-class", "16",
                "--data-seed", "9", "--out", str(sweep), "--no-timing",
            ])
            assert code == 0
            checkpoints.append(ckpt.read_bytes())
            sweeps.append(sweep.read_bytes())
        losses = [
            (tmp_path / "a_loss.csv").read_bytes(),
            (tmp_path / "b_loss.csv").read_bytes(),
        ]
        ok = (
            checkpoints[0] == checkpoints[1]
            and sweeps[0] == sweeps[1]
            and losses[0] == losses[1]
        )
        report(
            10,
            ok,
            "repeated runs byte-identical: checkpoint, sweep CSV "
            "(timing suppressed), loss CSV",
        )
