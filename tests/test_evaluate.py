"""Sweep mechanics and compute accounting.

The MAC oracle is an instrumented execution counter: closed-form counts
must equal what actually ran, exactly, for every kernel and entry level.
"""

import numpy as np
import pytest

from arrn import macs
from arrn.data import SynthDatasetSpec, generate_dataset
from arrn.errors import GridError
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.layers import TRAIN, FeatureMap
from arrn.model import (
    ArrnModel,
    DropoutMask,
    forward_adapted,
    forward_full,
    randomize_for_verification,
)
from arrn.evaluate import (
    ADAPTED,
    FULL,
    SWEEP_CSV_HEADER,
    count_macs,
    evaluate_sweep,
    write_sweep_csv,
)

LADDER = ResolutionLadder.from_extents([64, 32, 16])
KERNELS = {
    "perfect": SmoothingKernelSpec.perfect(),
    "windowed_sinc": SmoothingKernelSpec.windowed_sinc(),
    "truncated_gaussian": SmoothingKernelSpec.truncated_gaussian(),
}


def build_model(kernel="perfect", ladder=LADDER, seed=0, expansion=2, depth=1):
    model = ArrnModel(
        ladder, 1, (8, 16, 32), 4, KERNELS[kernel],
        np.random.default_rng(seed), expansion=expansion, depth=depth,
        dtype=np.float64,
    )
    randomize_for_verification(model, np.random.default_rng(seed + 1))
    return model


def instrumented_macs(model, level, mode):
    grid = model.ladder[0] if mode == FULL else model.ladder[level]
    values = np.random.default_rng(0).standard_normal(
        (1, model.input_features) + grid.extents
    )
    fmap = FeatureMap(grid, values)
    with macs.recording() as counter:
        if mode == FULL:
            forward_full(model, fmap)
        else:
            forward_adapted(model, fmap)
    return counter.total


class TestMacCounts:
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_analytic_equals_instrumented_full(self, kernel):
        model = build_model(kernel)
        assert count_macs(model, 0, FULL) == instrumented_macs(model, 0, FULL)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_analytic_equals_instrumented_adapted(self, kernel, level):
        model = build_model(kernel)
        assert count_macs(model, level, ADAPTED) == instrumented_macs(
            model, level, ADAPTED
        )

    def test_analytic_equals_instrumented_2d(self):
        ladder = ResolutionLadder.from_extents([(16, 16), (8, 8), (4, 4)])
        model = build_model("truncated_gaussian", ladder=ladder)
        for level in (0, 1, 2):
            assert count_macs(model, level, ADAPTED) == instrumented_macs(
                model, level, ADAPTED
            )
        assert count_macs(model, 0, FULL) == instrumented_macs(model, 0, FULL)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("extents", [[27, 9, 3], [(24, 16), (12, 8), (6, 4)]])
    @pytest.mark.parametrize("expansion", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_analytic_equals_instrumented_for_every_block_shape(
        self, kernel, extents, expansion, depth
    ):
        ladder = ResolutionLadder.from_extents(extents)
        model = build_model(kernel, ladder, expansion=expansion, depth=depth)
        for level in (0, 1, 2):
            assert count_macs(model, level, ADAPTED) == instrumented_macs(
                model, level, ADAPTED
            )
        assert count_macs(model, 0, FULL) == instrumented_macs(model, 0, FULL)

    @pytest.mark.parametrize("kernel", ["perfect", "windowed_sinc"])
    def test_backward_adds_nothing_to_the_count(self, kernel):
        model = build_model(kernel)
        values = np.random.default_rng(0).standard_normal((1, 1) + LADDER[0].extents)
        rng = np.random.default_rng(1)
        with macs.recording() as counter:
            logits = model.forward_graph(values, DropoutMask.all_on(2), TRAIN, rng)
            forward = counter.total
            logits.backward(np.ones_like(logits.values))
        assert forward == count_macs(model, 0, FULL)
        assert counter.total == forward

    def test_strictly_decreasing_in_entry_level(self):
        model = build_model("perfect")
        counts = [count_macs(model, u, ADAPTED) for u in range(3)]
        assert counts[0] > counts[1] > counts[2]

    def test_coarsest_entry_is_under_forty_percent_of_full(self):
        model = build_model("perfect")
        top = model.ladder.top_level
        assert count_macs(model, top, ADAPTED) <= 0.4 * count_macs(model, 0, FULL)

    def test_full_equals_adapted_at_entry_zero(self):
        model = build_model("truncated_gaussian")
        assert count_macs(model, 0, ADAPTED) == count_macs(model, 0, FULL)


class TestSweep:
    def _dataset(self):
        return generate_dataset(
            SynthDatasetSpec(classes=4, samples_per_class=8, seed=0)
        )

    def test_rows_and_header_shape(self, tmp_path):
        model = build_model("perfect")
        ds = self._dataset()
        result = evaluate_sweep(
            model, ds.test.inputs, ds.test.labels, [64, 32, 16],
            measure_time=False,
        )
        assert len(result.rows) == 6  # 3 resolutions x 2 modes
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.rows)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, result.rows)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 7

    def test_full_and_adapted_agree_at_base_resolution(self):
        model = build_model("perfect")
        ds = self._dataset()
        result = evaluate_sweep(
            model, ds.test.inputs, ds.test.labels, [64], measure_time=False
        )
        assert result.accuracy_at("64", FULL) == result.accuracy_at("64", ADAPTED)

    def test_adapted_macs_below_full_at_coarse_resolution(self):
        model = build_model("perfect")
        ds = self._dataset()
        result = evaluate_sweep(
            model, ds.test.inputs, ds.test.labels, [16], measure_time=False
        )
        rows = {r.mode: r for r in result.rows}
        assert rows[ADAPTED].macs < rows[FULL].macs

    def test_intermediate_resolution_routes_by_policy(self):
        model = build_model("perfect")
        ds = self._dataset()
        finer = evaluate_sweep(
            model, ds.test.inputs, ds.test.labels, [24], modes=(ADAPTED,),
            policy="prefer-finer", measure_time=False,
        )
        coarser = evaluate_sweep(
            model, ds.test.inputs, ds.test.labels, [24], modes=(ADAPTED,),
            policy="prefer-coarser", measure_time=False,
        )
        assert finer.rows[0].macs == count_macs(model, 1, ADAPTED)
        assert coarser.rows[0].macs == count_macs(model, 2, ADAPTED)

    def test_oversized_resolution_rejected(self):
        model = build_model("perfect")
        ds = self._dataset()
        with pytest.raises(GridError):
            evaluate_sweep(model, ds.test.inputs, ds.test.labels, [128])

    def test_resolution_rank_unlike_the_ladder_rejected_before_resampling(self):
        model = build_model("perfect")
        ds = self._dataset()
        with macs.recording() as counter:
            with pytest.raises(GridError, match="16x16 is 2-D but the ladder is 1-D"):
                evaluate_sweep(
                    model, ds.test.inputs, ds.test.labels, [32, (16, 16)],
                    measure_time=False,
                )
        assert counter.total == 0

    def test_integer_resolution_broadcasts_to_every_axis(self):
        model = ArrnModel(
            ResolutionLadder.from_extents([(8, 8), (4, 4)]), 1, (2, 2), 2,
            KERNELS["perfect"], np.random.default_rng(0), dtype=np.float64,
        )
        inputs = np.random.default_rng(1).standard_normal((3, 1, 8, 8))
        labels = np.zeros(3, dtype=np.int64)
        result = evaluate_sweep(model, inputs, labels, [4], measure_time=False)
        assert [r.resolution for r in result.rows] == ["4x4", "4x4"]
        with pytest.raises(GridError, match="resolution 4 is 1-D but the ladder"):
            evaluate_sweep(model, inputs, labels, [(4,)])

    def test_no_timing_rows_are_deterministic(self):
        model = build_model("perfect")
        ds = self._dataset()
        a = evaluate_sweep(model, ds.test.inputs, ds.test.labels, [32],
                           measure_time=False)
        b = evaluate_sweep(model, ds.test.inputs, ds.test.labels, [32],
                           measure_time=False)
        assert a == b

    def test_threaded_ablation_matches_sequential(self):
        from arrn.evaluate import ablation_grid
        from arrn.training import TrainConfig

        spec = SynthDatasetSpec(classes=2, samples_per_class=8, seed=0,
                                level_extents=((32,), (16,), (8,)))
        ladder = ResolutionLadder.from_extents([32, 16, 8])
        config = TrainConfig(epochs=2, batch_size=16, seed=0)
        kwargs = dict(
            dataset_spec=spec, ladder=ladder, features=(4, 8, 8),
            base_config=config, seeds=(0,), kernels=("perfect",),
        )
        sequential, _ = ablation_grid(threads=1, **kwargs)
        threaded, _ = ablation_grid(threads=2, **kwargs)
        assert sequential == threaded

    def test_ratio_tree_walks_kernel_dropout_mode_prefixes(self):
        from arrn.evaluate import ablation_grid
        from arrn.training import TrainConfig

        kernels = ("perfect", "truncated_gaussian")
        spec = SynthDatasetSpec(classes=3, samples_per_class=24, seed=0,
                                level_extents=((32,), (16,), (8,)))
        config = TrainConfig(epochs=10, batch_size=16, learning_rate=1e-2, seed=0)
        cells, tree = ablation_grid(
            dataset_spec=spec, ladder=ResolutionLadder.from_extents([32, 16, 8]),
            features=(4, 8, 8), base_config=config, seeds=(0,),
            resolutions=[32, 24, 16], kernels=kernels,
        )
        accuracy = {(c.kernel, c.dropout, c.mode): c.accuracy for c in cells}
        # Depth-first: each kernel, then its dropouts, then their modes.
        prefixes = [()]
        for k in kernels:
            prefixes.append((k,))
            for d in ("on", "off"):
                prefixes += [(k, d), (k, d, FULL), (k, d, ADAPTED)]
        names = [
            "/".join(f"{f}={v}" for f, v in zip(("kernel", "dropout", "mode"), p))
            or "root"
            for p in prefixes
        ]
        assert [row["node"] for row in tree] == names
        mean_of = {}
        for prefix, row in zip(prefixes, tree):
            under = [a for key, a in accuracy.items() if key[: len(prefix)] == prefix]
            assert row["mean_accuracy"] == pytest.approx(np.mean(under), rel=1e-12)
            mean_of[prefix] = row["mean_accuracy"]
            if prefix:
                expected = row["mean_accuracy"] / mean_of[prefix[:-1]]
                assert row["ratio"] == pytest.approx(expected, rel=1e-12)
        assert tree[0]["ratio"] == 1.0
        # The grid must tell the levels apart for the walk order to matter.
        assert len(set(accuracy.values())) > 2

    def test_ratio_under_a_zero_parent_is_one(self):
        from arrn.evaluate import _ratio_tree

        tree = _ratio_tree({
            ("perfect", "on", FULL): 0.0, ("perfect", "on", ADAPTED): 0.0,
            ("perfect", "off", FULL): 0.5, ("perfect", "off", ADAPTED): 0.25,
        })
        ratio = {row["node"]: row["ratio"] for row in tree}
        assert ratio["kernel=perfect/dropout=on"] == 0.0
        assert ratio["kernel=perfect/dropout=on/mode=full"] == 1.0
        assert ratio["kernel=perfect/dropout=off/mode=adapted"] == 0.25 / 0.375

    def test_label_permutation_sanity(self):
        # Accuracy against shuffled labels must not beat accuracy against
        # the true labels on a model with real signal.
        ds = generate_dataset(
            SynthDatasetSpec(classes=2, samples_per_class=32, noise=0.0, seed=4,
                             signatures=((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        )
        from arrn.training import TrainConfig, train

        model = ArrnModel(
            LADDER, 1, (8, 16, 32), 2, KERNELS["perfect"],
            np.random.default_rng(4), dtype=np.float32,
        )
        train(model, ds.train.inputs, ds.train.labels,
              TrainConfig(epochs=15, batch_size=32, seed=4, dropout=None))
        result = evaluate_sweep(
            model, ds.test.inputs, ds.test.labels, [64], modes=(FULL,),
            measure_time=False,
        )
        true_acc = result.rows[0].accuracy
        rng = np.random.default_rng(5)
        permuted = rng.permutation(ds.test.labels)
        shuffled = evaluate_sweep(
            model, ds.test.inputs, permuted, [64], modes=(FULL,),
            measure_time=False,
        )
        assert true_acc >= shuffled.rows[0].accuracy
