"""Residual-chain semantics: the skip theorem and its supporting contracts."""

import json
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrn import macs
from arrn import model as model_module
from arrn.autodiff import Tensor, no_grad, project_channels
from arrn.errors import FormatError, GridError, ShapeError
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.evaluate import ADAPTED, FULL, count_macs, evaluate_sweep
from arrn.layers import (
    EVAL,
    TRAIN,
    BatchNorm,
    FeatureMap,
    InnerBlock,
    silu_op,
    softmax_cross_entropy,
    zero_constancy_check,
)
from arrn.model import (
    ARNN_MAGIC,
    ArrnModel,
    entry_level,
    equivalence_report,
    eval_block_rows,
    forward_adapted,
    forward_full,
    load_checkpoint,
    randomize_for_verification,
    save_checkpoint,
)
from arrn.resample import (
    decimate_array,
    downsample_array,
    lowpass_array,
    resample_perfect_array,
)
from arrn.signal import mean_reject_array
from arrn.training import TrainConfig, draw_dropped, predict_classes, train

PERFECT = SmoothingKernelSpec.perfect()
SINC = SmoothingKernelSpec.windowed_sinc()
GAUSS = SmoothingKernelSpec.truncated_gaussian()

LADDER = ResolutionLadder.from_extents([32, 16, 8])


def build_model(seed=0, kernel=PERFECT, dtype=np.float64, ladder=LADDER,
                features=(4, 8, 8), classes=3, input_features=1):
    rng = np.random.default_rng(seed)
    model = ArrnModel(
        ladder=ladder,
        input_features=input_features,
        features=features,
        classes=classes,
        kernel=kernel,
        rng=rng,
        dtype=dtype,
    )
    randomize_for_verification(model, rng)
    return model


def random_input(model, seed=0, batch=2, level=0):
    rng = np.random.default_rng(seed)
    grid = model.ladder[level]
    values = rng.standard_normal(
        (batch, model.input_features) + grid.extents
    ).astype(model.dtype)
    return FeatureMap(grid, values)


class TestDroppedCount:
    """Laplacian dropout omits a prefix of ``draw_dropped`` fine residuals
    per minibatch."""

    def test_stream_is_one_draw_per_level_finest_first(self):
        for seed in range(20):
            replay = np.random.default_rng(seed)
            draws = [replay.random() for _ in range(4)]
            expected = next((i for i, u in enumerate(draws) if u >= 0.5), 4)
            rng = np.random.default_rng(seed)
            assert draw_dropped(rng, 0.5, 4) == expected
            # Every level is drawn, also after the first kept one.
            assert rng.random() == replay.random()

    def test_no_drop_probability_drops_nothing(self):
        rng = np.random.default_rng(0)
        assert [draw_dropped(rng, 0.0, 4) for _ in range(50)] == [0] * 50

    def test_full_drop_probability_drops_every_level(self):
        rng = np.random.default_rng(0)
        assert [draw_dropped(rng, 1.0, 4) for _ in range(50)] == [4] * 50

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_prefix_frequencies_are_powers_of_p(self, p):
        rng = np.random.default_rng(7)
        n = 20_000
        counts = np.array([draw_dropped(rng, p, 4) for _ in range(n)])
        for k in range(5):
            target = p**k
            bound = 4.0 * np.sqrt(target * (1.0 - target) / n)
            assert abs(np.mean(counts >= k) - target) <= bound, (k, target)

    def test_train_runs_the_sampled_counts(self, monkeypatch):
        model = build_model(seed=8)
        config = TrainConfig(epochs=2, batch_size=4, dropout=0.5, dtype="f64")
        calls = []
        forward_graph = ArrnModel.forward_graph

        def recording(model, values, dropped=0, mode=EVAL, rng=None):
            calls.append((mode, dropped))
            return forward_graph(model, values, dropped, mode, rng)

        monkeypatch.setattr(ArrnModel, "forward_graph", recording)
        inputs = np.random.default_rng(9).standard_normal((12, 1, 32))
        train(model, inputs, np.arange(12) % 3, config)
        gate_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(3)[1])
        expected = [draw_dropped(gate_rng, 0.5, 2) for _ in range(6)]
        assert [d for mode, d in calls if mode == "train"] == expected
        assert len(set(expected)) > 1


class TestSkipTheorem:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("level", [1, 2])
    def test_perfect_kernel_f64(self, seed, level):
        model = build_model(seed=seed)
        report = equivalence_report(
            model, level, np.random.default_rng(100 + seed), repetitions=3
        )
        assert report["max_abs"] <= 1e-9, report

    @pytest.mark.parametrize("seed", range(3))
    def test_perfect_kernel_f32_relative(self, seed):
        model = build_model(seed=seed, dtype=np.float32)
        for level in (1, 2):
            report = equivalence_report(
                model, level, np.random.default_rng(200 + seed), repetitions=3
            )
            assert report["max_rel"] <= 1e-4, report

    def test_2d_ladder(self):
        ladder = ResolutionLadder.from_extents([(16, 16), (8, 8), (4, 4)])
        model = build_model(seed=11, ladder=ladder)
        report = equivalence_report(model, 1, np.random.default_rng(3))
        assert report["max_abs"] <= 1e-9

    def test_entry_level_zero_is_bitwise_full(self):
        model = build_model(seed=1)
        fmap = random_input(model, seed=2)
        np.testing.assert_array_equal(
            forward_adapted(model, fmap), forward_full(model, fmap)
        )

    def test_gaussian_discrepancy_exceeds_perfect(self):
        perfect = build_model(seed=3, kernel=PERFECT)
        gauss = build_model(seed=3, kernel=GAUSS)
        rep_p = equivalence_report(perfect, 1, np.random.default_rng(4))
        rep_g = equivalence_report(gauss, 1, np.random.default_rng(4))
        assert rep_g["max_abs"] > rep_p["max_abs"]
        assert rep_g["max_abs"] > 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_quality_ordering(self, seed):
        discrepancies = {}
        for name, kernel in (("perfect", PERFECT), ("sinc", SINC), ("gauss", GAUSS)):
            model = build_model(seed=seed, kernel=kernel)
            rep = equivalence_report(model, 1, np.random.default_rng(50 + seed))
            discrepancies[name] = rep["max_abs"]
        assert discrepancies["perfect"] <= discrepancies["sinc"]
        assert discrepancies["sinc"] <= discrepancies["gauss"]
        assert discrepancies["perfect"] <= 1e-9


class TestResidualLevel:
    def test_constant_input_collapses_to_projected_downsample(self):
        # A constant map has zero band difference, so the block contributes
        # nothing beyond float dust.
        model = build_model(seed=7)
        res = model.residuals[0]
        x = np.full((1, 4, 32), 1.37)
        out = res.forward(Tensor(x)).values
        expected = np.einsum(
            "oc,bcs->bos",
            res.projection.values,
            downsample_array(x, (16,), PERFECT),
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_bandlimited_input_collapses_for_perfect_kernel(self):
        model = build_model(seed=8)
        res = model.residuals[0]
        rng = np.random.default_rng(9)
        x = lowpass_array(rng.standard_normal((1, 4, 32)), (16,), PERFECT)
        out = res.forward(Tensor(x)).values
        expected = np.einsum(
            "oc,bcs->bos",
            res.projection.values,
            downsample_array(x, (16,), PERFECT),
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_fused_path_matches_unfused_reference(self):
        for kernel in (PERFECT, SINC, GAUSS):
            model = build_model(seed=10, kernel=kernel)
            res = model.residuals[0]
            x = np.random.default_rng(11).standard_normal((2, 4, 32))
            out = res.forward(Tensor(x)).values
            # Reference: every operator applied separately at full rate.
            r_low = lowpass_array(x, (16,), kernel)
            y = res.block.forward(Tensor(x - r_low), mode="eval").values
            y = mean_reject_array(y, 1)
            y = lowpass_array(y, (16,), kernel)
            summed = decimate_array(y + r_low, (16,))
            expected = np.einsum("oc,bcs->bos", res.projection.values, summed)
            np.testing.assert_allclose(out, expected, atol=1e-12)


def gated(model, fmap, dropped):
    """Eval logits of a dropout step that omits the first ``dropped`` residuals."""
    with no_grad():
        return model.forward_graph(fmap.values, dropped).values


def prefix_bypass(model, values, k, mode=EVAL, rng=None):
    """A dropout step residual by residual at full resolution: residuals
    ``< k`` run as ``project_channels(decimate(lowpass(r)), P)``, without
    their blocks, and the rest in full. Channel mixes commute with the
    per-channel band operators, so this is the function ``forward_graph``
    computes by casting, up to rounding."""
    r = lowpass_array(values, model.ladder[0].extents, model.kernel)
    r = Tensor(np.einsum("oc,bc...->bo...", model.input_projection.values, r))
    for res in model.residuals:
        if res.level < k:
            coarse = res.out_grid.extents
            low = decimate_array(lowpass_array(r.values, coarse, model.kernel), coarse)
            r = Tensor(np.einsum("oc,bc...->bo...", res.projection.values, low))
        else:
            r = res.forward(r, mode=mode, rng=rng)
    return model._terminal_and_head(r, mode, rng).values


class TestDropoutDownsamplingIdentity:
    @pytest.mark.parametrize("mode", [EVAL, TRAIN])
    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS], ids=lambda k: k.variant)
    @pytest.mark.parametrize("extents", [[32, 16, 8], [(16, 16), (8, 8), (4, 4)]],
                             ids=["1d", "2d"])
    def test_dropout_step_equals_the_prefix_bypass(self, extents, kernel, mode):
        model = build_model(seed=43, kernel=kernel,
                            ladder=ResolutionLadder.from_extents(extents))
        values = random_input(model, seed=44, batch=4).values
        for k in (1, 2):
            with no_grad():
                cast = model.forward_graph(
                    values, k, mode=mode, rng=np.random.default_rng(k)).values
                bypass = prefix_bypass(model, values, k, mode, np.random.default_rng(k))
            np.testing.assert_allclose(cast, bypass, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_train_step_leaves_the_skipped_blocks_alone(self, k):
        model = build_model(seed=5)
        values = random_input(model, seed=6, batch=6).values
        skipped = model.residuals[:k]
        norms = [layer for res in skipped for layer in res.block.layers
                 if isinstance(layer, BatchNorm)]
        assert norms
        stats = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in norms]

        def step():
            logits = model.forward_graph(
                values, k, mode=TRAIN, rng=np.random.default_rng(7))
            softmax_cross_entropy(logits, np.arange(6) % 3).backward()
            return logits.values

        logits = step()
        for res in skipped:
            for p in res.block.parameters():
                assert p.grad is None, p.name
        for bn, (mean, var) in zip(norms, stats):
            np.testing.assert_array_equal(bn.running_mean, mean)
            np.testing.assert_array_equal(bn.running_var, var)
        for p in [model.input_projection] + [res.projection for res in skipped]:
            assert p.grad is not None and np.abs(p.grad).max() > 0, p.name
        for res in skipped:
            for p in res.block.parameters():
                p.assign(p.values + 1.0)
        np.testing.assert_array_equal(step(), logits)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_gated_prefix_equals_adapted_on_downsampled_input(self, k, seed):
        model = build_model(seed=seed)
        fmap = random_input(model, seed=seed + 30)
        gated_logits = gated(model, fmap, k)
        values = fmap.values
        for level in range(1, k + 1):
            values = downsample_array(
                values, model.ladder[level].extents, PERFECT
            )
        adapted = forward_adapted(model, FeatureMap(model.ladder[k], values))
        np.testing.assert_allclose(gated_logits, adapted, atol=1e-9)

    def test_zero_input_logits_independent_of_dropped(self):
        model = build_model(seed=40)
        zero = FeatureMap(model.ladder[0], np.zeros((1, 1, 32)))
        reference = forward_full(model, zero)
        for dropped in (2, 1, 0):
            out = gated(model, zero, dropped)
            np.testing.assert_allclose(out, reference, atol=1e-12)

    def test_gated_prefix_equals_full_on_bandlimited_input(self):
        # Omitting the first k levels also equals a full evaluation of the
        # k-times-downsampled-then-upsampled input.
        model = build_model(seed=41)
        fmap = random_input(model, seed=42)
        for k in (1, 2):
            gated_logits = gated(model, fmap, k)
            values = fmap.values
            for level in range(1, k + 1):
                values = downsample_array(
                    values, model.ladder[level].extents, PERFECT
                )
            values = resample_perfect_array(values, model.ladder[0].extents)
            full = forward_full(model, FeatureMap(model.ladder[0], values))
            np.testing.assert_allclose(gated_logits, full, atol=1e-9)


def oracle_report(model, level, rng, repetitions, batch):
    """The report one repetition at a time: a draw and a forward pair each."""
    grid = model.cast(level).ladder[0]
    max_abs = mean_abs = max_rel = 0.0
    for _ in range(repetitions):
        coarse = rng.standard_normal(
            (batch, model.input_features) + grid.extents
        ).astype(model.dtype)
        fine = resample_perfect_array(coarse, model.ladder[0].extents)
        full = forward_full(model, FeatureMap(model.ladder[0], fine))
        adapted = forward_adapted(model, FeatureMap(grid, coarse))
        diff = np.abs(full - adapted)
        max_abs = max(max_abs, float(diff.max()))
        mean_abs += float(diff.mean()) / repetitions
        denom = max(float(np.max(np.abs(full))), 1e-30)
        max_rel = max(max_rel, float(diff.max()) / denom)
    return {"level": level, "repetitions": repetitions, "max_abs": max_abs,
            "mean_abs": mean_abs, "max_rel": max_rel}


class CountingRng:
    """A generator that counts its ``standard_normal`` draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def standard_normal(self, shape):
        self.draws += 1
        return self.rng.standard_normal(shape)


def report_and_next_draw(report, model, level, seed, repetitions, batch):
    rng = np.random.default_rng(seed)
    return report(model, level, rng, repetitions, batch), rng.random()


class TestEquivalenceReport:
    @pytest.mark.parametrize("name", ["repetitions", "batch"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_report_that_compares_nothing_is_rejected(self, name, count):
        model = build_model(seed=50)
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {count}"):
            equivalence_report(
                model, 1, np.random.default_rng(0), **{name: count}
            )

    @pytest.mark.parametrize("name", ["repetitions", "batch"])
    @pytest.mark.parametrize("count", [True, 2.5, 1.0, "2", None])
    def test_count_that_is_no_integer_is_rejected(self, name, count):
        model = build_model(seed=51)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            equivalence_report(
                model, 1, np.random.default_rng(0), **{name: count}
            )

    def test_numpy_integer_counts_are_accepted(self):
        model = build_model(seed=52)
        report = equivalence_report(model, 1, np.random.default_rng(0),
                                    repetitions=np.int64(2), batch=np.int32(3))
        assert report["repetitions"] == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("extents", [[64, 32, 16], [27, 9, 3],
                                         [(24, 16), (12, 8), (6, 4)]],
                             ids=["64", "27", "24x16"])
    def test_batched_report_equals_the_per_repetition_loop_bitwise(
        self, extents, kernel, dtype
    ):
        model = build_model(seed=53, kernel=kernel, dtype=dtype, input_features=2,
                            ladder=ResolutionLadder.from_extents(extents))
        for level in (1, 2):
            for seed, (repetitions, batch) in enumerate(
                [(1, 1), (3, 2), (5, 2), (2, 7)]
            ):
                args = (model, level, seed, repetitions, batch)
                assert report_and_next_draw(equivalence_report, *args) == (
                    report_and_next_draw(oracle_report, *args)
                ), (level, repetitions, batch)

    def test_repetitions_past_the_byte_budget_run_in_groups(self):
        model = build_model(seed=54, kernel=SINC, ladder=DESK)
        batch = model_module.EVAL_BLOCK_BYTES // (2 * 64 * 8)  # two a group
        rng = CountingRng(55)
        report = equivalence_report(model, 1, rng, repetitions=5, batch=batch)
        assert rng.draws == 3
        assert (report, rng.rng.random()) == report_and_next_draw(
            oracle_report, model, 1, 55, 5, batch)

    def test_a_verification_trial_draws_once(self):
        model = build_model(seed=56, ladder=ResolutionLadder.from_extents(
            [(32, 32), (16, 16), (8, 8)]))
        rng = CountingRng(57)
        equivalence_report(model, 2, rng, repetitions=5, batch=2)
        assert rng.draws == 1

    def test_peak_allocation_does_not_grow_with_repetitions(self):
        model = build_model(seed=58, kernel=GAUSS, ladder=DESK)
        batch = model_module.EVAL_BLOCK_BYTES // (2 * 64 * 8)  # two a group

        def peak(repetitions):
            tracemalloc.start()
            try:
                equivalence_report(model, 2, np.random.default_rng(59),
                                   repetitions=repetitions, batch=batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # builds the cached band matrices
        two, twelve = peak(2), peak(12)
        assert twelve <= 1.1 * two, (two, twelve)


class TestEntryLevel:
    def test_exact_match(self):
        assert entry_level(LADDER, GridSpec((16,)), "prefer-finer") == (
            1,
            GridSpec((16,)),
        )

    def test_prefer_finer_rounds_up(self):
        level, grid = entry_level(LADDER, GridSpec((12,)), "prefer-finer")
        assert (level, grid) == (1, GridSpec((16,)))

    def test_prefer_coarser_rounds_down(self):
        level, grid = entry_level(LADDER, GridSpec((12,)), "prefer-coarser")
        assert (level, grid) == (2, GridSpec((8,)))

    def test_tiny_input_falls_back_to_coarsest(self):
        level, grid = entry_level(LADDER, GridSpec((4,)), "prefer-coarser")
        assert (level, grid) == (2, GridSpec((8,)))

    def test_oversized_input_rejected(self):
        with pytest.raises(GridError):
            entry_level(LADDER, GridSpec((64,)), "prefer-finer")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            entry_level(LADDER, GridSpec((16,)), "sideways")


class TestComposedProjection:
    def test_matches_explicit_product(self):
        model = build_model(seed=50)
        expected = (
            model.residuals[1].projection.values
            @ model.residuals[0].projection.values
            @ model.input_projection.values
        )
        np.testing.assert_allclose(model.composed_projection(2).values, expected,
                                   atol=0)

    @pytest.mark.parametrize("write", ["state", "assign"])
    def test_cast_after_a_parameter_write_needs_no_other_call(self, write):
        # Casts taken before the write must leave nothing a later cast reuses.
        model = build_model(seed=51)
        rng = np.random.default_rng(52)
        for u in range(len(model.ladder)):
            forward_adapted(model, random_input(model, seed=53, level=u))
        if write == "state":
            model.state()["input.proj"][...] *= 2.0
            model.state()["res0.proj"][...] *= -1.5
        else:
            model.input_projection.assign(model.input_projection.values * 2.0)
            res = model.residuals[0]
            res.projection.assign(res.projection.values * -1.5)
        for u in range(len(model.ladder)):
            coarse = rng.standard_normal((2, 1) + model.ladder[u].extents)
            fine = resample_perfect_array(coarse, model.ladder[0].extents)
            full = forward_full(model, FeatureMap(model.ladder[0], fine))
            adapted = forward_adapted(model, FeatureMap(model.ladder[u], coarse))
            np.testing.assert_allclose(adapted, full, rtol=0, atol=1e-9)


class TestCast:
    """``model.cast(u)`` is the low-resolution ARRN over ``ladder[u:]``."""

    def test_entry_zero_is_the_model(self):
        model = build_model(seed=100)
        assert model.cast(0) is model

    def test_shares_residuals_terminal_stage_and_head(self):
        model = build_model(seed=101)
        for u in range(1, len(model.ladder)):
            cast = model.cast(u)
            assert cast.ladder.levels == model.ladder.levels[u:]
            assert cast.features == model.features[u:]
            assert len(cast.residuals) == len(model.residuals) - u
            for i, res in enumerate(cast.residuals):
                assert res is model.residuals[u + i]
            assert cast.terminal_norm is model.terminal_norm
            assert cast.terminal_projection is model.terminal_projection
            assert cast.head is model.head
            assert cast.input_projection is model.input_projection
            assert cast.skipped == model.residuals[:u]
            assert model.skipped == []

    def test_cast_after_an_update_reflects_it(self):
        model = build_model(seed=102)
        fmap = random_input(model, seed=103, level=1)
        before = forward_full(model.cast(1), fmap)
        for p in model.parameters():
            p.assign(p.values * 1.5)
        after = forward_full(model.cast(1), fmap)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, forward_adapted(model, fmap))
        reference = build_model(seed=102)
        for p, q in zip(reference.parameters(), model.parameters()):
            p.assign(q.values)
        np.testing.assert_array_equal(after, forward_adapted(reference, fmap))

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    def test_macs_of_the_cast_are_its_full_macs(self, kernel):
        model = build_model(seed=104, kernel=kernel)
        for u in range(len(model.ladder)):
            cast = model.cast(u)
            fmap = random_input(model, seed=105, batch=1, level=u)
            with macs.recording() as counter:
                forward_full(cast, fmap)
            assert count_macs(model, u, ADAPTED) == count_macs(cast, 0, FULL)
            assert count_macs(cast, 0, FULL) == counter.total
        # The Gaussian blurs even at factor 1, so the counts above show that
        # a cast skips the base low-pass its own finest grid would get.
        if kernel is GAUSS:
            coarse = model.cast(1)
            assert coarse.skipped
            own = ArrnModel(coarse.ladder, 1, coarse.features, 3, GAUSS,
                            np.random.default_rng(0))
            assert count_macs(own, 0, FULL) > count_macs(coarse, 0, FULL)

    def test_coarsest_cast_has_no_residuals_and_runs(self):
        model = build_model(seed=106)
        top = model.ladder.top_level
        cast = model.cast(top)
        assert cast.residuals == [] and len(cast.ladder) == 1
        fmap = random_input(model, seed=107, level=top)
        logits = forward_full(cast, fmap)
        assert logits.shape == (2, 3) and np.all(np.isfinite(logits))
        np.testing.assert_array_equal(logits, forward_adapted(model, fmap))

    def test_entry_outside_the_ladder(self):
        model = build_model(seed=108)
        for entry in (-1, len(model.ladder)):
            with pytest.raises(GridError):
                model.cast(entry)

    @pytest.mark.parametrize("entry", [0.0, 1.0, np.float64(2.0), True, False, "1"])
    def test_entry_that_is_not_an_integer(self, entry):
        model = build_model(seed=108)
        with pytest.raises(GridError):
            model.cast(entry)
        with pytest.raises(GridError):
            equivalence_report(model, entry, np.random.default_rng(0))

    def test_numpy_integer_entry_is_the_int_entry(self):
        model = build_model(seed=108)
        assert model.cast(np.int64(0)) is model
        assert model.cast(np.int64(1)).ladder == model.cast(1).ladder

    def test_save_refuses_a_cast(self, tmp_path):
        model = build_model(seed=109)
        path = tmp_path / "cast.arnn"
        with pytest.raises(ValueError):
            save_checkpoint(path, model.cast(1))
        assert not any(tmp_path.iterdir())

    def test_cast_taken_before_an_update_reads_it(self):
        model = build_model(seed=120)
        fmap = random_input(model, seed=121, level=1)
        cast = model.cast(1)
        before = forward_full(cast, fmap)
        for p in model.parameters():
            p.assign(p.values * 1.5)
        after = forward_full(cast, fmap)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, forward_adapted(model, fmap))

    def test_cast_state_is_the_models_under_the_same_names(self):
        model = build_model(seed=126)
        state = model.state()
        for u in range(1, len(model.ladder)):
            for name, values in model.cast(u).state().items():
                assert values is state[name], name

    def test_cast_of_a_cast_is_the_deeper_cast(self):
        model = build_model(seed=122)
        fmap = random_input(model, seed=123, level=2)
        twice = model.cast(1).cast(1)
        assert twice.skipped == model.residuals[:2]
        assert [p.name for p in twice.parameters()] == [
            p.name for p in model.cast(2).parameters()]
        np.testing.assert_array_equal(forward_full(twice, fmap),
                                      forward_full(model.cast(2), fmap))

    def test_training_a_cast_trains_the_model(self):
        model = build_model(seed=124, ladder=DESK, features=(4, 8, 8))
        rng = np.random.default_rng(125)
        coarse = rng.standard_normal((24, 1, 32))
        labels = np.arange(24) % 3
        state = {name: values.copy() for name, values in model.state().items()}
        cast = model.cast(1)
        train(cast, coarse, labels, TrainConfig(epochs=3, batch_size=8, dtype="f64"))
        fmap = FeatureMap(model.ladder[1], coarse)
        np.testing.assert_array_equal(forward_full(cast, fmap),
                                      forward_full(model.cast(1), fmap))
        after = model.state()
        for name in ("input.proj", "res0.proj", "res1.proj", "head.w"):
            assert not np.array_equal(after[name], state[name]), name
        # The skipped block never runs: its weights and statistics stay.
        for name in state:
            if name.startswith("res0.") and name != "res0.proj":
                np.testing.assert_array_equal(after[name], state[name])
        assert any(n.startswith("res0.bn") for n in state)


class TestCastGradients:
    """The skip theorem holds for training gradients: the loss of ``cast(u)``
    on coarse input and every parameter gradient through it equal those of
    the full path on the perfectly upsampled input (eval-mode graphs; in
    train mode the full path's batch norms see an all-zero band difference
    and drift, so it is no oracle there)."""

    @pytest.mark.parametrize("extents", [[64, 32, 16], [(24, 16), (12, 8), (6, 4)]],
                             ids=["1d", "2d"])
    def test_loss_and_every_gradient_match_the_full_path(self, extents):
        ladder = ResolutionLadder.from_extents(extents)
        rng = np.random.default_rng(130)
        model = ArrnModel(ladder, 2, (4, 8, 8), 3, PERFECT, rng, head_dropout=0.0)
        randomize_for_verification(model, rng)
        params = model.parameters()
        labels = np.array([0, 1, 2, 1])

        def loss_and_grads(net, values):
            for p in params:
                p.zero_grad()
            loss = softmax_cross_entropy(net.forward_graph(values, mode=EVAL), labels)
            loss.backward()
            return float(loss.values), [
                np.zeros_like(p.values) if p.grad is None else p.grad for p in params]

        for u in range(1, len(ladder)):
            coarse = rng.standard_normal((4, 2) + ladder[u].extents)
            fine = resample_perfect_array(coarse, ladder[0].extents)
            full_loss, full = loss_and_grads(model, fine)
            cast_loss, cast = loss_and_grads(model.cast(u), coarse)
            assert abs(cast_loss - full_loss) <= 1e-9 * abs(full_loss)
            bound = 1e-9 * max(float(np.abs(g).max()) for g in full)
            for p, a, b in zip(params, full, cast):
                gap = float(np.abs(a - b).max())
                assert gap <= bound, (u, p.name, gap, bound)
            # The skipped projections learn through the composed product.
            for p in params[:1] + [res.projection for res in model.residuals[:u]]:
                assert np.abs(p.grad).max() > 1e3 * bound, p.name


class TestInputValidation:
    def test_wrong_grid(self):
        model = build_model(seed=60)
        with pytest.raises(GridError):
            forward_full(model, FeatureMap(GridSpec((16,)), np.zeros((1, 1, 16))))
        with pytest.raises(GridError):
            forward_adapted(model, FeatureMap(GridSpec((12,)), np.zeros((1, 1, 12))))

    def test_wrong_features(self):
        model = build_model(seed=61)
        with pytest.raises(ShapeError):
            forward_full(model, FeatureMap(GridSpec((32,)), np.zeros((1, 2, 32))))

    def test_feature_count_unlike_the_ladder(self):
        with pytest.raises(ValueError, match="one width for each of 3 levels"):
            build_model(features=(4, 8))

    def test_sweep_inputs_on_another_grid(self):
        # The rule train applies: a sweep does not upsample them silently.
        model = build_model(seed=63)
        with pytest.raises(ShapeError, match=r"per-sample shape \(1, 16\)"):
            evaluate_sweep(model, np.zeros((2, 1, 16)), np.zeros(2, np.int64), [16])

    def test_empty_batch_message_names_both_rules(self):
        model = build_model(seed=64)
        for call in (lambda x: predict_classes(model, x),
                     lambda x: evaluate_sweep(model, x, np.zeros(0, np.int64), [16])):
            with pytest.raises(ShapeError, match="empty batch") as info:
                call(np.zeros((0, 1, 32)))
            assert "at least one sample" in str(info.value)

    def test_dropped_count_outside_the_chain(self):
        model = build_model(seed=62)
        fmap = random_input(model)
        for dropped in (-1, len(model.residuals) + 1, True, 1.0):
            with pytest.raises(GridError):
                model.forward_graph(fmap.values, dropped)
        # A cast has fewer residuals: the model's count would overrun them.
        coarse = random_input(model, level=1)
        with pytest.raises(GridError):
            model.cast(1).forward_graph(coarse.values, len(model.residuals))


class TestDeterminism:
    def test_eval_forward_is_bit_identical(self):
        model = build_model(seed=80)
        fmap = random_input(model, seed=81)
        first = forward_full(model, fmap)
        second = forward_full(model, fmap)
        np.testing.assert_array_equal(first, second)

    def test_same_seed_builds_identical_models(self):
        a = build_model(seed=82)
        b = build_model(seed=82)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)


class TestGraphFreeEval:
    """Evaluation runs the graph ops under no_grad: same values, no nodes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("extents", [[32, 16, 8], [(16, 8), (8, 4), (4, 2)]],
                             ids=["1d", "2d"])
    def test_graph_logits_equal_no_graph_logits_bitwise(self, dtype, kernel, extents):
        model = build_model(seed=90, kernel=kernel, dtype=dtype,
                            ladder=ResolutionLadder.from_extents(extents))
        for entry in range(len(model.ladder)):
            fmap = random_input(model, seed=91 + entry, level=entry)
            cast = model.cast(entry)
            graph = cast.forward_graph(fmap.values)
            assert graph._vjp is not None
            bare = forward_full(model, fmap) if entry == 0 else forward_adapted(
                model, fmap)
            np.testing.assert_array_equal(bare, graph.values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("extents", [[32, 16, 8], [(16, 8), (8, 4), (4, 2)]],
                             ids=["1d", "2d"])
    def test_folded_logits_match_unfolded_layers(
        self, monkeypatch, dtype, kernel, extents
    ):
        model = build_model(seed=100, kernel=kernel, dtype=dtype,
                            ladder=ResolutionLadder.from_extents(extents))
        inputs = [random_input(model, seed=101 + entry, level=entry)
                  for entry in range(len(model.ladder))]
        folded = [forward_full(model.cast(entry), fmap)
                  for entry, fmap in enumerate(inputs)]

        def unfolded_block(block, x, mode=EVAL, rng=None):
            for layer in block.layers:
                x = layer.forward(x, EVAL)
            return x

        def unfolded_terminal_and_head(model, r, mode, rng):
            r = silu_op(model.terminal_norm.forward(r, EVAL))
            r = project_channels(r, model.terminal_projection)
            return model.head.forward(r, EVAL)

        monkeypatch.setattr(InnerBlock, "forward", unfolded_block)
        monkeypatch.setattr(ArrnModel, "_terminal_and_head",
                            unfolded_terminal_and_head)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for entry, fmap in enumerate(inputs):
            reference = forward_full(model.cast(entry), fmap)
            gap = np.max(np.abs(folded[entry] - reference))
            assert gap <= tol * np.max(np.abs(reference)), (entry, gap)

    def test_eval_callers_build_no_node(self, monkeypatch):
        model = build_model(seed=92)
        fmap = random_input(model, seed=93)
        nodes = []
        init = Tensor.__init__

        def counting_init(tensor, values, parents=(), vjp=None):
            init(tensor, values, parents, vjp)
            if vjp is not None:
                nodes.append(tensor)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        model.forward_graph(fmap.values)
        assert nodes
        nodes.clear()
        forward_full(model, fmap)
        forward_adapted(model, random_input(model, seed=94, level=1))
        predict_classes(model, fmap.values)
        equivalence_report(model, 2, np.random.default_rng(95), repetitions=1)
        evaluate_sweep(model, fmap.values, np.zeros(2, dtype=int), [32, 16],
                       measure_time=False)
        zero_constancy_check(model.residuals[0].block, model.ladder[0], 4)
        assert nodes == []

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    def test_instrumented_macs_equal_count_macs(self, kernel):
        model = build_model(seed=96, kernel=kernel)
        for entry in range(len(model.ladder)):
            fmap = random_input(model, seed=97, batch=1, level=entry)
            cast = model.cast(entry)
            with macs.recording() as bare, no_grad():
                cast.forward_graph(fmap.values)
            with macs.recording() as graph:
                cast.forward_graph(fmap.values)
            assert bare.total == graph.total == count_macs(model, entry, ADAPTED)

    def test_training_on_a_worker_ignores_the_callers_no_grad(self):
        inputs = np.random.default_rng(98).standard_normal((16, 1, 32))
        labels = np.arange(16) % 3
        config = TrainConfig(epochs=2, batch_size=8, dtype="f64")
        reference, trained = build_model(seed=99), build_model(seed=99)
        train(reference, inputs, labels, config)
        with ThreadPoolExecutor(max_workers=1) as pool, no_grad():
            pool.submit(train, trained, inputs, labels, config).result()
        for a, b in zip(reference.parameters(), trained.parameters()):
            np.testing.assert_array_equal(a.values, b.values)


DESK = ResolutionLadder.from_extents([64, 32, 16])


def count_forward_graph_calls(monkeypatch) -> list:
    """Patch ``ArrnModel.forward_graph`` to record each call's batch size."""
    calls = []
    forward_graph = ArrnModel.forward_graph

    def counting(model, values, *args, **kwargs):
        calls.append(values.shape[0])
        return forward_graph(model, values, *args, **kwargs)

    monkeypatch.setattr(ArrnModel, "forward_graph", counting)
    return calls


def widest_bytes(model) -> int:
    """The widest per-sample activation of an eval pass, in bytes."""
    finest, coarsest = model.ladder[0], model.ladder[model.ladder.top_level]
    widths = [model.input_features * finest.num_samples,
              model.features[0] * finest.num_samples,
              model.features[-1] * coarsest.num_samples]
    widths += [res.block.spec.expansion * res.in_features * res.in_grid.num_samples
               for res in model.residuals]
    return max(widths) * model.dtype.itemsize


class TestBlockedEval:
    """forward_full runs a batch in blocks of eval_block_rows rows."""

    @staticmethod
    def unblocked(cast, fmap):
        with no_grad():
            return cast.forward_graph(fmap.values).values

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("extents", [[32, 16, 8], [(16, 8), (8, 4), (4, 2)]],
                             ids=["1d", "2d"])
    def test_blocked_logits_equal_one_unblocked_call_bitwise(
        self, monkeypatch, dtype, kernel, extents
    ):
        model = build_model(seed=110, kernel=kernel, dtype=dtype,
                            ladder=ResolutionLadder.from_extents(extents))
        calls = count_forward_graph_calls(monkeypatch)
        for entry in range(len(model.ladder)):
            cast = model.cast(entry)
            fmap = random_input(model, seed=111 + entry, batch=23, level=entry)
            reference = self.unblocked(cast, fmap)
            for rows, blocks in ((1, [1] * 23), (5, [5, 5, 5, 4, 4])):
                monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES",
                                    rows * widest_bytes(cast))
                assert eval_block_rows(cast) == rows
                calls.clear()
                np.testing.assert_array_equal(forward_adapted(model, fmap), reference)
                assert calls == blocks

    def test_uneven_batch_runs_as_equal_blocks(self, monkeypatch):
        model = build_model(seed=112, dtype=np.float32, ladder=DESK,
                            features=(8, 16, 32), classes=4)
        fmap = random_input(model, seed=113, batch=300)
        calls = count_forward_graph_calls(monkeypatch)
        blocked = forward_full(model, fmap)
        assert calls == [100, 100, 100]
        np.testing.assert_array_equal(blocked, self.unblocked(model, fmap))

    def test_rows_rule_and_call_counts(self, monkeypatch):
        desk = build_model(seed=114, dtype=np.float32, ladder=DESK,
                           features=(8, 16, 32), classes=4)
        verify = build_model(
            seed=115, ladder=ResolutionLadder.from_extents(
                [(32, 32), (16, 16), (8, 8)]),
            features=(8, 16, 32), classes=4, input_features=4)
        # The widest maps: the first block's expanded width on the finest
        # grid, and at entry 2 the terminal width on the coarsest grid.
        assert widest_bytes(desk) == 16 * 64 * 4
        assert widest_bytes(desk.cast(2)) == 32 * 16 * 4
        assert widest_bytes(verify) == 16 * 32 * 32 * 8
        for model in (desk, desk.cast(1), desk.cast(2), verify, verify.cast(1)):
            assert eval_block_rows(model) == (
                model_module.EVAL_BLOCK_BYTES // widest_bytes(model))
        calls = count_forward_graph_calls(monkeypatch)
        forward_full(desk, random_input(desk, batch=256))
        assert calls == [128, 128]
        calls.clear()
        forward_adapted(desk, random_input(desk, batch=256, level=2))
        assert calls == [256]
        calls.clear()
        forward_full(verify, random_input(verify, batch=2))
        assert calls == [2]

    def test_one_row_blocks_when_a_sample_exceeds_the_budget(self, monkeypatch):
        model = build_model(seed=116)
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1)
        assert eval_block_rows(model) == 1
        calls = count_forward_graph_calls(monkeypatch)
        forward_full(model, random_input(model, batch=3))
        assert calls == [1, 1, 1]

    @pytest.mark.parametrize("kernel", [PERFECT, SINC, GAUSS],
                             ids=lambda k: k.variant)
    def test_blocked_macs_equal_unblocked_macs(self, monkeypatch, kernel):
        model = build_model(seed=117, kernel=kernel)
        for entry in range(len(model.ladder)):
            monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES",
                                2 * widest_bytes(model.cast(entry)))
            fmap = random_input(model, seed=118, batch=7, level=entry)
            with macs.recording() as blocked:
                forward_adapted(model, fmap)
            with macs.recording() as unblocked:
                self.unblocked(model.cast(entry), fmap)
            assert blocked.total == unblocked.total
            assert blocked.total == 7 * count_macs(model, entry, ADAPTED)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_empty_batch_is_a_shape_error(self, level):
        model = build_model(seed=119)
        fmap = random_input(model, batch=0, level=level)
        with pytest.raises(ShapeError, match="empty batch"):
            forward_adapted(model, fmap)
        with pytest.raises(ShapeError, match="empty batch"):
            forward_full(model.cast(level), fmap)


def rewrite_manifest(raw: bytes, edit, trim: int = 0) -> bytes:
    """Re-emit an ARNN1 file with ``edit(manifest)`` and ``trim`` blob bytes cut."""
    start = len(ARNN_MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, len(ARNN_MAGIC))
    manifest = json.loads(raw[start : start + length])
    header = json.dumps(edit(manifest)).encode()
    blob = raw[start + length : len(raw) - trim]
    return ARNN_MAGIC + struct.pack("<I", len(header)) + header + blob


def edit_arrays(edit):
    def apply(manifest):
        edit(manifest["arrays"])
        return manifest

    return apply


def rename_array(old, new):
    def edit(arrays):
        next(a for a in arrays if a["name"] == old)["name"] = new

    return edit_arrays(edit)


def edit_blocks(edit):
    def apply(manifest):
        edit(manifest["blocks"])
        return manifest

    return apply


def transpose_input_projection(arrays):
    entry = next(a for a in arrays if a["name"] == "input.proj")
    entry["shape"] = entry["shape"][::-1]


ARRAY_NAMES = st.one_of(
    st.sampled_from(["input.proj", "terminal.bn.mean", "head.b"]),
    st.builds(
        "res{}.bn{}.{}".format,
        st.integers(0, 9), st.integers(0, 9), st.sampled_from(["mean", "var"]),
    ),
    st.text(max_size=12),
)
ARRAY_EDITS = st.one_of(
    st.tuples(st.just("rename"), st.integers(0, 99), ARRAY_NAMES),
    st.tuples(st.just("drop"), st.integers(0, 99), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 99), st.none()),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(
        st.just("reshape"), st.integers(0, 99),
        st.lists(st.integers(-2, 40), max_size=3),
    ),
)


def apply_array_edit(arrays, edit):
    op, i, arg = edit
    if not arrays:
        return
    i %= len(arrays)
    if op == "rename":
        arrays[i]["name"] = arg
    elif op == "drop":
        del arrays[i]
    elif op == "duplicate":
        arrays.insert(i, dict(arrays[i]))
    elif op == "swap":
        j = arg % len(arrays)
        arrays[i], arrays[j] = arrays[j], arrays[i]
    else:
        arrays[i]["shape"] = arg


class TestCheckpoint:
    def test_roundtrip_preserves_logits_bitwise(self, tmp_path):
        for dtype in (np.float64, np.float32):
            model = build_model(seed=70, kernel=GAUSS, dtype=dtype)
            fmap = random_input(model, seed=71)
            before = forward_full(model, fmap)
            path = tmp_path / f"model_{np.dtype(dtype).name}.arnn"
            save_checkpoint(path, model, dropout=0.3)
            again, manifest = load_checkpoint(path)
            assert manifest["dropout"] == [0.3, 0.3]
            after = forward_full(again, fmap)
            np.testing.assert_array_equal(before, after)

    def test_one_level_roundtrip(self, tmp_path):
        model = build_model(seed=77, ladder=ResolutionLadder.from_extents([8]),
                            features=(4,))
        assert model.residuals == []
        fmap = random_input(model, seed=78)
        path = tmp_path / "one.arnn"
        save_checkpoint(path, model)
        again, manifest = load_checkpoint(path)
        assert manifest["ladder"] == [[8]] and manifest["blocks"] == []
        np.testing.assert_array_equal(forward_full(model, fmap),
                                      forward_full(again, fmap))

    def test_save_twice_is_byte_identical(self, tmp_path):
        model = build_model(seed=72)
        save_checkpoint(tmp_path / "a.arnn", model)
        save_checkpoint(tmp_path / "b.arnn", model)
        assert (tmp_path / "a.arnn").read_bytes() == (tmp_path / "b.arnn").read_bytes()

    def test_state_keeps_arnn1_names(self):
        model = build_model(seed=76)
        params = [p.name for p in model.parameters()]
        names = list(model.state())
        assert names[: len(params)] == params
        # Running statistics are keyed by the layer's index in its block.
        assert names[len(params) :] == [
            "res0.bn1.mean", "res0.bn1.var", "res0.bn4.mean", "res0.bn4.var",
            "res1.bn1.mean", "res1.bn1.var", "res1.bn4.mean", "res1.bn4.var",
            "terminal.bn.mean", "terminal.bn.var",
        ]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.arnn"
        path.write_bytes(b"WRONG!\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        model = build_model(seed=73)
        path = tmp_path / "model.arnn"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, trim",
        [
            (lambda manifest: [manifest], 0),
            (rename_array("res0.bn1.var", "res9.bn1.var"), 0),
            # Layer 0 of every block is a PointwiseConv, not a BatchNorm.
            (rename_array("res0.bn1.var", "res0.bn0.var"), 0),
            (edit_arrays(lambda arrays: arrays.pop()), 8 * 8),
            (edit_arrays(transpose_input_projection), 0),
            (lambda manifest: {**manifest, "dtype": "f16"}, 0),
            # The loader builds its blocks from block 0; the others must agree.
            (edit_blocks(lambda blocks: blocks[1].update(padding="zero")), 0),
            (edit_blocks(lambda blocks: blocks.append(dict(blocks[0]))), 0),
            (lambda manifest: {**manifest, "blocks": []}, 0),
            (lambda manifest: {**manifest, "features": [4, 8, 0]}, 0),
            (lambda manifest: {**manifest, "kernel": {
                "variant": "truncated_gaussian", "sigma_factor": float("nan"),
                "radius_factor": 2.0}}, 0),
            # dropout is null or one probability in [0, 1] per residual.
            (lambda manifest: {**manifest, "dropout": [1.5, 1.5]}, 0),
            (lambda manifest: {**manifest, "dropout": "garbage"}, 0),
            (lambda manifest: {**manifest, "dropout": [0.3]}, 0),
            (lambda manifest: {**manifest, "dropout": [0.3, 0.3, 0.3]}, 0),
            (lambda manifest: {**manifest, "dropout": {"a": 1}}, 0),
            (lambda manifest: {**manifest, "dropout": -1}, 0),
            (lambda manifest: {**manifest, "dropout": [True, False]}, 0),
            (lambda manifest: {**manifest, "dropout": [float("nan"), 0.3]}, 0),
            (lambda manifest: {**manifest, "dropout": ["0.3", 0.3]}, 0),
            (lambda manifest: {k: v for k, v in manifest.items()
                               if k != "dropout"}, 0),
        ],
        ids=["list-manifest", "unknown-residual", "non-norm-layer",
             "dropped-last-array", "transposed-shape", "unknown-dtype",
             "zero-padded-block-1", "extra-block", "no-blocks",
             "zero-last-width", "nan-sigma-factor", "dropout-above-one",
             "dropout-string", "dropout-too-short", "dropout-too-long",
             "dropout-object", "dropout-negative-number", "dropout-bools",
             "dropout-nan", "dropout-string-entry", "no-dropout-field"],
    )
    def test_malformed_array_table(self, tmp_path, edit, trim):
        model = build_model(seed=74)
        assert model.state()["terminal.bn.var"].nbytes == 8 * 8
        path = tmp_path / "model.arnn"
        save_checkpoint(path, model)
        path.write_bytes(rewrite_manifest(path.read_bytes(), edit, trim))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dropout", [None, [0, 1], [0.0, 0.25]])
    def test_valid_dropout_field_loads(self, tmp_path, dropout):
        path = tmp_path / "model.arnn"
        save_checkpoint(path, build_model(seed=74))
        path.write_bytes(rewrite_manifest(
            path.read_bytes(), lambda manifest: {**manifest, "dropout": dropout}))
        assert load_checkpoint(path)[1]["dropout"] == dropout

    @pytest.mark.parametrize("dropout", [-0.1, 1.5, float("nan")])
    def test_save_refuses_a_dropout_outside_the_unit_interval(
        self, tmp_path, dropout
    ):
        with pytest.raises(ValueError, match=r"dropout probability"):
            save_checkpoint(tmp_path / "model.arnn", build_model(seed=74), dropout)
        assert not any(tmp_path.iterdir())

    def test_numpy_dropout_is_stored_as_a_float(self, tmp_path):
        path = tmp_path / "model.arnn"
        save_checkpoint(path, build_model(seed=74), np.float32(0.3))
        assert load_checkpoint(path)[1]["dropout"] == [float(np.float32(0.3))] * 2

    def test_save_refuses_a_bool_dropout(self, tmp_path):
        # load_checkpoint refuses a stored bool, so save must not write one.
        with pytest.raises(ValueError, match=r"dropout probability"):
            save_checkpoint(tmp_path / "model.arnn", build_model(seed=74), True)
        assert not any(tmp_path.iterdir())

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edits=st.lists(ARRAY_EDITS, min_size=1, max_size=4))
    def test_mutated_array_table_loads_or_fails_cleanly(self, tmp_path, edits):
        path = tmp_path / "model.arnn"
        save_checkpoint(path, build_model(seed=75))

        def mutate(arrays):
            for edit in edits:
                apply_array_edit(arrays, edit)

        path.write_bytes(rewrite_manifest(path.read_bytes(), edit_arrays(mutate)))
        try:
            load_checkpoint(path)
        except (FormatError, GridError, ShapeError):
            pass


@pytest.mark.parametrize("field, value", [
    ("input_features", 1.5), ("input_features", True), ("classes", 4.0), ("classes", True),
])
def test_count_that_is_no_integer_is_rejected(field, value):
    counts = {"input_features": 1, "classes": 4, field: value}
    with pytest.raises(ValueError, match="must be integers"):
        ArrnModel(LADDER, features=(2, 2, 2), kernel=PERFECT,
                  rng=np.random.default_rng(0), **counts)


@pytest.mark.parametrize("field, value", [
    ("expansion", 2.5), ("expansion", True), ("depth", 1.0), ("depth", 0),
])
def test_block_count_that_is_no_positive_integer_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        ArrnModel(LADDER, 1, (2, 2, 2), 4, PERFECT, np.random.default_rng(0),
                  **{field: value})
