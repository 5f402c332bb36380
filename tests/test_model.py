"""Residual-chain semantics: the skip theorem and its supporting contracts."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrn.autodiff import Tensor
from arrn.errors import FormatError, GridError, ShapeError
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.layers import FeatureMap
from arrn.model import (
    ARNN_MAGIC,
    ArrnModel,
    DropoutConfig,
    DropoutMask,
    entry_level,
    equivalence_report,
    forward_adapted,
    forward_full,
    load_checkpoint,
    randomize_for_verification,
    sample_mask,
    save_checkpoint,
)
from arrn.resample import (
    decimate_array,
    downsample_array,
    lowpass_array,
    upsample_array,
)
from arrn.signal import mean_reject_array

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


class TestMasks:
    def test_no_drop_probability_keeps_everything(self):
        rng = np.random.default_rng(0)
        mask = sample_mask(rng, DropoutConfig.uniform(0.0, 4))
        assert mask.chain == (1, 1, 1, 1)

    def test_full_drop_probability_gates_everything_off(self):
        rng = np.random.default_rng(0)
        mask = sample_mask(rng, DropoutConfig.uniform(1.0, 4))
        assert mask.chain == (0, 0, 0, 0)

    def test_or_chain_example(self):
        mask = DropoutMask((0, 0, 1, 0), (0, 0, 1, 1))
        assert mask.dropped_prefix == 2
        with pytest.raises(ValueError):
            DropoutMask((0, 0, 1, 0), (0, 0, 1, 0))

    def test_sampled_chains_are_step_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mask = sample_mask(rng, DropoutConfig.uniform(0.5, 5))
            chain = mask.chain
            assert all(a <= b for a, b in zip(chain, chain[1:]))
            running = 0
            for ind, ch in zip(mask.independent, chain):
                running |= ind
                assert ch == running

    def test_stream_order_is_one_draw_per_level(self):
        # The documented stream: one uniform per level, finest first.
        config = DropoutConfig((0.3, 0.6, 0.1))
        draws = np.random.default_rng(42).random(3)
        expected = tuple(int(u >= p) for u, p in zip(draws, config.probabilities))
        mask = sample_mask(np.random.default_rng(42), config)
        assert mask.independent == expected

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            DropoutConfig((0.5, 1.2))


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
    def test_gate_zero_is_projected_downsample_and_param_independent(self):
        from arrn.autodiff import project_channels

        model = build_model(seed=5)
        res = model.residuals[0]
        x = np.random.default_rng(6).standard_normal((2, 4, 32))
        out1 = res.forward(Tensor(x), gate=0).values
        low = lowpass_array(x, (32,), (16,), PERFECT, 1)
        expected = project_channels(
            Tensor(decimate_array(low, (2,), 1)), res.projection
        ).values
        np.testing.assert_array_equal(out1, expected)
        for p in res.block.parameters():
            p.assign(p.values + 1.0)
        out2 = res.forward(Tensor(x), gate=0).values
        np.testing.assert_array_equal(out1, out2)

    def test_constant_input_collapses_to_projected_downsample(self):
        # A constant map has zero band difference, so the block contributes
        # nothing beyond float dust even with gate 1.
        model = build_model(seed=7)
        res = model.residuals[0]
        x = np.full((1, 4, 32), 1.37)
        out = res.forward(Tensor(x), gate=1).values
        expected = np.einsum(
            "oc,bcs->bos",
            res.projection.values,
            downsample_array(x, (16,), PERFECT, 1),
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_bandlimited_input_collapses_for_perfect_kernel(self):
        model = build_model(seed=8)
        res = model.residuals[0]
        rng = np.random.default_rng(9)
        x = lowpass_array(rng.standard_normal((1, 4, 32)), (32,), (16,), PERFECT, 1)
        out = res.forward(Tensor(x), gate=1).values
        expected = np.einsum(
            "oc,bcs->bos",
            res.projection.values,
            downsample_array(x, (16,), PERFECT, 1),
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_fused_path_matches_unfused_reference(self):
        for kernel in (PERFECT, SINC, GAUSS):
            model = build_model(seed=10, kernel=kernel)
            res = model.residuals[0]
            x = np.random.default_rng(11).standard_normal((2, 4, 32))
            out = res.forward(Tensor(x), gate=1).values
            # Reference: every operator applied separately at full rate.
            r_low = lowpass_array(x, (32,), (16,), kernel, 1)
            y = res.block.forward(Tensor(x - r_low), mode="eval").values
            y = mean_reject_array(y, 1)
            y = lowpass_array(y, (32,), (16,), kernel, 1)
            summed = decimate_array(y + r_low, (2,), 1)
            expected = np.einsum("oc,bcs->bos", res.projection.values, summed)
            np.testing.assert_allclose(out, expected, atol=1e-12)


class TestDropoutDownsamplingIdentity:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_gated_prefix_equals_adapted_on_downsampled_input(self, k, seed):
        model = build_model(seed=seed)
        fmap = random_input(model, seed=seed + 30)
        chain = tuple(0 if i < k else 1 for i in range(len(model.residuals)))
        mask = DropoutMask(chain, chain)
        gated = forward_full(model, fmap, mask=mask)
        values = fmap.values
        for level in range(1, k + 1):
            values = downsample_array(
                values, model.ladder[level].extents, PERFECT, 1
            )
        adapted = forward_adapted(model, FeatureMap(model.ladder[k], values))
        np.testing.assert_allclose(gated, adapted, atol=1e-9)

    def test_zero_input_logits_independent_of_mask(self):
        model = build_model(seed=40)
        zero = FeatureMap(model.ladder[0], np.zeros((1, 1, 32)))
        reference = forward_full(model, zero)
        for chain in [(0, 0), (0, 1), (1, 1)]:
            out = forward_full(model, zero, mask=DropoutMask(chain, chain))
            np.testing.assert_allclose(out, reference, atol=1e-12)

    def test_gated_prefix_equals_full_on_bandlimited_input(self):
        # Gating off the first k levels also equals an all-gates-on full
        # evaluation of the k-times-downsampled-then-upsampled input.
        model = build_model(seed=41)
        fmap = random_input(model, seed=42)
        for k in (1, 2):
            chain = tuple(0 if i < k else 1 for i in range(2))
            gated = forward_full(model, fmap, mask=DropoutMask(chain, chain))
            values = fmap.values
            for level in range(1, k + 1):
                values = downsample_array(
                    values, model.ladder[level].extents, PERFECT, 1
                )
            values = upsample_array(values, model.ladder[0].extents, 1)
            full = forward_full(model, FeatureMap(model.ladder[0], values))
            np.testing.assert_allclose(gated, full, atol=1e-9)


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
        np.testing.assert_allclose(model.composed_projection(2), expected, atol=0)

    def test_cache_invalidation_on_version_bump(self):
        model = build_model(seed=51)
        first = model.composed_projection(1)
        model.input_projection.assign(model.input_projection.values * 2.0)
        model.bump_version()
        second = model.composed_projection(1)
        np.testing.assert_allclose(second, first * 2.0, atol=1e-12)


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

    def test_wrong_mask_length(self):
        model = build_model(seed=62)
        fmap = random_input(model)
        with pytest.raises(ShapeError):
            forward_full(model, fmap, mask=DropoutMask((1,), (1,)))


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
            save_checkpoint(path, model, dropout=DropoutConfig.uniform(0.3, 2))
            again, manifest = load_checkpoint(path)
            assert manifest["dropout"] == [0.3, 0.3]
            after = forward_full(again, fmap)
            np.testing.assert_array_equal(before, after)

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
        ],
        ids=["list-manifest", "unknown-residual", "non-norm-layer",
             "dropped-last-array", "transposed-shape", "unknown-dtype",
             "zero-padded-block-1", "extra-block", "no-blocks"],
    )
    def test_malformed_array_table(self, tmp_path, edit, trim):
        model = build_model(seed=74)
        assert model.state()["terminal.bn.var"].nbytes == 8 * 8
        path = tmp_path / "model.arnn"
        save_checkpoint(path, model)
        path.write_bytes(rewrite_manifest(path.read_bytes(), edit, trim))
        with pytest.raises(FormatError):
            load_checkpoint(path)

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
