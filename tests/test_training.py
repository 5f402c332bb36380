"""Optimizer mechanics, schedule, determinism, and run-to-convergence."""

import json

import numpy as np
import pytest

from arrn.autodiff import Parameter
from arrn.data import SynthDatasetSpec, generate_dataset
from arrn.errors import NumericError, ShapeError
from arrn.grids import ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.model import ArrnModel, save_checkpoint
from arrn.training import AdamW, TrainConfig, cosine_learning_rate, train

LADDER = ResolutionLadder.from_extents([64, 32, 16])


def build_model(seed=0, dtype=np.float32, classes=2):
    return ArrnModel(
        LADDER, 1, (8, 16, 32), classes, SmoothingKernelSpec.perfect(),
        np.random.default_rng(seed), dtype=dtype,
    )


def toy_dataset(seed=1, classes=2, samples=32, noise=0.0):
    signatures = None
    if classes == 2:
        signatures = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    spec = SynthDatasetSpec(
        classes=classes, samples_per_class=samples, noise=noise, seed=seed,
        signatures=signatures,
    )
    return generate_dataset(spec)


class TestAdamW:
    def test_zero_learning_rate_keeps_parameters(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.array([0.5, 0.5])
        opt = AdamW([p], learning_rate=0.0, weight_decay=0.1)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_first_step_moves_against_gradient_sign(self):
        p = Parameter(np.array([0.0, 0.0]), decay=False)
        p.grad = np.array([1.0, -1.0])
        opt = AdamW([p], learning_rate=0.1)
        opt.step()
        assert p.values[0] < 0 < p.values[1]
        np.testing.assert_allclose(np.abs(p.values), 0.1, atol=1e-6)

    def test_weight_decay_skips_flagged_parameters(self):
        decayed = Parameter(np.array([1.0]), decay=True)
        spared = Parameter(np.array([1.0]), decay=False)
        for p in (decayed, spared):
            p.grad = np.zeros(1)
        opt = AdamW([decayed, spared], learning_rate=0.1, weight_decay=0.5)
        opt.step()
        assert decayed.values[0] == pytest.approx(1.0 - 0.1 * 0.5)
        assert spared.values[0] == pytest.approx(1.0)


class TestSchedule:
    def test_cosine_endpoints(self):
        cfg = TrainConfig(epochs=10, learning_rate=1e-3, min_learning_rate=1e-5)
        assert cosine_learning_rate(cfg, 0) == pytest.approx(1e-3)
        assert cosine_learning_rate(cfg, 9) == pytest.approx(1e-5)

    def test_cosine_monotone_decrease(self):
        cfg = TrainConfig(epochs=20)
        rates = [cosine_learning_rate(cfg, e) for e in range(20)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestTrain:
    def test_zero_learning_rate_leaves_model_unchanged(self):
        model = build_model()
        ds = toy_dataset()
        before = [p.values.copy() for p in model.parameters()]
        cfg = TrainConfig(
            epochs=1, batch_size=16, learning_rate=0.0, min_learning_rate=0.0,
            weight_decay=0.0, dropout=None, seed=0,
        )
        train(model, ds.train.inputs, ds.train.labels, cfg)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.values, b)

    def test_initial_loss_is_log_classes(self):
        model = build_model(classes=4)
        ds = toy_dataset(classes=4, samples=8, noise=0.1)
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.0,
                          min_learning_rate=0.0, weight_decay=0.0,
                          dropout=None, seed=0)
        result = train(model, ds.train.inputs, ds.train.labels, cfg)
        # Fresh heads have zero weights in expectation; the observed first
        # loss sits near ln(C) for any small random initialization.
        assert result.epoch_losses[0] == pytest.approx(np.log(4), abs=0.2)

    def test_converges_on_separable_noiseless_task(self):
        model = build_model(seed=3)
        ds = toy_dataset(seed=3, samples=128)
        cfg = TrainConfig(epochs=30, batch_size=64, seed=3, dropout=None)
        result = train(model, ds.train.inputs, ds.train.labels, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0] / 2
        assert result.final_train_accuracy >= 0.95

    def test_divergence_raises_numeric_error(self):
        # Saturate the head so the first loss overflows float32: the class
        # logits sit near +3e38 and -3e38, and their gap is infinite. The
        # non-finite loss must be reported, not trained through.
        model = build_model(seed=4)
        model.head.weight.assign(
            np.full(model.head.weight.shape, 1e38, dtype=np.float32)
        )
        model.head.bias.assign(np.array([3e38, -3e38], dtype=np.float32))
        ds = toy_dataset(seed=4, samples=16)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4, dropout=None)
        with pytest.raises(NumericError):
            with np.errstate(all="ignore"):
                train(model, ds.train.inputs, ds.train.labels, cfg)

    @pytest.mark.parametrize("field", [
        "learning_rate", "min_learning_rate", "weight_decay",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
    def test_bad_optimiser_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True])
    def test_count_that_is_no_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "seed"])
    def test_numpy_integer_count_accepted(self, field):
        config = TrainConfig(**{field: np.int64(2)})
        assert getattr(config, field) == 2
        assert json.loads(json.dumps(config.describe()))[field] == 2

    def test_bool_dropout_rejected(self):
        with pytest.raises(ValueError, match="dropout probability"):
            TrainConfig(dropout=True)

    def test_zero_optimiser_settings_allowed(self):
        TrainConfig(learning_rate=0.0, min_learning_rate=0.0, weight_decay=0.0)

    @pytest.mark.parametrize("field", [
        "learning_rate", "min_learning_rate", "weight_decay", "dropout",
    ])
    def test_numpy_float_setting_is_stored_as_a_float(self, field):
        config = TrainConfig(**{field: np.float32(0.25)})
        assert type(getattr(config, field)) is float
        assert json.loads(json.dumps(config.describe()))[field] == 0.25

    def test_numpy_float_head_dropout_saves(self, tmp_path):
        model = ArrnModel(ResolutionLadder.from_extents([16, 8]), 1, (2, 2), 2,
                          SmoothingKernelSpec.perfect(), np.random.default_rng(0),
                          head_dropout=np.float32(0.25))
        assert type(model.head_dropout) is float
        save_checkpoint(tmp_path / "model.arnn", model)

    def test_numpy_float_kernel_factor_saves(self, tmp_path):
        kernel = SmoothingKernelSpec.truncated_gaussian(sigma_factor=np.float32(0.6))
        model = ArrnModel(ResolutionLadder.from_extents([16, 8]), 1, (2, 2), 2,
                          kernel, np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.arnn", model)

    @pytest.mark.parametrize("betas", [
        (1.0, 0.999), (0.9, 1.0), (-0.1, 0.999), (float("nan"), 0.999),
        (0.9, float("inf")), (0.9,), (0.9, 0.99, 0.999), (True, 0.999), 0.9,
    ])
    def test_bad_betas_rejected(self, betas):
        with pytest.raises(ValueError, match="betas must be two numbers in"):
            TrainConfig(betas=betas)

    def test_numpy_betas_are_stored_as_python_floats(self):
        config = TrainConfig(betas=[np.float32(0.5), np.float64(0.999)])
        assert config.betas == (0.5, 0.999)
        assert all(type(b) is float for b in config.betas)
        assert json.loads(json.dumps(config.describe()))["betas"] == [0.5, 0.999]

    def test_default_betas_describe_as_before(self):
        assert json.dumps(TrainConfig().describe()["betas"]) == "[0.9, 0.999]"

    @pytest.mark.parametrize("shape", [(4, 2, 64), (4, 1, 32), (4, 64)])
    def test_inputs_unlike_the_model_rejected(self, shape):
        model = build_model()
        with pytest.raises(ShapeError):
            train(model, np.zeros(shape, dtype=np.float32),
                  np.zeros(4, dtype=np.int64), TrainConfig(epochs=1))

    def test_zero_samples_rejected(self):
        model = build_model()
        with pytest.raises(ShapeError, match="at least one sample"):
            train(model, np.zeros((0, 1, 64), dtype=np.float32),
                  np.zeros(0, dtype=np.int64), TrainConfig(epochs=1))

    @pytest.mark.parametrize("labels", [3, 5, (4, 1)])
    def test_label_count_unlike_the_inputs_rejected(self, labels):
        model = build_model()
        with pytest.raises(ShapeError, match="labels have shape"):
            train(model, np.zeros((4, 1, 64), dtype=np.float32),
                  np.zeros(labels, dtype=np.int64), TrainConfig(epochs=1))

    @pytest.mark.parametrize("label", [-1, 4, 1.5])
    def test_label_outside_the_classes_rejected(self, label):
        # -1 would index the last logit column and 4 none at all.
        model = ArrnModel(ResolutionLadder.from_extents([16, 8]), 1, (2, 2), 4,
                          SmoothingKernelSpec.perfect(), np.random.default_rng(0))
        with pytest.raises(ShapeError, match=r"labels must be integers in \[0, 4\)"):
            train(model, np.zeros((4, 1, 16)),
                  np.array([0, 1, 2, label]), TrainConfig(epochs=1, dtype="f64"))

    def test_dtype_mismatch_rejected(self):
        model = build_model(dtype=np.float64)
        ds = toy_dataset()
        with pytest.raises(ValueError):
            train(model, ds.train.inputs, ds.train.labels,
                  TrainConfig(dtype="f32"))

    def test_identical_seeds_give_byte_identical_checkpoints(self, tmp_path):
        ds = toy_dataset(seed=6, samples=24)
        for run in ("a", "b"):
            model = build_model(seed=6)
            cfg = TrainConfig(epochs=3, batch_size=16, seed=6, dropout=0.3)
            train(model, ds.train.inputs, ds.train.labels, cfg)
            save_checkpoint(tmp_path / f"{run}.arnn", model)
        assert (tmp_path / "a.arnn").read_bytes() == (tmp_path / "b.arnn").read_bytes()

    def test_training_with_dropout_runs_and_learns(self):
        model = build_model(seed=7)
        ds = toy_dataset(seed=7, samples=64)
        cfg = TrainConfig(epochs=10, batch_size=32, seed=7, dropout=0.3)
        result = train(model, ds.train.inputs, ds.train.labels, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]
