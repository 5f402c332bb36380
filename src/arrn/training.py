"""Desk-scale training loop: AdamW, cosine annealing, per-batch level gates.

Everything is driven by explicit seeded generators (parameter
initialization happens at model construction; this module derives
separate streams for shuffling, level gates, and head dropout), so a
fixed config reproduces checkpoints byte for byte.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter
from .data import check_labels
from .errors import NumericError
from .grids import is_integer
from .layers import TRAIN, FeatureMap, softmax_cross_entropy
from .model import ArrnModel, check_inputs, forward_full, is_probability
from .signal import DTYPES


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 1e-3
    min_learning_rate: float = 1e-5
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 1e-3
    dropout: float | None = 0.3  # per-level gate drop probability
    seed: int = 0
    dtype: str = "f32"

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "min_learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, float(value))  # numpy floats save as JSON
        try:
            betas = tuple(self.betas)
        except TypeError:
            betas = ()
        # A beta of 1 makes AdamW's bias correction 1 - beta**t zero.
        if len(betas) != 2 or not all(
            isinstance(b, numbers.Real) and not isinstance(b, bool) and 0.0 <= b < 1.0
            for b in betas
        ):
            raise ValueError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        object.__setattr__(self, "betas", tuple(float(b) for b in betas))
        if self.dropout is not None:
            if not is_probability(self.dropout):
                raise ValueError("dropout probability must lie in [0, 1]")
            object.__setattr__(self, "dropout", float(self.dropout))
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")

    @property
    def numpy_dtype(self) -> np.dtype:
        return DTYPES[self.dtype]

    def describe(self) -> dict:
        return {
            "epochs": int(self.epochs),
            "batch_size": int(self.batch_size),
            "learning_rate": self.learning_rate,
            "min_learning_rate": self.min_learning_rate,
            "betas": list(self.betas),
            "weight_decay": self.weight_decay,
            "dropout": self.dropout,
            "seed": int(self.seed),
            "dtype": self.dtype,
        }


class AdamW:
    """Adam with decoupled weight decay; decay skips flagged parameters
    (biases, normalization scales and shifts)."""

    def __init__(
        self,
        params: list[Parameter],
        learning_rate: float,
        betas: tuple[float, float] = (0.9, 0.999),
        weight_decay: float = 0.0,
        eps: float = 1e-8,
    ):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.values) for p in params]
        self._v = [np.zeros_like(p.values) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, learning_rate: float | None = None):
        lr = self.learning_rate if learning_rate is None else learning_rate
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for i, p in enumerate(self.params):
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.values)
            grad = grad.astype(np.float64)
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            update = (self._m[i] / b1c) / (np.sqrt(self._v[i] / b2c) + self.eps)
            new = p.values.astype(np.float64) - lr * update
            if self.weight_decay and p.decay:
                new -= lr * self.weight_decay * p.values.astype(np.float64)
            p.assign(new.astype(p.values.dtype))


def cosine_learning_rate(config: TrainConfig, epoch: int) -> float:
    """Annealed rate for the given 0-based epoch."""
    if config.epochs == 1:
        return config.learning_rate
    progress = epoch / (config.epochs - 1)
    return config.min_learning_rate + 0.5 * (
        config.learning_rate - config.min_learning_rate
    ) * (1.0 + math.cos(math.pi * progress))


@dataclass
class TrainResult:
    epoch_losses: list[float]
    learning_rates: list[float]
    final_train_accuracy: float


@np.errstate(over="raise", invalid="raise")
def train(
    model: ArrnModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Optimize the model in place on ``(inputs, labels)``.

    ``inputs`` is ``(n, channels, *extents)`` on the model's finest grid, so
    level-``u`` data trains ``model.cast(u)``; another per-sample shape, or a
    label outside ``[0, classes)``, raises :class:`~arrn.errors.ShapeError`.
    Each minibatch omits :func:`draw_dropped` fine residuals (Laplacian
    dropout): it runs ``model.cast(dropped)`` on the batch after the base
    low-pass and one downsample with the model's kernel per skipped level,
    so the skipped blocks neither run nor train. A non-finite loss, or an
    overflow or invalid value in any step, aborts immediately with
    :class:`~arrn.errors.NumericError` rather than training through it.
    """
    try:
        return _fit(model, inputs, labels, config)
    except FloatingPointError as exc:
        raise NumericError(f"training diverged: {exc}") from exc


def _fit(model, inputs, labels, config) -> TrainResult:
    if model.dtype != np.dtype(config.numpy_dtype):
        raise ValueError(
            f"model dtype {model.dtype} does not match config {config.dtype}"
        )
    inputs = np.asarray(inputs, dtype=model.dtype)
    check_inputs(model, inputs)
    check_labels(labels, inputs.shape[0], model.classes)
    labels = np.asarray(labels, dtype=np.int64)
    streams = np.random.SeedSequence(config.seed).spawn(3)
    shuffle_rng = np.random.default_rng(streams[0])
    gate_rng = np.random.default_rng(streams[1])
    head_rng = np.random.default_rng(streams[2])

    optimizer = AdamW(
        model.parameters(),
        learning_rate=config.learning_rate,
        betas=config.betas,
        weight_decay=config.weight_decay,
    )

    n = inputs.shape[0]
    epoch_losses: list[float] = []
    learning_rates: list[float] = []
    for epoch in range(config.epochs):
        lr = cosine_learning_rate(config, epoch)
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            dropped = (
                draw_dropped(gate_rng, config.dropout, len(model.residuals))
                if config.dropout is not None
                else 0
            )
            logits = model.forward_graph(
                inputs[batch], dropped, mode=TRAIN, rng=head_rng
            )
            loss = softmax_cross_entropy(logits, labels[batch])
            loss_value = float(loss.values)
            if not math.isfinite(loss_value):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}"
                )
            optimizer.zero_grad()
            loss.backward(np.ones_like(loss.values))
            optimizer.step(lr)
            batch_losses.append(loss_value)
        epoch_losses.append(float(np.mean(batch_losses)))
        learning_rates.append(lr)

    predictions = predict_classes(model, inputs)
    accuracy = float(np.mean(predictions == labels))
    return TrainResult(epoch_losses, learning_rates, accuracy)


def draw_dropped(rng: np.random.Generator, p: float, levels: int) -> int:
    """How many fine residuals one minibatch drops: one uniform per level,
    finest first, all drawn, and the count of leading draws below ``p``.

    So ``dropped >= k`` has probability ``p**k``.
    """
    kept = rng.random(levels) >= p
    return int(kept.argmax()) if kept.any() else levels


def predict_classes(model: ArrnModel, inputs: np.ndarray) -> np.ndarray:
    """Eval-mode class predictions for inputs on the model's finest grid
    (predict level-``u`` data with ``model.cast(u)``)."""
    check_inputs(model, inputs)
    fmap = FeatureMap(model.ladder[0], np.asarray(inputs, dtype=model.dtype))
    return np.argmax(forward_full(model, fmap), axis=1)
