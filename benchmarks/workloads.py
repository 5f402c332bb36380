"""The three benchmark workloads, written against arrn's public API only.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operations are numbered from 0, and
operation ``i`` is a pure function of the seed and ``i``, so a traced and
an untraced run of the same seed see the same inputs. Every operation's
output is checked; ``check`` returns ``(ok, record)`` where ``record`` is
compared bit for bit between the traced and untraced runs.

arrn functions are always looked up as attributes of their module at call
time (``arrn.forward_full``, never a name bound at import), so that the
traced run's wrappers see every call.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import arrn
import arrn.evaluate
import arrn.macs
import arrn.model

CLASSES = 4
FEATURES = (8, 16, 32)
EXPANSION = 2
DEPTH = 1

# f32 logits of the full and the adapted path must agree to this relative
# sup-norm error (about 80 ulps of float32; measured agreement is ~1e-7).
EVAL_REL_TOL = 1e-5
PERFECT_MAX_ABS = 1e-9  # criterion 2
APPROX_MIN_ABS = 1e-6  # criterion 6
PYRAMID_TOL = 1e-10  # criterion 1


@dataclass
class Op:
    """One prepared operation: ``call`` is the timed region."""

    kind: str
    work: int
    call: object


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _model(ladder, kernel, rng, dtype) -> arrn.ArrnModel:
    return arrn.ArrnModel(
        ladder, 1, FEATURES, CLASSES, kernel, rng,
        expansion=EXPANSION, depth=DEPTH, dtype=dtype,
    )


def _checkpoint_round_trip(model, path: Path) -> arrn.ArrnModel:
    arrn.save_checkpoint(path, model)
    loaded, _ = arrn.load_checkpoint(path)
    return loaded


def mac_checks(model) -> list[tuple[str, bool]]:
    """Analytic ``count_macs`` equals the instrumented total at entries 0-2."""
    out = []
    for entry in range(len(model.ladder)):
        grid = model.ladder[entry]
        zeros = np.zeros((1, 1) + grid.extents, dtype=model.dtype)
        with arrn.macs.recording() as counter:
            arrn.forward_adapted(model, arrn.FeatureMap(grid, zeros))
        analytic = arrn.count_macs(model, entry, arrn.evaluate.ADAPTED)
        out.append((f"macs entry {entry}: {analytic} vs {counter.total}",
                    analytic == counter.total))
    return out


def analytic_macs(model) -> dict[str, int]:
    return {
        "macs.full": arrn.count_macs(model, 0, arrn.evaluate.FULL),
        "macs.entry1": arrn.count_macs(model, 1, arrn.evaluate.ADAPTED),
        "macs.entry2": arrn.count_macs(model, 2, arrn.evaluate.ADAPTED),
    }


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    cycle = 1  # loops end on multiples of this many operations
    warmup = 0  # untimed operations before the loop
    throughput_name = ""  # the work unit, named as README.md reports it
    latency_groups: dict[str, tuple[str, ...]] = {}  # metric prefix -> kinds

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def checks(self, state) -> list[tuple[str, bool]]:
        return mac_checks(state.model)

    def probe(self, state):
        """A call whose peak allocation is the workload's working set."""
        return self.prepare(state, 0).call

    def macs(self, state) -> dict[str, int]:
        return analytic_macs(state.model)

    def prepare(self, state, i: int) -> Op:
        raise NotImplementedError

    def check(self, state, i: int, output) -> tuple[bool, object]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-1d
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    seed: int
    model: arrn.ArrnModel
    checkpoint: Path
    inputs: np.ndarray
    labels: np.ndarray


class Train1D(Workload):
    """``arrn.train`` on the criterion-7 cell: cycles of four 5-epoch calls.

    Each cycle starts from the set-up checkpoint and continues training the
    same model through its four calls. Calls of 5 epochs keep operations
    short, so the reference readings around each one sit close to the work
    they normalize, and long enough that the closing ``predict_classes``
    pass is about a tenth of the call. Every call's losses must be finite;
    after a cycle's 20 epochs train accuracy must be above chance (after 5
    epochs some seeds are still at chance).
    """

    name = "train-1d"
    cycle = 4
    epochs = 5
    throughput_name = "train_samples_per_s"
    latency_groups = {"train": ("train",)}

    def setup(self, seed, workdir):
        ladder = arrn.ResolutionLadder.from_extents([64, 32, 16])
        data = arrn.generate_dataset(arrn.SynthDatasetSpec(
            classes=CLASSES, level_extents=((64,), (32,), (16,)),
            samples_per_class=256, noise=0.1, seed=seed,
        ))
        model = _model(ladder, arrn.SmoothingKernelSpec.perfect(),
                       np.random.default_rng(seed), np.float32)
        checkpoint = workdir / "train-1d.arnn"
        model = _checkpoint_round_trip(model, checkpoint)
        return TrainState(seed, model, checkpoint, data.train.inputs,
                          data.train.labels)

    @staticmethod
    def _config(seed, i, epochs):
        # Each call draws its own shuffles and level gates. The gates decide
        # how many blocks run, so one training seed for every call would make
        # a run's cost depend on that seed (up to 30% between seeds).
        call_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        return arrn.TrainConfig(epochs=epochs, batch_size=128, dropout=0.3,
                                seed=call_seed, dtype="f32")

    def probe(self, state):
        # One epoch reaches the same per-step peak as five.
        model, _ = arrn.load_checkpoint(state.checkpoint)
        config = self._config(state.seed, 0, 1)
        return lambda: arrn.train(model, state.inputs, state.labels, config)

    def prepare(self, state, i):
        if i % self.cycle == 0:
            state.model, _ = arrn.load_checkpoint(state.checkpoint)
        model = state.model
        config = self._config(state.seed, i, self.epochs)
        work = self.epochs * state.inputs.shape[0]
        return Op("train", work, lambda: arrn.train(
            model, state.inputs, state.labels, config))

    def check(self, state, i, result):
        losses = tuple(result.epoch_losses)
        ok = all(math.isfinite(v) for v in losses)
        if i % self.cycle == self.cycle - 1:
            ok = ok and result.final_train_accuracy > 1.0 / CLASSES
        params = _digest(p.values for p in state.model.parameters())
        return ok, (losses, result.final_train_accuracy, params)


# ---------------------------------------------------------------------------
# eval-ladder
# ---------------------------------------------------------------------------

EVAL_RESOLUTIONS = (64, 48, 32, 24, 16)
EVAL_BATCH = 256
EVAL_BATCHES = 4


@dataclass
class EvalState:
    model: arrn.ArrnModel
    # per (batch, resolution): (entry level, adapted input map, full input map)
    inputs: dict
    pending: dict = field(default_factory=dict)


def _resample_batch(values: np.ndarray, grid) -> np.ndarray:
    """Perfect resampling of a (batch, 1, n) array through the public API."""
    batch = values.shape[0]
    signal = arrn.DiscreteSignal(arrn.GridSpec(values.shape[2:]),
                                 values.reshape((batch,) + values.shape[2:]))
    out = arrn.resample_to(signal, grid).values
    return out.reshape((batch, 1) + grid.extents)


class EvalLadder(Workload):
    """Full versus adapted evaluation over a fixed cycle of resolutions.

    Operation ``i`` is one forward call: batch ``(i // 10) % 4``, resolution
    ``EVAL_RESOLUTIONS[(i % 10) // 2]``, the adapted path on even ``i`` and
    the full path on odd ``i``; the full call checks the pair.
    """

    name = "eval-ladder"
    cycle = 2 * len(EVAL_RESOLUTIONS)
    warmup = cycle
    throughput_name = "eval_samples_per_s"
    latency_groups = {"full": ("full",), "entry1": ("entry1",),
                      "entry2": ("entry2",)}

    def setup(self, seed, workdir):
        ladder = arrn.ResolutionLadder.from_extents([64, 32, 16])
        data = arrn.generate_dataset(arrn.SynthDatasetSpec(
            classes=CLASSES, level_extents=((64,), (32,), (16,)),
            samples_per_class=EVAL_BATCH * EVAL_BATCHES // CLASSES,
            noise=0.1, seed=seed,
        ))
        signals = np.concatenate([data.train.inputs, data.test.inputs])
        model = _model(ladder, arrn.SmoothingKernelSpec.perfect(),
                       np.random.default_rng(seed), np.float32)
        arrn.model.randomize_for_verification(
            model, np.random.default_rng([seed, 1]))
        model = _checkpoint_round_trip(model, workdir / "eval-ladder.arnn")

        inputs = {}
        for b in range(EVAL_BATCHES):
            base = signals[b * EVAL_BATCH:(b + 1) * EVAL_BATCH]
            for res in EVAL_RESOLUTIONS:
                grid = arrn.GridSpec((res,))
                coarse = _resample_batch(base, grid)
                level, entry_grid = arrn.entry_level(ladder, grid)
                adapted = _resample_batch(coarse, entry_grid).astype(np.float32)
                full = _resample_batch(coarse, ladder[0]).astype(np.float32)
                inputs[b, res] = (
                    level,
                    arrn.FeatureMap(entry_grid, adapted),
                    arrn.FeatureMap(ladder[0], full),
                )
        return EvalState(model, inputs)

    def _slot(self, i):
        return (i // self.cycle) % EVAL_BATCHES, EVAL_RESOLUTIONS[(i % self.cycle) // 2]

    def prepare(self, state, i):
        key = self._slot(i)
        level, adapted, full = state.inputs[key]
        if i % 2 == 0:
            return Op(f"entry{level}", EVAL_BATCH,
                      lambda: arrn.forward_adapted(state.model, adapted))
        return Op("full", EVAL_BATCH, lambda: arrn.forward_full(state.model, full))

    def probe(self, state):
        return self.prepare(state, 1).call

    def check(self, state, i, logits):
        key = self._slot(i)
        ok = logits.shape == (EVAL_BATCH, CLASSES) and bool(np.all(np.isfinite(logits)))
        if i % 2 == 0:
            state.pending[key] = logits
            return ok, logits
        adapted = state.pending.pop(key, None)
        if adapted is None:
            return False, logits
        rel = float(np.max(np.abs(logits - adapted))) / max(
            float(np.max(np.abs(logits))), 1e-30)
        return ok and rel <= EVAL_REL_TOL, logits


# ---------------------------------------------------------------------------
# verify-2d
# ---------------------------------------------------------------------------

VERIFY_KERNELS = (
    arrn.SmoothingKernelSpec.perfect(),
    arrn.SmoothingKernelSpec.windowed_sinc(),
    arrn.SmoothingKernelSpec.truncated_gaussian(),
)
VERIFY_SIGNALS = 8


@dataclass
class VerifyState:
    seed: int
    ladder: arrn.ResolutionLadder
    model: arrn.ArrnModel  # the perfect-kernel model of trial 0
    kernel_models: list
    signals: list
    references: list  # per signal: perfect downsample to every level


class Verify2D(Workload):
    """Verification trials: fresh f64 2-D model, two equivalence reports,
    and a pyramid round trip of a 4-channel signal at every level."""

    name = "verify-2d"
    cycle = len(VERIFY_KERNELS)
    warmup = cycle
    throughput_name = "verify_trials_per_s"
    latency_groups = {"verify": tuple(k.variant for k in VERIFY_KERNELS)}

    def setup(self, seed, workdir):
        ladder = arrn.ResolutionLadder.from_extents([(32, 32), (16, 16), (8, 8)])
        data = arrn.generate_dataset(arrn.SynthDatasetSpec(
            classes=2, level_extents=((32, 32), (16, 16), (8, 8)),
            samples_per_class=VERIFY_SIGNALS // 2, noise=0.1, features=4,
            seed=seed,
        ))
        perfect = arrn.SmoothingKernelSpec.perfect()
        signals, references = [], []
        for values in np.concatenate([data.train.inputs, data.test.inputs]):
            signal = arrn.DiscreteSignal(ladder[0], values)
            signals.append(signal)
            references.append([arrn.downsample(signal, ladder[u], perfect).values
                               for u in range(len(ladder))])
        kernel_models = [self._trial_model(seed, ladder, i)[0]
                         for i in range(self.cycle)]
        model = _checkpoint_round_trip(kernel_models[0], workdir / "verify-2d.arnn")
        return VerifyState(seed, ladder, model, kernel_models, signals, references)

    def checks(self, state):
        return [c for m in state.kernel_models for c in mac_checks(m)]

    def _trial_model(self, seed, ladder, i):
        kernel = VERIFY_KERNELS[i % len(VERIFY_KERNELS)]
        rng = np.random.default_rng([seed, i])
        model = _model(ladder, kernel, rng, np.float64)
        arrn.model.randomize_for_verification(model, rng)
        return model, rng

    def prepare(self, state, i):
        kernel = VERIFY_KERNELS[i % len(VERIFY_KERNELS)]
        signal = state.signals[i % len(state.signals)]

        def trial():
            model, rng = self._trial_model(state.seed, state.ladder, i)
            reports = [arrn.equivalence_report(model, level, rng) for level in (1, 2)]
            pyramid = arrn.decompose(signal, state.ladder, VERIFY_KERNELS[0])
            rebuilt = [arrn.reconstruct(pyramid, u).values
                       for u in range(len(state.ladder))]
            return reports, rebuilt

        return Op(kernel.variant, 1, trial)

    def check(self, state, i, output):
        reports, rebuilt = output
        kernel = VERIFY_KERNELS[i % len(VERIFY_KERNELS)]
        errors = [r["max_abs"] for r in reports]
        if kernel.is_perfect:
            ok = all(e <= PERFECT_MAX_ABS for e in errors)
        else:
            ok = all(e > APPROX_MIN_ABS for e in errors)
        refs = state.references[i % len(state.signals)]
        round_trip = [float(np.max(np.abs(a - b))) for a, b in zip(rebuilt, refs)]
        ok = ok and all(e <= PYRAMID_TOL for e in round_trip)
        record = (tuple(tuple(sorted(r.items())) for r in reports), _digest(rebuilt))
        return ok, record


WORKLOADS = {w.name: w for w in (Train1D(), EvalLadder(), Verify2D())}
