"""Adaptive-resolution residual chains over a resolution ladder.

Each residual level splits its incoming map into a low band and a band
difference, routes only the difference through a learned fixed-resolution
block, cancels the block's zero-input constant with the mean-rejection
filter, folds the result back onto the low band, moves to the next
coarser grid, and mixes channels with a per-level projection matrix.

Because a residual whose band difference is zero collapses to its
projection applied to the downsampled input, a chain evaluated on an
input that is bandlimited to level ``u``'s grid can skip residuals
``0..u-1`` entirely: their combined effect is the single matrix
``P_{u-1} ... P_0 A`` (``A`` being the input projection), the input
projection of the cast model :meth:`ArrnModel.cast` over ``ladder[u:]``.
The cast forms that product from the model's parameters, so training it
trains the model. With the perfect smoothing kernel the two agree to
floating-point accuracy; approximate kernels perturb every skipped level
by a small error signal, measured (never asserted away) by
:func:`equivalence_report`.

Laplacian dropout reuses the same collapse. A training step draws one
count ``dropped`` and runs ``model.cast(dropped)`` on the batch after the
base low-pass and one model-kernel downsample per skipped level, which is
exactly evaluation at a randomly lowered resolution.
"""

from __future__ import annotations

import copy
import json
import numbers
import struct
from pathlib import Path

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    decimate_op,
    lowpass_op,
    matmul,
    mean_reject_op,
    no_grad,
    project_channels,
    downsample_op,
    sub,
)
from .errors import FormatError, GridError, ShapeError
from .grids import GridSpec, ResolutionLadder, is_integer
from .kernels import SmoothingKernelSpec
from .layers import (
    EVAL,
    TRAIN,
    BatchNorm,
    DepthwiseConv,
    FeatureMap,
    GlobalPoolHead,
    InnerBlock,
    InnerBlockSpec,
    PointwiseConv,
    silu_op,
)
from .resample import resample_perfect_array
from .signal import DTYPE_NAMES, DTYPES, atomic_write, malformed, read_file

ARNN_MAGIC = b"ARNN1\n"

PREFER_FINER = "prefer-finer"
PREFER_COARSER = "prefer-coarser"

# Evaluation runs a batch in blocks of rows whose widest activation takes at
# most this many bytes, so every pass over a block stays in a core's 2 MiB L2
# cache; equivalence_report groups its repetitions by the same budget.
# Swept with benchmarks/run.py on the band-matrix operators (2-core Xeon,
# 10 s runs, seeds 0-2, the order of the values rotated each round; median
# normalised throughput for 256 KiB, 384 KiB, 512 KiB and 1 MiB):
# eval-ladder (f32, batch 256, 4 KiB widest per sample) 22.3k, 22.4k, 22.6k
# and 15.0k/s (one 256-row block); verify-2d (f64, 10-row reports, 128 KiB
# widest per sample) 21.2, 21.6, 22.0 and 16.1 trials/s. The first three
# are within run-to-run noise of each other; at 1 MiB the blocks spill L2.
EVAL_BLOCK_BYTES = 512 * 1024


# ---------------------------------------------------------------------------
# Residual level and full model.
# ---------------------------------------------------------------------------


class LaplacianResidual:
    """One level: band split, block, fold, move one grid coarser."""

    def __init__(
        self,
        level: int,
        in_features: int,
        out_features: int,
        in_grid: GridSpec,
        out_grid: GridSpec,
        kernel: SmoothingKernelSpec,
        block_spec: InnerBlockSpec,
        rng: np.random.Generator,
        dtype=np.float64,
    ):
        if block_spec.features != in_features:
            raise ShapeError("block width must match the residual input features")
        self.level = level
        self.in_features = in_features
        self.out_features = out_features
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.kernel = kernel
        self.block = InnerBlock(
            block_spec, in_grid.dims, rng, dtype, name=f"res{level}.block"
        )
        bound = 1.0 / np.sqrt(in_features)
        self.projection = Parameter(
            rng.uniform(-bound, bound, (out_features, in_features)).astype(dtype),
            name=f"res{level}.proj",
        )

    def forward(self, r_prev: Tensor, mode: str = EVAL, rng=None) -> Tensor:
        """Advance the chain one level, block included; a level that
        Laplacian dropout skips is omitted by :meth:`ArrnModel.cast`."""
        coarse = self.out_grid.extents
        r_low = lowpass_op(r_prev, coarse, self.kernel)
        low_coarse = decimate_op(r_low, coarse)
        r_diff = sub(r_prev, r_low)
        y = self.block.forward(r_diff, mode=mode, rng=rng)
        y = mean_reject_op(y)
        y = downsample_op(y, coarse, self.kernel)
        return project_channels(y + low_coarse, self.projection)

    def parameters(self):
        return self.block.parameters() + [self.projection]


class ArrnModel:
    """Input projection, residual chain fine to coarse, terminal stage, head.

    The terminal stage (batch normalization, SiLU, pointwise convolution at
    the coarsest grid) sits between the last residual and the pooling
    head. It is required for the mean-pooled head to see anything the
    blocks computed: constant rejection forces every block contribution to
    have exactly zero spatial mean, so pooling the raw chain output would
    be blind to all of them. The stage runs identically in the full and
    adapted paths and is never gated, so it leaves the skip guarantee
    untouched, and it preserves spatial constancy, so zero inputs still
    yield constant logits. In eval mode the pointwise convolution commutes
    with the head's mean pool and folds into the head's weight.
    """

    def __init__(
        self,
        ladder: ResolutionLadder,
        input_features: int,
        features: tuple[int, ...],
        classes: int,
        kernel: SmoothingKernelSpec,
        rng: np.random.Generator,
        expansion: int = 2,
        depth: int = 1,
        head_dropout: float = 0.2,
        dtype=np.float64,
    ):
        if len(features) != len(ladder):
            raise ValueError(f"features need one width for each of {len(ladder)} levels")
        if not (is_integer(input_features) and is_integer(classes)):
            raise ValueError(
                f"input_features and classes must be integers, got "
                f"{input_features!r} and {classes!r}"
            )
        if min(input_features, classes, *features) < 1:
            raise ValueError(
                f"input_features, classes and features must be >= 1, got "
                f"{input_features}, {classes} and {tuple(features)}"
            )
        if input_features > np.iinfo(np.intp).max:
            raise ValueError(f"input_features {input_features} is too large to index")
        self.ladder = ladder
        self.kernel = kernel
        self.input_features = input_features
        self.features = tuple(features)
        self.classes = classes
        self.expansion = expansion
        self.depth = depth
        self.dtype = np.dtype(dtype)

        bound = 1.0 / np.sqrt(input_features)
        self.input_projection = Parameter(
            rng.uniform(-bound, bound, (features[0], input_features)).astype(dtype),
            name="input.proj",
        )
        self.residuals: list[LaplacianResidual] = []
        for i in range(len(ladder) - 1):
            self.residuals.append(
                LaplacianResidual(
                    level=i,
                    in_features=features[i],
                    out_features=features[i + 1],
                    in_grid=ladder[i],
                    out_grid=ladder[i + 1],
                    kernel=kernel,
                    block_spec=InnerBlockSpec(
                        features[i], expansion=expansion, depth=depth
                    ),
                    rng=rng,
                    dtype=dtype,
                )
            )
        wide = features[-1]
        self.terminal_norm = BatchNorm(wide, dtype, name="terminal.bn")
        bound = 1.0 / np.sqrt(wide)
        self.terminal_projection = Parameter(
            rng.uniform(-bound, bound, (wide, wide)).astype(dtype),
            name="terminal.proj",
        )
        self.head = GlobalPoolHead(
            features[-1], classes, rng, dtype, dropout_p=head_dropout
        )
        self.skipped: list[LaplacianResidual] = []  # a cast's omitted prefix
        self.version = 0  # never changes; the benchmark tracer reads it

    @property
    def head_dropout(self) -> float:
        return self.head.dropout.p

    # -- parameters and state ------------------------------------------------

    def parameters(self) -> list[Parameter]:
        out = [self.input_projection] + [res.projection for res in self.skipped]
        for res in self.residuals:
            out += res.parameters()
        out += self.terminal_norm.parameters()
        out.append(self.terminal_projection)
        out += self.head.parameters()
        return out

    def batch_norms(self) -> list[BatchNorm]:
        norms = [
            layer
            for res in self.residuals
            for layer in res.block.layers
            if isinstance(layer, BatchNorm)
        ]
        norms.append(self.terminal_norm)
        return norms

    def state(self) -> dict[str, np.ndarray]:
        """Every checkpointed array by name, in ARNN1 order.

        Parameters come first, then the running statistics, named by the
        index of their layer inside the block (``res0.bn1.mean``). The
        values are the model's live arrays: writing into one updates it.
        """
        state = {p.name: p.values for p in self.parameters()}
        for res in self.residuals:
            for j, layer in enumerate(res.block.layers):
                if isinstance(layer, BatchNorm):
                    state[f"res{res.level}.bn{j}.mean"] = layer.running_mean
                    state[f"res{res.level}.bn{j}.var"] = layer.running_var
        state["terminal.bn.mean"] = self.terminal_norm.running_mean
        state["terminal.bn.var"] = self.terminal_norm.running_var
        return state

    def composed_projection(self, entry_level: int) -> Tensor:
        """The graph node ``P_{u-1} @ ... @ P_0 @ A`` mapping raw input
        channels to the width of entry level ``u``; on a cast the product
        starts with the projections the cast skips."""
        matrix = self.input_projection
        for res in self.skipped + self.residuals[:entry_level]:
            matrix = matmul(res.projection, matrix)
        return matrix

    def cast(self, entry: int) -> "ArrnModel":
        """This model without residuals ``0..entry-1``: the ARRN over
        ``ladder[entry:]`` with input projection :meth:`composed_projection`.

        A view owning no parameter: it stays current, and training it trains
        this model but not its skipped blocks. Its input is the running low
        band, so it applies no base low-pass (the Gaussian's blurs even at
        factor 1). It lives in memory only: :func:`save_checkpoint` refuses it.
        """
        if not (is_integer(entry) and 0 <= entry <= self.ladder.top_level):
            raise GridError(f"entry level {entry} outside the ladder")
        if entry == 0:
            return self
        cast = copy.copy(self)
        cast.ladder = ResolutionLadder(self.ladder.levels[entry:])
        cast.features = self.features[entry:]
        cast.skipped = self.skipped + self.residuals[:entry]
        cast.residuals = self.residuals[entry:]
        return cast

    # -- forward paths ---------------------------------------------------------

    def _terminal_and_head(
        self, r: Tensor, mode: str, rng: np.random.Generator | None
    ) -> Tensor:
        r = self.terminal_norm.forward(r, mode=mode, rng=rng)
        r = silu_op(r)
        if mode != TRAIN:  # the projection runs folded into the head
            return self.head.fold_in(self.terminal_projection).forward(r, mode=mode)
        r = project_channels(r, self.terminal_projection)
        return self.head.forward(r, mode=mode, rng=rng)

    def forward_graph(
        self,
        values: np.ndarray,
        dropped: int = 0,
        mode: str = EVAL,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Graph from input values on ``ladder[0]`` to logits through
        ``model = self.cast(dropped)`` (Laplacian dropout omits the first
        ``dropped`` residuals). An uncast model applies its base low-pass,
        then one downsample with its kernel per skipped residual brings the
        batch to ``model``'s finest grid, where ``model`` enters through
        :meth:`composed_projection`; a cast's input is the running low band.

        Eval mode runs the same ops with folded parameters: each block batch
        norm folded into the convolution before it, and the terminal
        projection into the head. The folds are graph ops rebuilt on every
        call, so eval gradients reach every parameter; training is unfolded.
        """
        model = self.cast(dropped)
        x = Tensor(values)
        if not self.skipped:
            x = lowpass_op(x, self.ladder[0].extents, self.kernel)
        for res in self.residuals[:dropped]:
            x = downsample_op(x, res.out_grid.extents, self.kernel)
        weight = model.composed_projection(0) if model.skipped else self.input_projection
        r = project_channels(x, weight)
        for res in model.residuals:
            r = res.forward(r, mode=mode, rng=rng)
        return model._terminal_and_head(r, mode, rng)


def eval_block_rows(model: ArrnModel) -> int:
    """Rows per evaluation block: :data:`EVAL_BLOCK_BYTES` over the widest
    per-sample activation an op of ``model`` writes, and at least one.

    The candidates are the input and input-projection maps on the finest
    grid, each block's expanded width on its grid, and the terminal width
    on the coarsest grid.
    """
    finest, coarsest = model.ladder[0], model.ladder[model.ladder.top_level]
    widths = [
        max(model.input_features, model.features[0]) * finest.num_samples,
        model.features[-1] * coarsest.num_samples,
    ]
    for res in model.residuals:
        spec = res.block.spec
        widths.append(spec.features * spec.expansion * res.in_grid.num_samples)
    return max(1, EVAL_BLOCK_BYTES // (max(widths) * model.dtype.itemsize))


def check_inputs(model: ArrnModel, inputs: np.ndarray) -> None:
    """Raise ShapeError unless ``inputs`` is a non-empty batch of samples of
    shape ``(input_features, *extents)`` on the model's finest grid: the one
    rule for what evaluation, training and sweeps take."""
    expected = (model.input_features,) + model.ladder[0].extents
    if np.shape(inputs)[1:] != expected:
        raise ShapeError(
            f"inputs have per-sample shape {np.shape(inputs)[1:]}, the model "
            f"expects {expected}"
        )
    if len(inputs) == 0:
        raise ShapeError("an empty batch: the model needs at least one sample")


def forward_full(model: ArrnModel, fmap: FeatureMap) -> np.ndarray:
    """Evaluate every residual, each with its block.

    Like :func:`forward_adapted`, this is eval mode and builds no graph.
    The batch runs as equal blocks of at most :func:`eval_block_rows` rows,
    one :meth:`ArrnModel.forward_graph` call each. Every eval op acts on
    each sample alone, so the logits do not depend on the block size.
    """
    grid = model.ladder[0]
    if fmap.grid != grid:
        raise GridError(f"input grid {fmap.grid.extents} does not match {grid.extents}")
    check_inputs(model, fmap.values)
    values = np.asarray(fmap.values, model.dtype)
    blocks = np.array_split(values, -(-fmap.batch // eval_block_rows(model)))
    with no_grad():
        return np.concatenate([model.forward_graph(b).values for b in blocks])


def forward_adapted(model: ArrnModel, fmap: FeatureMap) -> np.ndarray:
    """:func:`forward_full` of the cast to the input grid's ladder level,
    which must be one (route other resolutions through :func:`entry_level`)."""
    return forward_full(model.cast(model.ladder.index_of(fmap.grid)), fmap)


def entry_level(
    ladder: ResolutionLadder, input_grid: GridSpec, policy: str = PREFER_FINER
) -> tuple[int, GridSpec]:
    """Choose the ladder level for an arbitrary input resolution.

    ``prefer-finer`` picks the coarsest level that still dominates the
    input per axis (the skip guarantee requires the level band to contain
    the input band); ``prefer-coarser`` picks the finest level the input
    dominates, falling back to the coarsest level for very small inputs.
    Returns ``(level index, grid to resample the input to)``. A resolution
    of another rank than the ladder's, or above its finest grid on some
    axis, is a GridError; an unknown policy is a ValueError.
    """
    base = ladder[0]
    if input_grid.dims != base.dims:
        raise GridError(
            f"resolution {input_grid} is {input_grid.dims}-D but the ladder is "
            f"{base.dims}-D"
        )
    if any(i > b for i, b in zip(input_grid.extents, base.extents)):
        raise GridError(f"resolution {input_grid} exceeds the base grid {base}")
    if policy == PREFER_FINER:
        chosen = 0
        for n, grid in enumerate(ladder.levels):
            if all(g >= i for g, i in zip(grid.extents, input_grid.extents)):
                chosen = n
        return chosen, ladder[chosen]
    if policy == PREFER_COARSER:
        for n, grid in enumerate(ladder.levels):
            if all(g <= i for g, i in zip(grid.extents, input_grid.extents)):
                return n, grid
        return ladder.top_level, ladder[ladder.top_level]
    raise ValueError(f"unknown entry policy {policy!r}")


# ---------------------------------------------------------------------------
# Verification helpers.
# ---------------------------------------------------------------------------


def randomize_for_verification(model: ArrnModel, rng: np.random.Generator) -> None:
    """Give every parameter and normalization statistic generic values.

    Verification models need nonzero norm shifts ``beta`` and running means,
    so that every block produces a nonzero constant on zero input (a block
    convolution has no bias); variances are kept away from zero to avoid
    amplifying float noise.
    """
    for p in model.parameters():
        fan = p.values.shape[-1] if p.values.ndim > 1 else 1.0
        scale = 1.0 / np.sqrt(fan)
        p.assign(rng.normal(0.0, scale, p.values.shape).astype(model.dtype))
    for bn in model.batch_norms():
        channels = bn.running_mean.shape[0]
        bn.gamma.assign(rng.uniform(0.75, 1.25, channels).astype(model.dtype))
        bn.beta.assign(rng.normal(0.0, 0.3, channels).astype(model.dtype))
        bn.running_mean = rng.normal(0.0, 0.3, channels).astype(model.dtype)
        bn.running_var = rng.uniform(0.5, 1.5, channels).astype(model.dtype)


def equivalence_report(
    model: ArrnModel,
    level: int,
    rng: np.random.Generator,
    repetitions: int = 5,
    batch: int = 2,
) -> dict:
    """Compare full and adapted logits on identical coarse inputs.

    Each of ``repetitions`` draws ``batch`` random signals directly on the
    entry level's grid; the full path sees their perfect interpolation
    back to the finest grid. Reports the worst absolute, mean absolute,
    and worst normalized (sup-norm relative) logit discrepancies, each
    repetition's taken over its own rows.

    Whole repetitions run together, as many as keep their fine input
    within :data:`EVAL_BLOCK_BYTES` (at least one): one ``rng`` draw, one
    :func:`forward_full` and one :func:`forward_adapted` call per group,
    so memory stays flat however many repetitions are asked for. The
    draws are sequential and every eval op acts on each sample alone, so
    the report and the generator's state afterwards are bitwise those of
    drawing and comparing one repetition at a time.
    """
    grid = model.cast(level).ladder[0]  # the cast rejects a level off the ladder
    for name, count in (("repetitions", repetitions), ("batch", batch)):
        if not is_integer(count):
            raise ValueError(f"{name} must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    finest = model.ladder[0]
    shape = (model.input_features,) + grid.extents
    row_bytes = model.input_features * finest.num_samples * model.dtype.itemsize
    group = max(1, EVAL_BLOCK_BYTES // (batch * row_bytes))  # repetitions per draw
    max_abs = 0.0
    mean_abs = 0.0
    max_rel = 0.0
    for start in range(0, repetitions, group):
        reps = min(group, repetitions - start)
        coarse = rng.standard_normal((reps * batch,) + shape).astype(model.dtype)
        fine = resample_perfect_array(coarse, finest.extents)
        full = forward_full(model, FeatureMap(finest, fine))
        adapted = forward_adapted(model, FeatureMap(grid, coarse))
        diffs = np.abs(full - adapted)
        for r in range(reps):
            rows = slice(r * batch, (r + 1) * batch)
            diff = diffs[rows]
            max_abs = max(max_abs, float(diff.max()))
            mean_abs += float(diff.mean()) / repetitions
            denom = max(float(np.max(np.abs(full[rows]))), 1e-30)
            max_rel = max(max_rel, float(diff.max()) / denom)
    return {  # plain ints, so the report is JSON however they were given
        "level": int(level),
        "repetitions": int(repetitions),
        "max_abs": max_abs,
        "mean_abs": mean_abs,
        "max_rel": max_rel,
    }


# ---------------------------------------------------------------------------
# Checkpoint container "ARNN1".
# ---------------------------------------------------------------------------


def is_probability(p) -> bool:
    """Whether ``p`` is a dropout probability: a number in ``[0, 1]``, not a bool."""
    return isinstance(p, numbers.Real) and not isinstance(p, bool) and 0 <= p <= 1


def save_checkpoint(
    path: str | Path,
    model: ArrnModel,
    dropout: float | None = None,
    extra: dict | None = None,
) -> None:
    """Write magic, u32 manifest length, JSON manifest, raw parameter blob.

    ``dropout`` is the Laplacian dropout probability the model trained
    with, stored once per residual; ``None`` stores ``null``.
    """
    if model.skipped:  # its residuals keep their levels in the model
        raise ValueError("a cast has no ARNN1 form; save the model it came from")
    if dropout is not None and not is_probability(dropout):
        raise ValueError("dropout probability must lie in [0, 1]")
    state = model.state()
    params = {p.name for p in model.parameters()}
    manifest = {
        "format": "ARNN1",
        "ladder": [list(g.extents) for g in model.ladder.levels],
        "input_features": model.input_features,
        "features": list(model.features),
        "classes": model.classes,
        "kernel": model.kernel.describe(),
        "blocks": [res.block.spec.describe() for res in model.residuals],
        "head_dropout": model.head_dropout,
        "dropout": (
            None if dropout is None else [float(dropout)] * len(model.residuals)
        ),
        "dtype": DTYPE_NAMES[model.dtype],
        "arrays": [
            {
                "name": name,
                "kind": "param" if name in params else "stat",
                "shape": list(values.shape),
            }
            for name, values in state.items()
        ],
    }
    if extra:
        manifest["extra"] = extra
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    blob = b"".join(
        np.ascontiguousarray(values, dtype=model.dtype)
        .astype(model.dtype.newbyteorder("<"))
        .tobytes()
        for values in state.values()
    )
    atomic_write(path, ARNN_MAGIC + struct.pack("<I", len(header)) + header + blob)


def _block_biases(model: ArrnModel) -> dict[str, tuple[np.ndarray, BatchNorm | None]]:
    """The block-convolution biases an older ARNN1 file may hold, by name:
    a zero buffer for each, and the norm after its convolution (``None``
    after a block's last pointwise convolution)."""
    out = {}
    for res in model.residuals:
        layers = res.block.layers
        for layer, after in zip(layers, layers[1:] + [None]):
            if isinstance(layer, (PointwiseConv, DepthwiseConv)):
                name = layer.weight.name.removesuffix(".w") + ".b"
                out[name] = (np.zeros(layer.weight.values.shape[0], model.dtype), after)
    return out


def load_checkpoint(path: str | Path) -> tuple[ArrnModel, dict]:
    """Rebuild a model from an ARNN1 file; returns (model, manifest).

    Files written while block convolutions had biases still load. Each such
    bias ``b`` moves into the running mean ``m`` of the norm after its
    convolution, as ``m - b``: in eval mode the norm reads ``x + b - m``,
    and in train mode its mean subtraction cancels ``b``. The last pointwise
    bias of a block is dropped, since the constant rejection removes it.
    """
    raw = read_file(path, "checkpoint")
    if not raw.startswith(ARNN_MAGIC):
        raise FormatError(f"{path}: bad magic bytes (not an ARNN1 checkpoint)")
    off = len(ARNN_MAGIC)
    with malformed(path, "checkpoint"):
        (header_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        manifest = json.loads(raw[off : off + header_len].decode())
        off += header_len
        if not isinstance(manifest, dict) or manifest.get("format") != "ARNN1":
            raise FormatError(f"{path}: unsupported checkpoint format")
        dtype = DTYPES.get(manifest["dtype"])
        if dtype is None:
            raise FormatError(f"{path}: unknown dtype {manifest['dtype']!r}")
        blocks = [InnerBlockSpec.from_description(b) for b in manifest["blocks"]]
        model = ArrnModel(
            ladder=ResolutionLadder.from_extents(
                [tuple(e) for e in manifest["ladder"]]
            ),
            input_features=manifest["input_features"],
            features=tuple(manifest["features"]),
            classes=manifest["classes"],
            kernel=SmoothingKernelSpec.from_description(manifest["kernel"]),
            rng=np.random.default_rng(0),
            expansion=blocks[0].expansion if blocks else 2,
            depth=blocks[0].depth if blocks else 1,
            head_dropout=float(manifest["head_dropout"]),
            dtype=dtype,
        )
        if manifest["blocks"] != [res.block.spec.describe() for res in model.residuals]:
            raise FormatError(
                f"{path}: block specs {manifest['blocks']} do not describe the "
                f"model's {len(model.residuals)} residual blocks"
            )
        dropout = manifest["dropout"]
        if dropout is not None and not (
            isinstance(dropout, list)
            and len(dropout) == len(model.residuals)
            and all(is_probability(p) for p in dropout)
        ):
            raise FormatError(
                f"{path}: dropout {dropout!r} is neither null nor one "
                f"probability in [0, 1] for each of {len(model.residuals)} residuals"
            )
        stored = np.dtype(dtype).newbyteorder("<")
        legacy = _block_biases(model)
        unread = model.state() | {name: bias for name, (bias, _) in legacy.items()}
        for entry in manifest["arrays"]:
            name = entry["name"]
            target = unread.pop(name, None)
            if target is None:
                raise FormatError(f"{path}: unknown or repeated array {name!r}")
            if tuple(entry["shape"]) != target.shape:
                raise FormatError(
                    f"{path}: array {name!r} has shape {entry['shape']}, "
                    f"model expects {list(target.shape)}"
                )
            blob = raw[off : off + target.nbytes]
            if len(blob) != target.nbytes:
                raise FormatError(f"{path}: truncated parameter blob")
            target[...] = np.frombuffer(blob, dtype=stored).reshape(target.shape)
            off += target.nbytes
    missing = sorted(unread.keys() - legacy.keys())
    if missing:
        raise FormatError(f"{path}: missing arrays {missing}")
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes after blob")
    for bias, norm in legacy.values():
        if norm is not None:  # an absent bias is zero: m - 0 is m bitwise
            norm.running_mean -= bias
    return model, manifest
