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
``P_{u-1} ... P_0 A`` (``A`` being the input projection). With the
perfect smoothing kernel the skipped and unskipped paths agree to
floating-point accuracy; approximate kernels perturb every skipped level
by a small error signal, which is measured (never asserted away) by
:func:`equivalence_report`.

Per-level dropout gates reuse the same collapse: gates are Bernoulli
draws OR-chained from fine to coarse, so a sampled mask always disables a
consecutive prefix of fine levels, which is exactly evaluation at a
randomly lowered resolution.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    decimate_op,
    lowpass_op,
    mean_reject_op,
    project_channels,
    downsample_op,
    sub,
)
from .errors import FormatError, GridError, ShapeError
from .grids import GridSpec, ResolutionLadder
from .kernels import SmoothingKernelSpec
from .layers import (
    EVAL,
    BatchNorm,
    FeatureMap,
    GlobalPoolHead,
    InnerBlock,
    InnerBlockSpec,
    silu_op,
)
from .resample import upsample_array
from .signal import atomic_write

ARNN_MAGIC = b"ARNN1\n"
_CHECKPOINT_DTYPES = {"f32": np.float32, "f64": np.float64}

PREFER_FINER = "prefer-finer"
PREFER_COARSER = "prefer-coarser"


# ---------------------------------------------------------------------------
# Dropout configuration and masks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropoutConfig:
    """Per-level drop probabilities, finest residual first."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= p <= 1.0 for p in self.probabilities):
            raise ValueError("drop probabilities must lie in [0, 1]")

    @classmethod
    def uniform(cls, p: float, levels: int) -> "DropoutConfig":
        return cls((p,) * levels)


@dataclass(frozen=True)
class DropoutMask:
    """Keep gates per residual level.

    ``chain`` is the running OR of ``independent`` from fine to coarse, so
    it is always a monotone step sequence: a dropped prefix of fine levels
    followed by kept coarse levels. Gate 0 disables a level's block path.
    """

    independent: tuple[int, ...]
    chain: tuple[int, ...]

    def __post_init__(self):
        running = 0
        for ind, ch in zip(self.independent, self.chain):
            running = running | ind
            if ch != running:
                raise ValueError("chain gates must be the running OR of independent")

    @classmethod
    def all_on(cls, levels: int) -> "DropoutMask":
        return cls((1,) * levels, (1,) * levels)

    @property
    def dropped_prefix(self) -> int:
        """Number of leading residuals gated off."""
        return sum(1 for c in self.chain if c == 0)


def sample_mask(rng: np.random.Generator, config: DropoutConfig) -> DropoutMask:
    """Draw one mask: a uniform per level (fine to coarse), then the OR chain."""
    independent = []
    for p in config.probabilities:
        independent.append(int(rng.random() >= p))
    chain = []
    running = 0
    for ind in independent:
        running = running | ind
        chain.append(running)
    return DropoutMask(tuple(independent), tuple(chain))


# ---------------------------------------------------------------------------
# Residual level and full model.
# ---------------------------------------------------------------------------


class LaplacianResidual:
    """One level: band split, gated block, fold, move one grid coarser."""

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

    def forward(self, r_prev: Tensor, gate: int, mode: str = EVAL, rng=None) -> Tensor:
        """Advance the chain one level; ``gate`` 0 bypasses the block exactly.

        The bypass never evaluates the block (its contribution is exactly
        zero after mean rejection), so a gated-off level costs only the
        band reduction and the projection, and its output carries no
        dependence on the block parameters.
        """
        dims = self.in_grid.dims
        r_low = lowpass_op(r_prev, self.out_grid.extents, self.kernel, dims)
        low_coarse = decimate_op(r_low, self.out_grid.extents, dims)
        if gate:
            r_diff = sub(r_prev, r_low)
            y = self.block.forward(r_diff, mode=mode, rng=rng)
            y = mean_reject_op(y, dims)
            y = downsample_op(y, self.out_grid.extents, self.kernel, dims)
            folded = y + low_coarse
        else:
            folded = low_coarse
        return project_channels(folded, self.projection)

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
    yield constant logits.
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
            raise ShapeError("need one feature width per ladder level")
        self.ladder = ladder
        self.kernel = kernel
        self.input_features = input_features
        self.features = tuple(features)
        self.classes = classes
        self.expansion = expansion
        self.depth = depth
        self.head_dropout = head_dropout
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
        self.version = 0
        self._composed_cache: dict[int, tuple[int, np.ndarray]] = {}

    # -- parameters and state ------------------------------------------------

    def parameters(self) -> list[Parameter]:
        out = [self.input_projection]
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
        for i, res in enumerate(self.residuals):
            for j, layer in enumerate(res.block.layers):
                if isinstance(layer, BatchNorm):
                    state[f"res{i}.bn{j}.mean"] = layer.running_mean
                    state[f"res{i}.bn{j}.var"] = layer.running_var
        state["terminal.bn.mean"] = self.terminal_norm.running_mean
        state["terminal.bn.var"] = self.terminal_norm.running_var
        return state

    def bump_version(self) -> None:
        """Invalidate caches after any parameter update."""
        self.version += 1

    def composed_projection(self, entry_level: int) -> np.ndarray:
        """The matrix equal to all projections of the skipped prefix.

        For entry at ladder level ``u`` this is
        ``P_{u-1} @ ... @ P_0 @ A`` mapping raw input channels directly to
        the width of level ``u``; materialized once per version.
        """
        cached = self._composed_cache.get(entry_level)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        matrix = self.input_projection.values
        for res in self.residuals[:entry_level]:
            matrix = res.projection.values @ matrix
        matrix = np.ascontiguousarray(matrix, dtype=self.dtype)
        self._composed_cache[entry_level] = (self.version, matrix)
        return matrix

    # -- forward paths ---------------------------------------------------------

    def _check_input(self, fmap: FeatureMap, grid: GridSpec) -> np.ndarray:
        if fmap.grid != grid:
            raise GridError(
                f"input grid {fmap.grid.extents} does not match {grid.extents}"
            )
        if fmap.features != self.input_features:
            raise ShapeError(
                f"input has {fmap.features} channels, model expects "
                f"{self.input_features}"
            )
        return np.asarray(fmap.values, dtype=self.dtype)

    def _terminal_and_head(
        self, r: Tensor, mode: str, rng: np.random.Generator | None
    ) -> Tensor:
        r = self.terminal_norm.forward(r, mode=mode, rng=rng)
        r = silu_op(r)
        r = project_channels(r, self.terminal_projection)
        return self.head.forward(r, mode=mode, rng=rng)

    def forward_graph(
        self,
        values: np.ndarray,
        mask: DropoutMask,
        mode: str = EVAL,
        rng: np.random.Generator | None = None,
        entry: int = 0,
    ) -> Tensor:
        """Graph from input values on ladder level ``entry`` to logits.

        Entry 0 runs the base low-pass and the input projection; a coarser
        entry replaces them and the skipped residuals with
        :meth:`composed_projection`. Gates of skipped residuals are unused.
        """
        x = Tensor(values)
        if entry == 0:
            grid = self.ladder[0]
            x = lowpass_op(x, grid.extents, self.kernel, grid.dims)
            r = project_channels(x, self.input_projection)
        else:
            r = project_channels(x, Tensor(self.composed_projection(entry)))
        for res, gate in zip(self.residuals[entry:], mask.chain[entry:]):
            r = res.forward(r, gate, mode=mode, rng=rng)
        return self._terminal_and_head(r, mode, rng)


def forward_full(
    model: ArrnModel, fmap: FeatureMap, mask: DropoutMask | None = None
) -> np.ndarray:
    """Evaluate every residual; dropout gates apply only when supplied."""
    values = model._check_input(fmap, model.ladder[0])
    if mask is None:
        mask = DropoutMask.all_on(len(model.residuals))
    if len(mask.chain) != len(model.residuals):
        raise ShapeError("mask length does not match residual count")
    return model.forward_graph(values, mask).values


def forward_adapted(model: ArrnModel, fmap: FeatureMap) -> np.ndarray:
    """Evaluate only the residuals at or below the input's ladder level.

    The input grid must coincide with a ladder level (route arbitrary
    resolutions through :func:`entry_level` first). Entry at level 0 is
    definitionally the full evaluation.
    """
    entry = model.ladder.index_of(fmap.grid)
    values = model._check_input(fmap, model.ladder[entry])
    mask = DropoutMask.all_on(len(model.residuals))
    return model.forward_graph(values, mask, entry=entry).values


def entry_level(
    ladder: ResolutionLadder, input_grid: GridSpec, policy: str = PREFER_FINER
) -> tuple[int, GridSpec]:
    """Choose the ladder level for an arbitrary input resolution.

    ``prefer-finer`` picks the coarsest level that still dominates the
    input per axis (the skip guarantee requires the level band to contain
    the input band); ``prefer-coarser`` picks the finest level the input
    dominates, falling back to the coarsest level for very small inputs.
    Returns ``(level index, grid to resample the input to)``.
    """
    if input_grid.dims != ladder[0].dims:
        raise GridError("input dimensionality does not match the ladder")
    if any(i > l0 for i, l0 in zip(input_grid.extents, ladder[0].extents)):
        raise GridError(
            f"input {input_grid.extents} exceeds the finest level "
            f"{ladder[0].extents}"
        )
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

    Verification models need nonzero biases and shifted running statistics
    so that blocks produce a nonzero constant on zero input; variances are
    kept away from zero to avoid amplifying float noise.
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
    model.bump_version()


def equivalence_report(
    model: ArrnModel,
    level: int,
    rng: np.random.Generator,
    repetitions: int = 5,
    batch: int = 2,
) -> dict:
    """Compare full and adapted logits on identical coarse inputs.

    For each repetition a random signal is drawn directly on the entry
    level's grid; the full path sees its perfect interpolation back to
    the finest grid. Reports the worst absolute, mean absolute, and worst
    normalized (sup-norm relative) logit discrepancies.
    """
    if not 0 <= level <= model.ladder.top_level:
        raise GridError(f"entry level {level} outside the ladder")
    grid = model.ladder[level]
    dims = grid.dims
    max_abs = 0.0
    mean_abs = 0.0
    max_rel = 0.0
    for _ in range(repetitions):
        coarse = rng.standard_normal(
            (batch, model.input_features) + grid.extents
        ).astype(model.dtype)
        fine = upsample_array(coarse, model.ladder[0].extents, dims)
        full = forward_full(model, FeatureMap(model.ladder[0], fine))
        adapted = forward_adapted(model, FeatureMap(grid, coarse))
        diff = np.abs(full - adapted)
        max_abs = max(max_abs, float(diff.max()))
        mean_abs += float(diff.mean()) / repetitions
        denom = max(float(np.max(np.abs(full))), 1e-30)
        max_rel = max(max_rel, float(diff.max()) / denom)
    return {
        "level": level,
        "repetitions": repetitions,
        "max_abs": max_abs,
        "mean_abs": mean_abs,
        "max_rel": max_rel,
    }


# ---------------------------------------------------------------------------
# Checkpoint container "ARNN1".
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    model: ArrnModel,
    dropout: DropoutConfig | None = None,
    extra: dict | None = None,
) -> None:
    """Write magic, u32 manifest length, JSON manifest, raw parameter blob."""
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
        "dropout": list(dropout.probabilities) if dropout else None,
        "dtype": "f32" if model.dtype == np.float32 else "f64",
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


def load_checkpoint(path: str | Path) -> tuple[ArrnModel, dict]:
    """Rebuild a model from an ARNN1 file; returns (model, manifest)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: unreadable checkpoint file: {exc}") from exc
    if not raw.startswith(ARNN_MAGIC):
        raise FormatError(f"{path}: bad magic bytes (not an ARNN1 checkpoint)")
    off = len(ARNN_MAGIC)
    try:
        (header_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        manifest = json.loads(raw[off : off + header_len].decode())
        off += header_len
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint header") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "ARNN1":
        raise FormatError(f"{path}: unsupported checkpoint format")
    try:
        dtype = _CHECKPOINT_DTYPES.get(manifest["dtype"])
        if dtype is None:
            raise FormatError(f"{path}: unknown dtype {manifest['dtype']!r}")
        blocks = [InnerBlockSpec.from_description(b) for b in manifest["blocks"]]
        model = ArrnModel(
            ladder=ResolutionLadder.from_extents(
                [tuple(e) for e in manifest["ladder"]]
            ),
            input_features=int(manifest["input_features"]),
            features=tuple(manifest["features"]),
            classes=int(manifest["classes"]),
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
        stored = np.dtype(dtype).newbyteorder("<")
        unread = model.state()
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
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{path}: malformed checkpoint manifest: {exc}") from exc
    if unread:
        raise FormatError(f"{path}: missing arrays {sorted(unread)}")
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes after blob")
    model.bump_version()
    return model, manifest
