"""Laplacian pyramid decomposition, reconstruction, and adapted entry.

A pyramid over a resolution ladder with levels ``0..m`` (finest to
coarsest) carries one difference signal per level transition plus a final
low band:

* ``low[j]`` is the input smoothed down to the band of level ``j`` and
  decimated to level ``j``'s grid (``low[0]`` is the input after the base
  smoothing at its own band, which is the identity for the perfect
  kernel),
* ``diff`` entry ``i`` is ``low[u+i] - smooth(low[u+i])`` for start level
  ``u``, stored at level ``u+i``'s grid, the finest grid whose band
  contains it.

Difference signals and the final low band sum back (after exact
interpolation to a common grid) to the smoothed input at any requested
band, and a pyramid may be entered directly at a coarse level, skipping
all finer levels without changing any of the surviving terms when the
perfect kernel is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import json

import numpy as np

from .errors import FormatError, GridError
from .grids import GridSpec, ResolutionLadder
from .kernels import SmoothingKernelSpec
from .resample import decimate, lowpass, upsample
from .signal import DiscreteSignal, atomic_write, read_arsg, write_arsg

PYRAMID_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class PyramidDecomposition:
    """Stored pyramid: per-band differences plus the coarsest low band."""

    ladder: ResolutionLadder
    kernel: SmoothingKernelSpec
    diffs: tuple[DiscreteSignal, ...]
    low: DiscreteSignal
    start_level: int

    def __post_init__(self):
        expected = self.ladder.top_level - self.start_level
        if len(self.diffs) != expected:
            raise GridError(
                f"expected {expected} difference signals, got {len(self.diffs)}"
            )

    def band_level(self, i: int) -> int:
        """Ladder level whose band holds difference entry ``i``."""
        return self.start_level + i


def decompose(
    signal: DiscreteSignal, ladder: ResolutionLadder, kernel: SmoothingKernelSpec
) -> PyramidDecomposition:
    """Full decomposition of a signal sampled on the ladder's finest grid."""
    if signal.grid != ladder[0]:
        raise GridError(
            f"signal grid {signal.grid.extents} does not match ladder level 0 "
            f"{ladder[0].extents}"
        )
    current = lowpass(signal, ladder[0], kernel)
    return _descend(current, ladder, kernel, start_level=0)


def decompose_adapted(
    signal: DiscreteSignal, ladder: ResolutionLadder, kernel: SmoothingKernelSpec
) -> PyramidDecomposition:
    """Enter the pyramid at the ladder level matching the signal's grid.

    All levels finer than the entry level are skipped entirely; the input
    signal is taken as the running low band without further smoothing. At
    entry level 0 this is exactly :func:`decompose`.
    """
    entry = ladder.index_of(signal.grid)
    if entry == 0:
        return decompose(signal, ladder, kernel)
    return _descend(signal, ladder, kernel, start_level=entry)


def _descend(
    current: DiscreteSignal,
    ladder: ResolutionLadder,
    kernel: SmoothingKernelSpec,
    start_level: int,
) -> PyramidDecomposition:
    diffs = []
    for level in range(start_level + 1, len(ladder)):
        smoothed = lowpass(current, ladder[level], kernel)
        diffs.append(current.with_values(current.values - smoothed.values))
        current = decimate(smoothed, ladder[level])
    return PyramidDecomposition(
        ladder=ladder,
        kernel=kernel,
        diffs=tuple(diffs),
        low=current,
        start_level=start_level,
    )


def reconstruct(decomp: PyramidDecomposition, to_band_level: int) -> DiscreteSignal:
    """Sum the stored terms at or below a band level, on that level's grid.

    Interpolation of the stored terms always uses the perfect interpolator:
    each term is exactly representable on its storage grid, so this step
    introduces no kernel-dependent error.
    """
    m = decomp.ladder.top_level
    if not decomp.start_level <= to_band_level <= m:
        raise GridError(
            f"band level {to_band_level} outside [{decomp.start_level}, {m}]"
        )
    target = decomp.ladder[to_band_level]
    acc = upsample(decomp.low, target).values
    for i, diff in enumerate(decomp.diffs):
        if decomp.band_level(i) >= to_band_level:
            acc = acc + upsample(diff, target).values
    return DiscreteSignal(target, acc)


# ---------------------------------------------------------------------------
# Directory layout used by the CLI: diff_<k>.arsg / low.arsg + manifest.
# ---------------------------------------------------------------------------


def save_pyramid(directory: str | Path, decomp: PyramidDecomposition) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    diff_names = []
    for i, diff in enumerate(decomp.diffs):
        name = f"diff_{i + 1}.arsg"
        write_arsg(directory / name, diff)
        diff_names.append(name)
    write_arsg(directory / "low.arsg", decomp.low)
    manifest = {
        "levels": [list(g.extents) for g in decomp.ladder.levels],
        "kernel": decomp.kernel.describe(),
        "start_level": decomp.start_level,
        "dtype": "f32" if decomp.low.dtype == np.float32 else "f64",
        "diffs": diff_names,
        "low": "low.arsg",
    }
    atomic_write(
        directory / PYRAMID_MANIFEST,
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def load_pyramid(directory: str | Path) -> PyramidDecomposition:
    directory = Path(directory)
    manifest_path = directory / PYRAMID_MANIFEST
    if not manifest_path.exists():
        raise FormatError(f"{directory}: missing {PYRAMID_MANIFEST}")
    try:
        manifest = json.loads(manifest_path.read_text())
        ladder = ResolutionLadder.from_extents(
            [tuple(e) for e in manifest["levels"]]
        )
        kernel = SmoothingKernelSpec.from_description(manifest["kernel"])
        diffs = tuple(read_arsg(directory / name) for name in manifest["diffs"])
        low = read_arsg(directory / manifest["low"])
        start_level = manifest["start_level"]
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{directory}: malformed pyramid manifest: {exc}") from exc
    if type(start_level) is not int or not 0 <= start_level <= ladder.top_level:
        raise FormatError(
            f"{directory}: start_level {start_level!r} is not an integer in "
            f"[0, {ladder.top_level}]"
        )
    if len(diffs) != ladder.top_level - start_level:
        raise FormatError(
            f"{directory}: {len(diffs)} difference signals listed, ladder and "
            f"start_level {start_level} need {ladder.top_level - start_level}"
        )
    return PyramidDecomposition(
        ladder=ladder, kernel=kernel, diffs=diffs, low=low, start_level=start_level
    )
