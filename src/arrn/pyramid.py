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

from .errors import FormatError, GridError
from .grids import GridSpec, ResolutionLadder, is_integer
from .kernels import SmoothingKernelSpec
from .resample import decimate, lowpass, upsample
from .signal import DTYPE_NAMES, DiscreteSignal, read_arsg, write_arsg
from .signal import malformed, read_manifest, write_manifest

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
    if not (is_integer(to_band_level) and decomp.start_level <= to_band_level <= m):
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
        "dtype": DTYPE_NAMES[decomp.low.dtype],
        "diffs": diff_names,
        "low": "low.arsg",
    }
    write_manifest(directory / PYRAMID_MANIFEST, manifest)


def load_pyramid(directory: str | Path) -> PyramidDecomposition:
    directory = Path(directory)
    with malformed(directory, "pyramid manifest"):
        manifest = read_manifest(directory / PYRAMID_MANIFEST)
        ladder = ResolutionLadder.from_extents(
            [tuple(e) for e in manifest["levels"]]
        )
        kernel = SmoothingKernelSpec.from_description(manifest["kernel"])
        names = (*manifest["diffs"], manifest["low"])
        terms = tuple(read_arsg(directory / name) for name in names)
        start_level = manifest["start_level"]
        dtype = manifest["dtype"]
    if type(start_level) is not int or not 0 <= start_level <= ladder.top_level:
        raise FormatError(
            f"{directory}: start_level {start_level!r} is not an integer in "
            f"[0, {ladder.top_level}]"
        )
    diffs, low = terms[:-1], terms[-1]
    if len(diffs) != ladder.top_level - start_level:
        raise FormatError(
            f"{directory}: {len(diffs)} difference signals listed, ladder and "
            f"start_level {start_level} need {ladder.top_level - start_level}"
        )
    # Diff i lies on ladder[start_level + i], the low band on the coarsest grid.
    for name, term, level in zip(names, terms, range(start_level, len(ladder))):
        if term.grid != ladder[level]:
            raise FormatError(
                f"{directory}: {name} is on grid {term.grid.extents}, "
                f"ladder level {level} is {ladder[level].extents}"
            )
        if term.features != low.features or DTYPE_NAMES[term.dtype] != dtype:
            raise FormatError(
                f"{directory}: {name} has {term.features} "
                f"{DTYPE_NAMES[term.dtype]} channels; the low band has "
                f"{low.features} and the manifest says {dtype!r}"
            )
    return PyramidDecomposition(
        ladder=ladder, kernel=kernel, diffs=diffs, low=low, start_level=start_level
    )
