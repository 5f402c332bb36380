"""Regular sample grids over the periodic unit domain.

All signals in this package live on ``[0, 1)^d`` with periodic boundary
conditions, sampled on regular grids. A grid is described only by its
per-axis sample counts; sample ``i`` along an axis with extent ``E`` sits
at coordinate ``i / E``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import prod

from .errors import GridError

MAX_DIMS = 2


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (Python or numpy), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridSpec:
    """A regular grid on the unit torus, one or two spatial dimensions.

    Two grids are comparable for exact resampling only when, per axis,
    one extent is an integer multiple of the other.
    """

    extents: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.extents, tuple):
            object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if not 1 <= len(self.extents) <= MAX_DIMS:
            raise GridError(f"grids must have 1 or 2 axes, got {len(self.extents)}")
        if any(int(e) != e or e < 1 for e in self.extents):
            raise GridError(f"extents must be positive integers, got {self.extents}")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def num_samples(self) -> int:
        return prod(self.extents)

    def is_coarser_equal(self, other: "GridSpec") -> bool:
        """True if this grid is a stride-subset of ``other`` (per-axis divisor)."""
        return self.dims == other.dims and all(
            o % s == 0 and s <= o for s, o in zip(self.extents, other.extents)
        )

    def __str__(self):
        return "x".join(str(e) for e in self.extents)


@dataclass(frozen=True)
class ResolutionLadder:
    """Ordered chain of grids, finest first, each coarser grid an exact divisor.

    Index 0 is the finest level; indices increase toward coarser grids.
    One level is a ladder too, that of a model cast to its coarsest level.
    """

    levels: tuple[GridSpec, ...]

    def __post_init__(self):
        if not isinstance(self.levels, tuple):
            object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise GridError("a resolution ladder needs at least one level")
        dims = self.levels[0].dims
        for finer, coarser in zip(self.levels, self.levels[1:]):
            if coarser.dims != dims:
                raise GridError("all ladder levels must share dimensionality")
            if not coarser.is_coarser_equal(finer):
                raise GridError(
                    f"level {coarser.extents} does not divide {finer.extents}"
                )
            if any(c >= f for c, f in zip(coarser.extents, finer.extents)):
                raise GridError("ladder extents must strictly decrease per axis")

    @classmethod
    def from_extents(cls, per_level: list[tuple[int, ...]] | list[int]) -> "ResolutionLadder":
        """Build a ladder from a list of extents, e.g. ``[64, 32, 16]`` for 1-D
        or ``[(32, 32), (16, 16), (8, 8)]`` for 2-D."""
        specs = []
        for item in per_level:
            if isinstance(item, int):
                specs.append(GridSpec((item,)))
            else:
                specs.append(GridSpec(tuple(item)))
        return cls(tuple(specs))

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> GridSpec:
        return self.levels[i]

    @property
    def top_level(self) -> int:
        """Index of the coarsest level."""
        return len(self.levels) - 1

    def index_of(self, grid: GridSpec) -> int:
        """Level index whose grid matches exactly, or GridError."""
        for i, g in enumerate(self.levels):
            if g == grid:
                return i
        raise GridError(f"grid {grid.extents} is not a ladder level")
