"""Smoothing-kernel specifications for band reduction.

Three realizations of the anti-aliasing low-pass are supported:

* ``perfect`` -- ideal spectral truncation. On the periodic domain the
  ideal interpolation kernel is the Dirichlet (periodic sinc) kernel, so
  the convolution is realized exactly in the Fourier domain (see
  :mod:`arrn.resample`); no spatial taps exist.
* ``windowed_sinc`` -- a Hann-windowed sinc with a fixed odd tap count
  per axis; a fair-quality separable approximation.
* ``truncated_gaussian`` -- a hard-truncated sampled Gaussian whose width
  scales with the decimation factor; a deliberately poor approximation.

Spatial kernels are normalized to unit coefficient sum, so every variant
has DC gain 1 and preserves per-channel spatial means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import is_integer

PERFECT = "perfect"
WINDOWED_SINC = "windowed_sinc"
TRUNCATED_GAUSSIAN = "truncated_gaussian"

VARIANTS = (PERFECT, WINDOWED_SINC, TRUNCATED_GAUSSIAN)

# Ceiling on the taps a spec realizes per axis at decimation factor 1. At
# factor f the truncated Gaussian realizes at most f times as many, since
# its radius grows with f; the windowed sinc's count is fixed.
MAX_TAPS = 1025


@dataclass(frozen=True)
class SmoothingKernelSpec:
    """Which low-pass realization to use, with its shape parameters.

    ``taps_per_axis`` applies to the windowed sinc (odd, >= 3).
    ``sigma_factor`` and ``radius_factor`` apply to the truncated
    Gaussian: the standard deviation is ``sigma_factor * factor`` in
    fine-grid sample units for a per-axis decimation ``factor``, and the
    truncation radius is ``ceil(radius_factor * sigma)``. Either realizes
    at most :data:`MAX_TAPS` taps per axis at factor 1, so
    ``taps_per_axis <= MAX_TAPS`` and
    ``radius_factor * sigma_factor <= (MAX_TAPS - 1) / 2``; every field is
    checked, also those the variant does not use. A numpy scalar is stored
    as the Python number it holds, a Python number as given.
    """

    variant: str = PERFECT
    taps_per_axis: int = 9
    sigma_factor: float = 0.6
    radius_factor: float = 2.0

    def __post_init__(self):
        for name in ("taps_per_axis", "sigma_factor", "radius_factor"):
            value = getattr(self, name)
            if isinstance(value, np.generic):  # numpy scalars save as JSON
                object.__setattr__(self, name, value.item())
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if not is_integer(self.taps_per_axis):
            raise ValueError(
                f"taps_per_axis must be an integer, got {self.taps_per_axis!r}"
            )
        if self.taps_per_axis < 3 or self.taps_per_axis % 2 == 0:
            raise ValueError("taps_per_axis must be odd and >= 3")
        if self.taps_per_axis > MAX_TAPS:
            raise ValueError(f"taps_per_axis must be <= {MAX_TAPS}")
        if not (0 < self.sigma_factor < math.inf and 0 < self.radius_factor < math.inf):
            raise ValueError("sigma_factor and radius_factor must be finite and positive")
        if self.radius_factor * self.sigma_factor > (MAX_TAPS - 1) // 2:
            raise ValueError(
                f"radius_factor * sigma_factor must be <= {(MAX_TAPS - 1) // 2}, "
                f"the Gaussian radius of {MAX_TAPS} taps at factor 1"
            )

    @classmethod
    def perfect(cls) -> "SmoothingKernelSpec":
        return cls(variant=PERFECT)

    @classmethod
    def windowed_sinc(cls, taps_per_axis: int = 9) -> "SmoothingKernelSpec":
        return cls(variant=WINDOWED_SINC, taps_per_axis=taps_per_axis)

    @classmethod
    def truncated_gaussian(
        cls, sigma_factor: float = 0.6, radius_factor: float = 2.0
    ) -> "SmoothingKernelSpec":
        return cls(
            variant=TRUNCATED_GAUSSIAN,
            sigma_factor=sigma_factor,
            radius_factor=radius_factor,
        )

    @property
    def is_perfect(self) -> bool:
        return self.variant == PERFECT

    def realize(self, factor: int) -> np.ndarray:
        """Spatial taps for one axis at an integer decimation ``factor``.

        Returns a symmetric odd-length float64 tap vector with unit sum.
        Raises for the perfect variant, which has no spatial realization.
        """
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        if self.variant == WINDOWED_SINC:
            taps = _windowed_sinc_taps(self.taps_per_axis, factor)
        elif self.variant == TRUNCATED_GAUSSIAN:
            taps = _truncated_gaussian_taps(self.sigma_factor, self.radius_factor, factor)
        else:
            raise ValueError("the perfect kernel has no spatial tap realization")
        # Exact-zero end taps (sinc nodes) contribute nothing; trimming them
        # keeps the realized support honest, e.g. factor 1 becomes [1.0].
        while len(taps) > 1 and taps[0] == 0.0 and taps[-1] == 0.0:
            taps = taps[1:-1]
        return taps / taps.sum()

    def describe(self) -> dict:
        """JSON-serializable parameter record (manifests, checkpoints)."""
        out = {"variant": self.variant}
        if self.variant == WINDOWED_SINC:
            out["taps_per_axis"] = int(self.taps_per_axis)
        elif self.variant == TRUNCATED_GAUSSIAN:
            out["sigma_factor"] = self.sigma_factor
            out["radius_factor"] = self.radius_factor
        return out

    @classmethod
    def from_description(cls, desc: dict) -> "SmoothingKernelSpec":
        kwargs = dict(desc)
        variant = kwargs.pop("variant")
        return cls(variant=variant, **kwargs)


@lru_cache(maxsize=128)
def realized_taps(kernel: SmoothingKernelSpec, factor: int) -> np.ndarray:
    """``kernel.realize(factor)``, computed once per kernel and factor and
    shared read-only by the band operators and their MAC prices."""
    taps = kernel.realize(factor)
    taps.flags.writeable = False
    return taps


def _windowed_sinc_taps(num_taps: int, factor: int) -> np.ndarray:
    # Ideal cutoff at the coarse Nyquist rate: sinc(t / factor) / factor.
    half = (num_taps - 1) // 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    taps = np.sinc(t / factor) / factor
    # sinc vanishes exactly at nonzero multiples of the factor; clear the
    # float residue so a factor-1 kernel is exactly the identity.
    taps[(t != 0) & (t.astype(np.int64) % factor == 0)] = 0.0
    # Hann window without the zero endpoints, so every tap contributes.
    window = np.hanning(num_taps + 2)[1:-1]
    return taps * window


def _truncated_gaussian_taps(
    sigma_factor: float, radius_factor: float, factor: int
) -> np.ndarray:
    sigma = sigma_factor * factor
    radius = int(math.ceil(radius_factor * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-0.5 * (t / sigma) ** 2)
