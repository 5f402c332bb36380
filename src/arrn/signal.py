"""Discrete multichannel signals and their container format.

A :class:`DiscreteSignal` holds samples of a bandlimited continuous signal
on a :class:`~arrn.grids.GridSpec`. Values are stored feature-major then
row-major over the spatial axes, i.e. as a C-ordered array of shape
``(features, *extents)``.

The on-disk container "ARSG" is::

    b"ARSG1\\n"
    u32 dims | u32 extents[dims] | u32 features | u32 dtype_code
    raw little-endian values, feature-major layout

with dtype code 0 for 32-bit IEEE floats and 1 for 64-bit.
"""

from __future__ import annotations

import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, NumericError, ShapeError
from .grids import GridSpec

ARSG_MAGIC = b"ARSG1\n"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@dataclass(frozen=True)
class DiscreteSignal:
    """Samples of a multichannel signal on a regular periodic grid."""

    grid: GridSpec
    values: np.ndarray  # shape (features, *grid.extents)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype not in (np.float32, np.float64):
            v = v.astype(np.float64)
        expected_spatial = self.grid.extents
        if v.ndim != 1 + self.grid.dims or v.shape[1:] != expected_spatial:
            raise ShapeError(
                f"values shape {v.shape} does not match (features, {expected_spatial})"
            )
        if not np.all(np.isfinite(v)):
            raise NumericError("signal values must all be finite")
        object.__setattr__(self, "values", v)

    @property
    def features(self) -> int:
        return self.values.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def astype(self, dtype) -> "DiscreteSignal":
        return DiscreteSignal(self.grid, self.values.astype(dtype))

    def with_values(self, values: np.ndarray) -> "DiscreteSignal":
        return DiscreteSignal(self.grid, values)

    @classmethod
    def from_flat(
        cls, grid: GridSpec, features: int, flat: np.ndarray
    ) -> "DiscreteSignal":
        if flat.size != features * grid.num_samples:
            raise ShapeError(
                f"expected {features * grid.num_samples} values, got {flat.size}"
            )
        return cls(grid, flat.reshape((features,) + grid.extents))


def spatial_mean(values: np.ndarray, spatial_ndim: int) -> np.ndarray:
    """Mean over the trailing ``spatial_ndim`` axes, kept for broadcasting."""
    axes = tuple(range(values.ndim - spatial_ndim, values.ndim))
    return values.mean(axis=axes, keepdims=True)


def mean_reject_array(values: np.ndarray, spatial_ndim: int) -> np.ndarray:
    """Subtract the per-channel spatial mean (the constant-rejection filter).

    Linear, idempotent, and self-adjoint; the output is orthogonal to the
    constant signal on every channel.
    """
    return values - spatial_mean(values, spatial_ndim)


def mean_reject(signal: DiscreteSignal) -> DiscreteSignal:
    """Constant rejection: per feature channel, subtract the spatial mean."""
    return signal.with_values(mean_reject_array(signal.values, signal.grid.dims))


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (text is UTF-8 encoded) in one step.

    The bytes go to a temp file beside the target, named uniquely per call
    so concurrent writers never share one. It is opened with exclusive
    create rather than ``mkstemp``, so it gets the usual umask permissions
    instead of 0600. ``os.replace`` then publishes it; on any failure the
    temp file is removed and the target is left as it was.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    # Opened outside the try: on a name clash the file is another writer's.
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_arsg(path: str | Path, signal: DiscreteSignal) -> None:
    """Write a signal in the ARSG container format (atomic: temp + rename)."""
    code = _CODE_FOR_KIND[np.dtype(signal.dtype)]
    grid = signal.grid
    header = struct.pack(
        f"<{2 + grid.dims}I I",
        grid.dims,
        *grid.extents,
        signal.features,
        code,
    )
    payload = np.ascontiguousarray(signal.values, dtype=_DTYPE_CODES[code]).tobytes()
    atomic_write(path, ARSG_MAGIC + header + payload)


def read_arsg(path: str | Path) -> DiscreteSignal:
    """Read an ARSG container, raising FormatError on any malformation."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: unreadable signal file: {exc}") from exc
    if not raw.startswith(ARSG_MAGIC):
        raise FormatError(f"{path}: bad magic bytes (not an ARSG file)")
    off = len(ARSG_MAGIC)
    try:
        (dims,) = struct.unpack_from("<I", raw, off)
        off += 4
        if not 1 <= dims <= 2:
            raise FormatError(f"{path}: unsupported dims {dims}")
        extents = struct.unpack_from(f"<{dims}I", raw, off)
        off += 4 * dims
        features, code = struct.unpack_from("<2I", raw, off)
        off += 8
    except struct.error as exc:
        raise FormatError(f"{path}: truncated header") from exc
    if code not in _DTYPE_CODES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    try:
        grid = GridSpec(tuple(int(e) for e in extents))
    except Exception as exc:
        raise FormatError(f"{path}: invalid extents {extents}") from exc
    expected = features * grid.num_samples * dtype.itemsize
    blob = raw[off:]
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload is {len(blob)} bytes, expected {expected}"
        )
    flat = np.frombuffer(blob, dtype=dtype).astype(dtype.newbyteorder("="))
    try:
        return DiscreteSignal.from_flat(grid, features, flat)
    except NumericError as exc:
        raise FormatError(f"{path}: non-finite payload values") from exc
