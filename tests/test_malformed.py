"""One rule for refused file content: every reader ends in FormatError.

:func:`arrn.signal.malformed` turns what a reader refuses into a
FormatError; these tests pin the mapping itself, then replace one field of
a valid ARNN1, pyramid or dataset-cache manifest with a hostile JSON value
and check that loading either succeeds or raises FormatError.
"""

import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrn.data import SynthDatasetSpec, generate_dataset, load_dataset, save_dataset
from arrn.errors import FormatError, GridError, NumericError, ShapeError
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.model import ARNN_MAGIC, ArrnModel, load_checkpoint, save_checkpoint
from arrn.pyramid import decompose, load_pyramid, save_pyramid
from arrn.signal import DiscreteSignal, malformed

LADDER = ResolutionLadder.from_extents([64, 32, 16])


class TestMapping:
    @pytest.mark.parametrize("refusal", [
        KeyError("k"), IndexError("i"), ValueError("v"), TypeError("t"),
        OverflowError("o"), RecursionError("r"), struct.error("s"),
        GridError("g"), ShapeError("sh"), NumericError("n"),
    ])
    def test_refusal_becomes_a_format_error(self, refusal):
        with pytest.raises(FormatError, match=r"^f\.bin: malformed thing: ") as info:
            with malformed("f.bin", "thing"):
                raise refusal
        assert info.value.__cause__ is refusal

    @pytest.mark.parametrize("error", [
        FormatError("kept as is"), OSError("unreadable"), MemoryError(),
    ])
    def test_other_errors_pass_unchanged(self, error):
        with pytest.raises(type(error)) as info:
            with malformed("f.bin", "thing"):
                raise error
        assert info.value is error


# ---------------------------------------------------------------------------
# Property: one hostile JSON value in place of one manifest field.
# ---------------------------------------------------------------------------

HOSTILE = (
    float("inf"),  # what the JSON number 1e400 decodes to
    -1, 0, 1.5, "", [], None, 10**30,
    [[64], [30], [16]],  # a ladder whose middle level does not divide 64
    [[8, 8, 8], [4, 4, 4], [2, 2, 2]],  # 3-D extents
    [[[[0]]]],
)


def _arnn_edit(path: Path, edit) -> None:
    raw = path.read_bytes()
    start = len(ARNN_MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, len(ARNN_MAGIC))
    header = json.dumps(edit(json.loads(raw[start : start + length]))).encode()
    path.write_bytes(
        ARNN_MAGIC + struct.pack("<I", len(header)) + header + raw[start + length :]
    )


def _json_edit(path: Path, edit) -> None:
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _make_checkpoint(directory: Path) -> None:
    model = ArrnModel(LADDER, 1, (4, 8, 8), 3, SmoothingKernelSpec.perfect(),
                      np.random.default_rng(0))
    save_checkpoint(directory / "model.arnn", model, 0.3)


def _make_pyramid(directory: Path) -> None:
    signal = DiscreteSignal(
        GridSpec((64,)), np.random.default_rng(0).standard_normal((1, 64)))
    save_pyramid(directory, decompose(signal, LADDER, SmoothingKernelSpec.perfect()))


def _make_cache(directory: Path) -> None:
    save_dataset(directory, generate_dataset(SynthDatasetSpec(
        classes=2, samples_per_class=4, level_extents=((64,), (32,), (16,)))))


# reader -> (maker, file the manifest lives in, its editor, load, fields)
READERS = {
    "checkpoint": (
        _make_checkpoint, "model.arnn", _arnn_edit, load_checkpoint,
        ("format", "ladder", "input_features", "features", "classes", "kernel",
         "blocks", "head_dropout", "dropout", "dtype", "arrays"),
    ),
    "pyramid": (
        _make_pyramid, "manifest.json", _json_edit, load_pyramid,
        ("levels", "kernel", "start_level", "dtype", "diffs", "low"),
    ),
    "dataset": (
        _make_cache, "dataset.json", _json_edit, load_dataset,
        ("spec", "signatures", *(f"spec.{name}" for name in (
            "classes", "level_extents", "samples_per_class", "noise",
            "features", "seed", "train_fraction", "signatures"))),
    ),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid directory per reader."""
    root = tmp_path_factory.mktemp("valid")
    for name, (make, *_) in READERS.items():
        (root / name).mkdir()
        make(root / name)
    return root


def _replace(field: str, value):
    """An edit setting ``field`` (``spec.x`` names a field of ``spec``)."""
    def edit(manifest):
        *outer, key = field.split(".")
        target = manifest[outer[0]] if outer else manifest
        target[key] = value
        return manifest

    return edit


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hostile_manifest_value_loads_or_is_a_format_error(
    valid_files, reader, data
):
    _, filename, edit, load, fields = READERS[reader]
    field = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    work = Path(tempfile.mkdtemp(dir=valid_files))
    try:
        shutil.copytree(valid_files / reader, work, dirs_exist_ok=True)
        edit(work / filename, _replace(field, value))
        target = work / filename if reader == "checkpoint" else work
        try:
            load(target)
        except FormatError:
            pass
    finally:
        shutil.rmtree(work)


# ---------------------------------------------------------------------------
# Values a reader must refuse rather than load as something else.
# ---------------------------------------------------------------------------

REFUSED = [
    ("checkpoint", "input_features", 1.5),  # int() would load a 1-channel model
    ("checkpoint", "input_features", True),
    ("checkpoint", "classes", 1.5),
    ("checkpoint", "classes", True),
    ("dataset", "spec.level_extents", [[64], [30], [16]]),
    ("dataset", "spec.samples_per_class", 1.5),
    ("dataset", "spec.seed", 1.5),
    ("dataset", "spec.classes", 1.5),
    ("dataset", "spec.features", 1.5),
    ("dataset", "signatures", None),
    ("dataset", "signatures", float("inf")),
    ("dataset", "signatures", []),
    ("dataset", "signatures", [[64], [30], [16]]),
    ("dataset", "signatures", [[1.0, 1.0, 1.0]]),  # one row for two classes
]


@pytest.mark.parametrize("reader, field, value", REFUSED)
def test_value_the_reader_refuses_is_a_format_error(valid_files, reader, field, value):
    _, filename, edit, load, _ = READERS[reader]
    work = Path(tempfile.mkdtemp(dir=valid_files))
    try:
        shutil.copytree(valid_files / reader, work, dirs_exist_ok=True)
        edit(work / filename, _replace(field, value))
        with pytest.raises(FormatError, match="malformed|signatures"):
            load(work / filename if reader == "checkpoint" else work)
    finally:
        shutil.rmtree(work)
