"""The benchmark's tracer finds the library callables it times by name.

``benchmarks/tracing.py`` lists them in its ``FUNCTIONS`` and ``METHODS``
tables and reads ``ArrnModel.composed_projection`` and ``model.version``.
A library change that renames or moves one of them would only fail inside
``benchmarks/run.py --trace 1``; these checks fail in the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from arrn.grids import ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.model import ArrnModel

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    assert tracing.FUNCTIONS
    for module_name, attr, _, _ in tracing.FUNCTIONS:
        func = getattr(importlib.import_module(module_name), attr, None)
        assert callable(func), f"{module_name}.{attr}"


def test_every_traced_method_is_defined_on_its_class(tracing):
    # The tracer patches ``cls.__dict__[attr]``, so an inherited one is missed.
    assert tracing.METHODS
    for cls, attr, _ in tracing.METHODS:
        assert callable(vars(cls).get(attr)), f"{cls.__name__}.{attr}"


def test_composed_projection_and_version_are_there_to_read():
    assert callable(vars(ArrnModel).get("composed_projection"))
    model = ArrnModel(ResolutionLadder.from_extents([16, 8]), 1, (2, 2), 2,
                      SmoothingKernelSpec.perfect(), np.random.default_rng(0))
    assert isinstance(model.version, int)
