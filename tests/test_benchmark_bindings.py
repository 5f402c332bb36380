"""The benchmark's tracer finds the library callables it times by name.

``benchmarks/tracing.py`` lists them in its ``FUNCTIONS`` and ``METHODS``
tables and reads ``ArrnModel.composed_projection`` and ``model.version``;
it counts graph nodes through ``Tensor.__init__`` and times backward closures
by replacing ``_vjp`` on op outputs.
A library change that renames or moves one of them would only fail inside
``benchmarks/run.py --trace 1``; these checks fail in the test suite instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from arrn.autodiff import Tensor, no_grad, project_channels
from arrn.grids import ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.layers import TRAIN
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


# The tracer's hooks into the autodiff engine: it wraps ``Tensor.__init__``
# as ``(values, parents=(), vjp=None)`` to count graph nodes, and replaces
# ``out._vjp`` on an op's output to time its backward closure.


def test_tensor_init_takes_values_parents_vjp():
    params = list(inspect.signature(Tensor.__init__).parameters)
    assert params == ["self", "values", "parents", "vjp"]
    leaf = Tensor(np.ones(3))
    out = Tensor(2 * leaf.values, (leaf,), lambda g: (2 * g,))
    out.backward(np.ones(3))
    np.testing.assert_array_equal(leaf.grad, np.full(3, 2.0))


def test_a_vjp_assigned_on_an_op_output_is_the_one_backward_calls():
    x = Tensor(np.arange(12.0).reshape(2, 3, 2))
    w = Tensor(np.arange(6.0).reshape(2, 3))
    out = project_channels(x, w)
    original, seen = out._vjp, []

    def timed(g):
        seen.append(g)
        return original(g)

    out._vjp = timed
    assert out._vjp is timed
    seed = np.ones(out.shape)
    out.backward(seed)
    assert len(seen) == 1 and seen[0] is seed
    np.testing.assert_array_equal(w.grad, original(seed)[1])


def test_an_op_output_under_no_grad_has_no_vjp():
    x = Tensor(np.ones((2, 3, 4)))
    w = Tensor(np.ones((2, 3)))
    assert project_channels(x, w)._vjp is not None
    with no_grad():
        assert project_channels(x, w)._vjp is None


def test_traced_training_step_counts_nodes_and_times_backward(tracing):
    model = ArrnModel(ResolutionLadder.from_extents([16, 8]), 1, (2, 2), 2,
                      SmoothingKernelSpec.perfect(), np.random.default_rng(0))
    values = np.random.default_rng(1).standard_normal((3, 1, 16))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        logits = model.forward_graph(values, mode=TRAIN, rng=np.random.default_rng(2))
        logits.backward()
        with no_grad():
            nodes = tracer.graph_nodes
            model.forward_graph(values)
            assert tracer.graph_nodes == nodes
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert nodes > 0
    phases = {(s[tracing.NAME], s[tracing.PHASE]) for s in tracer.spans}
    assert ("autodiff.project_channels", "bwd") in phases
    assert ("layers.depthwise_conv", "bwd") in phases
