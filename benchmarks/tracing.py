"""Spans around arrn's layer boundaries, installed from outside the library.

A :class:`Tracer` replaces chosen arrn functions and methods with wrappers
that record one span per call: name, start and end (``perf_counter_ns``),
parent span, operation id and phase. Spans opened while ``Tensor.backward``
runs, and the backward closures of the wrapped layer ops, have phase
``bwd``. While installed, the tracer also keeps an ``arrn.macs`` counter
active, so every span carries the MACs counted inside it, and counts the
Tensor nodes created with a backward closure.

Spans stay in memory; :meth:`Tracer.write` dumps them once, at the end.
:meth:`Tracer.uninstall` puts every original back, and
:meth:`Tracer.leftovers` lists any wrapper still reachable from arrn.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import ExitStack

import arrn
import arrn.autodiff
import arrn.layers
import arrn.macs
import arrn.model
import arrn.training

# Span fields, by index.
NAME, START, END, PARENT, OP, PHASE, MACS, NODES, HIT = range(9)

# (module, function, span name, also time the op's backward closure)
FUNCTIONS = (
    ("arrn.resample", "lowpass_array", "resample.lowpass", False),
    ("arrn.resample", "downsample_array", "resample.downsample", False),
    ("arrn.resample", "decimate_array", "resample.decimate", False),
    ("arrn.resample", "resample_perfect_array", "resample.resample_perfect", False),
    ("arrn.resample", "downsample_adjoint_array", "resample.downsample_adjoint", False),
    ("arrn.resample", "zero_insert_array", "resample.zero_insert", False),
    ("arrn.layers", "pointwise_conv_op", "layers.pointwise_conv", True),
    ("arrn.layers", "depthwise_conv_op", "layers.depthwise_conv", True),
    ("arrn.layers", "silu_op", "layers.silu", False),
    ("arrn.autodiff", "project_channels", "autodiff.project_channels", True),
    ("arrn.model", "forward_full", "model.forward_full", False),
    ("arrn.model", "forward_adapted", "model.forward_adapted", False),
    ("arrn.model", "save_checkpoint", "model.checkpoint_save", False),
    ("arrn.model", "load_checkpoint", "model.checkpoint_load", False),
    ("arrn.training", "train", "training.train", False),
    ("arrn.training", "predict_classes", "training.predict", False),
    ("arrn.pyramid", "decompose", "pyramid.decompose", False),
    ("arrn.pyramid", "reconstruct", "pyramid.reconstruct", False),
    ("arrn.data", "generate_dataset", "data.generate", False),
)

# (class, method, span name or a function of the instance giving it)
METHODS = (
    (arrn.autodiff.Tensor, "backward", "autodiff.backward"),
    (arrn.layers.BatchNorm, "forward", "layers.batchnorm"),
    (arrn.layers.GlobalPoolHead, "forward", "layers.head"),
    (arrn.model.LaplacianResidual, "forward", lambda res: f"model.res{res.level}"),
    # The terminal stage has no public entry point of its own.
    (arrn.model.ArrnModel, "_terminal_and_head", "model.terminal_head"),
    (arrn.model.ArrnModel, "forward_graph", "model.forward_graph"),
    (arrn.training.AdamW, "step", "training.optimizer"),
)

_MARK = "__benchmark_span__"


def _arrn_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "arrn" or n.startswith("arrn.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # id of the running operation; None during set-up
        self.graph_nodes = 0
        self._stack: list[int] = []
        self._backward_depth = 0
        self._counter = None
        self._patches: list[tuple[object, str, object]] = []
        self._composed_last: dict = {}
        self._stack_ctx: ExitStack | None = None

    # -- spans -----------------------------------------------------------------

    def _macs(self) -> int:
        return self._counter.total if self._counter is not None else 0

    def open(self, name: str, phase: str | None = None) -> int:
        if phase is None:
            phase = "bwd" if self._backward_depth else "fwd"
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op,
                           phase, self._macs(), self.graph_nodes, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[MACS] = self._macs() - span[MACS]
        span[NODES] = self.graph_nodes - span[NODES]
        self._stack.pop()

    def span(self, name: str, call, /, *args, phase: str | None = None, **kwargs):
        index = self.open(name, phase)
        try:
            return call(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, func, name: str, backward: bool):
        tracer = self

        def timed_vjp(vjp):
            def wrapper(g):
                return tracer.span(name, vjp, g, phase="bwd")
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, func, *args, **kwargs)
            if backward and out._vjp is not None:
                out._vjp = timed_vjp(out._vjp)
            return out

        setattr(wrapper, _MARK, name)
        return wrapper

    def _wrap_method(self, method, name):
        tracer = self

        @functools.wraps(method)
        def wrapper(obj, *args, **kwargs):
            label = name(obj) if callable(name) else name
            return tracer.span(label, method, obj, *args, **kwargs)

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced callable wherever arrn binds it."""
        modules = _arrn_modules()
        for module_name, attr, name, backward in FUNCTIONS:
            func = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap_function(func, name, backward)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, key, wrapper)
        for cls, attr, name in METHODS:
            method = cls.__dict__[attr]
            wrapper = self._wrap_method(method, name)
            if attr == "backward":
                wrapper = self._backward_phase(wrapper)
            self._patch(cls, attr, wrapper)
        self._patch(arrn.model.ArrnModel, "composed_projection",
                    self._composed_wrapper(arrn.model.ArrnModel.composed_projection))
        self._patch(arrn.autodiff.Tensor, "__init__",
                    self._node_counter(arrn.autodiff.Tensor.__init__))
        self._stack_ctx = ExitStack()
        self._counter = self._stack_ctx.enter_context(arrn.macs.recording())

    def _backward_phase(self, wrapper):
        tracer = self

        @functools.wraps(wrapper)
        def backward(*args, **kwargs):
            tracer._backward_depth += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                tracer._backward_depth -= 1

        setattr(backward, _MARK, "autodiff.backward")
        return backward

    def _composed_wrapper(self, method):
        """A call is a cache hit when it hands back the very array object the
        previous call for the same model, entry and version returned."""
        tracer = self

        @functools.wraps(method)
        def wrapper(model, entry):
            index = tracer.open("model.composed_projection")
            try:
                result = method(model, entry)
            finally:
                tracer.close(index)
            key = (id(model), entry)
            previous = tracer._composed_last.get(key)
            tracer.spans[index][HIT] = (previous is not None
                                        and previous[0] == model.version
                                        and previous[1] is result)
            tracer._composed_last[key] = (model.version, result)
            return result

        setattr(wrapper, _MARK, "model.composed_projection")
        return wrapper

    def _node_counter(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(tensor, values, parents=(), vjp=None):
            init(tensor, values, parents, vjp)
            if vjp is not None:
                tracer.graph_nodes += 1

        setattr(wrapper, _MARK, "autodiff.graph_nodes")
        return wrapper

    def uninstall(self) -> None:
        if self._stack_ctx is not None:
            self._stack_ctx.close()
            self._stack_ctx = None
        self._counter = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._composed_last.clear()

    def leftovers(self) -> list[str]:
        """Names of arrn attributes that still hold a tracing wrapper."""
        found = []
        for module in _arrn_modules():
            for key, value in vars(module).items():
                if hasattr(value, _MARK):
                    found.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if hasattr(member, _MARK):
                            found.append(f"{module.__name__}.{key}.{attr}")
        return found

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "phase", "macs",
                "graph_nodes", "cache_hit")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# From spans to per-layer metrics.
# ---------------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another inside it, so the covered
    time is the sum of their durations, clipped to the parent's interval.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            start = max(span[START], parent[START])
            end = min(span[END], parent[END])
            covered[span[PARENT]] += max(0, end - start)
    return [max(0, s[END] - s[START] - c) for s, c in zip(spans, covered)]


RESAMPLE_FWD = ("lowpass", "downsample", "decimate", "resample_perfect")
RESAMPLE_BWD = ("lowpass", "downsample_adjoint", "zero_insert")
EVAL_CALLS = ("model.forward_full", "model.forward_adapted")


def layer_metrics(spans, operations: int, setups: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``operations`` timed operations
    (op id >= 0) and ``setups`` traced set-ups (op id None).

    Times of leaf ops are self times; times of composite spans (model
    levels, training phases, backward, pyramid, checkpoints, data) are
    inclusive. Times and counts are per operation, set-up spans per set-up.
    """
    own = self_times(spans)
    # Flags inherited from ancestors: inside train, inside predict, inside
    # an eval call. Parents always precede their children in the list.
    flags = []
    for span in spans:
        inherited = flags[span[PARENT]] if span[PARENT] >= 0 else (False, False, False)
        name = span[NAME]
        flags.append((
            inherited[0] or name == "training.train",
            inherited[1] or name == "training.predict",
            inherited[2] or name in EVAL_CALLS,
        ))

    incl: dict[tuple[str, str], int] = {}
    excl: dict[tuple[str, str], int] = {}
    calls: dict[tuple[str, str], int] = {}
    own_macs: dict[str, int] = {}
    child_macs = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_macs[span[PARENT]] += span[MACS]
    setup = {"model.checkpoint_save": 0, "model.checkpoint_load": 0,
             "data.generate": 0}
    train_fwd = train_bwd = predict = train = 0
    eval_calls = eval_nodes = composed_calls = composed_hits = 0
    for index, span in enumerate(spans):
        name, phase = span[NAME], span[PHASE]
        duration = span[END] - span[START]
        if span[OP] is None:
            if name in setup:
                setup[name] += duration
            continue
        if span[OP] < 0:
            continue
        key = (name, phase)
        incl[key] = incl.get(key, 0) + duration
        excl[key] = excl.get(key, 0) + own[index]
        calls[key] = calls.get(key, 0) + 1
        own_macs[name] = own_macs.get(name, 0) + span[MACS] - child_macs[index]
        in_train, in_predict, in_eval = flags[index]
        parent_in_eval = span[PARENT] >= 0 and flags[span[PARENT]][2]
        if name in EVAL_CALLS and not parent_in_eval:
            eval_calls += 1
            eval_nodes += span[NODES]
        if name == "model.composed_projection":
            composed_calls += 1
            composed_hits += bool(span[HIT])
        if in_train and not in_predict:
            if name == "model.forward_graph":
                train_fwd += duration
            elif name == "autodiff.backward":
                train_bwd += duration
        if name == "training.predict":
            predict += duration
        if name == "training.train":
            train += duration

    n = max(operations, 1)

    def ms(table, name, phase="fwd"):
        return table.get((name, phase), 0) / n / 1e6

    def count(name, phase="fwd"):
        return calls.get((name, phase), 0) / n

    out: dict[str, float] = {}
    for op in RESAMPLE_FWD:
        out[f"resample.{op}.fwd_ms"] = ms(excl, f"resample.{op}")
        out[f"resample.{op}.fwd_calls"] = count(f"resample.{op}")
    for op in RESAMPLE_BWD:
        out[f"resample.{op}.bwd_ms"] = ms(excl, f"resample.{op}", "bwd")
        out[f"resample.{op}.bwd_calls"] = count(f"resample.{op}", "bwd")
    resample_macs = sum(v for k, v in own_macs.items() if k.startswith("resample."))
    resample_ns = sum(v for k, v in excl.items() if k[0].startswith("resample."))
    out["resample.macs"] = resample_macs / n
    out["resample.macs_per_s"] = resample_macs / (resample_ns / 1e9) if resample_ns else 0.0

    for op in ("pointwise_conv", "depthwise_conv"):
        out[f"layers.{op}.fwd_ms"] = ms(excl, f"layers.{op}")
        out[f"layers.{op}.bwd_ms"] = ms(excl, f"layers.{op}", "bwd")
    for op in ("batchnorm", "silu", "head"):
        out[f"layers.{op}.fwd_ms"] = ms(excl, f"layers.{op}")
    for op in ("pointwise_conv", "depthwise_conv", "head"):
        out[f"layers.{op}.macs"] = own_macs.get(f"layers.{op}", 0) / n

    out["autodiff.project_channels.fwd_ms"] = ms(excl, "autodiff.project_channels")
    out["autodiff.project_channels.bwd_ms"] = ms(excl, "autodiff.project_channels", "bwd")
    out["autodiff.backward_ms"] = ms(incl, "autodiff.backward", "bwd")
    out["autodiff.graph_nodes"] = eval_nodes / eval_calls if eval_calls else 0.0

    out["model.res0.fwd_ms"] = ms(incl, "model.res0")
    out["model.res1.fwd_ms"] = ms(incl, "model.res1")
    out["model.terminal_head.fwd_ms"] = ms(incl, "model.terminal_head")
    out["model.composed_projection.calls"] = composed_calls / n
    out["model.composed_cache_hit_ratio"] = (
        composed_hits / composed_calls if composed_calls else 0.0)
    per_setup = max(setups, 1)
    out["model.checkpoint_save_ms"] = setup["model.checkpoint_save"] / per_setup / 1e6
    out["model.checkpoint_load_ms"] = setup["model.checkpoint_load"] / per_setup / 1e6

    out["training.forward_ms"] = train_fwd / n / 1e6
    out["training.backward_ms"] = train_bwd / n / 1e6
    out["training.optimizer_ms"] = ms(incl, "training.optimizer")
    out["training.predict_share"] = predict / train if train else 0.0

    out["pyramid.decompose_ms"] = ms(incl, "pyramid.decompose")
    out["pyramid.reconstruct_ms"] = ms(incl, "pyramid.reconstruct")
    out["data.generate_s"] = setup["data.generate"] / per_setup / 1e9
    return out
