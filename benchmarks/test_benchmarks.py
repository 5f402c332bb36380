"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest benchmarks/test_benchmarks.py -q

They run every workload briefly, show that a wrong output is counted as a
failure, and check the tracing: self times, phases, bit-identical outputs
and complete removal of the wrappers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import arrn  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    done = run_cli(ROOT, "--workload", workload, "--seed", "3",
                   "--seconds", "0.2", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli(tmp_path, "--workload", "eval-ladder", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload, target", [
    ("eval-ladder", "forward_adapted"),
    ("verify-2d", "reconstruct"),
])
def test_wrong_output_counts_as_failure(monkeypatch, tmp_path, workload, target):
    original = getattr(arrn, target)

    def wrong(*args, **kwargs):
        out = original(*args, **kwargs)
        if isinstance(out, np.ndarray):
            return out + 1.0
        return out.with_values(out.values + 1e-6)

    monkeypatch.setattr(arrn, target, wrong)
    (tmp_path / "src").symlink_to(ROOT / "src")
    result = harness.measure(workload, 0, 0.1, tmp_path)
    tally = result["tally"]
    assert not result["correct"]
    assert tally.failed > 0
    assert result["report"]["error_rate"][0] == tally.failed / tally.attempted


def _tiny_training(seed=0):
    ladder = arrn.ResolutionLadder.from_extents([16, 8, 4])
    data = arrn.generate_dataset(arrn.SynthDatasetSpec(
        classes=2, level_extents=((16,), (8,), (4,)), samples_per_class=8,
        seed=seed))
    model = arrn.ArrnModel(ladder, 1, (2, 3, 4), 2, arrn.SmoothingKernelSpec.perfect(),
                           np.random.default_rng(seed))
    result = arrn.train(model, data.train.inputs, data.train.labels,
                        arrn.TrainConfig(epochs=2, batch_size=4, seed=seed, dtype="f64"))
    coarse = arrn.FeatureMap(ladder[1], np.ones((2, 1, 8)))
    return result.epoch_losses, arrn.forward_adapted(model, coarse)


def test_tracing_is_transparent_and_removed():
    plain = _tiny_training()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        traced = _tiny_training()
    finally:
        tracer.uninstall()
    assert plain[0] == traced[0]
    assert plain[1].tobytes() == traced[1].tobytes()
    assert tracer.leftovers() == []
    assert arrn.forward_full is arrn.model.forward_full
    assert not hasattr(arrn.autodiff.Tensor.backward, tracing._MARK)

    spans = tracer.spans
    own = tracing.self_times(spans)
    for span, self_ns in zip(spans, own):
        assert 0 <= self_ns <= span[tracing.END] - span[tracing.START]
    names = {(s[tracing.NAME], s[tracing.PHASE]) for s in spans}
    assert ("resample.lowpass", "bwd") in names
    assert ("layers.pointwise_conv", "bwd") in names
    assert ("autodiff.backward", "bwd") in names
    metrics = tracing.layer_metrics(spans, operations=1, setups=1)
    assert metrics["training.backward_ms"] > 0
    assert metrics["model.composed_projection.calls"] == 1


def test_self_time_clips_children_to_the_parent():
    span = lambda name, start, end, parent: [name, start, end, parent, 0, "fwd", 0, 0, None]  # noqa: E731
    spans = [span("a", 0, 10, -1), span("b", 2, 6, 0), span("c", 6, 14, 0),
             span("d", 3, 4, 1)]
    assert tracing.self_times(spans) == [2, 3, 8, 1]
