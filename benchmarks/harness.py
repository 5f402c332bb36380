"""Measurement loops: untraced end-to-end runs and the traced per-layer run.

``measure`` (``--trace 0``) times the import of numpy, scipy and arrn in
fresh interpreters and the workload's set-up, several times each, and
keeps the medians; it records the peak bytes a probe call allocates as the
workload's working set, warms up, then runs the closed loop for the
requested seconds, ending on a cycle boundary. Every reported time is
normalized to a reference machine speed (see :class:`Reference`); the raw
figures are printed next to them.

``measure_traced`` (``--trace 1``) runs half the time untraced and half
traced from a fresh set-up, checks that every output of the traced half is
bit-identical to the untraced one and that every wrapper is gone
afterwards, and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 5
REFERENCE_MS = 20.0
CORE_REFERENCE_MS = 5.0
READING_INTERVAL_S = 0.25
IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                "import numpy, scipy, arrn; print(time.perf_counter() - start)")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class Sample:
    index: int
    kind: str
    work: int
    ns: int
    ok: bool
    norm_ns: float = 0.0  # ns scaled to the reference speed


@dataclass
class Loop:
    samples: list[Sample] = field(default_factory=list)
    records: dict[int, object] = field(default_factory=dict)
    factors: list[float] = field(default_factory=list)


class Reference:
    """Fixed numpy kernels, unrelated to arrn, that track machine speed.

    Co-tenants slow this machine's CPU by up to 1.6x for seconds to
    minutes at a time, so raw times of the same work differ by a third
    between runs. A reading taken right before and right after a piece of
    work slows down with it; scaling the work's time by the nominal over
    the mean of the two readings gives its time at a nominal speed. A
    reading times two kernels of FFT, einsum and elementwise work: one on
    arrays small enough to stay in cache, which follows the speed of the
    core, and one on a batch-256 feature map like the workloads', which
    also follows memory contention. Short operations are scaled by the
    sum of both (nominal ``REFERENCE_MS``); operations longer than
    ``READING_INTERVAL_S`` by the cache-resident kernel alone (nominal
    ``CORE_REFERENCE_MS``), which tracked them better.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((8, 8, 64)).astype(np.float32)
        self.large = rng.standard_normal((256, 8, 64)).astype(np.float32)
        self.w = rng.standard_normal((16, 8)).astype(np.float32)
        self.last = self.read()

    def _kernel(self, x):
        spectrum = np.fft.fft(x, axis=2)
        y = np.fft.ifft(spectrum, axis=2).real
        np.einsum("oc,bc...->bo...", self.w, y) * 1.5 + 0.1

    def read(self) -> tuple[float, float]:
        """Milliseconds of the cache-resident and of the batch-sized kernel."""
        start = time.perf_counter_ns()
        for _ in range(30):
            self._kernel(self.small)
        middle = time.perf_counter_ns()
        self._kernel(self.large)
        return (middle - start) / 1e6, (time.perf_counter_ns() - middle) / 1e6

    def factors(self) -> tuple[float, float]:
        """Speed factors (short work, long work) since the previous reading."""
        before, self.last = self.last, self.read()
        core = (before[0] + self.last[0]) / 2
        memory = (before[1] + self.last[1]) / 2
        return REFERENCE_MS / (core + memory), CORE_REFERENCE_MS / core

    def factor(self) -> float:
        """Speed factor for short work done since the previous reading."""
        return self.factors()[0]


def run_op(workload: Workload, state, i: int, tally: Tally, loop: Loop,
           warmup: bool = False) -> Sample | None:
    """Prepare, time and check operation ``i``; a raise counts as a failure.
    Only operations after the warm-up become samples."""
    try:
        op = workload.prepare(state, i)
        start = time.perf_counter_ns()
        output = op.call()
        ns = time.perf_counter_ns() - start
        ok, record = workload.check(state, i, output)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        tally.add(False, f"{workload.name} operation {i} raised")
        return None
    tally.add(ok, f"{workload.name} operation {i} output check")
    loop.records[i] = record
    if warmup:
        return None
    sample = Sample(i, op.kind, op.work, ns, ok)
    loop.samples.append(sample)
    return sample


def run_loop(workload, state, seconds, tally, reference: Reference,
             tracer=None) -> Loop:
    """Warm-up operations, then whole cycles until ``seconds`` have passed.

    A reference reading is taken before the first timed operation and then
    between operations whenever ``READING_INTERVAL_S`` has passed; each
    operation's time is normalized with the readings around it.
    """
    loop = Loop()
    for i in range(workload.warmup):
        if tracer is not None:
            tracer.op = -1
        run_op(workload, state, i, tally, loop, warmup=True)
    i = workload.warmup
    pending: list[Sample] = []
    reference.factor()
    last_reading = time.perf_counter()
    deadline = last_reading + seconds
    while True:
        if tracer is not None:
            tracer.op = i
        sample = run_op(workload, state, i, tally, loop)
        if sample is not None:
            pending.append(sample)
        i += 1
        now = time.perf_counter()
        done = i % workload.cycle == 0 and now >= deadline
        if done or now - last_reading >= READING_INTERVAL_S:
            short_factor, long_factor = reference.factors()
            loop.factors.append(short_factor)
            for s in pending:
                short = s.ns < READING_INTERVAL_S * 1e9
                s.norm_ns = s.ns * (short_factor if short else long_factor)
            pending.clear()
            last_reading = time.perf_counter()
        if done:
            return loop


def working_set(workload, state) -> int:
    """Peak bytes allocated by the workload's probe call (``tracemalloc``)."""
    call = workload.probe(state)
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def named_metrics(workload, loop: Loop) -> dict[str, tuple[float, str]]:
    """The workload's own throughput and latency metrics, as README.md names
    them, from reference-normalized times."""
    timed = loop.samples
    ok = [s for s in timed if s.ok]
    seconds = sum(s.norm_ns for s in timed) / 1e9
    out = {workload.throughput_name:
           (sum(s.work for s in ok) / seconds if seconds else 0.0, "1/s")}
    for prefix, kinds in workload.latency_groups.items():
        ms = [s.norm_ns / 1e6 for s in timed if s.kind in kinds]
        if ms:
            out[f"{prefix}_ms_p50"] = (percentile(ms, 50), "ms")
            out[f"{prefix}_ms_p90"] = (percentile(ms, 90), "ms")
            out[f"{prefix}_samples"] = (len(ms), "count")
    return out


def _getconf(name: str):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True,
                              timeout=10, check=True)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(seed: int, workload: str, working_set: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "working_set_bytes": working_set,
        "l1d_cache_bytes": _getconf("LEVEL1_DCACHE_SIZE"),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def import_seconds(root: Path, reference: Reference) -> float:
    """Median normalized time fresh interpreters take to import numpy,
    scipy and arrn."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        reference.factor()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout) * reference.factor())
    return statistics.median(times)


def work_dir(root: Path) -> tempfile.TemporaryDirectory:
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=base)


def measure(name: str, seed: int, seconds: float, root: Path) -> dict:
    workload = WORKLOADS[name]
    tally = Tally()
    reference = Reference()
    import_s = import_seconds(root, reference)
    with work_dir(root) as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            reference.factor()
            start = time.perf_counter()
            state = workload.setup(seed, Path(tmp))
            setups.append((time.perf_counter() - start) * reference.factor())
        for what, ok in workload.checks(state):
            tally.add(ok, what)
        peak_bytes = working_set(workload, state)
        loop = run_loop(workload, state, seconds, tally, reference)

    timed = loop.samples
    samples = root / ".bench_out" / f"samples-{name}-seed{seed}.json"
    samples.write_text(json.dumps({
        "import_s": import_s, "setup_s": setups, "factors": loop.factors,
        "ops": [[s.index, s.kind, s.ns, s.norm_ns] for s in timed]}))
    named = named_metrics(workload, loop)
    norm_ms = [s.norm_ns / 1e6 for s in timed]
    metrics = {
        "throughput_per_s": named[workload.throughput_name],
        "op_ms_p50": (percentile(norm_ms, 50), "ms"),
        "op_ms_p90": (percentile(norm_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (import_s + statistics.median(setups), "s"),
    }
    raw_seconds = sum(s.ns for s in timed) / 1e9
    report = dict(named)
    report.update(metrics)
    report["raw_op_ms_p50"] = (percentile([s.ns / 1e6 for s in timed], 50), "ms")
    report["raw_work_per_s"] = (sum(s.work for s in timed if s.ok) / raw_seconds, "1/s")
    report["speed_factor_p50"] = (percentile(loop.factors, 50), "ratio")
    report["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
    report["operations"] = (len(timed), "count")
    return {
        "env": environment(seed, name, peak_bytes),
        "report": report,
        "tally": tally,
        "metrics": metrics,
        "correct": tally.failed == 0,
    }


def _identical(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def measure_traced(name: str, seed: int, seconds: float, root: Path) -> dict:
    workload = WORKLOADS[name]
    tally = Tally()
    half = seconds / 2
    with work_dir(root) as tmp:
        state = workload.setup(seed, Path(tmp))
        for what, ok in workload.checks(state):
            tally.add(ok, what)
        peak_bytes = working_set(workload, state)
        reference = Reference()
        plain = run_loop(workload, state, half, tally, reference)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            state = workload.setup(seed, Path(tmp))
            traced = run_loop(workload, state, half, tally, reference, tracer)
        finally:
            tracer.uninstall()
    leftovers = tracer.leftovers()
    tally.add(not leftovers, f"tracing wrappers left installed: {leftovers}")
    common = sorted(set(plain.records) & set(traced.records))
    differing = [i for i in common
                 if not _identical(plain.records[i], traced.records[i])]
    tally.add(bool(common) and not differing,
              f"traced outputs differ from untraced ones at operations {differing}")

    trace_path = root / ".bench_out" / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(trace_path)

    plain_ns = [s.norm_ns for s in plain.samples]
    traced_ns = [s.norm_ns for s in traced.samples]
    overhead = (statistics.fmean(traced_ns) / statistics.fmean(plain_ns) - 1) * 100
    layers = tracing.layer_metrics(tracer.spans, len(traced_ns), setups=1)
    layers.update(workload.macs(state))
    layers["trace.overhead_pct"] = overhead
    return {
        "env": environment(seed, name, peak_bytes),
        "report": {"trace_file": (str(trace_path.relative_to(root)), ""),
                   "spans": (len(tracer.spans), "count"),
                   "trace.overhead_pct": (overhead, "%")},
        "tally": tally,
        "layers": layers,
        "correct": tally.failed == 0,
    }
