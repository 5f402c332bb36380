"""Run one arrn benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload eval-ladder --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a source checkout: arrn is imported from the
checkout's ``src/`` (nothing needs installing), and scratch files go to
``.bench_out/`` at the checkout root. Workloads are ``train-1d``,
``eval-ladder`` and ``verify-2d`` (see README.md).

Standard output holds human-readable lines, one ``env`` JSON line, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the ``end_to_end`` metrics of
BENCHMARK.json, ``--trace 1`` its ``per_layer`` metrics from a traced run.
Exit code 0 means a result was printed; 2 means the run could not start.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One client, one BLAS thread: steadier on a small shared machine, and
# within the machine's core count everywhere.
BLAS_THREADS = "1"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "arrn" / "__init__.py").is_file():
        return fail(f"no arrn sources at {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # One CPU for the client and the import probes it starts, so that the
    # reference readings describe the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import arrn

    if not Path(arrn.__file__).resolve().is_relative_to(src):
        return fail(f"arrn imported from {arrn.__file__}, not from {src}")
    import harness

    if args.trace:
        result = harness.measure_traced(args.workload, args.seed, args.seconds, ROOT)
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        result = harness.measure(args.workload, args.seed, args.seconds, ROOT)
        values = {k: v for k, (v, _) in result["metrics"].items()}
        wanted = spec["end_to_end"]

    for name, (value, unit) in result["report"].items():
        print(f"{args.workload}  {name} = {value} {unit}".rstrip())
    print("env " + json.dumps(result["env"], sort_keys=True))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    tally = result["tally"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
