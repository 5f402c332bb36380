"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 benchmarks/spread.py --workload verify-2d --seeds 0-9 [--json out.json]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
every end-to-end metric of BENCHMARK.json its median over the runs and its
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. The
spread of a metric should stay below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json", type=Path, help="also write the runs here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "spread": spread, "bound": metric["bound"]}
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{name:20s} median {median:12.4f} {metric['unit']:5s} spread "
              f"{spread:.4f}  bound {metric['bound']}  {flag}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
