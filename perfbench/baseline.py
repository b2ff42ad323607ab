"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root:

    python3 perfbench/baseline.py --workloads certify search --seeds 1-10 \
        --seconds 10 --trace 0 --out perfbench/baseline/seed-commit.json

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs are sequential, one process at
a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,2,5")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the summary to this JSON file")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs, env = [], None
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[0])["env"]
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        names = runs[0]["metrics"]
        metrics = {}
        for name in names:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
            bound = f"{stats['bound']:.2f}" if stats["bound"] is not None else "-"
            print(f"{workload:10s} {name:48s} median {stats['median']:12.4f} {stats['unit']:6s} "
                  f"spread {stats['spread']:.3f} bound {bound}")
        summary["workloads"][workload] = {
            "env": env,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
