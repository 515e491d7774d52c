"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workload all --seeds 1-10 [--trace 1] [--out F]

For every workload and metric it prints the median, the quartiles and the
spread (interquartile range over median) of the runs, one run per seed,
and with --out writes the runs and the summary as JSON.  Use it to compare
two commits with the same seeds and settings, and to check that the
spreads stay within the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    workloads = [w["name"] for w in SPEC["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"python": platform.python_version(), "trace": args.trace, "workloads": {}}
    for workload in chosen:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        names = runs[0]["metrics"]
        stats = {n: summary([r["metrics"][n] for r in runs]) for n in names}
        report["workloads"][workload] = {"runs": runs, "summary": stats}
        for name, s in stats.items():
            bound = f" bound={bounds[name]}" if name in bounds else ""
            print(f"  {name:<42} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
