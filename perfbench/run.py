"""ghkit benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload solve-corpus --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30

Run from anywhere inside a checkout: the library is imported from the
checkout's `src/`, and metric names and units come from `BENCHMARK.json` at
its root.  Every workload runs in a fresh worker process (perfbench/worker.py)
with one caller.  Times are in reference seconds: measured seconds rescaled
by a fixed reference kernel run all through the measurement
(perfbench/calibrate.py), because on a shared host the same code runs up to
1.9 times slower for seconds to minutes at a time.  With `--trace 0` the
result holds the end-to-end metrics; `setup_s` is the median of
SETUP_SAMPLES set-ups, each in its own process.  With `--trace 1` it holds
the per-layer metrics of a traced run.  `item_ref_ms.p90` is over the items,
each at the median of its runs.  The plain `wall_s`, `item_ref_ms.p50` and
the machine's slowdown while measuring are printed with the end-to-end
metrics but left out of the result and of BENCHMARK.json: `wall_s` follows
the host's speed (its ten-seed spreads reached 0.48), and `item_ref_ms.p50`
mostly the seed (0.17 on solve-corpus, 0.10 on verify-suite), where a gated
metric should spread less than a third of its bound, at most 0.25.  Lines
before the last are for people; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  `--workload all` runs every
workload in turn and ends with one JSON object keyed by workload.

Exit codes: 0 when a result was printed (even one with correct=false),
1 when a worker failed, 2 when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # one workload, set-up probes included


class WorkerFailed(RuntimeError):
    pass


def worker(argv: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process and return its last output line."""
    env = dict(os.environ, GHKIT_WORKERS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        command = " ".join(argv)
        raise WorkerFailed(f"worker {command} ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    started = perf_counter()
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            remaining = DEADLINE_S - (perf_counter() - started)
            setups.append(worker([*common, "--setup-only"], remaining)["setup_ref_s"])
    remaining = DEADLINE_S - (perf_counter() - started)
    result = worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace)], remaining
    )
    metrics = result["metrics"]
    if not trace:
        setups.append(result["setup_ref_s"])
        metrics["setup_s"] = statistics.median(setups)

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise WorkerFailed(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {name} seed={seed} seconds={seconds} trace={trace}")
    print(f"  passes={result['passes']} items={attempted} setup_samples={len(setups)}")
    for metric in declared:
        value = metrics[metric["name"]]
        print(f"  {metric['name']:<45} {value:>14.6g} {metric['unit']}")
    for name, value in result["latency"].items():
        unit = "s" if name == "wall_s" else "x" if name == "machine_scale" else "ms"
        print(f"  {name:<45} {value:>14.6g} {unit} (not gated)")
    ratio = failed / attempted
    print(f"  {'fail_ratio':<45} {ratio:>14.6g} ratio ({failed}/{attempted})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ghkit" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no ghkit checkout at {ROOT} (need src/ghkit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    try:
        results = {
            w: run_workload(w, args.seed, seconds, args.trace, spec) for w in chosen
        }
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
