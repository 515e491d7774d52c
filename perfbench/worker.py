"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

`ghkit` must be importable (run.py puts the checkout's `src` on PYTHONPATH).
Prints one JSON object as its last line.  With `--trace 0` it sweeps the
workload's passes in a closed loop, one item at a time (see `timed_run`).
With `--trace 1` it sweeps them once untraced and once traced, and reports
per-layer figures from the traced sweep.  Each run also writes a
record with its environment and per-instance figures under
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported after set-up, which it is not part of
    from calibrate import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_KERNEL_RUNS = 5  # reference kernel runs that rescale one set-up time


class Outcomes:
    """Items attempted, left undecided by a time limit, and failed, and the
    start and end of every run of every item."""

    def __init__(self) -> None:
        self.attempted = 0
        self.undecided = 0
        self.failures: list[str] = []
        self.item_runs: dict[str, list[tuple[float, float]]] = {}
        self.passes = 0

    def item_seconds(self, seconds) -> dict[str, list[float]]:
        """Every run's `seconds(start, end)`, by item."""
        return {i: [seconds(*run) for run in r] for i, r in self.item_runs.items()}


def run_pass(items, lib, tally, outcomes: Outcomes, tracer=None) -> None:
    """Run every item once."""
    from workloads import TimeLimit

    # Free the last pass's garbage first, outside the timings: thread_limit
    # leaves a reference cycle that keeps its thread list alive until a full
    # collection, and left alone those lists pile up into peak_rss_mb.
    gc.collect()
    for item in items:
        run = item.run
        if tracer is not None:
            tracer.item = item.id
            run = tracer.wrap("item", run)
        began = perf_counter()
        try:
            run(lib, tally)
        except TimeLimit:
            outcomes.undecided += 1
        except Exception as exc:  # a crash or a wrong exact output: the item failed
            outcomes.failures.append(f"{item.id}: {type(exc).__name__}: {exc}"[:300])
        outcomes.item_runs.setdefault(item.id, []).append((began, perf_counter()))
        outcomes.attempted += 1
    outcomes.passes += 1


def pass_times(passes, item_seconds: dict[str, list[float]]) -> list[float]:
    """Each pass's time with every item at the median of its runs."""
    typical = {i: statistics.median(t) for i, t in item_seconds.items()}
    return [sum(typical[item.id] for item in items) for items in passes]


def timed_run(passes, seconds: float, speed: Speed, min_sweeps: int):
    """Sweep the workload at least `min_sweeps` times and until the next sweep
    would end past `seconds`, then time every item by the median of its runs,
    in reference seconds, with the kernel ticking throughout (calibrate.py).

    Sweeps of about a third of the run space an item's runs a sweep apart,
    so a slow stretch of a shared machine that the kernel misses rarely
    holds most of them.
    """
    from tracing import no_trace
    from workloads import Tally, bind

    lib, tally, outcomes = bind(no_trace, speed.scale), Tally(), Outcomes()
    start = perf_counter()
    sweeps = 0
    with speed.ticking():
        while True:
            began = perf_counter()
            for items in passes:
                run_pass(items, lib, tally, outcomes)
            sweeps += 1
            now = perf_counter()
            if sweeps >= min_sweeps and now - start + (now - began) > seconds:
                break
    reference = outcomes.item_seconds(speed.reference_seconds)
    times = [statistics.median(t) for t in reference.values()]
    metrics = {
        "wall_ref_s": statistics.fmean(pass_times(passes, reference)),
        "item_ref_ms.p90": 1000
        * statistics.quantiles(times, n=10, method="inclusive")[8],
        "decided_ratio": (outcomes.attempted - outcomes.undecided) / outcomes.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Printed and recorded, but not gated; the docstring of run.py says why.
    work = outcomes.item_seconds(speed.work_seconds)
    latency = {
        "wall_s": statistics.fmean(pass_times(passes, work)),
        "item_ref_ms.p50": 1000 * statistics.median(times),
        "machine_scale": speed.scale(start, perf_counter()),
    }
    return metrics, latency, tally, outcomes


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def traced_run(passes, speed: Speed):
    from ghkit.verification import suite_names
    from tracing import Tracer, no_trace
    from workloads import FAMILIES, Tally, bind

    lib, plain = bind(no_trace, speed.scale), Outcomes()
    tracer, tally, outcomes = Tracer(), Tally(), Outcomes()
    with speed.ticking():
        for items in passes:
            run_pass(items, lib, Tally(), plain)
        lib = bind(tracer.wrap, speed.scale)
        for items in passes:
            run_pass(items, lib, tally, outcomes, tracer)
    traced = pass_times(passes, outcomes.item_seconds(speed.reference_seconds))
    untraced = pass_times(passes, plain.item_seconds(speed.reference_seconds))
    overhead = statistics.fmean(traced) - statistics.fmean(untraced)
    outcomes.attempted += plain.attempted
    outcomes.undecided += plain.undecided
    outcomes.failures += plain.failures
    outcomes.passes += plain.passes

    family = {item.id: item.family for items in passes for item in items}
    seconds, calls = tracer.self_times(
        lambda item_id: family[item_id], speed.reference_seconds
    )

    def s(name: str) -> float:
        return seconds.get(name, 0.0)

    decided = tally.get("solver.decided")
    metrics = {
        "io.parse_space_s": s("io.parse_space"),
        "io.parse_space_calls": calls.get("io.parse_space", 0),
        "solver.gh_exact_s": s("solver.gh_exact"),
        "solver.gh_exact_calls": calls.get("solver.gh_exact", 0),
        **{f"solver.gh_exact_s.{f}": s(f"solver.gh_exact.{f}") for f in FAMILIES},
        "solver.nodes": tally.get("solver.nodes"),
        "solver.nodes.max": tally.get("solver.nodes.max"),
        **{f"solver.nodes.{f}": tally.get(f"solver.nodes.{f}") for f in FAMILIES},
        "solver.lb_tight_ratio": tally.get("solver.lb_tight") / max(decided, 1),
        "solver.timeouts": tally.get("solver.timeouts"),
        "correspondences.distortion_s": s("correspondences.distortion"),
        "correspondences.distortion_calls": calls.get("correspondences.distortion", 0),
        "spaces.validate_s": s("spaces.validate"),
        "spaces.hausdorff_s": s("spaces.hausdorff"),
        "spaces.hausdorff_calls": calls.get("spaces.hausdorff", 0),
        "gluing.glue_tree_s": s("gluing.glue_tree"),
        "gluing.glue_tree_calls": calls.get("gluing.glue_tree", 0),
        "gluing.carrier_points": tally.get("gluing.carrier_points"),
        "gluing.part_s": s("gluing.part"),
        "hedgehogs.compile_s": s("hedgehogs.compile"),
        "hedgehogs.center_location_s": s("hedgehogs.center_location"),
        "tuzhilin.isometry_s": s("tuzhilin.isometry"),
        "tuzhilin.ambient_points": tally.get("tuzhilin.ambient_points"),
        "dynamics.thread_limit_s": s("dynamics.thread_limit"),
        "dynamics.threads": tally.get("dynamics.threads"),
        **{
            f"verification.{name}_s": s(f"verification.{name}")
            for name in suite_names("all")
        },
        "verification.failed_checks": tally.get("verification.failed_checks"),
        "repo.src_lines": src_lines(),
        "trace.overhead_s": overhead,
    }
    return metrics, tally, outcomes, tracer


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    began = perf_counter()
    from workloads import MIN_SWEEPS, SOLVE_LIMIT_S, WORKLOADS, install_time_limit

    passes = WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - began
    from calibrate import Speed

    speed = Speed()
    speed.sample(SETUP_KERNEL_RUNS)
    setup_ref_s = setup_s / speed.scale()
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref_s, "setup_s": setup_s}))
        return 0

    install_time_limit()
    tracer, latency = None, {}
    if args.trace:
        metrics, tally, outcomes, tracer = traced_run(passes, speed)
    else:
        metrics, latency, tally, outcomes = timed_run(
            passes, args.seconds, speed, MIN_SWEEPS[args.workload]
        )

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "solve_limit_s": SOLVE_LIMIT_S,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "kernel_runs": list(zip(speed.starts, speed.took)),
        "metrics": metrics,
        "latency": latency,
        "attempted": outcomes.attempted,
        "undecided": outcomes.undecided,
        "failures": outcomes.failures,
        "passes": outcomes.passes,
        "item_seconds": outcomes.item_seconds(speed.work_seconds),
        "item_reference_seconds": outcomes.item_seconds(speed.reference_seconds),
        "counts": tally.counts,
        "instances": tally.instances,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(RESULTS / f"spans-{stem}.jsonl")

    print(
        json.dumps(
            {
                "correct": not outcomes.failures,
                "attempted": outcomes.attempted,
                "failed": len(outcomes.failures),
                "metrics": metrics,
                "latency": latency,
                "setup_ref_s": setup_ref_s,
                "setup_s": setup_s,
                "passes": outcomes.passes,
                "failures": outcomes.failures[:5],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
