"""Seconds-long self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload shape at toy size, untraced and traced, and asserts
that each run passes its output checks and reports every metric
BENCHMARK.json names (``run.py`` takes the names and units from there, so
a metric it does not compute fails the run) as a finite number.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import run
from workloads import WORKLOADS

TOY_SIZE = {"statute": 300, "family": 25}


def main() -> int:
    unknown = {w["name"] for w in run.SPEC["workloads"]} - set(WORKLOADS)
    assert not unknown, f"BENCHMARK.json names unknown workloads {sorted(unknown)}"
    for name, workload in WORKLOADS.items():
        toy = dataclasses.replace(
            workload, size=TOY_SIZE[workload.corpus], train_questions=50, epochs=1, quality=20
        )
        for trace in (False, True):
            _, result = run.run(toy, seed=7, seconds=0.5, trace=trace)
            metrics = result["metrics"]
            assert result["correct"] and result["failed"] == 0, result
            for metric, entry in metrics.items():
                assert math.isfinite(entry["value"]), (name, metric, entry)
            print(f"ok  {name:18s} trace={int(trace)}  {len(metrics)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
