"""Steadiness mode: repeat runs and report each metric's spread.

    python3 perfbench/steady.py --workload answer-lex-10k --seeds 1-10 \
        [--seconds 10] [--trace 0] [--save summary.json] [--against old.json]

Runs ``run.py`` once per seed, each in a fresh process, and prints per
metric the median, quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median next to the bound BENCHMARK.json fixes.
A spread under a third of its bound is "steady". With ``--against``, each
median is also compared with an earlier summary: a shift in the worse
direction larger than the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNGATED = ("answer_p95_ms", "wall_answer_cpu_ms",
           "wall_answer_p50_ms", "wall_answer_p95_ms", "wall_answers_per_s", "wall_setup_s",
           "kernel_median_ms")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        print(f"  seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    return {"details": json.loads(lines[-2])["details"], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat benchmark runs, report spread")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the summary JSON here")
    parser.add_argument("--against", type=Path, help="earlier summary to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    seeds = parse_seeds(args.seeds)

    summary = {}
    rank = {"steady": 0, "ok": 1, "wide": 2, "regressed": 3}
    worst = "steady"
    for workload in args.workload:
        runs = [r for seed in seeds if (r := run_once(workload, seed, seconds, args.trace))]
        if len(runs) < 2:
            print(f"{workload}: fewer than two successful runs", file=sys.stderr)
            return 1
        digests = sorted({r["details"].get("answer_digest") for r in runs})
        for r in runs:  # ungated figures from the details, reported alongside
            for key in UNGATED:
                if key in r["details"]:
                    r["result"]["metrics"][f"details.{key}"] = {"value": r["details"][key]}
        metrics = runs[0]["result"]["metrics"]
        summary[workload] = {"runs": len(runs), "failed_runs": len(seeds) - len(runs),
                             "digests": digests, "metrics": {}}
        print(f"\n{workload}: {len(runs)}/{len(seeds)} runs, {len(digests)} answer digests")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, entry in metrics.items():
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            summary[workload]["metrics"][name] = stats
            line = (f"  {name:28s} {stats['median']:12.5g} {stats['q1']:12.5g} "
                    f"{stats['q3']:12.5g} {stats['spread']:8.4f}")
            bound = bounds.get(name)
            if bound:
                verdict = ("steady" if stats["spread"] < bound["bound"] / 3
                           else "ok" if stats["spread"] <= bound["bound"] else "WIDE")
                line += f" {bound['bound']:6.2f} {entry['unit']} {verdict}"
                before = earlier.get(workload, {}).get("metrics", {}).get(name)
                if before:
                    shift = (stats["median"] - before["median"]) / before["median"]
                    worse = shift if bound["better"] == "lower" else -shift
                    line += f"  shift {shift:+.4f}" + (" REGRESSED" if worse > bound["bound"] else "")
                    if worse > bound["bound"]:
                        worst = "regressed"
                worst = max(worst, verdict.lower(), key=rank.get)
            print(line)
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1))
    print(json.dumps({"verdict": worst}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
