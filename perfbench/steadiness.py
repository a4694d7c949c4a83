"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py --workload cli-cold --runs 10 --seed 1
    python3 perfbench/steadiness.py --workload cli-cold --runs 10 --seed 1 --vary-seed

By default the benchmark runs --runs times on one seed, then once on the
next seed.  With --vary-seed each run gets its own seed (seed, seed+1, ...),
which is how a change is compared with its parent.  Runs are sequential
child processes.  For each metric the report gives the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json.  The spread should stay below a
third of the bound; setup_s is reported but has no spread requirement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit("run with seed %d failed:\n%s" % (seed, done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("run with seed %d reported wrong answers:\n%s" % (seed, done.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seeds = [args.seed + i if args.vary_seed else args.seed for i in range(args.runs)]
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, seconds))
        print("seed %d: %s" % (seed, json.dumps(runs[-1])), flush=True)
    other = None if args.vary_seed else run_once(args.workload, args.seed + 1, seconds)

    report = {"workload": args.workload, "seeds": seeds, "runs": runs, "metrics": {}}
    print("%-14s %12s %12s %12s %8s %6s %s" % ("metric", "median", "q1", "q3", "spread",
                                                "bound", "" if other is None else "next seed"))
    for name, bound in bounds.items():
        stats = summarize([r[name] for r in runs])
        stats["bound"] = bound
        line = "%-14s %12.6g %12.6g %12.6g %8.4f %6.3f" % (
            name, stats["median"], stats["q1"], stats["q3"], stats["spread"], bound)
        if other is not None:
            stats["next_seed"] = other[name]
            line += "  %.6g (%+.1f%%)" % (other[name], 100 * (other[name] / stats["median"] - 1))
        if name != "setup_s" and stats["spread"] > bound / 3:
            line += "  spread above bound/3"
        report["metrics"][name] = stats
        print(line)
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / ("steadiness-%s-%s.json" % (args.workload, time.strftime("%Y%m%dT%H%M%S")))
    out.write_text(json.dumps(report, indent=1))
    print("wrote", out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
