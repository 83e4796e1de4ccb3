#!/usr/bin/env python3
"""Repeated-run steadiness check for the graftmatch benchmark.

Runs `perfbench/run.py --trace 0` once per seed on every workload,
alternating the workload order between rounds, and tabulates each
end-to-end metric: median, quartiles (statistics.quantiles, n=4), min,
max, and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json. It runs the whole series twice and also reports how far
the second set's median moved from the first's.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 --first-seed 1 \
        --out perfbench/STEADINESS.md
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("run failed: " + " ".join(command))
    result = json.loads(lines[-1])
    chase = [line for line in lines if "/host.chase_ns =" in line]
    return result, chase[0].split("=")[1].split()[0] if chase else "?", wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if better == "lower":
        return second / first - 1.0
    return first / second - 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="markdown report path")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sets = 2

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(sets)]
    log = []
    walls = {w: [] for w in workloads}
    started = time.time()
    for s in range(sets):
        for i in range(args.runs):
            seed = args.first_seed + i
            order = workloads if (s * args.runs + i) % 2 == 0 else \
                workloads[::-1]
            for workload in order:
                result, chase, wall = run_once(workload, seed, seconds)
                walls[workload].append(wall)
                if not result["correct"] or result["failed"]:
                    raise SystemExit("%s seed %d failed checks"
                                     % (workload, seed))
                for m in metrics:
                    values[s][workload][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                line = "set %d seed %d %s wall %.1f s chase %s ns: %s" % (
                    s + 1, seed, workload, wall, chase,
                    " ".join("%s=%.4g" % (m["name"],
                                           result["metrics"][m["name"]]
                                           ["value"]) for m in metrics))
                log.append(line)
                print(line, flush=True)

    rows = []
    worst = 0.0
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = summarize(values[0][workload][name])
            second = summarize(values[1][workload][name])
            row = {"workload": workload, "metric": name, "unit": m["unit"],
                   "bound": bound, **first, "spread2": second["spread"],
                   "drift": worse_by(first["median"], second["median"],
                                     m["better"])}
            row["ratio"] = max(first["spread"], second["spread"]) / bound
            if name != "setup_s":
                worst = max(worst, row["ratio"])
            rows.append(row)

    command = ("python3 perfbench/steady.py --runs %d --first-seed %d "
               "--seconds %g" % (args.runs, args.first_seed, seconds))
    if args.out:
        command += " --out " + args.out
    out = ["# Steadiness record", "",
           "`%s`: seeds %d..%d in each of %d sets, workload order "
           "alternating between rounds, %.0f min in all." % (
               command, args.first_seed, args.first_seed + args.runs - 1,
               sets, (time.time() - started) / 60), "",
           "Median, quartiles, min and max are over the runs of set 1. "
           "spread = (q3 - q1) / median, per set. spread/bound takes the "
           "larger set's spread; the acceptance rule needs it below 1 "
           "(setup_s exempt), and this record aims below 1/3. drift = how "
           "much worse set 2's median is than set 1's.", "",
           "| workload | metric | unit | median | q1 | q3 | min | max | "
           "spread 1 | spread 2 | bound | spread/bound | drift |",
           "|---|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        out.append("| %s | %s | %s | %.5g | %.5g | %.5g | %.5g | %.5g | "
                   "%.4f | %.4f | %.2f | %.3f | %+.3f |" % (
                       r["workload"], r["metric"], r["unit"], r["median"],
                       r["q1"], r["q3"], r["min"], r["max"], r["spread"],
                       r["spread2"], r["bound"], r["ratio"], r["drift"]))
    # A full check makes 4 + 22 x (workloads) runs; assume the 4 extra
    # runs cost as much as the slowest workload's mean.
    mean_wall = {w: statistics.mean(v) for w, v in walls.items()}
    budget = 22 * sum(mean_wall.values()) + 4 * max(mean_wall.values())
    out += ["", "Largest spread/bound, setup_s excluded: %.3f" % worst, "",
            "Mean wall time per run: %s. A full check of 4 + 22 x %d "
            "runs at these times takes %.0f s plus two builds (limit "
            "3420 s)." % (", ".join("%s %.1f s" % (w, t)
                                    for w, t in mean_wall.items()),
                          len(workloads), budget), "",
            "## Runs", "", "```"] + log + ["```", ""]
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
