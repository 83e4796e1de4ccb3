#!/usr/bin/env python3
"""graftmatch benchmark: build from source, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload skew --seed 1 --seconds 35 --trace 0

`--workload` is one of the workloads in BENCHMARK.json, or `all` to run
each of them in turn. With `--trace 0` the report holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of the traced
pass. Every metric is printed as `<workload>/<metric> = value unit`, and
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

The first run configures and builds the library and the benchmark into
`.bench_build/` (Release). Results, spans and the exact-counter records
of each run are written under `.bench_build/` as well.

Exit codes: 0 success; 1 a checked op failed, an exact counter changed
between two same-seed runs of the same build, or the benchmark binary
failed;
2 bad arguments or not run from a source checkout; 3 not a Release build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TREE = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_TREE, "perfbench")

# A run may take 180 s; the first one in a checkout also builds.
RUN_BUDGET_S = 175.0
BUILD_BUDGET_S = 840.0


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_source_tree():
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt", "src/graftmatch"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("no graftmatch source tree at %s (missing %s); run from "
                 "a checkout of the repository" % (ROOT, rel), 2)


def build():
    """Configure once, then build incrementally. Logs go to stderr."""
    started = time.monotonic()
    if not os.path.exists(os.path.join(BUILD_TREE, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_TREE,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, BUILD_BUDGET_S)
    remaining = BUILD_BUDGET_S - (time.monotonic() - started)
    run_logged(["cmake", "--build", BUILD_TREE, "--target", "perfbench",
                "-j", str(os.cpu_count() or 1)], remaining)
    return time.monotonic() - started


def run_logged(command, timeout):
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command), 1)
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(command)), 1)


def source_digest():
    """sha256 over the sources the build reads, to key exact records."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".cpp", ".hpp", ".h", ".txt"))]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_binary(workload, seed, seconds, trace, deadline):
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    spans = os.path.join(BUILD, "spans",
                         "%s-seed%d-trace%d.jsonl" % (workload, seed, trace))
    # Relative, so the socket path stays short in a deep checkout.
    socket = os.path.join(".bench_build", "serve-%d.sock" % os.getpid())
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--spans", spans, "--socket", socket]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left to run the %s workload" % workload, 1)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out on the %s workload" % workload, 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark binary failed on the %s workload (exit %d)"
             % (workload, done.returncode), 1)
    return json.loads(lines[-1])


def compare_exact(workload, seed, result, digest):
    """Compare exact counters with the last same-seed run of this build.

    Returns the names of the counters that differ."""
    directory = os.path.join(BUILD, "exact")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d.json" % (workload, seed))
    exact = result["exact"]
    previous = None
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
    if previous is not None and previous.get("source_digest") == digest:
        old = previous["exact"]
        return sorted(name for name in exact
                      if name in old and old[name] != exact[name])
    with open(path, "w") as f:
        json.dump({"source_digest": digest, "exact": exact}, f, indent=1)
    return []


def report(workload, seed, trace, spec, result, fingerprint, digest):
    """Print the human lines of one workload; return its metric values."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    if fingerprint["build_type"] != "Release" or not fingerprint["ndebug"]:
        fail("refusing to report from a %s build (NDEBUG %s)"
             % (fingerprint["build_type"], fingerprint["ndebug"]), 3)
    print("%s/fingerprint = %s" % (workload, json.dumps(fingerprint,
                                                        sort_keys=True)))
    values = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        note = ""
        if name in measured:
            got = measured[name]
            if got["unit"] != unit:
                fail("perfbench reports %s in %s, BENCHMARK.json says %s"
                     % (name, got["unit"], unit), 1)
            value = got["value"]
            if got["samples"]:
                note += " (n=%d)" % got["samples"]
        elif trace:
            value = 0.0  # this layer is not visible from outside on this workload
            note += " [not measured on this workload]"
        else:
            fail("perfbench did not report end-to-end metric " + name, 1)
        if name in result["exact"]:
            note += " [exact]"
        values[name] = value
        print("%s/%s = %.6g %s%s" % (workload, name, value, unit, note))
    attempted, failed = result["attempted"], result["failed"]
    print("%s/failed_frac = %.6g 1 (%d of %d ops)"
          % (workload, failed / max(1, attempted), failed, attempted))
    for reason, count in sorted(result["failures"].items()):
        print("%s/failure: %s x%d" % (workload, reason, count))
    for host in ("host.chase_ns", "host.chase_ns.after"):
        print("%s/%s = %.6g ns (host probe, not a metric of the program)"
              % (workload, host, measured[host]["value"]))
    changed = compare_exact(workload, seed, result, digest)
    for name in changed:
        print("%s/exact counter %s differs from the last same-seed run"
              % (workload, name))
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    path = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result,
                   "reported": values, "exact_changed": changed}, f,
                  indent=1, sort_keys=True)
    ok = failed == 0 and not changed
    return values, ok, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    check_source_tree()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r; choose from %s or all"
             % (args.workload, ", ".join(names)), 2)
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]", 2)

    build_s = build()
    workloads = names if args.workload == "all" else [args.workload]
    deadline = started + build_s + RUN_BUDGET_S * len(workloads)
    digest = source_digest()
    fingerprint_extra = {"git_sha": git_sha(), "source_digest": digest,
                         "seed": args.seed, "seconds": args.seconds,
                         "trace": args.trace}

    metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads:
        result = run_binary(workload, args.seed, args.seconds, args.trace,
                            deadline)
        fingerprint = dict(result["fingerprint"], **fingerprint_extra)
        values, ok, n, f = report(workload, args.seed, args.trace, spec,
                                  result, fingerprint, digest)
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        prefix = "" if len(workloads) == 1 else workload + "/"
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        correct = correct and ok
        attempted += n
        failed += f

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
