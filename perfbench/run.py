#!/usr/bin/env python3
"""Run one workload of the MOUSE stack benchmark.

    python3 perfbench/run.py --workload paper_sweep|harvest_matrix|serve_mixed
                             [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (and with it the simulator sources under src/) into
.bench_build/perfbench of the checkout, then runs mouse_perfbench.  The
program's report is passed through; the last line is one JSON object
with the keys correct, attempted, failed and metrics.

BENCHMARK.json is the one list of metrics: this script reports the ones
it names for the run's mode (end-to-end with --trace 0, per-layer with
--trace 1), in its order and units.  A missing end-to-end metric, one
that is not positive or finite, a unit that differs, or a metric the
file does not name fails the run; a per-layer metric of a layer the
workload never enters reads 0.

Set-up time is measured in fresh processes, from the moment this script
spawns the program to the program's first timed operation: a few extra
set-up-only runs plus the measuring run give the samples, and setup_s is
their median.

Exits 0 when every output check passed, 1 otherwise (including when the
build fails, in which case no result is printed), 2 on a usage error.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "mouse_perfbench"
WORKLOADS = ("paper_sweep", "harvest_matrix", "serve_mixed")
# Set-up-only processes run besides the measuring one.
EXTRA_SETUP_SAMPLES = 14
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build mouse_perfbench; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        # Concurrent runs in one checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "mouse_perfbench", "-j", jobs])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            try:
                res = subprocess.run(
                    cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True,
                    timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return False
            if res.returncode != 0:
                sys.stderr.write(res.stdout[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return BINARY.is_file()


def commit():
    """The checkout's git commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def launch(args, deadline):
    """Run the benchmark binary, stamping its spawn time; returns
    (exit code, stdout lines)."""
    cmd = [str(BINARY)] + args
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None, []
    return res.returncode, res.stdout.splitlines()


def conform(measured, specs, trace):
    """The metrics @specs (BENCHMARK.json entries) name, in their order,
    taken from @measured; returns (metrics, failed checks)."""
    measured = dict(measured)
    metrics, problems = {}, []
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = measured.pop(name, None)
        if got is None:
            if trace:
                # A layer this workload never enters did no work.
                print(f"  {name:26} {0:16} {unit:8} layer not exercised")
                metrics[name] = {"value": 0.0, "unit": unit}
            else:
                problems.append(f"missing metric {name}")
            continue
        value = got["value"]
        if got["unit"] != unit:
            problems.append(f"{name} is in {got['unit']}, "
                            f"BENCHMARK.json says {unit}")
        if value is None or not math.isfinite(value):
            problems.append(f"non-finite metric {name}")
            value = 0.0
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric is not positive: {name}")
        metrics[name] = {"value": value, "unit": unit}
    problems += [f"metric {name} is not in BENCHMARK.json"
                 for name in measured]
    return metrics, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if not build():
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if args.trace == 0:
        for _ in range(EXTRA_SETUP_SAMPLES):
            code, lines = launch(base + ["--setup-only"], deadline)
            if code != 0 or not lines or not lines[-1].startswith("SETUP "):
                log("set-up-only run failed")
                return 1
            setup.append(float(lines[-1].split()[1]))

    run_args = base + ["--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--commit", commit()]
    if args.trace == 1:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        run_args += ["--trace-out",
                     str(traces / f"{args.workload}-{args.seed}.json")]
    code, lines = launch(run_args, deadline)
    if code is None or not lines:
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        for line in lines:
            print(line)
        log("the benchmark printed no result")
        return 1
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    if args.trace == 0 and "setup_s" in measured:
        setup.append(measured["setup_s"]["value"])
        measured["setup_s"]["value"] = statistics.median(setup)
        print(f"setup_s: median of {len(setup)} fresh processes, "
              f"samples {[round(s, 6) for s in setup]}")
    result["metrics"], problems = conform(
        measured, spec["per_layer" if args.trace else "end_to_end"],
        args.trace)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result["correct"] = bool(result.get("correct")) and not problems
    print(json.dumps(result, separators=(",", ":")))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
