#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a fresh google-benchmark JSON report against the committed
baseline and fails (exit 1) when a watched benchmark's items/sec
regresses more than the allowed fraction.  Because CI machines differ
from the machine the baseline was recorded on, the gate also supports
a machine-independent check: the ratio between two benchmarks from
the *same* run (e.g. word-parallel vs scalar-oracle gate execution),
which cancels the host speed out.

A third, fully machine-independent check is the absolute floor: a
benchmark whose items/sec must clear a fixed acceptance threshold
(e.g. the serving bench's 1e5 classifications/sec target), checked
against the fresh run only.

The BASELINE argument names the undated committed baseline
(e.g. bench/baselines/BENCH_sim_throughput.json).  Each merge also
appends a dated sibling (BENCH_sim_throughput_YYYY-MM-DD.json); when
any exist, the lexicographically-latest dated file is compared
instead (ISO dates sort correctly), so the gate always tracks the
most recent merge without rewriting CI invocations.

Usage:
  check_bench_regression.py NEW.json BASELINE.json \
      --bench BM_TileGateExecution/1024 --max-regress 0.20 \
      --ratio BM_TileGateExecution/1024:BM_TileGateExecutionScalar/1024 \
      --min-ratio 10 \
      --min-items 'BM_ServeSaturation/bnn/16384:1e5'

  check_bench_regression.py --list-baselines bench/baselines

--bench is the only gate that depends on the host, so it refuses a
baseline whose context lacks num_cpus or mouse_build_type, or whose
mouse_build_type is Debug; a debug libbenchmark only warns.

Exit codes: 0 all gates pass, 1 a gate failed, 2 a report file is
missing or malformed, or a --bench baseline lacks its build context
(the error names the directory searched, and --list-baselines shows
what is actually committed there).
"""

import argparse
import json
import os
import re
import sys


def fail_usage(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def resolve_baseline(path):
    """Pick the latest dated sibling of the undated baseline PATH.

    BENCH_foo.json resolves to the greatest BENCH_foo_YYYY-MM-DD.json
    in the same directory when any exist (ISO dates compare correctly
    as strings), else to PATH itself.
    """
    directory = os.path.dirname(path) or "."
    stem = os.path.basename(path)
    if not stem.endswith(".json"):
        return path
    pattern = re.compile(
        re.escape(stem[: -len(".json")]) + r"_\d{4}-\d{2}-\d{2}\.json")
    try:
        dated = sorted(
            f for f in os.listdir(directory) if pattern.fullmatch(f))
    except OSError:
        return path  # load_report reports the clear error
    return os.path.join(directory, dated[-1]) if dated else path


def list_baselines(path):
    """Print every BENCH_*.json under PATH (a baseline directory, or
    any file inside one), marking the entry resolve_baseline() would
    pick for each undated stem."""
    directory = path if os.path.isdir(path) else \
        (os.path.dirname(path) or ".")
    try:
        names = sorted(f for f in os.listdir(directory)
                       if f.endswith(".json"))
    except OSError as e:
        fail_usage(f"cannot list baseline directory '{directory}':"
                   f" {e.strerror or e}")
    if not names:
        print(f"no baselines in {directory}")
        return
    undated = [n for n in names
               if not re.search(r"_\d{4}-\d{2}-\d{2}\.json$", n)]
    print(f"baselines in {directory}:")
    for stem in undated:
        selected = os.path.basename(
            resolve_baseline(os.path.join(directory, stem)))
        for name in names:
            if name == stem or name.startswith(
                    stem[: -len(".json")] + "_"):
                mark = "  <- selected" if name == selected else ""
                print(f"  {name}{mark}")
    strays = [n for n in names
              if not any(n == s or
                         n.startswith(s[: -len(".json")] + "_")
                         for s in undated)]
    for name in strays:
        print(f"  {name}  (no undated stem; never selected)")


def load_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        directory = os.path.dirname(path) or "."
        fail_usage(f"cannot read benchmark report '{path}':"
                   f" {e.strerror or e} (searched {directory};"
                   " run with --list-baselines to see what is"
                   " committed there)")
    except json.JSONDecodeError as e:
        fail_usage(f"'{path}' is not valid JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(
            doc.get("benchmarks"), list):
        fail_usage(f"'{path}' has no 'benchmarks' array (not a"
                   " google-benchmark JSON report)")
    return doc


def check_baseline_context(path, doc):
    """Refuse a baseline for the host-dependent --bench gate unless it
    says what it was measured on: the CPU count and the build type of
    the code under test, which must not be Debug.

    A debug libbenchmark only warns: the timings come from the code
    under test, and the image ships no other libbenchmark.
    """
    ctx = doc.get("context")
    ctx = ctx if isinstance(ctx, dict) else {}
    missing = [k for k in ("num_cpus", "mouse_build_type")
               if ctx.get(k) in (None, "")]
    if missing:
        fail_usage(f"baseline '{path}' lacks context"
                   f" {', '.join(missing)}; re-record it with"
                   " bench_sim_throughput --benchmark_repetitions=5"
                   " on an optimised build")
    if str(ctx["mouse_build_type"]).lower() == "debug":
        fail_usage(f"baseline '{path}' was recorded from a Debug build"
                   " (mouse_build_type); re-record it on an optimised"
                   " build")
    if str(ctx.get("library_build_type", "")).lower() == "debug":
        print(f"warning: baseline '{path}' was recorded with a debug"
              " libbenchmark (library_build_type: debug)",
              file=sys.stderr)


def items_per_second(doc):
    out = {}
    for bench in doc["benchmarks"]:
        if "items_per_second" in bench:
            out[bench["name"]] = bench["items_per_second"]
    # A --benchmark_repetitions report holds one row per repetition
    # under the same name; its median aggregate stands for the name.
    for bench in doc["benchmarks"]:
        if bench.get("aggregate_name") == "median" and \
                "items_per_second" in bench:
            out[bench["run_name"]] = bench["items_per_second"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("new", nargs="?",
                    help="fresh benchmark JSON report")
    ap.add_argument("baseline", nargs="?",
                    help="committed baseline JSON")
    ap.add_argument("--list-baselines", metavar="DIR",
                    help="list the BENCH_*.json baselines in DIR (a"
                         " directory, or any baseline path inside"
                         " one), mark which dated entry each undated"
                         " stem resolves to, and exit")
    ap.add_argument("--bench", action="append", default=[],
                    help="benchmark name to gate against the baseline"
                         " (repeatable)")
    ap.add_argument("--max-regress", type=float, default=0.20,
                    help="allowed fractional items/sec regression"
                         " versus the baseline (default 0.20)")
    ap.add_argument("--ratio", action="append", default=[],
                    help="FAST:SLOW benchmark pair from the new run"
                         " whose items/sec ratio must stay large"
                         " (machine-independent; repeatable)")
    ap.add_argument("--min-ratio", type=float, default=10.0,
                    help="minimum FAST/SLOW ratio (default 10)")
    ap.add_argument("--min-items", action="append", default=[],
                    help="NAME:FLOOR absolute items/sec floor the"
                         " fresh run must clear (machine-independent"
                         " acceptance gate; repeatable)")
    args = ap.parse_args()

    if args.list_baselines:
        list_baselines(args.list_baselines)
        return 0
    if not args.new or not args.baseline:
        fail_usage("NEW.json and BASELINE.json are required unless"
                   " --list-baselines is given")

    baseline = resolve_baseline(args.baseline)
    if baseline != args.baseline:
        print(f"baseline: {baseline} (latest dated entry for"
              f" {args.baseline})")
    new = items_per_second(load_report(args.new))
    base_doc = load_report(baseline)
    if args.bench:
        check_baseline_context(baseline, base_doc)
    base = items_per_second(base_doc)
    failed = False

    for name in args.bench:
        if name not in new:
            print(f"FAIL: {name} missing from {args.new}")
            failed = True
            continue
        if name not in base:
            print(f"FAIL: {name} missing from baseline"
                  f" {baseline}")
            failed = True
            continue
        floor = base[name] * (1.0 - args.max_regress)
        verdict = "ok" if new[name] >= floor else "FAIL"
        print(f"{verdict}: {name} {new[name]:.3e} items/s"
              f" (baseline {base[name]:.3e},"
              f" floor {floor:.3e})")
        failed |= new[name] < floor

    for pair in args.ratio:
        fast_name, slow_name = pair.split(":", 1)
        if fast_name not in new or slow_name not in new:
            print(f"FAIL: ratio pair {pair} missing from {args.new}")
            failed = True
            continue
        ratio = new[fast_name] / new[slow_name]
        verdict = "ok" if ratio >= args.min_ratio else "FAIL"
        print(f"{verdict}: {fast_name} / {slow_name} ="
              f" {ratio:.1f}x (min {args.min_ratio:g}x)")
        failed |= ratio < args.min_ratio

    for spec in args.min_items:
        name, floor_text = spec.rsplit(":", 1)
        floor = float(floor_text)
        if name not in new:
            print(f"FAIL: {name} missing from {args.new}")
            failed = True
            continue
        verdict = "ok" if new[name] >= floor else "FAIL"
        print(f"{verdict}: {name} {new[name]:.3e} items/s"
              f" (absolute floor {floor:.3e})")
        failed |= new[name] < floor

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
