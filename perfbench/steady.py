#!/usr/bin/env python3
"""Steadiness and comparison tool for the MOUSE stack benchmark.

Steadiness: run one workload N times, each with another seed, and print
per metric the median, the quartiles and the relative spread (quartile
distance over median) against the bound BENCHMARK.json fixes:

    python3 perfbench/steady.py --workload serve_mixed --runs 10

Comparison: alternate runs of a parent checkout and this one, the parent
first in even pairs and the change first in odd ones, and report per
metric each side's median and quartiles, the change's wins out of the
pairs, and whether a gain may be claimed (wins in at least nine tenths
of the pairs, and medians further apart than the parent's own quartile
distance) or a regression is beyond the metric's bound:

    python3 perfbench/steady.py --workload paper_sweep --runs 10 \
        --pair /path/to/parent-checkout

Both checkouts must hold identical perfbench/ files.  Seeds start at
--seed-base; the development seed is 1 and the held-out seed for claims
is 20261016 (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def tree_hash(root):
    h = hashlib.sha256()
    for p in sorted((root / "perfbench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in checkout @root; returns the result dict."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no output from {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if res.returncode != 0 or not result["correct"]:
        raise SystemExit(f"run failed (exit {res.returncode}): "
                         f"{' '.join(cmd)}\n{res.stdout[-2000:]}")
    return result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def steadiness(args, spec):
    per = {m["name"]: [] for m in metric_specs(spec, args.trace)}
    for i in range(args.runs):
        seed = args.seed_base + i
        result = run_once(ROOT, args.workload, seed, args.seconds,
                          args.trace)
        for name in per:
            per[name].append(result["metrics"][name]["value"])
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    ok = True
    for m in metric_specs(spec, args.trace):
        med, q1, q3, spread = summary(per[m["name"]])
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        print(f"{m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    return 0 if ok else 1


def compare(args, spec):
    parent = Path(args.pair).resolve()
    if tree_hash(parent) != tree_hash(ROOT):
        raise SystemExit("parent and change must run identical "
                         "perfbench/ files")
    metrics = metric_specs(spec, args.trace)
    sides = {"parent": {m["name"]: [] for m in metrics},
             "change": {m["name"]: [] for m in metrics}}
    for i in range(args.runs):
        seed = args.seed_base + i
        order = (("parent", parent), ("change", ROOT))
        if i % 2 == 1:
            order = order[::-1]
        for side, root in order:
            result = run_once(root, args.workload, seed, args.seconds,
                              args.trace)
            for name in sides[side]:
                sides[side][name].append(result["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)

    print(f"{args.workload}: {args.runs} pairs, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}")
    print(f"{'metric':28} {'parent med':>12} {'[q1, q3]':>25} "
          f"{'change med':>12} {'[q1, q3]':>25} {'wins':>6}  verdict")
    regressions = 0
    for m in metrics:
        p, c = sides["parent"][m["name"]], sides["change"][m["name"]]
        pm, pq1, pq3, _ = summary(p)
        cm, cq1, cq3, _ = summary(c)
        lower = m["better"] == "lower"
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        ties = sum(1 for a, b in zip(p, c) if a == b)
        better = cm < pm if lower else cm > pm
        if wins >= 0.9 * args.runs and better and abs(cm - pm) > pq3 - pq1:
            verdict = "gain"
        else:
            verdict = "no claim"
        bound = m.get("bound")
        if bound is not None:
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            if worse > bound:
                verdict += ", REGRESSION beyond bound"
                regressions += 1
        print(f"{m['name']:28} {pm:12.6g} [{pq1:11.5g}, {pq3:11.5g}] "
              f"{cm:12.6g} [{cq1:11.5g}, {cq3:11.5g}] "
              f"{wins:>3}/{args.runs - ties:<2}  {verdict}")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(
        description="Repeat benchmark runs and summarize their spread.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pair", metavar="PARENT_CHECKOUT",
                    help="alternate runs with this checkout")
    args = ap.parse_args()
    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    return compare(args, spec) if args.pair else steadiness(args, spec)


if __name__ == "__main__":
    sys.exit(main())
