#!/usr/bin/env python3
"""End-to-end wall time to regenerate every paper artifact.

Runs, one after another, every bench binary that regenerates a paper
table or figure, an ablation, or the scenario and baseline matrices,
and prints each one's wall seconds and their total.  That total is
the end-to-end number every host-speed claim reports beside its
per-layer baseline (ROADMAP.md, aim 1).

The binaries are the add_mouse_bench() targets of bench/CMakeLists.txt
minus the host-throughput suites (HOST_SPEED_BENCHES), which measure
the simulator rather than regenerate an artifact.  Each runs with its
default arguments and its output discarded.

Usage:
  time_paper_artifacts.py [--build-dir build]

Exit codes: 0 every binary ran and exited 0, 1 one failed, 2 a binary
is missing (build the tree first).
"""

import argparse
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Google-benchmark suites (or reports shaped like one): they time the
# host, so they are gated separately and take no part in the total.
HOST_SPEED_BENCHES = ("bench_sim_throughput", "bench_serve_saturation")


def artifact_benches():
    """add_mouse_bench() targets, in CMakeLists order, minus
    HOST_SPEED_BENCHES."""
    text = (ROOT / "bench" / "CMakeLists.txt").read_text()
    names = re.findall(r"^add_mouse_bench\((\w+)", text, re.MULTILINE)
    return [n for n in names if n not in HOST_SPEED_BENCHES]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=str(ROOT / "build"),
                    help="CMake build tree (default: build/ of the"
                         " checkout)")
    args = ap.parse_args()

    bench_dir = Path(args.build_dir).resolve() / "bench"
    names = artifact_benches()
    missing = [n for n in names if not (bench_dir / n).is_file()]
    if missing:
        print(f"error: not built in {bench_dir}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    seconds = {}
    failed = []
    for name in names:
        t0 = time.perf_counter()
        res = subprocess.run([str(bench_dir / name)], cwd=bench_dir,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        seconds[name] = time.perf_counter() - t0
        if res.returncode != 0:
            failed.append(f"{name} (exit {res.returncode})")
    total = sum(seconds.values())

    for name, s in sorted(seconds.items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {s:7.3f} s")
    print(f"paper artifacts: {len(names)} binaries, {total:.2f} s wall,"
          " run one after another")
    for f in failed:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
