#!/usr/bin/env python3
"""Run the benchmark once per workload and record the results.

Runs ``perfbench/run.py --trace 0`` for each workload that BENCHMARK.json
declares, at a fixed seed, and writes ``BENCH_<label>.json`` at the
repository root: the last JSON line of each run, the git revision and the
Python version.  Exits 1 when a run reads ``"correct": false`` or a
workload leaves no result line, and 2, before any run, when the label is
not a plain file-name fragment or the seconds are not positive.

Usage: python scripts/bench_record.py --label baseline [--seconds 30]
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def git_rev() -> str:
    """HEAD's hash, with ``-dirty`` when tracked files differ from it."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    return out.strip() or "unknown"


def last_json_line(stdout: str):
    """The run's result object, or None when its last line is not one."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)
    # the label names the file BENCH_<label>.json at the repository root,
    # and each run needs time to finish at least one op
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' "
                     "and '-'")
    if not 0 < args.seconds < math.inf:
        parser.error("--seconds must be a positive number")

    results, ok = {}, True
    for workload in [w["name"] for w in bench["workloads"]]:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = results[workload] = last_json_line(run.stdout)
        if run.returncode != 0 or result is None:
            print(f"{workload}: no result (exit {run.returncode})",
                  file=sys.stderr)
            sys.stderr.write(run.stderr)
            ok = False
            continue
        print(workload, result.get("correct"), result.get("failed"), "of",
              result.get("attempted"))
        ok = ok and result.get("correct") is True

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label, "git_rev": git_rev(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": SEED, "seconds": args.seconds, "results": results,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
