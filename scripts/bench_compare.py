#!/usr/bin/env python3
"""Compare the benchmark at a base revision with the working tree.

Runs this tree's ``perfbench/run.py --trace 0`` against two copies of
``src/``: the base revision's (side A, extracted with ``git archive``) and
the working tree's (side B).  Both copies sit in one temporary directory,
each next to its own copy of this tree's ``perfbench/``, so that only
``src/`` differs between the sides and the repository is never written
but for the record.  Each pair runs both sides once per workload, in the
order A B, B A, A B, ... so that a drift of the host's speed falls on
both sides alike.

Writes ``BENCH_<label>.json`` at the repository root: every run's
metrics, and per workload and end-to-end metric each side's median and
quartiles, the change of the medians relative to the base median, the
base's own quartile spread on the same scale, how many pairs the working
tree won, and a verdict: "better" or "worse" when the medians differ by
more than the base's quartile spread, else "within noise".  With
``--base HEAD`` on a clean tree both sides run the same code, and the
record is the noise floor of each metric (an A/A run).  With one pair
as well (``--base HEAD --pairs 1``) it is a snapshot of this tree, run
twice; a base of fewer than two runs has no spread, so every verdict then
reads "unresolved".

Exits 1 when a run reads ``"correct": false`` or leaves no result line,
and 2, before any run, when the label is not a plain file-name fragment,
the seconds are not positive, the pairs are fewer than one, a workload is
unknown or the base is no revision.

Usage: python scripts/bench_compare.py --base REV --label L [--pairs 3]
           [--seconds S] [--seed 1] [--workload W ...]
"""

import argparse
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__", ".perfbench")


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


def resolve(rev: str):
    """The commit hash that ``rev`` names, or None."""
    run = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def make_side(dest: Path, commit) -> Path:
    """``dest`` holding this tree's ``perfbench/`` and the ``src/`` of
    ``commit``, or of the working tree when ``commit`` is None."""
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=SKIP)
    if commit is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=SKIP)
    else:
        tar = subprocess.run(["git", "archive", "--format=tar", commit,
                              "src"], cwd=ROOT, capture_output=True,
                             check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            for member in archive:
                if member.isfile():
                    path = dest / member.name
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(archive.extractfile(member).read())
    return dest


def quartiles(values: list) -> tuple:
    """The lower quartile, the median and the upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list, metrics: dict) -> dict:
    """Per end-to-end metric: each side's values, median and quartiles,
    the relative change of the medians, the base's relative quartile
    spread, the pairs the working tree won and the verdict."""
    out = {}
    for name, better in metrics.items():
        by_pair = {side: {r["pair"]: r["metrics"][name] for r in runs
                          if r["side"] == side and name in r["metrics"]}
                   for side in "AB"}
        if not (by_pair["A"] and by_pair["B"]):
            continue
        sides = {}
        for side, values in by_pair.items():
            q1, med, q3 = quartiles(list(values.values()))
            sides[side] = {"values": list(values.values()), "q1": q1,
                           "median": med, "q3": q3}
        a, b = sides["A"], sides["B"]
        sign = 1 if better == "higher" else -1
        both = by_pair["A"].keys() & by_pair["B"].keys()
        wins = sum(sign * (by_pair["B"][k] - by_pair["A"][k]) > 0
                   for k in both)
        scale = abs(a["median"]) or 1.0
        change = (b["median"] - a["median"]) / scale
        spread = (a["q3"] - a["q1"]) / scale
        if len(by_pair["A"]) < 2:
            verdict = "unresolved"
        elif abs(change) <= spread:
            verdict = "within noise"
        else:
            verdict = "better" if sign * change > 0 else "worse"
        out[name] = {"better": better, "base": a, "head": b,
                     "relative_change": change, "base_spread": spread,
                     "wins": wins, "pairs": len(both), "verdict": verdict}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' "
                     "and '-'")
    if not 0 < args.seconds < math.inf:
        parser.error("--seconds must be a positive number")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base = resolve(args.base)
    if base is None:
        parser.error(f"--base {args.base!r} names no commit")
    workloads = args.workload or names
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs, ok = {w: [] for w in workloads}, True
    with tempfile.TemporaryDirectory(prefix="bench_compare-") as tmp:
        trees = {"A": make_side(Path(tmp) / "A", base),
                 "B": make_side(Path(tmp) / "B", None)}
        for workload in workloads:
            for pair in range(args.pairs):
                for side in ("AB" if pair % 2 == 0 else "BA"):
                    run = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload",
                         workload, "--seed", str(args.seed), "--seconds",
                         str(args.seconds), "--trace", "0"],
                        cwd=trees[side], capture_output=True, text=True)
                    result = last_json_line(run.stdout)
                    if run.returncode != 0 or result is None:
                        print(f"{workload} {side}{pair}: no result (exit "
                              f"{run.returncode})", file=sys.stderr)
                        sys.stderr.write(run.stderr)
                        ok = False
                        continue
                    values = {k: v["value"] for k, v in
                              result.get("metrics", {}).items()}
                    runs[workload].append({
                        "side": side, "pair": pair,
                        "correct": result.get("correct"),
                        "attempted": result.get("attempted"),
                        "failed": result.get("failed"), "metrics": values})
                    print(workload, f"{side}{pair}", result.get("correct"),
                          f"ops_per_s {values.get('ops_per_s', 0):.1f}")
                    ok = ok and result.get("correct") is True

    summary = {w: summarize(runs[w], metrics) for w in workloads}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label, "base": base, "git_rev": git_rev(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "runs": runs, "summary": summary,
    }, indent=1, sort_keys=True) + "\n")
    for workload in workloads:
        for name, s in summary[workload].items():
            print(f"{workload} {name}: {s['relative_change']:+.2%} "
                  f"(base spread {s['base_spread']:.2%}, wins {s['wins']}"
                  f"/{s['pairs']}): {s['verdict']}")
    print(f"wrote {out.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
