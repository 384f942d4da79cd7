#!/usr/bin/env python3
"""Mutation gate: every check must be able to fail.

Each entry of ``tests/data/mutants.txt`` names a file, a text that
occurs there exactly once, its replacement, the tests that must fail and
a one-line reason.  The tree is copied once to a temporary directory;
each mutant is applied to the copy, ``python -m pytest -x -q`` runs its
tests there, and the file is put back.  The working tree is never
written.

Entries are separated by blank lines; ``#`` starts a comment line.  Each
line of an entry is ``key: value``, the value taken verbatim after the
first ": ".  ``find`` and ``replace`` may repeat, one line of the text
each; ``tests`` holds pytest node ids separated by spaces:

    id: unit-message
    file: src/grpd/core.py
    find:     raise BadUnit(...)
    replace:     raise BadUnit(... other ...)
    tests: tests/test_cli.py::test_x
    why: the per-arrow unit check names the arrow

Exit codes: 0 when every mutant is killed (its tests fail); 1 when one
survives; else 2 when an entry is malformed, its text does not occur
exactly once (checked for every entry before any test runs), or its test
run ends other than by passing or failing: say, a named test is gone, or
the run is stopped after LIMIT seconds, so that a mutant that makes a
test loop cannot hang the gate.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = ROOT / "tests" / "data" / "mutants.txt"
KEYS = ("id", "file", "find", "replace", "tests", "why")
LIMIT = 300  # seconds for one mutant's test run
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".perfbench", "sample_data")


class BadEntry(Exception):
    pass


def parse(text: str) -> list[dict]:
    """The entries of a mutant list, each a dict of KEYS; ``find`` and
    ``replace`` are the joined lines of the text."""
    entries, entry = [], {}
    for number, line in enumerate(text.splitlines() + [""], 1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if entry:
                entries.append(entry)
                entry = {}
            continue
        key, sep, value = line.partition(": ")
        if not sep and line.endswith(":"):
            key, value = line[:-1], ""
        if key not in KEYS:
            raise BadEntry(f"line {number}: unknown key {key!r}")
        if key in ("find", "replace"):
            entry.setdefault(key, []).append(value)
        elif key in entry:
            raise BadEntry(f"line {number}: repeated key {key!r}")
        else:
            entry[key] = value
        entry.setdefault("line", number)
    for entry in entries:
        missing = [k for k in KEYS if not entry.get(k)]
        if missing:
            raise BadEntry(f"entry on line {entry['line']} lacks "
                           f"{', '.join(missing)}")
        entry["find"] = "\n".join(entry["find"])
        entry["replace"] = "\n".join(entry["replace"])
        entry["tests"] = entry["tests"].split()
    ids = [e["id"] for e in entries]
    repeats = sorted({i for i in ids if ids.count(i) > 1})
    if repeats:
        raise BadEntry(f"repeated ids: {', '.join(repeats)}")
    return entries


def check(entries: list[dict], root: Path) -> list[str]:
    """Why each entry cannot be applied to the tree at root."""
    problems = []
    for e in entries:
        path = root / e["file"]
        count = path.read_text(encoding="utf-8").count(e["find"]) \
            if path.is_file() else 0
        if count != 1:
            problems.append(f"{e['id']}: its text occurs {count} times in "
                            f"{e['file']}")
        elif e["find"] == e["replace"]:
            problems.append(f"{e['id']}: the replacement changes nothing")
    return problems


def run_mutant(e: dict, copy: Path, env: dict) -> int | None:
    """Apply one mutant to the copy, run its tests, restore the file;
    return pytest's exit code, or None when the run was stopped at
    LIMIT."""
    path = copy / e["file"]
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(e["find"], e["replace"]),
                    encoding="utf-8")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *e["tests"]], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=LIMIT).returncode
    except subprocess.TimeoutExpired:
        return None
    finally:
        path.write_text(original, encoding="utf-8")


def main() -> int:
    try:
        entries = parse(LIST.read_text(encoding="utf-8"))
    except BadEntry as err:
        print(f"error: {LIST}: {err}", file=sys.stderr)
        return 2
    problems = check(entries, ROOT)
    if problems:
        print("\n".join(f"stale: {p}" for p in problems), file=sys.stderr)
        return 2
    survived, broken = [], []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        for e in entries:
            start = time.perf_counter()
            code = run_mutant(e, copy, env)
            verdict = {0: "SURVIVED", 1: "killed",
                       None: f"stopped at {LIMIT} s"}.get(
                code, f"pytest exit {code}")
            print(f"{verdict:<16} {time.perf_counter() - start:5.1f} s  "
                  f"{e['id']}: {e['why']}", flush=True)
            if code == 0:
                survived.append(e["id"])
            elif code != 1:
                broken.append(e["id"])
    print(f"{len(entries)} mutants: {len(survived)} survived, "
          f"{len(broken)} unusable runs")
    return 1 if survived else 2 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
