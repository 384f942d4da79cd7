"""scripts/bench_compare.py on a small git repository of its own.

The benchmark runs are faked: each fake run reads which ``src/`` it was
given and returns a result line, so no perfbench run starts.  The git
calls are real.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = subprocess.run  # the real one, for git
BENCH = {"run_seconds": 30,
         "workloads": [{"name": "descent"}, {"name": "classify"}],
         "end_to_end": [{"name": "ops_per_s", "better": "higher"},
                        {"name": "op_p50_ms", "better": "lower"}]}


def git(tree, *argv):
    RUN(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=tree, check=True, capture_output=True)


@pytest.fixture
def compare(tmp_path, monkeypatch):
    """scripts/bench_compare.py over tmp_path/tree, a repository whose
    one commit has ``side = "A"`` in src/grpd/__init__.py and whose
    working tree has ``side = "B"``."""
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "scripts" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tree = tmp_path / "tree"
    (tree / "src" / "grpd").mkdir(parents=True)
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "run.py").write_text("")
    (tree / "BENCHMARK.json").write_text(json.dumps(BENCH))
    init = tree / "src" / "grpd" / "__init__.py"
    init.write_text('side = "A"\n')
    git(tree, "init", "-q")
    git(tree, "add", "-A")
    git(tree, "commit", "-q", "-m", "base")
    init.write_text('side = "B"\n')
    monkeypatch.setattr(module, "ROOT", tree)
    monkeypatch.setattr(module, "git_rev", lambda: "rev")
    return module


def snapshot(tree: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(tree.rglob("*"))
            if p.is_file() and ".git" not in p.parts}


def faked(monkeypatch, compare, metrics, line=None):
    """Fake the benchmark runs: ``metrics(side, k)`` gives the k-th run
    of a side its metrics, or ``line`` replaces its result line.
    Returns the list of (workload, side, the side its src/ says) run so
    far."""
    runs = []

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            return RUN(argv, **kwargs)
        assert argv[1:3] == ["perfbench/run.py", "--workload"]
        cwd = Path(kwargs["cwd"])
        assert (cwd / "perfbench" / "run.py").is_file()
        said = (cwd / "src" / "grpd" / "__init__.py").read_text()
        side = cwd.name
        k = sum(s == side for _, s, _ in runs)
        runs.append((argv[3], side, said[8]))
        out = line if line is not None else json.dumps({
            "correct": True, "attempted": 9, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"}
                        for name, v in metrics(side, k).items()}})
        return subprocess.CompletedProcess(argv, 0, f"log\n{out}\n", "")

    monkeypatch.setattr(compare.subprocess, "run", fake_run)
    return runs


def test_sides_alternate_and_the_record_holds_medians_and_spread(
        compare, monkeypatch, capsys):
    # the base reads 100, 104, 96, 102, 98 ops/s; the tree 5% more
    base = [100, 104, 96, 102, 98]

    def metrics(side, k):
        ops = base[k] * (1.05 if side == "B" else 1)
        return {"ops_per_s": ops, "op_p50_ms": 1000 / ops}

    before = snapshot(compare.ROOT)
    runs = faked(monkeypatch, compare, metrics)
    assert compare.main(["--base", "HEAD", "--label", "t", "--pairs", "5",
                         "--seconds", "2", "--workload", "descent"]) == 0
    assert runs == [("descent", s, s) for s in "ABBAABBAAB"]
    out = compare.ROOT / "BENCH_t.json"
    record = json.loads(out.read_text())
    assert snapshot(compare.ROOT) == {**before, out: out.read_bytes()}
    assert (record["git_rev"], record["seconds"], record["pairs"],
            record["seed"]) == ("rev", 2.0, 5, 1)
    assert [(r["side"], r["pair"]) for r in record["runs"]["descent"]] == [
        ("A", 0), ("B", 0), ("B", 1), ("A", 1), ("A", 2), ("B", 2),
        ("B", 3), ("A", 3), ("A", 4), ("B", 4)]
    ops = record["summary"]["descent"]["ops_per_s"]
    assert ops["base"]["values"] == base
    assert (ops["base"]["q1"], ops["base"]["median"], ops["base"]["q3"]) \
        == (98, 100, 102)
    assert ops["relative_change"] == pytest.approx(0.05)
    assert ops["base_spread"] == pytest.approx(0.04)
    assert (ops["wins"], ops["pairs"], ops["verdict"]) == (5, 5, "better")
    p50 = record["summary"]["descent"]["op_p50_ms"]
    assert (p50["wins"], p50["verdict"]) == (5, "better")
    assert "descent ops_per_s: +5.00%" in capsys.readouterr().out


def test_an_a_a_run_reads_within_noise(compare, monkeypatch):
    git(compare.ROOT, "commit", "-q", "-am", "head")
    runs = faked(monkeypatch, compare, lambda side, k: {
        "ops_per_s": [100, 104, 96][k], "op_p50_ms": 10.0})
    assert compare.main(["--base", "HEAD", "--label", "aa", "--pairs", "3",
                         "--workload", "classify"]) == 0
    assert [said for _, _, said in runs] == ["B"] * 6
    record = json.loads((compare.ROOT / "BENCH_aa.json").read_text())
    summary = record["summary"]["classify"]
    assert record["seconds"] == 30
    assert summary["ops_per_s"]["relative_change"] == 0
    assert [s["verdict"] for s in summary.values()] == ["within noise"] * 2
    assert [s["wins"] for s in summary.values()] == [0, 0]


def test_a_single_pair_reads_unresolved(compare, monkeypatch, capsys):
    # one run per side has no spread: an A/A snapshot that read -3.4%
    # ops_per_s was called "worse" against a base spread of 0.00%
    git(compare.ROOT, "commit", "-q", "-am", "head")
    faked(monkeypatch, compare, lambda side, k: {
        "ops_per_s": 100 if side == "A" else 96.56,
        "op_p50_ms": 10.0 if side == "A" else 8.54})
    assert compare.main(["--base", "HEAD", "--label", "ci", "--pairs",
                         "1"]) == 0
    record = json.loads((compare.ROOT / "BENCH_ci.json").read_text())
    assert [len(record["runs"][w]) for w in ("descent", "classify")] \
        == [2, 2]
    verdicts = [s["verdict"] for w in record["summary"].values()
                for s in w.values()]
    assert verdicts == ["unresolved"] * 4
    ops = record["summary"]["descent"]["ops_per_s"]
    assert (ops["relative_change"], ops["wins"]) == \
        (pytest.approx(-0.0344), 0)
    assert "descent ops_per_s: -3.44% (base spread 0.00%, wins 0/1): " \
        "unresolved" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    '{"correct": false, "attempted": 9, "failed": 2, "metrics": {}}',
    "Traceback (most recent call last):", ""])
def test_a_wrong_or_missing_result_exits_1(compare, monkeypatch, line):
    runs = faked(monkeypatch, compare, None, line)
    assert compare.main(["--base", "HEAD", "--label", "t", "--pairs",
                         "1"]) == 1
    assert [run[:2] for run in runs] == [
        ("descent", "A"), ("descent", "B"), ("classify", "A"),
        ("classify", "B")]
    record = json.loads((compare.ROOT / "BENCH_t.json").read_text())
    assert record["summary"] == {"descent": {}, "classify": {}}


@pytest.mark.parametrize("argv", [
    ["--label", "a/b"], ["--label", "t", "--seconds", "0"],
    ["--label", "t", "--seconds", "nan"], ["--label", "t", "--pairs", "0"],
    ["--label", "t", "--workload", "nosuch"], ["--label", "../up"],
    ["--label", ""], ["--label", "t", "--seconds", "-1"]])
def test_unusable_arguments_exit_2_before_any_run(
        compare, monkeypatch, capsys, argv):
    runs = faked(monkeypatch, compare, None, "")
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--base", "HEAD", *argv])
    assert exit_info.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert runs == []
    assert not list(compare.ROOT.glob("BENCH_*"))


def test_a_base_that_names_no_commit_exits_2(compare, monkeypatch, capsys):
    runs = faked(monkeypatch, compare, None, "")
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--base", "no-such-rev", "--label", "t"])
    assert exit_info.value.code == 2
    assert "names no commit" in capsys.readouterr().err
    assert runs == []


def test_runs_as_a_script_and_prints_its_usage():
    done = RUN([sys.executable, str(ROOT / "scripts" / "bench_compare.py"),
                "--help"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "--base" in done.stdout and "--pairs" in done.stdout
