"""scripts/mutants.py, the mutation gate, on a small tree of its own.

``subprocess.run`` is faked, so no pytest run starts: each fake run
returns the exit code a test run would, or is stopped at the limit.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = "x = 1\ny = 2\n"
ENTRY = """id: m1
file: m.py
find: x = 1
replace: x = 3
tests: tests/test_m.py::test_x
why: x changes
"""


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """scripts/mutants.py over tmp_path/tree, which holds m.py and the
    mutant list that each test writes."""
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tree = tmp_path / "tree"
    (tree / "tests" / "data").mkdir(parents=True)
    (tree / "m.py").write_text(SOURCE)
    monkeypatch.setattr(module, "ROOT", tree)
    monkeypatch.setattr(module, "LIST", tree / "tests" / "data" /
                        "mutants.txt")
    return module


def snapshot(tree: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(tree.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("entries, message", [
    (ENTRY.replace("why: x changes\n", ""), "lacks why"),
    (ENTRY.replace("why:", "reason:"), "unknown key 'reason'"),
    (ENTRY + "\n" + ENTRY, "repeated ids: m1")])
def test_a_malformed_entry_or_a_repeated_id_exits_2_before_any_run(
        gate, monkeypatch, capsys, entries, message):
    def no_run(argv, **kwargs):
        raise AssertionError(f"ran {argv}")

    gate.LIST.write_text(entries)
    monkeypatch.setattr(gate.subprocess, "run", no_run)
    assert gate.main() == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("find, count", [("z = 1", 0), (" = ", 2)])
def test_a_text_found_0_or_2_times_exits_2_with_its_stale_line(
        gate, monkeypatch, capsys, find, count):
    def no_run(argv, **kwargs):
        raise AssertionError(f"ran {argv}")

    gate.LIST.write_text(ENTRY.replace("find: x = 1", f"find: {find}"))
    monkeypatch.setattr(gate.subprocess, "run", no_run)
    assert gate.main() == 2
    assert capsys.readouterr().err == (
        f"stale: m1: its text occurs {count} times in m.py\n")


# the fake test run's outcome: pytest's exit code, or None for a run
# stopped at the limit; and the gate's exit code
@pytest.mark.parametrize("outcome, code", [
    (1, 0),      # the test fails: the mutant is killed
    (0, 1),      # the test passes: the mutant survives
    (4, 2),      # pytest found no such test
    (None, 2)])  # the run was stopped
def test_each_run_outcome_gives_its_exit_code_and_leaves_the_tree(
        gate, monkeypatch, outcome, code):
    gate.LIST.write_text(ENTRY)
    before = snapshot(gate.ROOT)
    runs = []

    def fake_run(argv, cwd, timeout, **kwargs):
        # the mutant is applied to the copy only
        runs.append((argv[-1], (Path(cwd) / "m.py").read_text(), timeout))
        assert (gate.ROOT / "m.py").read_text() == SOURCE
        if outcome is None:
            raise subprocess.TimeoutExpired(argv, timeout)
        return subprocess.CompletedProcess(argv, outcome)

    monkeypatch.setattr(gate.subprocess, "run", fake_run)
    assert gate.main() == code
    assert runs == [("tests/test_m.py::test_x", "x = 3\ny = 2\n",
                     gate.LIMIT)]
    assert snapshot(gate.ROOT) == before
