"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``.

They check that the planted group tables are groups, that generation is
deterministic, that a wrong planted answer is counted as a failure (so the
answer checks can fail), that traced self times fit inside each op's wall
time, that the tracer rebinds names imported elsewhere, that scaling to
the reference speed cancels the host's speed, and that the benchmark
refuses to run without grpd's sources.  Worker runs happen in
subprocesses, because tracing rebinds grpd's module globals for the life
of the process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import tables  # noqa: E402

WORKLOADS = ("classify", "construct", "descent")
# ops per workload kept by the quick runs below (classify's first ops are
# the cheap transitive/cgeo/locus/skeleton calls on small members)
QUICK_OPS = {"classify": 8, "construct": 4, "descent": 12}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _quick_manifest(directory, workload, mutate=None):
    """Keep the first few ops of round 0, optionally corrupting one."""
    path = Path(directory, "manifest.json")
    manifest = json.loads(path.read_text("utf-8"))
    ops = manifest["rounds"][0][:QUICK_OPS[workload]]
    if mutate:
        mutate(ops)
    manifest["rounds"] = [ops]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _run_worker(directory, workload, trace):
    out = Path(directory, f"result-{trace}.json")
    # seconds=0.01: the worker always finishes the round it starts
    subprocess.run([sys.executable, str(BENCH / "worker.py"),
                    "--workload", workload, "--dir", str(directory),
                    "--seconds", "0.01", "--trace", str(trace),
                    "--out", str(out)], check=True, timeout=300)
    return json.loads(out.read_text("utf-8"))


def test_planted_tables_are_groups_of_the_stated_order():
    import random
    rng = random.Random(0)
    for kind, t in tables.TABLES.items():
        renamed = tables.relabel(t, tables.random_relabelling(rng, t))
        assert tables.is_group(t) and tables.is_group(renamed), kind
        assert sorted(tables.element_orders(renamed)) == sorted(
            tables.element_orders(t)), kind
    assert all(len(t) <= 12 for t in tables.SMALL.values())
    assert all(16 <= len(t) <= 24 for t in tables.LARGE.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _flip_transitive(ops):
    op = next(op for op in ops if op["cmd"] == "transitive")
    op["exit"] = 1 - op["exit"]


def _grow_comp(ops):
    ops[0]["expect"]["comp"] += 1


def _flip_negative(ops):
    op = next(op for op in ops if not op["negative"]
              and "known_defect" not in op)
    op["negative"] = True


@pytest.mark.parametrize("workload,mutate", [
    ("classify", _flip_transitive), ("construct", _grow_comp),
    ("descent", _flip_negative)])
def test_wrong_planted_answer_counts_as_failure(tmp_path, workload, mutate):
    gen.generate(workload, 3, tmp_path / "good")
    shutil.copytree(tmp_path / "good", tmp_path / "bad")
    _quick_manifest(tmp_path / "good", workload)
    _quick_manifest(tmp_path / "bad", workload, mutate)
    good = _run_worker(tmp_path / "good", workload, 0)
    bad = _run_worker(tmp_path / "bad", workload, 0)
    assert len(good["latencies"]) == len(bad["latencies"]) > 0
    assert all(good["failures"])  # only known-defect probes, if any
    assert len(bad["failures"]) == len(good["failures"]) + 1
    assert bad["failures"].count(False) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_each_op(tmp_path, workload):
    gen.generate(workload, 4, tmp_path)
    _quick_manifest(tmp_path, workload)
    res = _run_worker(tmp_path, workload, 1)
    per_op = {int(k): v for k, v in res["op_self_s"].items()}
    assert set(per_op) - {-1} <= set(range(len(res["latencies"])))
    for i, wall in enumerate(res["latencies"]):
        assert 0 < per_op.get(i, 0.0) <= wall
    assert res["missing"] == []
    trace = res["trace"]
    assert set(trace) == set(spans.metric_units()) - {"trace_overhead_share"}
    exercised = {"classify": ["cli", "formats", "core", "complexity"],
                 "construct": ["core", "formats"],
                 "descent": ["formats", "descent"]}[workload]
    for mod in exercised:
        assert trace[f"layer.{mod}.calls"] > 0
        assert trace[f"layer.{mod}.self_s"] > 0


def test_tracer_rebinds_names_imported_elsewhere():
    code = ("import grpd.cli, grpd.complexity, grpd.homotopy, grpd.core\n"
            "from spans import Tracer\n"
            "t = Tracer().install()\n"
            "assert (grpd.cli.validate_groupoid\n"
            "        is grpd.core.validate_groupoid)\n"
            "assert grpd.complexity.skeletonize is grpd.homotopy.skeletonize\n"
            "assert hasattr(grpd.core.validate_groupoid, '__wrapped__')\n"
            "assert not hasattr(grpd.groups.identity_of, '__wrapped__')\n"
            "assert t.missing == []\n")
    env_path = f"{BENCH}:{ROOT / 'src'}"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={"PYTHONPATH": env_path})


@pytest.mark.parametrize("loop", sorted(speed.LOOPS))
def test_scaling_cancels_the_host_speed(loop):
    ops = [0.01, 0.05, 0.02]
    ref = speed.REF_S[loop]
    assert speed.scale_all(ops, loop, [ref] * 4) == pytest.approx(ops)
    # a host twice as slow doubles op and loop times alike
    slow = speed.scale_all([2 * t for t in ops], loop, [2 * ref] * 4)
    assert slow == pytest.approx(ops)
    # a slow stretch during the last op only: the loop times bracketing
    # each op set its speed
    assert speed.scale_all([0.01, 0.05, 0.04], loop,
                           [ref, ref, ref, 3 * ref]) == pytest.approx(
        [0.01, 0.05, 0.02])
    assert speed.LOOPS[loop]() > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
