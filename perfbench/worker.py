"""Runs one workload's operations in a fresh process.

Usage: python3 perfbench/worker.py --workload W --dir INPUTS
       --seconds S [--rounds N] --trace 0|1 --out RESULT.json

The process imports grpd, loads the inputs the generator wrote, then runs
whole rounds of operations until ``--seconds`` have passed or the rounds
run out (or exactly ``--rounds`` rounds, so that a traced run repeats the
work of an untraced one).  Each op is timed on its own; its answer is then
compared with the planted one.  A fresh process per run keeps
``ru_maxrss`` meaningful and starts grpd's ``lru_cache``s cold, as for a
command-line user.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Classify:
    """CLI decisions, made in-process through ``grpd.cli.run``."""

    cycle = False  # a reused round would hit warm caches

    def __init__(self, workdir, manifest):
        from grpd import cli
        self.cli = cli
        self.workdir = workdir
        self.seen = {}  # (command, class) -> output, and back

    def execute(self, op):
        paths = [str(self.workdir / f) for f in op["files"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(["--json", op["cmd"], *paths])
        return code, buf.getvalue()

    def _consistent(self, cmd, cls, text):
        """Outputs agree exactly when the planted classes agree."""
        return (self.seen.setdefault((cmd, "cls", cls), text) == text
                and self.seen.setdefault((cmd, "text", text), cls) == cls)

    def check(self, op, outcome):
        code, out = outcome
        if code != op["exit"]:
            return False
        report = json.loads(out.strip().splitlines()[-1])
        res = report.get("result", {})
        if report["ok"] != (op["exit"] == 0):
            return False
        cmd = op["cmd"]
        if cmd == "transitive":
            return res["transitive"] == (op["exit"] == 0)
        if cmd == "cgeo":
            return (res["cgeo"] == op["cgeo"]
                    and sorted(sorted(p) for p in res["cover"]) == op["cover"])
        if cmd == "locus":
            key = res["locus"]
            if op["point"]:
                return key == "POINT"
            return (key.startswith(f"cgeo={op['cgeo']};")
                    and self._consistent(cmd, op["cls"], key))
        if cmd == "skeleton":
            lines = res["skeleton"]
            orders = sorted(int(line.split()[1]) for line in lines)
            return (orders == op["orders"]
                    and self._consistent(cmd, op["cls"], "\n".join(lines)))
        if cmd in ("morita", "morita-homotopy"):
            if res["equivalent"] != op["equivalent"]:
                return False
            if not op["equivalent"]:
                return True
            if cmd == "morita":
                carrier = res["carrier"]
                return len(carrier) == len(set(carrier)) == op["carrier"]
            mids = res["mid_objects"]
            return (len(mids) == len(op["orbits"])
                    and all(len(set(orbit) & set(mids)) == 1
                            for orbit in op["orbits"]))
        if cmd == "homotopic":
            if res["homotopic"] != op["homotopic"]:
                return False
            if not op["homotopic"]:
                return True
            comp, allowed = res["component"], op["allowed"]
            return (set(comp) == set(allowed)
                    and all(comp[x] in allowed[x] for x in comp))
        return False


class Construct:
    """Constructions on Pair(m) x K, each validated and serialized."""

    cycle = True  # no cache sits on these paths

    def __init__(self, workdir, manifest):
        from grpd import bibundle, core, corpus, formats, homotopy
        self.bib, self.core, self.corpus = bibundle, core, corpus
        self.formats, self.homotopy = formats, homotopy
        self.docs = {}
        for ops in manifest["rounds"]:
            for op in ops:
                self.docs[op["file"]] = formats.parse_files(
                    [workdir / op["file"]])

    def execute(self, op):
        core, fmt = self.core, self.formats
        doc = self.docs[op["file"]]
        g = next(iter(doc.groupoids.values()))
        kind = op["op"]
        if kind == "cocylinder":
            cyl = core.cocylinder(g)
            core.validate_groupoid(cyl.groupoid)
            for f in (cyl.e0, cyl.e1, cyl.t):
                core.validate_functor(f)
            laws = [core.compose_functors(cyl.e0, cyl.t),
                    core.compose_functors(cyl.e1, cyl.t)]
            return (g, cyl.groupoid, laws,
                    fmt.serialize_groupoid(cyl.groupoid), None)
        if kind.startswith("pullback"):
            left, right = doc.functors.values()
            n = 1 if kind == "pullback1" else 2
            res = self.homotopy.homotopy_pullback(
                self.homotopy.Cospan(left=left, right=right), n=n)
            if n == 1:
                core.validate_groupoid(res.groupoid)
                core.validate_nat(res.cells[0])
            # degree 2: size formulas and projection laws, not the full
            # associativity sweep
            core.validate_functor(res.pr1)
            core.validate_functor(res.pr2)
            return (g, res.groupoid, [], fmt.serialize_groupoid(res.groupoid),
                    len(res.cells))
        if kind == "inflate":
            big, proj = self.corpus.inflate(g, {x: 2 for x in g.objects})
            core.validate_groupoid(big)
            core.validate_functor(proj)
            return g, big, [], fmt.serialize_groupoid(big), None
        bib = self.bib
        unit = bib.unit_bibundle(g)
        bib.validate_bibundle(unit)
        both = bib.tensor(unit, unit)
        bib.validate_bibundle(both)
        iso = bib.bibundles_isomorphic(both, unit)
        return unit, both, iso, fmt.serialize_bibundle(both)

    def check(self, op, outcome):
        expect = op["expect"]
        if op["op"] == "unit":
            unit, both, iso, text = outcome
            n = expect["carrier"]
            return (len(set(unit.carrier)) == len(set(both.carrier)) == n
                    and len(both.carrier) == n and iso is not None
                    and text.count("\n") == 2 + 2 * n + len(both.left.act)
                    + len(both.right.act))
        g, out, laws, text, cells = outcome
        if (len(out.objects), len(set(out.arrows)), len(out.comp), cells) != (
                expect["objects"], expect["arrows"], expect["comp"],
                expect.get("cells")):
            return False
        for law in laws:  # e0 . t = e1 . t = id on the nose
            if (any(x != y for x, y in law.obj_map.items())
                    or any(a != b for a, b in law.arr_map.items())
                    or len(law.arr_map) != len(g.arrows)):
                return False
        lines = 2 + expect["objects"] + 2 * expect["arrows"] + expect["comp"]
        return text.count("\n") == lines


class Descent:
    """Descent data: parse -> cocycle check -> glue -> descend again."""

    cycle = True  # no cache sits on these paths

    def __init__(self, workdir, manifest):
        from grpd import descent, formats
        self.descent, self.formats = descent, formats
        self.texts = {op["file"]: (workdir / op["file"]).read_text("utf-8")
                      for ops in manifest["rounds"] for op in ops}

    def execute(self, op):
        d = self.descent
        doc = self.formats.parse_document(self.texts[op["file"]],
                                          source=op["file"])
        datum = doc.data[op["datum"]]
        report = d.check_cocycle(datum)
        if op["negative"]:
            try:
                d.glue(datum)
            except d.CocycleViolation:
                return report, None, None
            return report, True, None
        glued = d.glue(datum)
        return report, glued, d.descend(glued.bundle, datum.cover)

    def check(self, op, outcome):
        report, glued, again = outcome
        if op["negative"]:
            return not report.ok and glued is None
        if not report.ok:
            return False
        want = {x: n for x, n in op["fibres"].items() if n}
        got = {}
        for a in glued.bundle.total:
            x = glued.bundle.proj[a]
            got[x] = got.get(x, 0) + 1
        if got != want or len(set(glued.bundle.total)) != sum(want.values()):
            return False
        if op["pieces"] is None:
            return True
        for piece, to_base in op["pieces"].items():
            bundle = again.fibres[piece]
            sizes = {}
            for a in bundle.total:
                u = bundle.proj[a]
                sizes[u] = sizes.get(u, 0) + 1
            if any(sizes.get(u, 0) != op["fibres"][x]
                   for u, x in to_base.items()):
                return False
        return True


WORKLOADS = {"classify": Classify, "construct": Construct,
             "descent": Descent}


def run(workload, workdir, seconds, trace, rounds_wanted=None):
    """Run the workload; returns the result record (also used by tests)."""
    t0 = perf_counter()
    import grpd  # noqa: F401  (the whole package, as a CLI user loads it)
    from grpd import cli, corpus, formats  # noqa: F401
    import_s = perf_counter() - t0
    workdir = Path(workdir)
    manifest = json.loads((workdir / "manifest.json").read_text("utf-8"))
    t0 = perf_counter()
    runner = WORKLOADS[workload](workdir, manifest)
    load_s = perf_counter() - t0
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer().install()
    rounds = manifest["rounds"]
    latencies, failures, causes = [], [], Counter()
    calibrate = speed.LOOPS[speed.WORKLOAD_LOOP[workload]]
    loop_times = []
    start = perf_counter()

    def another_round(r):
        if rounds_wanted is not None:
            return r < rounds_wanted
        return (perf_counter() - start < seconds
                and (runner.cycle or r < len(rounds)))

    r = 0
    while another_round(r):
        for op in rounds[r % len(rounds)]:
            loop_times.append(calibrate())
            if tracer:
                tracer.op = len(latencies)
            t0 = perf_counter()
            try:
                outcome = runner.execute(op)
            except Exception as err:  # every exception is a failed op
                outcome = err
            t1 = perf_counter()
            if tracer:
                tracer.op = -1
            latencies.append(t1 - t0)
            try:
                ok = (not isinstance(outcome, Exception)
                      and runner.check(op, outcome))
            except (KeyError, ValueError, TypeError, AttributeError):
                ok = False
            if not ok:
                failures.append("known_defect" in op)
                label = (op.get("known_defect") or op.get("cmd")
                         or op.get("op", "datum"))
                cause = (type(outcome).__name__
                         if isinstance(outcome, Exception) else "answer")
                causes[f"{label}: {cause}"] += 1
        r += 1
    elapsed = perf_counter() - start
    loop_times.append(calibrate())  # brackets the last op
    result = {
        # one entry per failed op: whether it hit a known-defect probe
        "latencies": latencies, "loop_times": loop_times, "failures": failures, "causes": causes,
        "rounds": r, "elapsed_s": elapsed,
        "import_s": import_s, "load_s": load_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sizes": manifest["sizes"],
    }
    if tracer:
        result["trace"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["op_self_s"] = tracer.op_self_sums()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.dir, args.seconds, args.trace,
                 args.rounds)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
