"""Golden digests of the CLI's output on valid inputs.

Each entry of ``tests/data/cli_golden.json`` is one CLI call: its argv
(``{dir}`` stands for the directory of generated inputs), its exit code and
the sha256 of stdout followed by stderr.  Every call runs in text mode and
with ``--json``.  The inputs are the files that ``scripts/make_examples.py``
writes, the members of ``grpd corpus --seed 1 --count 20`` and a few seeded
``corpus.random_datum`` descent data, two of them with one transition
swapped so that gluing fails.

Rewrite the digests only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import grpd
from grpd.cli import _load, run
from grpd.corpus import random_datum
from grpd.descent import DescentDatum
from grpd.formats import serialize_datum

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "data" / "cli_golden.json"
EXAMPLE_GROUPOIDS = ("pair3.grpd", "point.grpd", "bz2.grpd", "mix.grpd",
                     "cospan.grpd", "idfun.grpd", "unit_pair3.bib")
CORPUS = tuple(f"corpus/g{i}.grpd" for i in range(20))
# (seed, base_size) of each random descent datum: 3 or 4 pieces over 4-8
# base points, and 2 pieces over 5
DATA = ((2, 7), (3, 8), (9, 8), (6, 6), (11, 8))
# (file, source datum, diagonal?) of the data with one swapped transition
SWAPPED = (("swap_b", "r11", False), ("swap_a", "r9", True))


def swapped(d: DescentDatum, diagonal: bool) -> DescentDatum:
    """Copy of d with the values of the two least elements swapped in the
    first (diagonal or off-diagonal) transition over a fibre of size >= 2."""
    key, uv = next((key, uv) for key in sorted(d.transitions)
                   if (key[0] == key[1]) == diagonal
                   for uv in sorted(d.transitions[key])
                   if len(d.transitions[key][uv]) >= 2)
    trans = {k: {p: dict(m) for p, m in t.items()}
             for k, t in d.transitions.items()}
    m = trans[key][uv]
    a, b = sorted(m)[:2]
    m[a], m[b] = m[b], m[a]
    return DescentDatum(d.name, d.cover, d.fibres, trans)


def write_data(root: Path) -> None:
    root.mkdir()
    data = {}
    for seed, base_size in DATA:
        name = f"r{seed}"
        _, _, data[name] = random_datum(random.Random(seed), name,
                                        base_size=base_size)
        (root / f"{name}.desc").write_text(serialize_datum(data[name]))
    for name, src, diagonal in SWAPPED:
        (root / f"{name}.desc").write_text(
            serialize_datum(swapped(data[src], diagonal)))


def make_inputs(root: Path) -> None:
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, str(REPO / "scripts" / "make_examples.py"),
                    "--out", str(root)], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["corpus", "--seed", "1", "--count", "20",
                    "--out", str(root / "corpus")])
    assert code == 0
    write_data(root / "descent")


def outputs(argv, root: Path):
    """Exit code, stdout and stderr of one in-process CLI call, with
    ``{dir}`` for root in the argv and in what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([a.replace("{dir}", str(root)) for a in argv])
    return (code, out.getvalue().replace(str(root), "{dir}"),
            err.getvalue().replace(str(root), "{dir}"))


def call(argv, root: Path):
    """Exit code and output digest of one in-process CLI call."""
    code, out, err = outputs(argv, root)
    return code, hashlib.sha256((out + err).encode()).hexdigest()


def golden_calls(root: Path):
    """The argv of every recorded call, in text form (``--json`` is added
    separately).  Subsets are read from each file's objects and orbits."""
    calls = []
    for rel in EXAMPLE_GROUPOIDS + CORPUS:
        path = "{dir}/" + rel
        [g] = _load([str(root / rel)], "groupoids")
        blocks = g.components
        first = ",".join(blocks[0])
        every = ",".join(sorted(g.objects))
        heads = ",".join(b[0] for b in blocks)
        o0, o1 = blocks[0][0], blocks[-1][-1]
        for cmd in ("validate", "orbits", "transitive", "skeleton", "cgeo",
                    "locus"):
            calls.append([cmd, path])
        for subset in (o0, heads):
            calls.append(["relcgeo", path, "--subset", subset])
        for subset in ("", first, every):
            calls.append(["weakpoint", path, "--subset", subset])
        for a, b in ((o0, o1), (every, heads)):
            calls.append(["deform", path, "--from", a, "--to", b])
    pairs = CORPUS[:6]
    for i, a in enumerate(pairs):
        for b in pairs[i:]:
            calls.append(["morita", "{dir}/" + a, "{dir}/" + b])
            calls.append(["morita-homotopy", "{dir}/" + a, "{dir}/" + b])
    calls += [["tensor", "{dir}/unit_pair3.bib", "{dir}/unit_pair3.bib"],
              ["homotopic", "{dir}/idfun.grpd", "{dir}/idfun.grpd"],
              ["pullback", "{dir}/cospan.grpd", "--n", "1"],
              ["pullback", "{dir}/cospan.grpd", "--n", "2"],
              ["descent-check", "{dir}/datum.desc"],
              ["descent-glue", "{dir}/datum.desc"],
              ["corpus", "--seed", "1", "--count", "20"]]
    for name in [f"r{seed}" for seed, _ in DATA] + [n for n, _, _ in SWAPPED]:
        for cmd in ("descent-check", "descent-glue"):
            calls.append([cmd, f"{{dir}}/descent/{name}.desc"])
    unique = {tuple(c): None for c in calls}
    return [list(c) for c in unique]


def record(root: Path):
    entries = []
    for argv in golden_calls(root):
        for full in (argv, ["--json"] + argv):
            code, digest = call(full, root)
            entries.append({"argv": full, "exit": code, "sha256": digest})
    return entries


def test_cli_output_matches_golden_digests(tmp_path):
    make_inputs(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) > 700
    changed = []
    for entry in golden:
        code, digest = call(entry["argv"], tmp_path)
        if (code, digest) != (entry["exit"], entry["sha256"]):
            changed.append((" ".join(entry["argv"]), entry["exit"], code))
    assert not changed, f"{len(changed)} calls changed, e.g. {changed[:5]}"


def test_golden_digests_cover_every_subcommand():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    commands = {e["argv"][1] if e["argv"][0] == "--json" else e["argv"][0]
                for e in golden}
    assert commands == {"validate", "orbits", "transitive", "skeleton",
                        "cgeo", "locus", "relcgeo", "weakpoint", "deform",
                        "morita", "morita-homotopy", "tensor", "homotopic",
                        "pullback", "descent-check", "descent-glue",
                        "corpus"}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_inputs(root)
        entries = record(root)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
