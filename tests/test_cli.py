import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import grpd
from grpd import groups
from grpd import complexity
from grpd.cli import (EXIT_FALSE, EXIT_INPUT, EXIT_INTERNAL, EXIT_LIMIT,
                      EXIT_OK, REPORT_SCHEMA, run)
from grpd.complexity import point_groupoid
from grpd.core import (StrictArrow, discrete_groupoid, disjoint_union,
                       identity_functor, pair_groupoid, restrict)
from grpd.corpus import random_datum, transitive_groupoid
from grpd.formats import (serialize_datum, serialize_functor,
                          serialize_groupoid)
from grpd.homotopy import inclusion_functor

from conftest import _doubled_hom_sets, _random_functor, _relabel
from test_cli_golden import outputs
from test_core import z3_by
from test_formats import corpus_texts, mutate
from test_homotopy import BANG

ERRORS = Path(__file__).resolve().parent / "data" / "cli_errors.json"


def write_files(root: Path) -> dict[str, str]:
    """Small input files under root, by name: their paths."""
    out = {}

    def write(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
        return str(path)

    p3 = pair_groupoid("pair3", ["1", "2", "3"])
    write("pair3.grpd", serialize_groupoid(p3))
    write("point.grpd", serialize_groupoid(
        point_groupoid("pt_triv", groups.cyclic(1))))
    write("bz2.grpd", serialize_groupoid(
        point_groupoid("BZ2", groups.cyclic(2))))
    write("disc.grpd", serialize_groupoid(
        discrete_groupoid("disc", ["a", "b"])))
    write("mix.grpd", serialize_groupoid(disjoint_union(
        "mix", [pair_groupoid("p2", ["1", "2"]),
                point_groupoid("B", groups.cyclic(2))])))
    broken = dataclasses.replace(p3, name="broken",
                                 inv={**p3.inv, "1>2": "1>2"})
    write("broken.grpd", serialize_groupoid(broken))
    one = restrict(p3, ["1"], name="one")
    write("cospan.grpd",
          serialize_groupoid(one) + serialize_groupoid(p3)
          + serialize_functor(inclusion_functor(one, p3, name="f"))
          + serialize_functor(inclusion_functor(one, p3, name="g")))
    unit_to_unit = StrictArrow(name="f", dom=one, cod=p3,
                               obj_map={"1": "1"}, arr_map={"1>1": "2>2"})
    write("badleg.grpd",
          serialize_groupoid(one) + serialize_groupoid(p3)
          + serialize_functor(unit_to_unit)
          + serialize_functor(inclusion_functor(one, p3, name="g")))
    write("idfun.grpd", serialize_groupoid(p3)
          + serialize_functor(identity_functor(p3)))
    _, _, datum = random_datum(random.Random(3), "dd", base_size=3,
                               max_fibre=2)
    write("datum.grpd", serialize_datum(datum))
    from grpd.bibundle import unit_bibundle
    from grpd.formats import serialize_bibundle
    write("unit_p3.grpd", serialize_groupoid(p3)
          + serialize_bibundle(unit_bibundle(p3)))
    return out


@pytest.fixture
def files(tmp_path):
    return write_files(tmp_path)


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out.strip().splitlines()[-1])
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_cgeo_prints_the_value(files, capsys):
    assert run(["cgeo", files["pair3.grpd"]]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_cgeo_json_schema_and_fields(files, capsys):
    code, report = run_json(capsys, ["cgeo", files["mix.grpd"]])
    assert code == EXIT_OK
    assert report["result"]["cgeo"] == 2
    assert list(report["result"]) == ["groupoid", "cgeo", "cover",
                                      "certificates"]


def test_validate_broken_exits_2_with_witness(files, capsys):
    assert run(["validate", files["broken.grpd"]]) == EXIT_INPUT
    out = capsys.readouterr().out
    assert "inv" in out and "1>2" in out


def test_validate_ok(files, capsys):
    assert run(["validate", files["pair3.grpd"]]) == EXIT_OK


def test_morita_witness_and_exit_codes(files, capsys):
    assert run(["morita", files["pair3.grpd"], files["point.grpd"]]) \
        == EXIT_OK
    assert "bibundle" in capsys.readouterr().out
    assert run(["morita", files["bz2.grpd"], files["point.grpd"]]) \
        == EXIT_FALSE


def test_decision_commands(files):
    assert run(["transitive", files["pair3.grpd"]]) == EXIT_OK
    assert run(["transitive", files["disc.grpd"]]) == EXIT_FALSE
    assert run(["morita-homotopy", files["pair3.grpd"],
                files["point.grpd"]]) == EXIT_OK
    assert run(["morita-homotopy", files["bz2.grpd"],
                files["disc.grpd"]]) == EXIT_FALSE
    assert run(["weakpoint", files["mix.grpd"], "--subset", "1,2"]) == EXIT_OK
    assert run(["weakpoint", files["disc.grpd"], "--subset", "a,b"]) \
        == EXIT_FALSE
    assert run(["deform", files["disc.grpd"], "--from", "a", "--to", "b"]) \
        == EXIT_FALSE
    assert run(["homotopic", files["idfun.grpd"], files["idfun.grpd"]]) \
        == EXIT_OK


def test_orbits_skeleton_locus(files, capsys):
    assert run(["orbits", files["mix.grpd"]]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert run(["skeleton", files["mix.grpd"]]) == EXIT_OK
    assert "orbit" in capsys.readouterr().out
    assert run(["locus", files["bz2.grpd"]]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "POINT"


def test_relcgeo(files, capsys):
    assert run(["relcgeo", files["disc.grpd"], "--subset", "a,b"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_homotopic_validates_its_groupoids(files, tmp_path, capsys):
    text = Path(files["idfun.grpd"]).read_text(encoding="utf-8")
    assert "comp 2>3 1>2 = 1>3\n" in text
    holey = tmp_path / "holey.grpd"
    holey.write_text(text.replace("comp 2>3 1>2 = 1>3\n", ""),
                     encoding="utf-8")
    assert run(["homotopic", str(holey), str(holey)]) == EXIT_INPUT
    assert "('2>3', '1>2') has no composite" in capsys.readouterr().err


def test_files_reusing_a_groupoid_name_keep_their_own(tmp_path, capsys):
    # Pair(3) and BZ2, both named g: not Morita equivalent
    a, b = tmp_path / "a.grpd", tmp_path / "b.grpd"
    a.write_text(serialize_groupoid(pair_groupoid("g", ["1", "2", "3"])),
                 encoding="utf-8")
    b.write_text(serialize_groupoid(point_groupoid("g", groups.cyclic(2))),
                 encoding="utf-8")
    assert run(["morita", str(a), str(b)]) == EXIT_FALSE
    assert capsys.readouterr().out == "not Morita equivalent\n"


def test_files_reusing_a_functor_name_keep_their_own(tmp_path, capsys):
    # the identity and the swap of a discrete pair, both named F: not
    # homotopic
    d = discrete_groupoid("D", ["a", "b"])
    ua, ub = d.unit["a"], d.unit["b"]
    swap = StrictArrow(name="F", dom=d, cod=d, obj_map={"a": "b", "b": "a"},
                       arr_map={ua: ub, ub: ua})
    f1, f2 = tmp_path / "f1.grpd", tmp_path / "f2.grpd"
    f1.write_text(serialize_groupoid(d) + serialize_functor(
        dataclasses.replace(identity_functor(d), name="F")), encoding="utf-8")
    f2.write_text(serialize_functor(swap), encoding="utf-8")
    assert run(["homotopic", str(f1), str(f2)]) == EXIT_FALSE
    assert capsys.readouterr().out == "not homotopic\n"


@pytest.mark.parametrize("command", ["homotopic", "tensor", "morita"])
def test_a_file_after_one_that_fails_to_assemble_exits_2(tmp_path, capsys,
                                                         command):
    """Files after one that fails to assemble are still parsed, for their
    headers; what they name of the failed file is unknown to them, and the
    first file's error is the one reported."""
    from grpd.bibundle import unit_bibundle
    from grpd.formats import serialize_bibundle

    g = pair_groupoid("D", ["1", "2"])
    good = serialize_groupoid(g)
    bad = good.replace("inv 1>2 = 2>1", "inv 1>2 2>1")
    line = bad.splitlines().index("inv 1>2 2>1") + 1
    named = {"homotopic": serialize_functor(identity_functor(g)),
             "tensor": serialize_bibundle(unit_bibundle(g)),
             "morita": ""}[command]
    a, b = tmp_path / "a.grpd", tmp_path / "b.grpd"
    a.write_text(bad + named, encoding="utf-8")
    b.write_text(named or good, encoding="utf-8")
    assert run([command, str(a), str(b)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {a}:{line}:9: malformed groupoid line, expected "
        "'inv <id> = <id>'\n")


def test_stray_action_entry_exits_2(files, tmp_path, capsys):
    text = Path(files["unit_p3.grpd"]).read_text(encoding="utf-8")
    ghost = tmp_path / "ghost.bib"
    ghost.write_text(text + "ract ghost 1>2 -> 1>1\n", encoding="utf-8")
    assert run(["tensor", str(ghost), str(ghost)]) == EXIT_INPUT
    assert "('ghost', '1>2') names an unknown point" \
        in capsys.readouterr().err


def test_duplicate_carrier_id_exits_2(files, tmp_path, capsys):
    text = Path(files["unit_p3.grpd"]).read_text(encoding="utf-8")
    assert "carrier: 1>1 " in text
    twice = tmp_path / "twice.bib"
    twice.write_text(text.replace("carrier: 1>1 ", "carrier: 1>1 1>1 "),
                     encoding="utf-8")
    assert run(["tensor", str(twice), str(twice)]) == EXIT_INPUT
    assert "carrier lists '1>1' twice" in capsys.readouterr().err


STRAY_DATUM = """cover C
base: x y
piece P : u1 u2
map P u1 -> x
map P u2 -> y
datum D : C
fiber P u1 : a
fiber P u2 : b
trans P P u1 u1 a -> a
trans P P u2 u2 b -> b
"""


@pytest.mark.parametrize("line, message", [
    # u1 sits over x and u2 over y, so (u1, u2) is no overlap pair
    ("trans P P u1 u2 a -> b",
     "transition over ('u1', 'u2') of ('P', 'P') is not over an overlap pair"),
    ("trans P Q u1 u1 a -> a",
     "transitions for ('P', 'Q') name a piece outside the cover")])
@pytest.mark.parametrize("command", ["descent-check", "descent-glue"])
def test_stray_transition_exits_2(tmp_path, capsys, command, line, message):
    path = tmp_path / "stray.desc"
    path.write_text(STRAY_DATUM + line + "\n", encoding="utf-8")
    assert run([command, str(path)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_pullback(files, capsys):
    assert run(["pullback", files["cospan.grpd"], "--n", "2"]) == EXIT_OK
    assert "P_2" in capsys.readouterr().out


def test_pullback_validates_its_legs(files, capsys):
    # the leg sends the unit at 1 to the unit at 2
    assert run(["pullback", files["badleg.grpd"]]) == EXIT_INPUT
    assert "arr_map('1>1') breaks the src/tgt squares" \
        in capsys.readouterr().err
    code, report = run_json(capsys, ["pullback", files["badleg.grpd"]])
    assert code == EXIT_INPUT and not report["ok"]
    assert "1>1" in report["error"]


def test_tensor(files, capsys):
    assert run(["tensor", files["unit_p3.grpd"], files["unit_p3.grpd"]]) \
        == EXIT_OK
    assert "carrier:" in capsys.readouterr().out


def test_descent_commands(files, capsys):
    assert run(["descent-check", files["datum.grpd"]]) == EXIT_OK
    assert run(["descent-glue", files["datum.grpd"]]) == EXIT_OK
    assert "bundle" in capsys.readouterr().out


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.grpd"
    bad.write_text("groupoid g\nnot a line\n", encoding="utf-8")
    assert run(["validate", str(bad)]) == EXIT_INPUT
    assert run(["validate", str(tmp_path / "missing.grpd")]) == EXIT_INPUT


def test_isotropy_cap_env_var(files, monkeypatch, capsys):
    monkeypatch.setenv("GRPD_ISOTROPY_CAP", "1")
    assert run(["skeleton", files["bz2.grpd"]]) == EXIT_LIMIT
    monkeypatch.setenv("GRPD_ISOTROPY_CAP", "24")
    assert run(["skeleton", files["bz2.grpd"]]) == EXIT_OK


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
def test_bad_isotropy_cap_exits_2(files, monkeypatch, capsys, value):
    monkeypatch.setenv("GRPD_ISOTROPY_CAP", value)
    assert run(["skeleton", files["bz2.grpd"]]) == EXIT_INPUT
    assert "GRPD_ISOTROPY_CAP" in capsys.readouterr().err


def test_corpus_subcommand_writes_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run(["corpus", "--seed", "5", "--count", "4",
                "--out", str(out)]) == EXIT_OK
    written = sorted(out.glob("*.grpd"))
    assert len(written) == 4
    for path in written:
        assert run(["validate", str(path)]) == EXIT_OK


def test_corpus_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["corpus", "--seed", "9", "--count", "3", "--out", str(a)])
    run(["corpus", "--seed", "9", "--count", "3", "--out", str(b)])
    for pa, pb in zip(sorted(a.glob("*")), sorted(b.glob("*"))):
        assert pa.read_text() == pb.read_text()


def test_json_reports_validate_against_schema(files, capsys):
    for argv in (["validate", files["pair3.grpd"]],
                 ["orbits", files["mix.grpd"]],
                 ["transitive", files["disc.grpd"]],
                 ["skeleton", files["mix.grpd"]],
                 ["morita", files["pair3.grpd"], files["point.grpd"]],
                 ["locus", files["mix.grpd"]],
                 ["relcgeo", files["disc.grpd"], "--subset", "a"],
                 ["weakpoint", files["mix.grpd"], "--subset", "1,2"],
                 ["deform", files["mix.grpd"], "--from", "1", "--to", "2"],
                 ["homotopic", files["idfun.grpd"], files["idfun.grpd"]],
                 ["pullback", files["cospan.grpd"], "--n", "1"],
                 ["descent-check", files["datum.grpd"]],
                 ["descent-glue", files["datum.grpd"]],
                 ["tensor", files["unit_p3.grpd"], files["unit_p3.grpd"]],
                 ["validate", files["broken.grpd"]]):
        code, report = run_json(capsys, argv)
        assert report["command"] == argv[0]
        # decision reports expose ok; errors carry a message
        if code == EXIT_INPUT:
            assert "error" in report or not report["ok"]


def test_repeated_comp_line_exits_2(tmp_path, capsys):
    text = serialize_groupoid(pair_groupoid("pair2", ["1", "2"]))
    assert "comp 2>1 1>2 = 1>1\n" in text
    path = tmp_path / "twice.grpd"
    path.write_text(text.replace("comp 2>1 1>2 = 1>1\n",
                                 "comp 2>1 1>2 = 2>2\ncomp 2>1 1>2 = 1>1\n"),
                    encoding="utf-8")
    line = text.splitlines().index("comp 2>1 1>2 = 1>1") + 2
    assert run(["validate", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:{line}:1: repeated 'comp 2>1 1>2' "
        f"(first on line {line - 1})\n")


def test_repeated_block_exits_2(tmp_path, capsys):
    first = serialize_groupoid(pair_groupoid("g", ["1", "2"]))
    second = serialize_groupoid(point_groupoid("g", groups.cyclic(2)))
    path = tmp_path / "twice.grpd"
    path.write_text(first, encoding="utf-8")
    assert run(["validate", str(path)]) == EXIT_OK
    capsys.readouterr()
    # the second block used to replace the first without a word
    path.write_text(first + second, encoding="utf-8")
    line = first.count("\n") + 1
    message = f"{path}:{line}:1: repeated 'groupoid g' (first on line 1)"
    assert run(["validate", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    code, report = run_json(capsys, ["validate", str(path)])
    assert code == EXIT_INPUT and not report["ok"]
    assert report["error"] == message


@pytest.mark.parametrize("after, line, message", [
    ("fiber P u1 : a", "fiber P u1 : a",
     "repeated 'fiber P u1' (first on line 7)"),
    ("fiber P u2 : b", "fiber P ghost : z",
     "piece 'P' does not list 'ghost'"),
    ("fiber P u2 : b", "fiber Q u1 : q", "unknown piece 'Q'"),
    ("map P u2 -> y", "map P ghost -> x", "piece 'P' does not list 'ghost'"),
    ("trans P P u2 u2 b -> b", "trans P P u1 u1 a -> a",
     "repeated 'trans P P u1 u1 a' (first on line 9)")])
@pytest.mark.parametrize("command", ["descent-check", "descent-glue"])
def test_repeated_or_stray_datum_line_exits_2(tmp_path, capsys, command,
                                              after, line, message):
    path = tmp_path / "extra.desc"
    path.write_text(STRAY_DATUM, encoding="utf-8")
    assert run([command, str(path)]) == EXIT_OK
    capsys.readouterr()
    text = STRAY_DATUM.replace(f"{after}\n", f"{after}\n{line}\n")
    path.write_text(text, encoding="utf-8")
    number = STRAY_DATUM.splitlines().index(after) + 2
    assert run([command, str(path)]) == EXIT_INPUT
    assert f"{path}:{number}:" in capsys.readouterr().err
    assert run(["--json", command, str(path)]) == EXIT_INPUT
    assert message in json.loads(capsys.readouterr().out)["error"]


def test_cover_without_a_map_line_exits_2(tmp_path, capsys):
    path = tmp_path / "unmapped.desc"
    path.write_text(STRAY_DATUM.replace("map P u2 -> y\n", ""),
                    encoding="utf-8")
    assert run(["descent-check", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:5:11: cover 'C' has no map line for 'u2' in piece "
        "'P'\n")


REPEATED_BASE = """cover C
base: x x
piece U : u
map U u -> x
datum D : C
fiber U u : a
trans U U u u a -> a
"""


@pytest.mark.parametrize("command", ["descent-check", "descent-glue"])
def test_cover_listing_a_base_point_twice_exits_2(tmp_path, capsys, command):
    path = tmp_path / "twice.desc"
    path.write_text(REPEATED_BASE, encoding="utf-8")
    message = "cover 'C' lists base point 'x' twice"
    assert run([command, str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    code, report = run_json(capsys, [command, str(path)])
    assert code == EXIT_INPUT
    assert report == {"command": command, "ok": False, "error": message}


def test_non_utf8_file_exits_2_at_its_first_bad_byte(files, tmp_path,
                                                     capsys):
    path = tmp_path / "latin1.grpd"
    path.write_bytes(b"groupoid g\n  objects: caf\xe9\n")
    # it used to print a UnicodeDecodeError traceback and exit 1
    assert run(["validate", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:2:15: byte 0xe9 is not UTF-8\n")
    # two-file commands read through the same reader: the second file
    # is named, after a first one that parses
    assert run(["morita", files["pair3.grpd"], str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:2:15: byte 0xe9 is not UTF-8\n")
    path.write_bytes(b"\xff")
    code, report = run_json(capsys, ["morita", files["pair3.grpd"],
                                     str(path)])
    assert code == EXIT_INPUT
    assert report["error"] == f"{path}:1:1: byte 0xff is not UTF-8"


# file kinds each subcommand reads, in argument order; ``corpus`` reads no
# file and has its own bounds test below
FUZZ_COMMANDS = {
    "validate": ["groupoid"], "orbits": ["groupoid"],
    "transitive": ["groupoid"], "skeleton": ["groupoid"],
    "cgeo": ["groupoid"], "locus": ["groupoid"],
    "relcgeo": ["groupoid", "--subset"], "weakpoint": ["groupoid", "--subset"],
    "deform": ["groupoid", "--from", "--to"],
    "morita": ["groupoid", "groupoid"],
    "morita-homotopy": ["groupoid", "groupoid"],
    "tensor": ["bibundle", "bibundle"],
    "homotopic": ["functor", "other functor"],
    "pullback": ["cospan"],
    "descent-check": ["datum"], "descent-glue": ["datum"],
}
# runs per subcommand; one random edit seldom reaches the datum reader's
# rarer paths (a trans line off the overlaps, a point with no fiber line),
# so the cheap descent subcommands run more often
FUZZ_RUNS = {"descent-check": 150, "descent-glue": 150}


def fuzz_calls(root: Path, random_functor):
    """The seeded fuzz gate's calls, in order, each an argv with ``{dir}``
    for root: corpus files go to every subcommand that reads a file, one
    file of a call (or none) with the parser test's random line edits and
    deleted lines.  An unedited file is written once, so two calls on the
    same unedited files have the same argv."""
    texts = corpus_texts(5, random_functor)
    data = [serialize_datum(random_datum(random.Random(seed), "d",
                                         base_size=4, max_fibre=3)[2])
            for seed in range(3)]
    header = "functor rf[g0->g1]"
    functor = texts[4][texts[4].index(header):]
    mix = serialize_groupoid(disjoint_union(
        "mix", [pair_groupoid("p2", ["1", "2"]),
                point_groupoid("B", groups.cyclic(2))]))
    pools = {"groupoid": texts[1:4] + [mix], "functor": [texts[4]],
             "other functor": [texts[4].replace(header, "functor h")],
             "cospan": [texts[4] + functor.replace(header, "functor g")],
             "bibundle": [texts[5]], "datum": [texts[6]] + data}
    names = {}
    for kind, pool in pools.items():
        for j, text in enumerate(pool):
            names[kind, j] = f"{kind.replace(' ', '-')}-{j}.grpd"
            (root / names[kind, j]).write_text(text, encoding="utf-8")
    rng = random.Random(21)
    for i in range(max(FUZZ_RUNS.values())):
        for command, kinds in FUZZ_COMMANDS.items():
            if i >= FUZZ_RUNS.get(command, 30):
                continue
            picks = [(kind, rng.randrange(len(pools[kind])))
                     for kind in kinds if not kind.startswith("--")]
            victim = rng.randrange(len(picks) + 1)
            argv = [command]
            for k, (kind, j) in enumerate(picks):
                if k != victim:
                    argv.append("{dir}/" + names[kind, j])
                    continue
                text = pools[kind][j]
                for _ in range(rng.randint(1, 2)):
                    text = mutate(rng, text)
                    if rng.random() < 0.25:
                        # mutate edits tokens; a whole line goes only here
                        lines = text.splitlines()
                        del lines[rng.randrange(len(lines))]
                        text = "\n".join(lines)
                name = f"{command}-{i}-{k}.grpd"
                (root / name).write_text(text, encoding="utf-8")
                argv.append(f"{{dir}}/{name}")
            for option in kinds[len(picks):]:
                kind, j = picks[0]
                objects = next(line.split()[1:] for line in
                               pools[kind][j].splitlines()
                               if line.startswith("objects:"))
                ids = rng.sample(objects, rng.randint(1, len(objects)))
                argv += [option, ",".join(ids + ["ghost"] * (i % 7 == 0))]
            yield argv


def error_digests(root: Path, random_functor):
    """Each distinct call of :func:`fuzz_calls`, then each error row of
    ``CLI_ROWS``, in text mode and with ``--json``: the argv, the exit code
    and the sha256 of stdout followed by stderr.  Also returns the tally
    of exit codes over every fuzz call, repeats included.  Each call
    exits 0, 1, 2 or 3, and none prints a traceback or an internal
    error."""
    entries, seen, codes = [], {}, Counter()

    def record(argv):
        for full in (argv, ["--json"] + argv):
            code, out, err = outputs(full, root)
            assert code in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_LIMIT), \
                (full, err)
            assert "Traceback" not in err and "internal error" not in err, \
                (full, err)
            entries.append({"argv": full, "exit": code, "sha256": hashlib
                            .sha256((out + err).encode()).hexdigest()})
        return entries[-2]["exit"]

    for argv in fuzz_calls(root, random_functor):
        if tuple(argv) not in seen:
            seen[tuple(argv)] = record(argv)
        codes[seen[tuple(argv)]] += 1
    files = write_files(root)
    for argv, code, _, _ in CLI_ROWS.values():
        if code == EXIT_INPUT:
            write_inputs(argv, root, files)
            record(argv)
    return entries, codes


def test_every_file_subcommand_keeps_the_exit_contract_on_mutated_files(
        tmp_path, random_functor):
    """A seeded fuzz gate (see :func:`error_digests`).  What each call
    prints is pinned by its digest in ``tests/data/cli_errors.json``, as
    is that of the error rows of ``CLI_ROWS``.  Rewrite the digests only
    when an output change is intended:

        PYTHONPATH=src python tests/test_cli.py
    """
    entries, codes = error_digests(tmp_path, random_functor)
    # the calls reach the deciders as well as the parser's errors
    assert codes[EXIT_OK] > 60 and codes[EXIT_FALSE] > 10 and \
        codes[EXIT_INPUT] > 100
    recorded = json.loads(ERRORS.read_text(encoding="utf-8"))
    changed = [" ".join(new["argv"]) for new, old in zip(entries, recorded)
               if new != old]
    assert (len(entries), changed[:5]) == (len(recorded), []), \
        f"{len(changed)} calls changed"


@pytest.mark.parametrize("option", ["--max-objects", "--max-isotropy",
                                    "--count"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_corpus_bounds_below_1_exit_2(capsys, option, value):
    # --max-isotropy 0 used to crash with IndexError (exit 1) and
    # --max-objects 0 to emit one-object groupoids
    with pytest.raises(SystemExit) as exit_info:
        run(["corpus", "--seed", "1", option, value])
    assert exit_info.value.code == EXIT_INPUT
    assert "must be at least 1" in capsys.readouterr().err
    assert run(["corpus", "--seed", "1", "--count", "1", option, "1"]) \
        == EXIT_OK


@pytest.mark.parametrize("option", ["--count", "--max-isotropy"])
def test_corpus_report_bounds_below_1_exit_2(option):
    # --count 0 crashed in max() of no classes, --max-isotropy 0 in
    # random.choice, both with a traceback and exit 1
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "corpus_report.py"
    done = subprocess.run([sys.executable, str(script), "--seed", "1",
                           option, "0"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == EXIT_INPUT
    assert "must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    """scripts/bench_record.py, writing into tmp_path, which holds a copy
    of BENCHMARK.json."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_record", root / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(
        (root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


@pytest.mark.parametrize("classify", [
    '{"correct": true, "attempted": 9, "failed": 1}',
    '{"correct": false, "attempted": 9, "failed": 2}',
    "Traceback (most recent call last):",
    ""])
def test_bench_record_fails_on_a_wrong_or_missing_result(
        classify, bench_record, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "git_rev", lambda: "rev")
    runs = []

    def fake_run(argv, **kwargs):
        workload = argv[argv.index("--workload") + 1]
        runs.append(workload)
        out = classify if workload == "classify" else \
            '{"correct": true, "attempted": 5, "failed": 0}'
        return subprocess.CompletedProcess(argv, 0, f"metrics\n{out}\n", "")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    code = bench_record.main(["--label", "t", "--seconds", "1"])
    assert runs == ["classify", "construct", "descent"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (record["git_rev"], record["seed"], record["seconds"]) == \
        ("rev", 1, 1.0)
    assert record["results"]["descent"]["attempted"] == 5
    wrong = '"correct": true' not in classify
    assert code == (1 if wrong else 0)
    assert (record["results"]["classify"] is None) == \
        (not classify.startswith("{"))


@pytest.mark.parametrize("argv", [
    ["--label", "a/b"], ["--label", "../up"], ["--label", ""],
    ["--label", "t", "--seconds", "0"], ["--label", "t", "--seconds", "-1"],
    ["--label", "t", "--seconds", "nan"]])
def test_bench_record_rejects_unusable_arguments_before_any_run(
        argv, bench_record, tmp_path, monkeypatch, capsys):
    # "--label a/b" ran every workload, then died writing BENCH_a/b.json;
    # "--seconds 0" made every benchmark run crash
    def no_run(argv, **kwargs):
        raise AssertionError(f"ran {argv}")

    monkeypatch.setattr(bench_record.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(argv)
    assert exit_info.value.code == 2
    assert "error: --" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def test_unexpected_exception_exits_4_in_one_line(files, monkeypatch,
                                                  capsys):
    def broken(g):
        raise KeyError("x")

    monkeypatch.setattr(complexity, "is_transitive", broken)
    assert run(["transitive", files["pair3.grpd"]]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'x'\n"
    code, report = run_json(capsys, ["transitive", files["pair3.grpd"]])
    assert code == EXIT_INTERNAL
    assert report == {"command": "transitive", "ok": False,
                      "error": "internal error: KeyError: 'x'"}


# Run without ``site`` (-S), whose .pth hooks import third-party modules
# before any grpd code runs; ``__main__`` is the script itself.
STDLIB_ONLY = """
import sys
import grpd.cli
code = grpd.cli.run(["validate", sys.argv[1]])
loaded = {name.partition(".")[0] for name in sys.modules}
print(code, sorted(loaded - set(sys.stdlib_module_names) - {"__main__"}))
"""


def test_runtime_imports_only_the_standard_library(files):
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY, files["pair3.grpd"]],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 ['grpd']"


def test_every_runtime_module_imports_only_the_standard_library():
    """Each module of the package is parsed, not run, so an import on a
    path that no subcommand takes is caught too."""
    allowed = set(sys.stdlib_module_names) | {"grpd"}
    paths = sorted(Path(grpd.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside grpd
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []


# Top-level definitions in grpd that no code path reaches, by reason.  A
# name leaves this list when something starts to call it.
UNREACHED = {
    # perfbench's tracer names these as strings only (ROADMAP item 7)
    "is_isomorphic": "traced only", "enumerate_homs": "traced only",
    "_homs": "traced only", "_extend_by_products": "traced only",
    "_element_orders": "traced only", "is_principal": "traced only",
    "Principality": "traced only",
    # witness builders that no subcommand routes yet (ROADMAP item 2)
    "is_essential_equivalence": "witness",
    "EssentialEquivalence": "witness",
    # test vocabulary: the tests build discrete groupoids with it
    "discrete_groupoid": "tests",
}


def _names(node):
    """Every name and attribute name that occurs under the node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _reach(roots, defs):
    """The names reached from the roots through the bodies of defs."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in defs.get(name, ()):
                todo += _names(node) - seen
    return seen


def test_every_runtime_definition_is_reached_or_listed_with_a_reason():
    """An AST walk over names.  Its roots are every name in cli.py,
    scripts/*.py and perfbench/*.py and in each runtime module's top-level
    statements other than definitions and imports; a reached definition
    adds the names in its body.  The strings in perfbench's tracer lists
    are not roots: the names only they reach are the ones listed as
    "traced only".  The walk matches names, not bindings, so an unrelated
    attribute of the same name counts as a use."""
    pkg = Path(grpd.__file__).resolve().parent
    repo = pkg.parents[1]
    defs, roots = {}, set()
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "cli.py":
            roots |= _names(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    tools = sorted(repo.glob("scripts/*.py")) + sorted(
        repo.glob("perfbench/*.py"))
    assert len(tools) >= 8
    traced = set()
    for path in tools:
        tree = ast.parse(path.read_text(), str(path))
        roots |= _names(tree)
        if path.name == "spans.py":
            traced = {n.value for n in ast.walk(tree)
                      if isinstance(n, ast.Constant)
                      and isinstance(n.value, str) and n.value.isidentifier()}
    reached = _reach(roots, defs)
    unreached = set(defs) - reached
    assert sorted(unreached - set(UNREACHED)) == []
    # a listed name that became reachable leaves the list
    assert sorted(set(UNREACHED) - unreached) == []
    # the tracer's string lists reach exactly the names listed for them
    assert sorted(unreached - _reach(roots | traced, defs)) == sorted(
        name for name, why in UNREACHED.items() if why != "traced only")


def test_a_reader_closing_the_pipe_early_is_not_a_failure():
    """As in ``grpd corpus ... | head -1``: the report (549 KB) overflows
    the pipe, so writes after the reader closes it fail."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "grpd.cli", "corpus", "--seed", "1",
            "--count", "20"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("groupoid ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_OK
    assert "Traceback" not in err


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _printed(argv, root: Path) -> str:
    """The stdout of an in-process call that must exit 0."""
    code, out, err = outputs(argv, root)
    assert code == EXIT_OK, (argv, err)
    return out


def _idfun_parts(files) -> tuple[str, str]:
    """The groupoid block of idfun.grpd, and its functor block."""
    text = _read(files["idfun.grpd"])
    cut = text.index("\nfunctor ") + 1
    return text[:cut], text[cut:]


def _bang_cospan() -> str:
    """Pair(2) with ids over {a, !} and its identity functor twice, the
    legs L and R of a cospan."""
    bang = _relabel(pair_groupoid("P2", "12"), BANG, "bang")
    return serialize_groupoid(bang) + "".join(
        serialize_functor(dataclasses.replace(identity_functor(bang),
                                              name=leg)) for leg in "LR")


def _corpus_dir(name, *options):
    def make(root, files):
        _printed(["corpus", "--seed", "3", "--count", "5", *options,
                  "--out", f"{{dir}}/{name}"], root)
    return make


def _tensor_written(root, files) -> str:
    """pair3.grpd followed by the tensor square of its unit bibundle."""
    unit = files["unit_p3.grpd"]
    return _read(files["pair3.grpd"]) + _printed(["tensor", unit, unit],
                                                 root)


def _morita_written(root, files) -> str:
    """A corpus member followed by the Morita witness on it and itself."""
    g0 = _input(root, files, "corpus3/g0.grpd")
    return _read(g0) + _printed(["morita", g0, g0], root)


# The inputs of CLI_ROWS that the files fixture lacks, by their name under
# {dir}: each maker returns the file's text, or writes a directory itself.
CLI_INPUTS = {
    "functor_only.grpd": lambda root, files: _idfun_parts(files)[1],
    "bad_inv.grpd": lambda root, files: _read(files["idfun.grpd"]).replace(
        "inv 1>2 = 2>1\n", "inv 1>2 2>1\n"),
    "repeat_after_bad.grpd": lambda root, files: _read(
        files["point.grpd"]).replace("comp k0 k0 = k0", "comp k0 k0 k0")
    + _read(files["point.grpd"]),
    "functor_first.grpd": lambda root, files: "".join(
        reversed(_idfun_parts(files))),
    "doubled.grpd": lambda root, files: serialize_groupoid(
        _doubled_hom_sets()),
    # Z3 under p.q = q - p: r0 is a right identity only
    "unit.grpd": lambda root, files: serialize_groupoid(
        z3_by(lambda p, q: q - p)),
    # Z3 with each element its own inverse
    "inverse.grpd": lambda root, files: serialize_groupoid(
        z3_by(lambda p, q: p + q)),
    "bang.grpd": lambda root, files: _bang_cospan(),
    "corpus3": _corpus_dir("corpus3"),
    "corpus12": _corpus_dir("corpus12", "--max-isotropy", "12"),
    "tensor_written.grpd": _tensor_written,
    "morita_written.grpd": _morita_written,
}


def _input(root: Path, files, name: str) -> str:
    """The path of ``name`` under root, made by CLI_INPUTS on first use."""
    path = root / name
    maker = CLI_INPUTS.get(name.partition("/")[0])
    if maker is not None and not path.exists():
        text = maker(root, files)
        if text is not None:
            path.write_text(text, encoding="utf-8")
    return str(path)


def write_inputs(argv, root: Path, files) -> None:
    for a in argv:
        if a.startswith("{dir}/"):
            _input(root, files, a.removeprefix("{dir}/"))


def _validate_rows():
    for n in (3, 12):
        for i in range(5):
            yield f"valid-corpus{n}-g{i}", (
                ["validate", f"{{dir}}/corpus{n}/g{i}.grpd"], EXIT_OK, "out",
                f"valid: g{i} (")
    for name, line in (("pair3", "valid: pair3 (3 objects, 9 arrows)\n"),
                       ("point", "valid: pt_triv (1 objects, 1 arrows)\n"),
                       ("bz2", "valid: BZ2 (1 objects, 2 arrows)\n")):
        yield f"valid-{name}", (["validate", f"{{dir}}/{name}.grpd"], EXIT_OK,
                                "out", line)


# Command lines as a shell runs them, each checked for its exit code, a
# text that it prints (on stdout or stderr) and no traceback.  ``{dir}``
# is the directory of the files fixture and of CLI_INPUTS; the error rows
# (exit 2) are also pinned by digests (see error_digests).
CLI_ROWS = {
    # one file passed twice spans through its skeleton, as any
    # relabelled copy does
    "morita-homotopy-one-file-twice": (
        ["morita-homotopy", "{dir}/pair3.grpd", "{dir}/pair3.grpd"],
        EXIT_OK, "out", "span through sk(pair3) (1 objects)\n"),
    "transitive-two-orbits": (["transitive", "{dir}/mix.grpd"], EXIT_FALSE,
                              "out", "not transitive\n"),
    # a lone functor naming a groupoid the file lacks: the header error
    "lone-functor": (
        ["validate", "{dir}/functor_only.grpd"], EXIT_INPUT, "err",
        "error: {dir}/functor_only.grpd:1:1: no groupoid block found\n"),
    # an assembly error in the first file, then a file with no groupoid
    # block: the second file's header error
    "header-error-after-assembly-error": (
        ["morita", "{dir}/bad_inv.grpd", "{dir}/functor_only.grpd"],
        EXIT_INPUT, "err",
        "error: {dir}/functor_only.grpd:1:1: no groupoid block found\n"),
    # a repeated block header wins over an earlier malformed line
    "repeated-header-after-bad-line": (
        ["validate", "{dir}/repeat_after_bad.grpd"], EXIT_INPUT, "err",
        "error: {dir}/repeat_after_bad.grpd:7:1: repeated 'groupoid "
        "pt_triv' (first on line 1)\n"),
    # a functor may come before the groupoid it names
    "functor-before-its-groupoid": (
        ["homotopic", "{dir}/functor_first.grpd", "{dir}/functor_first.grpd"],
        EXIT_OK, "out", "homotopic: 1:1>1, 2:2>2, 3:3>3\n"),
    # hom sets that the spanning tree cannot tell apart: the failing triple
    "doubled-hom-sets": (["validate", "{dir}/doubled.grpd"], EXIT_INPUT,
                         "out", "invalid: associativity fails on ("),
    # a unit or inverse law that the labels refuse: the per-arrow checks
    # name the arrow
    "unit-law": (["validate", "{dir}/unit.grpd"], EXIT_INPUT, "out",
                 "invalid: unit is not an identity against arrow 'r1'\n"),
    "inverse-law": (["validate", "{dir}/inverse.grpd"], EXIT_INPUT, "out",
                    "invalid: inv('r1') is not a two-sided inverse\n"),
    # ids that hold the pullback's separator stay apart: P_2 reads P_1's
    # ids through its computed comp and fails when two merge, while P_1's
    # counts are lengths of its id lists and would not show it
    "pullback-hostile-ids": (["pullback", "{dir}/bang.grpd"], EXIT_OK, "out",
                             "P_1: 4 objects, 16 arrows\n"),
    "pullback-hostile-ids-n2": (
        ["pullback", "--n", "2", "{dir}/bang.grpd"], EXIT_OK, "out",
        "P_2: 8 objects, 64 arrows\n"),
    # written files read back valid: corpus members, also with isotropy
    # up to order 12, and the tabulated examples
    "corpus-out": (
        ["corpus", "--seed", "3", "--count", "5", "--out", "{dir}/out"],
        EXIT_OK, "out", "wrote 5 groupoids to {dir}/out\n"),
    "corpus-out-isotropy-12": (
        ["corpus", "--seed", "3", "--count", "5", "--max-isotropy", "12",
         "--out", "{dir}/out"], EXIT_OK, "out",
        "wrote 5 groupoids to {dir}/out\n"),
    **dict(_validate_rows()),
    # the bibundles that tensor and morita write read back: a groupoid
    # file with a written bibundle on it, tensored with itself
    "tensor-unit": (
        ["tensor", "{dir}/unit_p3.grpd", "{dir}/unit_p3.grpd"], EXIT_OK,
        "out", "bibundle (unit_pair3(.)unit_pair3) : pair3 -| Z |- pair3\n"),
    "morita-written": (
        ["morita", "{dir}/corpus3/g0.grpd", "{dir}/corpus3/g0.grpd"], EXIT_OK,
        "out", "bibundle B[match_g0_g0*retr_g0] : g0 -| Z |- g0\n"),
    "tensor-of-written-tensor": (
        ["tensor", "{dir}/tensor_written.grpd", "{dir}/tensor_written.grpd"],
        EXIT_OK, "out", "bibundle ((unit_pair3(.)unit_pair3)(.)(unit_pair3"
        "(.)unit_pair3)) : pair3 -| Z |- pair3\n"),
    "tensor-of-written-morita": (
        ["tensor", "{dir}/morita_written.grpd", "{dir}/morita_written.grpd"],
        EXIT_OK, "out", "bibundle (B[match_g0_g0*retr_g0](.)B[match_g0_g0"
        "*retr_g0]) : g0 -| Z |- g0\n"),
}


@pytest.mark.parametrize("row", CLI_ROWS)
def test_command_line_exit_code_and_text(files, tmp_path, row):
    argv, code, stream, text = CLI_ROWS[row]
    write_inputs(argv, tmp_path, files)
    printed = dict(zip(("exit", "out", "err"), outputs(argv, tmp_path)))
    assert printed["exit"] == code, printed
    assert text in printed[stream], printed
    assert "Traceback" not in printed["out"] + printed["err"]


def test_the_console_script_exits_1_and_2_without_a_traceback(files,
                                                              tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    lone = _input(tmp_path, files, "functor_only.grpd")
    for argv, code, out, err in (
            (["transitive", files["mix.grpd"]], EXIT_FALSE,
             "not transitive\n", ""),
            (["validate", lone], EXIT_INPUT, "",
             f"error: {lone}:1:1: no groupoid block found\n")):
        done = subprocess.run([sys.executable, "-m", "grpd.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def reports(capsys, argv):
    """(exit code, stdout, stderr) of ``argv`` in text mode, then in JSON
    mode with the stdout parsed as one report."""
    text = (run(argv), *capsys.readouterr())
    code = run(["--json"] + argv)
    out, err = capsys.readouterr()
    assert out.endswith("\n") and out.count("\n") == 1
    return text, (code, json.loads(out), err)


@pytest.mark.parametrize("case", ["parse", "groupoid", "descent", "env",
                                  "missing", "limit"])
def test_error_reports_are_exact(files, tmp_path, monkeypatch, capsys, case):
    bad = tmp_path / "bad.grpd"
    bad.write_text("groupoid g\nnot a line\n", encoding="utf-8")
    stray = tmp_path / "stray.desc"
    stray.write_text(STRAY_DATUM + "trans P P u1 u2 a -> b\n",
                     encoding="utf-8")
    missing = str(tmp_path / "missing.grpd")
    argv, cap, code, message = {
        "parse": (["validate", str(bad)], None, EXIT_INPUT,
                  f"{bad}:2:1: unknown groupoid line 'not'"),
        "groupoid": (["morita", files["broken.grpd"], files["pair3.grpd"]],
                     None, EXIT_INPUT, "inv('1>2') has wrong endpoints"),
        "descent": (["descent-glue", str(stray)], None, EXIT_INPUT,
                    "transition over ('u1', 'u2') of ('P', 'P') is not "
                    "over an overlap pair"),
        "env": (["skeleton", files["bz2.grpd"]], "abc", EXIT_INPUT,
                "GRPD_ISOTROPY_CAP must be a positive integer, got 'abc'"),
        "missing": (["validate", missing], None, EXIT_INPUT,
                    f"[Errno 2] No such file or directory: {missing!r}"),
        "limit": (["skeleton", files["bz2.grpd"]], "1", EXIT_LIMIT,
                  "isotropy order 2 at '*' exceeds cap 1"),
    }[case]
    if cap is not None:
        monkeypatch.setenv("GRPD_ISOTROPY_CAP", cap)
    text, as_json = reports(capsys, argv)
    assert text == (code, "", f"error: {message}\n")
    assert as_json == (code, {"command": argv[0], "ok": False,
                              "error": message}, "")


def test_invalid_groupoid_report_is_exact(files, capsys):
    # the one non-zero exit whose report has a result and no error
    text, as_json = reports(capsys, ["validate", files["broken.grpd"]])
    assert text == (EXIT_INPUT, "invalid: inv('1>2') has wrong endpoints\n",
                    "")
    assert as_json == (EXIT_INPUT, {
        "command": "validate", "ok": False,
        "result": {"valid": False,
                   "violation": "inv('1>2') has wrong endpoints",
                   "witness": "'1>2'"}}, "")


@pytest.mark.parametrize("name", ["p2L", "doubled"])
def test_non_associative_input_exits_2_with_a_failing_triple(
        files, tmp_path, capsys, loop5, doubled_hom_sets, name):
    # the order-5 loop as Pair(2) x L, and doubled hom sets whose loops
    # are all units
    g = {"p2L": transitive_groupoid("p2L", ["1", "2"], loop5),
         "doubled": doubled_hom_sets}[name]
    path = tmp_path / f"{name}.grpd"
    path.write_text(serialize_groupoid(g), encoding="utf-8")
    text, as_json = reports(capsys, ["validate", str(path)])
    violation = as_json[1]["result"]["violation"]
    assert violation.startswith("associativity fails on (")
    assert text == (EXIT_INPUT, f"invalid: {violation}\n", "")
    assert as_json == (EXIT_INPUT, {
        "command": "validate", "ok": False,
        "result": {"valid": False, "violation": violation,
                   "witness": violation[len("associativity fails on "):]}},
        "")
    c, b, a = ast.literal_eval(as_json[1]["result"]["witness"])
    assert g.comp[(c, g.comp[(b, a)])] != g.comp[(g.comp[(c, b)], a)]
    for argv in (["cgeo", str(path)],
                 ["morita", str(path), files["pair3.grpd"]]):
        assert run(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {violation}\n")


def test_pullback_validates_every_groupoid_before_its_legs(tmp_path, capsys):
    p3 = pair_groupoid("pair3", ["1", "2", "3"])
    one = restrict(p3, ["1"], name="one")
    broken = dataclasses.replace(p3, name="broken",
                                 inv={**p3.inv, "1>2": "1>2"})
    # a bad first leg, and an invalid groupoid under the second leg
    bad_leg = StrictArrow(name="f", dom=one, cod=p3, obj_map={"1": "1"},
                          arr_map={"1>1": "2>2"})
    second = StrictArrow(name="g", dom=broken, cod=p3,
                         obj_map={x: x for x in p3.objects},
                         arr_map={a: a for a in p3.arrows})
    path = tmp_path / "two_faults.grpd"
    path.write_text("".join([serialize_groupoid(one), serialize_groupoid(p3),
                             serialize_groupoid(broken),
                             serialize_functor(bad_leg),
                             serialize_functor(second)]), encoding="utf-8")
    # the groupoid fault is named, not the leg that comes first
    assert run(["pullback", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", "error: inv('1>2') has wrong endpoints\n")


@pytest.mark.parametrize("case", ["no groupoid", "unnamed", "pullback"])
def test_one_file_reports_header_errors_first(tmp_path, capsys, case):
    # as for two files: a functor naming a groupoid the file lacks used to
    # report "unknown groupoid", and a bad inv line in the cospan file came
    # before its unnamed functor, both assembly errors
    g = pair_groupoid("pair3", ["1", "2", "3"])
    p3 = serialize_groupoid(g)
    path = tmp_path / "one.grpd"
    command, body, line, message = {
        "no groupoid": ("validate", serialize_functor(identity_functor(g)),
                        1, "no groupoid block found"),
        "unnamed": ("validate", p3.replace("groupoid pair3", "groupoid"), 1,
                    "groupoid block without a name"),
        "pullback": ("pullback", p3.replace("inv 1>2 = 2>1", "inv 1>2 2>1")
                     + "functor\n", p3.count("\n") + 1,
                     "functor block without a name"),
    }[case]
    path.write_text(body, encoding="utf-8")
    error = f"{path}:{line}:1: {message}"
    text, as_json = reports(capsys, [command, str(path)])
    assert text == (EXIT_INPUT, "", f"error: {error}\n")
    assert as_json == (EXIT_INPUT, {"command": command, "ok": False,
                                    "error": error}, "")


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries, _ = error_digests(Path(tmp), _random_functor)
    ERRORS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {ERRORS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
