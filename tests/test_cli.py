import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import grpd
from grpd import groups
from grpd.cli import (EXIT_FALSE, EXIT_INPUT, EXIT_LIMIT, EXIT_OK,
                      REPORT_SCHEMA, run)
from grpd.complexity import point_groupoid
from grpd.core import (StrictArrow, discrete_groupoid, disjoint_union,
                       identity_functor, pair_groupoid, restrict)
from grpd.corpus import random_datum
from grpd.formats import (serialize_datum, serialize_functor,
                          serialize_groupoid)
from grpd.homotopy import inclusion_functor


@pytest.fixture
def files(tmp_path):
    out = {}

    def write(name, text):
        path = tmp_path / name
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
    import random
    _, _, datum = random_datum(random.Random(3), "dd", base_size=3,
                               max_fibre=2)
    write("datum.grpd", serialize_datum(datum))
    from grpd.bibundle import unit_bibundle
    from grpd.formats import serialize_bibundle
    write("unit_p3.grpd", serialize_groupoid(p3)
          + serialize_bibundle(unit_bibundle(p3)))
    return out


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
