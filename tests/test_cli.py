import ast
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

import grpd
from grpd import groups
from grpd import complexity
from grpd.bibundle import unit_bibundle
from grpd.cli import (EXIT_FALSE, EXIT_INPUT, EXIT_INTERNAL, EXIT_LIMIT,
                      EXIT_OK, REPORT_SCHEMA, run)
from grpd.complexity import point_groupoid
from grpd.core import (StrictArrow, discrete_groupoid, disjoint_union,
                       identity_functor, pair_groupoid, restrict)
from grpd.corpus import random_datum, transitive_groupoid
from grpd.formats import (serialize_bibundle, serialize_datum,
                          serialize_functor, serialize_groupoid)
from grpd.homotopy import inclusion_functor

from conftest import _LOOP5, _doubled_hom_sets, _random_functor, _relabel
from test_bench_compare import compare, faked  # noqa: F401 (fixture)
from test_cli_golden import outputs
from test_core import z3_by
from test_formats import corpus_texts, mutate
from test_homotopy import BANG

ERRORS = Path(__file__).resolve().parent / "data" / "cli_errors.json"


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


# ---------------------------------------------------------------------------
# the input files of CLI_ROWS


def _pair3():
    return pair_groupoid("pair3", "123")


def _broken():
    """Pair(3) with 1>2 its own inverse."""
    p3 = _pair3()
    return dataclasses.replace(p3, name="broken",
                               inv={**p3.inv, "1>2": "1>2"})


def _cospan(*blocks) -> str:
    """The restriction "one" of Pair(3) to the object 1, Pair(3), then
    the blocks, each written from the two by a function."""
    p3 = _pair3()
    one = restrict(p3, ["1"], name="one")
    return serialize_groupoid(one) + serialize_groupoid(p3) + "".join(
        block(one, p3) for block in blocks)


def _inclusion(name):
    return lambda one, p3: serialize_functor(
        inclusion_functor(one, p3, name=name))


def _bad_leg(one, p3) -> str:
    """A leg f that sends the unit at 1 to the unit at 2."""
    return serialize_functor(StrictArrow(
        name="f", dom=one, cod=p3, obj_map={"1": "1"},
        arr_map={"1>1": "2>2"}))


def _leg_from_broken(one, p3) -> str:
    """A leg g from broken.grpd's groupoid, the identity on ids."""
    return serialize_functor(StrictArrow(
        name="g", dom=_broken(), cod=p3, obj_map={x: x for x in p3.objects},
        arr_map={a: a for a in p3.arrows}))


def _bang_cospan() -> str:
    """Pair(2) with ids over {a, !} and its identity functor twice, the
    legs L and R of a cospan."""
    bang = _relabel(pair_groupoid("P2", "12"), BANG, "bang")
    return serialize_groupoid(bang) + "".join(
        serialize_functor(dataclasses.replace(identity_functor(bang),
                                              name=leg)) for leg in "LR")


def _swapped_functor(root) -> str:
    """The swap of a discrete pair D, named F as its identity is in
    f_id.grpd."""
    d = discrete_groupoid("D", ["a", "b"])
    ua, ub = d.unit["a"], d.unit["b"]
    return serialize_functor(StrictArrow(
        name="F", dom=d, cod=d, obj_map={"a": "b", "b": "a"},
        arr_map={ua: ub, ub: ua}))


def _read(root: Path, name: str) -> str:
    return Path(_input(root, name)).read_text(encoding="utf-8")


def _printed(argv, root: Path) -> str:
    """The stdout of an in-process call that must exit 0."""
    code, out, err = outputs(argv, root)
    assert code == EXIT_OK, (argv, err)
    return out


def _idfun_parts(root) -> tuple[str, str]:
    """The groupoid block of idfun.grpd, and its functor block."""
    text = _read(root, "idfun.grpd")
    cut = text.index("\nfunctor ") + 1
    return text[:cut], text[cut:]


def _corpus_dir(name, *options):
    def make(root):
        _printed(["corpus", "--seed", "3", "--count", "5", *options,
                  "--out", f"{{dir}}/{name}"], root)
    return make


def _edited(name, old, new, tail=""):
    """A maker: the input ``name`` with ``old`` replaced by ``new``, then
    ``tail``."""
    return lambda root: _read(root, name).replace(old, new) + tail


def _failed_first(command, second=False):
    """A maker: for ``command``, a Pair(2) file whose inv line is
    malformed, or (second) the file after it; each holds what the command
    reads besides the groupoid."""
    def make(root):
        g = pair_groupoid("D", "12")
        good = serialize_groupoid(g)
        named = {"homotopic": serialize_functor(identity_functor(g)),
                 "tensor": serialize_bibundle(unit_bibundle(g)),
                 "morita": ""}[command]
        if second:
            return named or good
        return good.replace("inv 1>2 = 2>1", "inv 1>2 2>1") + named
    return make


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

# (input, a line of STRAY_DATUM, the line inserted after it, the error at
# its line and column)
DATUM_EDITS = (
    ("fiber_twice.desc", "fiber P u1 : a", "fiber P u1 : a",
     "8:1: repeated 'fiber P u1' (first on line 7)"),
    ("fiber_ghost_point.desc", "fiber P u2 : b", "fiber P ghost : z",
     "9:9: piece 'P' does not list 'ghost'"),
    ("fiber_ghost_piece.desc", "fiber P u2 : b", "fiber Q u1 : q",
     "9:7: unknown piece 'Q'"),
    ("map_ghost_point.desc", "map P u2 -> y", "map P ghost -> x",
     "6:7: piece 'P' does not list 'ghost'"),
    ("trans_twice.desc", "trans P P u2 u2 b -> b", "trans P P u1 u1 a -> a",
     "11:1: repeated 'trans P P u1 u1 a' (first on line 9)"))

REPEATED_BASE = """cover C
base: x x
piece U : u
map U u -> x
datum D : C
fiber U u : a
trans U U u u a -> a
"""

# groupoids whose unit and inverse laws hold and whose composition is not
# associative: the order-5 loop as Pair(2) x L, and doubled hom sets whose
# loops are all units
NON_ASSOCIATIVE = {
    "p2L": lambda: transitive_groupoid("p2L", ["1", "2"], _LOOP5),
    "doubled": _doubled_hom_sets}


def _groupoid_text(make):
    """A maker: the serialized groupoid that ``make()`` builds."""
    return lambda root: serialize_groupoid(make())


def _literal(text):
    return lambda root: text


def _tensor_written(root) -> str:
    """pair3.grpd followed by the tensor square of its unit bibundle."""
    unit = _input(root, "unit_p3.grpd")
    return _read(root, "pair3.grpd") + _printed(["tensor", unit, unit], root)


def _morita_written(root) -> str:
    """A corpus member followed by the Morita witness on it and itself."""
    g0 = _input(root, "corpus3/g0.grpd")
    return _read(root, "corpus3/g0.grpd") + _printed(["morita", g0, g0],
                                                     root)


# Every input of CLI_ROWS, by its name under {dir}: each maker takes the
# directory and returns the file's text or bytes, or writes a directory
# itself.  A maker reads other inputs through _read, which makes them.
CLI_INPUTS = {
    "pair3.grpd": _groupoid_text(_pair3),
    "point.grpd": _groupoid_text(
        lambda: point_groupoid("pt_triv", groups.cyclic(1))),
    "bz2.grpd": _groupoid_text(lambda: point_groupoid("BZ2",
                                                      groups.cyclic(2))),
    "disc.grpd": _groupoid_text(lambda: discrete_groupoid("disc", "ab")),
    "mix.grpd": _groupoid_text(lambda: disjoint_union(
        "mix", [pair_groupoid("p2", "12"),
                point_groupoid("B", groups.cyclic(2))])),
    "broken.grpd": _groupoid_text(_broken),
    "cospan.grpd": lambda root: _cospan(_inclusion("f"), _inclusion("g")),
    "badleg.grpd": lambda root: _cospan(_bad_leg, _inclusion("g")),
    "two_faults.grpd": lambda root: _cospan(
        lambda one, p3: serialize_groupoid(_broken()), _bad_leg,
        _leg_from_broken),
    "idfun.grpd": lambda root: serialize_groupoid(_pair3())
    + serialize_functor(identity_functor(_pair3())),
    "datum.grpd": lambda root: serialize_datum(random_datum(
        random.Random(3), "dd", base_size=3, max_fibre=2)[2]),
    "unit_p3.grpd": lambda root: serialize_groupoid(_pair3())
    + serialize_bibundle(unit_bibundle(_pair3())),
    "functor_only.grpd": lambda root: _idfun_parts(root)[1],
    "bad_inv.grpd": _edited("idfun.grpd", "inv 1>2 = 2>1\n",
                            "inv 1>2 2>1\n"),
    "repeat_after_bad.grpd": lambda root: _read(root, "point.grpd").replace(
        "comp k0 k0 = k0", "comp k0 k0 k0") + _read(root, "point.grpd"),
    "functor_first.grpd": lambda root: "".join(reversed(_idfun_parts(root))),
    **{f"{name}.grpd": _groupoid_text(make)
       for name, make in NON_ASSOCIATIVE.items()},
    # Z3 under p.q = q - p: r0 is a right identity only
    "unit.grpd": _groupoid_text(lambda: z3_by(lambda p, q: q - p)),
    # Z3 with each element its own inverse
    "inverse.grpd": _groupoid_text(lambda: z3_by(lambda p, q: p + q)),
    "bang.grpd": lambda root: _bang_cospan(),
    "corpus3": _corpus_dir("corpus3"),
    "corpus12": _corpus_dir("corpus12", "--max-isotropy", "12"),
    "tensor_written.grpd": _tensor_written,
    "morita_written.grpd": _morita_written,
    "holey.grpd": _edited("idfun.grpd", "comp 2>3 1>2 = 1>3\n", ""),
    "g_pair3.grpd": _groupoid_text(lambda: pair_groupoid("g", "123")),
    "g_bz2.grpd": _groupoid_text(lambda: point_groupoid("g",
                                                        groups.cyclic(2))),
    "g_twice.grpd": lambda root: _read(root, "g_pair3.grpd")
    + _read(root, "g_bz2.grpd"),
    "f_id.grpd": lambda root: serialize_groupoid(discrete_groupoid(
        "D", "ab")) + serialize_functor(dataclasses.replace(
            identity_functor(discrete_groupoid("D", "ab")), name="F")),
    "f_swap.grpd": _swapped_functor,
    **{f"failed_{c}.grpd": _failed_first(c)
       for c in ("homotopic", "tensor", "morita")},
    **{f"after_{c}.grpd": _failed_first(c, second=True)
       for c in ("homotopic", "tensor", "morita")},
    "ghost.bib": lambda root: _read(root, "unit_p3.grpd")
    + "ract ghost 1>2 -> 1>1\n",
    "carrier_twice.bib": _edited("unit_p3.grpd", "carrier: 1>1 ",
                                 "carrier: 1>1 1>1 "),
    "bad.grpd": _literal("groupoid g\nnot a line\n"),
    "comp_twice.grpd": lambda root: serialize_groupoid(
        pair_groupoid("pair2", "12")).replace(
        "comp 2>1 1>2 = 1>1\n", "comp 2>1 1>2 = 2>2\ncomp 2>1 1>2 = 1>1\n"),
    "unnamed.grpd": _edited("pair3.grpd", "groupoid pair3", "groupoid"),
    "unnamed_functor.grpd": _edited("pair3.grpd", "inv 1>2 = 2>1",
                                    "inv 1>2 2>1", "functor\n"),
    "latin1.grpd": _literal(b"groupoid g\n  objects: caf\xe9\n"),
    "ff.grpd": _literal(b"\xff"),
    "datum_ok.desc": _literal(STRAY_DATUM),
    "stray_overlap.desc": _literal(STRAY_DATUM + "trans P P u1 u2 a -> b\n"),
    "stray_piece.desc": _literal(STRAY_DATUM + "trans P Q u1 u1 a -> a\n"),
    **{name: _literal(STRAY_DATUM.replace(f"{after}\n",
                                          f"{after}\n{line}\n"))
       for name, after, line, _ in DATUM_EDITS},
    "unmapped.desc": _literal(STRAY_DATUM.replace("map P u2 -> y\n", "")),
    "base_twice.desc": _literal(REPEATED_BASE),
    "obj_missing.grpd": _edited("idfun.grpd", "obj 3 -> 3\n", ""),
    "obj_off.grpd": _edited("idfun.grpd", "obj 3 -> 3\n", "obj 3 -> 9\n"),
    "arr_missing.grpd": _edited("idfun.grpd", "arr 3>3 -> 3>3\n", ""),
}


def _input(root: Path, name: str) -> str:
    """The path of ``name`` under root, made by CLI_INPUTS on first use."""
    path = root / name
    maker = CLI_INPUTS.get(name.partition("/")[0])
    if maker is not None and not path.exists():
        made = maker(root)
        if made is not None:
            path.write_bytes(made.encode() if isinstance(made, str)
                             else made)
    return str(path)


def write_inputs(argv, root: Path) -> None:
    for a in argv:
        if a.startswith("{dir}/"):
            _input(root, a.removeprefix("{dir}/"))


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


def _datum_rows():
    """Each descent subcommand on the datum STRAY_DATUM and on its edits,
    which exit 2 alike."""
    for command in ("descent-check", "descent-glue"):
        yield f"{command}-stray-datum", (
            [command, "{dir}/datum_ok.desc"], EXIT_OK, "out",
            {"descent-check": "cocycle conditions hold\n",
             "descent-glue": "bundle glue(D)\n"}[command])
        for name, message in (
                # u1 sits over x and u2 over y, so (u1, u2) is no overlap
                ("stray_overlap.desc", "error: transition over ('u1', 'u2')"
                 " of ('P', 'P') is not over an overlap pair\n"),
                ("stray_piece.desc", "error: transitions for ('P', 'Q') "
                 "name a piece outside the cover\n"),
                *((name, f"error: {{dir}}/{name}:{error}\n")
                  for name, _, _, error in DATUM_EDITS),
                ("base_twice.desc",
                 "error: cover 'C' lists base point 'x' twice\n")):
            yield f"{command}-{name[:-5].replace('_', '-')}", (
                [command, f"{{dir}}/{name}"], EXIT_INPUT, "err", message)


def _failed_first_rows():
    """Files after one that fails to assemble are still parsed, for their
    headers; what they name of the failed file is unknown to them, and the
    first file's error is the one reported."""
    for command in ("homotopic", "tensor", "morita"):
        yield f"{command}-after-a-failed-file", (
            [command, f"{{dir}}/failed_{command}.grpd",
             f"{{dir}}/after_{command}.grpd"], EXIT_INPUT, "err",
            f"error: {{dir}}/failed_{command}.grpd:10:9: malformed groupoid "
            "line, expected 'inv <id> = <id>'\n")


def _cap_rows():
    """GRPD_ISOTROPY_CAP: a cap below the isotropy order exits 3, and a
    value that is no positive integer exits 2."""
    yield "isotropy-cap-1", (
        ["GRPD_ISOTROPY_CAP=1", "skeleton", "{dir}/bz2.grpd"], EXIT_LIMIT,
        "err", "error: isotropy order 2 at '*' exceeds cap 1\n")
    yield "isotropy-cap-24", (
        ["GRPD_ISOTROPY_CAP=24", "skeleton", "{dir}/bz2.grpd"], EXIT_OK,
        "out", "orbit 2 group 76ad032a0dcb 0,1;1,0\n")
    for value in ("abc", "0", "-3", "2.5", ""):
        yield f"isotropy-cap-{value or 'empty'}", (
            [f"GRPD_ISOTROPY_CAP={value}", "skeleton", "{dir}/bz2.grpd"],
            EXIT_INPUT, "err", "error: GRPD_ISOTROPY_CAP must be a positive "
            f"integer, got {value!r}\n")


def _non_associative_rows():
    """Each command that validates a groupoid names the failing triple."""
    for name in NON_ASSOCIATIVE:
        path = f"{{dir}}/{name}.grpd"
        yield f"cgeo-{name}", (["cgeo", path], EXIT_INPUT, "err",
                               "error: associativity fails on (")
        yield f"morita-{name}", (["morita", path, "{dir}/pair3.grpd"],
                                 EXIT_INPUT, "err",
                                 "error: associativity fails on (")


# Command lines as a shell runs them.  Each row is (argv, exit code, the
# stream, a text that the call prints there); ``{dir}`` is a directory
# that CLI_INPUTS fills on demand, and a leading NAME=value token sets an
# environment variable for that one call.  Each row runs as it is and with
# --json (test_command_line_exit_code_and_text), and error_digests pins
# what it prints in both modes in tests/data/cli_errors.json.  A new row
# names its new inputs in CLI_INPUTS, and the digests are then rewritten.
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
    "validate-p2L": (["validate", "{dir}/p2L.grpd"], EXIT_INPUT, "out",
                     "invalid: associativity fails on ("),
    # a unit or inverse law that the labels refuse: the per-arrow checks
    # name the arrow
    "unit-law": (["validate", "{dir}/unit.grpd"], EXIT_INPUT, "out",
                 "invalid: unit is not an identity against arrow 'r1'\n"),
    "inverse-law": (["validate", "{dir}/inverse.grpd"], EXIT_INPUT, "out",
                    "invalid: inv('r1') is not a two-sided inverse\n"),
    # ids that hold the pullback's separator stay apart: P_2 reads P_1's
    # ids through its computed comp and fails when two merge, and P_1
    # exits 4 naming an id that it repeats
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
    # each subcommand's verdicts on small inputs, both ways where it
    # decides
    "validate-broken": (["validate", "{dir}/broken.grpd"], EXIT_INPUT, "out",
                        "invalid: inv('1>2') has wrong endpoints\n"),
    "cgeo-pair3": (["cgeo", "{dir}/pair3.grpd"], EXIT_OK, "out", "1\n"),
    "cgeo-mix": (["cgeo", "{dir}/mix.grpd"], EXIT_OK, "out", "2\n"),
    "orbits-mix": (["orbits", "{dir}/mix.grpd"], EXIT_OK, "out", "*\n1 2\n"),
    "skeleton-mix": (["skeleton", "{dir}/mix.grpd"], EXIT_OK, "out",
                     "orbit 1 group 5feceb66ffc8 0\n"
                     "orbit 2 group 76ad032a0dcb 0,1;1,0\n"),
    "locus-bz2": (["locus", "{dir}/bz2.grpd"], EXIT_OK, "out", "POINT\n"),
    "locus-mix": (["locus", "{dir}/mix.grpd"], EXIT_OK, "out", "cgeo=2;"),
    "relcgeo-disc": (["relcgeo", "{dir}/disc.grpd", "--subset", "a,b"],
                     EXIT_OK, "out", "2\n"),
    "relcgeo-disc-a": (["relcgeo", "{dir}/disc.grpd", "--subset", "a"],
                       EXIT_OK, "out", "1\n"),
    "transitive-pair3": (["transitive", "{dir}/pair3.grpd"], EXIT_OK, "out",
                         "transitive\n"),
    "transitive-disc": (["transitive", "{dir}/disc.grpd"], EXIT_FALSE, "out",
                        "not transitive\n"),
    "morita-pair3-point": (
        ["morita", "{dir}/pair3.grpd", "{dir}/point.grpd"], EXIT_OK, "out",
        "bibundle B[match_pair3_pt_triv*retr_pair3] : pair3 -| Z |- "
        "pt_triv\n"),
    "morita-bz2-point": (["morita", "{dir}/bz2.grpd", "{dir}/point.grpd"],
                         EXIT_FALSE, "out", "not Morita equivalent\n"),
    "morita-homotopy-pair3-point": (
        ["morita-homotopy", "{dir}/pair3.grpd", "{dir}/point.grpd"], EXIT_OK,
        "out", "span through sk(pair3) (1 objects)\n"),
    "morita-homotopy-bz2-disc": (
        ["morita-homotopy", "{dir}/bz2.grpd", "{dir}/disc.grpd"], EXIT_FALSE,
        "out", "not Morita homotopy equivalent\n"),
    "weakpoint-mix": (["weakpoint", "{dir}/mix.grpd", "--subset", "1,2"],
                      EXIT_OK, "out",
                      "weak point subgroupoid (collapses to '1')\n"),
    "weakpoint-disc": (["weakpoint", "{dir}/disc.grpd", "--subset", "a,b"],
                       EXIT_FALSE, "out", "not a weak point subgroupoid\n"),
    "deform-mix": (["deform", "{dir}/mix.grpd", "--from", "1", "--to", "2"],
                   EXIT_OK, "out", "deformation: 1->2\n"),
    "deform-disc": (["deform", "{dir}/disc.grpd", "--from", "a", "--to",
                     "b"], EXIT_FALSE, "out", "no deformation\n"),
    "homotopic-idfun": (["homotopic", "{dir}/idfun.grpd", "{dir}/idfun.grpd"],
                        EXIT_OK, "out", "homotopic: 1:1>1, 2:2>2, 3:3>3\n"),
    "pullback-cospan": (["pullback", "{dir}/cospan.grpd", "--n", "1"],
                        EXIT_OK, "out", "P_1: 1 objects, 1 arrows\n"),
    "pullback-cospan-n2": (["pullback", "{dir}/cospan.grpd", "--n", "2"],
                           EXIT_OK, "out", "P_2: 3 objects, 9 arrows\n"),
    "descent-check-datum": (["descent-check", "{dir}/datum.grpd"], EXIT_OK,
                            "out", "cocycle conditions hold\n"),
    "descent-glue-datum": (["descent-glue", "{dir}/datum.grpd"], EXIT_OK,
                           "out", "bundle glue(desc(ddA)~)\n"),
    # the corpus itself; the digests pin it across runs and hash seeds
    "corpus-seed-9": (["corpus", "--seed", "9", "--count", "3"], EXIT_OK,
                      "out", "groupoid g0\n"),
    # each command validates what it reads before deciding
    "homotopic-holey": (
        ["homotopic", "{dir}/holey.grpd", "{dir}/holey.grpd"], EXIT_INPUT,
        "err", "error: composable pair ('2>3', '1>2') has no composite\n"),
    # the leg sends the unit at 1 to the unit at 2
    "pullback-bad-leg": (["pullback", "{dir}/badleg.grpd"], EXIT_INPUT, "err",
                         "error: arr_map('1>1') breaks the src/tgt squares\n"),
    # a groupoid fault is named, not the leg that comes first
    "pullback-groupoid-before-legs": (
        ["pullback", "{dir}/two_faults.grpd"], EXIT_INPUT, "err",
        "error: inv('1>2') has wrong endpoints\n"),
    "morita-broken-first": (
        ["morita", "{dir}/broken.grpd", "{dir}/pair3.grpd"], EXIT_INPUT,
        "err", "error: inv('1>2') has wrong endpoints\n"),
    **dict(_non_associative_rows()),
    # files that reuse a name keep their own structures: Pair(3) and BZ2,
    # both named g, and the identity and the swap of a discrete pair, both
    # named F
    "morita-files-reuse-a-groupoid-name": (
        ["morita", "{dir}/g_pair3.grpd", "{dir}/g_bz2.grpd"], EXIT_FALSE,
        "out", "not Morita equivalent\n"),
    "homotopic-files-reuse-a-functor-name": (
        ["homotopic", "{dir}/f_id.grpd", "{dir}/f_swap.grpd"], EXIT_FALSE,
        "out", "not homotopic\n"),
    # input errors, each named with its file, line and column
    "validate-parse-error": (["validate", "{dir}/bad.grpd"], EXIT_INPUT,
                             "err", "error: {dir}/bad.grpd:2:1: unknown "
                             "groupoid line 'not'\n"),
    "validate-missing-file": (["validate", "{dir}/missing.grpd"], EXIT_INPUT,
                              "err", "error: [Errno 2] No such file or "
                              "directory: '{dir}/missing.grpd'\n"),
    "validate-repeated-comp": (["validate", "{dir}/comp_twice.grpd"],
                               EXIT_INPUT, "err",
                               "error: {dir}/comp_twice.grpd:18:1: repeated "
                               "'comp 2>1 1>2' (first on line 17)\n"),
    # a second block of one name is an error, not a replacement
    "validate-one-block": (["validate", "{dir}/g_pair3.grpd"], EXIT_OK,
                           "out", "valid: g (3 objects, 9 arrows)\n"),
    "validate-repeated-block": (["validate", "{dir}/g_twice.grpd"],
                                EXIT_INPUT, "err",
                                "error: {dir}/g_twice.grpd:51:1: repeated "
                                "'groupoid g' (first on line 1)\n"),
    # header errors come before assembly errors in one file, as for two:
    # an unnamed groupoid, and a bad inv line before an unnamed functor
    "validate-unnamed-groupoid": (["validate", "{dir}/unnamed.grpd"],
                                  EXIT_INPUT, "err",
                                  "error: {dir}/unnamed.grpd:1:1: groupoid "
                                  "block without a name\n"),
    "pullback-unnamed-functor": (["pullback", "{dir}/unnamed_functor.grpd"],
                                 EXIT_INPUT, "err",
                                 "error: {dir}/unnamed_functor.grpd:51:1: "
                                 "functor block without a name\n"),
    # a file that is not UTF-8 is named at its first bad byte, also as the
    # second file of a two-file command
    "validate-latin1": (["validate", "{dir}/latin1.grpd"], EXIT_INPUT, "err",
                        "error: {dir}/latin1.grpd:2:15: byte 0xe9 is not "
                        "UTF-8\n"),
    "morita-latin1": (["morita", "{dir}/pair3.grpd", "{dir}/latin1.grpd"],
                      EXIT_INPUT, "err", "error: {dir}/latin1.grpd:2:15: "
                      "byte 0xe9 is not UTF-8\n"),
    "morita-ff": (["morita", "{dir}/pair3.grpd", "{dir}/ff.grpd"], EXIT_INPUT,
                  "err", "error: {dir}/ff.grpd:1:1: byte 0xff is not UTF-8\n"),
    **dict(_failed_first_rows()),
    "tensor-stray-action": (
        ["tensor", "{dir}/ghost.bib", "{dir}/ghost.bib"], EXIT_INPUT, "err",
        "error: action entry ('ghost', '1>2') names an unknown point or "
        "arrow\n"),
    "tensor-carrier-twice": (
        ["tensor", "{dir}/carrier_twice.bib", "{dir}/carrier_twice.bib"],
        EXIT_INPUT, "err", "error: carrier lists '1>1' twice\n"),
    **dict(_datum_rows()),
    "descent-check-unmapped": (
        ["descent-check", "{dir}/unmapped.desc"], EXIT_INPUT, "err",
        "error: {dir}/unmapped.desc:5:11: cover 'C' has no map line for 'u2' "
        "in piece 'P'\n"),
    **dict(_cap_rows()),
    # a cospan file needs two functor blocks, and a functor maps every
    # object and arrow of its domain into its codomain
    "pullback-one-functor": (
        ["pullback", "{dir}/idfun.grpd"], EXIT_INPUT, "err",
        "error: {dir}/idfun.grpd:1:1: cospan file needs two functor "
        "blocks\n"),
    "homotopic-object-unmapped": (
        ["homotopic", "{dir}/obj_missing.grpd", "{dir}/obj_missing.grpd"],
        EXIT_INPUT, "err", "error: object map undefined on '3'\n"),
    "homotopic-object-off-the-codomain": (
        ["homotopic", "{dir}/obj_off.grpd", "{dir}/obj_off.grpd"],
        EXIT_INPUT, "err", "error: obj_map('3') not an object of pair3\n"),
    "homotopic-arrow-unmapped": (
        ["homotopic", "{dir}/arr_missing.grpd", "{dir}/arr_missing.grpd"],
        EXIT_INPUT, "err", "error: arrow map undefined on '3>3'\n"),
}

ENV_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*=")


def _split_env(argv):
    """A command line's leading NAME=value tokens, and the rest."""
    n = next(i for i, a in enumerate(argv) if not ENV_TOKEN.match(a))
    return argv[:n], argv[n:]


def with_json(argv):
    env, rest = _split_env(argv)
    return [*env, "--json", *rest]


def shell_outputs(argv, root: Path):
    """:func:`outputs` of a command line whose leading NAME=value tokens
    set environment variables for that call only."""
    env, rest = _split_env(argv)
    with mock.patch.dict(os.environ, (a.split("=", 1) for a in env)):
        return outputs(rest, root)


def error_digests(root: Path, random_functor):
    """Each distinct call of :func:`fuzz_calls`, then each row of
    ``CLI_ROWS``, in text mode and with ``--json``: the argv, the exit code
    and the sha256 of stdout followed by stderr.  Also returns the tally
    of exit codes over every fuzz call, repeats included.  Each call
    exits 0, 1, 2 or 3, and none prints a traceback or an internal
    error."""
    entries, seen, codes = [], {}, Counter()

    def record(argv):
        for full in (argv, with_json(argv)):
            code, out, err = shell_outputs(full, root)
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
    rows = [argv for argv, *_ in CLI_ROWS.values()]
    assert len({tuple(argv) for argv in rows}) == len(rows)
    for argv in rows:
        write_inputs(argv, root)
        record(argv)
    return entries, codes


def test_every_file_subcommand_keeps_the_exit_contract_on_mutated_files(
        tmp_path, random_functor):
    """A seeded fuzz gate (see :func:`error_digests`).  What each call
    prints is pinned by its digest in ``tests/data/cli_errors.json``, as
    is what each row of ``CLI_ROWS`` prints.  Rewrite the digests only
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


@pytest.mark.parametrize("row", CLI_ROWS)
def test_command_line_exit_code_and_text(tmp_path, row):
    argv, code, stream, text = CLI_ROWS[row]
    write_inputs(argv, tmp_path)
    printed = dict(zip(("exit", "out", "err"), shell_outputs(argv, tmp_path)))
    assert printed["exit"] == code, printed
    assert text in printed[stream], printed
    assert "Traceback" not in printed["out"] + printed["err"]
    # the same call with --json: one report, on stdout only
    json_code, out, err = shell_outputs(with_json(argv), tmp_path)
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert (json_code, err) == (code, ""), (json_code, err)
    assert report["command"] == _split_env(argv)[1][0]
    assert report["ok"] == (code == EXIT_OK)


# The --json reports whose fields are stated, not only pinned by digest.
def row_report(root: Path, row):
    """A row's exit code and --json report, with ``{dir}`` for root."""
    argv = CLI_ROWS[row][0]
    write_inputs(argv, root)
    code, out, _ = shell_outputs(with_json(argv), root)
    return code, json.loads(out)


def assert_error_report(root: Path, row):
    """A row that prints one error line reports that line's message."""
    argv, code, stream, text = CLI_ROWS[row]
    assert stream == "err" and text.startswith("error: ") and \
        text.endswith("\n")
    assert row_report(root, row) == (code, {
        "command": _split_env(argv)[1][0], "ok": False, "error": text[7:-1]})


@pytest.mark.parametrize("case", ["parse", "groupoid", "descent", "env",
                                  "missing", "limit"])
def test_error_reports_are_exact(tmp_path, case):
    assert_error_report(tmp_path, {
        "parse": "validate-parse-error", "groupoid": "morita-broken-first",
        "descent": "descent-glue-stray-overlap", "env": "isotropy-cap-abc",
        "missing": "validate-missing-file", "limit": "isotropy-cap-1"}[case])


@pytest.mark.parametrize("case", ["no groupoid", "unnamed", "pullback"])
def test_one_file_reports_header_errors_first(tmp_path, case):
    assert_error_report(tmp_path, {
        "no groupoid": "lone-functor", "unnamed": "validate-unnamed-groupoid",
        "pullback": "pullback-unnamed-functor"}[case])


def test_pullback_validates_every_groupoid_before_its_legs(tmp_path):
    assert_error_report(tmp_path, "pullback-groupoid-before-legs")


def test_invalid_groupoid_report_is_exact(tmp_path):
    # the one non-zero exit whose report has a result and no error
    assert row_report(tmp_path, "validate-broken") == (EXIT_INPUT, {
        "command": "validate", "ok": False,
        "result": {"valid": False,
                   "violation": "inv('1>2') has wrong endpoints",
                   "witness": "'1>2'"}})


def test_cgeo_json_schema_and_fields(tmp_path):
    code, report = row_report(tmp_path, "cgeo-mix")
    assert (code, report["result"]["cgeo"]) == (EXIT_OK, 2)
    assert list(report["result"]) == ["groupoid", "cgeo", "cover",
                                      "certificates"]


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


@pytest.mark.parametrize("classify", [
    '{"correct": true, "attempted": 9, "failed": 1}',
    '{"correct": false, "attempted": 9, "failed": 2}',
    "Traceback (most recent call last):",
    ""])
def test_bench_record_fails_on_a_wrong_or_missing_result(
        classify, compare, monkeypatch):
    # scripts/bench_compare.py, which also records snapshots: only
    # classify's runs go wrong, and descent's runs are still summarized
    faked(monkeypatch, compare, lambda side, k: {
        "ops_per_s": 100.0, "op_p50_ms": 10.0})
    right = compare.subprocess.run

    def fake_run(argv, **kwargs):
        done = right(argv, **kwargs)
        if argv[0] != "git" and argv[3] == "classify":
            done.stdout = f"log\n{classify}\n"
        return done

    monkeypatch.setattr(compare.subprocess, "run", fake_run)
    code = compare.main(["--base", "HEAD", "--label", "t", "--pairs", "1",
                         "--seconds", "1"])
    wrong = '"correct": true' not in classify
    assert code == (1 if wrong else 0)
    record = json.loads((compare.ROOT / "BENCH_t.json").read_text())
    assert (record["git_rev"], record["seed"], record["seconds"]) == \
        ("rev", 1, 1.0)
    assert [(r["side"], r["correct"], r["attempted"])
            for r in record["runs"]["descent"]] == \
        [("A", True, 9), ("B", True, 9)]
    assert sorted(record["summary"]["descent"]) == \
        ["op_p50_ms", "ops_per_s"]
    assert record["summary"]["classify"] == {}
    classify_runs = [(r["side"], r["correct"], r["attempted"])
                     for r in record["runs"]["classify"]]
    if classify.startswith("{"):
        said = json.loads(classify)["correct"]
        assert classify_runs == [("A", said, 9), ("B", said, 9)]
    else:
        assert classify_runs == []


@pytest.mark.parametrize("argv", [
    ["--label", "a/b"], ["--label", "../up"], ["--label", ""],
    ["--label", "t", "--seconds", "0"], ["--label", "t", "--seconds", "-1"],
    ["--label", "t", "--seconds", "nan"]])
def test_bench_record_rejects_unusable_arguments_before_any_run(
        argv, compare):
    # "--label a/b" ran every workload, then died writing BENCH_a/b.json;
    # "--seconds 0" made every benchmark run crash.  The script runs from
    # a copy in the fixture's repository, whose perfbench/run.py is empty,
    # so a run that was not refused would leave a BENCH_*.json there.
    script = compare.ROOT / "scripts" / "bench_compare.py"
    script.parent.mkdir()
    script.write_text((Path(compare.__file__)).read_text())
    done = subprocess.run([sys.executable, str(script), "--base", "HEAD",
                           *argv], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert "error: --" in done.stderr
    assert "Traceback" not in done.stderr
    assert not list(compare.ROOT.glob("BENCH_*"))


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out.strip().splitlines()[-1])
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_unexpected_exception_exits_4_in_one_line(tmp_path, monkeypatch,
                                                  capsys):
    def broken(g):
        raise KeyError("x")

    pair3 = _input(tmp_path, "pair3.grpd")
    monkeypatch.setattr(complexity, "is_transitive", broken)
    assert run(["transitive", pair3]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'x'\n"
    code, report = run_json(capsys, ["transitive", pair3])
    assert code == EXIT_INTERNAL
    assert report == {"command": "transitive", "ok": False,
                      "error": "internal error: KeyError: 'x'"}


@pytest.mark.parametrize("argv, serializer", [
    (["morita", "{dir}/pair3.grpd", "{dir}/pair3.grpd"],
     "serialize_bibundle"),
    (["tensor", "{dir}/unit_p3.grpd", "{dir}/unit_p3.grpd"],
     "serialize_bibundle"),
    (["descent-glue", "{dir}/datum.grpd"], "serialize_bundle"),
    (["corpus", "--seed", "3", "--count", "2"], "serialize_groupoid")])
def test_a_json_report_serializes_no_structure(tmp_path, monkeypatch,
                                               capsys, argv, serializer):
    """--json leaves out the structure that the text report prints, and
    does not write it; a fault in writing it still exits 4 in text."""
    write_inputs(argv, tmp_path)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]

    def refused(*args):
        raise AssertionError("written")

    monkeypatch.setattr(f"grpd.formats.{serializer}", refused)
    code, report = run_json(capsys, argv)
    assert code == EXIT_OK and report["ok"]
    assert run(argv) == EXIT_INTERNAL
    assert capsys.readouterr() == (
        "", "internal error: AssertionError: written\n")


# Run without ``site`` (-S), whose .pth hooks import third-party modules
# before any grpd code runs; ``__main__`` is the script itself.
STDLIB_ONLY = """
import sys
import grpd.cli
code = grpd.cli.run(["validate", sys.argv[1]])
loaded = {name.partition(".")[0] for name in sys.modules}
print(code, sorted(loaded - set(sys.stdlib_module_names) - {"__main__"}))
"""


def test_runtime_imports_only_the_standard_library(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY,
         _input(tmp_path, "pair3.grpd")],
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



def test_the_console_script_exits_1_and_2_without_a_traceback(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(grpd.__file__).resolve().parents[1]))
    lone = _input(tmp_path, "functor_only.grpd")
    for argv, code, out, err in (
            (["transitive", _input(tmp_path, "mix.grpd")], EXIT_FALSE,
             "not transitive\n", ""),
            (["validate", lone], EXIT_INPUT, "",
             f"error: {lone}:1:1: no groupoid block found\n")):
        done = subprocess.run([sys.executable, "-m", "grpd.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


@pytest.mark.parametrize("name", NON_ASSOCIATIVE)
def test_non_associative_input_exits_2_with_a_failing_triple(tmp_path, capsys,
                                                             name):
    # the rows doubled-hom-sets, validate-p2L, cgeo-<name> and
    # morita-<name> pin the text
    code, report = run_json(capsys, ["validate",
                                     _input(tmp_path, f"{name}.grpd")])
    result = report["result"]
    assert (code, result["violation"]) == (
        EXIT_INPUT, f"associativity fails on {result['witness']}")
    g = NON_ASSOCIATIVE[name]()
    c, b, a = ast.literal_eval(result["witness"])
    assert g.comp[(c, g.comp[(b, a)])] != g.comp[(g.comp[(c, b)], a)]


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries, _ = error_digests(Path(tmp), _random_functor)
    ERRORS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {ERRORS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
