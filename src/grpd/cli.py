"""Command-line front end.

Exit codes: 0 success (and "true" for decision subcommands), 1 negative
decision (false / no witness), 2 input error (parse or axiom failure, a
file that is not UTF-8, an unusable option or environment value), 3
internal limit (isotropy cap), 4 internal error (a defect in grpd: one
line ``internal error: <Type>: <message>``, no traceback).
``--json`` switches every report to a single machine-readable object;
GRPD_ISOTROPY_CAP, a positive integer, overrides the group isomorphism cap
(default 24).

Every handler but ``pullback`` reads its one or two files through
``_load``, which reports header errors (a line before the first block, an
unnamed block, no block of the kind) before any other error in either
file, and validates what it returns; ``pullback`` parses its one file
the same way and takes two functors, which ``homotopy_pullback``
validates, and a P_n that repeats an id exits 4.  A handler returns
``(exit code, result, text lines)`` without printing; where the text is
a serialized structure, the lines come as a function that makes them,
which :func:`run` calls only when it prints text, not ``--json``.
:func:`run` maps exceptions to exit codes and prints the one report
(``_emit``).  A reader that closes stdout early does not change
the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import bibundle as bib
from . import complexity, corpus, descent, formats, homotopy
from .core import (GroupoidError, are_homotopic, first_repeat,
                   validate_functor, validate_groupoid, validate_joined)
from .formats import ParseError
from .homotopy import IsotropyTooLarge

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "ok"],
    "properties": {
        "command": {"type": "string"},
        "ok": {"type": "boolean"},
        "error": {"type": "string"},
        "result": {"type": "object"},
    },
    "additionalProperties": False,
    "allOf": [
        {
            "if": {"properties": {"command": {"const": "cgeo"}},
                   "required": ["command", "result"]},
            "then": {"properties": {"result": {
                "type": "object",
                "required": ["groupoid", "cgeo", "cover", "certificates"],
                "properties": {
                    "groupoid": {"type": "string"},
                    "cgeo": {"type": "integer", "minimum": 0},
                    "cover": {"type": "array",
                              "items": {"type": "array",
                                        "items": {"type": "string"}}},
                    "certificates": {"type": "array"},
                },
            }}},
        },
    ],
}


class BadEnvironment(Exception):
    """An environment variable holds a value the CLI cannot use."""


def _cap() -> int:
    raw = os.environ.get("GRPD_ISOTROPY_CAP", "24")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadEnvironment(
            f"GRPD_ISOTROPY_CAP must be a positive integer, got {raw!r}")
    return cap


def positive_int(raw: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(command: str, as_json: bool, ok: bool, result: dict,
          lines: list[str], error: str | None = None) -> None:
    """Print one report: a JSON object on stdout, or the text lines on
    stdout and the error on stderr."""
    if as_json:
        report = {"command": command, "ok": ok}
        if error is not None:
            report["error"] = error
        if result:
            report["result"] = result
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)


_VALIDATE = {"functors": validate_functor, "bibundles": bib.validate_bibundle}


def _load(paths, kind: str) -> list:
    """The first structure of the kind (a ``Document`` table) that each
    file declares, read by :func:`formats.load` and validated: every
    groupoid once, functors and bibundles after the groupoids they join
    (``validate_joined``).  Descent data are left to ``check_cocycle`` and
    ``glue``, which validate them."""
    _, structures = formats.load(paths, kind)
    if kind == "groupoids":
        for g in dict.fromkeys(structures):
            validate_groupoid(g)
    elif kind != "data":
        validate_joined(structures, _VALIDATE[kind])
    return structures


def _subset(g, raw: str):
    return complexity.subgroupoid(g, [s for s in raw.split(",") if s])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, result, text lines)


def _cmd_validate(args):
    try:
        [g] = _load([args.file], "groupoids")
    except GroupoidError as err:
        result = {"valid": False, "violation": str(err),
                  "witness": repr(err.witness)}
        return EXIT_INPUT, result, [f"invalid: {err}"]
    result = {"valid": True, "groupoid": g.name,
              "objects": len(g.objects), "arrows": len(g.arrows)}
    return EXIT_OK, result, [f"valid: {g.name} ({len(g.objects)} objects, "
                             f"{len(g.arrows)} arrows)"]


def _cmd_orbits(args):
    [g] = _load([args.file], "groupoids")
    blocks = g.components
    result = {"groupoid": g.name, "orbits": [list(b) for b in blocks]}
    return EXIT_OK, result, [" ".join(b) for b in blocks]


def _cmd_transitive(args):
    [g] = _load([args.file], "groupoids")
    ok = complexity.is_transitive(g)
    result = {"groupoid": g.name, "transitive": ok}
    if not ok:
        return EXIT_FALSE, result, ["not transitive"]
    return EXIT_OK, result, ["transitive"]


def _cmd_skeleton(args):
    [g] = _load([args.file], "groupoids")
    text = homotopy.skeletonize(g, cap=_cap()).serialize()
    return EXIT_OK, {"groupoid": g.name, "skeleton": text.splitlines()}, [text]


def _cmd_morita(args):
    h, g = _load([args.a, args.b], "groupoids")
    witness = bib.are_morita_equivalent(h, g, cap=_cap())
    if witness is None:
        return EXIT_FALSE, {"equivalent": False}, ["not Morita equivalent"]
    result = {"equivalent": True, "carrier": list(witness.carrier)}
    return EXIT_OK, result, lambda: [
        formats.serialize_bibundle(witness).rstrip("\n")]


def _cmd_morita_homotopy(args):
    h, g = _load([args.a, args.b], "groupoids")
    span = homotopy.are_morita_homotopy_equivalent(h, g, cap=_cap())
    if span is None:
        return (EXIT_FALSE, {"equivalent": False},
                ["not Morita homotopy equivalent"])
    result = {"equivalent": True, "mid": span.mid.name,
              "mid_objects": list(span.mid.objects)}
    return EXIT_OK, result, [f"span through {span.mid.name} "
                             f"({len(span.mid.objects)} objects)"]


def _cmd_cgeo(args):
    [g] = _load([args.file], "groupoids")
    value, cert = complexity.cgeo_with_cover(g)
    certificates = [
        {"point_object": w.point_object, "vacuous": w.vacuous,
         "homotopy": dict(w.homotopy.component) if w.homotopy else None}
        for w in cert.witnesses]
    result = {"groupoid": g.name, "cgeo": value,
              "cover": [list(piece) for piece in cert.pieces],
              "certificates": certificates}
    return EXIT_OK, result, [str(value)]


def _cmd_relcgeo(args):
    [g] = _load([args.file], "groupoids")
    sub = _subset(g, args.subset)
    value = complexity.relative_cgeo(sub)
    result = {"groupoid": g.name, "subset": list(sub.objects),
              "relative_cgeo": value}
    return EXIT_OK, result, [str(value)]


def _cmd_weakpoint(args):
    [g] = _load([args.file], "groupoids")
    sub = _subset(g, args.subset)
    witness = complexity.is_weak_point_subgroupoid(sub)
    if witness is None:
        return (EXIT_FALSE, {"weak_point": False},
                ["not a weak point subgroupoid"])
    result = {"weak_point": True, "point_object": witness.point_object,
              "vacuous": witness.vacuous}
    return EXIT_OK, result, [
        f"weak point subgroupoid (collapses to {witness.point_object!r})"
        if not witness.vacuous
        else "weak point subgroupoid (vacuously: empty)"]


def _cmd_deform(args):
    [g] = _load([args.file], "groupoids")
    h = _subset(g, getattr(args, "from"))
    k = _subset(g, args.to)
    diagram = complexity.exists_deformation(h, k)
    if diagram is None:
        return EXIT_FALSE, {"deformation": False}, ["no deformation"]
    transport = diagram.transport.obj_map
    result = {"deformation": True, "transport": dict(transport)}
    return EXIT_OK, result, ["deformation: " + ", ".join(
        f"{x}->{y}" for x, y in sorted(transport.items()))]


def _cmd_tensor(args):
    z1, z2 = _load([args.z1, args.z2], "bibundles")
    product = bib.validate_bibundle(bib.tensor(z1, z2))
    result = {"carrier": list(product.carrier),
              "dom": product.dom.name, "cod": product.cod.name}
    return EXIT_OK, result, lambda: [
        formats.serialize_bibundle(product).rstrip("\n")]


def _cmd_homotopic(args):
    f, g = _load([args.f, args.g], "functors")
    witness = are_homotopic(f, g)
    if witness is None:
        return EXIT_FALSE, {"homotopic": False}, ["not homotopic"]
    component = witness.component
    result = {"homotopic": True, "component": dict(component)}
    return EXIT_OK, result, ["homotopic: " + ", ".join(
        f"{x}:{c}" for x, c in sorted(component.items()))]


def _cmd_pullback(args):
    doc, _ = formats.load([args.cospan], "functors")
    functors = list(doc.functors.values())
    if len(functors) < 2:
        raise ParseError("cospan file needs two functor blocks",
                         args.cospan, 1, 1)
    left, right = functors[:2]  # homotopy_pullback validates them
    grp = homotopy.homotopy_pullback(homotopy.Cospan(left=left, right=right),
                                     n=args.n).groupoid
    # the counts printed are lengths of the id lists: a merged id is a
    # defect that they would not show
    for ids in (grp.objects, grp.arrows):
        repeat = first_repeat(ids)
        if repeat is not None:
            raise RuntimeError(f"P_{args.n} repeats the id {repeat!r}")
    result = {"degree": args.n, "objects": len(grp.objects),
              "arrows": len(grp.arrows)}
    return EXIT_OK, result, [f"P_{args.n}: {len(grp.objects)} objects, "
                             f"{len(grp.arrows)} arrows"]


def _cmd_descent_check(args):
    [datum] = _load([args.datum], "data")
    report = descent.check_cocycle(datum)
    if report.ok:
        return EXIT_OK, {"cocycle": True}, ["cocycle conditions hold"]
    result = {"cocycle": False, "failure": repr(report.failure)}
    return EXIT_FALSE, result, [f"cocycle failure: {report.failure}"]


def _cmd_descent_glue(args):
    [datum] = _load([args.datum], "data")
    bundle = descent.glue(datum).bundle
    result = {"total": list(bundle.total), "base": list(bundle.base)}
    return EXIT_OK, result, lambda: [
        formats.serialize_bundle(bundle).rstrip("\n")]


def _cmd_locus(args):
    [g] = _load([args.file], "groupoids")
    key = complexity.locus_key(g, cap=_cap())
    return EXIT_OK, {"groupoid": g.name, "locus": key}, [key]


def _cmd_corpus(args):
    cfg = corpus.CorpusConfig(seed=args.seed, count=args.count,
                              max_objects=args.max_objects,
                              max_isotropy=args.max_isotropy)
    members = corpus.corpus_groupoids(cfg)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for g in members:
            (outdir / f"{g.name}.grpd").write_text(
                formats.serialize_groupoid(g), encoding="utf-8")
        lines = [f"wrote {len(members)} groupoids to {outdir}"]
    else:
        def lines():
            return [formats.serialize_groupoid(g).rstrip("\n")
                    for g in members]
    result = {"count": len(members), "names": [g.name for g in members]}
    return EXIT_OK, result, lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="grpd",
        description="Exact computations with finite groupoids: equivalence "
                    "decisions, bibundle tensoring, descent gluing and the "
                    "geometric-complexity covering invariant.")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **files):
        p = sub.add_parser(name)
        for arg, help_text in files.items():
            p.add_argument(arg, help=help_text)
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, file="groupoid file")
    add("orbits", _cmd_orbits, file="groupoid file")
    add("transitive", _cmd_transitive, file="groupoid file")
    add("skeleton", _cmd_skeleton, file="groupoid file")
    add("morita", _cmd_morita, a="first groupoid file",
        b="second groupoid file")
    add("morita-homotopy", _cmd_morita_homotopy, a="first groupoid file",
        b="second groupoid file")
    add("cgeo", _cmd_cgeo, file="groupoid file")
    p = add("relcgeo", _cmd_relcgeo, file="groupoid file")
    p.add_argument("--subset", required=True,
                   help="comma-separated object ids")
    p = add("weakpoint", _cmd_weakpoint, file="groupoid file")
    p.add_argument("--subset", required=True,
                   help="comma-separated object ids")
    p = add("deform", _cmd_deform, file="groupoid file")
    p.add_argument("--from", required=True, help="comma-separated object ids")
    p.add_argument("--to", required=True, help="comma-separated object ids")
    add("tensor", _cmd_tensor, z1="first bibundle file",
        z2="second bibundle file")
    add("homotopic", _cmd_homotopic, f="first functor file",
        g="second functor file")
    p = add("pullback", _cmd_pullback, cospan="file with two functor blocks")
    p.add_argument("--n", type=int, default=1, help="pullback degree")
    add("descent-check", _cmd_descent_check, datum="datum file")
    add("descent-glue", _cmd_descent_glue, datum="datum file")
    add("locus", _cmd_locus, file="groupoid file")
    p = sub.add_parser("corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=positive_int, default=20)
    p.add_argument("--max-objects", type=positive_int, default=6)
    p.add_argument("--max-isotropy", type=positive_int, default=6)
    p.add_argument("--out", default=None, help="directory for .grpd files")
    p.set_defaults(handler=_cmd_corpus)
    return parser


def run(argv=None) -> int:
    """Run one subcommand and print its report; return the exit code."""
    args = build_parser().parse_args(argv)
    result, lines, error = {}, [], None
    try:
        code, result, lines = args.handler(args)
        if callable(lines):
            lines = [] if args.json else lines()
    except IsotropyTooLarge as err:
        code, error = EXIT_LIMIT, str(err)
    except (ParseError, GroupoidError, BadEnvironment, OSError) as err:
        code, error = EXIT_INPUT, str(err)
    except Exception as err:  # a defect, which must not read as "false"
        code = EXIT_INTERNAL
        error = f"internal error: {type(err).__name__}: {err}"
        if not args.json:
            print(error, file=sys.stderr)
            return code
    try:
        _emit(args.command, args.json, code == EXIT_OK, result, lines, error)
    except BrokenPipeError:
        # the reader closed stdout early (as ``| head`` does); the verdict
        # stands, and the interpreter's flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
