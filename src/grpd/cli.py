"""Command-line front end.

Exit codes: 0 success (and "true" for decision subcommands), 1 negative
decision (false / no witness), 2 input error (parse or axiom failure, a
file that is not UTF-8, an unusable option or environment value), 3
internal limit (isotropy cap), 4 internal error (a defect in grpd: one
line ``internal error: <Type>: <message>``, no traceback).
``--json`` switches every report to a single machine-readable object;
GRPD_ISOTROPY_CAP, a positive integer, overrides the group isomorphism cap
(default 24).
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
from .core import (GroupoidError, are_homotopic, validate_functor,
                   validate_groupoid)
from .descent import DescentError
from .formats import ParseError
from .groups import InvalidGroupTable
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


class _Reporter:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.lines: list[str] = []
        self.result: dict = {}

    def say(self, text: str):
        self.lines.append(text)

    def emit(self, ok: bool, error: str | None = None) -> None:
        if self.as_json:
            report = {"command": self.command, "ok": ok}
            if error is not None:
                report["error"] = error
            if self.result:
                report["result"] = self.result
            print(json.dumps(report))
        else:
            for line in self.lines:
                print(line)
            if error is not None:
                print(f"error: {error}", file=sys.stderr)


def _first_groupoid(doc: formats.Document, path: str):
    for g in doc.groupoids.values():
        return validate_groupoid(g)
    raise ParseError("no groupoid block found", path, 1, 1)


def _load_groupoid(path: str):
    return _first_groupoid(formats.parse_files([path]), path)


_KIND_LABEL = {"groupoids": "groupoid", "functors": "functor",
               "bibundles": "bibundle"}


def _check_headers(paths, texts, label: str) -> None:
    """Raise the first header error of the files, in order: a line before
    the first block, an unnamed block of the kind, or no such block."""
    for path, text in zip(paths, texts):
        if not formats.declared_names(text, label, source=str(path)):
            raise ParseError(f"no {label} block found", str(path), 1, 1)


def _load_two(paths, kind: str):
    """Parse both files into one namespace, returning the first structure
    of the requested kind declared by each file (the same file may be
    passed twice; cross-file name references are allowed).

    Header errors come first: one in either file is reported before any
    error in assembling either.  The headers are read again only when
    parsing failed or a file declared no block of the kind."""
    label = _KIND_LABEL[kind]
    texts = [formats.read_text(path) for path in paths]
    doc = formats.Document()
    wanted = []
    try:
        for path, text in zip(paths, texts):
            start = len(doc.declared)
            formats.parse_document(text, source=str(path), into=doc)
            wanted.append(next((name for k, name in doc.declared[start:]
                                if k == label), None))
    except ParseError:
        _check_headers(paths, texts, label)
        raise
    if None in wanted:
        _check_headers(paths, texts, label)
    return doc, [getattr(doc, kind)[name] for name in wanted]


def _subset(g, raw: str):
    names = [s for s in raw.split(",") if s]
    return complexity.subgroupoid(g, names)


# ---------------------------------------------------------------------------
# subcommand handlers: populate the reporter, return the exit code


def _cmd_validate(args, rep):
    try:
        g = _load_groupoid(args.file)
    except GroupoidError as err:
        rep.result = {"valid": False, "violation": str(err),
                      "witness": repr(err.witness)}
        rep.say(f"invalid: {err}")
        rep.emit(False)
        return EXIT_INPUT
    rep.result = {"valid": True, "groupoid": g.name,
                  "objects": len(g.objects), "arrows": len(g.arrows)}
    rep.say(f"valid: {g.name} ({len(g.objects)} objects, "
            f"{len(g.arrows)} arrows)")
    rep.emit(True)
    return EXIT_OK


def _cmd_orbits(args, rep):
    g = _load_groupoid(args.file)
    part = complexity.orbits(g)
    rep.result = {"groupoid": g.name,
                  "orbits": [list(b) for b in part.blocks]}
    for block in part.blocks:
        rep.say(" ".join(block))
    rep.emit(True)
    return EXIT_OK


def _cmd_transitive(args, rep):
    g = _load_groupoid(args.file)
    ok = complexity.is_transitive(g)
    rep.result = {"groupoid": g.name, "transitive": ok}
    rep.say("transitive" if ok else "not transitive")
    rep.emit(ok)
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_skeleton(args, rep):
    g = _load_groupoid(args.file)
    sk = homotopy.skeletonize(g, cap=_cap())
    rep.result = {"groupoid": g.name, "skeleton": sk.serialize().splitlines()}
    rep.say(sk.serialize())
    rep.emit(True)
    return EXIT_OK


def _cmd_morita(args, rep):
    _, (h, g) = _load_two([args.a, args.b], "groupoids")
    h, g = validate_groupoid(h), validate_groupoid(g)
    witness = bib.are_morita_equivalent(h, g, cap=_cap())
    if witness is None:
        rep.result = {"equivalent": False}
        rep.say("not Morita equivalent")
        rep.emit(False)
        return EXIT_FALSE
    rep.result = {"equivalent": True, "carrier": list(witness.carrier)}
    rep.say(formats.serialize_bibundle(witness).rstrip("\n"))
    rep.emit(True)
    return EXIT_OK


def _cmd_morita_homotopy(args, rep):
    _, (h, g) = _load_two([args.a, args.b], "groupoids")
    h, g = validate_groupoid(h), validate_groupoid(g)
    span = homotopy.are_morita_homotopy_equivalent(h, g, cap=_cap())
    if span is None:
        rep.result = {"equivalent": False}
        rep.say("not Morita homotopy equivalent")
        rep.emit(False)
        return EXIT_FALSE
    rep.result = {"equivalent": True, "mid": span.mid.name,
                  "mid_objects": list(span.mid.objects)}
    rep.say(f"span through {span.mid.name} "
            f"({len(span.mid.objects)} objects)")
    rep.emit(True)
    return EXIT_OK


def _cmd_cgeo(args, rep):
    g = _load_groupoid(args.file)
    value, cert = complexity.cgeo_with_cover(g)
    rep.result = {
        "groupoid": g.name,
        "cgeo": value,
        "cover": [list(piece) for piece in cert.pieces],
        "certificates": [
            {"point_object": w.point_object,
             "vacuous": w.vacuous,
             "homotopy": dict(w.homotopy.component) if w.homotopy else None}
            for w in cert.witnesses],
    }
    rep.say(str(value))
    rep.emit(True)
    return EXIT_OK


def _cmd_relcgeo(args, rep):
    g = _load_groupoid(args.file)
    sub = _subset(g, args.subset)
    value = complexity.relative_cgeo(sub, g)
    rep.result = {"groupoid": g.name, "subset": list(sub.objects),
                  "relative_cgeo": value}
    rep.say(str(value))
    rep.emit(True)
    return EXIT_OK


def _cmd_weakpoint(args, rep):
    g = _load_groupoid(args.file)
    sub = _subset(g, args.subset)
    witness = complexity.is_weak_point_subgroupoid(sub, g)
    if witness is None:
        rep.result = {"weak_point": False}
        rep.say("not a weak point subgroupoid")
        rep.emit(False)
        return EXIT_FALSE
    rep.result = {"weak_point": True, "point_object": witness.point_object,
                  "vacuous": witness.vacuous}
    rep.say(f"weak point subgroupoid (collapses to "
            f"{witness.point_object!r})" if not witness.vacuous
            else "weak point subgroupoid (vacuously: empty)")
    rep.emit(True)
    return EXIT_OK


def _cmd_deform(args, rep):
    g = _load_groupoid(args.file)
    h = _subset(g, getattr(args, "from"))
    k = _subset(g, args.to)
    diagram = complexity.exists_deformation(h, k, g)
    if diagram is None:
        rep.result = {"deformation": False}
        rep.say("no deformation")
        rep.emit(False)
        return EXIT_FALSE
    rep.result = {"deformation": True,
                  "transport": dict(diagram.transport.obj_map)}
    rep.say("deformation: " + ", ".join(
        f"{x}->{y}" for x, y in sorted(diagram.transport.obj_map.items())))
    rep.emit(True)
    return EXIT_OK


def _cmd_tensor(args, rep):
    _, (z1, z2) = _load_two([args.z1, args.z2], "bibundles")
    for g in (z1.dom, z1.cod, z2.dom, z2.cod):
        validate_groupoid(g)
    bib.validate_bibundle(z1)
    bib.validate_bibundle(z2)
    result = bib.tensor(z1, z2)
    bib.validate_bibundle(result)
    rep.result = {"carrier": list(result.carrier),
                  "dom": result.dom.name, "cod": result.cod.name}
    rep.say(formats.serialize_bibundle(result).rstrip("\n"))
    rep.emit(True)
    return EXIT_OK


def _cmd_homotopic(args, rep):
    _, (f, g) = _load_two([args.f, args.g], "functors")
    for grp in dict.fromkeys((f.dom, f.cod, g.dom, g.cod)):
        validate_groupoid(grp)
    validate_functor(f)
    validate_functor(g)
    witness = are_homotopic(f, g)
    if witness is None:
        rep.result = {"homotopic": False}
        rep.say("not homotopic")
        rep.emit(False)
        return EXIT_FALSE
    rep.result = {"homotopic": True, "component": dict(witness.component)}
    rep.say("homotopic: " + ", ".join(
        f"{x}:{c}" for x, c in sorted(witness.component.items())))
    rep.emit(True)
    return EXIT_OK


def _cmd_pullback(args, rep):
    doc = formats.parse_files([args.cospan])
    functors = list(doc.functors.values())
    if len(functors) < 2:
        raise ParseError("cospan file needs two functor blocks",
                         args.cospan, 1, 1)
    for f in functors[:2]:
        validate_groupoid(f.dom)
        validate_groupoid(f.cod)
        validate_functor(f)
    cospan = homotopy.Cospan(left=functors[0], right=functors[1])
    result = homotopy.homotopy_pullback(cospan, n=args.n)
    grp = result.groupoid
    rep.result = {"degree": args.n, "objects": len(grp.objects),
                  "arrows": len(grp.arrows)}
    rep.say(f"P_{args.n}: {len(grp.objects)} objects, "
            f"{len(grp.arrows)} arrows")
    rep.emit(True)
    return EXIT_OK


def _cmd_descent_check(args, rep):
    doc = formats.parse_files([args.datum])
    if not doc.data:
        raise ParseError("no datum block found", args.datum, 1, 1)
    datum = next(iter(doc.data.values()))
    report = descent.check_cocycle(datum)
    if report.ok:
        rep.result = {"cocycle": True}
        rep.say("cocycle conditions hold")
        rep.emit(True)
        return EXIT_OK
    rep.result = {"cocycle": False, "failure": repr(report.failure)}
    rep.say(f"cocycle failure: {report.failure}")
    rep.emit(False)
    return EXIT_FALSE


def _cmd_descent_glue(args, rep):
    doc = formats.parse_files([args.datum])
    if not doc.data:
        raise ParseError("no datum block found", args.datum, 1, 1)
    datum = next(iter(doc.data.values()))
    glued = descent.glue(datum)
    rep.result = {"total": list(glued.bundle.total),
                  "base": list(glued.bundle.base)}
    rep.say(formats.serialize_bundle(glued.bundle).rstrip("\n"))
    rep.emit(True)
    return EXIT_OK


def _cmd_locus(args, rep):
    g = _load_groupoid(args.file)
    key = complexity.locus_key(g, cap=_cap())
    rep.result = {"groupoid": g.name, "locus": key}
    rep.say(key)
    rep.emit(True)
    return EXIT_OK


def _cmd_corpus(args, rep):
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
        rep.say(f"wrote {len(members)} groupoids to {outdir}")
    else:
        for g in members:
            rep.say(formats.serialize_groupoid(g).rstrip("\n"))
    rep.result = {"count": len(members), "names": [g.name for g in members]}
    rep.emit(True)
    return EXIT_OK


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
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-objects", type=positive_int, default=6)
    p.add_argument("--max-isotropy", type=positive_int, default=6)
    p.add_argument("--out", default=None, help="directory for .grpd files")
    p.set_defaults(handler=_cmd_corpus)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = _Reporter(args.command, args.json)
    try:
        return args.handler(args, rep)
    except IsotropyTooLarge as err:
        rep.emit(False, error=str(err))
        return EXIT_LIMIT
    except (ParseError, GroupoidError, DescentError, InvalidGroupTable,
            BadEnvironment, OSError) as err:
        rep.emit(False, error=str(err))
        return EXIT_INPUT
    except Exception as err:  # a defect, which must not read as "false"
        message = f"internal error: {type(err).__name__}: {err}"
        if rep.as_json:
            rep.result = {}
            rep.emit(False, error=message)
        else:
            print(message, file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
