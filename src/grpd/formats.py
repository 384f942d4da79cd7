"""Line-oriented text formats for groupoids, functors, bibundles, covers,
descent data and bundles.

One fact per line, '#' starts a comment, tokens are whitespace-separated.
The formats are fully explicit: every id, inv and comp entry must be
spelled out (the validators reject anything missing).  Composition lines
read ``comp G F = H`` with the meaning "F then G equals H".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bibundle import Bibundle, LeftAction, RightAction
from .core import FinGroupoid, StrictArrow, index_arrows
from .descent import Bundle, Cover, CoverPiece, DescentDatum


class ParseError(Exception):
    def __init__(self, message: str, source: str, line: int, col: int):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col


BLOCK_KEYWORDS = ("groupoid", "functor", "bibundle", "bundle", "cover",
                  "datum")


@dataclass
class _Line:
    number: int
    text: str
    tokens: list[tuple[str, int]]  # (token, 1-based column)


@dataclass
class _Block:
    kind: str
    header: _Line
    body: list[_Line] = field(default_factory=list)
    source: str = "<input>"


def _tokenize(text: str, number: int) -> list[tuple[str, int]]:
    stripped = text.split("#", 1)[0]
    tokens = []
    col = 0
    for raw in stripped.split():
        col = stripped.index(raw, col)
        tokens.append((raw, col + 1))
        col += len(raw)
    return tokens


def _scan(text: str, source: str) -> list[_Block]:
    blocks: list[_Block] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, number)
        if not tokens:
            continue
        line = _Line(number=number, text=raw, tokens=tokens)
        if tokens[0][0] in BLOCK_KEYWORDS:
            blocks.append(_Block(kind=tokens[0][0], header=line,
                                 source=source))
        else:
            if not blocks:
                raise ParseError(
                    f"expected one of {', '.join(BLOCK_KEYWORDS)}",
                    source, number, tokens[0][1])
            blocks[-1].body.append(line)
    return blocks


def _shape(block: _Block, line: _Line, pattern: list[str | None],
           variadic: bool = False) -> list[str]:
    """Match a line against a pattern; None entries are wildcards, literal
    entries must appear verbatim.  Returns the wildcard values (plus the
    tail when variadic)."""
    tokens = line.tokens
    if (len(tokens) < len(pattern)
            or (not variadic and len(tokens) != len(pattern))):
        col = tokens[-1][1] if tokens else 1
        raise ParseError(
            f"malformed {block.kind} line, expected "
            f"'{' '.join(p or '<id>' for p in pattern)}'",
            block.source, line.number, col)
    out = []
    for (tok, col), expected in zip(tokens, pattern):
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}",
                             block.source, line.number, col)
        if expected is None:
            out.append(tok)
    if variadic:
        out.extend(tok for tok, _ in tokens[len(pattern):])
    return out


@dataclass
class Document:
    """All named structures assembled from one or more parsed files."""
    groupoids: dict[str, FinGroupoid] = field(default_factory=dict)
    functors: dict[str, StrictArrow] = field(default_factory=dict)
    bibundles: dict[str, Bibundle] = field(default_factory=dict)
    bundles: dict[str, Bundle] = field(default_factory=dict)
    covers: dict[str, Cover] = field(default_factory=dict)
    data: dict[str, DescentDatum] = field(default_factory=dict)


def _need(block: _Block, mapping: dict, name: str, what: str):
    if name not in mapping:
        raise ParseError(f"unknown {what} {name!r}", block.source,
                         block.header.number, 1)
    return mapping[name]


def _assemble_groupoid(block: _Block) -> FinGroupoid:
    (name,) = _shape(block, block.header, ["groupoid", None])
    objects: list[str] = []
    arrows: list[str] = []
    src, tgt, comp, unit, inv = {}, {}, {}, {}, {}
    for line in block.body:
        head = line.tokens[0][0]
        if head == "objects:":
            objects.extend(_shape(block, line, ["objects:"], variadic=True))
        elif head == "arrow":
            aid, s, t = _shape(block, line,
                               ["arrow", None, ":", None, "->", None])
            arrows.append(aid)
            src[aid], tgt[aid] = s, t
        elif head == "id":
            obj, aid = _shape(block, line, ["id", None, "=", None])
            unit[obj] = aid
        elif head == "inv":
            a, b = _shape(block, line, ["inv", None, "=", None])
            inv[a] = b
        elif head == "comp":
            g, f, h = _shape(block, line, ["comp", None, None, "=", None])
            comp[(g, f)] = h
        else:
            raise ParseError(f"unknown groupoid line {head!r}", block.source,
                             line.number, line.tokens[0][1])
    return FinGroupoid(name=name, objects=tuple(objects),
                       arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                       unit=unit, inv=inv)


def _assemble_functor(block: _Block, doc: Document) -> StrictArrow:
    name, a, b = _shape(block, block.header,
                        ["functor", None, ":", None, "->", None])
    dom = _need(block, doc.groupoids, a, "groupoid")
    cod = _need(block, doc.groupoids, b, "groupoid")
    obj_map, arr_map = {}, {}
    for line in block.body:
        head = line.tokens[0][0]
        if head == "obj":
            x, y = _shape(block, line, ["obj", None, "->", None])
            obj_map[x] = y
        elif head == "arr":
            p, q = _shape(block, line, ["arr", None, "->", None])
            arr_map[p] = q
        else:
            raise ParseError(f"unknown functor line {head!r}", block.source,
                             line.number, line.tokens[0][1])
    return StrictArrow(name=name, dom=dom, cod=cod, obj_map=obj_map,
                       arr_map=arr_map)


def _assemble_bibundle(block: _Block, doc: Document) -> Bibundle:
    name, h, _label, g = _shape(
        block, block.header,
        ["bibundle", None, ":", None, "-|", None, "|-", None])
    dom = _need(block, doc.groupoids, h, "groupoid")
    cod = _need(block, doc.groupoids, g, "groupoid")
    carrier: list[str] = []
    p, q, lact, ract = {}, {}, {}, {}
    for line in block.body:
        head = line.tokens[0][0]
        if head == "carrier:":
            carrier.extend(_shape(block, line, ["carrier:"], variadic=True))
        elif head == "p":
            z, x = _shape(block, line, ["p", None, "->", None])
            p[z] = x
        elif head == "q":
            z, x = _shape(block, line, ["q", None, "->", None])
            q[z] = x
        elif head == "lact":
            eta, z, w = _shape(block, line, ["lact", None, None, "->", None])
            lact[(eta, z)] = w
        elif head == "ract":
            z, c, w = _shape(block, line, ["ract", None, None, "->", None])
            ract[(z, c)] = w
        else:
            raise ParseError(f"unknown bibundle line {head!r}", block.source,
                             line.number, line.tokens[0][1])
    return Bibundle(
        name=name,
        left=LeftAction(groupoid=dom, carrier=tuple(carrier), actor=p,
                        act=lact),
        right=RightAction(groupoid=cod, carrier=tuple(carrier), actor=q,
                          act=ract))


def _assemble_bundle(block: _Block) -> Bundle:
    (name,) = _shape(block, block.header, ["bundle", None])
    base: list[str] = []
    total: list[str] = []
    proj = {}
    for line in block.body:
        head = line.tokens[0][0]
        if head == "base:":
            base.extend(_shape(block, line, ["base:"], variadic=True))
        elif head == "total:":
            total.extend(_shape(block, line, ["total:"], variadic=True))
        elif head == "proj":
            a, x = _shape(block, line, ["proj", None, "->", None])
            proj[a] = x
        else:
            raise ParseError(f"unknown bundle line {head!r}", block.source,
                             line.number, line.tokens[0][1])
    return Bundle(name=name, base=tuple(base), total=tuple(total), proj=proj)


def _assemble_cover(block: _Block) -> Cover:
    (name,) = _shape(block, block.header, ["cover", None])
    base: list[str] = []
    pieces: dict[str, list[str]] = {}
    to_base: dict[str, dict[str, str]] = {}
    order: list[str] = []
    for line in block.body:
        head = line.tokens[0][0]
        if head == "base:":
            base.extend(_shape(block, line, ["base:"], variadic=True))
        elif head == "piece":
            got = _shape(block, line, ["piece", None, ":"], variadic=True)
            pname, elements = got[0], got[1:]
            pieces[pname] = list(elements)
            to_base[pname] = {}
            order.append(pname)
        elif head == "map":
            pname, u, x = _shape(block, line, ["map", None, None, "->", None])
            if pname not in pieces:
                raise ParseError(f"map before piece {pname!r}", block.source,
                                 line.number, line.tokens[1][1])
            to_base[pname][u] = x
        else:
            raise ParseError(f"unknown cover line {head!r}", block.source,
                             line.number, line.tokens[0][1])
    return Cover(name=name, base=tuple(base),
                 pieces=tuple(CoverPiece(name=p, elements=tuple(pieces[p]),
                                         to_base=to_base[p])
                              for p in order))


def _assemble_datum(block: _Block, doc: Document) -> DescentDatum:
    name, cover_name = _shape(block, block.header, ["datum", None, ":", None])
    cover = _need(block, doc.covers, cover_name, "cover")
    fibre_elems: dict[str, dict[str, list[str]]] = {}
    # every ordered piece pair owns a table with one (possibly empty)
    # entry per overlap point; trans lines fill them in
    transitions: dict = {
        (pi.name, pj.name): {(u, v): {} for (u, v) in cover.overlap(pi, pj)}
        for pi in cover.pieces for pj in cover.pieces}
    for line in block.body:
        head = line.tokens[0][0]
        if head == "fiber":
            got = _shape(block, line, ["fiber", None, None, ":"],
                         variadic=True)
            pname, u, elements = got[0], got[1], got[2:]
            fibre_elems.setdefault(pname, {})[u] = list(elements)
        elif head == "trans":
            pi, pj, u, v, a, b = _shape(
                block, line, ["trans", None, None, None, None, None, "->",
                              None])
            transitions.setdefault((pi, pj), {}).setdefault((u, v), {})[a] = b
        else:
            raise ParseError(f"unknown datum line {head!r}", block.source,
                             line.number, line.tokens[0][1])
    fibres = {}
    for p in cover.pieces:
        per_point = fibre_elems.get(p.name, {})
        total, proj = [], {}
        for u in p.elements:
            for e in per_point.get(u, []):
                total.append(e)
                proj[e] = u
        fibres[p.name] = Bundle(name=f"{name}.{p.name}", base=p.elements,
                                total=tuple(total), proj=proj)
    return DescentDatum(name=name, cover=cover, fibres=fibres,
                        transitions=transitions)


def parse_document(text: str, source: str = "<input>",
                   into: Document | None = None) -> Document:
    """Parse all blocks in the text; functor/bibundle/datum blocks resolve
    names against everything parsed so far (including earlier files when
    ``into`` is passed)."""
    doc = into if into is not None else Document()
    blocks = _scan(text, source)
    for block in blocks:
        if block.kind == "groupoid":
            g = _assemble_groupoid(block)
            doc.groupoids[g.name] = g
        elif block.kind == "bundle":
            b = _assemble_bundle(block)
            doc.bundles[b.name] = b
        elif block.kind == "cover":
            c = _assemble_cover(block)
            doc.covers[c.name] = c
    for block in blocks:
        if block.kind == "functor":
            f = _assemble_functor(block, doc)
            doc.functors[f.name] = f
        elif block.kind == "bibundle":
            b = _assemble_bibundle(block, doc)
            doc.bibundles[b.name] = b
        elif block.kind == "datum":
            d = _assemble_datum(block, doc)
            doc.data[d.name] = d
    return doc


def parse_files(paths, into: Document | None = None) -> Document:
    doc = into if into is not None else Document()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            parse_document(handle.read(), source=str(path), into=doc)
    return doc


def declared_names(text: str, kind: str, source: str = "<input>") -> list[str]:
    """Names of all blocks of the given kind, in order, without assembling
    anything (block headers carry the name as their second token)."""
    out = []
    for block in _scan(text, source):
        if block.kind == kind:
            if len(block.header.tokens) < 2:
                raise ParseError(f"{kind} block without a name", source,
                                 block.header.number, 1)
            out.append(block.header.tokens[1][0])
    return out


# ---------------------------------------------------------------------------
# serialization (deterministic: sorted lines within each section)


def serialize_groupoid(g: FinGroupoid) -> str:
    lines = [f"groupoid {g.name}"]
    lines.append("objects: " + " ".join(g.objects))
    for a in g.arrows:
        lines.append(f"arrow {a} : {g.src[a]} -> {g.tgt[a]}")
    for x in g.objects:
        lines.append(f"id {x} = {g.unit[x]}")
    for a in g.arrows:
        lines.append(f"inv {a} = {g.inv[a]}")
    for (p, q) in sorted(g.comp):
        lines.append(f"comp {p} {q} = {g.comp[(p, q)]}")
    return "\n".join(lines) + "\n"


def serialize_functor(f: StrictArrow) -> str:
    lines = [f"functor {f.name} : {f.dom.name} -> {f.cod.name}"]
    for x in sorted(f.obj_map):
        lines.append(f"obj {x} -> {f.obj_map[x]}")
    for a in sorted(f.arr_map):
        lines.append(f"arr {a} -> {f.arr_map[a]}")
    return "\n".join(lines) + "\n"


def serialize_bibundle(b: Bibundle) -> str:
    lines = [f"bibundle {b.name} : {b.dom.name} -| Z |- {b.cod.name}"]
    lines.append("carrier: " + " ".join(b.carrier))
    for z in b.carrier:
        lines.append(f"p {z} -> {b.left.actor[z]}")
    for z in b.carrier:
        lines.append(f"q {z} -> {b.right.actor[z]}")
    for (eta, z) in sorted(b.left.act):
        lines.append(f"lact {eta} {z} -> {b.left.act[(eta, z)]}")
    for (z, c) in sorted(b.right.act):
        lines.append(f"ract {z} {c} -> {b.right.act[(z, c)]}")
    return "\n".join(lines) + "\n"


def serialize_bundle(b: Bundle) -> str:
    lines = [f"bundle {b.name}"]
    lines.append("base: " + " ".join(b.base))
    lines.append("total: " + " ".join(b.total))
    for a in b.total:
        lines.append(f"proj {a} -> {b.proj[a]}")
    return "\n".join(lines) + "\n"


def serialize_cover(c: Cover) -> str:
    lines = [f"cover {c.name}"]
    lines.append("base: " + " ".join(c.base))
    for p in c.pieces:
        lines.append(f"piece {p.name} : " + " ".join(p.elements))
        for u in p.elements:
            lines.append(f"map {p.name} {u} -> {p.to_base[u]}")
    return "\n".join(lines) + "\n"


def serialize_datum(d: DescentDatum) -> str:
    lines = [serialize_cover(d.cover).rstrip("\n")]
    lines.append(f"datum {d.name} : {d.cover.name}")
    for p in d.cover.pieces:
        fib = d.fibres[p.name]
        fibre = index_arrows(fib.total, fib.proj)
        for u in p.elements:
            lines.append(f"fiber {p.name} {u} : "
                         + " ".join(fibre.get(u, ())))
    for (i, j) in sorted(d.transitions):
        table = d.transitions[(i, j)]
        for (u, v) in sorted(table):
            for a in sorted(table[(u, v)]):
                lines.append(f"trans {i} {j} {u} {v} {a} "
                             f"-> {table[(u, v)][a]}")
    return "\n".join(lines) + "\n"
