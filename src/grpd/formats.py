"""Line-oriented text formats for groupoids, functors, bibundles, covers,
descent data and bundles.

One fact per line, '#' starts a comment, tokens are whitespace-separated.
The formats are fully explicit: every id, inv and comp entry must be
spelled out (the validators reject anything missing).  Composition lines
read ``comp G F = H`` with the meaning "F then G equals H".  A keyed line
(a comp line's pair, an id line's object, ...) gives its key once per
block, and a cover's map and a datum's fiber lines name only elements the
cover's pieces list.

Lines are split into plain string tokens; a token's column is found only
when a ParseError reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .bibundle import Bibundle, LeftAction, RightAction
from .core import Composite, FinGroupoid, StrictArrow, index_arrows
from .descent import Bundle, Cover, CoverPiece, DescentDatum


class ParseError(Exception):
    def __init__(self, message: str, source: str, line: int, col: int):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col


BLOCK_KEYWORDS = ("groupoid", "functor", "bibundle", "bundle", "cover",
                  "datum")
_KEYWORDS = frozenset(BLOCK_KEYWORDS)

# The grammar of body lines: None stands for an id, other entries are
# literals; a line starting with a list keyword (objects:, carrier:, base:,
# total:) is that keyword followed by any number of ids.  Assemblers accept
# a line by checking its length and literals directly and use the pattern
# only to describe a line that fails.
_ARROW = ["arrow", None, ":", None, "->", None]
_ID = ["id", None, "=", None]
_INV = ["inv", None, "=", None]
_COMP = ["comp", None, None, "=", None]
_OBJ = ["obj", None, "->", None]
_ARR = ["arr", None, "->", None]
_P = ["p", None, "->", None]
_Q = ["q", None, "->", None]
_LACT = ["lact", None, None, "->", None]
_RACT = ["ract", None, None, "->", None]
_PROJ = ["proj", None, "->", None]
_PIECE = ["piece", None, ":"]  # then the piece's elements
_MAP = ["map", None, None, "->", None]
_FIBER = ["fiber", None, None, ":"]  # then the fibre's elements
_TRANS = ["trans", None, None, None, None, None, "->", None]

# Keyed lines: the key is a line's first n tokens, and no two lines of a
# block may share one.
_KEY_LENGTH = {"comp": 3, "id": 2, "inv": 2, "obj": 2, "arr": 2, "p": 2,
               "q": 2, "lact": 3, "ract": 3, "proj": 2, "map": 3,
               "fiber": 3, "trans": 6}


@dataclass
class _Block:
    """The tokens of a block's header line, then of each body line, as
    plain strings.  Line numbers and the file's lines serve only to place
    a ParseError."""
    kind: str
    source: str
    lines: list[str]  # every line of the file
    rows: list[list[str]] = field(default_factory=list)
    numbers: list[int] = field(default_factory=list)  # each row's line

    @property
    def header(self) -> list[str]:
        return self.rows[0]

    @property
    def body(self) -> list[list[str]]:
        return self.rows[1:]


def _column(raw: str, tokens: list[str], index: int) -> int:
    """1-based column of ``tokens[index]`` in its line: each token is found
    left to right, after the end of the one before it."""
    col = 0
    for tok in tokens[:index]:
        col = raw.index(tok, col) + len(tok)
    return raw.index(tokens[index], col) + 1


def _scan(text: str, source: str) -> list[_Block]:
    """The text's blocks; a block repeating the kind and name of an earlier
    one raises a ParseError at its header."""
    lines = text.splitlines()
    blocks: list[_Block] = []
    headers: dict[tuple[str, str], int] = {}  # (kind, name) -> first line
    rows = numbers = None
    for number, raw in enumerate(lines, start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        if tokens[0] in _KEYWORDS:
            if len(tokens) > 1:
                first = headers.setdefault((tokens[0], tokens[1]), number)
                if first != number:
                    raise ParseError(
                        f"repeated '{tokens[0]} {tokens[1]}' (first on line "
                        f"{first})", source, number, _column(raw, tokens, 0))
            block = _Block(kind=tokens[0], source=source, lines=lines)
            blocks.append(block)
            rows, numbers = block.rows, block.numbers
        elif rows is None:
            raise ParseError(
                f"expected one of {', '.join(BLOCK_KEYWORDS)}", source,
                number, _column(raw, tokens, 0))
        rows.append(tokens)
        numbers.append(number)
    return blocks


def _error(block: _Block, row: list[str], message: str,
           index: int = 0) -> ParseError:
    """A ParseError at token ``index`` of ``row``, one of ``block.rows``."""
    number = block.numbers[next(i for i, r in enumerate(block.rows)
                                if r is row)]
    return ParseError(message, block.source, number,
                      _column(block.lines[number - 1], row, index))


def _mismatch(block: _Block, row: list[str], pattern: list[str | None],
              variadic: bool = False) -> ParseError | None:
    """The error for a row that does not match a pattern (a variadic one
    allows more tokens after it), or None if it matches."""
    if (len(row) < len(pattern)
            or (not variadic and len(row) != len(pattern))):
        return _error(block, row,
                      f"malformed {block.kind} line, expected "
                      f"'{' '.join(p or '<id>' for p in pattern)}'",
                      len(row) - 1)
    for i, (tok, expected) in enumerate(zip(row, pattern)):
        if expected is not None and tok != expected:
            return _error(block, row, f"expected {expected!r}, found {tok!r}",
                          i)
    return None


def _shape(block: _Block, row: list[str],
           pattern: list[str | None]) -> list[str]:
    """The wildcard values of a row that matches a pattern; raises the
    mismatch's ParseError otherwise."""
    err = _mismatch(block, row, pattern)
    if err is not None:
        raise err
    return [tok for tok, expected in zip(row, pattern) if expected is None]


def _check_keys(block: _Block, pieces: dict[str, set[str]] | None = None):
    """Raise at the first body line whose key repeats an earlier line's,
    or, given a cover's pieces, at the first map or fiber line naming a
    piece or element the cover does not list.  Assemblers count their
    entries and call this only when the counts show such a line."""
    seen: dict[tuple[str, ...], int] = {}
    for row, number in zip(block.body, block.numbers[1:]):
        n = _KEY_LENGTH.get(row[0])
        if n is None:
            continue
        if pieces is not None and row[0] in ("map", "fiber"):
            if row[1] not in pieces:
                raise _error(block, row, f"unknown piece {row[1]!r}", 1)
            if row[2] not in pieces[row[1]]:
                raise _error(block, row,
                             f"piece {row[1]!r} does not list {row[2]!r}", 2)
        key = tuple(row[:n])
        if key in seen:
            raise _error(block, row, f"repeated '{' '.join(key)}' "
                         f"(first on line {seen[key]})")
        seen[key] = number


@dataclass
class Document:
    """All named structures assembled from one or more parsed files."""
    groupoids: dict[str, FinGroupoid] = field(default_factory=dict)
    functors: dict[str, StrictArrow] = field(default_factory=dict)
    bibundles: dict[str, Bibundle] = field(default_factory=dict)
    bundles: dict[str, Bundle] = field(default_factory=dict)
    covers: dict[str, Cover] = field(default_factory=dict)
    data: dict[str, DescentDatum] = field(default_factory=dict)
    # (kind, name) of every block parsed into the document, in text order
    declared: list[tuple[str, str]] = field(default_factory=list)


def _need(block: _Block, mapping: dict, name: str, what: str):
    if name not in mapping:
        raise ParseError(f"unknown {what} {name!r}", block.source,
                         block.numbers[0], 1)
    return mapping[name]


def _assemble_groupoid(block: _Block) -> FinGroupoid:
    (name,) = _shape(block, block.header, ["groupoid", None])
    objects: list[str] = []
    arrows: list[str] = []
    src, tgt, comp, unit, inv = {}, {}, {}, {}, {}
    listings = 0
    for t in block.body:
        head = t[0]
        if head == "comp":
            if len(t) != 5 or t[3] != "=":
                raise _mismatch(block, t, _COMP)
            comp[t[1], t[2]] = t[4]
        elif head == "arrow":
            if len(t) != 6 or t[2] != ":" or t[4] != "->":
                raise _mismatch(block, t, _ARROW)
            aid = t[1]
            arrows.append(aid)
            src[aid], tgt[aid] = t[3], t[5]
        elif head == "inv":
            if len(t) != 4 or t[2] != "=":
                raise _mismatch(block, t, _INV)
            inv[t[1]] = t[3]
        elif head == "id":
            if len(t) != 4 or t[2] != "=":
                raise _mismatch(block, t, _ID)
            unit[t[1]] = t[3]
        elif head == "objects:":
            objects.extend(t[1:])
            listings += 1
        else:
            raise _error(block, t, f"unknown groupoid line {head!r}")
    keyed = len(block.rows) - 1 - len(arrows) - listings
    if len(comp) + len(unit) + len(inv) != keyed:
        _check_keys(block)
    return FinGroupoid(name=name, objects=tuple(objects),
                       arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                       unit=unit, inv=inv)


def _assemble_functor(block: _Block, doc: Document) -> StrictArrow:
    name, a, b = _shape(block, block.header,
                        ["functor", None, ":", None, "->", None])
    dom = _need(block, doc.groupoids, a, "groupoid")
    cod = _need(block, doc.groupoids, b, "groupoid")
    obj_map, arr_map = {}, {}
    for t in block.body:
        head = t[0]
        if head == "arr":
            if len(t) != 4 or t[2] != "->":
                raise _mismatch(block, t, _ARR)
            arr_map[t[1]] = t[3]
        elif head == "obj":
            if len(t) != 4 or t[2] != "->":
                raise _mismatch(block, t, _OBJ)
            obj_map[t[1]] = t[3]
        else:
            raise _error(block, t, f"unknown functor line {head!r}")
    if len(obj_map) + len(arr_map) != len(block.rows) - 1:
        _check_keys(block)
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
    listings = 0
    for t in block.body:
        head = t[0]
        if head == "lact":
            if len(t) != 5 or t[3] != "->":
                raise _mismatch(block, t, _LACT)
            lact[t[1], t[2]] = t[4]
        elif head == "ract":
            if len(t) != 5 or t[3] != "->":
                raise _mismatch(block, t, _RACT)
            ract[t[1], t[2]] = t[4]
        elif head == "p":
            if len(t) != 4 or t[2] != "->":
                raise _mismatch(block, t, _P)
            p[t[1]] = t[3]
        elif head == "q":
            if len(t) != 4 or t[2] != "->":
                raise _mismatch(block, t, _Q)
            q[t[1]] = t[3]
        elif head == "carrier:":
            carrier.extend(t[1:])
            listings += 1
        else:
            raise _error(block, t, f"unknown bibundle line {head!r}")
    keyed = len(block.rows) - 1 - listings
    if len(p) + len(q) + len(lact) + len(ract) != keyed:
        _check_keys(block)
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
    listings = 0
    for t in block.body:
        head = t[0]
        if head == "proj":
            if len(t) != 4 or t[2] != "->":
                raise _mismatch(block, t, _PROJ)
            proj[t[1]] = t[3]
        elif head == "base:":
            base.extend(t[1:])
            listings += 1
        elif head == "total:":
            total.extend(t[1:])
            listings += 1
        else:
            raise _error(block, t, f"unknown bundle line {head!r}")
    if len(proj) != len(block.rows) - 1 - listings:
        _check_keys(block)
    return Bundle(name=name, base=tuple(base), total=tuple(total), proj=proj)


def _assemble_cover(block: _Block) -> Cover:
    (name,) = _shape(block, block.header, ["cover", None])
    base: list[str] = []
    pieces: dict[str, list[str]] = {}
    to_base: dict[str, dict[str, str]] = {}
    order: list[str] = []
    listings = 0
    for t in block.body:
        head = t[0]
        if head == "map":
            if len(t) != 5 or t[3] != "->":
                raise _mismatch(block, t, _MAP)
            if t[1] not in pieces:
                raise _error(block, t, f"map before piece {t[1]!r}", 1)
            to_base[t[1]][t[2]] = t[4]
        elif head == "piece":
            if len(t) < 3 or t[2] != ":":
                raise _mismatch(block, t, _PIECE, variadic=True)
            pieces[t[1]] = t[3:]
            to_base[t[1]] = {}
            order.append(t[1])
        elif head == "base:":
            base.extend(t[1:])
            listings += 1
        else:
            raise _error(block, t, f"unknown cover line {head!r}")
    maps = len(block.rows) - 1 - listings - len(order)
    if (sum(map(len, to_base.values())) != maps
            or any(to_base[p].keys() - pieces[p] for p in to_base)):
        _check_keys(block, {p: set(e) for p, e in pieces.items()})
    return Cover(name=name, base=tuple(base),
                 pieces=tuple(CoverPiece(name=p, elements=tuple(pieces[p]),
                                         to_base=to_base[p])
                              for p in order))


def _assemble_datum(block: _Block, doc: Document) -> DescentDatum:
    name, cover_name = _shape(block, block.header, ["datum", None, ":", None])
    cover = _need(block, doc.covers, cover_name, "cover")
    for p in cover.pieces:
        for u in p.elements:
            if u not in p.to_base:
                raise _error(block, block.header,
                             f"cover {cover_name!r} has no map line for "
                             f"{u!r} in piece {p.name!r}", 3)
    fibre_elems: dict[str, dict[str, list[str]]] = {}
    # every ordered piece pair owns a table with one (possibly empty)
    # entry per overlap point; trans lines fill them in
    transitions: dict = {
        (pi.name, pj.name): {(u, v): {} for (u, v) in cover.overlap(pi, pj)}
        for pi in cover.pieces for pj in cover.pieces}
    for t in block.body:
        head = t[0]
        if head == "trans":
            if len(t) != 8 or t[6] != "->":
                raise _mismatch(block, t, _TRANS)
            try:
                transitions[t[1], t[2]][t[3], t[4]][t[5]] = t[7]
            except KeyError:  # off the overlaps: validate_datum reports it
                transitions.setdefault((t[1], t[2]), {}).setdefault(
                    (t[3], t[4]), {})[t[5]] = t[7]
        elif head == "fiber":
            if len(t) < 4 or t[3] != ":":
                raise _mismatch(block, t, _FIBER, variadic=True)
            fibre_elems.setdefault(t[1], {})[t[2]] = t[4:]
        else:
            raise _error(block, t, f"unknown datum line {head!r}")
    elements = {p.name: p.elements for p in cover.pieces}
    entries = (sum(map(len, fibre_elems.values()))
               + sum(sum(map(len, table.values()))
                     for table in transitions.values()))
    if (entries != len(block.rows) - 1
            or any(m.keys() - elements.get(p, ())
                   for p, m in fibre_elems.items())):
        _check_keys(block, {p: set(e) for p, e in elements.items()})
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
    doc.declared.extend((block.kind, block.header[1]) for block in blocks)
    return doc


def read_text(path) -> str:
    """The file's text; a file that is not UTF-8 raises a ParseError at the
    line and column of its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # split what comes before the bad byte as the parser splits lines
        lines = (data[:err.start].decode("utf-8") + "^").splitlines()
        raise ParseError(f"byte 0x{data[err.start]:02x} is not UTF-8",
                         str(path), len(lines), len(lines[-1])) from None


def parse_files(paths, into: Document | None = None) -> Document:
    doc = into if into is not None else Document()
    for path in paths:
        parse_document(read_text(path), source=str(path), into=doc)
    return doc


_LABEL = {"groupoids": "groupoid", "functors": "functor",
          "bibundles": "bibundle", "data": "datum"}


def load(paths, kind: str) -> tuple[Document, list]:
    """Parse the files into one Document and return it with the first
    structure of the kind (a Document table) that each file declares, taken
    as soon as that file is parsed, so that a later file declaring the same
    name does not replace it; the same file may be passed twice, and a
    file may name structures of an earlier one.  Nothing is validated.

    Header errors come first: a line before the first block, an unnamed
    block of the kind or no such block in any file is reported before any
    error in assembling a file.  The headers are read again only when
    parsing failed or a file declared no block of the kind."""
    label = _LABEL[kind]
    texts = [read_text(path) for path in paths]
    doc = Document()
    wanted = []
    try:
        for path, text in zip(paths, texts):
            start = len(doc.declared)
            parse_document(text, source=str(path), into=doc)
            name = next((name for k, name in doc.declared[start:]
                         if k == label), None)
            wanted.append(None if name is None else getattr(doc, kind)[name])
    except ParseError:
        _check_headers(paths, texts, label)
        raise
    if None in wanted:
        _check_headers(paths, texts, label)
    return doc, wanted


def _check_headers(paths, texts, label: str) -> None:
    """Raise the first header error of the files, in order."""
    for path, text in zip(paths, texts):
        if not declared_names(text, label, source=str(path)):
            raise ParseError(f"no {label} block found", str(path), 1, 1)


def declared_names(text: str, kind: str, source: str = "<input>") -> list[str]:
    """Names of all blocks of the given kind, in order, without assembling
    anything (block headers carry the name as their second token)."""
    out = []
    for block in _scan(text, source):
        if block.kind == kind:
            if len(block.header) < 2:
                raise ParseError(f"{kind} block without a name", source,
                                 block.numbers[0], 1)
            out.append(block.header[1])
    return out


# ---------------------------------------------------------------------------
# serialization (deterministic: sorted lines within each section)


def _sorted_rows(table, outer, inner, head, mid, unique) -> list[str]:
    """The lines ``f"{head}{x} {y}{mid}{table[x, y]}\\n"`` for the keys of
    ``table`` in sorted order, joined into one row per x: every line of
    one x in one string, so a big table is never held as one string per
    entry.  This is the path of stored tables (dicts) and bibundle
    actions; a computed ``comp`` is read by :func:`_composite_rows`.

    The keys are expected to be the pairs (x, y) with x in sorted ``outer``
    and y in ``inner(x)``, which lists them sorted; walking those pairs
    gives the sorted order without sorting the tuple keys.  The table is
    read once, into one dict per x, and each x's dict is dropped once its
    row is written.  The walk is kept only when it accounts for every
    entry exactly once: the id lists in ``unique``, of which the walked
    pairs are made, hold no repeats, every walked pair is a key, and the
    counts agree.  Otherwise (a table with a missing or extra entry, or an
    id whose end is not an object) the keys are sorted, into one row."""
    if all(len(set(ids)) == len(ids) for ids in unique):
        try:
            by_x = {x: {} for x in outer}
            for (x, y), r in table.items():
                by_x[x][y] = r
            rows, count = [], 0
            for x in sorted(outer):
                row, ys = by_x.pop(x), inner(x)
                count += len(ys)
                h = f"{head}{x} "
                rows.append("".join([f"{h}{y}{mid}{row[y]}\n" for y in ys]))
        except KeyError:
            pass
        else:
            if count == len(table):
                return rows
    return ["".join([f"{head}{x} {y}{mid}{table[x, y]}\n"
                     for x, y in sorted(table)])]


def _composite_rows(comp: Composite) -> list[str] | None:
    """The rows that :func:`_sorted_rows` would write for a computed
    ``comp``, one string per arrow p (every line ``comp p q = r``), read
    one object y at a time from ``comp.blocks()``: the block's rows, one
    per arrow q into y and sorted by q, are transposed into one column
    per arrow p out of y, and each column is joined into p's row.  The
    keys written are the table's own, so they come in sorted order by
    construction.  None when a block lists an arrow out of y twice (an id
    that names two arrows, both filed under its one source): the caller
    then falls back to the walk."""
    texts, count = {}, 0
    for ins, outs, rows in comp.blocks():
        ins, rows = zip(*sorted(zip(ins, rows)))
        mids = [q + " = " for q in ins]
        for p, col in zip(outs, zip(*rows)):
            h = "comp " + p + " "
            texts[p] = h + ("\n" + h).join(map(add, mids, col)) + "\n"
        count += len(outs)
        if len(texts) != count:
            return None
    return [texts[p] for p in sorted(texts)]


def serialize_groupoid(g: FinGroupoid) -> str:
    """The groupoid's block: its objects, then one line per arrow, unit,
    inverse and ``comp`` entry, the ``comp`` lines in sorted key order.
    A computed ``comp`` (a :class:`~grpd.core.Composite`) is written by
    :func:`_composite_rows`, one object at a time; a stored one, or one
    whose ids repeat, by :func:`_sorted_rows`."""
    lines = [f"groupoid {g.name}"]
    lines.append("objects: " + " ".join(g.objects))
    for a in g.arrows:
        lines.append(f"arrow {a} : {g.src[a]} -> {g.tgt[a]}")
    for x in g.objects:
        lines.append(f"id {x} = {g.unit[x]}")
    for a in g.arrows:
        lines.append(f"inv {a} = {g.inv[a]}")
    rows = (_composite_rows(g.comp) if isinstance(g.comp, Composite)
            else None)
    if rows is None:
        # the composable pairs (p, q) are the q into src(p)
        rows = _sorted_rows(
            g.comp, g.arrows, lambda p: g.arrows_into[g.src[p]], "comp ",
            " = ", [g.arrows])
    return "".join(["\n".join(lines) + "\n", *rows])


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
    # eta acts on the points over src(eta); c acts on z when c lands on q(z)
    h, g = b.dom, b.cod
    points_over = index_arrows(sorted(b.carrier), b.left.actor)
    left = _sorted_rows(
        b.left.act, h.arrows, lambda eta: points_over.get(h.src[eta], ()),
        "lact ", " -> ", [h.arrows, b.carrier])
    right = _sorted_rows(
        b.right.act, b.carrier, lambda z: g.arrows_into[b.right.actor[z]],
        "ract ", " -> ", [b.carrier, g.arrows])
    return "".join(["\n".join(lines) + "\n", *left, *right])


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
