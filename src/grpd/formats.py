"""Line-oriented text formats for groupoids, functors, bibundles, covers,
descent data and bundles.

One fact per line, '#' starts a comment, tokens are whitespace-separated.
The formats are fully explicit: every id, inv and comp entry must be
spelled out (the validators reject anything missing).  Composition lines
read ``comp G F = H`` with the meaning "F then G equals H".  A keyed line
(a comp line's pair, an id line's object, ...) gives its key once per
block, and a cover's map and a datum's fiber lines name only elements the
cover's pieces list.

A text is read in one pass: each line is split into plain string tokens
as it is read, and a block's lines go straight into its tables, so no
token list is kept.  Functor, bibundle and datum blocks are assembled
once the text is read, so they may name blocks before or after them.  A
token's column is found only when a ParseError reports it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import add, length_hint

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
_PIECE = ["piece", None, ":"]  # then the piece's elements
_MAP = ["map", None, None, "->", None]
_FIBER = ["fiber", None, None, ":"]  # then the fibre's elements
_TRANS = ["trans", None, None, None, None, None, "->", None]

# The body lines of functor, bibundle and bundle blocks, by kind and head:
# a list keyword, or a keyed line of one or two ids, "->" and an id.
_ENTRIES = {kind: {p[0]: p for p in patterns} for kind, patterns in (
    ("functor", [["obj", None, "->", None], ["arr", None, "->", None]]),
    ("bibundle", [["carrier:"], ["p", None, "->", None],
                  ["q", None, "->", None], ["lact", None, None, "->", None],
                  ["ract", None, None, "->", None]]),
    ("bundle", [["base:"], ["total:"], ["proj", None, "->", None]]))}

# Keyed lines: the key is a line's first n tokens, and no two lines of a
# block may share one.
_KEY_LENGTH = {"comp": 3, "id": 2, "inv": 2, "obj": 2, "arr": 2, "p": 2,
               "q": 2, "lact": 3, "ract": 3, "proj": 2, "map": 3,
               "fiber": 3, "trans": 6}


@dataclass
class _Block:
    """A block's header tokens and the numbers of its lines.  Its reader
    takes the body's tokens from ``body`` a line at a time.  The file's
    lines serve only to place a ParseError and to split a block's lines
    again when its entry counts show a repeated key."""
    kind: str
    header: list[str]
    source: str
    lines: list[str]  # every line of the file
    unread: Iterator[str]  # the file's lines after the one read last
    start: int  # the header's line number
    end: int = 0  # the next header's line number, or one past the last line
    blank: int = 0  # lines of the body without tokens
    after: list[str] | None = None  # the next block's header
    value: object = None  # what the block's reader returned
    error: ParseError | None = None  # or the error it raised

    def __post_init__(self):
        self.body = self._lines()

    @property
    def number(self) -> int:
        """The number of the line read last: a list iterator's length hint
        is the exact count of the lines after it."""
        return len(self.lines) - length_hint(self.unread)

    @property
    def size(self) -> int:
        """The number of body lines."""
        return self.end - self.start - 1 - self.blank

    def _lines(self) -> Iterator[list[str]]:
        """The tokens of each body line; the next header's go to ``after``."""
        for raw in self.unread:
            tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if not tokens:
                self.blank += 1
            elif tokens[0] in _KEYWORDS:
                self.after, self.end = tokens, self.number
                return
            else:
                yield tokens
        self.end = len(self.lines) + 1


def _blocks(text: str, source: str) -> Iterator[_Block]:
    """The text's blocks, each yielded at its header, before its body is
    read; body lines its caller leaves unread are read before the next
    header.  A line before the first block, or a block repeating the kind
    and name of an earlier one, raises a ParseError when it is read."""
    lines = text.splitlines()
    block = _Block("", [], source, lines, iter(lines), 0)
    for tokens in block.body:
        raise _error(block, tokens,
                     f"expected one of {', '.join(BLOCK_KEYWORDS)}")
    headers: dict[tuple[str, str], int] = {}  # (kind, name) -> line
    while block.after is not None:
        header, number = block.after, block.end
        block = _Block(header[0], header, source, lines, block.unread, number)
        if len(header) > 1:
            first = headers.setdefault((header[0], header[1]), number)
            if first != number:
                raise _error(block, header, f"repeated '{header[0]} "
                             f"{header[1]}' (first on line {first})")
        yield block
        for _ in block.body:
            pass


def _column(raw: str, tokens: list[str], index: int) -> int:
    """1-based column of ``tokens[index]`` in its line: each token is found
    left to right, after the end of the one before it."""
    col = 0
    for tok in tokens[:index]:
        col = raw.index(tok, col) + len(tok)
    return raw.index(tokens[index], col) + 1


def _error(block: _Block, row: list[str], message: str, index: int = 0,
           number: int = 0) -> ParseError:
    """A ParseError at token ``index`` of ``row``, the tokens of line
    ``number`` (by default the line read last)."""
    number = number or block.number
    return ParseError(message, block.source, number,
                      _column(block.lines[number - 1], row, index))


def _mismatch(block: _Block, row: list[str], pattern: list[str | None],
              variadic: bool = False, number: int = 0) -> ParseError | None:
    """The error for a row that does not match a pattern (a variadic one
    allows more tokens after it), or None if it matches."""
    if (len(row) < len(pattern)
            or (not variadic and len(row) != len(pattern))):
        return _error(block, row,
                      f"malformed {block.kind} line, expected "
                      f"'{' '.join(p or '<id>' for p in pattern)}'",
                      len(row) - 1, number)
    for i, (tok, expected) in enumerate(zip(row, pattern)):
        if expected is not None and tok != expected:
            return _error(block, row, f"expected {expected!r}, found {tok!r}",
                          i, number)
    return None


def _shape(block: _Block, pattern: list[str | None]) -> list[str]:
    """The wildcard values of the block's header if it matches a pattern;
    raises the mismatch's ParseError otherwise."""
    err = _mismatch(block, block.header, pattern, number=block.start)
    if err is not None:
        raise err
    return [tok for tok, expected in zip(block.header, pattern)
            if expected is None]


def _check_keys(block: _Block, pieces: dict[str, set[str]] | None = None):
    """Raise at the first body line whose key repeats an earlier line's,
    or, given a cover's pieces, at the first map or fiber line naming a
    piece or element the cover does not list.  Assemblers count their
    entries and call this, which splits the block's lines again, only
    when the counts show such a line."""
    seen: dict[tuple[str, ...], int] = {}
    for number in range(block.start + 1, block.end):
        row = block.lines[number - 1].split("#", 1)[0].split()
        n = _KEY_LENGTH.get(row[0]) if row else None
        if n is None:
            continue
        if pieces is not None and row[0] in ("map", "fiber"):
            if row[1] not in pieces:
                raise _error(block, row, f"unknown piece {row[1]!r}", 1,
                             number)
            if row[2] not in pieces[row[1]]:
                raise _error(block, row, f"piece {row[1]!r} does not list "
                             f"{row[2]!r}", 2, number)
        key = tuple(row[:n])
        if key in seen:
            raise _error(block, row, f"repeated '{' '.join(key)}' "
                         f"(first on line {seen[key]})", 0, number)
        seen[key] = number


def _result(block: _Block, doc: Document | None = None):
    """What the block's reader returned, or its error raised: the whole
    assembly of a groupoid or cover block, whose reader builds it."""
    if block.error is not None:
        raise block.error
    return block.value


@dataclass
class Document:
    """All named structures assembled from one or more parsed files."""
    groupoids: dict[str, FinGroupoid] = field(default_factory=dict)
    functors: dict[str, StrictArrow] = field(default_factory=dict)
    bibundles: dict[str, Bibundle] = field(default_factory=dict)
    bundles: dict[str, Bundle] = field(default_factory=dict)
    covers: dict[str, Cover] = field(default_factory=dict)
    data: dict[str, DescentDatum] = field(default_factory=dict)
    # (kind, name or None, header line) of every block parsed into the
    # document, in text order, recorded before any block is assembled
    declared: list[tuple[str, str | None, int]] = field(default_factory=list)


def _need(block: _Block, mapping: dict, name: str, what: str):
    if name not in mapping:
        raise ParseError(f"unknown {what} {name!r}", block.source,
                         block.start, 1)
    return mapping[name]


def _read_groupoid(block: _Block) -> FinGroupoid:
    (name,) = _shape(block, ["groupoid", None])
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
    keyed = block.size - len(arrows) - listings
    if len(comp) + len(unit) + len(inv) != keyed:
        _check_keys(block)
    return FinGroupoid(name=name, objects=tuple(objects),
                       arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                       unit=unit, inv=inv)


def _read_entries(block: _Block):
    """The body of a functor, bibundle or bundle block: a keyed line
    ``HEAD ID -> ID`` or ``HEAD ID ID -> ID`` fills the table of its head,
    keyed by its ids, and a listing line extends the list of its head."""
    grammar = _ENTRIES[block.kind]
    tables = {head: [] if len(p) == 1 else {} for head, p in grammar.items()}
    fill = {head: (tables[head], len(p)) for head, p in grammar.items()}
    listings = 0
    for t in block.body:
        try:
            table, n = fill[t[0]]
        except KeyError:
            raise _error(block, t,
                         f"unknown {block.kind} line {t[0]!r}") from None
        if n == 1:
            table.extend(t[1:])
            listings += 1
        elif len(t) != n or t[-2] != "->":
            raise _mismatch(block, t, grammar[t[0]])
        elif n == 4:
            table[t[1]] = t[3]
        else:
            table[t[1], t[2]] = t[4]
    return tables, listings


def _tables(block: _Block) -> dict:
    """The tables that :func:`_read_entries` filled from the block's body;
    raises the body's first error, then its first repeated key."""
    tables, listings = _result(block)
    if sum(len(t) for t in tables.values() if isinstance(t, dict)) != (
            block.size - listings):
        _check_keys(block)
    return tables


def _assemble_functor(block: _Block, doc: Document) -> StrictArrow:
    name, a, b = _shape(block, ["functor", None, ":", None, "->", None])
    dom = _need(block, doc.groupoids, a, "groupoid")
    cod = _need(block, doc.groupoids, b, "groupoid")
    tables = _tables(block)
    return StrictArrow(name=name, dom=dom, cod=cod, obj_map=tables["obj"],
                       arr_map=tables["arr"])


def _assemble_bibundle(block: _Block, doc: Document) -> Bibundle:
    name, h, _label, g = _shape(
        block, ["bibundle", None, ":", None, "-|", None, "|-", None])
    dom = _need(block, doc.groupoids, h, "groupoid")
    cod = _need(block, doc.groupoids, g, "groupoid")
    tables = _tables(block)
    carrier = tuple(tables["carrier:"])
    return Bibundle(
        name=name,
        left=LeftAction(groupoid=dom, carrier=carrier, actor=tables["p"],
                        act=tables["lact"]),
        right=RightAction(groupoid=cod, carrier=carrier, actor=tables["q"],
                          act=tables["ract"]))


def _assemble_bundle(block: _Block, doc: Document) -> Bundle:
    (name,) = _shape(block, ["bundle", None])
    tables = _tables(block)
    return Bundle(name=name, base=tuple(tables["base:"]),
                  total=tuple(tables["total:"]), proj=tables["proj"])


def _read_cover(block: _Block) -> Cover:
    (name,) = _shape(block, ["cover", None])
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
    maps = block.size - listings - len(order)
    if (sum(map(len, to_base.values())) != maps
            or any(to_base[p].keys() - pieces[p] for p in to_base)):
        _check_keys(block, {p: set(e) for p, e in pieces.items()})
    return Cover(name=name, base=tuple(base),
                 pieces=tuple(CoverPiece(name=p, elements=tuple(pieces[p]),
                                         to_base=to_base[p])
                              for p in order))


def _read_datum(block: _Block):
    fibre_elems: dict[str, dict[str, list[str]]] = {}
    # (UI, UJ) -> (U, V) -> F -> F2; trans lines of one piece pair mostly
    # come together, so the pair's table is looked up only when it changes
    pairs: dict[tuple[str, str], dict[tuple[str, str], dict[str, str]]] = {}
    i = j = pair = None
    for t in block.body:
        head = t[0]
        if head == "trans":
            if len(t) != 8 or t[6] != "->":
                raise _mismatch(block, t, _TRANS)
            if t[1] != i or t[2] != j:
                i, j = t[1], t[2]
                pair = pairs.setdefault((i, j), {})
            key = (t[3], t[4])
            table = pair.get(key)
            if table is None:
                table = pair[key] = {}
            table[t[5]] = t[7]
        elif head == "fiber":
            if len(t) < 4 or t[3] != ":":
                raise _mismatch(block, t, _FIBER, variadic=True)
            fibre_elems.setdefault(t[1], {})[t[2]] = t[4:]
        else:
            raise _error(block, t, f"unknown datum line {head!r}")
    return fibre_elems, pairs


def _assemble_datum(block: _Block, doc: Document) -> DescentDatum:
    name, cover_name = _shape(block, ["datum", None, ":", None])
    cover = _need(block, doc.covers, cover_name, "cover")
    for p in cover.pieces:
        for u in p.elements:
            if u not in p.to_base:
                raise _error(block, block.header,
                             f"cover {cover_name!r} has no map line for "
                             f"{u!r} in piece {p.name!r}", 3, block.start)
    fibre_elems, pairs = _result(block)
    elements = {p.name: p.elements for p in cover.pieces}
    entries = (sum(map(len, fibre_elems.values()))
               + sum(len(m) for pair in pairs.values() for m in pair.values()))
    if (entries != block.size
            or any(m.keys() - elements.get(p, ())
                   for p, m in fibre_elems.items())):
        _check_keys(block, {p: set(e) for p, e in elements.items()})
    # every ordered piece pair owns a table with one (possibly empty)
    # entry per overlap point, in overlap order; trans lines off the
    # overlaps follow in line order, and validate_datum reports them
    transitions: dict = {}
    pieces = {p.name: p for p in cover.pieces}.values()  # one per name
    for pi in pieces:
        for pj in pieces:
            table = pairs.pop((pi.name, pj.name), {})
            transitions[pi.name, pj.name] = {
                uv: table.pop(uv, None) or {} for uv in cover.overlap(pi, pj)}
            transitions[pi.name, pj.name].update(table)
    transitions.update(pairs)
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


# Each kind's Document table, its reader, which takes the body in the
# pass, and its assembler, which runs once the pass is over: first for
# groupoid, bundle and cover blocks, then for the others, which may name
# those.
_KINDS = {"groupoid": ("groupoids", _read_groupoid, _result),
          "bundle": ("bundles", _read_entries, _assemble_bundle),
          "cover": ("covers", _read_cover, _result),
          "functor": ("functors", _read_entries, _assemble_functor),
          "bibundle": ("bibundles", _read_entries, _assemble_bibundle),
          "datum": ("data", _read_datum, _assemble_datum)}
_DEPENDENT = ("functor", "bibundle", "datum")


def parse_document(text: str, source: str = "<input>",
                   into: Document | None = None) -> Document:
    """Parse all blocks in the text in one pass over its lines.  Functor,
    bibundle and datum blocks resolve names against every block of the
    text, before or after them, and against earlier files when ``into``
    is passed.

    Errors come in this order: a line before the first block or a
    repeated block, anywhere in the text; then the first error of a
    groupoid, bundle or cover block, in text order; then that of a
    functor, bibundle or datum block, in text order, where a bad header
    or an unknown name comes before an error in the block's body.  Once
    the pass is over, and before anything is assembled, every block's
    header goes into ``declared``; a failed pass records none."""
    doc = into if into is not None else Document()
    blocks = []
    for block in _blocks(text, source):
        blocks.append(block)
        try:
            block.value = _KINDS[block.kind][1](block)
        except ParseError as err:
            block.error = err
    doc.declared.extend((block.kind, block.header[1] if block.header[1:]
                         else None, block.start) for block in blocks)
    for block in sorted(blocks, key=lambda block: block.kind in _DEPENDENT):
        table, _, assemble = _KINDS[block.kind]
        value = assemble(block, doc)
        getattr(doc, table)[value.name] = value
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


def parse_files(paths) -> Document:
    doc = Document()
    for path in paths:
        parse_document(read_text(path), source=str(path), into=doc)
    return doc


_LABEL = {table: kind for kind, (table, _, _) in _KINDS.items()}


def load(paths, kind: str) -> tuple[Document, list]:
    """Parse the files into one Document and return it with the first
    structure of the kind (a Document table) that each file declares, taken
    as soon as that file is parsed, so that a later file declaring the same
    name does not replace it; the same file may be passed twice, and a
    file may name structures of an earlier one.  Nothing is validated.

    Header errors come first: a line before the first block, a repeated
    block, an unnamed block of the kind or no such block in a file is
    reported before any error in assembling a file, and the first of them
    in file order wins.  The headers are read once, by
    :func:`parse_document`, which records them in ``Document.declared``
    before it assembles anything; it records nothing when its pass over
    the text fails, and that failure is the file's header error.

    Every file is parsed, even after one fails to assemble: file k's
    header error is raised once the headers of every earlier file have
    been checked and before any later file is parsed, and the first
    assembly error is raised only once every file's headers have been
    checked.  That is the first header error in file order over all the
    files, else the first assembly error.  The errors of files parsed
    after a failed one are dropped: a structure they name that the failed
    file did not assemble is an unknown name, a ParseError."""
    label = _LABEL[kind]
    texts = [read_text(path) for path in paths]
    doc = Document()
    wanted, error = [], None
    for path, text in zip(paths, texts):
        start = len(doc.declared)
        try:
            parse_document(text, source=str(path), into=doc)
        except ParseError as err:
            if len(doc.declared) == start:
                raise  # the pass over the text failed
            if error is None:
                error = err
        names = []
        for k, name, line in doc.declared[start:]:
            if k == label:
                if name is None:
                    raise ParseError(f"{label} block without a name",
                                     str(path), line, 1)
                names.append(name)
        if not names:
            raise ParseError(f"no {label} block found", str(path), 1, 1)
        if error is None:
            wanted.append(getattr(doc, kind)[names[0]])
    if error is not None:
        raise error
    return doc, wanted


# ---------------------------------------------------------------------------
# serialization (deterministic: sorted lines within each section)


def _rows(table, outer, inner, head, mid) -> list[str]:
    """The lines ``f"{head}{x} {y}{mid}{table[x, y]}\\n"`` for x in sorted
    ``outer`` and y in ``inner(x)``, one string per x.  The table (a
    stored ``comp`` or a bibundle action) is taken valid: its keys are the
    pairs walked and ``inner(x)`` is sorted, so the lines come in sorted
    key order, one read per entry, without sorting the tuple keys."""
    rows = []
    for x in sorted(outer):
        h = f"{head}{x} "
        rows.append("".join([f"{h}{y}{mid}{table[x, y]}\n"
                             for y in inner(x)]))
    return rows


def _composite_rows(comp: Composite) -> list[str]:
    """The rows of a computed ``comp``, one string per arrow p (every line
    ``comp p q = r``), read one object y at a time from ``comp.blocks()``:
    the block's rows, one per arrow q into y and sorted by q, are
    transposed into one column per arrow p out of y, and each column is
    joined into p's row.  The rows come in sorted key order, with one
    ``compose`` call per arrow and no keyed read."""
    texts = {}
    for ins, outs, rows in comp.blocks():
        ins, rows = zip(*sorted(zip(ins, rows)))
        mids = [q + " = " for q in ins]
        for p, col in zip(outs, zip(*rows)):
            h = "comp " + p + " "
            texts[p] = h + ("\n" + h).join(map(add, mids, col)) + "\n"
    return [texts[p] for p in sorted(texts)]


def serialize_groupoid(g: FinGroupoid) -> str:
    """The block of a valid groupoid: objects, arrows, units, inverses and
    ``comp`` lines, the last in sorted key order, written by
    :func:`_composite_rows` from a computed ``comp`` (a
    :class:`~grpd.core.Composite`) and by :func:`_rows` from a stored one."""
    lines = [f"groupoid {g.name}"]
    lines.append("objects: " + " ".join(g.objects))
    for a in g.arrows:
        lines.append(f"arrow {a} : {g.src[a]} -> {g.tgt[a]}")
    for x in g.objects:
        lines.append(f"id {x} = {g.unit[x]}")
    for a in g.arrows:
        lines.append(f"inv {a} = {g.inv[a]}")
    if isinstance(g.comp, Composite):
        rows = _composite_rows(g.comp)
    else:
        # the composable pairs (p, q) are the q into src(p)
        rows = _rows(g.comp, g.arrows, lambda p: g.arrows_into[g.src[p]],
                     "comp ", " = ")
    return "".join(["\n".join(lines) + "\n", *rows])


def serialize_functor(f: StrictArrow) -> str:
    lines = [f"functor {f.name} : {f.dom.name} -> {f.cod.name}"]
    for x in sorted(f.obj_map):
        lines.append(f"obj {x} -> {f.obj_map[x]}")
    for a in sorted(f.arr_map):
        lines.append(f"arr {a} -> {f.arr_map[a]}")
    return "\n".join(lines) + "\n"


def serialize_bibundle(b: Bibundle) -> str:
    """The block of a valid bibundle; :func:`_rows` writes its actions."""
    lines = [f"bibundle {b.name} : {b.dom.name} -| Z |- {b.cod.name}"]
    lines.append("carrier: " + " ".join(b.carrier))
    for z in b.carrier:
        lines.append(f"p {z} -> {b.left.actor[z]}")
    for z in b.carrier:
        lines.append(f"q {z} -> {b.right.actor[z]}")
    # eta acts on the points over src(eta); c acts on z when c lands on q(z)
    h, g = b.dom, b.cod
    points_over = index_arrows(sorted(b.carrier), b.left.actor)
    left = _rows(b.left.act, h.arrows,
                 lambda eta: points_over.get(h.src[eta], ()), "lact ", " -> ")
    right = _rows(b.right.act, b.carrier,
                  lambda z: g.arrows_into[b.right.actor[z]], "ract ", " -> ")
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
