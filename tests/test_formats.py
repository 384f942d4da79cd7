import dataclasses
import random
import tracemalloc
from pathlib import Path

import pytest

from grpd import core, groups, homotopy
from grpd.complexity import point_groupoid
from grpd.core import (BadInverse, Composite, PartialComposition, cocylinder,
                       identity_functor, pair_groupoid, validate_functor,
                       validate_groupoid)
from grpd.bibundle import (are_morita_equivalent, functor_to_bibundle, tensor,
                           unit_bibundle, validate_bibundle)
from grpd.homotopy import Cospan, homotopy_pullback
from grpd.corpus import (CorpusConfig, corpus_groupoids, random_datum,
                         transitive_groupoid)
from grpd.formats import (Document, ParseError, parse_document,
                          serialize_bibundle, serialize_bundle,
                          serialize_cover, serialize_datum,
                          serialize_functor, serialize_groupoid)


def test_groupoid_round_trip():
    for g in corpus_groupoids(CorpusConfig(seed=8, count=6)):
        doc = parse_document(serialize_groupoid(g))
        g2 = doc.groupoids[g.name]
        assert g.equal_presentation(g2)
        validate_groupoid(g2)


def test_functor_round_trip(random_functor):
    rng = random.Random(9)
    a, b = corpus_groupoids(CorpusConfig(seed=8, count=2))
    f = random_functor(rng, a, b)
    text = serialize_groupoid(a) + serialize_groupoid(b) + \
        serialize_functor(f)
    f2 = parse_document(text).functors[f.name]
    assert f2.obj_map == f.obj_map and f2.arr_map == f.arr_map
    validate_functor(f2)


def test_bibundle_round_trip():
    g = pair_groupoid("p2", ["1", "2"])
    u = unit_bibundle(g)
    text = serialize_groupoid(g) + serialize_bibundle(u)
    u2 = parse_document(text).bibundles[u.name]
    validate_bibundle(u2)
    assert u2.left.act == u.left.act
    assert u2.right.act == u.right.act
    assert u2.left.actor == u.left.actor


def test_datum_round_trip():
    rng = random.Random(10)
    bundle, cover, datum = random_datum(rng, "d", base_size=4, max_fibre=3)
    text = serialize_datum(datum)
    doc = parse_document(text)
    d2 = doc.data[datum.name]
    assert d2.transitions == datum.transitions
    for p in cover.pieces:
        assert sorted(d2.fibres[p.name].total) == \
            sorted(datum.fibres[p.name].total)


def test_datum_with_empty_fibres_round_trips_and_glues():
    from grpd.descent import glue
    # seed 1 produces pieces whose fibres are empty over some points;
    # those overlaps carry the empty bijection and must survive the text
    rng = random.Random(1)
    bundle, cover, datum = random_datum(rng, "demo", base_size=3,
                                        max_fibre=3)
    doc = parse_document(serialize_datum(datum))
    d2 = doc.data[datum.name]
    assert d2.transitions == datum.transitions
    assert len(glue(d2).bundle.total) == len(glue(datum).bundle.total)
    text2 = serialize_bundle(bundle) + serialize_cover(cover)
    doc2 = parse_document(text2)
    assert doc2.bundles[bundle.name].proj == bundle.proj
    assert doc2.covers[cover.name].base == cover.base


def test_comments_and_blank_lines_ignored():
    text = """# a comment
groupoid g   # trailing comment
objects: x
arrow e : x -> x
id x = e
inv e = e
comp e e = e
"""
    g = parse_document(text).groupoids["g"]
    validate_groupoid(g)
    assert g.objects == ("x",)


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_document("groupoid g\nobjects: a\nwhatever is this\n",
                       source="f.grpd")
    assert err.value.source == "f.grpd"
    assert err.value.line == 3
    assert err.value.col == 1
    with pytest.raises(ParseError) as err:
        parse_document("groupoid g\narrow a = x -> y\n")
    assert err.value.line == 2


def test_content_before_any_block_rejected():
    with pytest.raises(ParseError):
        parse_document("objects: x\n")


def test_unknown_reference_rejected():
    with pytest.raises(ParseError):
        parse_document("functor f : nowhere -> nowhere\n")


def test_omitted_comp_line_fails_validation():
    g = pair_groupoid("p2", ["1", "2"])
    lines = [line for line in serialize_groupoid(g).splitlines()
             if not line.startswith("comp 2>1 1>2")]
    g2 = parse_document("\n".join(lines)).groupoids["p2"]
    with pytest.raises(PartialComposition):
        validate_groupoid(g2)


def test_omitted_inv_line_fails_validation():
    g = point_groupoid("bz2", groups.cyclic(2))
    lines = [line for line in serialize_groupoid(g).splitlines()
             if not line.startswith("inv k1")]
    g2 = parse_document("\n".join(lines)).groupoids["bz2"]
    with pytest.raises(BadInverse):
        validate_groupoid(g2)


def test_cross_file_namespace_resolution():
    a = pair_groupoid("A", ["1", "2"])
    doc = parse_document(serialize_groupoid(a))
    text = "functor f : A -> A\nobj 1 -> 1\nobj 2 -> 2\n" + "\n".join(
        f"arr {x} -> {x}" for x in a.arrows)
    parse_document(text, into=doc)
    validate_functor(doc.functors["f"])


def test_repeated_block_is_rejected_at_its_header():
    g = serialize_groupoid(pair_groupoid("g", ["1", "2"]))
    h = serialize_groupoid(point_groupoid("g", groups.cyclic(2)))
    second = g.count("\n") + 1
    with pytest.raises(ParseError) as err:
        parse_document(g + "  " + h, source="f.grpd")
    assert (err.value.line, err.value.col) == (second, 3)
    assert "repeated 'groupoid g' (first on line 1)" in str(err.value)
    # the same name in another kind of block, or in another text, is fine
    doc = parse_document(g + "bundle g\nbase: x\ntotal:\n")
    parse_document(h, into=doc)


def sorted_serialize_groupoid(g):
    """serialize_groupoid with its comp lines in the order of the sorted
    tuple keys: the independent copy the walk is checked against."""
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


def sorted_serialize_bibundle(b):
    """serialize_bibundle with its action lines in the order of the sorted
    tuple keys."""
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


def test_serializers_match_the_sort_based_copies(corpus, transpose,
                                                  random_functor):
    """The serializers take valid structures: every structure here is
    validated first.  Besides built ones, the inputs are what the CLI
    writes (``morita`` witnesses and ``corpus --max-isotropy 12``
    members) and a stored copy of each computed groupoid, whose ids need
    not sort in arrow order."""
    rng = random.Random(31)
    small = [g for g in corpus if len(g.arrows) <= 12][:6]
    p2 = pair_groupoid("p2", ["1", "2"])
    groupoids = list(corpus) + corpus_groupoids(
        CorpusConfig(seed=3, count=5, max_isotropy=12))
    bibundles = []
    for g in small + [p2]:
        groupoids.append(cocylinder(g).groupoid)
        ident = identity_functor(g)
        # on a one-object g, degree 2 has |g1|^8 comp entries: keep it small
        for n in (1, 2) if len(g.arrows) <= 4 else (1,):
            groupoids.append(homotopy_pullback(Cospan(ident, ident), n).groupoid)
        unit = unit_bibundle(g)
        induced = functor_to_bibundle(random_functor(rng, g, rng.choice(small)))
        bibundles += [unit, transpose(unit), tensor(unit, unit), induced,
                      tensor(induced, unit_bibundle(induced.cod))]
    witnesses = [are_morita_equivalent(h, g)
                 for h in corpus[:6] for g in corpus[:6]]
    assert sum(w is not None for w in witnesses) > 6
    bibundles += [w for w in witnesses if w is not None]
    groupoids += [g for case in ("hostile", "P2") for g in _computed_case(case)]
    stored = [dataclasses.replace(g, comp=dict(g.comp.items()))
              for g in groupoids if isinstance(g.comp, Composite)]
    assert any(list(g.comp) != sorted(g.comp) for g in stored)
    groupoids += stored
    for g in groupoids:
        validate_groupoid(g)
        assert serialize_groupoid(g) == sorted_serialize_groupoid(g), g.name
    for b in bibundles:
        validate_bibundle(b)
        assert serialize_bibundle(b) == sorted_serialize_bibundle(b), b.name


def _p2_shape():
    """construct's pullback2 shape: P_2 of Pair(2) x Z2 against itself,
    131,072 computed comp entries."""
    g = transitive_groupoid("s0_5", ["s0_5o0", "s0_5o1"], groups.cyclic(2))
    ident = identity_functor(g)
    return homotopy_pullback(Cospan(ident, ident), 2).groupoid


HOSTILE = ["a!", "x>y", "\\", "(a!b)"]


def _computed_case(case):
    if case == "hostile":
        # ids whose sorted order is not their arrow order
        g = transitive_groupoid("t", HOSTILE, groups.cyclic(2))
        ident = identity_functor(pair_groupoid("p", HOSTILE[:2]))
        return [pair_groupoid("p", HOSTILE), g, cocylinder(g).groupoid,
                homotopy_pullback(Cospan(ident, ident), 1).groupoid]
    return [_p2_shape()]


@pytest.mark.parametrize("case", ["hostile", "P2"])
def test_serializers_match_the_sort_based_copies_on_computed_tables(case):
    for g in _computed_case(case):
        assert isinstance(g.comp, Composite)
        if case == "hostile":
            assert list(g.comp) != sorted(g.comp), g.name
        assert serialize_groupoid(g) == sorted_serialize_groupoid(g), g.name


class CountingDict(dict):
    """A table that counts its keyed reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_serializers_read_each_table_entry_once(monkeypatch):
    """A stored table or an action is read by one keyed read per entry; a
    computed comp by one compose call per arrow and no keyed read."""
    g = transitive_groupoid("g", ["a", "b"], groups.cyclic(2))
    ident = identity_functor(g)
    pullback = homotopy_pullback(Cospan(ident, ident), 1).groupoid
    text = serialize_groupoid(pullback)
    comp = CountingDict(pullback.comp)
    counted = dataclasses.replace(pullback, comp=comp)
    assert serialize_groupoid(counted) == text
    assert comp.reads == len(comp) == 2048
    # the same P1, computed: one compose call per arrow, no keyed read
    calls, reads = [], []

    def counting_tabulate(*args, compose, **kwargs):
        def counted(p, qs):
            calls.append(p)
            return compose(p, qs)
        return core.tabulate(*args, compose=counted, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(homotopy, "tabulate", counting_tabulate)
        computed = homotopy_pullback(Cospan(ident, ident), 1).groupoid
    lookup = Composite.__getitem__

    def counting_lookup(self, key):
        reads.append(key)
        return lookup(self, key)

    monkeypatch.setattr(Composite, "__getitem__", counting_lookup)
    del calls[:]
    assert serialize_groupoid(computed) == text
    assert len(calls) == len(computed.arrows) == 128 and reads == []
    unit = unit_bibundle(g)
    left = CountingDict(unit.left.act)
    right = CountingDict(unit.right.act)
    counted = dataclasses.replace(
        unit, left=dataclasses.replace(unit.left, act=left),
        right=dataclasses.replace(unit.right, act=right))
    assert serialize_bibundle(counted) == serialize_bibundle(unit)
    assert (left.reads, right.reads) == (len(left), len(right))


def test_serializers_peak_at_most_two_and_a_half_times_their_output():
    """A big table is written one row at a time: the traced peak holds the
    rows and the text they are joined into, but no string per line and no
    second copy of the text."""
    g = transitive_groupoid("g", ["a", "b"], groups.cyclic(2))
    ident = identity_functor(g)
    pullback = homotopy_pullback(Cospan(ident, ident), 1).groupoid
    assert len(pullback.comp) == 2048
    unit = unit_bibundle(transitive_groupoid("k", ["1", "2", "3"],
                                             groups.dihedral(3)))
    # construct's P_2 shape, written one object at a time, peaks at 2.03x
    # its text; a path that held the table's lines at once would not fit
    for serialize, x in ((serialize_groupoid, pullback),
                         (serialize_groupoid, _p2_shape()),
                         (serialize_bibundle, tensor(unit, unit))):
        serialize(x)  # build the cached sorted arrow lists first
        tracemalloc.start()
        try:
            text = serialize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), (serialize.__name__, peak, len(text))


# ---------------------------------------------------------------------------
# oracle: the earlier parse front end, which tokenized every line with
# columns and matched every line against its pattern, plus the keyed-line
# rules (no repeated key; map and fiber lines stay on their cover) checked
# line by line


class _OracleBlock:
    def __init__(self, kind, header, source):
        self.kind, self.header, self.source = kind, header, source
        self.body = []


def _oracle_tokenize(text):
    stripped = text.split("#", 1)[0]
    tokens, col = [], 0
    for raw in stripped.split():
        col = stripped.index(raw, col)
        tokens.append((raw, col + 1))
        col += len(raw)
    return tokens


def _oracle_scan(text, source):
    keywords = ("groupoid", "functor", "bibundle", "bundle", "cover",
                "datum")
    blocks = []
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = _oracle_tokenize(raw)
        if not tokens:
            continue
        line = (number, tokens)
        if tokens[0][0] in keywords:
            # a block may not repeat an earlier block's kind and name
            for other in blocks:
                (first, head) = other.header
                if (len(tokens) > 1 and len(head) > 1 and head[0][0] ==
                        tokens[0][0] and head[1][0] == tokens[1][0]):
                    raise ParseError(
                        f"repeated '{tokens[0][0]} {tokens[1][0]}' (first "
                        f"on line {first})", source, number, tokens[0][1])
            blocks.append(_OracleBlock(tokens[0][0], line, source))
        elif not blocks:
            raise ParseError(f"expected one of {', '.join(keywords)}",
                             source, number, tokens[0][1])
        else:
            blocks[-1].body.append(line)
    return blocks


def _oracle_shape(block, line, pattern, variadic=False):
    number, tokens = line
    if (len(tokens) < len(pattern)
            or (not variadic and len(tokens) != len(pattern))):
        raise ParseError(
            f"malformed {block.kind} line, expected "
            f"'{' '.join(p or '<id>' for p in pattern)}'",
            block.source, number, tokens[-1][1])
    out = []
    for (tok, col), expected in zip(tokens, pattern):
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}",
                             block.source, number, col)
        if expected is None:
            out.append(tok)
    if variadic:
        out.extend(tok for tok, _ in tokens[len(pattern):])
    return out


# head -> (pattern, variadic, key length or 0) for each kind's body lines
_ORACLE_GRAMMAR = {
    "groupoid": {"objects:": (["objects:"], True, 0),
                 "arrow": (["arrow", None, ":", None, "->", None], False, 0),
                 "id": (["id", None, "=", None], False, 2),
                 "inv": (["inv", None, "=", None], False, 2),
                 "comp": (["comp", None, None, "=", None], False, 3)},
    "functor": {"obj": (["obj", None, "->", None], False, 2),
                "arr": (["arr", None, "->", None], False, 2)},
    "bibundle": {"carrier:": (["carrier:"], True, 0),
                 "p": (["p", None, "->", None], False, 2),
                 "q": (["q", None, "->", None], False, 2),
                 "lact": (["lact", None, None, "->", None], False, 3),
                 "ract": (["ract", None, None, "->", None], False, 3)},
    "bundle": {"base:": (["base:"], True, 0), "total:": (["total:"], True, 0),
               "proj": (["proj", None, "->", None], False, 2)},
    "cover": {"base:": (["base:"], True, 0),
              "piece": (["piece", None, ":"], True, 0),
              "map": (["map", None, None, "->", None], False, 3)},
    "datum": {"fiber": (["fiber", None, None, ":"], True, 3),
              "trans": (["trans", None, None, None, None, None, "->", None],
                        False, 6)},
}


def _oracle_lines(block, pieces=None):
    """Shape every body line in order; then reject the first line whose
    key repeats or, given pieces, that leaves its cover."""
    grammar = _ORACLE_GRAMMAR[block.kind]
    shaped = []
    for line in block.body:
        number, tokens = line
        head = tokens[0][0]
        if head not in grammar:
            raise ParseError(f"unknown {block.kind} line {head!r}",
                             block.source, number, tokens[0][1])
        pattern, variadic, _ = grammar[head]
        got = _oracle_shape(block, line, pattern, variadic)
        if head == "map" and got[0] not in pieces:
            raise ParseError(f"map before piece {got[0]!r}", block.source,
                             number, tokens[1][1])
        if head == "piece":
            pieces[got[0]] = got[1:]
        shaped.append((head, got))
    seen = {}
    for (head, got), (number, tokens) in zip(shaped, block.body):
        n = grammar[head][2]
        if not n:
            continue
        if head in ("map", "fiber"):
            if got[0] not in pieces:
                raise ParseError(f"unknown piece {got[0]!r}", block.source,
                                 number, tokens[1][1])
            if got[1] not in pieces[got[0]]:
                raise ParseError(f"piece {got[0]!r} does not list "
                                 f"{got[1]!r}", block.source, number,
                                 tokens[2][1])
        key = tuple(tok for tok, _ in tokens[:n])
        if key in seen:
            raise ParseError(f"repeated '{' '.join(key)}' (first on line "
                             f"{seen[key]})", block.source, number,
                             tokens[0][1])
        seen[key] = number
    return shaped


def _oracle_need(block, mapping, name, what):
    if name not in mapping:
        raise ParseError(f"unknown {what} {name!r}", block.source,
                         block.header[0], 1)
    return mapping[name]


def _oracle_assemble(block, doc):
    from grpd.bibundle import Bibundle, LeftAction, RightAction
    from grpd.core import FinGroupoid, StrictArrow
    from grpd.descent import Bundle, Cover, CoverPiece, DescentDatum

    kind = block.kind
    if kind == "groupoid":
        (name,) = _oracle_shape(block, block.header, ["groupoid", None])
        objects, arrows, src, tgt, comp, unit, inv = [], [], {}, {}, {}, \
            {}, {}
        for head, got in _oracle_lines(block):
            if head == "objects:":
                objects.extend(got)
            elif head == "arrow":
                arrows.append(got[0])
                src[got[0]], tgt[got[0]] = got[1], got[2]
            elif head == "id":
                unit[got[0]] = got[1]
            elif head == "inv":
                inv[got[0]] = got[1]
            else:
                comp[(got[0], got[1])] = got[2]
        doc.groupoids[name] = FinGroupoid(
            name=name, objects=tuple(objects), arrows=tuple(arrows), src=src,
            tgt=tgt, comp=comp, unit=unit, inv=inv)
    elif kind == "functor":
        name, a, b = _oracle_shape(block, block.header,
                                   ["functor", None, ":", None, "->", None])
        dom = _oracle_need(block, doc.groupoids, a, "groupoid")
        cod = _oracle_need(block, doc.groupoids, b, "groupoid")
        maps = {"obj": {}, "arr": {}}
        for head, got in _oracle_lines(block):
            maps[head][got[0]] = got[1]
        doc.functors[name] = StrictArrow(name=name, dom=dom, cod=cod,
                                         obj_map=maps["obj"],
                                         arr_map=maps["arr"])
    elif kind == "bibundle":
        name, h, _, g = _oracle_shape(
            block, block.header,
            ["bibundle", None, ":", None, "-|", None, "|-", None])
        dom = _oracle_need(block, doc.groupoids, h, "groupoid")
        cod = _oracle_need(block, doc.groupoids, g, "groupoid")
        carrier, maps = [], {"p": {}, "q": {}, "lact": {}, "ract": {}}
        for head, got in _oracle_lines(block):
            if head == "carrier:":
                carrier.extend(got)
            elif head in ("p", "q"):
                maps[head][got[0]] = got[1]
            else:
                maps[head][(got[0], got[1])] = got[2]
        doc.bibundles[name] = Bibundle(
            name=name,
            left=LeftAction(groupoid=dom, carrier=tuple(carrier),
                            actor=maps["p"], act=maps["lact"]),
            right=RightAction(groupoid=cod, carrier=tuple(carrier),
                              actor=maps["q"], act=maps["ract"]))
    elif kind == "bundle":
        (name,) = _oracle_shape(block, block.header, ["bundle", None])
        lists, proj = {"base:": [], "total:": []}, {}
        for head, got in _oracle_lines(block):
            if head == "proj":
                proj[got[0]] = got[1]
            else:
                lists[head].extend(got)
        doc.bundles[name] = Bundle(name=name, base=tuple(lists["base:"]),
                                   total=tuple(lists["total:"]), proj=proj)
    elif kind == "cover":
        (name,) = _oracle_shape(block, block.header, ["cover", None])
        base, pieces, to_base, order = [], {}, {}, []
        for head, got in _oracle_lines(block, pieces={}):
            if head == "base:":
                base.extend(got)
            elif head == "piece":
                pieces[got[0]] = got[1:]
                to_base[got[0]] = {}
                order.append(got[0])
            else:
                to_base[got[0]][got[1]] = got[2]
        doc.covers[name] = Cover(
            name=name, base=tuple(base),
            pieces=tuple(CoverPiece(name=p, elements=tuple(pieces[p]),
                                    to_base=to_base[p]) for p in order))
    elif kind == "datum":
        name, cover_name = _oracle_shape(block, block.header,
                                         ["datum", None, ":", None])
        cover = _oracle_need(block, doc.covers, cover_name, "cover")
        for p in cover.pieces:
            for u in p.elements:
                if u not in p.to_base:
                    raise ParseError(
                        f"cover {cover_name!r} has no map line for {u!r} in "
                        f"piece {p.name!r}", block.source, block.header[0],
                        block.header[1][3][1])
        trans = {}
        for pi in cover.pieces:
            for pj in cover.pieces:
                trans[(pi.name, pj.name)] = {
                    (u, v): {} for u in pi.elements for v in pj.elements
                    if pi.to_base[u] == pj.to_base[v]}
        fibre = {}
        pieces = {p.name: p.elements for p in cover.pieces}
        for head, got in _oracle_lines(block, pieces=pieces):
            if head == "fiber":
                fibre.setdefault(got[0], {})[got[1]] = got[2:]
            else:
                trans.setdefault(tuple(got[:2]), {}).setdefault(
                    tuple(got[2:4]), {})[got[4]] = got[5]
        fibres = {}
        for p in cover.pieces:
            total = [(e, u) for u in p.elements
                     for e in fibre.get(p.name, {}).get(u, [])]
            fibres[p.name] = Bundle(name=f"{name}.{p.name}",
                                    base=p.elements,
                                    total=tuple(e for e, _ in total),
                                    proj=dict(total))
        doc.data[name] = DescentDatum(name=name, cover=cover, fibres=fibres,
                                      transitions=trans)


def oracle_parse(text, source="<input>", into=None):
    doc = into if into is not None else Document()
    blocks = _oracle_scan(text, source)
    for block in blocks:
        if block.kind in ("groupoid", "bundle", "cover"):
            _oracle_assemble(block, doc)
    for block in blocks:
        if block.kind in ("functor", "bibundle", "datum"):
            _oracle_assemble(block, doc)
    return doc


def oracle_declared_names(text, kind, source):
    out = []
    for block in _oracle_scan(text, source):
        if block.kind == kind:
            if len(block.header[1]) < 2:
                raise ParseError(f"{kind} block without a name", source,
                                 block.header[0], 1)
            out.append(block.header[1][1][0])
    return out


def oracle_load_two(paths, kind):
    """The earlier two-file loader: every file's headers first, then the
    files assembled in order."""
    label = kind[:-1]
    wanted = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        names = oracle_declared_names(text, label, str(path))
        if not names:
            raise ParseError(f"no {label} block found", str(path), 1, 1)
        wanted.append(names[0])
    doc = Document()
    for path in paths:
        oracle_parse(Path(path).read_text(encoding="utf-8"), str(path), doc)
    return doc, [getattr(doc, kind)[name] for name in wanted]


def digest(doc):
    """Every assembled field, dicts as item lists so that order counts."""
    def items(d):
        return list(d.items())

    return (
        [(n, g.objects, g.arrows, items(g.src), items(g.tgt), items(g.comp),
          items(g.unit), items(g.inv)) for n, g in doc.groupoids.items()],
        [(n, f.dom.name, f.cod.name, items(f.obj_map), items(f.arr_map))
         for n, f in doc.functors.items()],
        [(n, b.left.groupoid.name, b.right.groupoid.name, b.left.carrier,
          b.right.carrier, items(b.left.actor), items(b.right.actor),
          items(b.left.act), items(b.right.act))
         for n, b in doc.bibundles.items()],
        [(n, b.base, b.total, items(b.proj)) for n, b in doc.bundles.items()],
        [(n, c.base, [(p.name, p.elements, items(p.to_base))
                      for p in c.pieces]) for n, c in doc.covers.items()],
        [(n, d.cover.name,
          [(p, b.name, b.base, b.total, items(b.proj))
           for p, b in d.fibres.items()],
          [(k, [(uv, items(m)) for uv, m in t.items()])
           for k, t in d.transitions.items()]) for n, d in doc.data.items()],
    )


def outcome(parse, *args):
    try:
        result = parse(*args)
    except ParseError as err:
        return ("error", str(err), err.source, err.line, err.col)
    return ("ok", result)


_INSERTS = (":", "->", "=", "-|", "|-", "objects:", "carrier:", "base:",
            "total:", "groupoid", "functor", "datum", "cover", "comp", "id",
            "inv", "arrow", "obj", "arr", "p", "q", "lact", "ract", "proj",
            "piece", "map", "fiber", "trans", "ghost")


def mutate(rng, text):
    """One random edit of one line, or a line added before the first."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    op = rng.randrange(8)
    if op == 0 and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif op == 1 and len(tokens) > 1:
        a, b = rng.sample(range(len(tokens)), 2)
        tokens[a], tokens[b] = tokens[b], tokens[a]
    elif op == 2:
        pool = _INSERTS + tuple(text.split()[:40])
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(pool))
    elif op == 3:
        cut = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:cut] + rng.choice(("#", " # note", "#x y"))
        return "\n".join(lines)
    elif op == 4:
        lines.insert(0, rng.choice((lines[i], "  " + lines[-1], "x")))
        return "\n".join(lines)
    elif op == 5:
        lines.insert(rng.randrange(i, len(lines) + 1), lines[i])
        return "\n".join(lines)
    elif op == 6 and len(tokens) > 2:
        tokens[rng.randrange(1, len(tokens))] = "ghost"
    seps = [rng.choice((" ", "  ", "\t", " \t ")) for _ in tokens]
    indent = rng.choice(("", "", " ", "\t"))
    lines[i] = indent + "".join(s + t for s, t in zip(seps, tokens))[1:]
    return "\n".join(lines)


def corpus_texts(seed, random_functor):
    """Serialized groupoids, functors, bibundles, bundles, covers and data."""
    from grpd.corpus import random_bundle

    rng = random.Random(seed)
    cfg = CorpusConfig(seed=seed, count=4, max_objects=3, max_isotropy=4,
                       max_arrows=30)
    gs = corpus_groupoids(cfg)
    texts = [serialize_groupoid(g) for g in gs]
    texts.append(serialize_groupoid(gs[0]) + serialize_groupoid(gs[1])
                 + serialize_functor(random_functor(rng, gs[0], gs[1])))
    texts.append(serialize_groupoid(gs[2])
                 + serialize_bibundle(unit_bibundle(gs[2])))
    _, cover, datum = random_datum(rng, "d", base_size=4, max_fibre=2)
    texts.append(serialize_datum(datum))
    texts.append(serialize_bundle(random_bundle(rng, "b", base_size=4))
                 + serialize_cover(cover))
    # dependent blocks before the blocks they name
    datum_text = texts[6]
    texts.append(serialize_functor(random_functor(rng, gs[3], gs[1]))
                 + datum_text[datum_text.index("\ndatum ") + 1:]
                 + serialize_groupoid(gs[3]) + serialize_cover(cover)
                 + serialize_groupoid(gs[1]))
    return texts


def test_parse_matches_the_line_by_line_oracle_on_mutated_corpus_files(
        random_functor):
    cases = failures = 0
    for seed in range(25):
        rng = random.Random(1000 + seed)
        for text in corpus_texts(seed, random_functor):
            assert outcome(lambda t: digest(parse_document(t, "f")), text) \
                == outcome(lambda t: digest(oracle_parse(t, "f")), text)
            for _ in range(12):
                bad = mutate(rng, text)
                if rng.random() < 0.3:
                    bad = mutate(rng, bad)
                new = outcome(lambda t: digest(parse_document(t, "f")), bad)
                old = outcome(lambda t: digest(oracle_parse(t, "f")), bad)
                assert new == old, bad
                cases += 1
                failures += new[0] == "error"
    assert cases >= 2000
    # most mutants are rejected, and a fair share still parses
    assert cases * 0.5 < failures < cases * 0.95


def test_load_two_matches_the_oracle_on_mutated_file_pairs(tmp_path,
                                                           random_functor):
    from grpd.formats import load as _load_two

    rng = random.Random(77)
    pools = {"groupoids": [], "functors": [], "bibundles": []}
    for seed in (3, 4):
        texts = corpus_texts(seed, random_functor)
        pools["groupoids"] += texts[:4] + texts[6:8]
        functor = texts[4].index("functor ")
        pools["functors"] += [texts[4], texts[4][functor:]]
        pools["bibundles"].append(texts[5])
    cases = errors = 0
    for kind, pool in pools.items():
        for i in range(120):
            paths = [tmp_path / f"{kind}{i}a", tmp_path / f"{kind}{i}b"]
            first = rng.choice(pool[:-1] if kind == "functors" else pool)
            second = rng.choice(pool)
            for path, text in zip(paths, (first, second)):
                for _ in range(rng.choice((0, 0, 1, 2))):
                    text = mutate(rng, text)
                path.write_text(text, encoding="utf-8")
            if rng.random() < 0.2:
                paths[1] = paths[0]

            # both files, and the first one alone
            for loaded in (paths, paths[:1]):
                def run(load):
                    doc, found = load(loaded, kind)
                    return digest(doc), [s.name for s in found]

                new = outcome(run, _load_two)
                assert new == outcome(run, oracle_load_two), loaded
                cases += 1
                errors += new[0] == "error"
    assert cases * 0.2 < errors < cases * 0.8


def test_load_two_reports_header_errors_before_assembly_errors(tmp_path):
    from grpd.formats import load as _load_two

    g = serialize_groupoid(pair_groupoid("p2", ["1", "2"]))
    cover = serialize_cover(random_datum(random.Random(1), "d",
                                         base_size=3)[1])
    a, b = tmp_path / "a", tmp_path / "b"
    # the first file declares no groupoid; the second has a body line
    # before its first block
    a.write_text(cover)
    b.write_text("objects: 1\n" + g)
    with pytest.raises(ParseError) as err:
        _load_two([a, b], "groupoids")
    assert (err.value.source, err.value.line, err.value.col) == (str(a), 1, 1)
    assert str(err.value).endswith("no groupoid block found")
    # an assembly error in the first file comes after the second file's
    # header errors
    a.write_text(g.replace("inv 1>2 = 2>1", "inv 1>2 2>1"))
    with pytest.raises(ParseError) as err:
        _load_two([a, b], "groupoids")
    assert (err.value.source, err.value.line, err.value.col) == (str(b), 1, 1)
    b.write_text(g.replace("groupoid p2", "groupoid"))
    with pytest.raises(ParseError) as err:
        _load_two([a, b], "groupoids")
    assert str(err.value) == f"{b}:1:1: groupoid block without a name"
    b.write_text(g)
    with pytest.raises(ParseError) as err:
        _load_two([a, b], "groupoids")
    assert err.value.source == str(a) and "malformed groupoid line" in str(
        err.value)
    a.write_text(g)
    doc, (h, k) = _load_two([a, b], "groupoids")
    assert h.equal_presentation(k) and k is doc.groupoids["p2"]


@pytest.mark.parametrize("head", ["comp", "id", "inv", "obj", "arr", "p",
                                  "q", "lact", "ract", "proj", "map", "fiber",
                                  "trans"])
def test_repeated_keyed_line_is_rejected_at_the_repeat(head):
    g = pair_groupoid("p2", ["1", "2"])
    bundle, cover, datum = random_datum(random.Random(10), "d", base_size=4,
                                        max_fibre=3)
    text = (serialize_groupoid(g) + serialize_functor(identity_functor(g))
            + serialize_bibundle(unit_bibundle(g)) + serialize_bundle(bundle)
            + serialize_datum(datum))
    assert parse_document(text)
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines)
                 if line.startswith(head + " "))
    tokens = lines[first].split()
    # a different value under the same key is rejected as well
    lines.insert(first + 1, " ".join(tokens[:-1] + ["other"]))
    with pytest.raises(ParseError) as err:
        parse_document("\n".join(lines), source="f")
    key = {"comp": 3, "lact": 3, "ract": 3, "map": 3, "fiber": 3,
           "trans": 6}.get(head, 2)
    assert str(err.value) == (f"f:{first + 2}:1: repeated "
                              f"'{' '.join(tokens[:key])}' "
                              f"(first on line {first + 1})")


# ---------------------------------------------------------------------------
# error precedence: scan errors anywhere in the file, then the groupoid,
# bundle and cover blocks in file order, then the functor, bibundle and
# datum blocks in file order (header, names, body, keys)

_D = """groupoid D
objects: a
arrow u : a -> a
id a = u
inv u = u
comp u u = u
"""


def _error_of(text):
    with pytest.raises(ParseError) as err:
        parse_document(text, source="f")
    return str(err.value)


def test_a_repeated_header_wins_over_an_earlier_malformed_line():
    text = _D.replace("comp u u = u", "comp u u u") + "groupoid D\n"
    assert _error_of(text) == "f:7:1: repeated 'groupoid D' (first on line 1)"


def test_a_dependent_header_error_wins_over_its_body_error():
    text = _D + "functor F : D -> E\nobj a a\n"
    assert _error_of(text) == "f:7:1: unknown groupoid 'E'"


def test_a_dependent_body_error_loses_to_a_later_groupoid_body_error():
    text = ("functor F : D -> D\nobj a a\n"
            + _D.replace("inv u = u", "inv u u"))
    assert _error_of(text) == ("f:7:7: malformed groupoid line, expected "
                               "'inv <id> = <id>'")


def test_dependent_blocks_may_come_before_the_blocks_they_name():
    rng = random.Random(10)
    _, cover, datum = random_datum(rng, "d", base_size=4, max_fibre=3)
    datum_text = serialize_datum(datum)
    datum_block = datum_text[datum_text.index("\ndatum ") + 1:]
    g = pair_groupoid("p2", ["1", "2"])
    functor = identity_functor(g)
    text = (serialize_functor(functor) + datum_block + serialize_groupoid(g)
            + serialize_cover(cover))
    doc = parse_document(text)
    assert digest(doc) == digest(parse_document(
        serialize_groupoid(g) + serialize_cover(cover)
        + serialize_functor(functor) + datum_block))
    validate_functor(doc.functors[functor.name])
    assert doc.data[datum.name].transitions == datum.transitions
    assert [d[:2] for d in doc.declared] == [
        ("functor", functor.name), ("datum", datum.name), ("groupoid", "p2"),
        ("cover", cover.name)]


@pytest.mark.parametrize("dependent_first", [False, True])
def test_a_repeated_key_found_by_counts_names_the_repeat(dependent_first):
    functor = "functor F : D -> D\nobj a -> a\n  arr u -> u\n\tarr u -> u\n"
    text = functor + _D if dependent_first else _D + functor
    line = 4 if dependent_first else 10
    assert _error_of(text) == (f"f:{line}:2: repeated 'arr u' (first on "
                               f"line {line - 1})")
    groupoid = _D.replace("comp u u = u", "comp u u = u\n   comp u u = u")
    assert _error_of(groupoid) == ("f:7:4: repeated 'comp u u' (first on "
                                   "line 6)")


def test_load_reports_a_scan_error_before_an_unnamed_block(tmp_path):
    from grpd.formats import load

    path = tmp_path / "f.grpd"
    path.write_text("groupoid\n" + _D + _D.replace("groupoid D\n", ""
                                                    ) + "groupoid D\n")
    with pytest.raises(ParseError) as err:
        load([path], "groupoids")
    assert str(err.value) == (f"{path}:13:1: repeated 'groupoid D' (first on "
                              "line 2)")


@pytest.mark.parametrize("first, second", [
    ("assembly error", "groupoid"), ("groupoid", "no groupoid"),
    ("assembly error", "no groupoid")])
def test_load_reads_each_file_once_on_every_path(tmp_path, monkeypatch,
                                                 first, second):
    """``parse_document`` reads the headers, and ``load`` reads them
    nowhere else: one ``_blocks`` pass per file, also when a file fails to
    assemble or declares no block of the kind."""
    from grpd import formats

    texts = {"groupoid": _D, "assembly error": _D.replace("inv u = u",
                                                          "inv u u"),
             "no groupoid": "functor F : D -> D\nobj a -> a\narr u -> u\n"}
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text(texts[first])
    b.write_text(texts[second])
    calls = []
    blocks = formats._blocks

    def counted(text, source):
        calls.append(source)
        return blocks(text, source)

    monkeypatch.setattr(formats, "_blocks", counted)
    with pytest.raises(ParseError) as err:
        formats.load([a, b], "groupoids")
    assert calls == [str(a), str(b)]
    if second == "no groupoid":
        assert str(err.value) == f"{b}:1:1: no groupoid block found"
    else:
        assert str(err.value) == (f"{a}:5:7: malformed groupoid line, "
                                  "expected 'inv <id> = <id>'")


@pytest.mark.parametrize("case", ["groupoid and functor", "datum"])
def test_parse_peaks_at_most_twice_what_the_document_keeps(case):
    """Lines are split as they are read and go straight into the block's
    tables: the traced peak holds the file's lines beside the document,
    but no token list per line."""
    if case == "datum":
        text = serialize_datum(random_datum(random.Random(11), "d",
                                            base_size=8)[2])
    else:
        # a classify-sized file: 3,888 comp lines, 103 KB
        g = transitive_groupoid("g", ["a", "b", "c"], groups.dihedral(6))
        text = serialize_groupoid(g) + serialize_functor(identity_functor(g))
    parse_document(text)
    tracemalloc.start()
    try:
        doc = parse_document(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.declared and peak <= 2 * kept, (peak, kept)
