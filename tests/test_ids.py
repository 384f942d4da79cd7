"""Synthesized ids are injective.

Every constructor that names new objects, arrows or points after the
parts they are built from keeps distinct parts apart, whatever characters
the parts hold; and the deciding subcommands answer alike on corpus
groupoids and on copies of them relabelled over hostile alphabets.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import groups
from grpd.bibundle import (bibundles_isomorphic, functor_to_bibundle,
                           tensor, unit_bibundle, validate_bibundle)
from grpd.cli import EXIT_OK, run
from grpd.complexity import point_groupoid
from grpd.core import (StrictArrow, cocylinder, disjoint_union, id_part,
                       identity_functor, pair_groupoid, validate_functor,
                       validate_groupoid)
from grpd.corpus import (CorpusConfig, corpus_groupoids, inflate,
                         random_bundle, random_cover, scramble_datum,
                         transitive_groupoid)
from grpd.descent import (Bundle, Cover, CoverPiece, check_cocycle, descend,
                          glue, validate_datum)
from grpd.formats import serialize_groupoid
from grpd.homotopy import Cospan, homotopy_pullback

# the reserved characters: every separator and bracket of a synthesized id,
# & and , besides, and the escape character last
RESERVED = ".!&|*>:@()[],\\"
hostile = st.text(alphabet="a" + RESERVED, min_size=1, max_size=4)


def distinct(ids) -> bool:
    ids = list(ids)
    return len(set(ids)) == len(ids)


def test_id_part_escapes_only_when_needed():
    assert id_part("x0", ">") == "x0"
    assert id_part("a>b", ">") == "a\\>b"
    assert id_part("a\\b", ">") == "a\\\\b"
    assert id_part("a\\>", ">") == "a\\\\\\>"
    assert id_part("a|b", ">") == "a|b"


@given(parts=st.lists(st.tuples(hostile, hostile), min_size=2, max_size=6,
                      unique=True),
       sep=st.sampled_from(RESERVED[:-1]))  # any but the escape itself
def test_an_escaped_part_and_its_tail_spell_distinct_ids(parts, sep):
    assert distinct(f"{id_part(s, sep)}{sep}{t}" for s, t in parts)


# ---------------------------------------------------------------------------
# every constructor on hostile ids


def check_groupoid(g, objects, arrows):
    assert distinct(g.objects) and distinct(g.arrows)
    assert (len(g.objects), len(g.arrows)) == (objects, arrows)
    validate_groupoid(g)


def check_bibundle(b, points):
    assert distinct(b.carrier) and len(b.carrier) == points
    validate_bibundle(b)
    return b


def chain(t, c, n):
    """n ids over the characters of t and c, each a prefix of the next: t,
    tct, tctct, ...  Two such ids joined by c spell a third, the worst
    case for a separator c."""
    return [t + (c + t) * i for i in range(n)]


class Labels:
    """Draws hostile labels for one namespace of ids at a time (objects,
    arrows, base points, ...): the chain of t and c in an order that
    hypothesis draws.  Namespaces reuse the same labels, as they may."""

    def __init__(self, data, t, c):
        self.data, self.t, self.c = data, t, c

    def __call__(self, ids) -> dict:
        ids = list(ids)
        order = self.data.draw(st.permutations(range(len(ids))))
        labels = chain(self.t, self.c, len(ids))
        return {i: labels[k] for i, k in zip(ids, order)}

    def groupoid(self, relabel, g):
        return validate_groupoid(relabel(g, {**self(g.objects),
                                             **self(g.arrows)}))

    def bundle_and_cover(self, rng):
        """A random bundle and cover, each of their namespaces relabelled:
        base points, bundle elements, piece names, and the elements of
        each piece."""
        bundle = random_bundle(rng, "A", base_size=2, max_fibre=2)
        cover = random_cover(rng, "C", bundle.base)
        base, total = self(bundle.base), self(bundle.total)
        piece = self(p.name for p in cover.pieces)
        relabelled = Bundle(
            "A", tuple(base.values()), tuple(total.values()),
            {total[e]: base[x] for e, x in bundle.proj.items()})
        pieces = []
        for p in cover.pieces:
            elem = self(p.elements)
            pieces.append(CoverPiece(piece[p.name], tuple(elem.values()), {
                elem[u]: base[x] for u, x in p.to_base.items()}))
        return relabelled, Cover("C", relabelled.base, tuple(pieces))


def check_glued(d, size):
    """d glues to a bundle of ``size`` distinct elements, each comparison
    map a bijection onto its glued fibre, and the bundle descends again."""
    assert check_cocycle(d).ok
    r = glue(d)
    assert distinct(r.bundle.total) and len(r.bundle.total) == size
    r.bundle.validate()
    for p in d.cover.pieces:
        local = r.piece_maps[p.name]
        for u in p.elements:
            image = [c for (v, _), c in local.items() if v == u]
            over = [c for c in r.bundle.total
                    if r.bundle.proj[c] == p.to_base[u]]
            assert sorted(image) == sorted(over)
    validate_datum(descend(r.bundle, d.cover))


@pytest.mark.parametrize("c", RESERVED)
@settings(max_examples=4, deadline=None)
@given(t=hostile, data=st.data(),
       copies=st.lists(st.integers(1, 2), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 16))
def test_every_constructor_keeps_hostile_parts_apart(relabel, c, t, data,
                                                     copies, seed):
    labels = Labels(data, t, c)
    p = labels.groupoid(relabel, pair_groupoid("p", ["0", "1"]))
    k = labels.groupoid(relabel, transitive_groupoid("k", ["0", "1"],
                                                     groups.cyclic(2)))
    # products and pullbacks
    three = chain(t, c, 3)
    check_groupoid(pair_groupoid("q", three), 3, 9)
    check_groupoid(transitive_groupoid("t", three, groups.cyclic(2)), 3, 18)
    cyl = cocylinder(p)
    check_groupoid(cyl.groupoid, 4, 16)
    for f in (cyl.e0, cyl.e1, cyl.t):
        validate_functor(f)
    check_groupoid(homotopy_pullback(Cospan(identity_functor(p),
                                            identity_functor(p))).groupoid,
                   4, 16)
    check_groupoid(homotopy_pullback(Cospan(identity_functor(p),
                                            identity_functor(p)), 2).groupoid,
                   8, 64)
    big, collapse = inflate(k, dict(zip(k.objects, copies)))
    check_groupoid(big, sum(copies), 2 * sum(copies) ** 2)
    validate_functor(collapse)
    check_groupoid(homotopy_pullback(Cospan(collapse,
                                            identity_functor(k))).groupoid,
                   4 * sum(copies), 32 * sum(copies) ** 2)
    check_groupoid(disjoint_union("u", [p, p, k]), 6, 16)
    # bibundles
    b = check_bibundle(functor_to_bibundle(collapse), 4 * sum(copies))
    ident = check_bibundle(functor_to_bibundle(identity_functor(k)), 8)
    check_bibundle(tensor(b, ident), 4 * sum(copies))
    check_bibundle(tensor(unit_bibundle(k), ident), 8)
    check_bibundle(tensor(unit_bibundle(k), unit_bibundle(k)), 8)
    # descent
    rng = random.Random(seed)
    bundle, cover = labels.bundle_and_cover(rng)
    d = validate_datum(descend(bundle, cover))
    for fib in d.fibres.values():
        assert distinct(fib.total)
    check_glued(d, len(bundle.total))
    check_glued(scramble_datum(rng, d), len(bundle.total))


# ---------------------------------------------------------------------------
# the cases that collided when the separators went unescaped


def test_functor_bibundle_points_stay_apart_when_ids_hold_the_separator():
    """Pair({P, P|q}) -> Z2 with elements r and q|r: unescaped, the points
    (P, q|r) and (P|q, r) would both be P|q|r."""
    h = pair_groupoid("h", ["P", "P|q"])
    z2 = point_groupoid("Z2", groups.cyclic(2), ["r", "q|r"])
    f = validate_functor(StrictArrow(
        "f", h, z2, dict.fromkeys(h.objects, "*"),
        dict.fromkeys(h.arrows, z2.unit["*"])))
    b = check_bibundle(functor_to_bibundle(f), 4)
    assert sorted(b.carrier) == ["P\\|q|q|r", "P\\|q|r", "P|q|r", "P|r"]


def test_tensor_classes_stay_apart_when_ids_hold_the_separator(relabel):
    """Pair(2) with arrows a, *, ** and aa: unescaped, the classes of
    (**, *) and (*, **) in its unit tensored with itself would both be
    [****]."""
    g = validate_groupoid(relabel(pair_groupoid("g", ["x", "y"]), {
        "x>x": "a", "x>y": "*", "y>x": "**", "y>y": "aa"}))
    u = unit_bibundle(g)
    t = check_bibundle(tensor(u, u), 4)
    assert bibundles_isomorphic(t, u) is not None


def test_descended_elements_stay_apart_when_ids_hold_the_separator():
    """Points u and u.v over one base point whose fibre holds e and v.e:
    unescaped, the elements (u, v.e) and (u.v, e) would both be u.v.e."""
    bundle = Bundle("A", ("x",), ("e", "v.e"), {"e": "x", "v.e": "x"})
    cover = Cover("C", ("x",), (CoverPiece("P", ("u", "u.v"),
                                           {"u": "x", "u.v": "x"}),))
    d = validate_datum(descend(bundle, cover))
    assert sorted(d.fibres["P"].total) == ["u.e", "u.v.e", "u\\.v.e",
                                           "u\\.v.v.e"]


# ---------------------------------------------------------------------------
# relabelling gate


def decisions(tmp_path, members):
    """Exit code and witness sizes of every deciding subcommand on each
    member and on each consecutive pair of members."""
    paths = []
    for i, g in enumerate(members):
        path = tmp_path / f"m{i}.grpd"
        path.write_text(serialize_groupoid(g), encoding="utf-8")
        paths.append(str(path))

    def report(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["--json", *argv])
        return code, json.loads(out.getvalue())

    seen = []
    for path in paths:
        code, r = report("transitive", path)
        seen.append(("transitive", code, r["result"]["transitive"]))
        code, r = report("cgeo", path)
        res = r["result"]
        seen.append(("cgeo", code, res["cgeo"],
                     sorted(map(len, res["cover"])),
                     [c["vacuous"] for c in res["certificates"]]))
        for command in ("skeleton", "locus"):
            code, r = report(command, path)
            seen.append((command, code, r["result"][command]))
    for a, b in zip(paths, paths[1:]):
        code, r = report("morita", a, b)
        carrier = r.get("result", {}).get("carrier", [])
        assert distinct(carrier)
        seen.append(("morita", code, len(carrier)))
        code, r = report("morita-homotopy", a, b)
        seen.append(("morita-homotopy", code,
                     len(r.get("result", {}).get("mid_objects", []))))
    return seen


@pytest.fixture(scope="module")
def gate_corpus():
    return corpus_groupoids(CorpusConfig(seed=7, count=24, max_objects=4,
                                         max_isotropy=6, max_arrows=60))


@pytest.fixture(scope="module")
def gate_decisions(gate_corpus, tmp_path_factory):
    seen = decisions(tmp_path_factory.mktemp("original"), gate_corpus)
    # equivalent neighbours among the members, so that morita builds
    # carriers that the relabelling can break
    assert sum(1 for s in seen if s[0] == "morita" and s[1] == EXIT_OK) >= 5
    return seen


@pytest.mark.parametrize("c", RESERVED)
def test_deciders_answer_alike_on_hostile_relabellings(c, gate_corpus,
                                                       gate_decisions,
                                                       relabel, tmp_path):
    # Ids a, aca, acaca, ...: unescaped, the morita points x|c of (a, a|a)
    # and (a|a, a) would meet.  Every member gets the same name, too.
    hostile_members = []
    for g in gate_corpus:
        ids = g.objects + g.arrows
        labels = chain("a", c, len(ids))
        hostile_members.append(relabel(g, dict(zip(ids, labels)), name="h"))
    assert decisions(tmp_path, hostile_members) == gate_decisions
