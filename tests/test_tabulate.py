"""The builders that present a groupoid through ``core.tabulate`` against
copies of the loop-per-builder versions they replaced: the same ids in
the same order, the same tables and functors, the same serialized text.
The cocylinder, now the pullback of the identity cospan, is compared
through the isomorphism between the two id formats.  Each computed
``comp`` is compared with the eager ``tabulate`` that stored it (the
``eagerly`` fixture)."""

import dataclasses
import random
import sys
import tracemalloc
from itertools import islice

import pytest

from grpd import core, groups, homotopy
from grpd.cli import run
from grpd.complexity import point_groupoid
from grpd.core import (Composite, FinGroupoid, StrictArrow,
                       NatTrans, cocylinder, comp_row, compose_functors,
                       discrete_groupoid, disjoint_union, identity_functor,
                       pair_groupoid, restrict, tabulate, validate_functor,
                       validate_groupoid, whisker)
from grpd.corpus import inflate, transitive_groupoid
from grpd.formats import parse_document, serialize_functor, serialize_groupoid
from grpd.homotopy import Cospan, PullbackResult, _p1, homotopy_pullback

# ---------------------------------------------------------------------------
# the builders as they were, each with its own by_src index and comp loop


def old_discrete_groupoid(name, objects):
    objects = tuple(objects)
    unit = {x: f"id_{x}" for x in objects}
    arrows = tuple(unit[x] for x in objects)
    return FinGroupoid(
        name=name, objects=objects, arrows=arrows,
        src={unit[x]: x for x in objects}, tgt={unit[x]: x for x in objects},
        comp={(unit[x], unit[x]): unit[x] for x in objects},
        unit=unit, inv={a: a for a in arrows})


def old_pair_groupoid(name, objects):
    objects = tuple(objects)
    aid = {(x, y): f"{x}>{y}" for x in objects for y in objects}
    arrows = tuple(aid[k] for k in sorted(aid))
    src = {aid[(x, y)]: x for (x, y) in aid}
    tgt = {aid[(x, y)]: y for (x, y) in aid}
    comp = {}
    for x in objects:
        for y in objects:
            for z in objects:
                comp[(aid[(y, z)], aid[(x, y)])] = aid[(x, z)]
    return FinGroupoid(
        name=name, objects=objects, arrows=arrows, src=src, tgt=tgt,
        comp=comp, unit={x: aid[(x, x)] for x in objects},
        inv={aid[(x, y)]: aid[(y, x)] for (x, y) in aid})


def old_cocylinder(g):
    objects = tuple(sorted(g.arrows))
    arrows = []
    src, tgt, e0a, e1a = {}, {}, {}, {}
    index = {}
    for a in objects:
        for u in g.arrows:
            if g.src[u] != g.src[a]:
                continue
            for b in objects:
                if g.src[b] != g.tgt[u]:
                    continue
                v = g.comp[(g.comp[(b, u)], g.inv[a])]
                sq = f"({u},{v})@{a}"
                arrows.append(sq)
                src[sq], tgt[sq] = a, b
                e0a[sq], e1a[sq] = u, v
                index[(u, a, b)] = sq
    comp, unit, inv = {}, {}, {}
    for a in objects:
        unit[a] = index[(g.unit[g.src[a]], a, a)]
    by_src = {}
    for sq in arrows:
        inv[sq] = index[(g.inv[e0a[sq]], tgt[sq], src[sq])]
        by_src.setdefault(src[sq], []).append(sq)
    for sq1 in arrows:
        u1, base1 = e0a[sq1], src[sq1]
        for sq2 in by_src.get(tgt[sq1], ()):
            comp[(sq2, sq1)] = index[(g.comp[(e0a[sq2], u1)], base1,
                                      tgt[sq2])]
    cyl = FinGroupoid(name=f"{g.name}^I", objects=objects,
                      arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                      unit=unit, inv=inv)
    t = {a: f"({a},{a})@{g.unit[g.src[a]]}" for a in g.arrows}
    return cyl, e0a, e1a, t


def old_p1(c):
    phi, psi = c.left, c.right
    k, j, g = phi.dom, psi.dom, phi.cod

    def oid(x, s, y):
        return f"({x}!{s}!{y})"

    def aid(kk, s, ii):
        return f"[{kk}!{s}!{ii}]"

    objects, osrc = [], {}
    for x in k.objects:
        for y in j.objects:
            for s in g.hom_set(phi.obj_map[x], psi.obj_map[y]):
                objects.append(oid(x, s, y))
                osrc[oid(x, s, y)] = (x, s, y)
    arrows, asrc = [], {}
    for kk in k.arrows:
        for ii in j.arrows:
            for s in g.hom_set(phi.obj_map[k.src[kk]],
                               psi.obj_map[j.tgt[ii]]):
                arrows.append(aid(kk, s, ii))
                asrc[aid(kk, s, ii)] = (kk, s, ii)
    src, tgt = {}, {}
    for a, (kk, s, ii) in asrc.items():
        src[a] = oid(k.src[kk], g.comp[(g.inv[psi.arr_map[ii]], s)], j.src[ii])
        tgt[a] = oid(k.tgt[kk], g.comp[(s, g.inv[phi.arr_map[kk]])], j.tgt[ii])
    unit = {o: aid(k.unit[x], s, j.unit[y]) for o, (x, s, y) in osrc.items()}
    inv = {}
    for a, (kk, s, ii) in asrc.items():
        inv[a] = aid(k.inv[kk],
                     g.comp[(g.comp[(g.inv[psi.arr_map[ii]], s)],
                             g.inv[phi.arr_map[kk]])],
                     j.inv[ii])
    comp, by_src = {}, {}
    for a in arrows:
        by_src.setdefault(src[a], []).append(a)
    for a1 in arrows:
        k1, s1, i1 = asrc[a1]
        for a2 in by_src.get(tgt[a1], ()):
            k2, _, i2 = asrc[a2]
            comp[(a2, a1)] = aid(k.comp[k2, k1], g.comp[psi.arr_map[i2], s1],
                                 j.comp[i2, i1])
    grp = FinGroupoid(name=f"P1({phi.name},{psi.name})",
                      objects=tuple(objects), arrows=tuple(arrows),
                      src=src, tgt=tgt, comp=comp, unit=unit, inv=inv)
    pr1 = StrictArrow(name="pr1", dom=grp, cod=k,
                      obj_map={o: osrc[o][0] for o in objects},
                      arr_map={a: asrc[a][0] for a in arrows})
    pr2 = StrictArrow(name="pr2", dom=grp, cod=j,
                      obj_map={o: osrc[o][2] for o in objects},
                      arr_map={a: asrc[a][2] for a in arrows})
    cell = NatTrans(source_fun=compose_functors(phi, pr1),
                    target_fun=compose_functors(psi, pr2),
                    component={o: osrc[o][1] for o in objects})
    return PullbackResult(groupoid=grp, pr1=pr1, pr2=pr2, cells=(cell,),
                          degree=1)


def old_transitive_groupoid(name, objects, table):
    objects = tuple(objects)
    n = len(table)
    e = groups.identity_of(table)

    def aid(x, y, k):
        return f"{x}>{y}:{k}"

    arrows, src, tgt = [], {}, {}
    for x in objects:
        for y in objects:
            for k in range(n):
                a = aid(x, y, k)
                arrows.append(a)
                src[a], tgt[a] = x, y
    comp = {}
    for x in objects:
        for y in objects:
            for z in objects:
                for k1 in range(n):
                    for k2 in range(n):
                        comp[(aid(y, z, k2), aid(x, y, k1))] = \
                            aid(x, z, table[k2][k1])
    inv_idx = {k: next(b for b in range(n) if table[k][b] == e)
               for k in range(n)}
    return FinGroupoid(
        name=name, objects=objects, arrows=tuple(arrows), src=src, tgt=tgt,
        comp=comp, unit={x: aid(x, x, e) for x in objects},
        inv={aid(x, y, k): aid(y, x, inv_idx[k]) for x in objects
             for y in objects for k in range(n)})


def old_inflate(g, copies):
    def o(x, i):
        return f"{x}@{i}"

    def a(c, i, j):
        return f"{c}@{i}>{j}"

    objects = tuple(o(x, i) for x in g.objects for i in range(copies[x]))
    arrows, src, tgt, proj_a = [], {}, {}, {}
    for c in g.arrows:
        x, y = g.src[c], g.tgt[c]
        for i in range(copies[x]):
            for j in range(copies[y]):
                t = a(c, i, j)
                arrows.append(t)
                src[t], tgt[t] = o(x, i), o(y, j)
                proj_a[t] = c
    comp = {}
    for c2 in g.arrows:
        for c1 in g.arrows:
            if (c2, c1) not in g.comp:
                continue
            c = g.comp[(c2, c1)]
            x, y, z = g.src[c1], g.tgt[c1], g.tgt[c2]
            for i in range(copies[x]):
                for j in range(copies[y]):
                    for k in range(copies[z]):
                        comp[(a(c2, j, k), a(c1, i, j))] = a(c, i, k)
    unit = {o(x, i): a(g.unit[x], i, i)
            for x in g.objects for i in range(copies[x])}
    inv = {}
    for c in g.arrows:
        x, y = g.src[c], g.tgt[c]
        for i in range(copies[x]):
            for j in range(copies[y]):
                inv[a(c, i, j)] = a(g.inv[c], j, i)
    big = FinGroupoid(name=f"{g.name}*inflated", objects=objects,
                      arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                      unit=unit, inv=inv)
    obj_map = {o(x, i): x for x in g.objects for i in range(copies[x])}
    return big, obj_map, proj_a


def old_point_groupoid(name, table, elements=None):
    table = tuple(tuple(row) for row in table)
    e = groups.validate_table(table)
    n = len(table)
    if elements is None:
        elements = tuple(f"k{i}" for i in range(n))
    obj = "*"
    return FinGroupoid(
        name=name, objects=(obj,), arrows=elements,
        src={a: obj for a in elements}, tgt={a: obj for a in elements},
        comp={(elements[i], elements[j]): elements[table[i][j]]
              for i in range(n) for j in range(n)},
        unit={obj: elements[e]},
        inv={elements[i]: elements[next(b for b in range(n)
                                        if table[i][b] == e)]
             for i in range(n)})


# ---------------------------------------------------------------------------
# comparisons


def assert_same(new: FinGroupoid, old: FinGroupoid):
    assert new.name == old.name
    assert new.objects == old.objects
    assert new.arrows == old.arrows
    for table in ("src", "tgt", "comp", "unit", "inv"):
        assert getattr(new, table) == getattr(old, table), table
    # equal tables give equal text; the text is compared where it is cheap
    if len(old.comp) <= 20000:
        assert serialize_groupoid(new) == serialize_groupoid(old)


def assert_same_maps(f: StrictArrow, obj_map, arr_map):
    assert f.obj_map == obj_map
    assert f.arr_map == arr_map


@pytest.fixture(scope="module")
def tiny(corpus):
    """Corpus members whose cocylinder and pullbacks stay small."""
    return [g for g in corpus if len(g.arrows) <= 12]


@pytest.fixture(scope="module")
def blocks():
    """Pair(m) x K for m <= 3 and K of order <= 4, at most 18 arrows."""
    out = []
    for m in (1, 2, 3):
        for label, table in groups.small_groups(4):
            if m * m * len(table) <= 18:
                out.append(transitive_groupoid(
                    f"P{m}x{label}", [f"o{i}" for i in range(m)], table))
    return out


def test_tabulate_builds_a_valid_groupoid_from_parts():
    # Z3 as parts 0, 1, 2 on one object: compose gives one row of ids,
    # "p then q" for each q; unit and inverse are looked up from parts
    g = tabulate("Z3", ("*",), {k: f"r{k}" for k in range(3)},
                 ends=lambda k: ("*", "*"),
                 compose=lambda p, qs: [f"r{(q + p) % 3}" for q in qs],
                 unit=lambda x: 0, inv=lambda k: -k % 3)
    validate_groupoid(g)
    assert g.arrows == ("r0", "r1", "r2")
    assert g.comp["r2", "r2"] == "r1"
    assert g.inv == {"r0": "r0", "r1": "r2", "r2": "r1"}


def _counted_pair_z2():
    """Pair({a, b}) x Z2 with arrows listed out of sorted order: its
    arrows (parts to ids, in arrow order), a maker of fresh tables of it,
    and the list of the calls their ``compose`` makes, each (p, qs)."""
    parts = [(x, y, k) for k in (1, 0) for y in "ba" for x in "ab"]
    arrows = {p: "".join(map(str, p)) for p in parts}
    calls = []

    def compose(p, qs):
        calls.append((p, list(qs)))
        return [arrows[p[0], q[1], (p[2] + q[2]) % 2] for q in qs]

    def make():
        return tabulate("P2xZ2", ("a", "b"), arrows, ends=lambda p: p[:2],
                        compose=compose, unit=lambda x: (x, x, 0),
                        inv=lambda p: (p[1], p[0], p[2]))
    return arrows, make, calls


def test_tabulate_composes_once_per_arrow_over_the_arrows_out_of_its_target():
    # building composes nothing; one pass over comp.items() composes once
    # per arrow, in arrow order, each call's qs the parts leaving p's
    # target in arrow order; the rows are kept, so the keys, a second
    # pass, lookups and validation compose nothing more
    arrows, make, calls = _counted_pair_z2()
    parts = list(arrows)
    g = make()
    assert calls == []
    entries = list(g.comp.items())
    assert [p for p, _ in calls] == parts
    for p, qs in calls:
        assert qs == [q for q in parts if q[0] == p[1]]
    # the rows come in the same order: p in arrow order, then q
    assert [k for k, _ in entries] == [(arrows[q], arrows[p])
                                       for p, qs in calls for q in qs]
    del calls[:]
    assert list(g.comp) == [k for k, _ in entries]
    assert list(g.comp.items()) == entries
    assert all(g.comp[k] == r for k, r in entries)
    assert len(g.comp) == len(entries) == 32
    validate_groupoid(g)
    assert calls == []
    # on a fresh table a lookup composes its arrow's whole row, once: the
    # first five entries lie in the rows of the first two arrows
    g = make()
    for (q, p), r in entries[:5]:
        assert g.comp[q, p] == r
    assert calls == [(p, [q for q in parts if q[0] == p[1]])
                     for p in parts[:2]]


def test_blocks_make_the_calls_of_items_grouped_by_target(monkeypatch):
    # on a fresh table, making comp.blocks() composes nothing; reading it
    # composes once per arrow, with the parts leaving that arrow's target
    # (the calls of items()), grouped by target, and looks no entry up;
    # then a second blocks() and items() read the kept rows
    arrows, make, calls = _counted_pair_z2()
    parts = list(arrows)
    entries = dict(make().comp.items())
    by_row = calls[:]
    del calls[:]
    g = make()

    def lookup(self, key):
        raise AssertionError(f"keyed read of {key!r}")

    monkeypatch.setattr(Composite, "__getitem__", lookup)
    blocks = g.comp.blocks()
    assert calls == []
    blocks = list(blocks)
    assert sorted(calls) == sorted(by_row) and len(calls) == len(parts)
    part = dict(zip(g.arrows, parts))
    grouped = []
    for ins, outs, rows in blocks:
        (y,) = {g.tgt[a] for a in ins}
        assert list(ins) == [a for a in g.arrows if g.tgt[a] == y]
        assert list(outs) == [a for a in g.arrows if g.src[a] == y]
        qs = [part[q] for q in outs]
        grouped += [(part[a], qs) for a in ins]
        assert [list(r) for r in rows] == [[entries[q, a] for q in outs]
                                           for a in ins]
    assert calls == grouped
    assert sum(len(ins) * len(outs) for ins, outs, _ in blocks) \
        == len(entries) == 32
    del calls[:]
    assert list(g.comp.blocks()) == blocks
    monkeypatch.undo()
    assert dict(g.comp.items()) == entries
    assert calls == []


def test_small_builders_match_the_loop_versions():
    for objects in ((), ("a",), ("b", "a", "c"), ("1", "2", "3", "4")):
        assert_same(discrete_groupoid("d", objects),
                    old_discrete_groupoid("d", objects))
        assert_same(pair_groupoid("p", objects),
                    old_pair_groupoid("p", objects))
    for label, table in groups.small_groups(12):
        assert_same(point_groupoid(label, table),
                    old_point_groupoid(label, table))
        names = [f"e{i}" for i in range(len(table))][::-1]
        assert_same(point_groupoid(label, table, names),
                    old_point_groupoid(label, table, tuple(names)))


def test_transitive_groupoid_matches_the_loop_version():
    for label, table in groups.small_groups(6):
        for objects in (["x"], ["b", "a"], ["1", "2", "3"]):
            assert_same(transitive_groupoid(label, objects, table),
                        old_transitive_groupoid(label, objects, table))


def _cocylinder_ids(g, old, e0a, e1a):
    """The isomorphism from the loop version's ids to the pullback's: an
    object a: x -> y goes to ``(x!a!y)``, a square (u, v) at a to
    ``[u!v.a!v]``."""
    obj = {a: f"({g.src[a]}!{a}!{g.tgt[a]})" for a in old.objects}
    arr = {sq: f"[{e0a[sq]}!{g.comp[e1a[sq], old.src[sq]]}!{e1a[sq]}]"
           for sq in old.arrows}
    return obj, arr


def test_cocylinder_matches_the_loop_version(tiny, blocks):
    for g in tiny + blocks:
        cyl = cocylinder(g)
        new = cyl.groupoid
        old, e0a, e1a, t = old_cocylinder(g)
        obj, arr = _cocylinder_ids(g, old, e0a, e1a)
        assert new.name == f"P1(id_{g.name},id_{g.name})"
        assert sorted(new.objects) == sorted(obj.values())
        assert sorted(new.arrows) == sorted(arr.values())
        assert len(set(new.arrows)) == len(old.arrows)
        assert new.src == {arr[a]: obj[x] for a, x in old.src.items()}
        assert new.tgt == {arr[a]: obj[x] for a, x in old.tgt.items()}
        assert new.comp == {(arr[p], arr[q]): arr[r]
                            for (p, q), r in old.comp.items()}
        assert new.unit == {obj[x]: arr[a] for x, a in old.unit.items()}
        assert new.inv == {arr[a]: arr[b] for a, b in old.inv.items()}
        assert_same_maps(cyl.e0, {obj[a]: g.src[a] for a in old.objects},
                         {arr[sq]: u for sq, u in e0a.items()})
        assert_same_maps(cyl.e1, {obj[a]: g.tgt[a] for a in old.objects},
                         {arr[sq]: v for sq, v in e1a.items()})
        assert_same_maps(cyl.t, {x: obj[g.unit[x]] for x in g.objects},
                         {a: arr[sq] for a, sq in t.items()})


def test_cocylinder_ids_stay_apart_on_the_square_collision_probe(relabel):
    # Pair(2) x Z2 with the four arrows out of o0 named as the benchmark's
    # probe names them: under the loop version's ``(u,v)@a`` the squares
    # (s, t,w) and (s,t, w) at one base shared an id
    g = transitive_groupoid("probe", ["o0", "o1"], groups.cyclic(2))
    g = relabel(g, dict(zip(g.arrows_from["o0"], ("s", "s,t", "t,w", "w"))))
    validate_groupoid(g)
    cyl = cocylinder(g).groupoid
    assert len(cyl.arrows) == len(set(cyl.arrows)) == 128
    validate_groupoid(cyl)


def test_inflate_matches_the_loop_version(small_corpus, blocks):
    rng = random.Random(8)
    for g in small_corpus + blocks:
        copies = {x: rng.randint(1, 3) for x in g.objects}
        big, proj = inflate(g, copies)
        old, obj_map, arr_map = old_inflate(g, copies)
        assert_same(big, old)
        assert_same_maps(proj, obj_map, arr_map)


def _cospans(random_functor, pool, count, seed):
    """Cospans whose legs are random_functor arrows between pool members."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k, j, g = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        out.append(Cospan(random_functor(rng, k, g), random_functor(rng, j, g)))
    return out


def _assert_same_pullback(new: PullbackResult, old: PullbackResult):
    assert_same(new.groupoid, old.groupoid)
    assert_same_maps(new.pr1, old.pr1.obj_map, old.pr1.arr_map)
    assert_same_maps(new.pr2, old.pr2.obj_map, old.pr2.arr_map)
    for t, u in zip(new.cells, old.cells, strict=True):
        assert t.component == u.component


def test_p1_matches_the_loop_version(tiny, blocks, random_functor):
    identities = [Cospan(identity_functor(g), identity_functor(g))
                  for g in blocks]
    for c in identities + _cospans(random_functor, tiny + blocks, 16, seed=20):
        _assert_same_pullback(_p1(c), old_p1(c))


def test_p2_matches_the_loop_version(tiny, blocks, random_functor):
    # P2 grows about |G1| times past P1, so its legs join small groupoids
    small = [g for g in tiny + blocks if len(g.arrows) <= 4]
    for c in _cospans(random_functor, small, 12, seed=21):
        # P2 is P1 of the left leg against P1(id, right)'s first projection
        inner = old_p1(Cospan(identity_functor(c.left.cod), c.right))
        outer = old_p1(Cospan(c.left, inner.pr1))
        _assert_same_pullback(homotopy_pullback(c, 2), PullbackResult(
            groupoid=outer.groupoid, pr1=outer.pr1,
            pr2=compose_functors(inner.pr2, outer.pr2),
            cells=(outer.cells[0],) + tuple(whisker(t, outer.pr2)
                                            for t in inner.cells),
            degree=2))


# ---------------------------------------------------------------------------
# the computed comp against the eager oracle (tests/conftest.py)

# Pair(2) with ids over {a, !}, as in the CLI's pullback probe
BANG = {"1": "a!!", "2": "a!", "1>1": "!aa!", "1>2": "aa", "2>1": "a!!!",
        "2>2": "!aa"}
HOSTILE = ["a", "a!", "a!!", "x>y", "\\", "a\\>", "(a!b)", "[a:b]@c"]


def _oracle_case(case, relabel):
    """A builder that tabulates and its arguments, on hostile ids."""
    bang = relabel(pair_groupoid("P2", "12"), BANG, "bang")
    block = transitive_groupoid("z2", HOSTILE[:2], groups.cyclic(2))
    wide = transitive_groupoid("w", HOSTILE[:5], groups.cyclic(2))
    ident = Cospan(identity_functor(bang), identity_functor(bang))
    return {
        "discrete": (discrete_groupoid, ("d", HOSTILE)),
        "pair": (pair_groupoid, ("p", HOSTILE)),
        "point": (point_groupoid, ("S3", dict(groups.small_groups(6))["S3"],
                                   HOSTILE[:6])),
        "transitive": (transitive_groupoid,
                       ("t", HOSTILE[3:6], groups.cyclic(3))),
        "cocylinder": (lambda g: cocylinder(g).groupoid, (block,)),
        "P1": (lambda c: _p1(c).groupoid, (ident,)),
        "P2": (lambda c: homotopy_pullback(c, 2).groupoid, (ident,)),
        "inflate": (lambda g: inflate(g, {"a!!": 2, "a!": 3})[0], (bang,)),
        "restrict": (lambda g: restrict(g, g.objects[::2]), (wide,)),
        "union": (disjoint_union, ("u", [bang, block, bang])),
    }[case]


@pytest.mark.parametrize("case", ["discrete", "pair", "point", "transitive",
                                  "cocylinder", "P1", "P2", "inflate",
                                  "restrict", "union"])
def test_computed_comp_matches_the_eager_oracle(case, relabel, eagerly):
    build, args = _oracle_case(case, relabel)
    old = eagerly(build, *args)
    # a computed table keeps each row as it is first read: on one table
    # by lookups, on another by blocks(); both read the oracle's answers
    new, other = build(*args), build(*args)
    assert isinstance(new.comp, Composite) and type(old.comp) is dict
    assert all(new.comp[k] == r for k, r in old.comp.items())
    for ins, outs, rows in other.comp.blocks():
        assert [list(r) for r in rows] == [[old.comp[q, a] for q in outs]
                                           for a in ins]
    for comp in (new.comp, other.comp):
        assert list(comp.items()) == list(old.comp.items())
        assert list(comp) == list(old.comp)
        assert len(comp) == len(old.comp)
        assert all(comp[k] == r for k, r in old.comp.items())
    assert list(new.comp.blocks()) == list(other.comp.blocks())
    # what the dict refuses, the computed table refuses: reversed pairs
    # that compose one way only, pairs that do not compose, unknown ids
    arrows, src, tgt = new.arrows, new.src, new.tgt
    reverse = list(islice(((a, q) for q, a in old.comp
                           if (a, q) not in old.comp), 20))
    apart = list(islice(((q, a) for q in arrows for a in arrows
                         if src[q] != tgt[a]), 20))
    unknown = [("ghost", arrows[0]), (arrows[0], "ghost"), "ghost",
               (arrows[0],), (arrows[0],) * 3]
    assert bool(apart) == (len(new.objects) > 1)
    assert bool(reverse) == any(src[a] != tgt[a] for a in arrows)
    for key in reverse + apart + unknown:
        assert key not in new.comp and key not in old.comp
        assert new.comp.get(key) is None
        with pytest.raises(KeyError):
            new.comp[key]
    text = serialize_groupoid(new)
    assert text == serialize_groupoid(other) == serialize_groupoid(old)
    parsed = parse_document(text).groupoids[new.name]
    assert new.equal_presentation(parsed) and parsed.equal_presentation(new)
    assert new.equal_presentation(old)
    validate_groupoid(new)
    # the readers that take comp by rows read the same from both kinds
    assert new.tree == old.tree and new.tree_loop == old.tree_loop
    assert new.components == old.components
    for block in new.components:
        assert new.isotropy(block[0]) == old.isotropy(block[0])
    keep = new.objects[::2]
    piece, eager_piece = restrict(new, keep), restrict(old, keep)
    assert isinstance(piece.comp, Composite)
    assert list(piece.comp.items()) == list(eager_piece.comp.items())
    assert piece.equal_presentation(eager_piece)
    for a in arrows[:20]:
        qs = new.arrows_from[tgt[a]]
        assert comp_row(new.comp, a, qs) == comp_row(old.comp, a, qs) \
            == [old.comp[q, a] for q in qs]
    for q, a in apart[:5] + [("ghost", arrows[0])]:
        for comp in (new.comp, old.comp):
            with pytest.raises(KeyError):
                comp_row(comp, a, [*new.arrows_from[tgt[a]], q])
    if case == "cocylinder":
        cyl, eager = cocylinder(*args), eagerly(cocylinder, *args)
        for name in ("e0", "e1", "t"):
            fs = [getattr(c, name) for c in (cyl, eager)]
            fine = [_verdict(validate_functor, f) for f in fs]
            bent = [_verdict(validate_functor, _bend(f)) for f in fs]
            assert fine == [None, None] and bent[0] == bent[1] is not None


def _verdict(check, x):
    """check's verdict on x: None, or its error's type, message and
    witness."""
    try:
        check(x)
    except core.GroupoidError as err:
        return type(err), str(err), err.witness
    return None


def _bend(f):
    """f with the image of its last non-unit arrow a moved to another
    arrow of the same hom set, so that the squares still commute."""
    dom, cod = f.dom, f.cod
    units = set(dom.unit.values())
    a = [a for a in dom.arrows if a not in units][-1]
    fa = f.arr_map[a]
    other = next(b for b in cod.hom_set(cod.src[fa], cod.tgt[fa]) if b != fa)
    return dataclasses.replace(f, arr_map={**f.arr_map, a: other})


def test_validators_read_a_computed_table_by_rows(monkeypatch):
    """construct's pullback1 shape: P1 of the identity cospan on a parsed
    Pair(2) x Z2.  Validating P1, then both projections, then writing P1
    composes each of P1's 128 arrows' rows once, over all 16 arrows
    leaving its target, and nothing else: the sweep, the spanning tree,
    tree_loop, the isotropy tables, the generators' rows and the
    serializer share the kept rows, and reading again composes
    nothing."""
    g = parse_document(serialize_groupoid(transitive_groupoid(
        "s0_2", ["s0_2o0", "s0_2o1"], groups.cyclic(2)))).groupoids["s0_2"]
    validate_groupoid(g)
    legs = [dataclasses.replace(identity_functor(g), name=n) for n in "LR"]
    calls = []

    def counting_tabulate(*args, compose, **kwargs):
        def counted(p, qs):
            calls.append((p, len(qs)))
            return compose(p, qs)
        return core.tabulate(*args, compose=counted, **kwargs)

    monkeypatch.setattr(homotopy, "tabulate", counting_tabulate)
    res = homotopy_pullback(Cospan(*legs), 1)
    pb = res.groupoid
    assert (len(pb.objects), len(pb.arrows), len(pb.comp)) == (8, 128, 2048)
    assert {len(outs) for outs in pb.arrows_from.values()} == {16}
    assert calls == []
    validate_groupoid(pb)
    once = calls[:]
    assert len(once) == len(set(once)) == 128
    assert {n for _, n in once} == {16}
    for f in (res.pr1, res.pr2):
        validate_functor(f)
    text = serialize_groupoid(pb)
    assert calls == once
    validate_groupoid(pb)
    assert serialize_groupoid(pb) == text
    assert all(pb.comp[k] == r for k, r in pb.comp.items())
    for a in pb.arrows:
        outs = pb.arrows_from[pb.tgt[a]]
        assert comp_row(pb.comp, a, outs) == [pb.comp[q, a] for q in outs]
    assert calls == once


def test_kept_rows_hide_no_fault(eagerly):
    """Pair(2) x Z3 tabulated with a compose that returns one wrong id,
    of the right ends, in one full row, for every row and every column:
    whether tree_loop kept the bad row before validation or the sweep
    composes it, validate_groupoid raises what it raises on the stored
    table with the same fault."""
    g = transitive_groupoid("t", ["x", "y"], groups.cyclic(3))
    kept_first = []
    for bad in g.arrows:
        for col, q in enumerate(g.arrows_from[g.tgt[bad]]):
            right = g.comp[q, bad]
            wrong = next(b for b in g.hom_set(g.src[right], g.tgt[right])
                         if b != right)
            called = []

            def compose(p, qs):
                called.append(p)
                row = [g.comp[q, p] for q in qs]
                if p == bad:
                    row[col] = wrong
                return row

            def build():
                return core.tabulate(
                    "t", g.objects, {a: a for a in g.arrows},
                    ends=lambda a: (g.src[a], g.tgt[a]), compose=compose,
                    unit=g.unit.__getitem__, inv=g.inv.__getitem__)

            old = eagerly(build)
            del called[:]
            new = build()
            assert new.tree_loop == old.tree_loop
            kept_first.append(bad in called)
            want = _verdict(validate_groupoid, old)
            assert want is not None
            assert _verdict(validate_groupoid, new) == want
    # 12 arrows, 6 columns each; tree_loop keeps some bad rows, not all
    assert len(kept_first) == 72 and 0 < sum(kept_first) < 72


def test_p2_holds_less_than_the_eager_table(eagerly, tmp_path, capsys):
    """construct's pullback2 shape, Pair(2) x Z2 against itself: building
    P_2 peaks below the eager table alone, and ``grpd pullback --n 2``
    prints the same text and JSON as with the eager table."""
    g = validate_groupoid(
        transitive_groupoid("s0_5", ["s0_5o0", "s0_5o1"], groups.cyclic(2)))
    legs = [dataclasses.replace(identity_functor(g), name=n) for n in "LR"]
    cospan = Cospan(*legs)
    tracemalloc.start()
    try:
        grp = homotopy_pullback(cospan, 2).groupoid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = eagerly(homotopy_pullback, cospan, 2).groupoid.comp
    assert len(grp.comp) == len(table) == 2**9 * 2**8
    assert peak < sys.getsizeof(table) + sum(map(sys.getsizeof, table))
    path = tmp_path / "p2.grpd"
    path.write_text(serialize_groupoid(g) + "".join(map(serialize_functor,
                                                        legs)))
    outputs = []
    for build in (run, lambda argv: eagerly(run, argv)):
        for argv in (["pullback", "--n", "2", str(path)],
                     ["--json", "pullback", "--n", "2", str(path)]):
            outputs.append((build(argv), *capsys.readouterr()))
    assert outputs[0] == (0, "P_2: 32 objects, 2048 arrows\n", "")
    assert outputs[:2] == outputs[2:]
