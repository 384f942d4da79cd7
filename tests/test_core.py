import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import groups
from grpd.complexity import point_groupoid
from grpd.core import (BadFunctor, BadInverse, BadUnit, DanglingId,
                       DomainMismatch,
                       FinGroupoid, GroupoidError, NonAssociative,
                       PartialComposition, SignatureMismatch, StrictArrow,
                       are_homotopic,
                       cocylinder, compose_functors, discrete_groupoid,
                       disjoint_union, enumerate_functors, functors_equal,
                       identity_functor, interval_groupoid, pair_groupoid,
                       restrict, terminal_groupoid, validate_functor,
                       validate_groupoid, validate_nat)
from grpd.corpus import random_groupoid, transitive_groupoid


# ---------------------------------------------------------------------------
# validation


def test_terminal_groupoid_valid():
    g = terminal_groupoid()
    assert validate_groupoid(g) is g
    assert len(g.objects) == 1 and len(g.arrows) == 1


def test_pair_groupoid_on_three_valid():
    g = pair_groupoid("p3", ["1", "2", "3"])
    validate_groupoid(g)
    assert len(g.arrows) == 9
    assert g.comp[("2>3", "1>2")] == "1>3"


def test_pair2_with_bad_inverse_rejected():
    g = pair_groupoid("p2", ["1", "2"])
    bad = dataclasses.replace(g, inv={**g.inv, "1>2": "1>2"})
    with pytest.raises(BadInverse) as err:
        validate_groupoid(bad)
    assert err.value.witness == "1>2"


def test_missing_comp_is_partial_composition():
    # the witness is the first missing pair in arrow-by-arrow order
    for objects, deleted, witness in [
            (["1", "2"], [("2>1", "1>2")], ("2>1", "1>2")),
            (["1", "2", "3"],
             [("2>3", "1>2"), ("1>2", "2>1"), ("3>3", "3>3")],
             ("1>2", "2>1"))]:
        g = pair_groupoid("p", objects)
        comp = dict(g.comp)
        for key in deleted:
            del comp[key]
        with pytest.raises(PartialComposition) as err:
            validate_groupoid(dataclasses.replace(g, comp=comp))
        assert err.value.witness == witness


# the order-5 loop: 0 is a two-sided unit and every element is its own
# inverse, but (1.1).2 = 2 while 1.(1.2) = 4
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def loop_groupoid(table):
    """One-object 'groupoid' whose composition is the given table."""
    arrows = tuple(str(i) for i in range(len(table)))
    inv = {a: arrows[table[i].index(0)] for i, a in enumerate(arrows)}
    return FinGroupoid(
        name="L", objects=("*",), arrows=arrows,
        src={a: "*" for a in arrows}, tgt={a: "*" for a in arrows},
        comp={(arrows[i], arrows[j]): arrows[table[i][j]]
              for i in range(len(table)) for j in range(len(table))},
        unit={"*": "0"}, inv=inv)


def assert_non_associative(g):
    assert not oracle_is_groupoid(g)
    with pytest.raises(NonAssociative) as err:
        validate_groupoid(g)
    c, b, a = err.value.witness
    assert g.comp[(c, g.comp[(b, a)])] != g.comp[(g.comp[(c, b)], a)]


def test_order_5_loop_is_rejected_as_non_associative():
    assert_non_associative(loop_groupoid(LOOP5))
    assert_non_associative(transitive_groupoid("p2L", ["1", "2"], LOOP5))


def test_swap_inside_one_hom_set_breaks_only_associativity():
    g = validate_groupoid(
        transitive_groupoid("p2z3", ["1", "2"], groups.cyclic(3)))
    units = set(g.unit.values())
    # p a non-unit loop at 2, q and q2 two arrows 1 -> 2: p.q and p.q2
    # both lie in hom(1, 2), which holds no unit or inverse-law entry
    p = next(a for a in g.hom_set("2", "2") if a not in units)
    q, q2 = g.hom_set("1", "2")[:2]
    comp = dict(g.comp)
    comp[(p, q)], comp[(p, q2)] = comp[(p, q2)], comp[(p, q)]
    assert_non_associative(dataclasses.replace(g, comp=comp))


def test_dangling_ids_detected():
    g = terminal_groupoid()
    with pytest.raises(DanglingId):
        validate_groupoid(dataclasses.replace(g, src={"id_*": "ghost"}))
    with pytest.raises(BadUnit):
        validate_groupoid(dataclasses.replace(g, unit={}))


def oracle_is_groupoid(g):
    """Naive full-table axiom check, written independently of the
    validator: total lookups, every law by exhaustive loops."""
    try:
        objects, arrows = set(g.objects), set(g.arrows)
        if len(objects) != len(g.objects) or len(arrows) != len(g.arrows):
            return False
        for a in g.arrows:
            if g.src[a] not in objects or g.tgt[a] not in objects:
                return False
        for x in g.objects:
            u = g.unit[x]
            if u not in arrows or g.src[u] != x or g.tgt[u] != x:
                return False
        for a in g.arrows:
            if g.inv[a] not in arrows:
                return False
        for p in g.arrows:
            for q in g.arrows:
                defined = (p, q) in g.comp
                if defined != (g.src[p] == g.tgt[q]):
                    return False
                if defined:
                    r = g.comp[(p, q)]
                    if (r not in arrows or g.src[r] != g.src[q]
                            or g.tgt[r] != g.tgt[p]):
                        return False
        for a in g.arrows:
            if g.comp[(a, g.unit[g.src[a]])] != a:
                return False
            if g.comp[(g.unit[g.tgt[a]], a)] != a:
                return False
            b = g.inv[a]
            if g.comp[(b, a)] != g.unit[g.src[a]]:
                return False
            if g.comp[(a, b)] != g.unit[g.tgt[a]]:
                return False
        by_src = {}
        for a in g.arrows:
            by_src.setdefault(g.src[a], []).append(a)
        for a in g.arrows:
            for b in by_src.get(g.tgt[a], ()):
                for c in by_src.get(g.tgt[b], ()):
                    if g.comp[(c, g.comp[(b, a)])] != \
                            g.comp[(g.comp[(c, b)], a)]:
                        return False
        return True
    except KeyError:
        return False


def _mutate(rng, g):
    """Seeded structural tampering; may or may not break an axiom."""
    kind = rng.randrange(6)
    if kind == 0 and len(g.arrows) >= 2:
        a, b = rng.sample(list(g.arrows), 2)
        return dataclasses.replace(g, inv={**g.inv, a: b})
    if kind == 1 and g.comp:
        key = rng.choice(sorted(g.comp))
        val = rng.choice(g.arrows)
        return dataclasses.replace(g, comp={**g.comp, key: val})
    if kind == 2 and g.comp:
        key = rng.choice(sorted(g.comp))
        comp = dict(g.comp)
        del comp[key]
        return dataclasses.replace(g, comp=comp)
    if kind == 3 and g.objects:
        x = rng.choice(g.objects)
        return dataclasses.replace(g, unit={**g.unit, x: rng.choice(g.arrows)})
    if kind == 4 and g.arrows:
        a = rng.choice(g.arrows)
        return dataclasses.replace(g, src={**g.src, a: "ghost"})
    if kind == 5 and g.arrows:
        a = rng.choice(g.arrows)
        comp = dict(g.comp)
        comp[(a, a)] = a  # usually a non-composable or wrong entry
        return dataclasses.replace(g, comp=comp)
    return g


def test_validator_agrees_with_naive_oracle_on_200_instances():
    rng = random.Random(97)
    instances = []
    for i in range(100):
        instances.append(random_groupoid(rng, f"v{i}", 4, 4))
    for i in range(100):
        instances.append(_mutate(rng, rng.choice(instances[:100])))
    accepted = rejected = 0
    for g in instances:
        expected = oracle_is_groupoid(g)
        try:
            validate_groupoid(g)
            got = True
        except GroupoidError:
            got = False
        assert got == expected, g.name
        accepted += got
        rejected += not got
    assert accepted >= 100 and rejected >= 20


def test_components_are_the_nonempty_hom_set_classes(corpus):
    """Oracle without union-find: x and y share a component exactly when
    hom(x, y) is non-empty."""
    for g in corpus:
        classes = {tuple(sorted(y for y in g.objects if g.hom_set(x, y)))
                   for x in g.objects}
        assert g.components == tuple(sorted(classes)), g.name


# ---------------------------------------------------------------------------
# functor composition


def test_compose_identity_laws(small_corpus):
    rng = random.Random(3)
    from grpd.corpus import random_functor
    for g in small_corpus[:6]:
        for h in small_corpus[:6]:
            f = random_functor(rng, g, h)
            validate_functor(f)
            assert functors_equal(compose_functors(identity_functor(h), f), f)
            assert functors_equal(compose_functors(f, identity_functor(g)), f)


def test_compose_associative(small_corpus):
    rng = random.Random(4)
    from grpd.corpus import random_functor
    a, b, c, d = small_corpus[:4]
    f = random_functor(rng, a, b)
    g = random_functor(rng, b, c)
    h = random_functor(rng, c, d)
    assert functors_equal(compose_functors(h, compose_functors(g, f)),
                          compose_functors(compose_functors(h, g), f))


def test_compose_through_terminal():
    p2 = pair_groupoid("p2", ["1", "2"])
    one = restrict(p2, ["1"])
    pt = terminal_groupoid()
    incl = StrictArrow("i", one, p2, {"1": "1"}, {"1>1": "1>1"})
    collapse = StrictArrow("c", p2, pt, {"1": "*", "2": "*"},
                           {a: "id_*" for a in p2.arrows})
    validate_functor(incl)
    validate_functor(collapse)
    composite = compose_functors(collapse, incl)
    (unique,) = enumerate_functors(one, pt)
    assert functors_equal(composite, unique)


def test_compose_domain_mismatch():
    p2 = pair_groupoid("p2", ["1", "2"])
    with pytest.raises(DomainMismatch):
        compose_functors(identity_functor(p2),
                         identity_functor(terminal_groupoid()))


# ---------------------------------------------------------------------------
# functor enumeration (oracle first: raw product search filtered by axioms)


def oracle_functors(h, g):
    found = []
    for objs in product(g.objects, repeat=len(h.objects)):
        om = dict(zip(h.objects, objs))
        cands = [g.hom_set(om[h.src[a]], om[h.tgt[a]]) for a in h.arrows]
        for arrs in product(*cands):
            am = dict(zip(h.arrows, arrs))
            f = StrictArrow("o", h, g, om, am)
            try:
                validate_functor(f)
            except GroupoidError:
                continue
            found.append((tuple(sorted(om.items())),
                          tuple(sorted(am.items()))))
    return sorted(found)


@pytest.mark.parametrize("build_h, build_g, expected", [
    # group homs 1 -> Z/2: only the trivial one
    (lambda: terminal_groupoid(),
     lambda: point_groupoid("BZ2", groups.cyclic(2)), 1),
    # group homs Z/2 -> Z/3: only the trivial one
    (lambda: point_groupoid("BZ2", groups.cyclic(2)),
     lambda: point_groupoid("BZ3", groups.cyclic(3)), 1),
    # interval into Pair(2): 4 object maps, the connecting arrow forced
    (lambda: interval_groupoid(),
     lambda: pair_groupoid("p2", ["1", "2"]), 4),
])
def test_enumerate_functor_counts(build_h, build_g, expected):
    h, g = build_h(), build_g()
    mine = enumerate_functors(h, g)
    keys = [(tuple(sorted(f.obj_map.items())),
             tuple(sorted(f.arr_map.items()))) for f in mine]
    assert keys == sorted(keys), "documented order is lexicographic"
    assert len(set(keys)) == len(keys)
    assert keys == oracle_functors(h, g)
    assert len(mine) == expected
    for f in mine:
        validate_functor(f)


def test_enumerate_functors_matches_oracle_on_corpus(small_corpus):
    pairs = [(a, b) for a in small_corpus[:6] for b in small_corpus[:6]
             if len(a.objects) <= 2 and len(a.arrows) <= 6
             and len(b.arrows) <= 12]
    for a, b in pairs[:6]:
        mine = [(tuple(sorted(f.obj_map.items())),
                 tuple(sorted(f.arr_map.items())))
                for f in enumerate_functors(a, b)]
        assert mine == oracle_functors(a, b)


# ---------------------------------------------------------------------------
# cocylinder


def oracle_square_count(g):
    """Commuting squares (u, v) around ordered arrow pairs, one per (a, b, u)
    with v forced; counted by raw filtering."""
    count = 0
    for a in g.arrows:
        for b in g.arrows:
            for u in g.arrows:
                if g.src[u] != g.src[a] or g.tgt[u] != g.src[b]:
                    continue
                for v in g.arrows:
                    if g.src[v] != g.tgt[a] or g.tgt[v] != g.tgt[b]:
                        continue
                    if g.comp[(v, a)] == g.comp[(b, u)]:
                        count += 1
    return count


def test_cocylinder_terminal():
    cyl = cocylinder(terminal_groupoid())
    assert len(cyl.groupoid.objects) == 1
    assert len(cyl.groupoid.arrows) == 1


def test_cocylinder_bz2():
    g = point_groupoid("BZ2", groups.cyclic(2))
    cyl = cocylinder(g)
    validate_groupoid(cyl.groupoid)
    assert len(cyl.groupoid.objects) == 2
    assert len(cyl.groupoid.arrows) == oracle_square_count(g) == 8


def test_cocylinder_discrete_is_itself():
    g = discrete_groupoid("d", ["a", "b"])
    cyl = cocylinder(g)
    assert len(cyl.groupoid.objects) == 2
    assert len(cyl.groupoid.arrows) == 2
    assert all(cyl.groupoid.src[a] == cyl.groupoid.tgt[a]
               for a in cyl.groupoid.arrows)


def test_cocylinder_endpoint_sections(corpus):
    picked = [g for g in corpus if len(g.arrows) <= 20][:10]
    assert len(picked) >= 5
    for g in picked:
        cyl = cocylinder(g)
        validate_groupoid(cyl.groupoid)
        validate_functor(cyl.e0)
        validate_functor(cyl.e1)
        validate_functor(cyl.t)
        ident = identity_functor(g)
        assert functors_equal(compose_functors(cyl.e0, cyl.t), ident)
        assert functors_equal(compose_functors(cyl.e1, cyl.t), ident)


def full_sweep_validate_functor(f):
    """validate_functor with composition checked on every comp entry of
    the domain, in table order: the independent copy the generator check
    is compared against."""
    h, g = f.dom, f.cod
    for x in h.objects:
        if x not in f.obj_map:
            raise BadFunctor(f"object map undefined on {x!r}", witness=x)
        if f.obj_map[x] not in set(g.objects):
            raise BadFunctor(f"obj_map({x!r}) not an object of {g.name}",
                             witness=x)
    for a in h.arrows:
        if a not in f.arr_map:
            raise BadFunctor(f"arrow map undefined on {a!r}", witness=a)
        fa = f.arr_map[a]
        if fa not in set(g.arrows):
            raise BadFunctor(f"arr_map({a!r}) not an arrow of {g.name}",
                             witness=a)
        if g.src[fa] != f.obj_map[h.src[a]] or g.tgt[fa] != f.obj_map[h.tgt[a]]:
            raise BadFunctor(f"arr_map({a!r}) breaks the src/tgt squares",
                             witness=a)
    for (p, q), r in h.comp.items():
        if g.comp[(f.arr_map[p], f.arr_map[q])] != f.arr_map[r]:
            raise BadFunctor(f"composition not preserved on ({p!r}, {q!r})",
                             witness=(p, q))
    for a in h.arrows:
        if f.arr_map[h.inv[a]] != g.inv[f.arr_map[a]]:
            raise BadFunctor(f"inverse not preserved on {a!r}", witness=a)
    for x in h.objects:
        if f.arr_map[h.unit[x]] != g.unit[f.obj_map[x]]:
            raise BadFunctor(f"unit not preserved at {x!r}", witness=x)
    return f


def _functor_error(check, f):
    with pytest.raises(BadFunctor) as info:
        check(f)
    return str(info.value), info.value.witness


def test_functor_check_on_generators_matches_the_full_sweep(small_corpus):
    rng = random.Random(21)
    s3 = transitive_groupoid("PS3", ["a", "b"], groups.symmetric3())
    z3 = transitive_groupoid("PZ3", ["a", "b"], groups.cyclic(3))
    functors = [identity_functor(s3), cocylinder(z3).e0, cocylinder(z3).e1]
    for g in small_corpus[:8]:
        functors += [identity_functor(g), cocylinder(g).e0]
        functors += enumerate_functors(g, s3)[:3]
    off_generators = units = inverses = 0
    for f in functors:
        h, g = f.dom, f.cod
        validate_groupoid(h)
        assert validate_functor(f) is full_sweep_validate_functor(f) is f
        gens = set(h.generators)

        def rivals(a):
            """The other arrows with the endpoints of F(a)."""
            fa = f.arr_map[a]
            return [b for b in g.hom_set(g.src[fa], g.tgt[fa]) if b != fa]

        # the image of an arrow off the generators, endpoints kept
        moved = [a for a in h.arrows if a not in gens and rivals(a)]
        for a in rng.sample(moved, min(3, len(moved))):
            bad = dataclasses.replace(
                f, arr_map={**f.arr_map, a: rng.choice(rivals(a))})
            assert (_functor_error(validate_functor, bad)
                    == _functor_error(full_sweep_validate_functor, bad))
            off_generators += 1
        # one unit sent to another loop
        loose = [x for x in h.objects if rivals(h.unit[x])]
        if loose:
            u = h.unit[rng.choice(loose)]
            bad = dataclasses.replace(
                f, arr_map={**f.arr_map, u: rng.choice(rivals(u))})
            assert (_functor_error(validate_functor, bad)
                    == _functor_error(full_sweep_validate_functor, bad))
            units += 1
        # only the image of one inverse moved: the composition sweep names
        # it before the oracle's own inverse loop is reached
        flips = [a for a in h.arrows if rivals(h.inv[a])]
        if flips:
            b = h.inv[rng.choice(flips)]
            bad = dataclasses.replace(
                f, arr_map={**f.arr_map, b: rng.choice(rivals(b))})
            got = _functor_error(validate_functor, bad)
            assert got == _functor_error(full_sweep_validate_functor, bad)
            assert got[0].startswith("composition not preserved")
            inverses += 1
    assert off_generators >= 20 and units >= 10 and inverses >= 10


# ---------------------------------------------------------------------------
# homotopies


def test_homotopic_reflexive_identity_components():
    p2 = pair_groupoid("p2", ["1", "2"])
    f = identity_functor(p2)
    t = are_homotopic(f, f)
    assert t is not None
    assert all(t.component[x] == p2.unit[x] for x in p2.objects)


def test_interval_endpoints_homotopic():
    iv = interval_groupoid()
    pt = terminal_groupoid()
    e0 = StrictArrow("e0", pt, iv, {"*": "0"}, {"id_*": "id0"})
    e1 = StrictArrow("e1", pt, iv, {"*": "1"}, {"id_*": "id1"})
    t = are_homotopic(e0, e1)
    assert t is not None and t.component["*"] == "s"
    validate_nat(t)


def test_no_homotopy_across_discrete_components():
    d = discrete_groupoid("d", ["a", "b"])
    pt = terminal_groupoid()
    fa = StrictArrow("fa", pt, d, {"*": "a"}, {"id_*": "id_a"})
    fb = StrictArrow("fb", pt, d, {"*": "b"}, {"id_*": "id_b"})
    assert are_homotopic(fa, fb) is None


def test_homotopic_signature_mismatch():
    pt = terminal_groupoid()
    p2 = pair_groupoid("p2", ["1", "2"])
    with pytest.raises(SignatureMismatch):
        are_homotopic(identity_functor(pt), identity_functor(p2))


def test_homotopy_is_equivalence_relation_on_functor_sets(small_corpus):
    cases = [
        (interval_groupoid(), pair_groupoid("p2", ["1", "2"])),
        (point_groupoid("BZ2", groups.cyclic(2)),
         point_groupoid("BZ2b", groups.cyclic(2))),
        (discrete_groupoid("d", ["a", "b"]),
         disjoint_union("u", [pair_groupoid("p", ["1", "2"]),
                              terminal_groupoid()])),
    ]
    cases += [(a, b) for a in small_corpus for b in small_corpus
              if len(a.objects) <= 2 and len(a.arrows) <= 6
              and len(b.objects) <= 5 and len(b.arrows) <= 12][:4]
    for h, g in cases:
        fs = enumerate_functors(h, g)
        for f in fs:
            assert are_homotopic(f, f) is not None
        for f in fs:
            for k in fs:
                t = are_homotopic(f, k)
                back = are_homotopic(k, f)
                assert (t is None) == (back is None)
                if t is not None:
                    validate_nat(t)
        for f in fs:
            for k in fs:
                for m in fs:
                    if (are_homotopic(f, k) is not None
                            and are_homotopic(k, m) is not None):
                        assert are_homotopic(f, m) is not None


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_random_groupoids_validate_and_satisfy_diad_law(seed):
    rng = random.Random(seed)
    g = random_groupoid(rng, "h", 4, 4, max_arrows=18)
    validate_groupoid(g)
    cyl = cocylinder(g)
    ident = identity_functor(g)
    assert functors_equal(compose_functors(cyl.e0, cyl.t), ident)
    assert functors_equal(compose_functors(cyl.e1, cyl.t), ident)


def test_disjoint_union_prefixes_on_clash():
    a = terminal_groupoid()
    b = terminal_groupoid()
    u = disjoint_union("u", [a, b])
    validate_groupoid(u)
    assert len(u.objects) == 2
