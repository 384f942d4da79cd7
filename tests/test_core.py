import dataclasses
import random
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import groups
from grpd.bibundle import BadAction, unit_bibundle, validate_bibundle
from grpd.complexity import point_groupoid
from grpd.core import (BadFunctor, BadInverse, BadNatTrans, BadUnit,
                       Composite,
                       DanglingId, DomainMismatch,
                       FinGroupoid, GroupoidError, NatTrans, NonAssociative,
                       PartialComposition, SignatureMismatch, StrictArrow,
                       are_homotopic,
                       cocylinder, compose_functors, discrete_groupoid,
                       disjoint_union, identity_functor, pair_groupoid,
                       restrict, tabulate, validate_functor,
                       validate_groupoid, validate_nat)
from grpd.corpus import random_groupoid, transitive_groupoid
from grpd.descent import (BadDatum, Bundle, Cover, CoverPiece, DescentDatum,
                          descend, validate_datum)

from conftest import _LOOP5


def interval_groupoid() -> FinGroupoid:
    """The two-object groupoid with a single connecting isomorphism."""
    return FinGroupoid(
        name="I", objects=("0", "1"), arrows=("id0", "id1", "s", "s_inv"),
        src={"id0": "0", "id1": "1", "s": "0", "s_inv": "1"},
        tgt={"id0": "0", "id1": "1", "s": "1", "s_inv": "0"},
        comp={("id0", "id0"): "id0", ("id1", "id1"): "id1",
              ("s", "id0"): "s", ("id1", "s"): "s",
              ("s_inv", "id1"): "s_inv", ("id0", "s_inv"): "s_inv",
              ("s_inv", "s"): "id0", ("s", "s_inv"): "id1"},
        unit={"0": "id0", "1": "id1"},
        inv={"id0": "id0", "id1": "id1", "s": "s_inv", "s_inv": "s"})


# ---------------------------------------------------------------------------
# validation


def test_terminal_groupoid_valid():
    g = discrete_groupoid("pt", ["*"])
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


def test_order_5_loop_is_rejected_as_non_associative(loop5):
    assert_non_associative(loop_groupoid(loop5))
    assert_non_associative(transitive_groupoid("p2L", ["1", "2"], loop5))


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


# ---------------------------------------------------------------------------
# associativity on the isotropy groups


def brandt_checks(g):
    """validate_groupoid's three associativity checks, computed apart: (i)
    a -> (src a, tgt a, lam a) injective, (ii) lam(p.q) = lam(p).lam(q) on
    every entry, (iii) each base point's loops associative, tried on every
    triple.  lam(a) = tree[y]^-1 . a . tree[x] for a: x -> y."""
    comp, inv, tree = g.comp, g.inv, g.tree
    lam = {a: comp[(inv[tree[g.tgt[a]]], comp[(a, tree[g.src[a]])])]
           for a in g.arrows}
    assert g.tree_loop == lam
    injective = len({(g.src[a], g.tgt[a], lam[a]) for a in g.arrows}) \
        == len(g.arrows)
    labelled = all(lam[r] == comp[(lam[p], lam[q])]
                   for (p, q), r in comp.items())
    loops = [g.hom_set(block[0], block[0]) for block in g.components]
    associative = all(comp[(comp[(c, b)], a)] == comp[(c, comp[(b, a)])]
                      for k in loops for a in k for b in k for c in k)
    return injective, labelled, associative


def test_hom_sets_that_the_tree_cannot_tell_apart_fail_check_i_only(
        doubled_hom_sets):
    # f, g: 1 -> 2 both trivialize to the unit at 1, and every loop is a
    # unit, so (ii) and (iii) hold, yet (f.f').g = g != f = f.(f'.g)
    assert brandt_checks(doubled_hom_sets) == (False, True, True)
    assert_non_associative(doubled_hom_sets)


def test_a_swap_off_the_tree_fails_check_ii_only():
    g = transitive_groupoid("p2z3", ["1", "2"], groups.cyclic(3))
    p = "2>2:1"  # a non-unit loop at 2, composed with two arrows 1 -> 2
    comp = dict(g.comp)
    comp[(p, "1>2:1")], comp[(p, "1>2:2")] = (comp[(p, "1>2:2")],
                                              comp[(p, "1>2:1")])
    bad = dataclasses.replace(g, comp=comp)
    assert brandt_checks(bad) == (True, False, True)
    assert_non_associative(bad)


def test_a_broken_isotropy_group_fails_check_iii_only():
    """Pair(3) x K, K the dihedral group of order 8 with two products of
    one row swapped: no unit or inverse law moves, and neither the row nor
    the two columns is a loop generator at the base point."""
    d4 = groups.dihedral(4)
    e = groups.identity_of(d4)
    candidates = []
    for a, b, b2 in product(range(8), repeat=3):
        if (b < b2 and e not in (a, b, b2)
                and e not in (d4[a][b], d4[a][b2])):
            rows = [list(row) for row in d4]
            rows[a][b], rows[a][b2] = rows[a][b2], rows[a][b]
            g = transitive_groupoid("p3k", ["1", "2", "3"], rows)
            base_gens = {s for s in g.generators if s.startswith("1>1:")}
            if base_gens.isdisjoint({f"1>1:{k}" for k in (a, b, b2)}):
                candidates.append(g)
    assert len(candidates) >= 10
    for g in candidates:
        assert brandt_checks(g) == (True, True, False)
        assert_non_associative(g)


def two_components():
    """Pair({1, 2}) x Z3 beside Z2 at 3: base points 1 and 3, tree[2] =
    1>2:0, lam(x>y:k) = 1>1:k on the first component."""
    return validate_groupoid(disjoint_union("two", [
        transitive_groupoid("a", ["1", "2"], groups.cyclic(3)),
        transitive_groupoid("b", ["3"], groups.cyclic(2))]))


LABEL_FAULTS = [
    # sp == tq alone: a non-composable pair, valued with the pair's ends
    # and loop
    (("2>2:0", "1>1:0"), "1>2:0", PartialComposition, ("2>2:0", "1>1:0")),
    # sr == sq alone: 1>2:2 moved to the loop 2>2:2, read by no tree loop
    (("2>2:1", "1>2:1"), "2>2:2", PartialComposition, ("2>2:1", "1>2:1")),
    # tr == tp alone
    (("2>2:1", "1>2:1"), "1>1:2", PartialComposition, ("2>2:1", "1>2:1")),
    # ir == row_p[iq] alone: the right ends, the wrong loop
    (("2>2:1", "1>2:1"), "1>2:0", NonAssociative,
     ("2>2:1", "1>2:0", "1>1:1")),
    # lam(1>2:1) = 2>1:0 . 1>2:1 lands on the loop 3>3:1 at the other
    # base point, so labelling raises KeyError
    (("2>1:0", "1>2:1"), "3>3:1", PartialComposition, ("2>1:0", "1>2:1")),
]


@pytest.mark.parametrize("key, value, error, witness", LABEL_FAULTS)
def test_each_label_condition_fails_on_its_own_entry(key, value, error,
                                                     witness):
    g = two_components()
    assert g.comp.get(key) != value
    bad = dataclasses.replace(g, comp={**g.comp, key: value})
    with pytest.raises(error) as err:
        validate_groupoid(bad)
    assert err.value.witness == witness


def tabulated(g, key=None, value=None):
    """g as a tabulated groupoid, its arrows their own parts, whose
    ``compose`` reads g.comp but gives ``value`` for the entry ``key``."""
    def compose(p, qs):
        return [value if (q, p) == key else g.comp[q, p] for q in qs]

    return tabulate(g.name, g.objects, {a: a for a in g.arrows},
                    ends=lambda a: (g.src[a], g.tgt[a]), compose=compose,
                    unit=g.unit.__getitem__, inv=g.inv.__getitem__)


# a computed table holds no non-composable pair, so the first fault has
# no computed copy
@pytest.mark.parametrize("key, value, error, witness", LABEL_FAULTS[1:])
def test_each_label_condition_fails_on_a_computed_table(key, value, error,
                                                        witness):
    """The blocks() sweep of a computed table raises what the items()
    sweep raises on the same corruption stored in a dict."""
    g = tabulated(two_components(), key, value)
    assert isinstance(g.comp, Composite) and g.comp[key] == value
    raised = []
    for table in (g, dataclasses.replace(g, comp=dict(g.comp.items()))):
        with pytest.raises(error) as err:
            validate_groupoid(table)
        raised.append((type(err.value), err.value.witness, str(err.value)))
    assert raised[0] == raised[1] and raised[0][1] == witness


def one_object(comp, unit, inv):
    """The one-object table on the arrows that ``comp`` names."""
    arrows = tuple(sorted({a for key in comp for a in key}))
    at = dict.fromkeys(arrows, "*")
    return FinGroupoid(name="m", objects=("*",), arrows=arrows, src=at,
                       tgt=dict(at), comp=comp, unit={"*": unit}, inv=inv)


def z3_by(op):
    """Z3's elements r0, r1, r2 under ``op``, unit r0, each its own
    inverse."""
    ids = ("r0", "r1", "r2")
    return one_object({(ids[p], ids[q]): ids[op(p, q) % 3]
                       for p in range(3) for q in range(3)},
                      "r0", {a: a for a in ids})


def one_sided_inverses(left):
    """u, a, c with u the identity and inv a = c, inv c = c: c.a = u (the
    left inverse law) but a.c = a when ``left``, the other way round
    otherwise; c.c = u and a.a = c.  The unit is the identity and its own
    inverse, so lam is the identity and the labels pass (i) and (ii)."""
    comp = {("a", "a"): "c", ("c", "c"): "u",
            ("c", "a"): "u" if left else "a",
            ("a", "c"): "a" if left else "u"}
    for x in "uac":
        comp["u", x] = comp[x, "u"] = x
    return one_object(comp, "u", {"u": "u", "a": "c", "c": "c"})


def _replaced(**changes):
    """two_components() with entries of its comp, unit or inv replaced."""
    g = two_components()
    return dataclasses.replace(g, **{name: {**getattr(g, name), **entries}
                                     for name, entries in changes.items()})


# Each fault breaks the unit or inverse laws; the first two leave the
# labels failing (ii), so the per-arrow checks run; each of the others
# passes (i) and (ii) and fails one condition of _laws_on_labels alone.
@pytest.mark.parametrize("make, error, witness", [
    # one unit entry: unit[2] . 2>2:1 moved to another loop
    (lambda: _replaced(comp={("2>2:1", "2>2:0"): "2>2:2"}), BadUnit, "2"),
    # one inverse entry: 1>2:1 then its inverse lands on a non-unit loop
    (lambda: _replaced(comp={("2>1:2", "1>2:1"): "1>1:1"}), BadInverse,
     "1>2:1"),
    # the unit label: unit[2] pointed at another loop, index 1 not 0
    (lambda: _replaced(unit={"2": "2>2:1"}), BadUnit, "1"),
    # inv[a] pointed at another arrow with the right ends, whose index
    # is no inverse of a's
    (lambda: _replaced(inv={"1>2:1": "2>1:1"}), BadInverse, "1>2:1"),
    # the inverse label: the right index on an arrow with the wrong ends
    (lambda: _replaced(inv={"1>2:1": "1>1:2"}), BadInverse, "1>2:1"),
    # the identity row: p.q = p - q on Z3, r0 a right identity only
    (lambda: z3_by(lambda p, q: p - q), BadUnit, "*"),
    # the identity column: p.q = q - p, r0 a left identity only
    (lambda: z3_by(lambda p, q: q - p), BadUnit, "*"),
    # each order of the inverse check: inv a . a = u, a . inv a != u
    (lambda: one_sided_inverses(left=True), BadInverse, "a"),
    (lambda: one_sided_inverses(left=False), BadInverse, "a"),
], ids=["unit-entry", "inverse-entry", "unit-label", "inverse-index",
        "inverse-label", "identity-row", "identity-column",
        "inverse-left-only", "inverse-right-only"])
def test_each_unit_and_inverse_condition_fails_on_its_own_fault(
        make, error, witness):
    with pytest.raises(error) as err:
        validate_groupoid(make())
    assert type(err.value) is error and err.value.witness == witness


def test_generators_hold_no_unit_and_reach_every_arrow(corpus):
    cases = [*corpus, interval_groupoid(), pair_groupoid("p3", "123"),
             transitive_groupoid("p3s3", ["1", "2", "3"],
                                 groups.dihedral(3))]
    for g in cases:
        gens = g.generators
        assert len(set(gens)) == len(gens)
        assert not set(gens) & set(g.unit.values()), g.name
        assert _closure(g, set(gens) | set(g.unit.values())) \
            == set(g.arrows), g.name
        # the non-loops are the tree arrows to the other objects and their
        # inverses
        bases = {block[0] for block in g.components}
        tree = [a for x in g.objects if x not in bases
                for a in (g.tree[x], g.inv[g.tree[x]])]
        assert sorted(s for s in gens if g.src[s] != g.tgt[s]) \
            == sorted(tree), g.name
        # the loops sit at base points, each outside the span of those
        # before it, and they generate the isotropy group there
        loops = [s for s in gens if g.src[s] == g.tgt[s]]
        assert {g.src[s] for s in loops} <= bases, g.name
        for base in bases:
            span = {g.unit[base]}
            for s in (s for s in loops if g.src[s] == base):
                assert s not in span, g.name
                span = _closure(g, span | {s})
            assert span == set(g.hom_set(base, base)), g.name


def _closure(g, arrows):
    """The composites of the given arrows, until nothing new appears."""
    out = set(arrows)
    while True:
        new = {g.comp[(p, q)] for p in out for q in out
               if g.src[p] == g.tgt[q]} - out
        if not new:
            return out
        out |= new


# the order-24 products of tests/test_groups.py
_Z2, _Z3 = groups.cyclic(2), groups.cyclic(3)
ORDER_24 = [
    groups.direct_product(groups.alternating4(), _Z2),
    groups.direct_product(groups.dicyclic(3), _Z2),
    groups.direct_product(groups.dicyclic(2), _Z3),
    groups.direct_product(
        _Z2, groups.direct_product(_Z2, groups.direct_product(_Z2, _Z3))),
    groups.direct_product(groups.dihedral(6), _Z2),
]


def test_one_object_blocks_get_at_most_three_loop_generators():
    rng = random.Random(13)
    tables = [t for _, t in groups.small_groups(24)] + ORDER_24
    for t in tables:
        n = len(t)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            inv = sorted(range(n), key=perm.__getitem__)  # perm[inv[i]] == i
            relabelled = [[perm[t[inv[a]][inv[b]]] for b in range(n)]
                          for a in range(n)]
            g = transitive_groupoid("k", ["*"], relabelled)
            assert len(g.generators) <= 3, (n, perm)


def test_dangling_ids_detected():
    g = discrete_groupoid("pt", ["*"])
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


def _row_swap(rng, g):
    """Two entries of one row of ``comp`` swapped inside one hom set, so
    that every entry keeps its ends."""
    p = rng.choice(g.arrows)
    hom = g.hom_set(rng.choice(g.objects), g.src[p])
    if len(hom) < 2:
        return g
    q, q2 = rng.sample(hom, 2)
    comp = dict(g.comp)
    comp[(p, q)], comp[(p, q2)] = comp[(p, q2)], comp[(p, q)]
    return dataclasses.replace(g, comp=comp)


def test_validator_witnesses_on_tampered_group_blocks():
    """Mutants and row swaps of Pair(m) x K, K a catalog group of order at
    most 8 and m = 1, 2, 3: the validator agrees with the naive oracle,
    and each associativity witness (c, b, a) really fails.  With m >= 2
    the sweep rests on the tree arrows and their inverses being among the
    generators (see validate_groupoid)."""
    rng = random.Random(19)
    catalog = [t for _, t in groups.small_groups(8)]
    accepted = witnesses = 0
    for i in range(600):
        m = 1 + i % 3
        g = transitive_groupoid(f"t{i}", list("123"[:m]), rng.choice(catalog))
        g = _row_swap(rng, g) if rng.random() < 0.5 else _mutate(rng, g)
        expected = oracle_is_groupoid(g)
        try:
            validate_groupoid(g)
            got = True
        except NonAssociative as err:
            c, b, a = err.witness
            assert g.comp[(c, g.comp[(b, a)])] \
                != g.comp[(g.comp[(c, b)], a)], g.name
            witnesses += 1
            got = False
        except GroupoidError:
            got = False
        assert got == expected, g.name
        accepted += got
    assert accepted >= 30 and witnesses >= 150


def reduced_latin_squares(n):
    """Every n x n Latin square on range(n) whose first row and first
    column are 0, 1, ..., n - 1, filled cell by cell in row order."""
    full = (1 << n) - 1
    square = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_row = [full] + [1 << i for i in range(1, n)]
    in_col = [full] + [1 << j for j in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, square))
            return
        i, j = cells[k]
        free = full & ~(in_row[i] | in_col[j])
        for v in range(n):
            if free >> v & 1:
                square[i][j] = v
                in_row[i] ^= 1 << v
                in_col[j] ^= 1 << v
                yield from fill(k + 1)
                in_row[i] ^= 1 << v
                in_col[j] ^= 1 << v

    yield from fill(0)


def test_validator_decides_every_reduced_latin_square_up_to_order_6():
    """Each of the 9,471 reduced Latin squares of order at most 6 as a
    one-object table (``loop_groupoid``: unit 0, inv a the b with a.b =
    0) and as Pair(2) x L (``transitive_groupoid``, so that the Brandt
    labels, ``tree_loop`` and the per-arrow unit and inverse checks meet
    non-groups too): the validator accepts exactly the 93 group tables,
    agrees with the naive oracle on every table, and each associativity
    witness (c, b, a) really fails.  The other tables fail the inverse
    law, where a's left and right inverses differ."""
    counts = Counter()
    verdicts = {"loop": Counter(), "pair2": Counter()}
    for n in range(1, 7):
        for square in reduced_latin_squares(n):
            counts[n] += 1
            for shape, g in (("loop", loop_groupoid(square)),
                             ("pair2", transitive_groupoid("p2L", "12",
                                                           square))):
                try:
                    validate_groupoid(g)
                    verdict = "valid"
                except NonAssociative as err:
                    c, b, a = err.witness
                    assert g.comp[(c, g.comp[(b, a)])] \
                        != g.comp[(g.comp[(c, b)], a)], (shape, square)
                    verdict = "NonAssociative"
                except GroupoidError as err:
                    verdict = type(err).__name__
                assert (verdict == "valid") == oracle_is_groupoid(g), \
                    (shape, square)
                verdicts[shape][verdict] += 1
    assert [counts[n] for n in range(1, 7)] == [1, 1, 1, 4, 56, 9408]
    for shape in verdicts:
        assert verdicts[shape] == {"valid": 93, "NonAssociative": 1730,
                                   "BadInverse": 7648}, shape


def test_components_are_the_nonempty_hom_set_classes(corpus):
    """Oracle without union-find: x and y share a component exactly when
    hom(x, y) is non-empty."""
    for g in corpus:
        classes = {tuple(sorted(y for y in g.objects if g.hom_set(x, y)))
                   for x in g.objects}
        assert g.components == tuple(sorted(classes)), g.name


# ---------------------------------------------------------------------------
# functor composition


def test_compose_identity_laws(small_corpus, random_functor):
    rng = random.Random(3)
    for g in small_corpus[:6]:
        for h in small_corpus[:6]:
            f = random_functor(rng, g, h)
            validate_functor(f)
            for k in (compose_functors(identity_functor(h), f),
                      compose_functors(f, identity_functor(g))):
                assert (k.obj_map, k.arr_map) == (f.obj_map, f.arr_map)


def test_compose_associative(small_corpus, random_functor):
    rng = random.Random(4)
    a, b, c, d = small_corpus[:4]
    f = random_functor(rng, a, b)
    g = random_functor(rng, b, c)
    h = random_functor(rng, c, d)
    one = compose_functors(h, compose_functors(g, f))
    other = compose_functors(compose_functors(h, g), f)
    assert (one.obj_map, one.arr_map) == (other.obj_map, other.arr_map)


def test_compose_through_terminal(enumerate_functors):
    p2 = pair_groupoid("p2", ["1", "2"])
    one = restrict(p2, ["1"])
    pt = discrete_groupoid("pt", ["*"])
    incl = StrictArrow("i", one, p2, {"1": "1"}, {"1>1": "1>1"})
    collapse = StrictArrow("c", p2, pt, {"1": "*", "2": "*"},
                           {a: "id_*" for a in p2.arrows})
    validate_functor(incl)
    validate_functor(collapse)
    composite = compose_functors(collapse, incl)
    (unique,) = enumerate_functors(one, pt)
    assert ((composite.obj_map, composite.arr_map)
            == (unique.obj_map, unique.arr_map))


def test_compose_domain_mismatch():
    p2 = pair_groupoid("p2", ["1", "2"])
    with pytest.raises(DomainMismatch):
        compose_functors(identity_functor(p2),
                         identity_functor(discrete_groupoid("pt", ["*"])))


def test_restrict_matches_the_filter_over_every_entry(corpus):
    """restrict reads the rows of the kept arrows; the oracle filters every
    comp entry of the ambient groupoid.  Subsets: each orbit, one object
    per orbit, and random subsets that cut orbits."""
    rng = random.Random(5)
    checked = 0
    for g in corpus:
        subsets = [*g.components, [b[0] for b in g.components]]
        subsets += [rng.sample(g.objects, rng.randint(1, len(g.objects)))
                    for _ in range(3)]
        for objects in subsets:
            sub = restrict(g, objects)
            keep = set(objects)
            arrs = tuple(a for a in g.arrows
                         if g.src[a] in keep and g.tgt[a] in keep)
            kept = set(arrs)
            assert sub.arrows == arrs
            assert sub.comp == {(q, p): r for (q, p), r in g.comp.items()
                                if q in kept and p in kept}
            validate_groupoid(sub)
            checked += 1
    assert checked > 150


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
    (lambda: discrete_groupoid("pt", ["*"]),
     lambda: point_groupoid("BZ2", groups.cyclic(2)), 1),
    # group homs Z/2 -> Z/3: only the trivial one
    (lambda: point_groupoid("BZ2", groups.cyclic(2)),
     lambda: point_groupoid("BZ3", groups.cyclic(3)), 1),
    # interval into Pair(2): 4 object maps, the connecting arrow forced
    (lambda: interval_groupoid(),
     lambda: pair_groupoid("p2", ["1", "2"]), 4),
])
def test_enumerate_functor_counts(build_h, build_g, expected,
                                  enumerate_functors):
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


def test_enumerate_functors_matches_oracle_on_corpus(small_corpus,
                                                     enumerate_functors):
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
    cyl = cocylinder(discrete_groupoid("pt", ["*"]))
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
        for law in (compose_functors(cyl.e0, cyl.t),
                    compose_functors(cyl.e1, cyl.t)):
            assert (law.obj_map, law.arr_map) == (ident.obj_map,
                                                  ident.arr_map)


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


def test_functor_check_on_generators_matches_the_full_sweep(
        small_corpus, enumerate_functors):
    rng = random.Random(21)
    s3 = transitive_groupoid("PS3", ["a", "b"], groups.dihedral(3))
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
        # units are no generators, but are checked apart, below
        gens = set(h.generators) | set(h.unit.values())

        def rejected(arrows):
            """Functors with the image of one of ``arrows`` moved to another
            arrow with its endpoints, in random order, keeping only those
            the oracle rejects: some moves leave a functor (an involution
            sent to another involution, say)."""
            moves = [(a, b) for a in arrows
                     for b in g.hom_set(g.src[f.arr_map[a]],
                                        g.tgt[f.arr_map[a]])
                     if b != f.arr_map[a]]
            rng.shuffle(moves)
            for a, b in moves:
                bad = dataclasses.replace(f, arr_map={**f.arr_map, a: b})
                try:
                    full_sweep_validate_functor(bad)
                except BadFunctor:
                    yield bad

        # the image of an arrow off the generators, endpoints kept
        for bad in islice(rejected([a for a in h.arrows if a not in gens]),
                          3):
            assert (_functor_error(validate_functor, bad)
                    == _functor_error(full_sweep_validate_functor, bad))
            off_generators += 1
        # one unit sent to another loop
        for bad in islice(rejected([h.unit[x] for x in h.objects]), 1):
            assert (_functor_error(validate_functor, bad)
                    == _functor_error(full_sweep_validate_functor, bad))
            units += 1
        # only the image of one inverse moved: the composition sweep names
        # it before the oracle's own inverse loop is reached
        for bad in islice(rejected([h.inv[a] for a in h.arrows]), 1):
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
    pt = discrete_groupoid("pt", ["*"])
    e0 = StrictArrow("e0", pt, iv, {"*": "0"}, {"id_*": "id0"})
    e1 = StrictArrow("e1", pt, iv, {"*": "1"}, {"id_*": "id1"})
    t = are_homotopic(e0, e1)
    assert t is not None and t.component["*"] == "s"
    validate_nat(t)


def test_no_homotopy_across_discrete_components():
    d = discrete_groupoid("d", ["a", "b"])
    pt = discrete_groupoid("pt", ["*"])
    fa = StrictArrow("fa", pt, d, {"*": "a"}, {"id_*": "id_a"})
    fb = StrictArrow("fb", pt, d, {"*": "b"}, {"id_*": "id_b"})
    assert are_homotopic(fa, fb) is None


def test_homotopic_signature_mismatch():
    pt = discrete_groupoid("pt", ["*"])
    p2 = pair_groupoid("p2", ["1", "2"])
    with pytest.raises(SignatureMismatch):
        are_homotopic(identity_functor(pt), identity_functor(p2))


def test_nat_component_that_is_no_arrow_is_named():
    # like validate_functor's dangling arrow: BadNatTrans, not a KeyError
    p2 = pair_groupoid("p2", ["1", "2"])
    ident = identity_functor(p2)
    with pytest.raises(BadNatTrans, match="not an arrow of p2") as err:
        validate_nat(NatTrans(ident, ident, {"1": "ghost", "2": "2>2"}))
    assert err.value.witness == "1"


def _functor_set_cases(small_corpus):
    cases = [
        (interval_groupoid(), pair_groupoid("p2", ["1", "2"])),
        (point_groupoid("BZ2", groups.cyclic(2)),
         point_groupoid("BZ2b", groups.cyclic(2))),
        (discrete_groupoid("d", ["a", "b"]),
         disjoint_union("u", [pair_groupoid("p", ["1", "2"]),
                              discrete_groupoid("pt", ["*"])])),
    ]
    return cases + [(a, b) for a in small_corpus for b in small_corpus
                    if len(a.objects) <= 2 and len(a.arrows) <= 6
                    and len(b.objects) <= 5 and len(b.arrows) <= 12][:4]


def test_homotopy_is_equivalence_relation_on_functor_sets(
        small_corpus, enumerate_functors):
    for h, g in _functor_set_cases(small_corpus):
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


def _homotopic_by_brute_force(f, g):
    """Whether some family of arrows f(x) -> g(x) is natural: every family
    is tried, each checked on every arrow by validate_nat."""
    dom, cod = f.dom, f.cod
    for family in product(*[cod.hom_set(f.obj_map[x], g.obj_map[x])
                            for x in dom.objects]):
        try:
            validate_nat(NatTrans(f, g, dict(zip(dom.objects, family))))
            return True
        except BadNatTrans:
            pass
    return False


def test_are_homotopic_agrees_with_brute_force(small_corpus,
                                               enumerate_functors):
    verdicts = Counter()
    for h, g in _functor_set_cases(small_corpus):
        fs = enumerate_functors(h, g)
        for f in fs:
            for k in fs:
                found = are_homotopic(f, k) is not None
                assert found == _homotopic_by_brute_force(f, k)
                verdicts[found] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_random_groupoids_validate_and_satisfy_diad_law(seed):
    rng = random.Random(seed)
    g = random_groupoid(rng, "h", 4, 4, max_arrows=18)
    validate_groupoid(g)
    cyl = cocylinder(g)
    ident = identity_functor(g)
    for law in (compose_functors(cyl.e0, cyl.t),
                compose_functors(cyl.e1, cyl.t)):
        assert (law.obj_map, law.arr_map) == (ident.obj_map, ident.arr_map)


def test_disjoint_union_prefixes_on_clash():
    a = discrete_groupoid("pt", ["*"])
    b = discrete_groupoid("pt", ["*"])
    u = disjoint_union("u", [a, b])
    validate_groupoid(u)
    assert len(u.objects) == 2


# ---------------------------------------------------------------------------
# library errors that no subcommand reaches


def _no_src():
    g = pair_groupoid("p2", "12")
    return validate_groupoid(dataclasses.replace(
        g, src={a: x for a, x in g.src.items() if a != "1>2"}))


def _nat(component):
    f = identity_functor(pair_groupoid("p3", "123"))
    return validate_nat(NatTrans(f, f, component))


def _two_carriers():
    b = unit_bibundle(pair_groupoid("p3", "123"))
    return validate_bibundle(dataclasses.replace(b, right=dataclasses.replace(
        b.right, carrier=b.right.carrier[:-1])))


def _other_base():
    return descend(Bundle("A", ("x",), ("a0",), {"a0": "x"}),
                   Cover("C", ("y",), (CoverPiece("U", ("u",), {"u": "y"}),)))


def _no_bundle():
    cover = Cover("C", ("x",), (CoverPiece("U", ("u",), {"u": "x"}),))
    return validate_datum(DescentDatum("D", cover, {}, {}))


@pytest.mark.parametrize("make, error, text, witness", [
    (_no_src, DanglingId, "src undefined on arrow '1>2'", "1>2"),
    (lambda: restrict(pair_groupoid("p3", "123"), ["1", "9"]), DanglingId,
     "objects ['9'] not in p3", ["9"]),
    (lambda: _nat({"1": "1>1", "2": "2>2"}), BadNatTrans,
     "missing component at '3'", "3"),
    (lambda: validate_nat(NatTrans(identity_functor(pair_groupoid(
        "p3", "123")), identity_functor(pair_groupoid("p2", "12")), {})),
     SignatureMismatch, "parallel functors required", None),
    (lambda: _nat({"1": "1>1", "2": "2>2", "3": "1>3"}), BadNatTrans,
     "component at '3' has wrong endpoints", "3"),
    (_two_carriers, BadAction,
     "left and right actions have different carriers", None),
    (_other_base, BadDatum, "bundle and cover have different bases", None),
    (_no_bundle, BadDatum, "no bundle over piece 'U'", "U"),
    (lambda: groups.validate_table([[0, 1], [1]]), groups.InvalidGroupTable,
     "table is not square over 0..n-1", [1]),
    # the order-5 loop: an identity and inverses, but no associativity
    (lambda: groups.validate_table(_LOOP5), groups.InvalidGroupTable,
     "associativity fails on (1, 1, 2)", (1, 1, 2)),
    (lambda: groups.inverses([[0, 1, 2], [1, 2, 2], [2, 2, 1]]),
     groups.InvalidGroupTable, "element 1 has no inverse", 1),
], ids=["arrow-without-src", "restrict-unknown-objects",
        "nat-missing-component", "nat-not-parallel",
        "nat-component-wrong-ends", "bibundle-two-carriers",
        "descend-other-base", "datum-without-bundle", "table-not-square",
        "table-not-associative", "table-without-inverse"])
def test_each_library_error_names_its_fault(make, error, text, witness):
    with pytest.raises(error) as err:
        make()
    assert (type(err.value), str(err.value), err.value.witness) == \
        (error, text, witness)
