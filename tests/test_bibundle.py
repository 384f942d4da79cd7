import random

import pytest

from grpd import groups
from grpd.bibundle import (BadAction, Bibundle, EndpointMismatch,
                           LeftAction, NotComposable, NotPrincipal,
                           RightAction, are_morita_equivalent,
                           bibundles_isomorphic, functor_to_bibundle,
                           is_principal, tensor, transpose, unit_bibundle,
                           validate_bibundle, validate_left_action,
                           validate_right_action)
from grpd.complexity import morita_point_check, point_groupoid
from grpd.core import (StrictArrow, identity_functor, compose_functors,
                       pair_groupoid, partition, restrict, terminal_groupoid,
                       validate_functor)
from grpd.corpus import random_functor, random_groupoid, transitive_groupoid
from grpd.homotopy import skeleton_equal, skeletonize


BZ2 = point_groupoid("BZ2", groups.cyclic(2))
BZ3 = point_groupoid("BZ3", groups.cyclic(3))
P2 = pair_groupoid("P2", ["1", "2"])
P3 = pair_groupoid("P3", ["1", "2", "3"])
PT = terminal_groupoid()


def incl_one_into_p2():
    one = restrict(P2, ["1"])
    return StrictArrow("i", one, P2, {"1": "1"}, {"1>1": "1>1"})


# ---------------------------------------------------------------------------
# principality


def test_translation_action_is_principal():
    u = unit_bibundle(P2)
    res = is_principal(u.right)
    assert res and res.division is not None
    # division recovers the acting arrow: z . division[(z, w)] == w
    for (z, w), c in res.division.items():
        assert u.right.act[(z, c)] == w


def test_trivial_action_not_free():
    arrows = BZ2.arrows
    act = {("pt", c): "pt" for c in arrows}
    a = RightAction(groupoid=BZ2, carrier=("pt",),
                    actor={"pt": BZ2.objects[0]}, act=act)
    res = is_principal(a)
    assert not res
    assert res.witness[0] == "not-free"
    assert res.witness[2] != BZ2.unit[BZ2.objects[0]]


def test_free_z2_action_on_two_points():
    e, s = BZ2.unit[BZ2.objects[0]], [a for a in BZ2.arrows
                                      if a != BZ2.unit[BZ2.objects[0]]][0]
    act = {("0", e): "0", ("1", e): "1", ("0", s): "1", ("1", s): "0"}
    a = RightAction(groupoid=BZ2, carrier=("0", "1"),
                    actor={"0": BZ2.objects[0], "1": BZ2.objects[0]}, act=act)
    res = is_principal(a)
    assert res
    assert len(a.orbits) == 1


# ---------------------------------------------------------------------------
# action validation


def oracle_action_ok(a):
    """Every action axiom by exhaustive loops over all arrow pairs."""
    g, right = a.groupoid, isinstance(a, RightAction)
    try:
        for z in a.carrier:
            if a.actor[z] not in g.objects:
                return False
            for c in g.arrows:
                key = (z, c) if right else (c, z)
                if (key in a.act) != (a.actor[z] == (g.tgt if right
                                                     else g.src)[c]):
                    return False
                if key in a.act and (
                        a.act[key] not in a.carrier
                        or a.actor[a.act[key]] != (g.src if right
                                                   else g.tgt)[c]):
                    return False
            unit = g.unit[a.actor[z]]
            if a.act[(z, unit) if right else (unit, z)] != z:
                return False
            for (p, q), r in g.comp.items():
                if right and a.actor[z] == g.tgt[p]:
                    if a.act[(a.act[(z, p)], q)] != a.act[(z, r)]:
                        return False
                if not right and a.actor[z] == g.src[q]:
                    if a.act[(p, a.act[(q, z)])] != a.act[(r, z)]:
                        return False
        return True
    except KeyError:
        return False


def _swap_two_values(rng, a):
    """Swap the results of two acting arrows with equal endpoints on one
    point: the action stays well placed, so at most associativity (or the
    unit law) breaks."""
    g, right = a.groupoid, isinstance(a, RightAction)
    z = rng.choice(a.carrier)
    keys = [k for k in sorted(a.act) if (k[0] if right else k[1]) == z]
    c1 = rng.choice(keys)
    arrow = c1[1] if right else c1[0]
    same = [k for k in keys
            if (g.src[k[1 if right else 0]], g.tgt[k[1 if right else 0]])
            == (g.src[arrow], g.tgt[arrow])]
    c2 = rng.choice(same)
    act = dict(a.act)
    act[c1], act[c2] = act[c2], act[c1]
    return type(a)(groupoid=g, carrier=a.carrier, actor=a.actor, act=act)


def test_action_validators_agree_with_naive_oracle():
    rng = random.Random(41)
    accepted = rejected = 0
    for i in range(60):
        g = random_groupoid(rng, f"a{i}", 4, 4)
        u = unit_bibundle(g)
        for a, check in ((u.right, validate_right_action),
                         (u.left, validate_left_action)):
            if rng.random() < 0.7:
                a = _swap_two_values(rng, a)
            expected = oracle_action_ok(a)
            try:
                check(a)
                got = True
            except BadAction:
                got = False
            assert got == expected, (g.name, type(a).__name__)
            accepted += got
            rejected += not got
    assert accepted >= 20 and rejected >= 20


def test_action_failing_only_associativity_is_rejected():
    g = transitive_groupoid("p2z3", ["1", "2"], groups.cyclic(3))
    u = unit_bibundle(g)
    # two arrows 2 -> 1 acting on the point 1>1:0 (the unit at 1)
    z = "1>1:0"
    c1, c2 = g.hom_set("2", "1")[:2]
    act = dict(u.right.act)
    act[(z, c1)], act[(z, c2)] = act[(z, c2)], act[(z, c1)]
    bad = RightAction(groupoid=g, carrier=u.carrier, actor=u.right.actor,
                      act=act)
    with pytest.raises(BadAction, match="not associative"):
        validate_right_action(bad)
    with pytest.raises(BadAction, match="not associative"):
        validate_bibundle(Bibundle(name="bad", left=u.left, right=bad))
    act = dict(u.left.act)
    d1, d2 = g.hom_set("1", "2")[:2]
    act[(d1, z)], act[(d2, z)] = act[(d2, z)], act[(d1, z)]
    bad = LeftAction(groupoid=g, carrier=u.carrier, actor=u.left.actor,
                     act=act)
    with pytest.raises(BadAction, match="not associative"):
        validate_left_action(bad)


def test_actions_that_do_not_commute_are_rejected():
    # S3 acting on itself from the left by z -> z . eta^-1 is a left action,
    # but it does not commute with right translation, as S3 is not abelian
    g = point_groupoid("BS3", groups.symmetric3())
    u = unit_bibundle(g)
    left = LeftAction(groupoid=g, carrier=u.carrier, actor=u.left.actor,
                      act={(eta, z): g.comp[(z, g.inv[eta])]
                           for (eta, z) in u.left.act})
    validate_left_action(left)
    with pytest.raises(BadAction, match="do not commute"):
        validate_bibundle(Bibundle(name="twisted", left=left, right=u.right))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("stray", ["point", "arrow"])
def test_stray_action_entry_is_rejected(side, stray):
    u = unit_bibundle(P2)
    a, check = ((u.right, validate_right_action) if side == "right"
                else (u.left, validate_left_action))
    z, c = ("ghost", "1>2") if stray == "point" else ("1>1", "ghost")
    key = (z, c) if side == "right" else (c, z)
    bad = type(a)(groupoid=P2, carrier=a.carrier, actor=a.actor,
                  act={**a.act, key: "1>1"})
    with pytest.raises(BadAction, match="unknown") as err:
        check(bad)
    assert err.value.witness == key


@pytest.mark.parametrize("side", ["left", "right"])
def test_duplicate_carrier_id_is_rejected(side):
    u = unit_bibundle(P2)
    a, check = ((u.right, validate_right_action) if side == "right"
                else (u.left, validate_left_action))
    carrier = a.carrier[:2] + a.carrier[1:]
    bad = type(a)(groupoid=P2, carrier=carrier, actor=a.actor, act=a.act)
    with pytest.raises(BadAction, match="twice") as err:
        check(bad)
    assert err.value.witness == a.carrier[1]


def test_action_orbits_are_the_one_step_orbits(small_corpus):
    """Oracle without union-find: in a groupoid action the orbit of z is
    {z . c}, one step from z."""
    rng = random.Random(17)
    checked = 0
    for g in small_corpus[:10]:
        f = random_functor(rng, g, rng.choice(small_corpus))
        for b in (unit_bibundle(g), functor_to_bibundle(f)):
            for a, right in ((b.right, True), (b.left, False)):
                one_step = {tuple(sorted(
                    {w for (k1, k2), w in a.act.items()
                     if (k1 if right else k2) == z}))
                    for z in a.carrier}
                assert set(a.orbits) == one_step
                assert list(a.orbits) == sorted(a.orbits)
                checked += 1
    assert checked == 40


# ---------------------------------------------------------------------------
# unit bibundles


@pytest.mark.parametrize("g, size, quotient", [
    (PT, 1, 1), (P2, 4, 2), (BZ2, 2, 1)])
def test_unit_bibundle_shapes(g, size, quotient):
    u = validate_bibundle(unit_bibundle(g))
    assert len(u.carrier) == size
    assert len(u.right_orbits) == quotient
    assert u.is_right_principal and u.is_left_principal


# ---------------------------------------------------------------------------
# functor-induced bibundles


def test_identity_functor_gives_unit_up_to_iso():
    b = validate_bibundle(functor_to_bibundle(identity_functor(P2)))
    assert bibundles_isomorphic(b, unit_bibundle(P2)) is not None


def test_inclusion_induces_the_morita_equivalence():
    b = validate_bibundle(functor_to_bibundle(incl_one_into_p2()))
    assert len(b.carrier) == 2
    assert b.is_equivalence


def test_collapse_bz2_right_but_not_left_principal():
    f = StrictArrow("u", BZ2, PT, {BZ2.objects[0]: "*"},
                    {a: "id_*" for a in BZ2.arrows})
    validate_functor(f)
    b = validate_bibundle(functor_to_bibundle(f))
    assert len(b.carrier) == 1
    assert b.is_right_principal
    assert not b.is_left_principal
    res = is_principal(b.left)
    assert res.witness[0] == "not-free"


# ---------------------------------------------------------------------------
# tensor product


def test_right_unit_law_with_the_canonical_map():
    z = functor_to_bibundle(incl_one_into_p2())
    t = validate_bibundle(tensor(z, unit_bibundle(P2)))
    assert bibundles_isomorphic(t, z) is not None
    # the canonical map [z, x] -> z . u(x) is itself an equivariant bijection
    u = unit_bibundle(P2)
    canonical = {}
    for z1 in z.carrier:
        for w in u.carrier:
            if z.right.actor[z1] != u.left.actor[w]:
                continue
            target = z.right.act[(z1, w)]  # acting by the unit arrow w
            # find the tensor class containing (z1, w)
            for cid in t.carrier:
                if cid == f"[{z1}*{w}]":
                    canonical[cid] = target
    # defined on every class representative, and a bijection onto z
    assert sorted(canonical) == sorted(t.carrier)
    assert sorted(canonical.values()) == sorted(z.carrier)
    for cid, zz in canonical.items():
        assert t.left.actor[cid] == z.left.actor[zz]
        assert t.right.actor[cid] == z.right.actor[zz]


def test_left_unit_law():
    z = functor_to_bibundle(incl_one_into_p2())
    one = restrict(P2, ["1"])
    t = validate_bibundle(tensor(unit_bibundle(one), z))
    assert bibundles_isomorphic(t, z) is not None


def test_tensor_of_the_two_pair_point_bibundles():
    z = morita_point_check(P2).bibundle        # P2 -| 2 |- pt(P2)
    zi = transpose(z)
    validate_bibundle(zi)
    # fibre product before the quotient has |2| * |2| = 4 points
    pairs = [(a, b) for a in z.carrier for b in zi.carrier
             if z.right.actor[a] == zi.left.actor[b]]
    assert len(pairs) == 4
    t = validate_bibundle(tensor(z, zi))
    assert bibundles_isomorphic(t, unit_bibundle(P2)) is not None


def test_tensor_rejects_mismatched_or_nonprincipal():
    with pytest.raises(NotComposable):
        tensor(unit_bibundle(P2), unit_bibundle(BZ2))
    # trivial right action on one point over BZ2 is not principal
    e = BZ2.unit[BZ2.objects[0]]
    bad = Bibundle(
        name="bad",
        left=LeftAction(groupoid=BZ2, carrier=("pt",),
                        actor={"pt": BZ2.objects[0]},
                        act={(c, "pt"): "pt" for c in BZ2.arrows}),
        right=RightAction(groupoid=BZ2, carrier=("pt",),
                          actor={"pt": BZ2.objects[0]},
                          act={("pt", c): "pt" for c in BZ2.arrows}))
    validate_bibundle(bad)
    with pytest.raises(NotPrincipal):
        tensor(bad, unit_bibundle(BZ2))


def test_tensor_associative_up_to_iso_on_composable_triples(small_corpus):
    rng = random.Random(12)
    picked = [g for g in small_corpus if len(g.arrows) <= 16][:4]
    assert len(picked) >= 3
    count = 0
    for i in range(6):
        a, b, c, d = (rng.choice(picked) for _ in range(4))
        z1 = functor_to_bibundle(random_functor(rng, a, b))
        z2 = functor_to_bibundle(random_functor(rng, b, c))
        z3 = functor_to_bibundle(random_functor(rng, c, d))
        lhs = tensor(tensor(z1, z2), z3)
        rhs = tensor(z1, tensor(z2, z3))
        validate_bibundle(lhs)
        validate_bibundle(rhs)
        assert bibundles_isomorphic(lhs, rhs) is not None
        count += 1
    assert count == 6


def test_functor_composition_carried_to_tensor(small_corpus):
    rng = random.Random(13)
    picked = [g for g in small_corpus if len(g.arrows) <= 16][:4]
    for i in range(6):
        a, b, c = (rng.choice(picked) for _ in range(3))
        f = random_functor(rng, a, b)
        g = random_functor(rng, b, c)
        lhs = functor_to_bibundle(compose_functors(g, f))
        rhs = tensor(functor_to_bibundle(f), functor_to_bibundle(g))
        assert bibundles_isomorphic(lhs, rhs) is not None


def union_find_tensor(z1, z2):
    """The tensor product with its classes found by union-find over every
    (pair, pair . c) link: the independent copy the direct orbit walk in
    ``tensor`` is checked against."""
    mid = z1.cod
    q1, p2 = z1.right.actor, z2.left.actor
    pairs = [(z, w) for z in z1.carrier for w in z2.carrier
             if q1[z] == p2[w]]
    links = (((z, w), (z1.right.act[(z, c)], z2.left.act[(mid.inv[c], w)]))
             for z, w in pairs for c in mid.arrows_into[q1[z]])
    cls_of, rep_of, carrier = {}, {}, []
    for block in partition(pairs, links):
        cid = f"[{block[0][0]}*{block[0][1]}]"
        carrier.append(cid)
        rep_of.setdefault(cid, block[0])
        for pw in block:
            cls_of[pw] = cid
    carrier = tuple(sorted(carrier))
    h, k = z1.dom, z2.cod
    p = {cid: z1.left.actor[rep_of[cid][0]] for cid in carrier}
    q = {cid: z2.right.actor[rep_of[cid][1]] for cid in carrier}
    lact, ract = {}, {}
    for cid in carrier:
        z, w = rep_of[cid]
        for eta in h.arrows_from[p[cid]]:
            lact[(eta, cid)] = cls_of[(z1.left.act[(eta, z)], w)]
        for c in k.arrows_into[q[cid]]:
            ract[(cid, c)] = cls_of[(z, z2.right.act[(w, c)])]
    return carrier, p, q, lact, ract


def test_tensor_matches_the_union_find_quotient(small_corpus):
    rng = random.Random(14)
    picked = [g for g in small_corpus if len(g.arrows) <= 16][:5]
    s3 = transitive_groupoid("PS3", ["a", "b"], groups.symmetric3())
    cases = []
    for g in picked + [s3, P3, BZ3]:
        unit = unit_bibundle(g)
        cases += [(unit, unit), (transpose(unit), unit),
                  (unit, transpose(unit))]
    for _ in range(8):
        a, b, c = (rng.choice(picked) for _ in range(3))
        f1 = functor_to_bibundle(random_functor(rng, a, b))
        f2 = functor_to_bibundle(random_functor(rng, b, c))
        cases += [(f1, f2), (f1, unit_bibundle(b)), (unit_bibundle(a), f1)]
    # transposes of functor-induced equivalences are right-principal too
    for z in (functor_to_bibundle(incl_one_into_p2()),
              morita_point_check(P3).bibundle):
        zt = transpose(z)
        cases += [(zt, z), (z, zt), (zt, unit_bibundle(z.dom))]
    for z1, z2 in cases:
        for z in (z1, z2):
            validate_bibundle(z)
        t = tensor(z1, z2)
        carrier, p, q, lact, ract = union_find_tensor(z1, z2)
        assert t.carrier == carrier
        assert list(t.left.actor.items()) == list(p.items())
        assert list(t.right.actor.items()) == list(q.items())
        assert list(t.left.act.items()) == list(lact.items())
        assert list(t.right.act.items()) == list(ract.items())


# ---------------------------------------------------------------------------
# bibundle isomorphism


def test_isomorphic_to_itself_by_identity():
    u = unit_bibundle(P2)
    iso = bibundles_isomorphic(u, u)
    assert iso == {z: z for z in u.carrier}


def test_unit_vs_trivial_two_point_bibundle():
    e = BZ2.unit[BZ2.objects[0]]
    x = BZ2.objects[0]
    trivial = Bibundle(
        name="triv2",
        left=LeftAction(groupoid=BZ2, carrier=("z1", "z2"),
                        actor={"z1": x, "z2": x},
                        act={(c, z): z for c in BZ2.arrows
                             for z in ("z1", "z2")}),
        right=RightAction(groupoid=BZ2, carrier=("z1", "z2"),
                          actor={"z1": x, "z2": x},
                          act={(z, c): z for c in BZ2.arrows
                               for z in ("z1", "z2")}))
    validate_bibundle(trivial)
    assert bibundles_isomorphic(unit_bibundle(BZ2), trivial) is None


def test_isomorphism_endpoint_mismatch():
    with pytest.raises(EndpointMismatch):
        bibundles_isomorphic(unit_bibundle(P2), unit_bibundle(BZ2))


# ---------------------------------------------------------------------------
# Morita equivalence


def test_pair3_equivalent_to_point():
    w = are_morita_equivalent(P3, PT)
    assert w is not None and len(w.carrier) == 3
    assert validate_bibundle(w).is_equivalence


def test_bz2_not_equivalent_to_bz3():
    assert are_morita_equivalent(BZ2, BZ3) is None


def test_same_groupoid_gives_unit():
    w = are_morita_equivalent(P2, P2)
    assert w is not None
    assert bibundles_isomorphic(w, unit_bibundle(P2)) is not None


def test_decision_agrees_with_skeletons(corpus):
    sks = {g.name: skeletonize(g) for g in corpus[:14]}
    for g in corpus[:14]:
        for h in corpus[:14]:
            w = are_morita_equivalent(g, h)
            assert (w is not None) == skeleton_equal(sks[g.name],
                                                     sks[h.name])
            if w is not None:
                assert validate_bibundle(w).is_equivalence


def test_morita_is_equivalence_relation(corpus):
    members = corpus[:12]
    for g in members:
        assert are_morita_equivalent(g, g) is not None
    for g in members:
        for h in members:
            assert ((are_morita_equivalent(g, h) is None)
                    == (are_morita_equivalent(h, g) is None))
    for g in members:
        for h in members:
            for k in members:
                if (are_morita_equivalent(g, h) is not None
                        and are_morita_equivalent(h, k) is not None):
                    assert are_morita_equivalent(g, k) is not None
