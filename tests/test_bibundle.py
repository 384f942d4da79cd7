import dataclasses
import gc
import random
import weakref

import pytest

from grpd import bibundle, groups
from grpd.bibundle import (BadAction, Bibundle, EndpointMismatch,
                           LeftAction, NotComposable, NotPrincipal,
                           Principality, RightAction, are_morita_equivalent,
                           bibundles_isomorphic, functor_to_bibundle,
                           is_principal, tensor, unit_bibundle,
                           validate_action, validate_bibundle)
from grpd.complexity import point_groupoid
from grpd.core import (StrictArrow, compose_functors, discrete_groupoid,
                       first_repeat, identity_functor, index_arrows,
                       pair_groupoid, partition, restrict, same_groupoid,
                       validate_functor)
from grpd.corpus import random_groupoid, transitive_groupoid
from grpd.homotopy import skeletonize


BZ2 = point_groupoid("BZ2", groups.cyclic(2))
BZ3 = point_groupoid("BZ3", groups.cyclic(3))
P2 = pair_groupoid("P2", ["1", "2"])
P3 = pair_groupoid("P3", ["1", "2", "3"])
PT = discrete_groupoid("pt", ["*"])


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


def union_find_orbits(a):
    right = isinstance(a, RightAction)
    return partition(a.carrier, ((k[0] if right else k[1], w)
                                 for k, w in a.act.items()))


def checked_is_principal(a):
    """Principality with union-find orbits and the division map checked
    for being well defined and total on each orbit: the independent copy
    :func:`is_principal` is compared against."""
    g = a.groupoid
    right = isinstance(a, RightAction)
    moves = [((key, z_or_c) if right else (z_or_c, key), w)
             for (key, z_or_c), w in sorted(a.act.items())]
    for (z, c), w in moves:
        if w == z and c != g.unit[a.actor[z]]:
            return Principality(ok=False, witness=("not-free", z, c))
    division = {}
    for (z, c), w in moves:
        if (z, w) in division and division[(z, w)] != c:
            return Principality(ok=False,
                                witness=("division-ambiguous", z, w))
        division[(z, w)] = c
    for block in union_find_orbits(a):
        for z in block:
            for w in block:
                if (z, w) not in division:
                    return Principality(ok=False,
                                        witness=("division-partial", z, w))
    return Principality(ok=True, division=division)


def test_principality_matches_the_checked_copy(small_corpus, transpose,
                                               random_functor):
    rng = random.Random(19)
    bz2_pt = StrictArrow("u", BZ2, PT, {BZ2.objects[0]: "*"},
                         {a: "id_*" for a in BZ2.arrows})
    bibundles = [functor_to_bibundle(bz2_pt), unit_bibundle(BZ2)]
    for g in small_corpus[:10]:
        f = random_functor(rng, g, rng.choice(small_corpus))
        bibundles += [unit_bibundle(g), functor_to_bibundle(f)]
    bibundles += [transpose(b) for b in bibundles]
    outcomes = {True: 0, False: 0}
    for b in bibundles:
        validate_bibundle(b)
        for a in (b.left, b.right):
            got, want = is_principal(a), checked_is_principal(a)
            assert got == want
            if got:
                assert list(got.division.items()) == list(
                    want.division.items())
            assert a.orbits == union_find_orbits(a)
            outcomes[bool(got)] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 5


def test_principality_flags_build_no_division(small_corpus, monkeypatch,
                                              transpose, random_functor):
    """The flags and the tensor product need freeness only: they agree with
    ``is_principal`` without calling it, and so build no division map."""
    rng = random.Random(23)
    bibundles = [unit_bibundle(transitive_groupoid(
        "p4s3", ["1", "2", "3", "4"], groups.dihedral(3)))]
    for g in small_corpus[:6]:
        b = functor_to_bibundle(
            random_functor(rng, g, rng.choice(small_corpus)))
        bibundles += [b, transpose(b)]
    want = [(bool(bibundle.is_principal(b.right)),
             bool(bibundle.is_principal(b.left))) for b in bibundles]
    assert {w[1] for w in want} == {True, False}

    def no_division(a):
        raise AssertionError("division map built for a flag")

    monkeypatch.setattr(bibundle, "is_principal", no_division)
    for b, (right, left) in zip(bibundles, want):
        # the flags also ask for a bijection of orbits onto objects
        assert b.is_right_principal <= right and b.is_left_principal <= left
        if b.is_right_principal:
            assert tensor(b, unit_bibundle(b.cod)).carrier
    assert bibundles[0].is_equivalence


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


def tampered_actions():
    """Seeded translation actions of both sides, most with two values
    swapped."""
    rng = random.Random(41)
    for i in range(60):
        g = random_groupoid(rng, f"a{i}", 4, 4)
        u = unit_bibundle(g)
        for a in (u.right, u.left):
            if rng.random() < 0.7:
                a = _swap_two_values(rng, a)
            yield a


def test_action_validators_agree_with_naive_oracle():
    accepted = rejected = 0
    for a in tampered_actions():
        expected = oracle_action_ok(a)
        try:
            validate_action(a)
            got = True
        except BadAction:
            got = False
        assert got == expected, (a.groupoid.name, type(a).__name__)
        accepted += got
        rejected += not got
    assert accepted >= 20 and rejected >= 20


def sweep_right_action(a):
    """The right-action check with the domain swept over every (point,
    arrow) pair and the middle arrow of Light's test acting first: the
    independent copy the shared validator is compared against."""
    g = a.groupoid
    points = set(a.carrier)
    if len(points) != len(a.carrier):
        dup = first_repeat(a.carrier)
        raise BadAction(f"carrier lists {dup!r} twice", witness=dup)
    for z in a.carrier:
        if a.actor.get(z) not in set(g.objects):
            raise BadAction(f"actor undefined or invalid at {z!r}", witness=z)
    accepted = 0
    for z in a.carrier:
        for c in g.arrows:
            defined = (z, c) in a.act
            if defined != (a.actor[z] == g.tgt[c]):
                raise BadAction(
                    f"action domain wrong at ({z!r}, {c!r})", witness=(z, c))
            if defined:
                accepted += 1
                w = a.act[(z, c)]
                if w not in points or a.actor[w] != g.src[c]:
                    raise BadAction(
                        f"({z!r}) . ({c!r}) does not sit over src",
                        witness=(z, c))
    if accepted != len(a.act):
        for z, c in sorted(a.act):
            if z not in points or c not in g.src:
                raise BadAction(f"action entry ({z!r}, {c!r}) names an "
                                "unknown point or arrow", witness=(z, c))
    for z in a.carrier:
        if a.act[(z, g.unit[a.actor[z]])] != z:
            raise BadAction(f"unit acts nontrivially on {z!r}", witness=z)
    gens_into = index_arrows(g.generators, g.tgt)
    for z in a.carrier:
        for p in g.arrows_into[a.actor[z]]:
            zp = a.act[(z, p)]
            for q in gens_into.get(g.src[p], ()):
                if a.act[(zp, q)] != a.act[(z, g.comp[(p, q)])]:
                    raise BadAction(
                        f"action not associative on ({z!r}, {p!r}, {q!r})",
                        witness=(z, p, q))
    return a


def sweep_left_action(a):
    """The left-side copy of :func:`sweep_right_action`, with
    the generator of Light's test acting first."""
    g = a.groupoid
    points = set(a.carrier)
    if len(points) != len(a.carrier):
        dup = first_repeat(a.carrier)
        raise BadAction(f"carrier lists {dup!r} twice", witness=dup)
    for z in a.carrier:
        if a.actor.get(z) not in set(g.objects):
            raise BadAction(f"actor undefined or invalid at {z!r}", witness=z)
    accepted = 0
    for z in a.carrier:
        for c in g.arrows:
            defined = (c, z) in a.act
            if defined != (a.actor[z] == g.src[c]):
                raise BadAction(
                    f"action domain wrong at ({c!r}, {z!r})", witness=(c, z))
            if defined:
                accepted += 1
                w = a.act[(c, z)]
                if w not in points or a.actor[w] != g.tgt[c]:
                    raise BadAction(
                        f"({c!r}) . ({z!r}) does not sit over tgt",
                        witness=(c, z))
    if accepted != len(a.act):
        for c, z in sorted(a.act):
            if c not in g.src or z not in points:
                raise BadAction(f"action entry ({c!r}, {z!r}) names an "
                                "unknown arrow or point", witness=(c, z))
    for z in a.carrier:
        if a.act[(g.unit[a.actor[z]], z)] != z:
            raise BadAction(f"unit acts nontrivially on {z!r}", witness=z)
    gens_from = index_arrows(g.generators, g.src)
    for z in a.carrier:
        for q in gens_from.get(a.actor[z], ()):
            qz = a.act[(q, z)]
            for p in g.arrows_from[g.tgt[q]]:
                if a.act[(p, qz)] != a.act[(g.comp[(p, q)], z)]:
                    raise BadAction(
                        f"action not associative on ({p!r}, {q!r}, {z!r})",
                        witness=(p, q, z))
    return a


def _action_error(check, a):
    try:
        check(a)
    except BadAction as err:
        return type(err), str(err), err.witness
    return None


def _broken_tables(rng, a):
    """Copies of a with one entry missing, one stray entry (unknown point,
    unknown arrow, or a known pair off the domain) and one entry landing
    on an unknown point or over the wrong object."""
    g, key = a.groupoid, a.key
    keys = sorted(a.act)

    def copy(act):
        return type(a)(groupoid=g, carrier=a.carrier, actor=a.actor, act=act)

    act = dict(a.act)
    del act[rng.choice(keys)]
    yield copy(act)
    z, c = rng.choice(a.carrier), rng.choice(g.arrows)
    for k in (key("ghost", c), key(z, "ghost"), key(z, c)):
        yield copy({**a.act, k: z})
    k = rng.choice(keys)
    yield copy({**a.act, k: "ghost"})
    wrong = [w for w in a.carrier if a.actor[w] != a.actor[a.act[k]]]
    if wrong:
        yield copy({**a.act, k: rng.choice(wrong)})


def test_shared_action_validator_matches_the_sweeping_copies():
    """Same class, message and witness as the two sweeping copies; only a
    failing left associativity check may name another triple, which must
    then fail too."""
    rng = random.Random(43)
    cases = list(tampered_actions())
    for a in cases[:40]:
        cases += _broken_tables(rng, a)
    u = unit_bibundle(P2)
    for a in (u.right, u.left):
        cases.append(dataclasses.replace(
            a, actor={**a.actor, "1>2": "ghost"}))
        cases.append(dataclasses.replace(
            a, carrier=a.carrier + a.carrier[:1]))
        unit = a.key(a.carrier[0], u.dom.unit["1"])
        cases.append(dataclasses.replace(
            a, act={**a.act, unit: a.carrier[1]}))
        # an image off the carrier that the actor table still places
        cases.append(dataclasses.replace(
            a, actor={**a.actor, "ghost": a.actor[a.act[unit]]},
            act={**a.act, unit: "ghost"}))
    kinds = {}
    for a in cases:
        right = isinstance(a, RightAction)
        got = _action_error(validate_action, a)
        want = _action_error(sweep_right_action if right
                             else sweep_left_action, a)
        kind = "ok" if want is None else want[1].split(" ")[0]
        if not right and want and "not associative" in want[1]:
            assert got[:1] == want[:1] and "not associative" in got[1]
            q, p, z = got[2]
            g = a.groupoid
            assert a.act[(q, a.act[(p, z)])] != a.act[(g.comp[(q, p)], z)]
            kind = "left-associativity"
        else:
            assert got == want, (a.groupoid.name, type(a).__name__)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["ok"] >= 20 and kinds["left-associativity"] >= 5
    assert {"action", "actor", "unit", "carrier"} <= set(kinds)


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
        validate_action(bad)
    with pytest.raises(BadAction, match="not associative"):
        validate_bibundle(Bibundle(name="bad", left=u.left, right=bad))
    act = dict(u.left.act)
    d1, d2 = g.hom_set("1", "2")[:2]
    act[(d1, z)], act[(d2, z)] = act[(d2, z)], act[(d1, z)]
    bad = LeftAction(groupoid=g, carrier=u.carrier, actor=u.left.actor,
                     act=act)
    with pytest.raises(BadAction, match="not associative"):
        validate_action(bad)


def test_actions_that_do_not_commute_are_rejected():
    # S3 acting on itself from the left by z -> z . eta^-1 is a left action,
    # but it does not commute with right translation, as S3 is not abelian
    g = point_groupoid("BS3", groups.dihedral(3))
    u = unit_bibundle(g)
    left = LeftAction(groupoid=g, carrier=u.carrier, actor=u.left.actor,
                      act={(eta, z): g.comp[(z, g.inv[eta])]
                           for (eta, z) in u.left.act})
    validate_action(left)
    with pytest.raises(BadAction, match="do not commute"):
        validate_bibundle(Bibundle(name="twisted", left=left, right=u.right))


@pytest.mark.parametrize("moved", ["left", "right"])
def test_action_moving_the_other_actor_is_rejected(moved):
    # the identities of a discrete groupoid act trivially, keeping every
    # actor; translation by P2 on one side moves the other side's actor
    d = discrete_groupoid("d", ["1", "2"])
    u = unit_bibundle(P2)
    trans = u.left if moved == "left" else u.right
    end = P2.tgt if moved == "left" else P2.src
    other = type(u.right if moved == "left" else u.left)
    still = other(groupoid=d, carrier=u.carrier,
                  actor={z: end[z] for z in u.carrier},
                  act={other.key(z, d.unit[end[z]]): z for z in u.carrier})
    b = (Bibundle(name="m", left=trans, right=still) if moved == "left"
         else Bibundle(name="m", left=still, right=trans))
    first = next(k for k, w in trans.act.items()
                 if end[w] != end[k[1] if moved == "left" else k[0]])
    with pytest.raises(BadAction) as err:
        validate_bibundle(b)
    stay = "right" if moved == "left" else "left"
    assert str(err.value) == (f"{moved} action moves the {stay} actor at "
                              f"({first[0]!r}, {first[1]!r})")
    assert err.value.witness == first


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("stray", ["point", "arrow"])
def test_stray_action_entry_is_rejected(side, stray):
    u = unit_bibundle(P2)
    a = u.right if side == "right" else u.left
    z, c = ("ghost", "1>2") if stray == "point" else ("1>1", "ghost")
    key = (z, c) if side == "right" else (c, z)
    bad = type(a)(groupoid=P2, carrier=a.carrier, actor=a.actor,
                  act={**a.act, key: "1>1"})
    with pytest.raises(BadAction, match="unknown") as err:
        validate_action(bad)
    assert err.value.witness == key


@pytest.mark.parametrize("side", ["left", "right"])
def test_duplicate_carrier_id_is_rejected(side):
    u = unit_bibundle(P2)
    a = u.right if side == "right" else u.left
    carrier = a.carrier[:2] + a.carrier[1:]
    bad = type(a)(groupoid=P2, carrier=carrier, actor=a.actor, act=a.act)
    with pytest.raises(BadAction, match="twice") as err:
        validate_action(bad)
    assert err.value.witness == a.carrier[1]


def test_action_orbits_are_the_one_step_orbits(small_corpus, random_functor):
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
    assert len(u.right.orbits) == quotient
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


def test_an_isomorphism_search_is_freed_without_the_collector():
    # the matching is one loop, and no closure in it refers to itself:
    # once it returns, dropping the last reference to a bibundle it read
    # frees it at once
    z = functor_to_bibundle(incl_one_into_p2())
    t = validate_bibundle(tensor(z, unit_bibundle(P2)))
    ref = weakref.ref(t)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert bibundles_isomorphic(t, z) is not None
        assert gc.collect() == 0
        del t
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_left_unit_law():
    z = functor_to_bibundle(incl_one_into_p2())
    one = restrict(P2, ["1"])
    t = validate_bibundle(tensor(unit_bibundle(one), z))
    assert bibundles_isomorphic(t, z) is not None


def test_tensor_of_the_two_pair_point_bibundles(transpose):
    # P2 -| 2 |- the point at 1
    z = are_morita_equivalent(P2, restrict(P2, P2.objects[:1]))
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


def test_tensor_associative_up_to_iso_on_composable_triples(small_corpus,
                                                            random_functor):
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


def test_functor_composition_carried_to_tensor(small_corpus, random_functor):
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


def test_tensor_matches_the_union_find_quotient(small_corpus, transpose,
                                                 random_functor):
    rng = random.Random(14)
    picked = [g for g in small_corpus if len(g.arrows) <= 16][:5]
    s3 = transitive_groupoid("PS3", ["a", "b"], groups.dihedral(3))
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
              are_morita_equivalent(P3, restrict(P3, P3.objects[:1]))):
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


def test_a_thousand_components_match_without_recursion():
    u = unit_bibundle(discrete_groupoid(
        "d1200", [f"x{i}" for i in range(1200)]))
    assert bibundles_isomorphic(u, u) == {z: z for z in u.carrier}


def swapped_components(k, fixed_first):
    """k two-point components over BZ2, each swapped by both actions; with
    ``fixed_first``, the left action fixes the first component instead.
    Isomorphic only when both flags agree."""
    x, e = BZ2.objects[0], BZ2.unit[BZ2.objects[0]]
    partner = {}
    for i in range(k):
        partner[f"u{i}"], partner[f"v{i}"] = f"v{i}", f"u{i}"
    carrier = tuple(partner)

    def moved(z, c, fixed):
        return z if c == e or fixed else partner[z]

    return validate_bibundle(Bibundle(
        name=f"swap{k}{'_fixed' if fixed_first else ''}",
        left=LeftAction(groupoid=BZ2, carrier=carrier,
                        actor=dict.fromkeys(carrier, x),
                        act={(c, z): moved(z, c, fixed_first
                                           and z in ("u0", "v0"))
                             for z in carrier for c in BZ2.arrows}),
        right=RightAction(groupoid=BZ2, carrier=carrier,
                          actor=dict.fromkeys(carrier, x),
                          act={(z, c): moved(z, c, False)
                               for z in carrier for c in BZ2.arrows})))


def test_a_mismatch_is_found_without_backtracking(monkeypatch):
    # a backtracking search tries every order of the unfixed components
    # before it gives up; counting the left moves it reads, rather than
    # timing it, makes such a search fail fast
    a, b = swapped_components(12, False), swapped_components(12, True)
    bound = 4 * len(a.carrier) ** 2
    acting = LeftAction.acting
    calls = 0

    def counted(self, x):
        nonlocal calls
        calls += 1
        if calls > bound:
            raise AssertionError(f"more than {bound} left moves read")
        return acting(self, x)

    monkeypatch.setattr(LeftAction, "acting", counted)
    for x, y in ((a, b), (b, a)):
        calls = 0
        assert bibundles_isomorphic(x, y) is None


def trivial_bibundle(n):
    """BZ2 acting trivially on both sides of n points."""
    x = BZ2.objects[0]
    points = tuple(f"z{k}" for k in range(1, n + 1))
    return Bibundle(
        name=f"triv{n}",
        left=LeftAction(groupoid=BZ2, carrier=points,
                        actor=dict.fromkeys(points, x),
                        act={(c, z): z for c in BZ2.arrows for z in points}),
        right=RightAction(groupoid=BZ2, carrier=points,
                          actor=dict.fromkeys(points, x),
                          act={(z, c): z for c in BZ2.arrows
                               for z in points}))


def test_unit_vs_trivial_two_point_bibundle():
    trivial = trivial_bibundle(2)
    validate_bibundle(trivial)
    assert bibundles_isomorphic(unit_bibundle(BZ2), trivial) is None


def test_bibundles_of_different_sizes_are_not_isomorphic():
    # the unit bibundle of BZ2 has two points
    trivial = validate_bibundle(trivial_bibundle(3))
    assert bibundles_isomorphic(unit_bibundle(BZ2), trivial) is None
    assert bibundles_isomorphic(trivial, trivial) is not None


def scanning_bibundles_isomorphic(a, b):
    """The isomorphism search with each assigned point's moves found by
    scanning every arrow of both groupoids: the independent copy
    :func:`bibundles_isomorphic` is compared against."""
    assert same_groupoid(a.dom, b.dom) and same_groupoid(a.cod, b.cod)
    if len(a.carrier) != len(b.carrier):
        return None

    def fibre(bb):
        out = {}
        for z in bb.carrier:
            out.setdefault((bb.left.actor[z], bb.right.actor[z]), []).append(z)
        return out

    fa, fb = fibre(a), fibre(b)
    if set(fa) != set(fb) or any(len(fa[k]) != len(fb[k]) for k in fa):
        return None
    h, g = a.dom, a.cod
    order = sorted(a.carrier)
    assign, used = {}, set()

    def propagate(z, w, trail):
        stack = [(z, w)]
        while stack:
            z, w = stack.pop()
            if z in assign:
                if assign[z] != w:
                    return False
                continue
            if w in used:
                return False
            if (a.left.actor[z], a.right.actor[z]) != (
                    b.left.actor[w], b.right.actor[w]):
                return False
            assign[z] = w
            used.add(w)
            trail.append(z)
            for eta in h.arrows:
                if (eta, z) in a.left.act:
                    stack.append((a.left.act[(eta, z)], b.left.act[(eta, w)]))
            for c in g.arrows:
                if (z, c) in a.right.act:
                    stack.append((a.right.act[(z, c)], b.right.act[(w, c)]))
        return True

    def search(i):
        while i < len(order) and order[i] in assign:
            i += 1
        if i == len(order):
            return True
        z = order[i]
        for w in fb[(a.left.actor[z], a.right.actor[z])]:
            if w in used:
                continue
            trail = []
            if propagate(z, w, trail) and search(i + 1):
                return True
            for t in trail:
                used.discard(assign.pop(t))
        return False

    return dict(assign) if search(0) else None


def test_isomorphism_search_matches_the_scanning_copy(small_corpus, transpose,
                                                      enumerate_functors):
    s3 = transitive_groupoid("PS3", ["a", "b"], groups.dihedral(3))
    pairs = []
    for g in small_corpus[:6] + [BZ2, P3]:
        u = unit_bibundle(g)
        pairs += [(u, functor_to_bibundle(identity_functor(g))),
                  (u, tensor(u, u)), (transpose(u), u)]
    for g in small_corpus[:4]:
        induced = [functor_to_bibundle(f)
                   for f in enumerate_functors(g, s3)[:4]]
        pairs += [(x, y) for x in induced for y in induced]
    swapped, fixed = swapped_components(4, False), swapped_components(4, True)
    pairs += [(swapped, fixed), (fixed, swapped)]
    outcomes = {True: 0, False: 0}
    for x, y in pairs:
        got = bibundles_isomorphic(x, y)
        assert got == scanning_bibundles_isomorphic(x, y)
        outcomes[got is not None] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 10


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


def test_decision_agrees_with_skeletons(corpus, isomorphic_skeletons):
    sks = {g.name: skeletonize(g) for g in corpus[:14]}
    for g in corpus[:14]:
        for h in corpus[:14]:
            w = are_morita_equivalent(g, h)
            assert (w is not None) == isomorphic_skeletons(sks[g.name],
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
