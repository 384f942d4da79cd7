from collections import Counter

import pytest

from grpd import bibundle, core, groups, homotopy
from grpd.complexity import point_groupoid
from grpd.core import (BadFunctor, StrictArrow, compose_functors,
                       discrete_groupoid, disjoint_union, identity_functor,
                       pair_groupoid, restrict, validate_functor,
                       validate_groupoid, validate_nat)
from grpd.corpus import transitive_groupoid
from grpd.homotopy import (Cospan, InvalidCospan, IsotropyTooLarge,
                           are_morita_homotopy_equivalent, homotopy_pullback,
                           inclusion_functor, is_essential_equivalence,
                           skeletal_equivalence_functor, skeleton_equal,
                           skeletonize)

BZ2 = point_groupoid("BZ2", groups.cyclic(2))
P2 = pair_groupoid("P2", ["1", "2"])
PT = discrete_groupoid("pt", ["*"])


def identity_cospan(g):
    return Cospan(left=identity_functor(g), right=identity_functor(g))


# ---------------------------------------------------------------------------
# homotopy pullbacks


def test_p1_of_terminal_identity_cospan_is_terminal():
    r = homotopy_pullback(identity_cospan(PT), 1)
    assert len(r.groupoid.objects) == 1
    assert len(r.groupoid.arrows) == 1


def test_p1_of_bz2_identity_cospan():
    r = homotopy_pullback(identity_cospan(BZ2), 1)
    validate_groupoid(r.groupoid)
    validate_functor(r.pr1)
    validate_functor(r.pr2)
    for cell in r.cells:
        validate_nat(cell)
    assert len(r.groupoid.objects) == 2
    assert len(r.groupoid.arrows) == 8
    assert skeleton_equal(skeletonize(r.groupoid), skeletonize(BZ2))


def test_p1_of_two_point_inclusions_into_pair():
    one = restrict(P2, ["1"], name="one")
    two = restrict(P2, ["2"], name="two")
    c = Cospan(left=inclusion_functor(one, P2),
               right=inclusion_functor(two, P2))
    r = homotopy_pullback(c, 1)
    validate_groupoid(r.groupoid)
    assert len(r.groupoid.objects) == 1
    assert len(r.groupoid.arrows) == 1


def test_pn_iterates_and_keeps_the_class(corpus):
    picked = [BZ2, discrete_groupoid("d", ["a", "b"]),
              point_groupoid("BZ3", groups.cyclic(3))]
    picked += [g for g in corpus if len(g.arrows) <= 3][:2]
    for g in picked:
        base = skeletonize(g)
        for n in (1, 2, 3):
            r = homotopy_pullback(identity_cospan(g), n)
            validate_groupoid(r.groupoid)
            assert r.degree == n and len(r.cells) == n
            for cell in r.cells:
                validate_nat(cell)
            assert skeleton_equal(skeletonize(r.groupoid), base)


def test_pullback_cell_chain_connects_the_legs():
    r = homotopy_pullback(identity_cospan(BZ2), 2)
    first, last = r.cells[0], r.cells[-1]
    assert first.source_fun.obj_map == {
        o: r.pr1.obj_map[o] for o in r.groupoid.objects}
    assert last.target_fun.obj_map == {
        o: r.pr2.obj_map[o] for o in r.groupoid.objects}
    # adjacent cells share their middle functor
    assert r.cells[0].target_fun.obj_map == r.cells[1].source_fun.obj_map
    assert r.cells[0].target_fun.arr_map == r.cells[1].source_fun.arr_map


def test_invalid_cospan_rejected():
    with pytest.raises(InvalidCospan):
        Cospan(left=identity_functor(P2), right=identity_functor(PT)) \
            .validate()
    with pytest.raises(InvalidCospan):
        homotopy_pullback(identity_cospan(PT), 0)


def test_diagonal_functor_into_p1_is_essential_equivalence():
    for g in (BZ2, P2):
        r = homotopy_pullback(identity_cospan(g), 1)
        diag_obj = {}
        for o in r.groupoid.objects:
            x, y = r.pr1.obj_map[o], r.pr2.obj_map[o]
            if x == y and r.cells[0].component[o] == g.unit[x]:
                diag_obj[x] = o
        diag_arr = {}
        for a in r.groupoid.arrows:
            p, q = r.pr1.arr_map[a], r.pr2.arr_map[a]
            if p == q and r.groupoid.src[a] == diag_obj[g.src[p]] \
                    and r.groupoid.tgt[a] == diag_obj[g.tgt[p]]:
                diag_arr.setdefault(p, a)
        diag = StrictArrow("diag", g, r.groupoid, diag_obj, diag_arr)
        validate_functor(diag)
        assert is_essential_equivalence(diag)


def test_vertical_composition_matches_higher_degree(corpus,
                                                    strict_pullback):
    picked = [BZ2, discrete_groupoid("d2", ["a", "b"])]
    picked += [g for g in corpus if len(g.arrows) <= 3][:2]
    for g in picked:
        c = identity_cospan(g)
        p1 = homotopy_pullback(c, 1)
        p2 = homotopy_pullback(c, 2)
        # paste along the shared middle projection
        pasted, _, _ = strict_pullback(p1.pr2, p1.pr1)
        validate_groupoid(pasted)
        assert skeleton_equal(skeletonize(pasted), skeletonize(p2.groupoid))
        pasted3, _, _ = strict_pullback(p1.pr2, homotopy_pullback(c, 2).pr1)
        assert skeleton_equal(skeletonize(pasted3),
                              skeletonize(homotopy_pullback(c, 3).groupoid))


def test_pullbacks_reject_a_leg_that_is_no_functor():
    # identity on objects, but 1>2 sent to 2>1: BadFunctor, not a KeyError
    swap = StrictArrow("swap", P2, P2, {"1": "1", "2": "2"},
                       {**identity_functor(P2).arr_map, "1>2": "2>1"})
    with pytest.raises(BadFunctor) as err:
        homotopy_pullback(Cospan(identity_functor(P2), swap))
    assert err.value.witness == "1>2"


def test_homotopy_pullback_validates_its_legs_once(monkeypatch):
    calls = []
    for module, name in ((core, "validate_groupoid"),
                         (homotopy, "validate_functor")):
        check = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda x, check=check, name=name:
                            calls.append(name) or check(x))
    homotopy_pullback(identity_cospan(P2), 3)
    # one groupoid joined by both legs, then the two legs
    assert calls == ["validate_groupoid"] + ["validate_functor"] * 2


# Pair(2) with ids over {a, !}: unescaped, the objects of (a!!, aa, a!)
# and of (a!, !aa, a!) in P1 of its identity cospan would both be spelled
# (a!!!aa!a!)
BANG = {"1": "a!!", "2": "a!", "1>1": "!aa!", "1>2": "aa", "2>1": "a!!!",
        "2>2": "!aa"}


def test_p1_ids_stay_apart_when_ids_hold_the_separator(relabel):
    bang = validate_groupoid(relabel(P2, BANG, "bang"))
    grp = homotopy_pullback(identity_cospan(bang)).groupoid
    assert len(set(grp.objects)) == len(grp.objects) == 4
    assert len(set(grp.arrows)) == len(grp.arrows) == 16
    validate_groupoid(grp)


def test_cocylinder_ids_stay_apart_when_ids_hold_the_separator(relabel):
    bang = validate_groupoid(relabel(P2, BANG, "bang"))
    cyl = core.cocylinder(bang).groupoid
    assert len(set(cyl.objects)) == len(cyl.objects) == 4
    assert len(set(cyl.arrows)) == len(cyl.arrows) == 16
    validate_groupoid(cyl)


# ---------------------------------------------------------------------------
# essential equivalences


def test_inclusion_into_pair_is_essential_equivalence():
    one = restrict(P2, ["1"])
    f = inclusion_functor(one, P2)
    res = is_essential_equivalence(f)
    assert res and res.essentially_surjective and res.fully_faithful


def test_collapse_of_discrete_pair_is_not_fully_faithful():
    d = discrete_groupoid("d", ["a", "b"])
    f = StrictArrow("u", d, PT, {"a": "*", "b": "*"},
                    {"id_a": "id_*", "id_b": "id_*"})
    res = is_essential_equivalence(f)
    assert not res and not res.fully_faithful
    assert res.witness[0] == "hom"


def test_identity_is_essential_equivalence(corpus):
    for g in corpus[:8]:
        assert is_essential_equivalence(identity_functor(g))


def test_point_into_discrete_pair_not_essentially_surjective():
    d = discrete_groupoid("d", ["a", "b"])
    f = StrictArrow("i", PT, d, {"*": "a"}, {"id_*": "id_a"})
    res = is_essential_equivalence(f)
    assert not res and res.fully_faithful and not res.essentially_surjective
    assert res.witness == ("missing", "b")


# ---------------------------------------------------------------------------
# essential homotopy equivalences, which is_essential_equivalence decides


def test_every_essential_equivalence_factors():
    # f factors as the identity, a homotopy equivalence, followed by f
    one = restrict(P2, ["1"])
    f = inclusion_functor(one, P2)
    validate_functor(f)
    assert is_essential_equivalence(f)
    assert is_essential_equivalence(compose_functors(f, identity_functor(one)))


def test_retraction_is_homotopy_equivalence_and_factors():
    retr = skeletal_retraction(P2)
    validate_functor(retr)
    assert is_essential_equivalence(retr)


def test_point_into_two_discrete_objects_never_factors():
    d = discrete_groupoid("d", ["a", "b"])
    f = StrictArrow("i", PT, d, {"*": "a"}, {"id_*": "id_a"})
    assert not is_essential_equivalence(f)


# ---------------------------------------------------------------------------
# Morita homotopy


def test_pair4_equivalent_to_point_with_validated_span():
    p4 = pair_groupoid("P4", ["1", "2", "3", "4"])
    span = are_morita_homotopy_equivalent(p4, PT)
    assert span is not None
    validate_functor(span.left_leg)
    validate_functor(span.right_leg)
    assert is_essential_equivalence(span.left_leg)
    assert is_essential_equivalence(span.right_leg)


def test_discrete_sizes_differ():
    assert are_morita_homotopy_equivalent(
        discrete_groupoid("a", ["a"]), discrete_groupoid("ab", ["a", "b"])) \
        is None


def test_same_groupoid_spans_through_its_skeleton():
    span = are_morita_homotopy_equivalent(P2, P2)
    assert span.mid.name == "sk(P2)" and span.mid.objects == ("1",)
    assert is_essential_equivalence(span.left_leg)
    assert is_essential_equivalence(span.right_leg)


def test_spans_validated_across_corpus(corpus, isomorphic_skeletons):
    members = corpus[:10]
    for g in members:
        for h in members:
            span = are_morita_homotopy_equivalent(g, h)
            agree = isomorphic_skeletons(skeletonize(g), skeletonize(h))
            assert (span is not None) == agree
            if span is not None:
                assert is_essential_equivalence(span.left_leg)
                assert is_essential_equivalence(span.right_leg)


# ---------------------------------------------------------------------------
# skeletons


def test_skeleton_equal_agrees_with_brute_force(corpus,
                                                isomorphic_skeletons):
    sks = [skeletonize(g) for g in corpus]
    verdicts = [skeleton_equal(a, b) for a in sks for b in sks]
    assert verdicts == [isomorphic_skeletons(a, b) for a in sks for b in sks]
    assert len(sks) < verdicts.count(True) < len(verdicts)


def test_skeleton_of_pair_groupoids():
    for n in (1, 3, 5):
        g = pair_groupoid(f"p{n}", [str(i) for i in range(n)])
        sk = skeletonize(g)
        assert len(sk.entries) == 1
        assert sk.entries[0].isotropy_order == 1
        assert sk.entries[0].orbit_size == n


def test_skeleton_of_double_bz2():
    g = disjoint_union("u", [point_groupoid("A", groups.cyclic(2)),
                             point_groupoid("B", groups.cyclic(2))])
    sk = skeletonize(g)
    assert len(sk.entries) == 2
    assert all(e.isotropy_order == 2 for e in sk.entries)


def test_skeleton_of_skeletal_discrete_is_itself():
    g = discrete_groupoid("d", ["a"])
    sk = skeletonize(g)
    assert len(sk.entries) == 1
    assert sk.entries[0].orbit_rep == "a"
    assert sk.entries[0].isotropy_order == 1


def test_skeleton_alignment_ignores_orbit_size():
    # isotropy multiset {1, Z2} on both sides, but the orbit sizes pair up
    # the other way round; ordering by orbit size would misalign these
    g = disjoint_union("g", [point_groupoid("A", groups.cyclic(2)),
                             pair_groupoid("p", ["1", "2"])])
    h = disjoint_union("h", [discrete_groupoid("t", ["*"]),
                             transitive_groupoid("q", ["1", "2"],
                                                 groups.cyclic(2))])
    assert skeleton_equal(skeletonize(g), skeletonize(h))
    assert are_morita_homotopy_equivalent(g, h) is not None


def test_skeleton_serialization_is_bit_exact_on_classes():
    g = disjoint_union("g", [point_groupoid("A", groups.cyclic(2)),
                             pair_groupoid("p", ["1", "2"])])
    h = disjoint_union("h", [discrete_groupoid("t", ["*"]),
                             transitive_groupoid("q", ["x", "y"],
                                                 groups.cyclic(2))])
    assert skeletonize(g).serialize() == skeletonize(h).serialize()
    assert "orbit" in skeletonize(g).serialize()


def test_isotropy_cap_enforced():
    with pytest.raises(IsotropyTooLarge) as err:
        skeletonize(BZ2, cap=1)
    assert err.value.limit == 1
    # cap at the documented default never triggers on the catalog
    for name, table in groups.small_groups(12):
        skeletonize(point_groupoid(name, table), cap=24)


# ---------------------------------------------------------------------------
# skeletal witnesses


def test_skeletons_and_witnesses_reuse_the_validated_isotropy(monkeypatch):
    s3, z2 = groups.dihedral(3), groups.cyclic(2)
    g = disjoint_union("g", [transitive_groupoid("g0", ["a", "b"], s3),
                             transitive_groupoid("g1", ["c"], z2)])
    h = disjoint_union("h", [transitive_groupoid("h0", ["x"], s3),
                             transitive_groupoid("h1", ["y", "z"], z2)])
    for k in (g, h):
        validate_groupoid(k)
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(core, "_isotropy_table",
                        counting("isotropy", core._isotropy_table))
    for name in ("restrict", "compose_functors"):
        fn = counting(name, getattr(core, name))
        for mod in (core, homotopy, bibundle):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    skeletonize(g)
    assert bibundle.are_morita_equivalent(g, h) is not None
    assert calls == Counter()
    assert g.isotropy("a") is g.isotropy("a")


def skeletal_retraction(g):
    """Essential equivalence g -> g|reps collapsing each component onto its
    least object by spanning-tree conjugation."""
    reps = [block[0] for block in g.components]
    sub = restrict(g, reps, name=f"sk({g.name})")
    obj_map = {x: g.component_of[x][0] for x in g.objects}
    arr_map = dict(g.tree_loop)
    return StrictArrow(name=f"retr_{g.name}", dom=g, cod=sub,
                       obj_map=obj_map, arr_map=arr_map)


def _retraction_then_match(h, g):
    """The skeletal comparison functor composed the long way: the skeletal
    retraction of h, then a functor from sk(h) matching the isotropy
    groups of the sorted skeleton entries."""
    sk_h, sk_g = skeletonize(h), skeletonize(g)
    if not skeleton_equal(sk_h, sk_g):
        return None
    retr = skeletal_retraction(h)
    obj_map, arr_map = {}, {}
    for eh, eg in zip(sk_h.entries, sk_g.entries):
        theta = groups.find_isomorphism(eh.table, eg.table)
        obj_map[eh.orbit_rep] = eg.orbit_rep
        for i, a in enumerate(eh.loops):
            arr_map[a] = eg.loops[theta[i]]
    match = StrictArrow(name=f"match_{h.name}_{g.name}", dom=retr.cod,
                        cod=g, obj_map=obj_map, arr_map=arr_map)
    return compose_functors(match, retr)


def test_skeletal_equivalence_functor_is_retraction_then_match(corpus):
    equivalent = 0
    for h in corpus:
        for g in corpus:
            f = skeletal_equivalence_functor(h, g)
            slow = _retraction_then_match(h, g)
            assert (f is None) == (slow is None)
            if f is not None:
                equivalent += 1
                assert (f.name, f.obj_map, f.arr_map) == (
                    slow.name, slow.obj_map, slow.arr_map)
    assert len(corpus) < equivalent < len(corpus) ** 2
