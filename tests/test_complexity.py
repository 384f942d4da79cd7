import random
from itertools import combinations

import pytest

from grpd import groups
from grpd.bibundle import are_morita_equivalent, validate_bibundle
from grpd.complexity import (NotInvariant, cgeo, cgeo_with_cover,
                             exists_deformation,
                             is_transitive, is_weak_point_subgroupoid,
                             locus_key, point_groupoid, relative_cgeo,
                             subgroupoid)
from grpd.core import (Composite, GroupoidError, discrete_groupoid,
                       disjoint_union, pair_groupoid, restrict,
                       validate_functor, validate_groupoid, validate_nat)
from grpd.groups import InvalidGroupTable
from grpd.homotopy import are_morita_homotopy_equivalent, skeletonize

BZ2 = point_groupoid("BZ2", groups.cyclic(2))
P2 = pair_groupoid("P2", ["1", "2"])


# ---------------------------------------------------------------------------
# orbits and transitivity


def test_orbits_examples():
    p3 = pair_groupoid("p3", ["1", "2", "3"])
    assert p3.components == (("1", "2", "3"),)
    d = discrete_groupoid("d", ["a", "b"])
    assert d.components == (("a",), ("b",))
    mix = disjoint_union("m", [P2, BZ2])
    assert len(mix.components) == 2


def test_transitive_examples():
    assert is_transitive(pair_groupoid("p5", list("abcde")))
    assert is_transitive(point_groupoid("BZ3", groups.cyclic(3)))
    assert not is_transitive(discrete_groupoid("d", ["a", "b"]))
    assert not is_transitive(discrete_groupoid("e", []))


# ---------------------------------------------------------------------------
# point groupoids


def test_point_groupoid_shapes():
    assert len(point_groupoid("t", groups.cyclic(1)).arrows) == 1
    assert len(point_groupoid("z2", groups.cyclic(2)).arrows) == 2
    s3 = point_groupoid("s3", groups.dihedral(3))
    validate_groupoid(s3)
    assert len(s3.objects) == 1 and len(s3.arrows) == 6


def test_point_groupoid_rejects_bad_tables():
    with pytest.raises(InvalidGroupTable):
        point_groupoid("bad", ((0, 1), (1, 1)))
    with pytest.raises(InvalidGroupTable):
        point_groupoid("bad", groups.cyclic(2), elements=("a",))


def point_equivalence(g):
    """Morita equivalence of g to the point at its first object, or None."""
    return are_morita_equivalent(g, restrict(g, g.objects[:1]))


def test_morita_point_check_pair2():
    b = point_equivalence(P2)
    assert b is not None
    assert len(b.carrier) == 2
    assert sorted(b.carrier) == ["1|1>1", "2|1>1"]
    assert validate_bibundle(b).is_equivalence
    assert len(b.cod.objects) == 1


def test_morita_point_check_on_point_groupoid_is_self():
    b = point_equivalence(BZ2)
    assert b.cod.equal_presentation(BZ2)
    assert validate_bibundle(b).is_equivalence


def test_morita_point_check_nontransitive_witness():
    d = discrete_groupoid("d", ["a", "b"])
    assert point_equivalence(d) is None
    assert point_equivalence(disjoint_union("m", [P2, BZ2])) is None


def test_transitive_iff_point_witness(corpus):
    for g in corpus:
        b = point_equivalence(g)
        assert (b is not None) == is_transitive(g)
        if b is not None:
            assert validate_bibundle(b).is_equivalence
            # m objects times the isotropy at the point
            assert len(b.carrier) == len(g.arrows_from[g.objects[0]])


# ---------------------------------------------------------------------------
# weak point subgroupoids


def test_single_orbit_is_weak_point():
    mix = disjoint_union("m", [P2, BZ2])
    block = next(b for b in mix.components if len(b) == 2)
    u = subgroupoid(mix, block)
    w = is_weak_point_subgroupoid(u)
    assert w is not None and not w.vacuous
    validate_functor(w.collapse)
    validate_nat(w.homotopy)
    # the collapse lands inside the one-object subgroupoid at the witness
    assert set(w.collapse.obj_map.values()) == {w.point_object}
    # as the deformation onto the base point, it is the trivialization
    assert w.collapse.arr_map == {a: mix.tree_loop[a] for a in
                                  w.collapse.dom.arrows}
    assert w.homotopy.component == {x: mix.inv[mix.tree[x]] for x in block}


def test_two_orbits_not_weak_point():
    d = discrete_groupoid("d", ["a", "b"])
    assert is_weak_point_subgroupoid(subgroupoid(d, ["a", "b"])) is None


def test_empty_subgroupoid_vacuously_weak_point():
    d = discrete_groupoid("d", ["a", "b"])
    w = is_weak_point_subgroupoid(subgroupoid(d, []))
    assert w is not None and w.vacuous


def test_non_invariant_subset_rejected():
    with pytest.raises(NotInvariant):
        is_weak_point_subgroupoid(subgroupoid(P2, ["1"]))


# ---------------------------------------------------------------------------
# the covering invariant


def oracle_cgeo(g, universe=None):
    """Independent brute force: weak point candidates are the invariant
    subsets inside one orbit (checked directly on components); minimal
    cover of ``universe`` (default: all objects) by enumerating
    subfamilies in order of size."""
    blocks = g.components
    candidates = []
    for r in range(1, len(blocks) + 1):
        for chosen in combinations(range(len(blocks)), r):
            objs = frozenset(x for i in chosen for x in blocks[i])
            orbit_reps = {g.component_of[x][0] for x in objs}
            if len(orbit_reps) == 1:
                candidates.append(objs)
    universe = frozenset(g.objects if universe is None else universe)
    if not universe:
        return 0
    for size in range(1, len(candidates) + 1):
        for family in combinations(candidates, size):
            if universe <= frozenset().union(*family):
                return size
    return None


def test_cgeo_examples():
    assert cgeo(pair_groupoid("p7", list("abcdefg"))) == 1
    for n in (1, 2, 4):
        assert cgeo(discrete_groupoid("d", [str(i) for i in range(n)])) == n
    assert cgeo(point_groupoid("s3", groups.dihedral(3))) == 1
    assert cgeo(discrete_groupoid("empty", [])) == 0


def test_cgeo_cover_certificates():
    mix = disjoint_union("m", [P2, BZ2])
    value, cert = cgeo_with_cover(mix)
    assert value == 2
    covered = set()
    for piece, witness in zip(cert.pieces, cert.witnesses):
        covered.update(piece)
        assert witness is not None
    assert covered == set(mix.objects)


def test_restrictions_nobody_reads_compose_nothing(corpus):
    # the weak point witnesses and the skeletal span stand on restrictions
    # whose comp no decision reads: each is a computed table that has not
    # composed a single row
    for g in corpus:
        _, cert = cgeo_with_cover(g)
        span = are_morita_homotopy_equivalent(g, g)
        pieces = [w.collapse.dom for w in cert.witnesses] + [span.mid]
        assert len(pieces) == len(g.components) + 1
        for piece in pieces:
            assert isinstance(piece.comp, Composite)
            assert piece.comp._kept == {}


def test_cgeo_matches_oracle(corpus, orbit_count):
    for g in corpus:
        assert cgeo(g) == oracle_cgeo(g) == orbit_count(g)


# ---------------------------------------------------------------------------
# relative version and deformations


def test_relative_cgeo_examples():
    d3 = discrete_groupoid("d3", ["a", "b", "c"])
    assert relative_cgeo(subgroupoid(d3, ["a", "b"])) == 2
    assert relative_cgeo(subgroupoid(d3, ["a", "b", "c"])) == cgeo(d3)
    mix = disjoint_union("m", [P2, BZ2])
    one_orbit = next(b for b in mix.components if len(b) == 2)
    assert relative_cgeo(subgroupoid(mix, one_orbit)) == 1


def test_relative_cgeo_matches_oracle(corpus):
    rng = random.Random(23)
    for g in corpus:
        for _ in range(4):
            objs = rng.sample(sorted(g.objects),
                              rng.randint(0, len(g.objects)))
            assert relative_cgeo(subgroupoid(g, objs)) == \
                oracle_cgeo(g, objs), (g.name, objs)


def test_deformation_identity_diagram():
    h = subgroupoid(P2, ["1"])
    d = exists_deformation(h, h)
    assert d is not None
    assert d.transport.obj_map == {"1": "1"}
    validate_functor(d.transport)
    validate_nat(d.homotopy)


def test_deformation_moves_within_an_orbit():
    d = exists_deformation(subgroupoid(P2, ["1"]), subgroupoid(P2, ["2"]))
    assert d is not None
    assert d.transport.obj_map == {"1": "2"}
    validate_functor(d.transport)
    validate_nat(d.homotopy)
    # transport lands inside the target subgroupoid
    assert set(d.transport.obj_map.values()) <= {"2"}


def test_no_deformation_across_orbits():
    d2 = discrete_groupoid("d", ["a", "b"])
    assert exists_deformation(subgroupoid(d2, ["a"]),
                              subgroupoid(d2, ["b"])) is None


def test_deformation_monotone_reflexive_transitive(corpus):
    for g in corpus[:12]:
        blocks = g.components
        subsets = []
        for r in range(len(blocks) + 1):
            for chosen in combinations(range(len(blocks)), r):
                subsets.append(subgroupoid(
                    g, [x for i in chosen for x in blocks[i]]))
        rel = {}
        for h in subsets:
            for k in subsets:
                d = exists_deformation(h, k)
                rel[(h.objects, k.objects)] = d is not None
                if d is not None:
                    assert relative_cgeo(h) <= relative_cgeo(k)
        for h in subsets:
            assert rel[(h.objects, h.objects)]
        for h in subsets:
            for k in subsets:
                for m in subsets:
                    if rel[(h.objects, k.objects)] and \
                            rel[(k.objects, m.objects)]:
                        assert rel[(h.objects, m.objects)]


def test_deformation_on_full_non_invariant_subgroupoids():
    # the paper's deformations act on arbitrary full subgroupoids
    big = disjoint_union("b", [pair_groupoid("p", ["1", "2"]),
                               discrete_groupoid("d", ["x"])])
    h = subgroupoid(big, ["1"])
    k = subgroupoid(big, ["2"])
    assert not h.is_invariant
    d = exists_deformation(h, k)
    assert d is not None
    assert exists_deformation(h, subgroupoid(big, ["x"])) is None


def test_deformation_between_different_ambients_is_rejected():
    # the same object names in two groupoids that differ only in arrows
    d2 = discrete_groupoid("d", ["1", "2"])
    with pytest.raises(GroupoidError, match="different ambient"):
        exists_deformation(subgroupoid(P2, ["1"]), subgroupoid(d2, ["2"]))
    # a copy with the same presentation counts as the same ambient
    twin = pair_groupoid("P2", ["1", "2"])
    assert exists_deformation(subgroupoid(P2, ["1"]),
                              subgroupoid(twin, ["2"])) is not None


# ---------------------------------------------------------------------------
# locus keys


def test_point_groupoids_collapse_to_the_absolute_point():
    for name, table in groups.small_groups(12):
        assert locus_key(point_groupoid(name, table)) == "POINT"


def test_transitive_groupoids_key_to_point():
    assert locus_key(pair_groupoid("p4", list("wxyz"))) == "POINT"


def test_locus_key_stable_across_the_class():
    a = disjoint_union("a", [pair_groupoid("p2", ["1", "2"]),
                             point_groupoid("B", groups.cyclic(2))])
    b = disjoint_union("b", [pair_groupoid("p5", list("abcde")),
                             point_groupoid("B", groups.cyclic(2))])
    key = locus_key(a)
    assert key != "POINT"
    assert key == locus_key(b)
    # a genuinely different class gets a different key
    c = disjoint_union("c", [pair_groupoid("p2", ["1", "2"]),
                             point_groupoid("B3", groups.cyclic(3))])
    assert locus_key(c) != key


def test_locus_key_constant_on_classes(corpus):
    keys = {}
    for g in corpus[:16]:
        sk = tuple(e.canonical for e in skeletonize(g).entries)
        keys.setdefault(sk, set()).add(locus_key(g))
    for sk, ks in keys.items():
        assert len(ks) == 1
