"""Acceptance suite: one test per release criterion, each printing a
single PASS line with its counts (run with ``pytest -s`` to see them).
Each line must equal its pinned copy in ``tests/data/acceptance_pass.txt``,
so a criterion that checks less fails.

Every check here is exact: equalities hold with no tolerance, decision
procedures are cross-checked against independent oracles, and witnesses
are re-validated from scratch.
"""

import random
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest

from grpd import groups
from grpd.bibundle import (are_morita_equivalent, bibundles_isomorphic,
                           functor_to_bibundle, tensor, unit_bibundle,
                           validate_bibundle)
from grpd.complexity import (cgeo, exists_deformation, is_transitive,
                             locus_key, point_groupoid, relative_cgeo,
                             subgroupoid)
from grpd.core import (StrictArrow, are_homotopic, cocylinder,
                       compose_functors, conjugate, discrete_groupoid,
                       identity_functor, restrict, validate_functor,
                       validate_groupoid, validate_nat)
from grpd.corpus import (CorpusConfig, corpus_groupoids, inflate,
                         random_datum)
from grpd.descent import check_cocycle, descend, glue
from grpd.homotopy import (are_morita_homotopy_equivalent,
                           is_essential_equivalence, skeletonize)

SEED = 20250810
PINNED = Path(__file__).resolve().parent / "data" / "acceptance_pass.txt"


@pytest.fixture(scope="module")
def corpus():
    members = corpus_groupoids(CorpusConfig(
        seed=SEED, count=110, max_objects=6, max_isotropy=6, max_arrows=40))
    # a few deterministic members stressing the orbit-count range
    for n in range(1, 7):
        members.append(discrete_groupoid(f"disc{n}",
                                         [f"e{i}" for i in range(n)]))
    for g in members:
        validate_groupoid(g)
    return members


@pytest.fixture(scope="module")
def skeletons(corpus):
    return {g.name: skeletonize(g) for g in corpus}


@contextmanager
def criterion(number, title):
    stats = {}
    yield stats
    detail = ", ".join(f"{k}={v}" for k, v in stats.items())
    line = f"ACCEPTANCE {number} PASS ({title}): {detail}"
    print(f"\n{line}")
    pinned = [p for p in PINNED.read_text(encoding="utf-8").splitlines()
              if p.startswith(f"ACCEPTANCE {number} ")]
    assert pinned == [line]


def test_criterion_1_transitive_iff_point_equivalent(corpus):
    with criterion(1, "transitivity equals point equivalence") as stats:
        transitive = witnesses = 0
        for g in corpus:
            point = restrict(g, g.objects[:1])
            res = are_morita_equivalent(g, point)
            assert (res is not None) == is_transitive(g), g.name
            if res is not None:
                transitive += 1
                b = validate_bibundle(res)
                assert b.is_equivalence, g.name
                assert len(point.objects) == 1
                witnesses += 1
        stats.update(groupoids=len(corpus), transitive=transitive,
                     validated_witnesses=witnesses, disagreements=0)
        assert len(corpus) >= 100


def oracle_cover_minimum(g):
    """Exhaustive cover search, independent of the production path: weak
    point candidates read straight off the orbit partition, families
    enumerated in order of size."""
    blocks = g.components
    candidates = []
    for r in range(1, len(blocks) + 1):
        for chosen in combinations(range(len(blocks)), r):
            objs = frozenset(x for i in chosen for x in blocks[i])
            if len({g.component_of[x][0] for x in objs}) == 1:
                candidates.append(objs)
    universe = frozenset(g.objects)
    if not universe:
        return 0
    for size in range(1, len(candidates) + 1):
        for family in combinations(candidates, size):
            if frozenset().union(*family) == universe:
                return size
    return None


def test_criterion_2_cgeo_counts_orbits(corpus, orbit_count):
    with criterion(2, "covering invariant equals orbit count") as stats:
        for g in corpus:
            value = cgeo(g)
            assert value == orbit_count(g), g.name
            assert value == oracle_cover_minimum(g), g.name
        stats.update(groupoids=len(corpus), disagreements=0)


def test_criterion_3_invariance_under_inflation(corpus):
    with criterion(3, "invariance under object inflation") as stats:
        rng = random.Random(SEED + 3)
        for g in corpus:
            copies = {x: rng.randint(1, 3) for x in g.objects}
            big, proj = inflate(g, copies)
            validate_functor(proj)
            assert cgeo(big) == cgeo(g), g.name
            span = are_morita_homotopy_equivalent(g, big)
            assert span is not None, g.name
            assert is_essential_equivalence(span.left_leg), g.name
            assert is_essential_equivalence(span.right_leg), g.name
        stats.update(groupoids=len(corpus), failures=0)


def test_criterion_4_equivalence_relation_laws(corpus, skeletons,
                                               isomorphic_skeletons):
    with criterion(4, "equivalence-relation laws") as stats:
        for g in corpus:
            span = are_morita_homotopy_equivalent(g, g)
            assert span is not None, g.name
        rng = random.Random(SEED + 4)
        pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(200)]
        # bias with every ordered pair inside each detected class, so the
        # positive side of the relation is exercised heavily
        classes: dict = {}
        for g in corpus:
            key = tuple(e.canonical for e in skeletons[g.name].entries)
            classes.setdefault(key, []).append(g)
        for members in classes.values():
            if len(members) >= 2:
                pairs.extend((a, b) for a in members[:5] for b in members[:5])
        equivalent = []
        for a, b in pairs:
            ab = are_morita_homotopy_equivalent(a, b)
            ba = are_morita_homotopy_equivalent(b, a)
            assert (ab is None) == (ba is None), (a.name, b.name)
            expected = isomorphic_skeletons(skeletons[a.name],
                                            skeletons[b.name])
            assert (ab is not None) == expected, (a.name, b.name)
            if ab is not None and a.name != b.name:
                equivalent.append((a, b))
        # transitivity on every intra-class triple (capped per class)
        triples = 0
        for members in classes.values():
            for a in members[:4]:
                for b in members[:4]:
                    for c in members[:4]:
                        assert are_morita_homotopy_equivalent(a, c) \
                            is not None
                        triples += 1
        # Morita equivalence implies Morita homotopy equivalence
        morita_pairs = 0
        for a, b in equivalent[:60] + pairs[:60]:
            w = are_morita_equivalent(a, b)
            if w is not None:
                morita_pairs += 1
                assert validate_bibundle(w).is_equivalence
                assert are_morita_homotopy_equivalent(a, b) is not None
        assert len(pairs) >= 200
        stats.update(reflexive=len(corpus), sampled_pairs=len(pairs),
                     equivalent_pairs=len(equivalent), triples=triples,
                     morita_pairs=morita_pairs, failures=0)


def test_criterion_5_tensor_bicategory_laws(corpus, random_functor):
    with criterion(5, "tensor unit/associativity/functoriality") as stats:
        rng = random.Random(SEED + 5)
        small = [g for g in corpus if len(g.arrows) <= 16]
        unit_checks = assoc_checks = functor_checks = 0
        bibundles = []
        for i in range(50):
            a, b = rng.choice(small), rng.choice(small)
            bibundles.append(functor_to_bibundle(random_functor(rng, a, b)))
        for z in bibundles:
            left = tensor(unit_bibundle(z.dom), z)
            right = tensor(z, unit_bibundle(z.cod))
            assert bibundles_isomorphic(left, z) is not None
            assert bibundles_isomorphic(right, z) is not None
            unit_checks += 1
        for i in range(50):
            a, b, c, d = (rng.choice(small) for _ in range(4))
            z1 = functor_to_bibundle(random_functor(rng, a, b))
            z2 = functor_to_bibundle(random_functor(rng, b, c))
            z3 = functor_to_bibundle(random_functor(rng, c, d))
            lhs = tensor(tensor(z1, z2), z3)
            rhs = tensor(z1, tensor(z2, z3))
            assert bibundles_isomorphic(lhs, rhs) is not None
            assoc_checks += 1
        for i in range(50):
            a, b, c = (rng.choice(small) for _ in range(3))
            f = random_functor(rng, a, b)
            g = random_functor(rng, b, c)
            lhs = functor_to_bibundle(compose_functors(g, f))
            rhs = tensor(functor_to_bibundle(f), functor_to_bibundle(g))
            assert bibundles_isomorphic(lhs, rhs) is not None
            functor_checks += 1
        stats.update(unit_laws=unit_checks, associativity=assoc_checks,
                     functoriality=functor_checks, failures=0)


def test_criterion_6_deformation_monotonicity(corpus):
    with criterion(6, "deformation monotonicity and preorder") as stats:
        checked = found = 0
        for g in corpus:
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
                    checked += 1
                    if d is not None:
                        found += 1
                        validate_functor(d.transport)
                        validate_nat(d.homotopy)
                        assert set(d.transport.obj_map.values()) <= \
                            set(k.objects)
                        assert relative_cgeo(h) <= relative_cgeo(k)
            for h in subsets:
                assert rel[(h.objects, h.objects)]
                for k in subsets:
                    for m in subsets:
                        if rel[(h.objects, k.objects)] and \
                                rel[(k.objects, m.objects)]:
                            assert rel[(h.objects, m.objects)]
        stats.update(pairs_checked=checked, deformations=found, violations=0)


def canonical_surjections(n, k):
    """Onto maps range(n) -> range(k) whose values appear in first-use
    order (restricted growth).  Composing with every relabelling of the
    codomain recovers each surjection exactly once."""
    f = [0] * n

    def rec(i, used):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                yield tuple(f)
            return
        for v in range(min(used + 1, k)):
            f[i] = v
            yield from rec(i + 1, used + (1 if v == used else 0))

    yield from rec(0, 0)


def test_criterion_7_effective_descent_round_trip(factor_through):
    with criterion(7, "effective descent round trip") as stats:
        rng = random.Random(SEED + 7)
        for i in range(100):
            bundle, cover, datum = random_datum(rng, f"a{i}", base_size=8,
                                                max_fibre=5)
            assert check_cocycle(datum).ok
            glued = glue(datum)
            assert set(glued.bundle.base) == set(bundle.base)
            # the same fibre size over every base point
            assert (Counter(glued.bundle.proj[a] for a in glued.bundle.total)
                    == Counter(bundle.proj[a] for a in bundle.total))
            redescended = descend(glued.bundle, cover)
            for p in cover.pieces:
                fib = datum.fibres[p.name]
                local = glued.piece_maps[p.name]
                theta = {a: f"{fib.proj[a]}.{local[(fib.proj[a], a)]}"
                         for a in fib.total}
                assert sorted(theta.values()) == \
                    sorted(redescended.fibres[p.name].total)
                for q in cover.pieces:
                    src = datum.transitions[(p.name, q.name)]
                    dst = redescended.transitions[(p.name, q.name)]
                    theta_q = {
                        a: f"{datum.fibres[q.name].proj[a]}."
                           f"{glued.piece_maps[q.name][(datum.fibres[q.name].proj[a], a)]}"
                        for a in datum.fibres[q.name].total}
                    for (u, v), m in src.items():
                        for a2, b2 in m.items():
                            assert dst[(u, v)][theta[a2]] == theta_q[b2]
        # each surjection is the coequalizer of its kernel pair: a map
        # constant on its fibres factors through it, uniquely, and the
        # identity of a domain with a fibre of two points does not
        surjections = refused = 0
        import itertools
        for n in range(1, 9):
            domain = [f"u{i}" for i in range(n)]
            identity = {u: u for u in domain}
            for k in range(1, n + 1):
                base = [f"x{j}" for j in range(k)]
                parity = {x: j % 2 for j, x in enumerate(base)}
                for canon in canonical_surjections(n, k):
                    for relab in itertools.permutations(range(k)):
                        mapping = {domain[i]: base[relab[canon[i]]]
                                   for i in range(n)}
                        q = {u: parity[x] for u, x in mapping.items()}
                        assert factor_through(mapping, q, base) == \
                            (parity, None)
                        if n > k:
                            h, (u, v) = factor_through(mapping, identity,
                                                       base)
                            assert h is None and u < v and \
                                mapping[u] == mapping[v]
                            refused += 1
                        surjections += 1
        # Fubini numbers: every surjection with domain size up to 8; all
        # but the 46,233 bijections are refused the identity
        assert surjections == sum(
            (1, 3, 13, 75, 541, 4683, 47293, 545835))
        assert refused == surjections - sum(
            (1, 2, 6, 24, 120, 720, 5040, 40320))
        stats.update(round_trips=100, surjections=surjections,
                     refused=refused, failures=0)


def test_criterion_8_cocylinder_diad_law(corpus):
    with criterion(8, "cocylinder retraction identities") as stats:
        for g in corpus:
            cyl = cocylinder(g)
            ident = identity_functor(g)
            for law in (compose_functors(cyl.e0, cyl.t),
                        compose_functors(cyl.e1, cyl.t)):
                assert (law.obj_map, law.arr_map) == (
                    ident.obj_map, ident.arr_map), g.name
        stats.update(groupoids=len(corpus), failures=0)


def test_criterion_9_locus_collapse(corpus, skeletons):
    with criterion(9, "absolute point collapse of locus keys") as stats:
        for name, table in groups.small_groups(12):
            assert locus_key(point_groupoid(name, table)) == "POINT", name
        classes = {}
        for g in corpus:
            key = tuple(e.canonical for e in skeletons[g.name].entries)
            classes.setdefault(key, set()).add(locus_key(g))
        for key, keys in classes.items():
            assert len(keys) == 1, key
        stats.update(point_groupoids=len(groups.small_groups(12)),
                     corpus_classes=len(classes), failures=0)


def orbit_map(z, orbits):
    """The map that a bibundle Z: H -| G induces on orbits, read off the
    carrier and the two anchors: the orbit of x goes to the orbit of q(w),
    for any point w over x.  Fails unless the points over each orbit of H
    meet exactly one orbit of G."""
    of_h, of_g = orbits(z.dom), orbits(z.cod)
    met = {o: set() for o in of_h.values()}
    for w in z.carrier:
        met[of_h[z.left.actor[w]]].add(of_g[z.right.actor[w]])
    assert all(len(targets) == 1 for targets in met.values()), (z.name, met)
    return {o: targets.pop() for o, targets in met.items()}


def conjugated(f, rng):
    """A functor homotopic to f: each f(x) moved along a random arrow c_x
    out of it, and each f(a): x -> y to c_y . f(a) . c_x^-1."""
    b = f.cod
    move = {x: rng.choice(b.arrows_from[y]) for x, y in f.obj_map.items()}
    dom = f.dom
    arr_map = {a: conjugate(b, move[dom.tgt[a]], f.arr_map[a],
                            move[dom.src[a]]) for a in dom.arrows}
    return validate_functor(StrictArrow(
        name=f"{f.name}~", dom=dom, cod=b,
        obj_map={x: b.tgt[c] for x, c in move.items()}, arr_map=arr_map))


def test_criterion_10_cgeo_functorial_on_the_localization(corpus, skeletons,
                                                         orbits,
                                                         random_functor):
    """Right-principal bibundles map orbits to orbits, and this map is a
    functor on the localization: units go to identities, tensor products
    to composites, a functor to its own map on orbits, Morita witnesses to
    bijections, and homotopic functors to one map.  ``orbit_map`` reads
    no tensor isomorphism search, so it checks tensor independently."""
    with criterion(10, "geometric complexity functorial on the "
                       "localization") as stats:
        rng = random.Random(SEED + 10)

        def induced(f):
            of_a, of_b = orbits(f.dom), orbits(f.cod)
            return {of_a[x]: of_b[y] for x, y in f.obj_map.items()}

        for g in corpus:
            assert orbit_map(unit_bibundle(g), orbits) == \
                {o: o for o in orbits(g).values()}, g.name
        small = [g for g in corpus if len(g.arrows) <= 16]
        composites = 0
        for _ in range(100):
            a, b, c = (rng.choice(small) for _ in range(3))
            f, g = random_functor(rng, a, b), random_functor(rng, b, c)
            z1, z2 = functor_to_bibundle(f), functor_to_bibundle(g)
            m1, m2 = orbit_map(z1, orbits), orbit_map(z2, orbits)
            assert m1 == induced(f) and m2 == induced(g), (f.name, g.name)
            assert orbit_map(tensor(z1, z2), orbits) == \
                {o: m2[m1[o]] for o in m1}, (f.name, g.name)
            composites += 1
        classes: dict = {}
        for g in corpus:
            key = tuple(e.canonical for e in skeletons[g.name].entries)
            classes.setdefault(key, []).append(g)
        witnesses = 0
        for members in classes.values():
            for a, b in combinations(members[:4], 2):
                w = are_morita_equivalent(a, b)
                if w is None:
                    continue
                m = orbit_map(w, orbits)
                assert sorted(m.values()) == sorted(set(orbits(b).values()))
                assert cgeo(a) == cgeo(b) == len(m), (a.name, b.name)
                witnesses += 1
        homotopic = 0
        for _ in range(60):
            a, b = rng.choice(small), rng.choice(small)
            f = random_functor(rng, a, b)
            g = conjugated(f, rng)
            assert are_homotopic(f, g) is not None, f.name
            assert orbit_map(functor_to_bibundle(g), orbits) == \
                orbit_map(functor_to_bibundle(f), orbits) == induced(f)
            homotopic += 1
        stats.update(units=len(corpus), composites=composites,
                     morita_witnesses=witnesses, homotopic_pairs=homotopic,
                     failures=0)
