import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import groups


CATALOG = groups.small_groups(12)


def relabel(table, perm):
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(n))
                 for a in range(n))


def test_catalog_counts_by_order():
    counts = {}
    for _, t in CATALOG:
        counts[len(t)] = counts.get(len(t), 0) + 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                      10: 2, 11: 1, 12: 5}


def test_catalog_tables_are_groups():
    for _, t in CATALOG:
        groups.validate_table(t)


def test_catalog_pairwise_nonisomorphic_and_canonical_agrees():
    for i, (n1, t1) in enumerate(CATALOG):
        for n2, t2 in CATALOG[i + 1:]:
            if len(t1) != len(t2):
                continue
            iso = groups.is_isomorphic(t1, t2)
            assert iso == (groups.canonical_form(t1)
                           == groups.canonical_form(t2)), (n1, n2)
            assert not iso, (n1, n2)


def test_quaternion_order_profile():
    q8 = groups.dicyclic(2)
    assert sorted(groups.element_order(q8, a) for a in range(8)) == \
        [1, 2, 4, 4, 4, 4, 4, 4]


def test_validate_rejects_non_groups():
    with pytest.raises(groups.InvalidGroupTable):
        groups.validate_table(((0, 1), (1, 1)))  # 1 has no inverse
    with pytest.raises(groups.InvalidGroupTable):
        groups.validate_table(((1, 0), (0, 0)))  # no identity row/col pair
    with pytest.raises(groups.InvalidGroupTable):
        groups.validate_table(())


@settings(deadline=None, max_examples=60)
@given(st.integers(0, len(CATALOG) - 1), st.randoms(use_true_random=False))
def test_canonical_form_invariant_under_relabelling(idx, rnd):
    name, t = CATALOG[idx]
    perm = list(range(len(t)))
    rnd.shuffle(perm)
    t2 = relabel(t, perm)
    groups.validate_table(t2)
    assert groups.canonical_form(t2) == groups.canonical_form(t), name
    assert groups.is_isomorphic(t, t2), name


def oracle_homs(t1, t2):
    """All homomorphisms by raw enumeration of every map."""
    n1, n2 = len(t1), len(t2)
    out = []
    for phi in product(range(n2), repeat=n1):
        if all(phi[t1[a][b]] == t2[phi[a]][phi[b]]
               for a in range(n1) for b in range(n1)):
            out.append(phi)
    return sorted(out)


@pytest.mark.parametrize("t1, t2, expected", [
    (groups.cyclic(2), groups.cyclic(2), 2),
    (groups.cyclic(2), groups.cyclic(3), 1),
    (groups.cyclic(6), groups.dihedral(3), 6),
    (groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
     groups.cyclic(2), 4),
])
def test_enumerate_homs_against_oracle(t1, t2, expected):
    mine = groups.enumerate_homs(t1, t2)
    assert list(mine) == oracle_homs(t1, t2)
    assert len(mine) == expected


def is_hom(t1, t2, phi) -> bool:
    """Every product of t1 checked: the oracle the hom search once ran on
    each map it had already extended by products."""
    n1 = len(t1)
    return all(phi[t1[a][b]] == t2[phi[a]][phi[b]]
               for a in range(n1) for b in range(n1))


def test_every_extension_by_products_is_a_homomorphism():
    extended = 0
    for (_, t1), (_, t2) in product(CATALOG, repeat=2):
        if len(t1) * len(t2) > 100:
            continue
        e1, e2 = groups.identity_of(t1), groups.identity_of(t2)
        gens = next(groups._generating_sequences(t1, e1))
        order1 = groups._bfs_order(t1, e1, gens)
        for images in product(range(len(t2)), repeat=len(gens)):
            phi = groups._extend_by_products(t1, t2, e1, e2, gens, images,
                                             order1)
            if phi is not None:
                assert len(phi) == len(t1) and is_hom(t1, t2, phi)
                extended += 1
    assert extended > 500


def test_find_isomorphism_produces_an_isomorphism():
    rng = random.Random(11)
    for name, t in CATALOG:
        perm = list(range(len(t)))
        rng.shuffle(perm)
        t2 = relabel(t, perm)
        phi = groups.find_isomorphism(t, t2)
        assert phi is not None, name
        n = len(t)
        assert sorted(phi) == list(range(n))
        assert all(phi[t[a][b]] == t2[phi[a]][phi[b]]
                   for a in range(n) for b in range(n))
    assert groups.find_isomorphism(groups.cyclic(4),
                                   groups.direct_product(
                                       groups.cyclic(2),
                                       groups.cyclic(2))) is None


# ---------------------------------------------------------------------------
# canonical_form against the unpruned search it replaced


def oracle_generating_sequences(t):
    """Every irredundant ordered generating tuple, depth first."""
    n = len(t)
    e = groups.identity_of(t)

    def span(gens):
        seen, frontier = {e}, [e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = t[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    out = []

    def rec(gens):
        covered = span(gens)
        if len(covered) == n:
            out.append(tuple(gens))
            return
        for g in range(n):
            if g not in covered:
                rec(gens + [g])

    rec([])
    return out


def oracle_canonical_form(t, sequences):
    """Least BFS-relabelled flat table over all the given tuples."""
    n = len(t)
    e = groups.identity_of(t)
    best = None
    for gens in sequences:
        order, seen = [e], {e}
        for x in order:
            for g in gens:
                y = t[x][g]
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        pos = [0] * n
        for i, x in enumerate(order):
            pos[x] = i
        flat = tuple([pos[t[a][b]] for a in order for b in order])
        if best is None or flat < best:
            best = flat
    return best


def check_against_oracle(t):
    sequences = oracle_generating_sequences(t)
    e = groups.identity_of(t)
    assert next(groups._generating_sequences(t, e)) == sequences[0]
    assert groups.canonical_form(t) == oracle_canonical_form(t, sequences)


@pytest.mark.parametrize("name, t", CATALOG, ids=[n for n, _ in CATALOG])
@settings(deadline=None, max_examples=20)
@given(rnd=st.randoms(use_true_random=False))
def test_canonical_form_matches_unpruned_oracle(name, t, rnd):
    perm = list(range(len(t)))
    rnd.shuffle(perm)
    check_against_oracle(relabel(t, perm))


Z2, Z3 = groups.cyclic(2), groups.cyclic(3)
ORDER_24 = {
    "A4xZ2": groups.direct_product(groups.alternating4(), Z2),
    "Dic3xZ2": groups.direct_product(groups.dicyclic(3), Z2),
    "Q8xZ3": groups.direct_product(groups.dicyclic(2), Z3),
    "Z2^3xZ3": groups.direct_product(
        Z2, groups.direct_product(Z2, groups.direct_product(Z2, Z3))),
    "D6xZ2": groups.direct_product(groups.dihedral(6), Z2),
}


@pytest.mark.parametrize("name", sorted(ORDER_24))
def test_canonical_form_matches_unpruned_oracle_at_order_24(name):
    t = ORDER_24[name]
    perm = list(range(len(t)))
    random.Random(name).shuffle(perm)
    check_against_oracle(relabel(t, perm))
