import gc
import hashlib
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import groups
from grpd.corpus import transitive_groupoid
from grpd.homotopy import skeletonize


CATALOG = groups.small_groups(12)
# products of order 24, beyond the catalog
Z2, Z3 = groups.cyclic(2), groups.cyclic(3)
ORDER_24 = {
    "A4xZ2": groups.direct_product(groups.alternating4(), Z2),
    "Dic3xZ2": groups.direct_product(groups.dicyclic(3), Z2),
    "Q8xZ3": groups.direct_product(groups.dicyclic(2), Z3),
    "Z2^3xZ3": groups.direct_product(
        Z2, groups.direct_product(Z2, groups.direct_product(Z2, Z3))),
    "D6xZ2": groups.direct_product(groups.dihedral(6), Z2),
}


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
    assert sorted(groups._element_orders(q8, groups.identity_of(q8))) == \
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
        gens, order1 = next(groups._generating_sequences(
            t1, e1, groups._inner_automorphisms(t1)))
        assert order1 == groups._bfs_order(t1, e1, gens)
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


def least_isomorphism(t1, t2, homs):
    return min((phi for phi in homs(t1, t2) if len(set(phi)) == len(t1)),
               default=None)


@pytest.mark.parametrize(
    "name", [n for n, t in CATALOG if len(t) <= 6] + sorted(ORDER_24))
def test_find_isomorphism_is_the_least_isomorphism(name, monkeypatch):
    """The morita witness depends on which isomorphism is returned.  Up to
    order 6 every map is tried; at order 24 the hom search, checked against
    every map above, lists the candidates.  The witness is read off tied
    orders whose sequence follows the search, so it is checked again with
    every tie sequence reversed: the order of the ties must not matter."""
    tables = dict(CATALOG, **ORDER_24)
    t = tables[name]
    rng = random.Random(name)
    same_order = [u for u in tables.values() if len(u) == len(t)]
    homs = oracle_homs if len(t) <= 6 else groups.enumerate_homs
    cases = []
    for _ in range(3):
        perm = list(range(len(t)))
        rng.shuffle(perm)
        t2 = relabel(t, perm)
        cases += [(u, t2, least_isomorphism(u, t2, homs))
                  for u in same_order + [t2]]
    for u, t2, expected in cases:
        assert groups.find_isomorphism(u, t2) == expected
    canonical = groups._canonical

    def reversed_ties(u):
        form, ties = canonical(u)
        return form, ties[::-1]

    monkeypatch.setattr(groups, "_canonical", reversed_ties)
    for u, t2, expected in cases:
        assert groups.find_isomorphism(u, t2) == expected


def test_find_isomorphism_runs_no_hom_search(monkeypatch):
    """The witness is read off the canonical search alone."""
    rng = random.Random(7)
    cases = []
    for name, t in [*groups.small_groups(24), *ORDER_24.items()]:
        perm = list(range(len(t)))
        rng.shuffle(perm)
        t2 = relabel(t, perm)
        cases.append((name, t, t2,
                      least_isomorphism(t, t2, groups.enumerate_homs)))

    def no_search(*args, **kwargs):
        raise AssertionError("hom search on the isomorphism path")

    monkeypatch.setattr(groups, "_homs", no_search)
    for name, t, t2, expected in cases:
        assert expected is not None
        assert groups.find_isomorphism(t, t2) == expected, name


def test_canonical_cache_is_bounded():
    """Every tied order of every table met is kept, so the cache must not
    grow with the number of distinct tables a process meets."""
    bound = groups._canonical.cache_parameters()["maxsize"]
    assert bound is not None
    t = groups.cyclic(6)
    tables = {relabel(t, perm) for perm in permutations(range(6))}
    assert len(tables) > bound
    for u in tables:
        assert groups.canonical_form(u) == groups.canonical_form(t)
    assert groups._canonical.cache_info().currsize <= bound


# BFS orders the canonical search builds for a table of the group, the same
# for every labelling: the tuple search visits one prefix per orbit of
# irredundant prefixes, and the orbits do not depend on the labels.  A
# search without the orbit pruning builds 168 and 1245.
BFS_ORDERS_BUILT = {"A4xZ2": 32, "Dic3xZ2": 313}


@pytest.mark.parametrize("name", sorted(BFS_ORDERS_BUILT))
def test_canonical_search_work_is_pinned(name, monkeypatch):
    """A lost pruning shows as more BFS orders, on any machine."""
    built = 0
    bfs_order = groups._bfs_order

    def counting(*args):
        nonlocal built
        built += 1
        return bfs_order(*args)

    monkeypatch.setattr(groups, "_bfs_order", counting)
    t = ORDER_24[name]
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(len(t)))
        rng.shuffle(perm)
        built = 0
        groups._canonical.__wrapped__(relabel(t, perm))
        assert built == BFS_ORDERS_BUILT[name]


def test_a_cold_skeleton_leaves_nothing_for_the_collector():
    # the tuple search is a plain recursive generator, not a closure that
    # refers to itself, so a cold canonical search frees its frames as it
    # goes and leaves no cycle behind
    g = transitive_groupoid("t", ["a", "b"], dict(CATALOG)["S3"])
    groups._canonical.cache_clear()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        skeletonize(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", [n for n, _ in CATALOG] + sorted(ORDER_24))
def test_tied_orders_are_one_per_automorphism(name):
    t = dict(CATALOG, **ORDER_24)[name]
    automorphisms = [phi for phi in groups.enumerate_homs(t, t)
                     if len(set(phi)) == len(t)]
    assert len(groups._canonical(t)[1]) == len(automorphisms)


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
    """Least BFS-relabelled flat table over all the given tuples, and the
    set of BFS orders that attain it."""
    n = len(t)
    e = groups.identity_of(t)
    best, ties = None, set()
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
            best, ties = flat, set()
        if flat == best:
            ties.add(tuple(order))
    return best, ties


def check_against_oracle(t):
    sequences = oracle_generating_sequences(t)
    e = groups.identity_of(t)
    gens, order = next(groups._generating_sequences(
        t, e, groups._inner_automorphisms(t)))
    assert gens == sequences[0]
    assert order == groups._bfs_order(t, e, gens)
    form, ties = groups._canonical(t)
    assert len(set(ties)) == len(ties)
    assert (form, set(ties)) == oracle_canonical_form(t, sequences)


@pytest.mark.parametrize("name, t", CATALOG, ids=[n for n, _ in CATALOG])
@settings(deadline=None, max_examples=20)
@given(rnd=st.randoms(use_true_random=False))
def test_canonical_form_matches_unpruned_oracle(name, t, rnd):
    perm = list(range(len(t)))
    rnd.shuffle(perm)
    check_against_oracle(relabel(t, perm))



@pytest.mark.parametrize("name", sorted(ORDER_24))
def test_canonical_form_matches_unpruned_oracle_at_order_24(name):
    t = ORDER_24[name]
    perm = list(range(len(t)))
    random.Random(name).shuffle(perm)
    check_against_oracle(relabel(t, perm))


# sha256 of each table written as rows of comma-separated products joined
# by ";".  Corpus arrow ids x>y:k index these tables, so relabelling one
# would change generated groupoids without failing any other check.
TABLE_DIGESTS = {
    "1": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "Z2": "76ad032a0dcb94eeebc137cc2f444049cdc8a5fefd36a80408beb008f14259fd",
    "Z3": "727e84e44e568f8ef5bb50e4b5206dbe63c69ad8bbceb200d5d8c8e70153ad0d",
    "Z4": "c9e9175baa7219b5d8c9cfa4d5067d18d6dd8307949c224c1de2e4096c207812",
    "Z2xZ2": "15e55b02032971d0db913f75c8b83a1a1545f027b24830d66a1df2ad5e2f1097",
    "Z5": "8a9b85ea41fd37cbb6de3524153b5f26cb43e9db15593e6774439b39caef8553",
    "Z6": "b0bfa77008822f24c88152047417d74096d0f54c6cf46fc4785e84e717ef2804",
    "S3": "5574279abcacc3f801c12527c7c86a8ea7d3fafa656a2a2d27938327353dae1b",
    "Z7": "3a08cc25a7a53f884bd6a55880dcc56ab6a38601fd95c454b7a0a40a0ba11e64",
    "Z8": "9576774ef760e0051138f5c81356af9fa1d6fc3f2a328a9cc3fc4b265e7af529",
    "Z4xZ2": "dc5c84d8ff9b246b4960b1c6dbe8adbd5ef285e3685bf0653c1b8560bf37c0d6",
    "Z2xZ2xZ2":
        "945d04c793ec3697d8e81d7d406c5db635af666d129ef169364c16914292eb0a",
    "D4": "37cf3bf6856f5dbb6e9b2b436a82275f8f8d5ca1c6239fc355d3892a709f938b",
    "Q8": "23f2352a5e2f62c6eea6d0e7205f53f6ad35fc0f017a08cca59ca91612d10676",
    "Z9": "cf7443150fe88cb5563aac0eb2d1f9532bd9ffa799d73481c760cb9664157906",
    "Z3xZ3": "8a8208fcf185d52ad2ebdf096378604c428d36f3c823a0539c7d4dacb54b170c",
    "Z10": "6caea42b4afd5a9e7932689a69565340c62ebcb54f7dcedfdb7d2b891ee2f39f",
    "D5": "c5ba76471ca4054c005c968da94a00446b02fb1c75502e9dd35c4c7de2378a89",
    "Z11": "c19ccd20c6d41c633216ceaa728b8507db08bfd86818213a8ffef411a624ddb9",
    "Z12": "c6a679141e7ff660ec148e3a9dc0af1a68fc3aa2e41c9f9108ecbad885c7e799",
    "Z6xZ2": "17450c8a8cdd9a018c78a07327ac4a7a698eda13831a3b061386b10d67b4c37e",
    "D6": "363f2a648f928276f68e40dc1167d4a1816479701d9ad5a3ec10900c3a276f86",
    "A4": "2f60b78bea903c247c0e60392e2d10eeb00f5d65b68a384a694ae70668691909",
    "Dic3": "c14eb1c0f459068a5d3954f70b9d785c269040f2aea1ef06d44933111ca12f32",
    "A4xZ2": "8e48507ef828d67e0003c23f069ed8120bba8ccc1d47bbf908230d876669bf0f",
    "D6xZ2": "20a6d6582ef083de8c6e7a023c144c66f692d8185ce251c36b9ef83a8157c3ca",
    "Dic3xZ2":
        "6eba2553125496bdd9ef3990766601b3ca229931645fefc0cc3714cdffcaede4",
    "Q8xZ3": "c4352d0a9f1fc74534e20252dd13125789b2c018dcfa4f5464550043257b79df",
    "Z2^3xZ3":
        "362cff20ce71b9e45a1c150bad7a42bf12da67cd70abf6a92c98213b5581fc9e",
}


def test_builder_tables_are_pinned():
    tables = dict(groups.small_groups(24), **ORDER_24)
    assert {name: hashlib.sha256(";".join(",".join(map(str, row))
                                          for row in t).encode()).hexdigest()
            for name, t in tables.items()} == TABLE_DIGESTS
