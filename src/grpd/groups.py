"""Finite group multiplication tables: validation, isomorphism, canonical forms.

Tables are square tuples of tuples over indices 0..n-1 with ``t[a][b]`` the
product a*b.  The identity may sit at any index.  Everything here is exact,
sized for the small isotropy groups this package meets (the hard cap is
enforced by callers, default 24).  One builder, ``_table``, tabulates a
list of elements under a product, and ``inverses`` gives each table's
inverses.  One tuple search, ``_generating_sequences``, lists irredundant
generating tuples, one per orbit of the inner automorphisms (McKay's orbit
representatives): each generator is the least of its orbit under the
conjugations that fix the earlier ones.  One hom search, ``_homs``, lists
the homomorphisms from the first tuple.  The canonical form searches only
the tuples that can give the least relabelled table (the shortest ones
that start with an involution).  It drops a candidate whose row 1 is above
the best, and calls it a tie when its Cayley columns (the columns of the
generators) equal the best's, since the map between the two orders is
then an isomorphism; otherwise the rows decide.  Automorphisms carry BFS
orders to BFS orders with the same relabelled table, so each tied
representative, moved by every conjugation, gives back its whole orbit of
tied orders.  Canonical forms decide isomorphism at run time and certify
it: the orders that attain the form, one per automorphism, give the least
isomorphism.  The brute-force ``is_isomorphic`` is the tests' oracle for
them; the proofs are comments in ``_canonical``."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, count, permutations, product

from .core import GroupoidError


class InvalidGroupTable(GroupoidError):
    pass


def validate_table(t) -> int:
    """Check the group axioms; returns the identity index."""
    n = len(t)
    if n == 0:
        raise InvalidGroupTable("empty table")
    for row in t:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise InvalidGroupTable("table is not square over 0..n-1",
                                    witness=row)
    e = identity_of(t)
    for a in range(n):
        if not any(t[a][b] == e and t[b][a] == e for b in range(n)):
            raise InvalidGroupTable(f"element {a} has no inverse", witness=a)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise InvalidGroupTable(
                        f"associativity fails on ({a}, {b}, {c})",
                        witness=(a, b, c))
    return e


def identity_of(t) -> int:
    n = len(t)
    for i in range(n):
        if all(t[i][j] == j and t[j][i] == j for j in range(n)):
            return i
    raise InvalidGroupTable("no two-sided identity")


def inverses(t) -> tuple[int, ...]:
    """The inverse table: ``inverses(t)[a]`` is the inverse of a."""
    e = identity_of(t)
    inv = []
    for a, row in enumerate(t):
        if e not in row:
            raise InvalidGroupTable(f"element {a} has no inverse", witness=a)
        inv.append(row.index(e))
    return tuple(inv)


def _inner_automorphisms(t) -> list[tuple[int, ...]]:
    """The conjugations g -> h g h^-1 other than the identity, each once
    (one h per coset of the centre), as image tuples indexed by g."""
    rows = dict.fromkeys(tuple([t[hg][hi] for hg in row])
                         for row, hi in zip(t, inverses(t)))
    rows.pop(tuple(range(len(t))))
    return list(rows)


def _element_orders(t, e) -> list[int]:
    out = []
    for a in range(len(t)):
        x, k = a, 1
        while x != e:
            x = t[x][a]
            k += 1
        out.append(k)
    return out


def _bfs_order(t, e, gens) -> list[int]:
    """Deterministic enumeration of the whole group from a generating tuple."""
    order = [e]
    seen = [False] * len(t)
    seen[e] = True
    for x in order:
        row = t[x]
        for g in gens:
            y = row[g]
            if not seen[y]:
                seen[y] = True
                order.append(y)
    return order


def _generating_sequences(t, e, inner, firsts=None, max_len=None):
    """Irredundant ordered generating tuples (each next generator outside
    the span of the earlier ones), one per orbit of the inner automorphisms
    ``inner`` (see _inner_automorphisms and _canonical), yielded lazily in
    depth-first order over 0..n-1, each with its BFS order (see
    _bfs_order), which the search builds anyway to test the span.  A tuple
    is kept when each g_i is the least element of its orbit under the
    conjugations that fix g_0, ..., g_{i-1}.  ``firsts`` restricts the
    first generator; ``max_len`` skips tuples longer than that."""
    return _extensions(t, e, [], [e], inner,
                       range(len(t)) if firsts is None else firsts, max_len)


def _extensions(t, e, gens, order, fixing, nexts, max_len):
    """_generating_sequences' tuples extending ``gens`` (BFS order
    ``order``, fixed by ``fixing``) by one of ``nexts``, then by any
    elements; module-level, so that no closure cycle is left behind."""
    if len(order) == len(t):
        yield tuple(gens), order
        return
    if len(gens) == max_len:
        return
    span = set(order)
    for g in nexts:
        if g not in span and all(c[g] >= g for c in fixing):
            gens.append(g)
            yield from _extensions(t, e, gens, _bfs_order(t, e, gens),
                                   [c for c in fixing if c[g] == g],
                                   range(len(t)), max_len)
            gens.pop()


def canonical_form(t) -> tuple[int, ...]:
    """Isomorphism-invariant flattening: least BFS-relabelled table over all
    irredundant generating tuples.  Equal canonical forms iff isomorphic."""
    return _canonical(t)[0]


# A classify run meets about 130 distinct tables, most of them many times,
# and an order-24 entry holds up to 336 tied orders (about 84 KB), so the
# bound keeps every repeat of such a run and caps the cache near 21 MB.
@lru_cache(maxsize=256)
def _canonical(t):
    """The canonical form and every BFS order that attains it (the ties)."""
    n = len(t)
    e = identity_of(t)
    # Only tuples that can reach the minimum are searched.  For a tuple
    # (g0, ..., g_{k-1}) the BFS order starts e, g0, ..., g_{k-1}: each g_i
    # lies outside <g0, ..., g_{i-1}>, so all are new.  Hence every tuple
    # gives the same identity row and flat[n] = pos(g0 * e) = 1.  Next,
    # flat[n+1] = pos(g0^2): 0 when g0 is an involution, otherwise g0^2 is
    # new (it lies in <g0> but is neither e nor g0) and is the first
    # product found after the generators, at k+1.  For an involution g0 and
    # k >= 2, flat[n+2] = pos(g0 * g1) = k+1 by the same reasoning.  Every
    # element other than e starts some irredundant tuple, so the minimum
    # lies among the tuples that start with an involution (any element when
    # the order is odd), and among those, as k+1 grows with k, the shortest.
    # Deepening the length bound finds them.
    #
    # One tuple per inner-automorphism orbit is searched (McKay's orbit
    # representatives).  An automorphism phi carries a tuple T to phi(T),
    # which is irredundant, generating, as long as T and starts with an
    # involution exactly when T does, and it carries T's BFS order o to
    # phi(o), the BFS order of phi(T), since phi(x g) = phi(x) phi(g).  The
    # table relabelled along phi(o) is the one relabelled along o.  So the
    # searched tuples fall into orbits of the inner automorphisms, all of
    # an orbit give one table, and one tuple per orbit finds the minimum.
    # The search keeps the tuple whose every g_i is least in its orbit
    # under the conjugations that fix g0, ..., g_{i-1}, and each orbit
    # holds exactly one such tuple.  One exists: conjugate g0 to the least
    # of its class, then g1 to the least of its orbit under the centralizer
    # of g0, which fixes g0, and so on.  Only one does: if T and h T h^-1
    # both qualify, g0 and h g0 h^-1 are both the least of one class, so
    # they are equal and h centralizes g0; then g1 = h g1 h^-1 likewise,
    # and so on, so h T h^-1 = T.  A tied representative stands for its
    # orbit, whose orders are its images under the inner automorphisms,
    # each once, since a conjugation that fixes a generating tuple fixes
    # the group.  So the expanded ties are every order that attains the
    # form, one per automorphism of t.
    #
    # Ties are found on the Cayley columns.  Row 0 is 0..n-1 for every
    # order and is never built.  Let a candidate o, with generators
    # g_j = o[1+j], have the best order b's relabelled columns 1..k, that
    # is pos_o[o[i] g_j] = pos_b[b[i] b[1+j]] for all i and j.  Then the
    # bijection phi: b[i] -> o[i] has phi(x b[1+j]) = phi(x) g_j for every
    # x and generator, so by the argument of _extend_by_products it is an
    # isomorphism, which carries b to o: o relabels t to the best table.
    # A candidate with the best row 1 and other columns differs in a later
    # row, and the rows decide as before.
    involutions = [g for g in range(n) if g != e and t[g][g] == e]
    inner = _inner_automorphisms(t)
    for k in count():
        seqs = _generating_sequences(t, e, inner, involutions or None, k)
        first = next(seqs, None)
        if first is not None:
            break
    # best[i] is row i+1 of the least table so far, cols[i] its columns
    # 1..k, the Cayley columns
    best = None
    for gens, order in chain((first,), seqs):
        pos = [0] * n
        for i, x in enumerate(order):
            pos[x] = i
        rows = ([pos[y] for y in map(t[a].__getitem__, order)]
                for a in order[1:])
        if best is None:
            best, ties = list(rows), [order]
            cols = [row[1:k + 1] for row in best]
            continue
        i, row = 0, next(rows)
        if row == best[0]:
            if all(c == [pos[y] for y in map(t[a].__getitem__, gens)]
                   for a, c in zip(order[1:], cols)):
                ties.append(order)
                continue
            # compare row by row; build the rest only for a new best
            for i, row in enumerate(rows, 1):
                if row != best[i]:
                    break
        if row < best[i]:
            best[i:] = [row, *rows]
            ties = [order]
            cols = [row[1:k + 1] for row in best]
    return (tuple(chain(range(n), *best)),
            tuple(tuple(map(c.__getitem__, o))
                  for o in ties for c in (range(n), *inner)))


def unflatten(flat: tuple[int, ...]):
    n = round(len(flat) ** 0.5)
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def _extend_by_products(t1, t2, e1, e2, gens, images, order1):
    """The map fixed by sending gens to images and extending along the BFS
    order of t1 as a homomorphism would; None when two products disagree.

    A map it returns is a homomorphism.  It is defined on all of t1, since
    gens generate t1, and phi(x g) = phi(x) phi(g) holds for every x and
    every generator g, where phi(g) = phi(e1 g) = image of g.  By induction
    on the word length of b = b' g, using associativity in t1 and t2,
      phi(a b) = phi(a b') phi(g) = phi(a) phi(b') phi(g) = phi(a) phi(b).
    So no product needs checking again."""
    phi = {e1: e2}
    for x in order1:
        px = phi[x]
        for g, img in zip(gens, images):
            y = t1[x][g]
            fy = t2[px][img]
            if y in phi:
                if phi[y] != fy:
                    return None
            else:
                phi[y] = fy
    return phi


def _homs(t1, t2):
    """Homomorphisms t1 -> t2 as image tuples indexed by t1, each once.  A
    generator's candidate images are the elements whose order divides its
    order."""
    n1 = len(t1)
    e1, e2 = identity_of(t1), identity_of(t2)
    orders1, orders2 = _element_orders(t1, e1), _element_orders(t2, e2)
    gens, order1 = next(_generating_sequences(t1, e1,
                                              _inner_automorphisms(t1)))
    candidates = [[b for b, k in enumerate(orders2) if orders1[g] % k == 0]
                  for g in gens]
    for images in product(*candidates):
        phi = _extend_by_products(t1, t2, e1, e2, gens, images, order1)
        if phi is not None:
            yield tuple(phi[a] for a in range(n1))


def is_isomorphic(t1, t2) -> bool:
    """Brute-force isomorphism test by the hom search.  It is independent of
    canonical_form, so the tests check each against the other."""
    # the sorted order lists differ in length when the sizes differ
    if (sorted(_element_orders(t1, identity_of(t1)))
            != sorted(_element_orders(t2, identity_of(t2)))):
        return False
    return any(len(set(phi)) == len(t1) for phi in _homs(t1, t2))


@lru_cache(maxsize=None)
def enumerate_homs(t1, t2) -> tuple[tuple[int, ...], ...]:
    """All group homomorphisms t1 -> t2 as sorted image tuples indexed by
    t1."""
    return tuple(sorted(_homs(t1, t2)))


def find_isomorphism(t1, t2) -> tuple[int, ...] | None:
    """The least isomorphism t1 -> t2 as an image tuple, or None."""
    (form1, ties1), (form2, ties2) = _canonical(t1), _canonical(t2)
    if form1 != form2:  # also when the sizes differ
        return None
    # An isomorphism phi maps the candidate tuples of t1 (irredundant,
    # shortest, involution first) onto those of t2, and a BFS order o onto
    # phi(o), which relabels to the same table.  The ties hold every order
    # that attains the form, in no promised sequence (see _canonical), and
    # orders start with their distinct tuples, so phi -> phi(o1) is a
    # bijection from the isomorphisms onto t2's tied orders, with inverse
    # o -> (o1[i] -> o[i]).
    o1 = ties1[0]
    at = sorted(range(len(t1)), key=o1.__getitem__)  # o1[at[a]] == a
    return min(tuple(map(o.__getitem__, at)) for o in ties2)


# ---------------------------------------------------------------------------
# builders


def _table(elements, mul):
    """The multiplication table of ``elements`` under ``mul``, indexed in
    the order given."""
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)


def cyclic(n: int):
    return _table(range(n), lambda i, j: (i + j) % n)


def direct_product(s, t):
    """Pairs (i, j) at index i * |t| + j."""
    return _table(list(product(range(len(s)), range(len(t)))),
                  lambda x, y: (s[x[0]][y[0]], t[x[1]][y[1]]))


def dihedral(n: int):
    """Order 2n: pairs (eps, i) = s^eps r^i with s r^i s = r^-i."""

    def mul(x, y):
        return (x[0] + y[0]) % 2, (x[1] * (-1 if y[0] else 1) + y[1]) % n

    return _table(list(product(range(2), range(n))), mul)


def dicyclic(n: int):
    """Order 4n: pairs (eps, i) = b^eps a^i with a^2n = 1, b^2 = a^n,
    b a b^-1 = a^-1.  dicyclic(2) is the quaternion group."""
    m = 2 * n

    def mul(x, y):
        i = (x[1] * (-1 if y[0] else 1) + y[1]) % m
        return (0, (i + n) % m) if x[0] and y[0] else (x[0] + y[0], i)

    return _table(list(product(range(2), range(m))), mul)


def alternating4():
    """The even permutations of 0..3 in sorted order, under composition."""
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0]
    return _table(even, lambda p, q: tuple(p[i] for i in q))


def small_groups(max_order: int = 12):
    """Representatives of every isomorphism class of order <= max_order."""
    catalog = [
        ("1", cyclic(1)),
        ("Z2", cyclic(2)),
        ("Z3", cyclic(3)),
        ("Z4", cyclic(4)),
        ("Z2xZ2", direct_product(cyclic(2), cyclic(2))),
        ("Z5", cyclic(5)),
        ("Z6", cyclic(6)),
        ("S3", dihedral(3)),
        ("Z7", cyclic(7)),
        ("Z8", cyclic(8)),
        ("Z4xZ2", direct_product(cyclic(4), cyclic(2))),
        ("Z2xZ2xZ2", direct_product(cyclic(2),
                                    direct_product(cyclic(2), cyclic(2)))),
        ("D4", dihedral(4)),
        ("Q8", dicyclic(2)),
        ("Z9", cyclic(9)),
        ("Z3xZ3", direct_product(cyclic(3), cyclic(3))),
        ("Z10", cyclic(10)),
        ("D5", dihedral(5)),
        ("Z11", cyclic(11)),
        ("Z12", cyclic(12)),
        ("Z6xZ2", direct_product(cyclic(6), cyclic(2))),
        ("D6", dihedral(6)),
        ("A4", alternating4()),
        ("Dic3", dicyclic(3)),
    ]
    return [(name, t) for name, t in catalog if len(t) <= max_order]
