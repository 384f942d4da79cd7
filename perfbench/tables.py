"""Group tables for the benchmark's generators, built without grpd.

The benchmark plants its answers from these constructions, so it does not
use grpd's own catalog or any grpd decider.  Tables follow grpd's
convention: ``t[a][b]`` is the product a*b, and as a groupoid composite
``comp(b, a)`` ("a then b") the element is ``t[b][a]``.
"""

from __future__ import annotations

from itertools import product


def cyclic(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def direct_product(s, t):
    ns, nt = len(s), len(t)
    return tuple(
        tuple(s[i1][i2] * nt + t[j1][j2]
              for i2 in range(ns) for j2 in range(nt))
        for i1 in range(ns) for j1 in range(nt))


def dihedral(n):
    """Order 2n: s^eps r^i with s r^i s = r^-i."""
    return tuple(
        tuple(((e1 + e2) % 2) * n + (i1 * (-1 if e2 else 1) + i2) % n
              for e2 in range(2) for i2 in range(n))
        for e1 in range(2) for i1 in range(n))


def dicyclic(n):
    """Order 4n: b^eps a^i with a^2n = 1, b^2 = a^n, b a b^-1 = a^-1."""
    m = 2 * n

    def mul(e1, i1, e2, i2):
        i = (i1 * (-1 if e2 else 1) + i2) % m
        if e1 and e2:
            return (i + n) % m
        return ((e1 + e2) % 2) * m + i

    return tuple(tuple(mul(e1, i1, e2, i2) for e2 in range(2)
                       for i2 in range(m))
                 for e1 in range(2) for i1 in range(m))


def alternating4():
    gens = [(1, 2, 0, 3), (0, 2, 3, 1)]
    elems = {(0, 1, 2, 3)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(4))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    return tuple(tuple(index[tuple(p[q[i]] for i in range(4))]
                       for q in ordered) for p in ordered)


def _dp(*tables):
    out = tables[0]
    for t in tables[1:]:
        out = direct_product(out, t)
    return out


Z2, Z3, Z4 = cyclic(2), cyclic(3), cyclic(4)

# one representative of every isomorphism class of order <= 12
SMALL = {
    "1": cyclic(1), "Z2": Z2, "Z3": Z3, "Z4": Z4, "Z2xZ2": _dp(Z2, Z2),
    "Z5": cyclic(5), "Z6": cyclic(6), "S3": dihedral(3), "Z7": cyclic(7),
    "Z8": cyclic(8), "Z4xZ2": _dp(Z4, Z2), "Z2xZ2xZ2": _dp(Z2, Z2, Z2),
    "D4": dihedral(4), "Q8": dicyclic(2), "Z9": cyclic(9),
    "Z3xZ3": _dp(Z3, Z3), "Z10": cyclic(10), "D5": dihedral(5),
    "Z11": cyclic(11), "Z12": cyclic(12), "Z6xZ2": _dp(cyclic(6), Z2),
    "D6": dihedral(6), "A4": alternating4(), "Dic3": dicyclic(3),
}

# direct products of order 16-24, pairwise non-isomorphic and above every
# SMALL order; cold grpd.groups.canonical_form takes 0.4-1.0 s on each
LARGE = {
    "A4xZ2": _dp(alternating4(), Z2), "Dic3xZ2": _dp(dicyclic(3), Z2),
    "Q8xZ3": _dp(dicyclic(2), Z3),
}

TABLES = {**SMALL, **LARGE}


def identity(t):
    return next(i for i in range(len(t))
                if all(t[i][j] == j and t[j][i] == j for j in range(len(t))))


def inverses(t):
    e = identity(t)
    return [next(b for b in range(len(t)) if t[a][b] == e)
            for a in range(len(t))]


def element_orders(t):
    e = identity(t)
    out = []
    for a in range(len(t)):
        x, k = a, 1
        while x != e:
            x, k = t[x][a], k + 1
        out.append(k)
    return out


def random_relabelling(rng, t):
    """A random renaming that ranks labels by element order: random within
    each order class.  grpd's group searches start from the least labels,
    so keeping their orders fixed keeps the search cost steady from seed to
    seed while every table still differs."""
    orders = element_orders(t)
    shuffled = list(range(len(t)))
    rng.shuffle(shuffled)
    ranked = sorted(shuffled, key=lambda i: orders[i])
    perm = [0] * len(t)
    for label, i in enumerate(ranked):
        perm[i] = label
    return perm


def relabel(t, perm):
    """The table with element i renamed perm[i]."""
    back = {p: i for i, p in enumerate(perm)}
    n = len(t)
    return tuple(tuple(perm[t[back[a]][back[b]]] for b in range(n))
                 for a in range(n))


def is_group(t):
    """Group axioms by brute force; used only by the benchmark's self-tests."""
    n = len(t)
    e = identity(t)
    return (all(any(t[a][b] == e for b in range(n)) for a in range(n))
            and all(t[t[a][b]][c] == t[a][t[b][c]]
                    for a, b, c in product(range(n), repeat=3)))
