from collections import deque
from itertools import product, repeat

import pytest

from grpd import complexity, core, groups, homotopy
from grpd import corpus as corpus_module
from grpd.bibundle import Bibundle, LeftAction, RightAction
from grpd.core import FinGroupoid, StrictArrow, transport, validate_groupoid
from grpd.corpus import CorpusConfig, corpus_groupoids
from grpd.descent import NotSurjective


@pytest.fixture(scope="session")
def corpus():
    """Seeded mid-size corpus shared across unit-test modules."""
    members = corpus_groupoids(CorpusConfig(seed=20250809, count=40))
    for g in members:
        validate_groupoid(g)
    return members


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Members small enough for the quadratic searches."""
    return [g for g in corpus if len(g.arrows) <= 30]


def _isomorphic_skeletons(a, b) -> bool:
    """Whether the isotropy groups of two skeletons match as multisets
    under the brute-force ``groups.is_isomorphic``: an oracle for
    ``skeleton_equal`` that neither reads nor orders by canonical forms."""
    unmatched = [e.table for e in b.entries]
    if len(a.entries) != len(unmatched):
        return False
    for e in a.entries:
        match = next((i for i, t in enumerate(unmatched)
                      if groups.is_isomorphic(e.table, t)), None)
        if match is None:
            return False
        del unmatched[match]
    return True


@pytest.fixture(scope="session")
def isomorphic_skeletons():
    return _isomorphic_skeletons


def _factor_through(p, q, base):
    """Factor q through the surjection p onto ``base`` (both maps are
    dicts on one domain): ``(h, None)`` with h(p(u)) = q(u) for every u,
    the only such h since p is onto.  A q that separates two points of one
    fibre of p does not factor: ``(None, (u, v))`` names them, v the least
    point at which q differs from its value at the least point u of v's
    fibre.  A p that misses a base point raises NotSurjective.

    p is the coequalizer of its kernel pair exactly when every map
    constant on its fibres factors through it uniquely, and no other map
    does: the ambient site is subcanonical when every cover passes."""
    missed = sorted(set(base) - set(p.values()))
    if missed:
        raise NotSurjective(f"map misses {missed}", witness=tuple(missed))
    h, first = {}, {}
    for u in sorted(p):
        x = p[u]
        if x not in h:
            h[x], first[x] = q[u], u
        elif h[x] != q[u]:
            return None, (first[x], u)
    return h, None


@pytest.fixture(scope="session")
def factor_through():
    return _factor_through


def _enumerate_functors(h, g) -> list[StrictArrow]:
    """Every strict arrow h -> g exactly once, sorted by object then arrow map.

    A functor is assembled per connected component of ``h`` from: the image
    of the component's base point, a group homomorphism on the isotropy
    there, and one image arrow per spanning-tree edge (see
    ``core.transport``).  This reaches every functor exactly once, so
    enumeration stays exhaustive.
    """
    per_component = []
    for block in h.components:
        loops, table = h.isotropy(block[0])
        choices, n = [], len(block) - 1
        for b in g.objects:
            g_loops, g_table = g.isotropy(b)
            for hom in groups.enumerate_homs(table, g_table):
                theta = {loops[i]: g_loops[hom[i]] for i in range(len(loops))}
                for picks in product(g.arrows_from[b], repeat=n):
                    choices.append((dict(zip(block, (g.unit[b],) + picks)),
                                    theta))
        per_component.append(choices)

    name, out = f"F[{h.name}->{g.name}]", []
    for combo in product(*per_component):
        imgs = {x: a for part, _ in combo for x, a in part.items()}
        theta = {a: b for _, part in combo for a, b in part.items()}
        out.append(transport(name, h, g, imgs, theta))
    objs, arrs = sorted(h.objects), sorted(h.arrows)
    return sorted(out, key=lambda f: ([f.obj_map[x] for x in objs],
                                      [f.arr_map[a] for a in arrs]))


@pytest.fixture(scope="session")
def enumerate_functors():
    return _enumerate_functors


def _random_functor(rng, a, b) -> StrictArrow:
    """A random strict arrow a -> b: per component, a random target object,
    a random isotropy homomorphism, and spanning-tree transport."""
    imgs, theta = {}, {}
    for block in a.components:
        rep = block[0]
        loops, table = a.isotropy(rep)
        target = rng.choice(sorted(b.objects))
        b_loops, b_table = b.isotropy(target)
        hom = rng.choice(groups.enumerate_homs(table, b_table))
        theta.update(zip(loops, (b_loops[i] for i in hom)))
        # tree arrows may land anywhere reachable from the target
        imgs[rep] = b.unit[target]
        for x in block[1:]:
            imgs[x] = rng.choice(sorted(b.arrows_from[target]))
    return transport(f"rf[{a.name}->{b.name}]", a, b, imgs, theta)


@pytest.fixture(scope="session")
def random_functor():
    return _random_functor


def _relabel(g, names, name=None) -> FinGroupoid:
    """g with each object and arrow id i renamed to names.get(i, i)."""
    def n(i):
        return names.get(i, i)

    return FinGroupoid(
        name=name or g.name, objects=tuple(map(n, g.objects)),
        arrows=tuple(map(n, g.arrows)),
        src={n(a): n(x) for a, x in g.src.items()},
        tgt={n(a): n(x) for a, x in g.tgt.items()},
        comp={(n(p), n(q)): n(r) for (p, q), r in g.comp.items()},
        unit={n(x): n(a) for x, a in g.unit.items()},
        inv={n(a): n(b) for a, b in g.inv.items()})


@pytest.fixture(scope="session")
def relabel():
    return _relabel


def _transpose(b, name=None) -> Bibundle:
    """Swap the two sides, acting through inverses."""
    h, g = b.dom, b.cod
    left = LeftAction(
        groupoid=g, carrier=b.carrier, actor=dict(b.right.actor),
        act={(g.inv[c], z): w for (z, c), w in b.right.act.items()})
    right = RightAction(
        groupoid=h, carrier=b.carrier, actor=dict(b.left.actor),
        act={(z, h.inv[eta]): w for (eta, z), w in b.left.act.items()})
    return Bibundle(name=name or f"{b.name}^t", left=left, right=right)


@pytest.fixture(scope="session")
def transpose():
    return _transpose


def _strict_pullback(f, g):
    """The ordinary fibre product of two functors with one codomain, built
    pair by pair: the groupoid, then the object and arrow maps of each
    projection."""
    a, b = f.dom, g.dom

    def oid(x, y):
        return f"({x}&{y})"

    objects, owhere = [], {}
    for x in a.objects:
        for y in b.objects:
            if f.obj_map[x] == g.obj_map[y]:
                objects.append(oid(x, y))
                owhere[oid(x, y)] = (x, y)
    arrows, src, tgt, where = [], {}, {}, {}
    for p in a.arrows:
        for q in b.arrows:
            if f.arr_map[p] != g.arr_map[q]:
                continue
            i = oid(p, q)
            arrows.append(i)
            where[i] = (p, q)
            src[i] = oid(a.src[p], b.src[q])
            tgt[i] = oid(a.tgt[p], b.tgt[q])
    comp = {}
    unit = {o: oid(a.unit[x], b.unit[y]) for o, (x, y) in owhere.items()}
    inv = {i: oid(a.inv[p], b.inv[q]) for i, (p, q) in where.items()}
    by_src = {}
    for i in arrows:
        by_src.setdefault(src[i], []).append(i)
    for i1 in arrows:
        for i2 in by_src.get(tgt[i1], ()):
            p2, q2 = where[i2]
            p1, q1 = where[i1]
            comp[(i2, i1)] = oid(a.comp[(p2, p1)], b.comp[(q2, q1)])
    grp = FinGroupoid(name=f"({a.name}x{b.name})", objects=tuple(objects),
                      arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                      unit=unit, inv=inv)
    pr1 = {i: where[i][0] for i in arrows}
    pr2 = {i: where[i][1] for i in arrows}
    return grp, ({o: owhere[o][0] for o in objects}, pr1), \
        ({o: owhere[o][1] for o in objects}, pr2)


@pytest.fixture(scope="session")
def strict_pullback():
    return _strict_pullback


def _orbits(g) -> dict[str, str]:
    """Each object's orbit, named by its first object in ``g.objects``,
    found by a search over ``src`` and ``tgt`` alone: an oracle that reads
    no cached partition."""
    links = {x: [] for x in g.objects}
    for a in g.arrows:
        links[g.src[a]].append(g.tgt[a])
        links[g.tgt[a]].append(g.src[a])
    orbit = {}
    for x in g.objects:
        if x in orbit:
            continue
        orbit[x] = x
        queue = deque([x])
        while queue:
            for z in links[queue.popleft()]:
                if z not in orbit:
                    orbit[z] = x
                    queue.append(z)
    return orbit


@pytest.fixture(scope="session")
def orbits():
    return _orbits


def _orbit_count(g) -> int:
    return len(set(_orbits(g).values()))


@pytest.fixture(scope="session")
def orbit_count():
    return _orbit_count


# the order-5 loop: 0 is a two-sided unit and every element is its own
# inverse, but (1.1).2 = 2 while 1.(1.2) = 4
_LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
          (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


@pytest.fixture(scope="session")
def loop5():
    return _LOOP5


def _doubled_hom_sets() -> FinGroupoid:
    """Pair({1, 2}) with every hom set between 1 and 2 doubled: f, g: 1 -> 2
    with inverses f', g'.  Two non-units compose to a loop, which is a
    unit, so the unit and inverse laws hold, yet (f.f').g = g != f =
    f.(f'.g)."""
    ends = {"u1": "11", "u2": "22", "f": "12", "g": "12", "f'": "21",
            "g'": "21"}
    arrows, units = tuple(ends), ("u1", "u2")
    comp = {(p, q): (q if p in units else p if q in units
                     else "u" + ends[q][0])
            for p, q in product(arrows, repeat=2) if ends[p][0] == ends[q][1]}
    return FinGroupoid(
        name="doubled", objects=("1", "2"), arrows=arrows,
        src={a: e[0] for a, e in ends.items()},
        tgt={a: e[1] for a, e in ends.items()}, comp=comp,
        unit={"1": "u1", "2": "u2"},
        inv={"u1": "u1", "u2": "u2", "f": "f'", "g": "g'", "f'": "f",
             "g'": "g"})


@pytest.fixture(scope="session")
def doubled_hom_sets():
    return _doubled_hom_sets()


def _eager_tabulate(name: str, objects, arrows: dict, ends, compose, unit,
                    inv) -> FinGroupoid:
    """``core.tabulate`` as it was while it stored ``comp``: every row
    composed once, as it is built, into a dict.  An oracle for the
    computed ``core.Composite``."""
    src, tgt, out_parts, out_ids = {}, {}, {}, {}
    for p, a in arrows.items():
        x, y = ends(p)
        src[a], tgt[a] = x, y
        out_parts.setdefault(x, []).append(p)
        out_ids.setdefault(x, []).append(a)
    comp = {}
    for p, a in arrows.items():
        y = tgt[a]
        comp.update(zip(zip(out_ids.get(y, ()), repeat(a)),
                        compose(p, out_parts.get(y, ()))))
    objects = tuple(objects)
    return FinGroupoid(
        name=name, objects=objects, arrows=tuple(arrows.values()),
        src=src, tgt=tgt, comp=comp,
        unit={x: arrows[unit(x)] for x in objects},
        inv={a: arrows[inv(p)] for p, a in arrows.items()})


def _eagerly(build, *args, **kwargs):
    """``build(*args, **kwargs)`` with every builder module's ``tabulate``
    swapped for the eager oracle, so each groupoid it tabulates (factors
    of a pullback too) holds its ``comp`` as a dict."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (core, complexity, corpus_module, homotopy):
            patch.setattr(module, "tabulate", _eager_tabulate)
        return build(*args, **kwargs)


@pytest.fixture(scope="session")
def eagerly():
    return _eagerly
