"""Finite groupoids, strict functors, natural transformations, cocylinder.

Conventions used throughout the package:

* ``comp[(g, f)]`` means "f then g" and is defined exactly when
  ``src[g] == tgt[f]``.
* An arrow ``a: x -> y`` has ``src[a] == x`` and ``tgt[a] == y``.
* Object and arrow ids are opaque strings.  Structures compare by object
  identity; use :meth:`FinGroupoid.equal_presentation` for literal
  table-by-table comparison.

All values are immutable after validation and all operations are pure;
derived data (hom sets, connected components) is cached on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product


class GroupoidError(Exception):
    """An axiom violation, carrying the offending witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DanglingId(GroupoidError):
    pass


class PartialComposition(GroupoidError):
    pass


class NonAssociative(GroupoidError):
    pass


class BadUnit(GroupoidError):
    pass


class BadInverse(GroupoidError):
    pass


class DomainMismatch(GroupoidError):
    pass


class SignatureMismatch(GroupoidError):
    pass


class BadFunctor(GroupoidError):
    pass


class BadNatTrans(GroupoidError):
    pass


@dataclass(frozen=True, eq=False)
class FinGroupoid:
    """Explicit finite groupoid: total structure tables over string ids."""

    name: str
    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    comp: dict[tuple[str, str], str]
    unit: dict[str, str]
    inv: dict[str, str]

    @cached_property
    def hom(self) -> dict[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for a in self.arrows:
            table.setdefault((self.src[a], self.tgt[a]), []).append(a)
        return {k: tuple(sorted(v)) for k, v in table.items()}

    def hom_set(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom.get((x, y), ())

    @cached_property
    def arrows_from(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {x: [] for x in self.objects}
        for a in self.arrows:
            table[self.src[a]].append(a)
        return {k: tuple(sorted(v)) for k, v in table.items()}

    @cached_property
    def arrows_into(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {x: [] for x in self.objects}
        for a in self.arrows:
            table[self.tgt[a]].append(a)
        return {k: tuple(sorted(v)) for k, v in table.items()}

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of objects (blocks sorted by least member)."""
        return partition(self.objects, ((self.src[a], self.tgt[a])
                                        for a in self.arrows))

    @cached_property
    def component_of(self) -> dict[str, tuple[str, ...]]:
        table = {}
        for block in self.components:
            for x in block:
                table[x] = block
        return table

    def spanning_arrows(self, block: tuple[str, ...]) -> dict[str, str]:
        """BFS tree arrows ``t[x]: rep -> x`` with rep = least object, t[rep] = unit."""
        rep = block[0]
        tree = {rep: self.unit[rep]}
        frontier = [rep]
        while frontier:
            nxt = []
            for x in frontier:
                for a in self.arrows_from[x]:
                    y = self.tgt[a]
                    if y not in tree:
                        tree[y] = self.comp[(a, tree[x])]
                        nxt.append(y)
            frontier = nxt
        return tree

    @cached_property
    def generators(self) -> tuple[str, ...]:
        """Arrows of which every arrow is an iterated composite, built
        greedily: each component's spanning-tree arrows, then every arrow
        not yet reached, in order.  Needs a total ``comp``."""
        src, tgt, comp = self.src, self.tgt, self.comp
        gens: list[str] = []
        gens_from: dict[str, list[str]] = {x: [] for x in self.objects}
        reached: set[str] = set()
        reached_into: dict[str, list[str]] = {x: [] for x in self.objects}
        frontier: list[str] = []

        def reach(a):
            reached.add(a)
            reached_into[tgt[a]].append(a)
            frontier.append(a)

        def add(s):
            gens.append(s)
            gens_from[src[s]].append(s)
            reach(s)
            for r in list(reached_into[src[s]]):
                y = comp[(s, r)]
                if y not in reached:
                    reach(y)
            while frontier:
                r = frontier.pop()
                for s2 in gens_from[tgt[r]]:
                    y = comp[(s2, r)]
                    if y not in reached:
                        reach(y)

        for block in self.components:
            for a in self.spanning_arrows(block).values():
                if a not in reached:
                    add(a)
        for a in self.arrows:
            if a not in reached:
                add(a)
        return tuple(gens)

    def equal_presentation(self, other: "FinGroupoid") -> bool:
        return (set(self.objects) == set(other.objects)
                and set(self.arrows) == set(other.arrows)
                and self.src == other.src and self.tgt == other.tgt
                and self.comp == other.comp and self.unit == other.unit
                and self.inv == other.inv)

    def __repr__(self):
        return (f"FinGroupoid({self.name!r}, {len(self.objects)} objects, "
                f"{len(self.arrows)} arrows)")


def partition(items, links) -> tuple[tuple, ...]:
    """Classes of the equivalence relation on ``items`` generated by the
    pairs in ``links``: each class sorted, classes ordered by least member."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    blocks: dict = {}
    for x in parent:
        blocks.setdefault(find(x), []).append(x)
    return tuple(sorted((tuple(sorted(b)) for b in blocks.values()),
                        key=lambda b: b[0]))


def isotropy_table(g: FinGroupoid, x: str):
    """The loops at x (sorted) and their multiplication table by index."""
    loops = g.hom_set(x, x)
    index = {a: i for i, a in enumerate(loops)}
    table = tuple(tuple(index[g.comp[(a, b)]] for b in loops) for a in loops)
    return loops, table


def tree_loop(g: FinGroupoid, tree: dict[str, str], a: str) -> str:
    """The loop tree[y]^-1 . a . tree[x] at the base point of the spanning
    tree ``tree`` (see :meth:`FinGroupoid.spanning_arrows`), for a: x -> y."""
    return g.comp[(g.inv[tree[g.tgt[a]]], g.comp[(a, tree[g.src[a]])])]


def conjugate(g: FinGroupoid, cy: str, m: str, cx: str) -> str:
    """cy . m . cx^-1: the arrow m: x -> y moved along cx: x -> x' and
    cy: y -> y' to an arrow x' -> y'."""
    return g.comp[(cy, g.comp[(m, g.inv[cx])])]


def same_groupoid(a: FinGroupoid, b: FinGroupoid) -> bool:
    return a is b or a.equal_presentation(b)


def first_repeat(ids):
    """The first id that occurs a second time in ``ids``, or None."""
    seen = set()
    for x in ids:
        if x in seen:
            return x
        seen.add(x)
    return None


def index_arrows(arrows, end: dict[str, str]) -> dict[str, list[str]]:
    """Arrows grouped by ``end[a]`` (src or tgt), keeping their order; the
    descent code groups elements by their image the same way."""
    out: dict[str, list[str]] = {}
    for a in arrows:
        out.setdefault(end[a], []).append(a)
    return out


def validate_groupoid(g: FinGroupoid) -> FinGroupoid:
    """Check every groupoid axiom, raising on the first violation found.

    Check order is fixed: id references, totality of the structure maps,
    composition shape, unit laws, inverse laws, associativity.  The raised
    error carries the offending id / pair / triple as ``witness``.
    """
    objects, arrows = set(g.objects), set(g.arrows)
    if len(objects) != len(g.objects):
        raise DanglingId("duplicate object id", witness=g.objects)
    if len(arrows) != len(g.arrows):
        raise DanglingId("duplicate arrow id", witness=g.arrows)
    for a in g.arrows:
        for table, label in ((g.src, "src"), (g.tgt, "tgt")):
            if a not in table:
                raise DanglingId(f"{label} undefined on arrow {a!r}", witness=a)
            if table[a] not in objects:
                raise DanglingId(
                    f"{label}({a!r}) = {table[a]!r} is not an object", witness=a)
    for x in g.objects:
        if x not in g.unit:
            raise BadUnit(f"no unit declared at object {x!r}", witness=x)
        if g.unit[x] not in arrows:
            raise DanglingId(
                f"unit({x!r}) = {g.unit[x]!r} is not an arrow", witness=x)
    for a in g.arrows:
        if a not in g.inv:
            raise BadInverse(f"no inverse declared for arrow {a!r}", witness=a)
        if g.inv[a] not in arrows:
            raise DanglingId(
                f"inv({a!r}) = {g.inv[a]!r} is not an arrow", witness=a)
    src, tgt, comp = g.src, g.tgt, g.comp
    if not all(p in arrows and q in arrows and r in arrows
               and src[p] == tgt[q] and src[r] == src[q] and tgt[r] == tgt[p]
               for (p, q), r in comp.items()):
        # report the least bad entry
        for (p, q), r in sorted(comp.items()):
            if p not in arrows or q not in arrows or r not in arrows:
                raise DanglingId(f"comp entry ({p!r}, {q!r}) = {r!r} "
                                 "references an unknown arrow",
                                 witness=(p, q))
            if src[p] != tgt[q]:
                raise PartialComposition(
                    f"comp defined on non-composable pair ({p!r}, {q!r})",
                    witness=(p, q))
            if src[r] != src[q] or tgt[r] != tgt[p]:
                raise PartialComposition(
                    f"comp({p!r}, {q!r}) = {r!r} has wrong endpoints",
                    witness=(p, q))
    by_src = index_arrows(g.arrows, src)
    by_tgt = index_arrows(g.arrows, tgt)
    # every entry is a composable pair, so comp is total iff it has one
    # entry per pair in in(y) x out(y) for each object y
    if len(comp) != sum(len(by_tgt.get(y, ())) * len(by_src.get(y, ()))
                        for y in g.objects):
        for p in g.arrows:
            for q in by_tgt.get(src[p], ()):
                if (p, q) not in comp:
                    raise PartialComposition(
                        f"composable pair ({p!r}, {q!r}) has no composite",
                        witness=(p, q))
    for x in g.objects:
        u = g.unit[x]
        if g.src[u] != x or g.tgt[u] != x:
            raise BadUnit(f"unit({x!r}) is not a loop at {x!r}", witness=x)
    for a in g.arrows:
        if g.comp[(a, g.unit[g.src[a]])] != a or g.comp[(g.unit[g.tgt[a]], a)] != a:
            raise BadUnit(f"unit is not an identity against arrow {a!r}",
                          witness=g.src[a])
    for a in g.arrows:
        b = g.inv[a]
        if g.src[b] != g.tgt[a] or g.tgt[b] != g.src[a]:
            raise BadInverse(f"inv({a!r}) has wrong endpoints", witness=a)
        if (g.comp[(b, a)] != g.unit[g.src[a]]
                or g.comp[(a, b)] != g.unit[g.tgt[a]]):
            raise BadInverse(f"inv({a!r}) is not a two-sided inverse", witness=a)
    # Light's associativity test.  Let M be the set of arrows b with
    # (c.b).a == c.(b.a) for all composable a and c.  M is closed under
    # composition: for b1, b2 in M with b2.b1 defined,
    #   (c.(b2.b1)).a = ((c.b2).b1).a = (c.b2).(b1.a) = c.(b2.(b1.a))
    #                 = c.((b2.b1).a),
    # using that b2, b1, b2 and b1 lie in M, in turn.  Every arrow is an
    # iterated composite of g.generators, so if those lie in M, all do.
    for b in g.generators:
        outer = [(c, comp[(c, b)]) for c in by_src[tgt[b]]]
        for a in by_tgt[src[b]]:
            ba = comp[(b, a)]
            for c, cb in outer:
                if comp[(c, ba)] != comp[(cb, a)]:
                    raise NonAssociative(
                        f"associativity fails on ({c!r}, {b!r}, {a!r})",
                        witness=(c, b, a))
    return g


# ---------------------------------------------------------------------------
# basic constructions


def discrete_groupoid(name: str, objects) -> FinGroupoid:
    objects = tuple(objects)
    unit = {x: f"id_{x}" for x in objects}
    arrows = tuple(unit[x] for x in objects)
    return FinGroupoid(
        name=name, objects=objects, arrows=arrows,
        src={unit[x]: x for x in objects}, tgt={unit[x]: x for x in objects},
        comp={(unit[x], unit[x]): unit[x] for x in objects},
        unit=unit, inv={a: a for a in arrows})


def terminal_groupoid(name: str = "pt") -> FinGroupoid:
    return discrete_groupoid(name, ("*",))


def pair_groupoid(name: str, objects) -> FinGroupoid:
    """The pair groupoid: exactly one arrow (x, y): x -> y per object pair."""
    objects = tuple(objects)
    aid = {(x, y): f"{x}>{y}" for x in objects for y in objects}
    arrows = tuple(aid[k] for k in sorted(aid))
    src = {aid[(x, y)]: x for (x, y) in aid}
    tgt = {aid[(x, y)]: y for (x, y) in aid}
    comp = {}
    for x in objects:
        for y in objects:
            for z in objects:
                comp[(aid[(y, z)], aid[(x, y)])] = aid[(x, z)]
    return FinGroupoid(
        name=name, objects=objects, arrows=arrows, src=src, tgt=tgt,
        comp=comp, unit={x: aid[(x, x)] for x in objects},
        inv={aid[(x, y)]: aid[(y, x)] for (x, y) in aid})


def interval_groupoid() -> FinGroupoid:
    """The two-object groupoid with a single connecting isomorphism."""
    return FinGroupoid(
        name="I", objects=("0", "1"), arrows=("id0", "id1", "s", "s_inv"),
        src={"id0": "0", "id1": "1", "s": "0", "s_inv": "1"},
        tgt={"id0": "0", "id1": "1", "s": "1", "s_inv": "0"},
        comp={("id0", "id0"): "id0", ("id1", "id1"): "id1",
              ("s", "id0"): "s", ("id1", "s"): "s",
              ("s_inv", "id1"): "s_inv", ("id0", "s_inv"): "s_inv",
              ("s_inv", "s"): "id0", ("s", "s_inv"): "id1"},
        unit={"0": "id0", "1": "id1"},
        inv={"id0": "id0", "id1": "id1", "s": "s_inv", "s_inv": "s"})


def restrict(g: FinGroupoid, objects, name: str | None = None) -> FinGroupoid:
    """Full subgroupoid on the given object subset."""
    keep = set(objects)
    unknown = keep - set(g.objects)
    if unknown:
        raise DanglingId(f"objects {sorted(unknown)} not in {g.name}",
                         witness=sorted(unknown))
    objs = tuple(x for x in g.objects if x in keep)
    arrs = tuple(a for a in g.arrows if g.src[a] in keep and g.tgt[a] in keep)
    arrset = set(arrs)
    return FinGroupoid(
        name=name or f"{g.name}|{{{','.join(objs)}}}",
        objects=objs, arrows=arrs,
        src={a: g.src[a] for a in arrs}, tgt={a: g.tgt[a] for a in arrs},
        comp={k: v for k, v in g.comp.items()
              if k[0] in arrset and k[1] in arrset},
        unit={x: g.unit[x] for x in objs},
        inv={a: g.inv[a] for a in arrs})


def disjoint_union(name: str, parts) -> FinGroupoid:
    """Disjoint union; ids are prefixed with the part index when they clash."""
    parts = list(parts)
    ids: list[str] = []
    for g in parts:
        ids.extend(g.objects)
        ids.extend(g.arrows)
    clash = len(ids) != len(set(ids))

    def tag(i, s):
        return f"{i}.{s}" if clash else s

    objects, arrows, src, tgt, comp, unit, inv = [], [], {}, {}, {}, {}, {}
    for i, g in enumerate(parts):
        objects.extend(tag(i, x) for x in g.objects)
        arrows.extend(tag(i, a) for a in g.arrows)
        src.update({tag(i, a): tag(i, g.src[a]) for a in g.arrows})
        tgt.update({tag(i, a): tag(i, g.tgt[a]) for a in g.arrows})
        comp.update({(tag(i, p), tag(i, q)): tag(i, r)
                     for (p, q), r in g.comp.items()})
        unit.update({tag(i, x): tag(i, g.unit[x]) for x in g.objects})
        inv.update({tag(i, a): tag(i, g.inv[a]) for a in g.arrows})
    return FinGroupoid(name=name, objects=tuple(objects), arrows=tuple(arrows),
                       src=src, tgt=tgt, comp=comp, unit=unit, inv=inv)


# ---------------------------------------------------------------------------
# strict arrows (functors)


@dataclass(frozen=True, eq=False)
class StrictArrow:
    """Functor between finite groupoids: object map plus arrow map."""

    name: str
    dom: FinGroupoid
    cod: FinGroupoid
    obj_map: dict[str, str]
    arr_map: dict[str, str]

    def __call__(self, arrow: str) -> str:
        return self.arr_map[arrow]

    def __repr__(self):
        return f"StrictArrow({self.name!r}: {self.dom.name} -> {self.cod.name})"


def validate_functor(f: StrictArrow) -> StrictArrow:
    """Check the strict-arrow axioms (endpoint squares, composition, units).

    ``f.dom`` and ``f.cod`` must be valid groupoids (see
    :func:`validate_groupoid`): composition is checked on the generators
    of ``f.dom`` only, which is enough for valid groupoids alone.
    """
    h, g = f.dom, f.cod
    for x in h.objects:
        if x not in f.obj_map:
            raise BadFunctor(f"object map undefined on {x!r}", witness=x)
        if f.obj_map[x] not in set(g.objects):
            raise BadFunctor(f"obj_map({x!r}) not an object of {g.name}",
                             witness=x)
    arrset = set(g.arrows)
    for a in h.arrows:
        if a not in f.arr_map:
            raise BadFunctor(f"arrow map undefined on {a!r}", witness=a)
        fa = f.arr_map[a]
        if fa not in arrset:
            raise BadFunctor(f"arr_map({a!r}) not an arrow of {g.name}",
                             witness=a)
        if g.src[fa] != f.obj_map[h.src[a]] or g.tgt[fa] != f.obj_map[h.tgt[a]]:
            raise BadFunctor(f"arr_map({a!r}) breaks the src/tgt squares",
                             witness=a)
    # The arrows b with F(b.a) = F(b).F(a) for every a into src(b) are
    # closed under composition: for b1, b2 among them with b2.b1 defined,
    #   F((b2.b1).a) = F(b2.(b1.a)) = F(b2).F(b1.a) = F(b2).F(b1).F(a)
    #                = F(b2.b1).F(a),
    # using associativity in h and g.  Every arrow is an iterated composite
    # of h.generators, so checking those covers every pair.  Units are
    # compared first, the cheapest sign of a bad functor.  Only when either
    # check fails is every comp entry swept, to report the same first
    # failing pair as a full sweep would.
    am, hc, gc = f.arr_map, h.comp, g.comp
    if not (all(am[h.unit[x]] == g.unit[f.obj_map[x]] for x in h.objects)
            and all(gc[am[b], am[a]] == am[hc[b, a]]
                    for b in h.generators for a in h.arrows_into[h.src[b]])):
        for (p, q), r in hc.items():
            if gc[(am[p], am[q])] != am[r]:
                raise BadFunctor(
                    f"composition not preserved on ({p!r}, {q!r})",
                    witness=(p, q))
    # Units and inverses follow once composition holds on every pair: for
    # a unit e, F(e) = F(e.e) = F(e).F(e) is an idempotent loop, hence a
    # unit, and F(a^-1).F(a) = F(a^-1.a) = F(e), so F(a^-1) = F(a)^-1.
    return f


def identity_functor(g: FinGroupoid) -> StrictArrow:
    return StrictArrow(name=f"id_{g.name}", dom=g, cod=g,
                       obj_map={x: x for x in g.objects},
                       arr_map={a: a for a in g.arrows})


def compose_functors(g: StrictArrow, f: StrictArrow) -> StrictArrow:
    """g after f; requires dom(g) = cod(f)."""
    if not same_groupoid(g.dom, f.cod):
        raise DomainMismatch(
            f"cannot compose {g.name!r} after {f.name!r}: "
            f"{g.dom.name} != {f.cod.name}")
    return StrictArrow(
        name=f"{g.name}*{f.name}", dom=f.dom, cod=g.cod,
        obj_map={x: g.obj_map[y] for x, y in f.obj_map.items()},
        arr_map={a: g.arr_map[b] for a, b in f.arr_map.items()})


def functors_equal(f: StrictArrow, g: StrictArrow) -> bool:
    return (same_groupoid(f.dom, g.dom) and same_groupoid(f.cod, g.cod)
            and f.obj_map == g.obj_map and f.arr_map == g.arr_map)


# ---------------------------------------------------------------------------
# natural transformations


@dataclass(frozen=True, eq=False)
class NatTrans:
    """Homotopy datum: a connecting arrow per object, natural in arrows."""

    source_fun: StrictArrow
    target_fun: StrictArrow
    component: dict[str, str]

    def __repr__(self):
        return (f"NatTrans({self.source_fun.name} => {self.target_fun.name}, "
                f"{len(self.component)} components)")


def validate_nat(t: NatTrans) -> NatTrans:
    f, g = t.source_fun, t.target_fun
    if not (same_groupoid(f.dom, g.dom) and same_groupoid(f.cod, g.cod)):
        raise SignatureMismatch("parallel functors required")
    cod = f.cod
    for x in f.dom.objects:
        if x not in t.component:
            raise BadNatTrans(f"missing component at {x!r}", witness=x)
        c = t.component[x]
        if cod.src[c] != f.obj_map[x] or cod.tgt[c] != g.obj_map[x]:
            raise BadNatTrans(f"component at {x!r} has wrong endpoints",
                              witness=x)
    for a in f.dom.arrows:
        x, y = f.dom.src[a], f.dom.tgt[a]
        if (cod.comp[(g.arr_map[a], t.component[x])]
                != cod.comp[(t.component[y], f.arr_map[a])]):
            raise BadNatTrans(f"naturality fails on arrow {a!r}", witness=a)
    return t


def identity_nat(f: StrictArrow) -> NatTrans:
    return NatTrans(source_fun=f, target_fun=f,
                    component={x: f.cod.unit[f.obj_map[x]]
                               for x in f.dom.objects})


def whisker(t: NatTrans, w: StrictArrow) -> NatTrans:
    """Precompose a transformation with a functor into its domain."""
    return NatTrans(
        source_fun=compose_functors(t.source_fun, w),
        target_fun=compose_functors(t.target_fun, w),
        component={x: t.component[w.obj_map[x]] for x in w.dom.objects})


# ---------------------------------------------------------------------------
# functor enumeration


def enumerate_functors(h: FinGroupoid, g: FinGroupoid) -> list[StrictArrow]:
    """Every strict arrow h -> g exactly once, sorted by object then arrow map.

    A functor is assembled per connected component of ``h`` from: the image
    of the component's base point, a group homomorphism on the isotropy
    there, and one image arrow per spanning-tree edge.  This reaches every
    functor exactly once, so enumeration stays exhaustive.
    """
    from . import groups

    per_component = []
    for block in h.components:
        rep = block[0]
        loops, table = isotropy_table(h, rep)
        choices = []
        for b in g.objects:
            g_loops, g_table = isotropy_table(g, b)
            for hom in groups.enumerate_homs(table, g_table):
                theta = {loops[i]: g_loops[hom[i]] for i in range(len(loops))}
                others = [x for x in block if x != rep]
                for picks in product(*[g.arrows_from[b] for x in others]):
                    choices.append((rep, b, theta, dict(zip(others, picks))))
        per_component.append(choices)

    trees = {block[0]: h.spanning_arrows(block) for block in h.components}
    rep_of = {a: h.component_of[h.src[a]][0] for a in h.arrows}
    loop_of = {a: tree_loop(h, trees[rep_of[a]], a) for a in h.arrows}
    out = []
    for combo in product(*per_component):
        obj_map: dict[str, str] = {}
        tree_img: dict[str, str] = {}
        thetas: dict[str, dict[str, str]] = {}
        for rep, b, theta, picks in combo:
            obj_map[rep] = b
            tree_img[rep] = g.unit[b]
            thetas[rep] = theta
            for x, a in picks.items():
                obj_map[x] = g.tgt[a]
                tree_img[x] = a
        arr_map = {a: conjugate(g, tree_img[h.tgt[a]],
                                thetas[rep_of[a]][loop_of[a]],
                                tree_img[h.src[a]])
                   for a in h.arrows}
        out.append(StrictArrow(name=f"F[{h.name}->{g.name}]", dom=h, cod=g,
                               obj_map=obj_map, arr_map=arr_map))

    def key(f):
        return (tuple(f.obj_map[x] for x in sorted(h.objects)),
                tuple(f.arr_map[a] for a in sorted(h.arrows)))

    out.sort(key=key)
    return out


# ---------------------------------------------------------------------------
# cocylinder and homotopies


def _square_id(u: str, v: str, base: str) -> str:
    return f"({u},{v})@{base}"


@dataclass(frozen=True, eq=False)
class Cocylinder:
    groupoid: FinGroupoid
    e0: StrictArrow
    e1: StrictArrow
    t: StrictArrow


def cocylinder(g: FinGroupoid) -> Cocylinder:
    """The functor groupoid [I, g]: objects are arrows of g, arrows are
    commuting squares (u, v) with v . base = base' . u.

    Returns the groupoid with the two endpoint evaluations e0, e1 and the
    unit section t; e0 . t = e1 . t = id holds on the nose.
    """
    objects = tuple(sorted(g.arrows))
    arrows = []
    src, tgt, e0a, e1a = {}, {}, {}, {}
    # (u, source base, target base) determines the square (v is forced)
    index: dict[tuple[str, str, str], str] = {}
    for a in objects:
        for u in g.arrows:
            if g.src[u] != g.src[a]:
                continue
            for b in objects:
                if g.src[b] != g.tgt[u]:
                    continue
                # square condition v . a = b . u forces v
                v = g.comp[(g.comp[(b, u)], g.inv[a])]
                sq = _square_id(u, v, a)
                arrows.append(sq)
                src[sq], tgt[sq] = a, b
                e0a[sq], e1a[sq] = u, v
                index[(u, a, b)] = sq
    comp, unit, inv = {}, {}, {}
    for a in objects:
        unit[a] = index[(g.unit[g.src[a]], a, a)]
    by_src: dict[str, list[str]] = {}
    for sq in arrows:
        inv[sq] = index[(g.inv[e0a[sq]], tgt[sq], src[sq])]
        by_src.setdefault(src[sq], []).append(sq)
    gcomp = g.comp
    for sq1 in arrows:
        u1, base1 = e0a[sq1], src[sq1]
        for sq2 in by_src.get(tgt[sq1], ()):
            comp[(sq2, sq1)] = index[(gcomp[(e0a[sq2], u1)], base1,
                                      tgt[sq2])]
    cyl = FinGroupoid(name=f"{g.name}^I", objects=objects,
                      arrows=tuple(arrows), src=src, tgt=tgt, comp=comp,
                      unit=unit, inv=inv)
    e0 = StrictArrow(name=f"e0_{g.name}", dom=cyl, cod=g,
                     obj_map={a: g.src[a] for a in objects},
                     arr_map=dict(e0a))
    e1 = StrictArrow(name=f"e1_{g.name}", dom=cyl, cod=g,
                     obj_map={a: g.tgt[a] for a in objects},
                     arr_map=dict(e1a))
    t = StrictArrow(name=f"t_{g.name}", dom=g, cod=cyl,
                    obj_map={x: g.unit[x] for x in g.objects},
                    arr_map={a: _square_id(a, a, g.unit[g.src[a]])
                             for a in g.arrows})
    return Cocylinder(groupoid=cyl, e0=e0, e1=e1, t=t)


def are_homotopic(f: StrictArrow, g: StrictArrow) -> NatTrans | None:
    """Search for a natural transformation f => g; None when none exists.

    The component at a component's base point determines all others by
    naturality along spanning-tree arrows, so only base-point candidates
    are tried; a full naturality sweep then accepts or rejects each choice.
    """
    if not (same_groupoid(f.dom, g.dom) and same_groupoid(f.cod, g.cod)):
        raise SignatureMismatch(
            f"{f.name!r} and {g.name!r} are not parallel")
    dom, cod = f.dom, f.cod
    component: dict[str, str] = {}
    for block in dom.components:
        rep = block[0]
        tree = dom.spanning_arrows(block)
        found = None
        for cand in cod.hom_set(f.obj_map[rep], g.obj_map[rep]):
            local = {x: conjugate(cod, g.arr_map[tree[x]], cand,
                                  f.arr_map[tree[x]])
                     for x in block}
            ok = True
            for a in dom.arrows:
                x, y = dom.src[a], dom.tgt[a]
                if x not in local:
                    continue
                if (cod.comp[(g.arr_map[a], local[x])]
                        != cod.comp[(local[y], f.arr_map[a])]):
                    ok = False
                    break
            if ok:
                found = local
                break
        if found is None:
            return None
        component.update(found)
    return NatTrans(source_fun=f, target_fun=g, component=component)
