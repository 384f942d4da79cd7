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
Every groupoid this package builds is built by :func:`tabulate` (the
discrete, pair and point groupoids, Pair(m) x K, every homotopy pullback
and cocylinder, inflation, restrictions and disjoint unions) and stores
no ``comp`` entry: its ``comp`` is a read-only :class:`Composite` that
composes the arrows' parts when it is read.  Only a parsed groupoid
keeps a dict.

The cocylinder [I, G] is the degree-1 homotopy pullback of G -> G <- G
along the identity twice, so :func:`cocylinder` calls the pullback
builder in :mod:`grpd.homotopy` rather than building squares itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from operator import itemgetter


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
    comp: Mapping[tuple[str, str], str]
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
    def after(self) -> dict[str, dict[str, str]]:
        """Rows of ``comp`` by first arrow: ``after[p][q] = comp[q, p]``
        ("p then q"), for the builders that compose a whole row at once.
        Each row is read through :func:`comp_row`, so a stored and a
        computed table give the same rows by the same path."""
        comp, outs, tgt = self.comp, self.arrows_from, self.tgt
        return {a: dict(zip(outs[tgt[a]], comp_row(comp, a, outs[tgt[a]])))
                for a in self.arrows}

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

    @cached_property
    def tree(self) -> dict[str, str]:
        """Spanning-tree arrows ``tree[x]: rep -> x``, rep the least object
        of x's component and ``tree[rep]`` its unit, built component by
        component in BFS order."""
        tree: dict[str, str] = {}
        for block in self.components:
            queue = [block[0]]
            tree[block[0]] = self.unit[block[0]]
            for x in queue:
                first: dict[str, str] = {}  # new object -> first arrow to it
                for a in self.arrows_from[x]:
                    if self.tgt[a] not in tree:
                        first.setdefault(self.tgt[a], a)
                tree.update(zip(first, comp_row(self.comp, tree[x],
                                                first.values())))
                queue += first
        return tree

    @cached_property
    def tree_loop(self) -> dict[str, str]:
        """The trivialization: each arrow a: x -> y sent to the loop
        tree[y]^-1 . a . tree[x] at its component's base point (see
        :attr:`tree`).  In a valid groupoid a -> (x, y, tree_loop[a]) is an
        isomorphism onto Pair(block) x hom(base, base), by Brandt's
        theorem."""
        tree, comp, inv = self.tree, self.comp, self.inv
        inner = {}  # a . tree[x], one row per object x
        for x, outs in self.arrows_from.items():
            inner.update(zip(outs, comp_row(comp, tree[x], outs)))
        return {a: comp[inv[tree[self.tgt[a]]], inner[a]]
                for a in self.arrows}

    def isotropy(self, x: str):
        """The isotropy group at x: its loops (sorted) and their
        multiplication table by index, built once per object and kept on
        the instance, so that it is freed with the groupoid."""
        memo = self.__dict__.setdefault("_isotropy", {})
        if x not in memo:
            memo[x] = _isotropy_table(self, x)
        return memo[x]

    @cached_property
    def generators(self) -> tuple[str, ...]:
        """Non-units of which, with the units, every arrow is an iterated
        composite, read off Brandt's decomposition (see :attr:`tree_loop`):
        per component, each non-unit spanning-tree arrow tree[x] and its
        inverse, then the loops at the base point, longest order first
        (ties in id order), each outside the span of those before it.  In
        a valid groupoid a: x -> y is tree[y] . tree_loop[a] . tree[x]^-1.
        At most three loops are listed for each catalog group and for the
        order-24 products A4xZ2, Dic3xZ2, Q8xZ3, Z2^3xZ3 and D6xZ2.  Needs
        a total ``comp``; associativity is not assumed, so a power walk
        stops after |hom(base, base)| steps (see validate_groupoid)."""
        gens: list[str] = []
        for block in self.components:
            for x in block[1:]:
                gens += (self.tree[x], self.inv[self.tree[x]])
            loops, table = self.isotropy(block[0])
            n, u = len(loops), loops.index(self.unit[block[0]])

            def order(a):
                x, k = a, 1
                while x != u and k < n:
                    x, k = table[x][a], k + 1
                return k

            picked, reach, span = [], [u], {u}
            for a in sorted(range(n), key=order, reverse=True):
                if a not in span:
                    gens.append(loops[a])
                    picked.append(a)
                    for x in reach:  # grows as it is read
                        for s in picked:
                            y = table[s][x]
                            if y not in span:
                                span.add(y)
                                reach.append(y)
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


def _isotropy_table(g: FinGroupoid, x: str):
    """Builds :meth:`FinGroupoid.isotropy` at x."""
    loops = g.hom_set(x, x)
    index = {a: i for i, a in enumerate(loops)}
    # the row of loop b holds "b then q" = table[q][b] for each loop q:
    # column b
    cols = [list(map(index.__getitem__, comp_row(g.comp, b, loops)))
            for b in loops]
    return loops, tuple(zip(*cols))


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
    Associativity is decided on each component's isotropy group through
    the cached trivialization :attr:`FinGroupoid.tree_loop`; only a table
    that fails there is searched for a failing triple.  The unit and
    inverse laws are read off the same labels (see :func:`_laws_on_labels`);
    the per-arrow checks run only when that fails, to name the failure.  A
    computed ``comp`` composes each row once, whichever read comes first
    (see :class:`Composite`), so the checks read the table that is
    written; only a table that fails is read entry by entry, to name the
    failure.
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
    # Brandt's theorem: a valid component is Pair(block) x K, K the loops
    # at its base point, through a -> (src a, tgt a, lam(a)), lam the
    # trivialization.  Conversely, once the table checks below pass, (i)
    # lam injective on each hom set, (ii) lam(p.q) = lam(p).lam(q) on every
    # comp entry and (iii) K associative give associativity:
    #   lam((c.b).a) = (lam c.lam b).lam a = lam c.(lam b.lam a)
    #                = lam(c.(b.a)),
    # and both sides share their ends, so by (i) they are equal.  A
    # groupoid passes all three, so failing one proves a triple fails.
    # (ii) rides on the shape sweep, one read of each comp entry (by
    # items() on a stored table, by blocks() on a computed one), over
    # labels: an arrow a is (src a, tgt a, row of lam(a) in its base
    # point's isotropy table, index of lam(a) there), so lam(r) ==
    # lam(p).lam(q) is
    # ir == row_p[iq]; p and q share a component once sp == tq.  Labels
    # are keyed by the arrows, so reading them also checks that p, q and r
    # are arrows.  Both run before the table is known to be total, so a
    # missing entry or id, or a lam(a) that is no loop at the base point
    # of a's component, raises KeyError; then the checks below name the
    # fault.
    try:
        lam, label = g.tree_loop, {}
        for block in g.components:
            loops, table = g.isotropy(block[0])
            at = {s: (row, i) for i, (s, row) in enumerate(zip(loops, table))}
            for x in block:
                for a in g.arrows_from[x]:
                    label[a] = (x, tgt[a], *at[lam[a]])
        labelled = (_labels_multiply_on_blocks(comp, label)
                    if isinstance(comp, Composite)
                    else _labels_multiply(comp, label))
    except KeyError:
        labelled = False
    if not labelled:
        # report the least bad entry, if the shape is at fault
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
    # (i) by counting; then the unit and inverse laws off the labels, or,
    # when that fails, the per-arrow checks name the first failing arrow
    injective = labelled and len({(s, t, i) for s, t, _, i in
                                  label.values()}) == len(arrows)
    if not (injective and _laws_on_labels(g, label)):
        for a in g.arrows:
            if (comp[(a, g.unit[src[a]])] != a
                    or comp[(g.unit[tgt[a]], a)] != a):
                raise BadUnit(f"unit is not an identity against arrow {a!r}",
                              witness=src[a])
        for a in g.arrows:
            b = g.inv[a]
            if src[b] != tgt[a] or tgt[b] != src[a]:
                raise BadInverse(f"inv({a!r}) has wrong endpoints", witness=a)
            if (comp[(b, a)] != g.unit[src[a]]
                    or comp[(a, b)] != g.unit[tgt[a]]):
                raise BadInverse(f"inv({a!r}) is not a two-sided inverse",
                                 witness=a)
    # then (iii) on each base point's isotropy table over the loops among
    # g.generators there: generators lists loops until their span is the
    # whole table
    if injective:
        gens_from = index_arrows(g.generators, src)
        if all(_light_at(g, block[0], gens_from.get(block[0], ()))
               for block in g.components):
            return g
    # Light's associativity test.  Let M be the set of arrows b with
    # (c.b).a == c.(b.a) for all composable a and c.  M is closed under
    # composition: for b1, b2 in M with b2.b1 defined,
    #   (c.(b2.b1)).a = ((c.b2).b1).a = (c.b2).(b1.a) = c.(b2.(b1.a))
    #                 = c.((b2.b1).a),
    # using that b2, b1, b2 and b1 lie in M, in turn.  Units lie in M
    # because the unit laws were checked first.  Suppose every generator
    # lies in M.  Then every arrow is a composite of arrows of M, so all
    # lie in M, which holds on any table that passed the checks above, with
    # no associativity assumed.  By Brandt's decomposition, in each
    # component with base point base:
    # - a base loop is a composite of the loop generators, as generators
    #   lists loops until their span holds every loop;
    # - a: base -> y is t.(t^-1.a), t = tree[y], by the triple with t^-1 in
    #   the middle, and t^-1.a is a base loop;
    # - d: x -> base is (d.t).t^-1, t = tree[x], by the triple with t in
    #   the middle, and d.t is a base loop;
    # - any other a: x -> y is t.(t^-1.a), t = tree[y], as in the first
    #   case, and t^-1.a is an arrow into base.
    # The inverse laws turn t.t^-1 and t^-1.t into units in each case.
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


def _labels_multiply(comp, label) -> bool:
    """(ii) of validate_groupoid, one read of each entry of a stored
    table: whether every (p, q) -> r composes, r keeps q's source and p's
    target, and lam(r) == lam(p).lam(q)."""
    for (p, q), r in comp.items():
        sp, tp, row_p, _ = label[p]
        sq, tq, _, iq = label[q]
        sr, tr, _, ir = label[r]
        if sp != tq or sr != sq or tr != tp or ir != row_p[iq]:
            return False
    return True


def _labels_multiply_on_blocks(comp: Composite, label) -> bool:
    """:func:`_labels_multiply` on a computed table, one object y at a
    time from ``comp.blocks()``: each row r = comp[p, q] of an arrow q
    into y, against the arrows p out of y (composable by construction),
    is compared in bulk with the (src, tgt, index) labels
    (src q, tgt p, row_p[iq]) it must carry."""
    key = {a: (s, t, i) for a, (s, t, _, i) in label.items()}
    for ins, outs, rows in comp.blocks():
        tps = [label[p][1] for p in outs]
        prows = [label[p][2] for p in outs]
        for q, row in zip(ins, rows):
            sq, _, _, iq = label[q]
            if (list(map(key.__getitem__, row))
                    != list(zip(repeat(sq), tps, map(itemgetter(iq), prows)))):
                return False
    return True


def _laws_on_labels(g: FinGroupoid, label) -> bool:
    """Whether the unit and inverse laws hold, read off injective labels
    (see validate_groupoid) that passed (ii) on a total table: each base
    point's isotropy table has a two-sided identity e, the label index of
    its unit; every unit[x] (a loop at x, checked before) has index e;
    every inv[a] runs from tgt a to src a and has an index j with
    table[j][i_a] == table[i_a][j] == e.

    Each entry's label is fixed by (ii): (q, p) -> r carries (src p,
    tgt q, table[i_q][i_p]), and as labels are injective, that label
    fixes r.  So for a: x -> y, the entry (a, unit[x]) carries (x, y,
    table[i_a][e]) = (x, y, i_a), the label of a, and is a; likewise
    (unit[y], a) by the identity row; (inv a, a) carries (x, x,
    table[j][i_a]) = (x, x, e), the label of unit[x], and is unit[x]; and
    likewise (a, inv a) is unit[y].  Conversely, once the laws hold,
    units and inverses are found in every entry above: the loops at a
    base point b carry every index of its table, so the unit laws there
    make e = i_unit[b] a two-sided identity; lam(unit[x]) = tree[x]^-1 .
    tree[x] = unit[b] has index e; and the inverse laws give the two
    products of j and i_a as e.  So False only when a law fails, and
    validate_groupoid's per-arrow checks then name the first failure."""
    unit, inv = g.unit, g.inv
    for block in g.components:
        _, table = g.isotropy(block[0])
        e = label[unit[block[0]]][3]
        if (table[e] != tuple(range(len(table)))
                or any(row[e] != i for i, row in enumerate(table))):
            return False
        for x in block:
            if label[unit[x]][3] != e:
                return False
            for a in g.arrows_from[x]:
                _, y, row_a, i = label[a]
                sb, tb, row_b, j = label[inv[a]]
                if sb != y or tb != x or row_b[i] != e or row_a[j] != e:
                    return False
    return True


def _light_at(g: FinGroupoid, base: str, gens) -> bool:
    """Light's test (see validate_groupoid) on the isotropy table at
    ``base``, by index: whether (c.b).a == c.(b.a) for the loops b at base
    among ``gens`` and all loops a, c there."""
    loops, table = g.isotropy(base)
    index = {a: i for i, a in enumerate(loops)}
    cols = tuple(zip(*table))  # cols[y][x] = x.y
    return all(cols[ba] == tuple(map(cols[a].__getitem__, cols[b]))
               for b in (index[s] for s in gens if s in index)
               for a, ba in enumerate(table[b]))


# ---------------------------------------------------------------------------
# basic constructions


def id_part(s: str, sep: str) -> str:
    """An id part followed by a bare ``sep``: ``s`` with each ``\\`` and
    ``sep`` backslashed, so the first bare ``sep`` ends it and distinct
    parts give distinct ids.  An ``s`` holding neither is unchanged."""
    if sep in s or "\\" in s:
        return s.replace("\\", "\\\\").replace(sep, "\\" + sep)
    return s


class Composite(Mapping):
    """The ``comp`` of a :func:`tabulate` groupoid, computed when read from
    the arrows' parts and the ``compose`` it was built with.  Each arrow
    a's row, ``compose(a's part, parts of every arrow out of tgt a)``, is
    composed the first time any read needs it and kept, so ``compose``
    runs only on full rows, at most once per arrow for the table's
    lifetime; every read (lookups, :func:`comp_row`, :meth:`blocks`)
    comes from the kept rows.  A row is kept as a tuple, so no reader can
    change it.  ``comp[q, a]`` ("a then q") is defined exactly when
    ``src[q] == tgt[a]``, as in a dict; the keys come row by row, in
    arrow order; :meth:`blocks` reads by target, one object at a time;
    ``len`` is counted once, when the table is made."""

    __slots__ = ("_parts", "_src", "_tgt", "_out_parts", "_out_ids",
                 "_pos", "_compose", "_len", "_kept")

    def __init__(self, arrows: dict, src, tgt, compose):
        self._parts = {a: p for p, a in arrows.items()}
        self._src, self._tgt, self._compose = src, tgt, compose
        # the parts and ids of the arrows out of each object, in arrow
        # order, and each arrow's place among those out of its source
        self._out_parts, self._out_ids, self._pos = {}, {}, {}
        for p, a in arrows.items():
            outs = self._out_ids.setdefault(src[a], [])
            self._pos[a] = len(outs)
            outs.append(a)
            self._out_parts.setdefault(src[a], []).append(p)
        self._len = sum(len(self._out_ids.get(tgt[a], ()))
                        for a in self._parts)
        self._kept = {}

    def _row(self, a) -> tuple[str, ...]:
        """a's row, "a then q" for each q out of tgt a in arrow order,
        composed on the first call and kept."""
        row = self._kept.get(a)
        if row is None:
            row = self._kept[a] = tuple(self._compose(
                self._parts[a], self._out_parts.get(self._tgt[a], ())))
        return row

    def __contains__(self, key):
        try:
            q, a = key
            return self._src[q] == self._tgt[a]
        except (KeyError, TypeError, ValueError):
            return False

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        q, a = key
        return self._row(a)[self._pos[q]]

    def __iter__(self):
        out_ids, tgt = self._out_ids, self._tgt
        for a in self._parts:
            yield from zip(out_ids.get(tgt[a], ()), repeat(a))

    def __len__(self):
        return self._len

    def blocks(self):
        """For each object y that an arrow enters: the arrows into y, in
        arrow order; the arrows out of y, in arrow order; and the rows of
        the arrows into y, so that ``rows[i][j] == self[outs[j], ins[i]]``."""
        ins = {}
        for a in self._parts:
            ins.setdefault(self._tgt[a], []).append(a)
        for y, into in ins.items():
            yield into, self._out_ids.get(y, ()), list(map(self._row, into))


def comp_row(comp: Mapping, a: str, qs) -> list[str]:
    """``[comp[q, a] for q in qs]``, "a then q" for each q: plain reads on
    a stored table, reads of a's kept row on a :class:`Composite`.  A q
    that does not leave a's target raises ``KeyError``, as its lookup
    would."""
    if not isinstance(comp, Composite):
        return [comp[q, a] for q in qs]
    qs = list(qs)
    if not qs:
        return []
    # the sentinel comp is no object, so an unknown a takes no q
    if list(map(comp._src.get, qs)) != [comp._tgt.get(a, comp)] * len(qs):
        raise KeyError(next((q, a) for q in qs if (q, a) not in comp))
    row, pos = comp._row(a), comp._pos
    return [row[pos[q]] for q in qs]


def tabulate(name: str, objects, arrows: dict, ends, compose, unit,
             inv) -> FinGroupoid:
    """The groupoid presented by structured arrows.

    ``arrows`` maps each arrow's parts (a tuple, or any hashable) to its
    id, in arrow order; ``ends(p)`` gives the source and target object ids
    of the arrow with parts ``p``; ``unit(x)`` and ``inv(p)`` give parts.
    ``compose(p, qs)``, with ``qs`` parts of arrows that leave p's target,
    returns the id of "p then q" for each q.  It is not called here: the
    groupoid's ``comp`` is a :class:`Composite`, which calls it with all
    the arrows leaving p's target, in arrow order, at most once per
    arrow, and keeps the row.  ``compose`` is kept, so nothing it
    reads may change afterwards.
    """
    src, tgt = {}, {}
    for p, a in arrows.items():
        src[a], tgt[a] = ends(p)
    objects = tuple(objects)
    return FinGroupoid(
        name=name, objects=objects, arrows=tuple(arrows.values()),
        src=src, tgt=tgt, comp=Composite(arrows, src, tgt, compose),
        unit={x: arrows[unit(x)] for x in objects},
        inv={a: arrows[inv(p)] for p, a in arrows.items()})


def discrete_groupoid(name: str, objects) -> FinGroupoid:
    objects = tuple(objects)
    arrows = {x: f"id_{x}" for x in objects}
    return tabulate(name, objects, arrows, ends=lambda x: (x, x),
                    compose=lambda p, qs: [arrows[p]] * len(qs),
                    unit=lambda x: x, inv=lambda x: x)


def pair_groupoid(name: str, objects) -> FinGroupoid:
    """The pair groupoid: exactly one arrow (x, y): x -> y per object pair."""
    objects = tuple(objects)
    head = {x: id_part(x, ">") for x in objects}
    arrows = {(x, y): f"{head[x]}>{y}"
              for x, y in sorted(product(objects, objects))}
    return tabulate(name, objects, arrows, ends=lambda p: p,
                    compose=lambda p, qs: [arrows[p[0], z] for _, z in qs],
                    unit=lambda x: (x, x), inv=lambda p: (p[1], p[0]))


def restrict(g: FinGroupoid, objects, name: str | None = None) -> FinGroupoid:
    """Full subgroupoid on the given object subset, tabulated over g's own
    ids: a kept arrow's row is read off g's row of it, when it is read."""
    keep = set(objects)
    unknown = keep - set(g.objects)
    if unknown:
        raise DanglingId(f"objects {sorted(unknown)} not in {g.name}",
                         witness=sorted(unknown))
    objs = tuple(x for x in g.objects if x in keep)
    src, tgt = g.src, g.tgt
    return tabulate(
        name or f"{g.name}|{{{','.join(objs)}}}", objs,
        {a: a for a in g.arrows if src[a] in keep and tgt[a] in keep},
        ends=lambda a: (src[a], tgt[a]),
        compose=lambda a, qs: comp_row(g.comp, a, qs),
        unit=g.unit.__getitem__, inv=g.inv.__getitem__)


def disjoint_union(name: str, parts) -> FinGroupoid:
    """Disjoint union, tabulated over the parts' arrows (i, a), i the part
    index; ids are prefixed with the part index when they clash."""
    parts = list(parts)
    ids = [s for g in parts for s in (*g.objects, *g.arrows)]
    clash = len(ids) != len(set(ids))

    def tag(i, s):
        return f"{i}.{s}" if clash else s

    def ends(p):
        i, a = p
        return tag(i, parts[i].src[a]), tag(i, parts[i].tgt[a])

    def compose(p, qs):
        i, a = p
        return [tag(i, r)
                for r in comp_row(parts[i].comp, a, [q for _, q in qs])]

    units = {tag(i, x): (i, g.unit[x]) for i, g in enumerate(parts)
             for x in g.objects}
    return tabulate(
        name, units, {(i, a): tag(i, a) for i, g in enumerate(parts)
                      for a in g.arrows},
        ends=ends, compose=compose, unit=units.__getitem__,
        inv=lambda p: (p[0], parts[p[0]].inv[p[1]]))


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
    objset, arrset = set(g.objects), set(g.arrows)
    for x in h.objects:
        if x not in f.obj_map:
            raise BadFunctor(f"object map undefined on {x!r}", witness=x)
        if f.obj_map[x] not in objset:
            raise BadFunctor(f"obj_map({x!r}) not an object of {g.name}",
                             witness=x)
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
    # The arrows a with F(b.a) = F(b).F(a) for every b out of tgt(a) are
    # closed under composition: for a1, a2 among them with a2.a1 defined,
    #   F(b.(a2.a1)) = F((b.a2).a1) = F(b.a2).F(a1) = F(b).F(a2).F(a1)
    #                = F(b).F(a2.a1),
    # using associativity in h and g.  Every arrow is an iterated composite
    # of h.generators and the units, so checking those covers every pair,
    # one row per generator a in h and one in g.  Units lie among them
    # because the unit laws were checked first: F(e) is a unit, so F(b.e)
    # = F(b) = F(b).F(e).  Units are compared first, the cheapest sign of
    # a bad functor.  Only when either check fails is every comp entry
    # swept, to report the same first failing pair as a full sweep would.
    am, hc, gc = f.arr_map, h.comp, g.comp

    def preserves_row(a):
        bs = h.arrows_from[h.tgt[a]]
        return (list(map(am.__getitem__, comp_row(hc, a, bs)))
                == comp_row(gc, am[a], list(map(am.__getitem__, bs))))

    if not (all(am[h.unit[x]] == g.unit[f.obj_map[x]] for x in h.objects)
            and all(map(preserves_row, h.generators))):
        for (p, q), r in hc.items():
            if gc[(am[p], am[q])] != am[r]:
                raise BadFunctor(
                    f"composition not preserved on ({p!r}, {q!r})",
                    witness=(p, q))
    # Units and inverses follow once composition holds on every pair: for
    # a unit e, F(e) = F(e.e) = F(e).F(e) is an idempotent loop, hence a
    # unit, and F(a^-1).F(a) = F(a^-1.a) = F(e), so F(a^-1) = F(a)^-1.
    return f


def validate_joined(structures, check):
    """Validate every groupoid that the structures join (their ``dom`` and
    ``cod``), each once and in order of first appearance, then each
    structure by ``check``; return the structures."""
    for g in dict.fromkeys(x for s in structures for x in (s.dom, s.cod)):
        validate_groupoid(g)
    for s in structures:
        check(s)
    return structures


def inclusion_functor(sub: FinGroupoid, g: FinGroupoid,
                      name: str | None = None) -> StrictArrow:
    """The inclusion of a subgroupoid of g, which keeps every id."""
    return StrictArrow(name=name or f"incl_{sub.name}", dom=sub, cod=g,
                       obj_map={x: x for x in sub.objects},
                       arr_map={a: a for a in sub.arrows})


def identity_functor(g: FinGroupoid) -> StrictArrow:
    return inclusion_functor(g, g, name=f"id_{g.name}")


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
        if c not in cod.src:
            raise BadNatTrans(f"component at {x!r} not an arrow of "
                              f"{cod.name}", witness=x)
        if cod.src[c] != f.obj_map[x] or cod.tgt[c] != g.obj_map[x]:
            raise BadNatTrans(f"component at {x!r} has wrong endpoints",
                              witness=x)
    a = _unnatural(f, g, t.component, f.dom.arrows)
    if a is not None:
        raise BadNatTrans(f"naturality fails on arrow {a!r}", witness=a)
    return t


def _unnatural(f: StrictArrow, g: StrictArrow, component, arrows):
    """The first of ``arrows`` a: x -> y on which the arrows component[x]:
    f(x) -> g(x) fail naturality, g(a) . component[x] = component[y] . f(a);
    None when they are natural on all of them."""
    comp, src, tgt = f.cod.comp, f.dom.src, f.dom.tgt
    return next((a for a in arrows
                 if comp[g.arr_map[a], component[src[a]]]
                 != comp[component[tgt[a]], f.arr_map[a]]), None)


def whisker(t: NatTrans, w: StrictArrow) -> NatTrans:
    """Precompose a transformation with a functor into its domain."""
    return NatTrans(
        source_fun=compose_functors(t.source_fun, w),
        target_fun=compose_functors(t.target_fun, w),
        component={x: t.component[w.obj_map[x]] for x in w.dom.objects})


# ---------------------------------------------------------------------------
# functors by spanning-tree transport


def transport(name: str, dom: FinGroupoid, cod: FinGroupoid, imgs,
              theta) -> StrictArrow:
    """The functor x -> tgt(imgs[x]), a: x -> y -> imgs[y] . theta[lam(a)]
    . imgs[x]^-1, lam = dom.tree_loop: imgs[x] leaves the image of x's
    base point, theta maps the base loops.  By Brandt's theorem every
    functor F out of a valid dom is one, with imgs = F . tree and theta =
    F on the base loops."""
    lam, src, tgt = dom.tree_loop, dom.src, dom.tgt
    return StrictArrow(
        name=name, dom=dom, cod=cod,
        obj_map={x: cod.tgt[imgs[x]] for x in dom.objects},
        arr_map={a: conjugate(cod, imgs[tgt[a]], theta[lam[a]], imgs[src[a]])
                 for a in dom.arrows})


# ---------------------------------------------------------------------------
# cocylinder and homotopies


@dataclass(frozen=True, eq=False)
class Cocylinder:
    groupoid: FinGroupoid
    e0: StrictArrow
    e1: StrictArrow
    t: StrictArrow


def cocylinder(g: FinGroupoid) -> Cocylinder:
    """The functor groupoid [I, g], built as the degree-1 homotopy pullback
    of g -> g <- g along the identity twice: an object is an arrow
    a: x -> y of g, with id ``(x!a!y)``, and an arrow is a commuting square
    (u, v) at a, with id ``[u!v.a!v]`` (parts escaped as in ``_p1``).

    Returns the groupoid with the two endpoint evaluations e0 = pr1 and
    e1 = pr2, and the unit section t, read off the pullback: t(x) lies over
    (x, x) with the unit as connecting arrow, and t(a) lies over (a, a) out
    of t(src a).  e0 . t = e1 . t = id holds on the nose.
    """
    from .homotopy import Cospan, _p1
    ident = identity_functor(g)
    pb = _p1(Cospan(left=ident, right=ident))
    cyl, e0, e1 = pb.groupoid, pb.pr1, pb.pr2
    over = pb.cells[0].component
    units = {o: x for o, x in e0.obj_map.items() if over[o] == g.unit[x]}
    t = StrictArrow(name=f"t_{g.name}", dom=g, cod=cyl,
                    obj_map={x: o for o, x in units.items()},
                    arr_map={e0.arr_map[p]: p for p in cyl.arrows
                             if cyl.src[p] in units
                             and e0.arr_map[p] == e1.arr_map[p]})
    return Cocylinder(groupoid=cyl, e0=e0, e1=e1, t=t)


def are_homotopic(f: StrictArrow, g: StrictArrow) -> NatTrans | None:
    """Search for a natural transformation f => g; None when none exists.

    The component at a component's base point determines all others by
    naturality along spanning-tree arrows, so only base-point candidates
    are tried, each checked on the base loops among ``dom.generators``.
    These suffice: ``local`` makes the tree arrows natural, a: x -> y is
    tree[y] . lam(a) . tree[x]^-1, those loops generate the lam(a) (see
    validate_groupoid), and naturality is closed under composition and
    inverses.
    """
    if not (same_groupoid(f.dom, g.dom) and same_groupoid(f.cod, g.cod)):
        raise SignatureMismatch(
            f"{f.name!r} and {g.name!r} are not parallel")
    dom, cod = f.dom, f.cod
    component: dict[str, str] = {}
    tree = dom.tree
    loop_gens = index_arrows((s for s in dom.generators
                              if dom.src[s] == dom.tgt[s]), dom.src)
    for block in dom.components:
        rep = block[0]
        for cand in cod.hom_set(f.obj_map[rep], g.obj_map[rep]):
            local = {x: conjugate(cod, g.arr_map[tree[x]], cand,
                                  f.arr_map[tree[x]])
                     for x in block}
            if _unnatural(f, g, local, loop_gens.get(rep, ())) is None:
                component.update(local)
                break
        else:
            return None
    return NatTrans(source_fun=f, target_fun=g, component=component)
