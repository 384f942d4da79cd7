"""Finite covers, descent data with cocycle conditions, exact gluing.

Bundles over a finite base are a total set with a projection; overlap
elements of a cover are explicit pairs (u, v) with matching base image, so
both compatibility conditions are pointwise-checkable with witnesses.
Only set-valued descent lives here.

A datum is checked and glued by one sweep over its transition tables
(:func:`_sweep`).  :func:`validate_datum` names a structural fault and the
cocycle sweep names a cocycle failure; both run only on a datum that does
not glue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import GroupoidError, first_repeat, id_part, index_arrows


class DescentError(GroupoidError):
    pass


class NotSurjective(DescentError):
    pass


class CocycleViolation(DescentError):
    pass


class BadDatum(DescentError):
    pass


@dataclass(frozen=True, eq=False)
class Bundle:
    name: str
    base: tuple[str, ...]
    total: tuple[str, ...]
    proj: dict[str, str]

    def validate(self) -> "Bundle":
        base = set(self.base)
        for a in self.total:
            if self.proj.get(a) not in base:
                raise BadDatum(f"projection undefined or off-base at {a!r}",
                               witness=a)
        return self


@dataclass(frozen=True, eq=False)
class CoverPiece:
    name: str
    elements: tuple[str, ...]
    to_base: dict[str, str]


@dataclass(frozen=True, eq=False)
class Cover:
    """Pieces mapped onto a finite base.  A cover is treated as immutable
    once built: its check, its :attr:`by_base` index and its overlaps are
    cached."""
    name: str
    base: tuple[str, ...]
    pieces: tuple[CoverPiece, ...]

    def validate(self) -> "Cover":
        """Distinct base points and piece names, no element twice in a
        piece, every element mapped onto the base, every base point hit.
        A cover that passes is not checked again; one that fails raises on
        every call."""
        self._checked  # cached as True, not as self: no cycle to collect
        return self

    @cached_property
    def _checked(self) -> bool:
        dup = first_repeat(self.base)
        if dup is not None:
            raise BadDatum(f"cover {self.name!r} lists base point {dup!r} "
                           "twice", witness=dup)
        names = [p.name for p in self.pieces]
        if len(set(names)) != len(names):
            dup = first_repeat(names)
            raise BadDatum(f"cover {self.name!r} has two pieces named "
                           f"{dup!r}", witness=dup)
        base = set(self.base)
        hit = set()
        for p in self.pieces:
            if len(set(p.elements)) != len(p.elements):
                dup = first_repeat(p.elements)
                raise BadDatum(f"piece {p.name!r} lists {dup!r} twice",
                               witness=dup)
            for u in p.elements:
                x = p.to_base.get(u)
                if x not in base:
                    raise BadDatum(
                        f"piece {p.name!r} maps {u!r} off the base", witness=u)
                hit.add(x)
        if hit != base:
            raise NotSurjective(
                f"cover {self.name!r} misses {sorted(base - hit)}",
                witness=tuple(sorted(base - hit)))
        return True

    @cached_property
    def by_base(self) -> dict[str, dict[str, list[str]]]:
        """Each piece's elements grouped by their base point, in piece
        order; every element must be mapped."""
        return {p.name: index_arrows(p.elements, p.to_base)
                for p in self.pieces}

    def overlap(self, pi: CoverPiece, pj: CoverPiece) -> tuple:
        """U_i x_X U_j as explicit pairs, for two pieces of this cover; the
        pairs come in the order of U_i's elements, then U_j's.  Built once
        per ordered pair and kept on the cover, as :attr:`by_base` is."""
        kept = self.__dict__.setdefault("_overlaps", {})
        if (pi, pj) not in kept:
            over = self.by_base[pj.name]
            kept[pi, pj] = tuple([(u, v) for u in pi.elements
                                  for v in over.get(pi.to_base[u], ())])
        return kept[pi, pj]


@dataclass(frozen=True, eq=False)
class DescentDatum:
    """Per-piece bundles plus transition bijections over every ordered
    overlap, indexed transitions[(i, j)][(u, v)][a] = b.  A datum is
    treated as immutable once built: it is checked and glued through its
    charts at most once, and :func:`check_cocycle` and :func:`glue` share
    the cached outcome."""
    name: str
    cover: Cover
    fibres: dict[str, Bundle]
    transitions: dict[tuple[str, str], dict[tuple[str, str], dict[str, str]]]

    @cached_property
    def _glued(self) -> "GlueResult | None":
        """:func:`_glue_once`, cached.  A BadDatum is not cached: it is
        raised again on every call."""
        return _glue_once(self)

    @cached_property
    def _cocycle(self) -> "CocycleReport":
        if self._glued is not None:
            return CocycleReport(ok=True)
        return _first_failure(self)


def validate_datum(d: DescentDatum) -> DescentDatum:
    """Structural totality: one bundle per piece, a total bijection on each
    ordered overlap pair, fibrewise, and no transition off the overlaps.
    Raises the first fault found, in this order.  :func:`check_cocycle`
    and :func:`glue` run it only on a datum that does not glue, to name
    its fault; a datum that glues satisfies it (see :func:`_sweep`)."""
    d.cover.validate()
    fibres = {}
    for p in d.cover.pieces:
        if p.name not in d.fibres:
            raise BadDatum(f"no bundle over piece {p.name!r}", witness=p.name)
        bundle = d.fibres[p.name].validate()
        if set(bundle.base) != set(p.elements):
            raise BadDatum(f"bundle over {p.name!r} has the wrong base",
                           witness=p.name)
        # each fibre sorted once, for every overlap pair it meets
        fibres[p.name] = {u: sorted(fibre) for u, fibre in
                          index_arrows(bundle.total, bundle.proj).items()}
    for pi in d.cover.pieces:
        fib_i = fibres[pi.name]
        for pj in d.cover.pieces:
            fib_j = fibres[pj.name]
            key = (pi.name, pj.name)
            table = d.transitions.get(key)
            if table is None:
                raise BadDatum(f"missing transitions for {key}", witness=key)
            pairs = d.cover.overlap(pi, pj)
            for (u, v) in pairs:
                m = table.get((u, v))
                if m is None:
                    raise BadDatum(
                        f"missing transition over overlap {(u, v)} of {key}",
                        witness=(key, (u, v)))
                if sorted(m) != fib_i.get(u, []) or \
                        sorted(m.values()) != fib_j.get(v, []):
                    raise BadDatum(
                        f"transition over {(u, v)} of {key} is not a "
                        "fibre bijection", witness=(key, (u, v)))
            # the pairs are distinct (Cover.validate), so a surplus entry
            # means one off the overlap
            if len(table) != len(pairs):
                known = set(pairs)
                stray = next(uv for uv in sorted(table) if uv not in known)
                raise BadDatum(f"transition over {stray} of {key} is not "
                               "over an overlap pair", witness=(key, stray))
    if len(d.transitions) != len(d.cover.pieces) ** 2:
        names = {p.name for p in d.cover.pieces}
        stray = next(k for k in sorted(d.transitions)
                     if k[0] not in names or k[1] not in names)
        raise BadDatum(f"transitions for {stray} name a piece outside the "
                       "cover", witness=stray)
    return d


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    failure: tuple | None = None

    def __bool__(self):
        return self.ok


def check_cocycle(d: DescentDatum) -> CocycleReport:
    """Condition (a): diagonal transitions restrict to the identity.
    Condition (b): the triple-overlap composite f_jk . f_ij = f_ik,
    pointwise over every double and triple overlap element.

    The one sweep of :func:`glue` over the transition tables decides the
    answer (:func:`_sweep`): when every table passes its checks and every
    entry stays in its chart class, the datum is valid and both conditions
    hold.  Only when the datum does not glue does :func:`validate_datum`
    run, to raise its structural fault, and when it passes, every double
    and triple overlap is swept, to name the first failure."""
    return d._cocycle


def _first_failure(d: DescentDatum) -> CocycleReport:
    """The cocycle sweep over a validated datum, stopping at the first
    failing point."""
    for p in d.cover.pieces:
        table = d.transitions[(p.name, p.name)]
        for u in p.elements:
            m = table[(u, u)]
            for a, b in m.items():
                if a != b:
                    return CocycleReport(ok=False,
                                         failure=("a", p.name, u, a, b))
    by_base = d.cover.by_base
    for pi in d.cover.pieces:
        for pj in d.cover.pieces:
            t_ij = d.transitions[(pi.name, pj.name)]
            for pk in d.cover.pieces:
                t_jk = d.transitions[(pj.name, pk.name)]
                t_ik = d.transitions[(pi.name, pk.name)]
                over_j, over_k = by_base[pj.name], by_base[pk.name]
                for u in pi.elements:
                    x = pi.to_base[u]
                    ws = over_k.get(x, ())
                    if not ws:
                        continue
                    for v in over_j.get(x, ()):
                        fij = t_ij[(u, v)]
                        for w in ws:
                            fjk, fik = t_jk[(v, w)], t_ik[(u, w)]
                            for a, b in fij.items():
                                if fjk[b] != fik[a]:
                                    return CocycleReport(
                                        ok=False,
                                        failure=("b",
                                                 (pi.name, pj.name, pk.name),
                                                 (u, v, w), a))
    return CocycleReport(ok=True)


@dataclass(frozen=True, eq=False)
class GlueResult:
    bundle: Bundle
    piece_maps: dict[str, dict[tuple[str, str], str]]
    # piece_maps[i][(u, a)] = glued element representing a over u


def glue(d: DescentDatum) -> GlueResult:
    """Quotient of the disjoint union of the local bundles by the
    transition relation; raises CocycleViolation when the data does not
    glue coherently.  Returns the glued bundle over the cover's base plus
    the per-piece comparison isomorphisms.  A class has id ``piece.elem``
    after its least (piece, element) member, piece escaped by
    ``core.id_part``.

    The classes are read off one chart per base point, and one sweep over
    the transition tables both checks the datum and checks each entry
    against them (see :func:`_sweep`).  On failure :func:`validate_datum`
    and the cocycle sweep of :func:`check_cocycle` only name the fault.
    Every call on one datum returns the same result object."""
    glued = d._glued
    if glued is None:
        report = d._cocycle
        raise CocycleViolation(f"cocycle conditions fail: {report.failure}",
                               witness=report.failure)
    return glued


def _glue_once(d: DescentDatum) -> GlueResult | None:
    """The quotient: the result, or None when the datum does not glue.

    :func:`_sweep` checks the datum and classes every element.  When it
    fails, :func:`validate_datum` runs to raise the datum's first
    structural fault, in its own order; when that passes, the failure was
    a class check, and the cocycle conditions fail (see :func:`_sweep`).
    Each class is named after its least (piece, element) member, which no
    other class shares, and each comparison is a bijection onto the glued
    fibre."""
    swept = _sweep(d)
    if swept is None:
        validate_datum(d)
        return None
    cls, least, base_of = swept
    head = {p.name: id_part(p.name, ".") for p in d.cover.pieces}
    ids = [f"{head[piece]}.{elem}" for piece, elem in least]
    bundle = Bundle(name=f"glue({d.name})", base=d.cover.base,
                    total=tuple(sorted(ids)), proj=dict(zip(ids, base_of)))
    piece_maps: dict[str, dict[tuple[str, str], str]] = {}
    for p in d.cover.pieces:
        fib, cp = d.fibres[p.name], cls[p.name]
        piece_maps[p.name] = {(fib.proj[a], a): ids[cp[a]]
                              for a in fib.total}
    return GlueResult(bundle=bundle, piece_maps=piece_maps)


def _sweep(d: DescentDatum) -> tuple | None:
    """One pass over the datum that both checks it and classes each
    element: per piece the class of each element, per class its least
    member and its base point; None when any check fails.

    The classes are read off one chart per base point x: the first piece
    point (c, u) over x in cover order.  Each element of the chart's fibre
    starts one class, and every point (q, v) over x takes its classes
    through the table f_cq over (u, v).  Then one sweep over every
    transition table checks:
    - per bundle, that it lies over its piece's elements, each element of
      its total listed once;
    - per table over (u, v) of (i, j), that u and v lie over one base
      point, that its keys are the fibre of i over u, and that the fibre
      of j over v holds every value;
    - that there are n^2 piece pairs, n the pieces, and as many tables
      over pairs (u, v) in all as the overlaps have pairs;
    - per entry a -> b, that b lies in the class of a.
    An element that no chart table reaches keeps "no class", which
    differs from every class.

    **A datum that passes satisfies validate_datum.**  The piece pairs
    are n^2 pairs of pieces, so they are all of them.  The pairs (u, v)
    of a piece pair's tables are distinct overlap pairs, so no piece pair
    has more tables than its overlap has pairs; as all of them have as
    many as all overlaps have, each piece pair has one table over each
    pair of its overlap and no other.  Distinct totals
    make each fibre a set.  It remains that each table is a bijection of
    the fibres.  The only table that gives the elements over a point
    (q, v) over x their classes is the chart table f_cq over (u, v): each
    of its values, which lie over v, takes the start class of its key.
    - The chart's own table f_cc over (u, u) maps the chart's fibre into
      itself.  An element a that it misses has no class, while f_cc(a), a
      value, has one, so the class check at a would fail.  So f_cc is
      onto, hence a bijection; the chart's fibre takes each start class
      once, a's class being that of f_cc^-1(a), and the class check
      (a's class is that of f_cc(a)) makes f_cc the identity.
    - Over another point (q, v) over x, the class check on f_cq gives
      each value the class of its key, so two keys with one value would
      have one class: f_cq is injective.  An element b over v that f_cq
      misses has no class, while f_qc over (v, u) sends b into the
      chart's fibre, where every element has a class: the class check at
      b would fail.  So f_cq is a bijection, and the fibre over v takes
      each start class of x once.
    - So over x every fibre carries the start classes of x, each once.  A
      table m over (u, v) sends its keys, the fibre over u, into the fibre
      over v, and by the class check keeps each class: it is a bijection.
    The fibres over u and v thus always have one size, so no size test is
    made.

    **The classes glue the datum when it passes** (and validate_datum
    holds, as just shown).  These are exactly the classes that the
    transitions generate: each member is linked to its chart element, and
    the class check says that no link joins two classes.

    **A datum that satisfies validate_datum and fails the sweep fails the
    cocycle conditions.**  Such a datum passes every check but a class
    check, so f_ij(a) = b lies outside the class of a for some a over
    (i, u).  The generated relation joins the classes of a and of
    f_ij(a).  Each meets i's fibre over u, so two elements of that fibre
    are joined.  When (a) and (b) hold, f_ij(a) = b is already an
    equivalence relation (f_ji . f_ij = f_ii = id), and as f_ii is the
    identity it joins no two elements of one fibre.  So the cocycle
    conditions fail.

    A table keyed by the fibre of another point of i over the same base
    point passes every class check; the key test rejects it.  A value
    over the right base point but the wrong point of j passes its class
    check too; the value test rejects it.
    """
    cover = d.cover.validate()
    pieces, trans = cover.pieces, d.transitions
    fib: dict[str, dict[str, dict[str, None]]] = {}
    cls: dict[str, dict[str, int]] = {}
    for p in pieces:
        bundle = d.fibres.get(p.name)
        if bundle is None or set(bundle.base) != set(p.elements):
            return None
        by_point = fib[p.name] = {u: {} for u in p.elements}
        for a in bundle.total:
            fibre = by_point.get(bundle.proj.get(a))
            if fibre is None:
                return None
            fibre[a] = None
        # no class yet; a total listed twice leaves fewer keys
        cls[p.name] = dict.fromkeys(bundle.total, -1)
        if len(cls[p.name]) != len(bundle.total):
            return None
    over: dict[str, list[tuple[str, str]]] = {}
    for p in pieces:
        for u in p.elements:
            over.setdefault(p.to_base[u], []).append((p.name, u))
    least, base_of = [], []  # each class's least member and base point
    for x, points in over.items():
        c, u = points[0]
        start = {a: len(least) + k for k, a in enumerate(fib[c][u])}
        # a class meets every point over x once, so its least member lies
        # over a point of the least piece over x
        lead = min(q for q, _ in points)
        lead_maps = []
        for q, v in points:
            row = trans.get((c, q))
            m = row.get((u, v)) if row is not None else None
            if m is None or m.keys() != start.keys():
                return None
            cq = cls[q]
            for a, b in m.items():
                cq[b] = start[a]
            if q == lead:
                lead_maps.append(m)
        if len(lead_maps) == 1:
            m = lead_maps[0]
            least += [(lead, m[a]) for a in start]
        else:
            least += [(lead, min(m[a] for m in lead_maps)) for a in start]
        base_of += [x] * len(start)
    # the points over x make len(points) ** 2 overlap pairs, one table each
    if len(trans) != len(pieces) ** 2 or sum(map(len, trans.values())) \
            != sum(len(points) ** 2 for points in over.values()):
        return None
    to_base = {p.name: p.to_base for p in pieces}
    for (i, j), table in trans.items():
        fi, fj = fib.get(i), fib.get(j)
        if fi is None or fj is None:
            return None
        ci, cj = cls[i], cls[j]
        ti, tj = to_base[i], to_base[j]
        for (u, v), m in table.items():
            fu, fv = fi.get(u), fj.get(v)
            if fu is None or fv is None or ti[u] != tj[v] or \
                    m.keys() != fu.keys():
                return None
            for a, b in m.items():
                if b not in fv or ci[a] != cj[b]:
                    return None
    return cls, least, base_of


def descend(a: Bundle, c: Cover) -> DescentDatum:
    """Pull the bundle back along every piece; canonical transitions.  The
    cocycle conditions hold by construction.  The element e over the piece
    point u has id ``u.e``, u escaped by ``core.id_part``."""
    a.validate()
    c.validate()
    if set(a.base) != set(c.base):
        raise BadDatum("bundle and cover have different bases")
    fibre = index_arrows(a.total, a.proj)
    ids: dict[str, dict[str, list[str]]] = {}  # piece -> u -> ids over u
    fibres = {}
    for p in c.pieces:
        over = ids[p.name] = {}
        total, proj = [], {}
        for u in p.elements:
            head = id_part(u, ".")
            over[u] = pulled = []
            for e in fibre.get(p.to_base[u], ()):
                t = f"{head}.{e}"
                pulled.append(t)
                total.append(t)
                proj[t] = u
        fibres[p.name] = Bundle(name=f"{a.name}|{p.name}", base=p.elements,
                                total=tuple(total), proj=proj)
    # u and v lie over one base point, so their ids list one fibre in order
    transitions = {(pi.name, pj.name): {
        (u, v): dict(zip(ids[pi.name][u], ids[pj.name][v]))
        for (u, v) in c.overlap(pi, pj)}
        for pi in c.pieces for pj in c.pieces}
    return DescentDatum(name=f"desc({a.name})", cover=c, fibres=fibres,
                        transitions=transitions)
