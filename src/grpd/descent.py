"""Finite covers, descent data with cocycle conditions, exact gluing.

Bundles over a finite base are a total set with a projection; overlap
elements of a cover are explicit pairs (u, v) with matching base image, so
both compatibility conditions are pointwise-checkable with witnesses.
Only set-valued descent lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import first_repeat, index_arrows, partition


class DescentError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


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

    def fibre(self, x: str) -> tuple[str, ...]:
        return tuple(a for a in self.total if self.proj[a] == x)

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
    name: str
    base: tuple[str, ...]
    pieces: tuple[CoverPiece, ...]

    def validate(self) -> "Cover":
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
        return self

    def overlap(self, pi: CoverPiece, pj: CoverPiece):
        """U_i x_X U_j as explicit pairs."""
        return _overlap(pi, index_arrows(pj.elements, pj.to_base))


def _by_base(c: Cover) -> dict[str, dict[str, list[str]]]:
    """Each piece's elements grouped by their base point, in piece order."""
    return {p.name: index_arrows(p.elements, p.to_base) for p in c.pieces}


def _overlap(pi: CoverPiece, over: dict[str, list[str]]):
    """U_i x_X U_j from U_j's elements grouped by base point; the pairs come
    in the order of U_i's elements, then U_j's."""
    return [(u, v) for u in pi.elements for v in over.get(pi.to_base[u], ())]


@dataclass(frozen=True, eq=False)
class DescentDatum:
    """Per-piece bundles plus transition bijections over every ordered
    overlap, indexed transitions[(i, j)][(u, v)][a] = b."""
    name: str
    cover: Cover
    fibres: dict[str, Bundle]
    transitions: dict[tuple[str, str], dict[tuple[str, str], dict[str, str]]]


def validate_datum(d: DescentDatum) -> DescentDatum:
    """Structural totality: one bundle per piece, a total bijection on each
    ordered overlap pair, fibrewise, and no transition off the overlaps."""
    d.cover.validate()
    fibres = {}
    for p in d.cover.pieces:
        if p.name not in d.fibres:
            raise BadDatum(f"no bundle over piece {p.name!r}", witness=p.name)
        bundle = d.fibres[p.name].validate()
        if set(bundle.base) != set(p.elements):
            raise BadDatum(f"bundle over {p.name!r} has the wrong base",
                           witness=p.name)
        fibres[p.name] = index_arrows(bundle.total, bundle.proj)
    by_base = _by_base(d.cover)
    for pi in d.cover.pieces:
        for pj in d.cover.pieces:
            key = (pi.name, pj.name)
            table = d.transitions.get(key)
            if table is None:
                raise BadDatum(f"missing transitions for {key}", witness=key)
            pairs = _overlap(pi, by_base[pj.name])
            for (u, v) in pairs:
                m = table.get((u, v))
                if m is None:
                    raise BadDatum(
                        f"missing transition over overlap {(u, v)} of {key}",
                        witness=(key, (u, v)))
                if sorted(m) != sorted(fibres[pi.name].get(u, ())) or sorted(
                        m.values()) != sorted(fibres[pj.name].get(v, ())):
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


def check_subcanonical(mapping: dict[str, str], base) -> dict:
    """A surjection is the coequalizer of its kernel pair: the canonical
    comparison from domain-mod-kernel to the base must be a bijection.
    Returns the kernel classes and comparison map as witness."""
    base = tuple(base)
    hit = set(mapping.values())
    if hit != set(base):
        raise NotSurjective(f"map misses {sorted(set(base) - hit)}",
                            witness=tuple(sorted(set(base) - hit)))
    classes: dict[str, list[str]] = {}
    for u in sorted(mapping):
        classes.setdefault(mapping[u], []).append(u)
    comparison = {tuple(v): x for x, v in classes.items()}
    ok = (len(comparison) == len(base)
          and set(comparison.values()) == set(base))
    return {"ok": ok, "classes": sorted(classes.values()),
            "comparison": comparison}


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    failure: tuple | None = None

    def __bool__(self):
        return self.ok


def check_cocycle(d: DescentDatum) -> CocycleReport:
    """Condition (a): diagonal transitions restrict to the identity.
    Condition (b): the triple-overlap composite f_jk . f_ij = f_ik,
    pointwise over every double and triple overlap element."""
    validate_datum(d)
    for p in d.cover.pieces:
        table = d.transitions[(p.name, p.name)]
        for u in p.elements:
            m = table[(u, u)]
            for a, b in m.items():
                if a != b:
                    return CocycleReport(ok=False,
                                         failure=("a", p.name, u, a, b))
    by_base = _by_base(d.cover)
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
    the per-piece comparison isomorphisms."""
    validate_datum(d)
    tagged = [(p.name, a) for p in d.cover.pieces
              for a in d.fibres[p.name].total]
    links = (((pi.name, a), (pj.name, b))
             for pi in d.cover.pieces for pj in d.cover.pieces
             for m in d.transitions[(pi.name, pj.name)].values()
             for a, b in m.items())
    piece_of = {p.name: p for p in d.cover.pieces}
    total, proj, member_cls = [], {}, {}
    for members in partition(tagged, links):
        rep = members[0]
        cid = f"{rep[0]}.{rep[1]}"
        total.append(cid)
        for member in members:
            member_cls[member] = cid
        # every link joins fibres over an overlap pair, whose two points
        # share a base point (validate_datum), so each class has one
        proj[cid] = piece_of[rep[0]].to_base[d.fibres[rep[0]].proj[rep[1]]]
    bundle = Bundle(name=f"glue({d.name})", base=d.cover.base,
                    total=tuple(sorted(total)), proj=proj)
    glued = {x: set(cs) for x, cs in index_arrows(bundle.total, proj).items()}

    piece_maps: dict[str, dict[tuple[str, str], str]] = {}
    for p in d.cover.pieces:
        fib = d.fibres[p.name]
        fibre = index_arrows(fib.total, fib.proj)
        local: dict[tuple[str, str], str] = {}
        for a in fib.total:
            local[(fib.proj[a], a)] = member_cls[(p.name, a)]
        # the comparison must be a fibrewise bijection onto the pullback.
        # For a validated datum this also decides the cocycle conditions:
        # if (a) fails, f_ii(a) = b != a puts a and b, both over u, in one
        # class; if (b) fails, f_jk(f_ij(a)) and f_ik(a), both over w, are
        # both linked to a.  Either way two elements of one local fibre
        # share a class and the check below fails, so check_cocycle runs
        # only then, to report the failure it finds first.
        for u in p.elements:
            elems = fibre.get(u, ())
            image = {local[(u, a)] for a in elems}
            if image != glued.get(p.to_base[u], set()) or \
                    len(image) != len(elems):
                report = check_cocycle(d)
                if not report:
                    raise CocycleViolation(
                        f"cocycle conditions fail: {report.failure}",
                        witness=report.failure)
                raise CocycleViolation(
                    f"piece {p.name!r} does not compare bijectively over "
                    f"{u!r}", witness=(p.name, u))
        piece_maps[p.name] = local
    return GlueResult(bundle=bundle, piece_maps=piece_maps)


def descend(a: Bundle, c: Cover) -> DescentDatum:
    """Pull the bundle back along every piece; canonical transitions.  The
    cocycle conditions hold by construction."""
    a.validate()
    c.validate()
    if set(a.base) != set(c.base):
        raise BadDatum("bundle and cover have different bases")
    fibre = index_arrows(a.total, a.proj)

    def pulled(p: CoverPiece) -> Bundle:
        total, proj = [], {}
        for u in p.elements:
            for e in fibre.get(p.to_base[u], ()):
                t = f"{u}.{e}"
                total.append(t)
                proj[t] = u
        return Bundle(name=f"{a.name}|{p.name}", base=p.elements,
                      total=tuple(total), proj=proj)

    fibres = {p.name: pulled(p) for p in c.pieces}
    by_base = _by_base(c)
    transitions: dict = {}
    for pi in c.pieces:
        for pj in c.pieces:
            table = {}
            for (u, v) in _overlap(pi, by_base[pj.name]):
                table[(u, v)] = {f"{u}.{e}": f"{v}.{e}"
                                 for e in fibre.get(pi.to_base[u], ())}
            transitions[(pi.name, pj.name)] = table
    return DescentDatum(name=f"desc({a.name})", cover=c, fibres=fibres,
                        transitions=transitions)
