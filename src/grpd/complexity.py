"""Orbits, weak point subgroupoids, the geometric-complexity invariant,
deformations between subgroupoids, and locus keys.

The geometric complexity of a groupoid is the least number of weak point
invariant subgroupoids covering its objects.  An invariant subgroupoid is
a union of orbits and a weak point one lies inside a single orbit, so the
admissible pieces are exactly the orbits.  The orbits partition the
objects, so the invariant is the number of orbits (the transitive
components), each orbit serving as a piece with its collapse witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups
from .core import (FinGroupoid, GroupoidError, NatTrans, StrictArrow,
                   conjugate, inclusion_functor, restrict, same_groupoid,
                   tabulate)
from .homotopy import skeletonize


class NotInvariant(GroupoidError):
    pass


def is_transitive(g: FinGroupoid) -> bool:
    """Exactly one orbit.  The empty groupoid counts as not transitive: it
    admits no equivalence with a one-object groupoid."""
    return len(g.components) == 1


def point_groupoid(name: str, table, elements=None) -> FinGroupoid:
    """One-object groupoid with the given finite group as isotropy."""
    table = tuple(tuple(row) for row in table)
    e = groups.validate_table(table)
    n = len(table)
    if elements is None:
        elements = tuple(f"k{i}" for i in range(n))
    else:
        elements = tuple(elements)
        if len(elements) != n or len(set(elements)) != n:
            raise groups.InvalidGroupTable(
                "element names do not match table size", witness=elements)
    return tabulate(name, ("*",), dict(enumerate(elements)),
                    ends=lambda i: ("*", "*"),
                    compose=lambda p, qs: [elements[table[q][p]] for q in qs],
                    unit=lambda x: e,
                    inv=groups.inverses(table).__getitem__)


# ---------------------------------------------------------------------------
# subgroupoids


@dataclass(frozen=True, eq=False)
class Subgroupoid:
    """Full subgroupoid on an object subset; invariant when the subset is a
    union of orbits."""
    ambient: FinGroupoid
    objects: tuple[str, ...]

    @property
    def restriction(self) -> FinGroupoid:
        return restrict(self.ambient, self.objects)

    @property
    def is_invariant(self) -> bool:
        keep = set(self.objects)
        return all(set(self.ambient.component_of[x]) <= keep
                   for x in self.objects)

    def __repr__(self):
        return f"Subgroupoid({sorted(self.objects)} in {self.ambient.name})"


def subgroupoid(g: FinGroupoid, objects) -> Subgroupoid:
    objects = tuple(sorted(set(objects)))
    unknown = set(objects) - set(g.objects)
    if unknown:
        raise GroupoidError(f"objects {sorted(unknown)} not in {g.name}",
                            witness=sorted(unknown))
    return Subgroupoid(ambient=g, objects=objects)


@dataclass(frozen=True, eq=False)
class WeakPointWitness:
    """Diagram witnessing that an invariant subgroupoid collapses onto a
    point subgroupoid: its deformation onto the point, as a transport and
    the homotopy to it."""
    point_object: str | None
    collapse: StrictArrow | None   # U -> ambient, image inside the point
    homotopy: NatTrans | None      # inclusion => collapse
    vacuous: bool = False


def is_weak_point_subgroupoid(u: Subgroupoid) -> WeakPointWitness | None:
    """Weak point test: the inclusion of u is homotopic, inside its ambient
    groupoid, to a functor landing in a one-object subgroupoid.  This
    happens exactly when the objects of u sit inside a single orbit; the
    witness is the deformation of u onto the orbit's base point (see
    :func:`exists_deformation`), which sends each arrow a to
    ``tree_loop[a]``."""
    g = u.ambient
    if not u.is_invariant:
        raise NotInvariant(f"{sorted(u.objects)} is not a union of orbits",
                           witness=u.objects)
    if not u.objects:
        return WeakPointWitness(point_object=None, collapse=None,
                                homotopy=None, vacuous=True)
    x0 = g.component_of[u.objects[0]][0]
    diagram = exists_deformation(u, Subgroupoid(ambient=g, objects=(x0,)))
    if diagram is None:
        return None
    return WeakPointWitness(point_object=x0, collapse=diagram.transport,
                            homotopy=diagram.homotopy)


# ---------------------------------------------------------------------------
# the covering invariant


@dataclass(frozen=True)
class CoverCertificate:
    pieces: tuple[tuple[str, ...], ...]
    witnesses: tuple[WeakPointWitness, ...]


def cgeo_with_cover(g: FinGroupoid) -> tuple[int, CoverCertificate]:
    """Least number of weak point invariant subgroupoids covering the
    objects, with an optimal cover and per-piece witnesses.  The pieces are
    the orbits, in the order of ``g.components``.  The empty groupoid has
    complexity 0 by convention; finite carriers never force the infinite
    value the codomain allows in general."""
    pieces = g.components
    witnesses = tuple(is_weak_point_subgroupoid(subgroupoid(g, block))
                      for block in pieces)
    return len(pieces), CoverCertificate(pieces=pieces, witnesses=witnesses)


def cgeo(g: FinGroupoid) -> int:
    """Geometric complexity: the number of orbits."""
    return len(g.components)


def relative_cgeo(h: Subgroupoid) -> int:
    """Least number of invariant subgroupoids, weak point in h's ambient
    groupoid, covering the objects of h: the number of its orbits that
    meet h."""
    return len({h.ambient.component_of[x] for x in h.objects})


# ---------------------------------------------------------------------------
# deformations


@dataclass(frozen=True, eq=False)
class DeformationDiagram:
    """Witness that h deforms into k inside g: a functor carrying h into
    k's objects together with the transporting homotopy."""
    transport: StrictArrow      # h -> g, image inside k
    homotopy: NatTrans          # inclusion => transport


def exists_deformation(h: Subgroupoid,
                       k: Subgroupoid) -> DeformationDiagram | None:
    """Deformation of h into k within their shared ambient groupoid, or
    None; subgroupoids of two different groupoids raise ``GroupoidError``.

    A deformation exists exactly when every orbit meeting h also meets k:
    the homotopy legs can only move objects within their orbits, and
    conversely connecting arrows transport h onto k orbitwise.  The
    returned diagram uses identity legs and the explicit transport."""
    if not same_groupoid(h.ambient, k.ambient):
        raise GroupoidError("subgroupoids of different ambient groupoids")
    g = h.ambient
    korbs = {g.component_of[y][0] for y in k.objects}
    target: dict[str, str] = {}
    for x in h.objects:
        block = g.component_of[x]
        if block[0] not in korbs:
            return None
        if x in k.objects:
            target[x] = x
        else:
            target[x] = min(y for y in k.objects
                            if g.component_of[y] == block)
    sub = h.restriction
    incl = inclusion_functor(sub, g)
    # connecting arrow x -> target(x) off the spanning tree, tree[t] .
    # tree[x]^-1, which is the unit when x already sits in k
    tree, comp, inv = g.tree, g.comp, g.inv
    conn = {x: comp[tree[target[x]], inv[tree[x]]] for x in sub.objects}
    transport = StrictArrow(
        name=f"deform_{sub.name}", dom=sub, cod=g,
        obj_map=dict(target),
        arr_map={a: conjugate(g, conn[g.tgt[a]], a, conn[g.src[a]])
                 for a in sub.arrows})
    homotopy = NatTrans(source_fun=incl, target_fun=transport,
                        component=conn)
    return DeformationDiagram(transport=transport, homotopy=homotopy)


# ---------------------------------------------------------------------------
# locus keys


POINT_KEY = "POINT"


def locus_key(g: FinGroupoid, cap: int = 24) -> str:
    """Canonical key for the class of g after collapsing all one-object
    groupoids to the absolute point: every transitive groupoid keys to
    "POINT"; otherwise the skeleton serialization paired with the
    geometric complexity."""
    if is_transitive(g):
        return POINT_KEY
    sk = skeletonize(g, cap=cap)
    body = "|".join(line for line in sk.serialize().splitlines())
    return f"cgeo={cgeo(g)};{body}"
