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
from .bibundle import Bibundle, translation_actions
from .core import (FinGroupoid, GroupoidError, NatTrans, StrictArrow,
                   conjugate, restrict, same_groupoid, tree_loop)
from .homotopy import inclusion_functor, skeletonize


class NotInvariant(GroupoidError):
    pass


@dataclass(frozen=True, eq=False)
class OrbitPartition:
    groupoid: FinGroupoid
    blocks: tuple[tuple[str, ...], ...]


def orbits(g: FinGroupoid) -> OrbitPartition:
    """Partition of objects by the relation generated by src ~ tgt."""
    return OrbitPartition(groupoid=g, blocks=g.components)


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
    obj = "*"
    return FinGroupoid(
        name=name, objects=(obj,), arrows=elements,
        src={a: obj for a in elements}, tgt={a: obj for a in elements},
        comp={(elements[i], elements[j]): elements[table[i][j]]
              for i in range(n) for j in range(n)},
        unit={obj: elements[e]},
        inv={elements[i]: elements[groups.inverse_of(table, i)]
             for i in range(n)})


@dataclass(frozen=True, eq=False)
class PointCheck:
    """Outcome of the transitive-to-point comparison: an equivalence
    bibundle onto the isotropy point groupoid, or a two-orbit witness."""
    bibundle: Bibundle | None
    point: FinGroupoid | None = None
    witness: tuple[str, str] | None = None

    def __bool__(self):
        return self.bibundle is not None


def morita_point_check(g: FinGroupoid) -> PointCheck:
    """For a transitive groupoid, the equivalence induced by the inclusion
    of the isotropy at the least object: carrier = arrows out of that
    object, left translation by g, right translation by the isotropy."""
    if not g.objects:
        return PointCheck(bibundle=None, witness=None)
    if not is_transitive(g):
        b0, b1 = g.components[0], g.components[1]
        return PointCheck(bibundle=None, witness=(b0[0], b1[0]))
    x0 = g.components[0][0]
    point = restrict(g, (x0,), name=f"pt({g.name})")
    left, right = translation_actions(g, g.arrows_from[x0], point)
    return PointCheck(
        bibundle=Bibundle(name=f"pt_equiv_{g.name}", left=left, right=right),
        point=point)


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
    point subgroupoid: the conjugating retraction and its homotopy."""
    point_object: str | None
    collapse: StrictArrow | None   # U -> ambient, image inside the point
    homotopy: NatTrans | None      # inclusion => collapse
    vacuous: bool = False


def is_weak_point_subgroupoid(u: Subgroupoid,
                              g: FinGroupoid) -> WeakPointWitness | None:
    """Weak point test: the inclusion of u is homotopic, inside g, to a
    functor landing in a one-object subgroupoid.  This happens exactly when
    the objects of u sit inside a single orbit; the witness transports every
    object to the orbit's base point along chosen connecting arrows."""
    if not same_groupoid(u.ambient, g):
        raise GroupoidError("subgroupoid of a different ambient groupoid")
    if not u.is_invariant:
        raise NotInvariant(f"{sorted(u.objects)} is not a union of orbits",
                           witness=u.objects)
    if not u.objects:
        return WeakPointWitness(point_object=None, collapse=None,
                                homotopy=None, vacuous=True)
    blocks = {g.component_of[x][0] for x in u.objects}
    if len(blocks) > 1:
        return None
    block = g.component_of[u.objects[0]]
    x0 = block[0]
    tree = g.spanning_arrows(block)
    sub = u.restriction
    collapse = StrictArrow(
        name=f"collapse_{sub.name}", dom=sub, cod=g,
        obj_map={x: x0 for x in sub.objects},
        arr_map={a: tree_loop(g, tree, a) for a in sub.arrows})
    homotopy = NatTrans(source_fun=inclusion_functor(sub, g),
                        target_fun=collapse,
                        component={x: g.inv[tree[x]] for x in sub.objects})
    return WeakPointWitness(point_object=x0, collapse=collapse,
                            homotopy=homotopy)


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
    witnesses = tuple(is_weak_point_subgroupoid(subgroupoid(g, block), g)
                      for block in pieces)
    return len(pieces), CoverCertificate(pieces=pieces, witnesses=witnesses)


def cgeo(g: FinGroupoid) -> int:
    """Geometric complexity: the number of orbits."""
    return len(g.components)


def relative_cgeo(h: Subgroupoid, g: FinGroupoid) -> int:
    """Least number of weak-point-in-g invariant subgroupoids covering the
    objects of h: the number of orbits of g that meet h."""
    if not same_groupoid(h.ambient, g):
        raise GroupoidError("subgroupoid of a different ambient groupoid")
    return len({g.component_of[x] for x in h.objects})


# ---------------------------------------------------------------------------
# deformations


@dataclass(frozen=True, eq=False)
class DeformationDiagram:
    """Witness that h deforms into k inside g: a functor carrying h into
    k's objects together with the transporting homotopy."""
    mid: FinGroupoid            # L in the square, here h's restriction
    transport: StrictArrow      # h -> g, image inside k
    homotopy: NatTrans          # inclusion => transport
    inclusion: StrictArrow


def exists_deformation(h: Subgroupoid, k: Subgroupoid,
                       g: FinGroupoid) -> DeformationDiagram | None:
    """Deformation of h into k within g, or None.

    A deformation exists exactly when every orbit meeting h also meets k:
    the homotopy legs can only move objects within their orbits, and
    conversely connecting arrows transport h onto k orbitwise.  The
    returned diagram uses identity legs and the explicit transport."""
    if not (same_groupoid(h.ambient, g) and same_groupoid(k.ambient, g)):
        raise GroupoidError("subgroupoids of a different ambient groupoid")
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
    # connecting arrow x -> target(x), the unit when x already sits in k
    conn = {}
    for x in h.objects:
        if target[x] == x:
            conn[x] = g.unit[x]
        else:
            conn[x] = g.hom_set(x, target[x])[0]
    transport = StrictArrow(
        name=f"deform_{sub.name}", dom=sub, cod=g,
        obj_map=dict(target),
        arr_map={a: conjugate(g, conn[g.tgt[a]], a, conn[g.src[a]])
                 for a in sub.arrows})
    homotopy = NatTrans(source_fun=incl, target_fun=transport,
                        component=dict(conn))
    return DeformationDiagram(mid=sub, transport=transport,
                              homotopy=homotopy, inclusion=incl)


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
