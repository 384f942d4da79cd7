"""Groupoid actions, principal bibundle correspondences, the tensor product.

A right action moves the actor value backwards along arrows: ``act[(z, c)]``
is defined exactly when ``actor[z] == tgt[c]`` and the result sits over
``src[c]``.  Left actions are dual (defined on ``src``, land on ``tgt``).
A bibundle from H to G carries a left H-action and a right G-action on a
shared carrier; principality flags are derived, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (FinGroupoid, StrictArrow, GroupoidError, first_repeat,
                   index_arrows, partition, same_groupoid)
from . import homotopy


class NotComposable(GroupoidError):
    pass


class NotPrincipal(GroupoidError):
    pass


class EndpointMismatch(GroupoidError):
    pass


class BadAction(GroupoidError):
    pass


@dataclass(frozen=True, eq=False)
class RightAction:
    groupoid: FinGroupoid
    carrier: tuple[str, ...]
    actor: dict[str, str]
    act: dict[tuple[str, str], str]

    @cached_property
    def orbits(self) -> tuple[tuple[str, ...], ...]:
        """Orbit blocks, sorted, ordered by least member."""
        return partition(self.carrier,
                         ((z, w) for (z, _), w in self.act.items()))

    def __repr__(self):
        return f"RightAction({len(self.carrier)} points / {self.groupoid.name})"


@dataclass(frozen=True, eq=False)
class LeftAction:
    groupoid: FinGroupoid
    carrier: tuple[str, ...]
    actor: dict[str, str]
    act: dict[tuple[str, str], str]  # (arrow, z) -> z'

    @cached_property
    def orbits(self) -> tuple[tuple[str, ...], ...]:
        """Orbit blocks, sorted, ordered by least member."""
        return partition(self.carrier,
                         ((z, w) for (_, z), w in self.act.items()))

    def __repr__(self):
        return f"LeftAction({len(self.carrier)} points / {self.groupoid.name})"


def validate_right_action(a: RightAction) -> RightAction:
    """Check the right-action axioms; ``a.groupoid`` must be valid."""
    g = a.groupoid
    points = set(a.carrier)
    if len(points) != len(a.carrier):
        dup = first_repeat(a.carrier)
        raise BadAction(f"carrier lists {dup!r} twice", witness=dup)
    for z in a.carrier:
        if a.actor.get(z) not in set(g.objects):
            raise BadAction(f"actor undefined or invalid at {z!r}", witness=z)
    accepted = 0
    for z in a.carrier:
        for c in g.arrows:
            defined = (z, c) in a.act
            if defined != (a.actor[z] == g.tgt[c]):
                raise BadAction(
                    f"action domain wrong at ({z!r}, {c!r})", witness=(z, c))
            if defined:
                accepted += 1
                w = a.act[(z, c)]
                if w not in points or a.actor[w] != g.src[c]:
                    raise BadAction(
                        f"({z!r}) . ({c!r}) does not sit over src", witness=(z, c))
    if accepted != len(a.act):
        for z, c in sorted(a.act):
            if z not in points or c not in g.src:
                raise BadAction(f"action entry ({z!r}, {c!r}) names an "
                                "unknown point or arrow", witness=(z, c))
    for z in a.carrier:
        if a.act[(z, g.unit[a.actor[z]])] != z:
            raise BadAction(f"unit acts nontrivially on {z!r}", witness=z)
    # Light's test, as in validate_groupoid: the arrows q with
    # (z.p).q == z.(p.q) for all z and p are closed under composition
    # (using that g is associative), so q ranges over g.generators only.
    gens_into = index_arrows(g.generators, g.tgt)
    for z in a.carrier:
        for p in g.arrows_into[a.actor[z]]:
            zp = a.act[(z, p)]
            for q in gens_into.get(g.src[p], ()):
                if a.act[(zp, q)] != a.act[(z, g.comp[(p, q)])]:
                    raise BadAction(
                        f"action not associative on ({z!r}, {p!r}, {q!r})",
                        witness=(z, p, q))
    return a


def validate_left_action(a: LeftAction) -> LeftAction:
    """Check the left-action axioms; ``a.groupoid`` must be valid."""
    g = a.groupoid
    points = set(a.carrier)
    if len(points) != len(a.carrier):
        dup = first_repeat(a.carrier)
        raise BadAction(f"carrier lists {dup!r} twice", witness=dup)
    for z in a.carrier:
        if a.actor.get(z) not in set(g.objects):
            raise BadAction(f"actor undefined or invalid at {z!r}", witness=z)
    accepted = 0
    for z in a.carrier:
        for c in g.arrows:
            defined = (c, z) in a.act
            if defined != (a.actor[z] == g.src[c]):
                raise BadAction(
                    f"action domain wrong at ({c!r}, {z!r})", witness=(c, z))
            if defined:
                accepted += 1
                w = a.act[(c, z)]
                if w not in points or a.actor[w] != g.tgt[c]:
                    raise BadAction(
                        f"({c!r}) . ({z!r}) does not sit over tgt", witness=(c, z))
    if accepted != len(a.act):
        for c, z in sorted(a.act):
            if c not in g.src or z not in points:
                raise BadAction(f"action entry ({c!r}, {z!r}) names an "
                                "unknown arrow or point", witness=(c, z))
    for z in a.carrier:
        if a.act[(g.unit[a.actor[z]], z)] != z:
            raise BadAction(f"unit acts nontrivially on {z!r}", witness=z)
    # Light's test: the arrows q with p.(q.z) == (p.q).z for all p and z
    # are closed under composition (using that g is associative).
    gens_from = index_arrows(g.generators, g.src)
    for z in a.carrier:
        for q in gens_from.get(a.actor[z], ()):
            qz = a.act[(q, z)]
            for p in g.arrows_from[g.tgt[q]]:
                if a.act[(p, qz)] != a.act[(g.comp[(p, q)], z)]:
                    raise BadAction(
                        f"action not associative on ({p!r}, {q!r}, {z!r})",
                        witness=(p, q, z))
    return a


@dataclass(frozen=True)
class Principality:
    """Outcome of the principality check: a division map as certificate, or
    a freeness/transitivity witness explaining the failure."""
    ok: bool
    division: dict[tuple[str, str], str] | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def is_principal(a: RightAction | LeftAction) -> Principality:
    """Free plus well-defined total division map on same-orbit pairs."""
    g = a.groupoid
    right = isinstance(a, RightAction)
    moves = [((key, z_or_c) if right else (z_or_c, key), w)
             for (key, z_or_c), w in sorted(a.act.items())]
    for (z, c), w in moves:
        if w == z and c != g.unit[a.actor[z]]:
            return Principality(ok=False, witness=("not-free", z, c))
    division: dict[tuple[str, str], str] = {}
    for (z, c), w in moves:
        if (z, w) in division and division[(z, w)] != c:
            return Principality(ok=False,
                                witness=("division-ambiguous", z, w))
        division[(z, w)] = c
    for block in a.orbits:
        for z in block:
            for w in block:
                if (z, w) not in division:
                    return Principality(ok=False,
                                        witness=("division-partial", z, w))
    return Principality(ok=True, division=division)


@dataclass(frozen=True, eq=False)
class Bibundle:
    """Correspondence H <- Z -> G: commuting left H- and right G-actions."""

    name: str
    left: LeftAction
    right: RightAction

    @property
    def dom(self) -> FinGroupoid:
        return self.left.groupoid

    @property
    def cod(self) -> FinGroupoid:
        return self.right.groupoid

    @property
    def carrier(self) -> tuple[str, ...]:
        return self.left.carrier

    @property
    def right_orbits(self):
        return self.right.orbits

    @property
    def left_orbits(self):
        return self.left.orbits

    @cached_property
    def is_right_principal(self) -> bool:
        if not is_principal(self.right):
            return False
        # p must induce a bijection  Z/G  ~  H0
        p = self.left.actor
        values = [p[block[0]] for block in self.right_orbits]
        return (len(values) == len(set(values))
                and set(values) == set(self.dom.objects))

    @cached_property
    def is_left_principal(self) -> bool:
        if not is_principal(self.left):
            return False
        q = self.right.actor
        values = [q[block[0]] for block in self.left_orbits]
        return (len(values) == len(set(values))
                and set(values) == set(self.cod.objects))

    @property
    def is_equivalence(self) -> bool:
        return self.is_right_principal and self.is_left_principal

    def __repr__(self):
        return (f"Bibundle({self.name!r}: {self.dom.name} -| "
                f"{len(self.carrier)} |- {self.cod.name})")


def validate_bibundle(b: Bibundle) -> Bibundle:
    if b.left.carrier != b.right.carrier:
        raise BadAction("left and right actions have different carriers")
    validate_left_action(b.left)
    validate_right_action(b.right)
    h, g = b.dom, b.cod
    p, q = b.left.actor, b.right.actor
    for (eta, z), w in b.left.act.items():
        if q[w] != q[z]:
            raise BadAction(
                f"left action moves the right actor at ({eta!r}, {z!r})",
                witness=(eta, z))
    for (z, c), w in b.right.act.items():
        if p[w] != p[z]:
            raise BadAction(
                f"right action moves the left actor at ({z!r}, {c!r})",
                witness=(z, c))
    # Commuting on generators suffices.  For a fixed c, the eta that commute
    # with c are closed under composition (the left action is associative
    # and keeps q), so each generator c commutes with every eta.  For a
    # fixed eta, the c that commute with it are closed under composition in
    # the same way, so every c does.
    h_gens = index_arrows(h.generators, h.src)
    g_gens = index_arrows(g.generators, g.tgt)
    for z in b.carrier:
        for eta in h_gens.get(p[z], ()):
            for c in g_gens.get(q[z], ()):
                if (b.right.act[(b.left.act[(eta, z)], c)]
                        != b.left.act[(eta, b.right.act[(z, c)])]):
                    raise BadAction(
                        f"actions do not commute on ({eta!r}, {z!r}, {c!r})",
                        witness=(eta, z, c))
    return b


# ---------------------------------------------------------------------------
# constructions


def unit_bibundle(g: FinGroupoid) -> Bibundle:
    """g acting on its own arrows by translation on both sides."""
    carrier = tuple(sorted(g.arrows))
    left = LeftAction(
        groupoid=g, carrier=carrier,
        actor={a: g.tgt[a] for a in carrier},
        act={(eta, a): g.comp[(eta, a)]
             for a in carrier for eta in g.arrows_from[g.tgt[a]]})
    right = RightAction(
        groupoid=g, carrier=carrier,
        actor={a: g.src[a] for a in carrier},
        act={(a, c): g.comp[(a, c)]
             for a in carrier for c in g.arrows_into[g.src[a]]})
    return Bibundle(name=f"unit_{g.name}", left=left, right=right)


def functor_to_bibundle(f: StrictArrow) -> Bibundle:
    """Carrier {(x, c) : c lands on f(x)}, left action through f, right by
    composition.  Always right-principal; an equivalence iff f is
    essentially surjective and fully faithful."""
    h, g = f.dom, f.cod
    pts = [(x, c) for x in h.objects for c in g.arrows_into[f.obj_map[x]]]

    def pid(x, c):
        return f"{x}|{c}"

    carrier = tuple(sorted(pid(x, c) for x, c in pts))
    where = {pid(x, c): (x, c) for x, c in pts}
    lact, ract = {}, {}
    for z in carrier:
        x, c = where[z]
        for eta in h.arrows_from[x]:
            lact[(eta, z)] = pid(h.tgt[eta], g.comp[(f.arr_map[eta], c)])
        for d in g.arrows_into[g.src[c]]:
            ract[(z, d)] = pid(x, g.comp[(c, d)])
    left = LeftAction(groupoid=h, carrier=carrier,
                      actor={z: where[z][0] for z in carrier}, act=lact)
    right = RightAction(groupoid=g, carrier=carrier,
                        actor={z: g.src[where[z][1]] for z in carrier},
                        act=ract)
    return Bibundle(name=f"B[{f.name}]", left=left, right=right)


def transpose(b: Bibundle, name: str | None = None) -> Bibundle:
    """Swap the two sides, acting through inverses."""
    h, g = b.dom, b.cod
    left = LeftAction(
        groupoid=g, carrier=b.carrier, actor=dict(b.right.actor),
        act={(g.inv[c], z): w for (z, c), w in b.right.act.items()})
    right = RightAction(
        groupoid=h, carrier=b.carrier, actor=dict(b.left.actor),
        act={(z, h.inv[eta]): w for (eta, z), w in b.left.act.items()})
    return Bibundle(name=name or f"{b.name}^t", left=left, right=right)


def tensor(z1: Bibundle, z2: Bibundle) -> Bibundle:
    """Generalized tensor product: fibre product over the middle objects,
    quotiented by the diagonal middle action (z, w) . c = (z c, c^-1 w).

    Both bibundles must be valid (see :func:`validate_bibundle`), over
    valid groupoids: each class is taken directly as the orbit of its
    least pair, which it is only when the actions are valid.
    """
    if not same_groupoid(z1.cod, z2.dom):
        raise NotComposable(
            f"{z1.name!r} ends at {z1.cod.name}, {z2.name!r} starts at "
            f"{z2.dom.name}")
    if not z1.is_right_principal:
        raise NotPrincipal(f"{z1.name!r} is not right-principal")
    mid = z1.cod
    q1, ract1, lact2 = z1.right.actor, z1.right.act, z2.left.act
    over = index_arrows(sorted(z2.carrier), z2.left.actor)
    cls_of: dict[tuple[str, str], str] = {}
    rep_of: dict[str, tuple[str, str]] = {}
    carrier = []
    # The pairs (z, w) over a common middle object, visited in sorted order:
    # the first one not yet in a class is the least member of its class.
    for z in sorted(z1.carrier):
        into = [(c, mid.inv[c]) for c in mid.arrows_into[q1[z]]]
        for w in over.get(q1[z], ()):
            if (z, w) in cls_of:
                continue
            cid = f"[{z}*{w}]"
            carrier.append(cid)
            rep_of.setdefault(cid, (z, w))
            for c, c_inv in into:
                cls_of[ract1[z, c], lact2[c_inv, w]] = cid
    carrier = tuple(sorted(carrier))

    h, k = z1.dom, z2.cod
    p = {cid: z1.left.actor[rep_of[cid][0]] for cid in carrier}
    q = {cid: z2.right.actor[rep_of[cid][1]] for cid in carrier}
    lact, ract = {}, {}
    for cid in carrier:
        z, w = rep_of[cid]
        for eta in h.arrows_from[p[cid]]:
            lact[(eta, cid)] = cls_of[(z1.left.act[(eta, z)], w)]
        for c in k.arrows_into[q[cid]]:
            ract[(cid, c)] = cls_of[(z, z2.right.act[(w, c)])]
    return Bibundle(
        name=f"({z1.name}(.){z2.name})",
        left=LeftAction(groupoid=h, carrier=carrier, actor=p, act=lact),
        right=RightAction(groupoid=k, carrier=carrier, actor=q, act=ract))


# ---------------------------------------------------------------------------
# isomorphism and Morita equivalence


def bibundles_isomorphic(a: Bibundle, b: Bibundle) -> dict[str, str] | None:
    """Bi-equivariant carrier bijection commuting with both actor maps, or
    None.  Backtracking with (p, q)-fibre pruning and action propagation."""
    if not (same_groupoid(a.dom, b.dom) and same_groupoid(a.cod, b.cod)):
        raise EndpointMismatch(
            f"{a.name!r} and {b.name!r} join different groupoids")
    if len(a.carrier) != len(b.carrier):
        return None

    def fibre(bb):
        out: dict[tuple[str, str], list[str]] = {}
        for z in bb.carrier:
            out.setdefault((bb.left.actor[z], bb.right.actor[z]), []).append(z)
        return out

    fa, fb = fibre(a), fibre(b)
    if set(fa) != set(fb) or any(len(fa[k]) != len(fb[k]) for k in fa):
        return None

    h, g = a.dom, a.cod
    order = sorted(a.carrier)
    assign: dict[str, str] = {}
    used: set[str] = set()

    def propagate(z, w, trail):
        """Force images along all action moves; returns False on clash."""
        stack = [(z, w)]
        while stack:
            z, w = stack.pop()
            if z in assign:
                if assign[z] != w:
                    return False
                continue
            if w in used:
                return False
            if (a.left.actor[z], a.right.actor[z]) != (
                    b.left.actor[w], b.right.actor[w]):
                return False
            assign[z] = w
            used.add(w)
            trail.append(z)
            for eta in h.arrows:
                if (eta, z) in a.left.act:
                    stack.append((a.left.act[(eta, z)], b.left.act[(eta, w)]))
            for c in g.arrows:
                if (z, c) in a.right.act:
                    stack.append((a.right.act[(z, c)], b.right.act[(w, c)]))
        return True

    def search(i):
        while i < len(order) and order[i] in assign:
            i += 1
        if i == len(order):
            return True
        z = order[i]
        for w in fb[(a.left.actor[z], a.right.actor[z])]:
            if w in used:
                continue
            trail: list[str] = []
            if propagate(z, w, trail) and search(i + 1):
                return True
            for t in trail:
                used.discard(assign.pop(t))
        return False

    if search(0):
        return dict(assign)
    return None


def are_morita_equivalent(h: FinGroupoid, g: FinGroupoid,
                          cap: int = 24) -> Bibundle | None:
    """Bi-bundle equivalence h -| Z |- g, or None.

    The boolean answer is exact: it agrees with skeleton comparison
    (orbit-wise isotropy isomorphism).  The witness is built from the
    skeletal comparison functor, whose induced carrier stays inside the
    |h1| * |g1| search bound.
    """
    if same_groupoid(h, g):
        return unit_bibundle(g)
    f = homotopy.skeletal_equivalence_functor(h, g, cap=cap)
    if f is None:
        return None
    return functor_to_bibundle(f)
