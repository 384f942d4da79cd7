"""Groupoid actions, principal bibundle correspondences, the tensor product.

A right action moves the actor value backwards along arrows: ``act[(z, c)]``
is defined exactly when ``actor[z] == tgt[c]`` and the result sits over
``src[c]``.  Left actions are dual (defined on ``src``, land on ``tgt``).
Both sides run one code path, :class:`Action`; a side fixes only its key
order and the arrow ends it uses.  A bibundle from H to G carries a left
H-action and a right G-action on a shared carrier; principality flags are
derived, not stored.  An isomorphism of bibundles is matched one
component of the joint action at a time, with no backtracking.  Orbits,
principality, the tensor product and that matching assume valid actions
over valid groupoids (see :func:`validate_bibundle`): they read the orbit
of a point off the arrows acting on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .core import (FinGroupoid, StrictArrow, GroupoidError, first_repeat,
                   id_part, index_arrows, same_groupoid)
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
class Action:
    """A groupoid acting on a carrier over ``actor``.  A subclass fixes the
    side: ``key(z, c)``, the ``act`` key of z moved by c in written order;
    the end ``meets`` of c that sits at ``actor[z]``, with ``acting(x)``
    the arrows whose ``meets`` end is x; and the end ``lands`` that z moved
    by c sits over.  Acting by p and then q is acting by ``comp[key(p, q)]``,
    ``key(*k)`` turns a key k back into (z, c), and ``written(table)``
    rekeys a whole ``act`` table that way without a call per key."""
    groupoid: FinGroupoid
    carrier: tuple[str, ...]
    actor: dict[str, str]
    act: dict[tuple[str, str], str]

    @cached_property
    def orbits(self) -> tuple[tuple[str, ...], ...]:
        """Orbit blocks, sorted, ordered by least member.  In a valid
        action the orbit of z is {z moved by c : c acts on z}, one step
        from z, so each block is read off its least point not yet seen."""
        seen: set[str] = set()
        blocks = []
        for z in sorted(self.carrier):
            if z not in seen:
                block = tuple(sorted({self.act[self.key(z, c)] for c in
                                      self.acting(self.actor[z])}))
                seen.update(block)
                blocks.append(block)
        return tuple(blocks)

    def __repr__(self):
        return (f"{type(self).__name__}({len(self.carrier)} points / "
                f"{self.groupoid.name})")


class RightAction(Action):
    meets, lands = "tgt", "src"

    @staticmethod
    def key(z, c):
        return z, c

    @staticmethod
    def written(table):
        return table

    def acting(self, x):
        return self.groupoid.arrows_into[x]


class LeftAction(Action):
    meets, lands = "src", "tgt"

    @staticmethod
    def key(z, c):
        return c, z

    @staticmethod
    def written(table):
        return {(z, c): w for (c, z), w in table.items()}

    def acting(self, x):
        return self.groupoid.arrows_from[x]


def validate_action(a: Action) -> Action:
    """Check the action axioms of either side; ``a.groupoid`` must be
    valid."""
    g, act, actor, key = a.groupoid, a.act, a.actor, a.key
    meets, lands = getattr(g, a.meets), getattr(g, a.lands)
    points = set(a.carrier)
    if len(points) != len(a.carrier):
        dup = first_repeat(a.carrier)
        raise BadAction(f"carrier lists {dup!r} twice", witness=dup)
    objects = set(g.objects)
    for z in a.carrier:
        if actor.get(z) not in objects:
            raise BadAction(f"actor undefined or invalid at {z!r}", witness=z)

    # ``act`` keyed (z, c) on either side, so that no lookup below calls
    # ``key``
    moved = a.written(act)

    def placed(z, c):
        w = moved.get((z, c))
        return w in points and actor[w] == lands[c]

    # placed(z, c) for every c acting on z at once, in bulk: at holds only
    # the carrier's points, so an image off the carrier reads None
    at = {z: actor[z] for z in a.carrier}
    landing = {x: list(map(lands.__getitem__, a.acting(x)))
               for x in g.objects}

    def placed_at(z):
        x = actor[z]
        ws = map(moved.get, zip(repeat(z), a.acting(x)))
        return list(map(at.get, ws)) == landing[x]

    # The table is right iff each arrow acting on each point has a
    # well-placed entry and there are no other entries, which a count
    # shows, as in validate_groupoid.  Only when that fails is every
    # (point, arrow) pair swept, to name the same first failure as before.
    if not (len(act) == sum(len(a.acting(actor[z])) for z in a.carrier)
            and all(map(placed_at, a.carrier))):
        for z in a.carrier:
            for c in g.arrows:
                k = key(z, c)
                if (k in act) != (actor[z] == meets[c]):
                    raise BadAction(f"action domain wrong at {k!r}",
                                    witness=k)
                if k in act and not placed(z, c):
                    raise BadAction(f"({k[0]!r}) . ({k[1]!r}) does not sit "
                                    f"over {a.lands}", witness=k)
        for k in sorted(act):
            z, c = key(*k)
            if z not in points or c not in g.src:
                raise BadAction(f"action entry {k!r} names an unknown "
                                + " or ".join(key("point", "arrow")),
                                witness=k)
    for z in a.carrier:
        if moved[z, g.unit[actor[z]]] != z:
            raise BadAction(f"unit acts nontrivially on {z!r}", witness=z)
    # Light's test, as in validate_groupoid, with the generator acting
    # second.  Write p*q for comp[key(p, q)], acting by p and then q.  The
    # arrows q with (z.p).q == z.(p*q) for every point z and every p that
    # acts on z are closed under composition: for q1, q2 among them with
    # q1*q2 defined,
    #   (z.p).(q1*q2) = ((z.p).q1).q2 = (z.(p*q1)).q2 = z.((p*q1)*q2)
    #                 = z.(p*(q1*q2)),
    # using q2, q1, q2 and associativity in g, in turn.  Every arrow is an
    # iterated composite of g.generators and the units, so checking those
    # covers all.  Units lie among them because the unit laws were checked
    # first: z.e == z for every point.
    # Each arrow p's steps (q, p*q) are composed once, not once per point.
    gens = index_arrows(g.generators, meets)
    steps = {p: [(q, g.comp[key(p, q)]) for q in gens.get(lands[p], ())]
             for p in g.arrows}
    for z in a.carrier:
        for p in a.acting(actor[z]):
            zp = moved[z, p]
            for q, pq in steps[p]:
                if moved[zp, q] != moved[z, pq]:
                    head, tail = key((z,), key(p, q))  # in written order
                    raise BadAction(
                        f"action not associative on {head + tail!r}",
                        witness=head + tail)
    return a


@dataclass(frozen=True)
class Principality:
    """Outcome of the principality check: a division map as certificate, or
    a freeness witness explaining the failure."""
    ok: bool
    division: dict[tuple[str, str], str] | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def is_principal(a: Action) -> Principality:
    """Free action, certified by its division map (z, z moved by c) -> c.

    ``a`` must be a valid action (see :func:`validate_action`).  Then the
    orbit of z is one step from z, so the division map is total on each
    orbit, and it is well defined exactly when the action is free: z moved
    by c and by c' to the same point means z is fixed by the non-unit loop
    that c and the inverse of c' compose to.  So freeness is all there is
    to check; the witness is the least ``act`` key that fixes its point by
    a non-unit arrow.
    """
    least = min(_unfree(a), default=None)
    if least is not None:
        return Principality(ok=False, witness=("not-free", *a.key(*least)))
    division: dict[tuple[str, str], str] = {}
    for k, w in sorted(a.act.items()):
        z, c = a.key(*k)
        division[(z, w)] = c
    return Principality(ok=True, division=division)


def _unfree(a: Action):
    """The ``act`` keys, in table order, that fix their point by a non-unit
    arrow; a valid action is free iff there are none."""
    unit, actor, key = a.groupoid.unit, a.actor, a.key
    for k, w in a.act.items():
        if w in k:  # only then can the point be w itself
            z, c = key(*k)
            if w == z and c != unit[actor[z]]:
                yield k


def _principal_onto(a: Action, other: Action) -> bool:
    """``a`` is principal and the other side's actor induces a bijection
    from a's orbits onto the objects of the other side's groupoid."""
    if next(_unfree(a), None) is not None:
        return False
    values = [other.actor[block[0]] for block in a.orbits]
    return (len(values) == len(set(values))
            and set(values) == set(other.groupoid.objects))


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

    @cached_property
    def is_right_principal(self) -> bool:
        # p must induce a bijection  Z/G  ~  H0
        return _principal_onto(self.right, self.left)

    @cached_property
    def is_left_principal(self) -> bool:
        return _principal_onto(self.left, self.right)

    @property
    def is_equivalence(self) -> bool:
        return self.is_right_principal and self.is_left_principal

    def __repr__(self):
        return (f"Bibundle({self.name!r}: {self.dom.name} -| "
                f"{len(self.carrier)} |- {self.cod.name})")


def validate_bibundle(b: Bibundle) -> Bibundle:
    if b.left.carrier != b.right.carrier:
        raise BadAction("left and right actions have different carriers")
    validate_action(b.left)
    validate_action(b.right)
    h, g = b.dom, b.cod
    p, q = b.left.actor, b.right.actor
    for a, other, moves in ((b.left, q, "left action moves the right"),
                            (b.right, p, "right action moves the left")):
        for (z, c), w in a.written(a.act).items():
            if other[w] != other[z]:
                k = a.key(z, c)
                raise BadAction(f"{moves} actor at {k!r}", witness=k)
    # Commuting on generators suffices.  For a fixed c, the eta that commute
    # with c are closed under composition (the left action is associative
    # and keeps q), so each generator c commutes with every eta.  For a
    # fixed eta, the c that commute with it are closed under composition in
    # the same way, so every c does.  Units, which g.generators and
    # h.generators leave out, commute with everything because the unit
    # laws were checked first: both actions fix each point by a unit.
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
    """g acting on its own arrows by translation on both sides; each table
    lists point by point, then arrow."""
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
    essentially surjective and fully faithful.  The point (x, c) has id
    ``x|c``, x escaped by ``core.id_part``."""
    h, g = f.dom, f.cod
    pts = [(x, c) for x in h.objects for c in g.arrows_into[f.obj_map[x]]]
    head = {x: id_part(x, "|") for x in h.objects}

    def pid(x, c):
        return f"{head[x]}|{c}"

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


def tensor(z1: Bibundle, z2: Bibundle) -> Bibundle:
    """Generalized tensor product: fibre product over the middle objects,
    quotiented by the diagonal middle action (z, w) . c = (z c, c^-1 w).

    Both bibundles must be valid (see :func:`validate_bibundle`), over
    valid groupoids: each class is taken directly as the orbit of its
    least pair (z, w), which it is only when the actions are valid.  Its
    id is ``[z*w]``, z escaped by ``core.id_part``.
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
    # The pairs (z, w) over a common middle object, visited in sorted order:
    # the first one not yet in a class is the least member of its class.
    for z in sorted(z1.carrier):
        into = [(c, mid.inv[c]) for c in mid.arrows_into[q1[z]]]
        head = id_part(z, "*")
        for w in over.get(q1[z], ()):
            if (z, w) in cls_of:
                continue
            cid = f"[{head}*{w}]"
            rep_of[cid] = (z, w)
            for c, c_inv in into:
                cls_of[ract1[z, c], lact2[c_inv, w]] = cid
    carrier = tuple(sorted(rep_of))

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
    None.  Matched one component of the joint action at a time, with no
    backtracking: the least point z of a not yet assigned goes to the
    first point w of its (p, q)-fibre in b whose forced closure succeeds.

    No choice needs undoing.  The points matched so far, and their images,
    are whole components, so a successful closure from z -> w is a
    bijective, equivariant map psi from the component A of z onto the
    component B of w, which is unused.  Suppose an isomorphism phi extends
    the match so far.  If B = phi(A), then phi with psi on A extends the
    new match.  Otherwise B = phi(A'') for a component A'' not yet
    matched, and psi on A, phi . psi^-1 . phi on A'' (onto phi(A)) and phi
    elsewhere is an isomorphism that does.  Some closure succeeds, since
    z -> phi(z) does.  So while an isomorphism exists, the loop never runs
    out of candidates, and a backtracking search, which never undoes a
    successful closure, returns the same map.  A complete match is
    injective onto a carrier of the same size, hence an isomorphism, so
    None means that there is none.
    """
    if not (same_groupoid(a.dom, b.dom) and same_groupoid(a.cod, b.cod)):
        raise EndpointMismatch(
            f"{a.name!r} and {b.name!r} join different groupoids")
    if len(a.carrier) != len(b.carrier):
        return None
    fb = index_arrows(b.carrier, {w: (b.left.actor[w], b.right.actor[w])
                                  for w in b.carrier})
    assign: dict[str, str] = {}
    used: set[str] = set()

    def propagate(z, w, trail):
        """Force images along all action moves; returns False on clash.
        The forced closure does not depend on the order of the moves."""
        stack = [(z, w)]
        while stack:
            z, w = stack.pop()
            if z in assign:
                if assign[z] != w:
                    return False
                continue
            if w in used or (a.left.actor[z], a.right.actor[z]) != (
                    b.left.actor[w], b.right.actor[w]):
                return False
            assign[z] = w
            used.add(w)
            trail.append(z)
            for s, t in ((a.left, b.left), (a.right, b.right)):
                for c in s.acting(s.actor[z]):
                    stack.append((s.act[s.key(z, c)], t.act[t.key(w, c)]))
        return True

    for z in sorted(a.carrier):
        if z in assign:
            continue
        for w in fb.get((a.left.actor[z], a.right.actor[z]), ()):
            trail: list[str] = []
            if propagate(z, w, trail):
                break
            for t in trail:
                used.discard(assign.pop(t))
        else:
            return None
    return assign


def are_morita_equivalent(h: FinGroupoid, g: FinGroupoid,
                          cap: int = 24) -> Bibundle | None:
    """Bi-bundle equivalence h -| Z |- g, or None.

    The boolean answer is exact: it agrees with skeleton comparison
    (orbit-wise isotropy isomorphism).  The witness is built from the
    skeletal comparison functor, whose induced carrier stays inside the
    |h1| * |g1| search bound.
    """
    f = homotopy.skeletal_equivalence_functor(h, g, cap=cap)
    if f is None:
        return None
    return functor_to_bibundle(f)
