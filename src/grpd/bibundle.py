"""Groupoid actions, principal bibundle correspondences, the tensor product.

A right action moves the actor value backwards along arrows: ``act[(z, c)]``
is defined exactly when ``actor[z] == tgt[c]`` and the result sits over
``src[c]``.  Left actions are dual (defined on ``src``, land on ``tgt``).
Both sides run one code path, :class:`Action`; a side fixes only its key
order and the arrow ends it uses.  A bibundle from H to G carries a left
H-action and a right G-action on a shared carrier; principality flags are
derived, not stored.  Orbits, principality, the tensor product and the
isomorphism search assume valid actions over valid groupoids (see
:func:`validate_bibundle`): they read the orbit of a point off the arrows
acting on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (FinGroupoid, StrictArrow, GroupoidError, first_repeat,
                   index_arrows, same_groupoid)
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
    and ``key(*k)`` turns a key k back into (z, c)."""
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

    def acting(self, x):
        return self.groupoid.arrows_into[x]


class LeftAction(Action):
    meets, lands = "src", "tgt"

    @staticmethod
    def key(z, c):
        return c, z

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

    def placed(z, c):
        w = act.get(key(z, c))
        return w in points and actor[w] == lands[c]

    # The table is right iff each arrow acting on each point has a
    # well-placed entry and there are no other entries, which a count
    # shows, as in validate_groupoid.  Only when that fails is every
    # (point, arrow) pair swept, to name the same first failure as before.
    if not (len(act) == sum(len(a.acting(actor[z])) for z in a.carrier)
            and all(placed(z, c)
                    for z in a.carrier for c in a.acting(actor[z]))):
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
        if act[key(z, g.unit[actor[z]])] != z:
            raise BadAction(f"unit acts nontrivially on {z!r}", witness=z)
    # Light's test, as in validate_groupoid, with the generator acting
    # second.  Write p*q for comp[key(p, q)], acting by p and then q.  The
    # arrows q with (z.p).q == z.(p*q) for every point z and every p that
    # acts on z are closed under composition: for q1, q2 among them with
    # q1*q2 defined,
    #   (z.p).(q1*q2) = ((z.p).q1).q2 = (z.(p*q1)).q2 = z.((p*q1)*q2)
    #                 = z.(p*(q1*q2)),
    # using q2, q1, q2 and associativity in g, in turn.  Every arrow is an
    # iterated composite of g.generators, so checking those covers all.
    gens = index_arrows(g.generators, meets)
    for z in a.carrier:
        for p in a.acting(actor[z]):
            zp = act[key(z, p)]
            for q in gens.get(lands[p], ()):
                if act[key(zp, q)] != act[key(z, g.comp[key(p, q)])]:
                    head, tail = key((z,), key(p, q))  # in written order
                    raise BadAction(
                        f"action not associative on {head + tail!r}",
                        witness=head + tail)
    return a


validate_left_action = validate_right_action = validate_action


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
    g = a.groupoid
    division: dict[tuple[str, str], str] = {}
    for k, w in sorted(a.act.items()):
        z, c = a.key(*k)
        if w == z and c != g.unit[a.actor[z]]:
            return Principality(ok=False, witness=("not-free", z, c))
        division[(z, w)] = c
    return Principality(ok=True, division=division)


def _principal_onto(a: Action, other: Action) -> bool:
    """``a`` is principal and the other side's actor induces a bijection
    from a's orbits onto the objects of the other side's groupoid."""
    if not is_principal(a):
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

    @property
    def right_orbits(self):
        return self.right.orbits

    @property
    def left_orbits(self):
        return self.left.orbits

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
        for k, w in a.act.items():
            if other[w] != other[a.key(*k)[0]]:
                raise BadAction(f"{moves} actor at {k!r}", witness=k)
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


def translation_actions(g: FinGroupoid, carrier: tuple[str, ...],
                        k: FinGroupoid) -> tuple[LeftAction, RightAction]:
    """Translation by g on the left and by k on the right (g, or the full
    subgroupoid of g on the carrier's sources) of ``carrier``, arrows of g
    closed under both; each table lists point by point, then arrow."""
    left = LeftAction(
        groupoid=g, carrier=carrier,
        actor={a: g.tgt[a] for a in carrier},
        act={(eta, a): g.comp[(eta, a)]
             for a in carrier for eta in g.arrows_from[g.tgt[a]]})
    right = RightAction(
        groupoid=k, carrier=carrier,
        actor={a: g.src[a] for a in carrier},
        act={(a, c): g.comp[(a, c)]
             for a in carrier for c in k.arrows_into[g.src[a]]})
    return left, right


def unit_bibundle(g: FinGroupoid) -> Bibundle:
    """g acting on its own arrows by translation on both sides."""
    left, right = translation_actions(g, tuple(sorted(g.arrows)), g)
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

    order = sorted(a.carrier)
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
            if w in used:
                return False
            if (a.left.actor[z], a.right.actor[z]) != (
                    b.left.actor[w], b.right.actor[w]):
                return False
            assign[z] = w
            used.add(w)
            trail.append(z)
            for s, t in ((a.left, b.left), (a.right, b.right)):
                for c in s.acting(s.actor[z]):
                    stack.append((s.act[s.key(z, c)], t.act[t.key(w, c)]))
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
