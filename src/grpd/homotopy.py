"""Homotopy pullbacks, essential (homotopy) equivalences, skeletal forms.

In the finite-set model every natural transformation is invertible and
chains of them compose, so the n-fold homotopy relation collapses to the
single-step one and homotopy equivalences coincide with essentially
surjective fully faithful functors.  A functor factoring, up to homotopy,
as a homotopy equivalence followed by an essential equivalence is then
itself an essential equivalence, so :func:`is_essential_equivalence`
decides the essential homotopy equivalences too.  The skeleton (one
isotropy group per orbit, canonically ordered) is therefore a complete
invariant for both Morita and Morita-homotopy equivalence, and the
deciders below lean on it for their boolean answers while still
constructing explicit witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups
from .core import (FinGroupoid, StrictArrow, NatTrans, GroupoidError,
                   compose_functors, id_part, identity_functor,
                   inclusion_functor, restrict, same_groupoid, tabulate,
                   transport, validate_functor, validate_joined, whisker)


class InvalidCospan(GroupoidError):
    pass


class IsotropyTooLarge(GroupoidError):
    def __init__(self, message, limit):
        super().__init__(message, witness=limit)
        self.limit = limit


@dataclass(frozen=True, eq=False)
class Cospan:
    left: StrictArrow   # K -> G
    right: StrictArrow  # J -> G

    def validate(self) -> "Cospan":
        if not same_groupoid(self.left.cod, self.right.cod):
            raise InvalidCospan(
                f"legs end at {self.left.cod.name} and {self.right.cod.name}")
        return self


@dataclass(frozen=True, eq=False)
class PullbackResult:
    groupoid: FinGroupoid
    pr1: StrictArrow           # into the left leg's domain
    pr2: StrictArrow           # into the right leg's domain
    cells: tuple[NatTrans, ...]  # chain left∘pr1 => ... => right∘pr2
    degree: int


def _p1(c: Cospan) -> PullbackResult:
    """The degree-1 homotopy pullback: objects (x, s, y) with s: phi(x) ->
    psi(y), ids ``(x!s!y)``, and squares (kk, ii) with diagonal s, ids
    ``[kk!s!ii]``, the first two parts escaped by ``core.id_part``."""
    phi, psi = c.left, c.right
    k, j, g = phi.dom, psi.dom, phi.cod
    gcomp, ginv = g.comp, g.inv
    esc = {s: id_part(s, "!") for s in (*k.objects, *k.arrows, *g.arrows)}
    obj, where = {}, {}
    for x in k.objects:
        for y in j.objects:
            for s in g.hom_set(phi.obj_map[x], psi.obj_map[y]):
                o = f"({esc[x]}!{esc[s]}!{y})"
                obj[x, s, y] = o
                where[o] = (x, s, y)
    # An arrow is a square kk: x -> x', ii: y -> y' with diagonal
    # s: phi(x) -> psi(y'), from (x, psi(ii)^-1.s, y) to (x', s.phi(kk)^-1,
    # y'); its parts are (kk, ii, source object id), so a composite is
    # (k-composite, j-composite, first source).  ids[o][kk][ii] is its id.
    arrows, ends, ids = {}, {}, {}
    for kk in k.arrows:
        for ii in j.arrows:
            back = ginv[psi.arr_map[ii]]
            for s in g.hom_set(phi.obj_map[k.src[kk]],
                               psi.obj_map[j.tgt[ii]]):
                p = (kk, ii, obj[k.src[kk], gcomp[back, s], j.src[ii]])
                a = arrows[p] = f"[{esc[kk]}!{esc[s]}!{ii}]"
                ids.setdefault(p[2], {}).setdefault(kk, {})[ii] = a
                ends[p] = (p[2], obj[k.tgt[kk],
                                     gcomp[s, ginv[phi.arr_map[kk]]],
                                     j.tgt[ii]])
    kafter, jafter = k.after, j.after

    def compose(p, qs):
        kk, ii, o = p
        row, kthen, jthen = ids[o], kafter[kk], jafter[ii]
        return [row[kthen[k2]][jthen[i2]] for k2, i2, _ in qs]

    grp = tabulate(
        f"P1({phi.name},{psi.name})", obj.values(), arrows, ends.__getitem__,
        compose=compose,
        unit=lambda o: (k.unit[where[o][0]], j.unit[where[o][2]], o),
        inv=lambda p: (k.inv[p[0]], j.inv[p[1]], ends[p][1]))
    pr1 = StrictArrow(name="pr1", dom=grp, cod=k,
                      obj_map={o: w[0] for o, w in where.items()},
                      arr_map={a: p[0] for p, a in arrows.items()})
    pr2 = StrictArrow(name="pr2", dom=grp, cod=j,
                      obj_map={o: w[2] for o, w in where.items()},
                      arr_map={a: p[1] for p, a in arrows.items()})
    cell = NatTrans(source_fun=compose_functors(phi, pr1),
                    target_fun=compose_functors(psi, pr2),
                    component={o: w[1] for o, w in where.items()})
    return PullbackResult(groupoid=grp, pr1=pr1, pr2=pr2, cells=(cell,),
                          degree=1)


def homotopy_pullback(c: Cospan, n: int = 1) -> PullbackResult:
    """The n-th homotopy pullback of the cospan: chains of n connecting
    arrows threaded between the two legs, with projections and the chain
    of connecting 2-cells.  The legs are validated first (a bad one raises
    ``BadFunctor``)."""
    validate_joined((c.left, c.right), validate_functor)
    return _pullback(c, n)


def _pullback(c: Cospan, n: int) -> PullbackResult:
    c.validate()
    if n < 1:
        raise InvalidCospan(f"degree must be >= 1, got {n}")
    if n == 1:
        return _p1(c)
    g = c.left.cod
    inner = _pullback(Cospan(left=identity_functor(g), right=c.right), n - 1)
    outer = _p1(Cospan(left=c.left, right=inner.pr1))
    pr2 = compose_functors(inner.pr2, outer.pr2)
    cells = (outer.cells[0],) + tuple(whisker(t, outer.pr2)
                                      for t in inner.cells)
    return PullbackResult(groupoid=outer.groupoid, pr1=outer.pr1, pr2=pr2,
                          cells=cells, degree=n)


# ---------------------------------------------------------------------------
# essential equivalences


@dataclass(frozen=True)
class EssentialEquivalence:
    ok: bool
    essentially_surjective: bool
    fully_faithful: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def is_essential_equivalence(f: StrictArrow) -> EssentialEquivalence:
    """Essential surjectivity (arrow targets out of the image cover all
    objects) plus hom-set bijectivity on every object pair."""
    h, g = f.dom, f.cod
    image = {f.obj_map[x] for x in h.objects}
    reachable = {g.tgt[c] for c in g.arrows if g.src[c] in image}
    ess = reachable == set(g.objects)
    missing = tuple(sorted(set(g.objects) - reachable))
    for x in h.objects:
        for y in h.objects:
            dom_hom = h.hom_set(x, y)
            cod_hom = g.hom_set(f.obj_map[x], f.obj_map[y])
            images = {f.arr_map[a] for a in dom_hom}
            if len(images) != len(dom_hom) or images != set(cod_hom):
                return EssentialEquivalence(
                    ok=False, essentially_surjective=ess, fully_faithful=False,
                    witness=("hom", x, y))
    if not ess:
        return EssentialEquivalence(ok=False, essentially_surjective=False,
                                    fully_faithful=True,
                                    witness=("missing",) + missing)
    return EssentialEquivalence(ok=True, essentially_surjective=True,
                                fully_faithful=True)


# ---------------------------------------------------------------------------
# skeletons


@dataclass(frozen=True)
class SkeletonEntry:
    orbit_rep: str
    orbit_size: int
    isotropy_order: int
    loops: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]


@dataclass(frozen=True)
class Skeleton:
    entries: tuple[SkeletonEntry, ...]

    def serialize(self) -> str:
        """Canonical text form, one line per orbit, bit-exact across
        equivalent groupoids (ordering and content use only the isotropy
        canonical form)."""
        import hashlib  # only here, so that no other path loads OpenSSL
        lines = []
        for e in self.entries:
            dump = ";".join(",".join(str(v) for v in row)
                            for row in groups.unflatten(e.canonical))
            digest = hashlib.sha256(dump.encode()).hexdigest()[:12]
            lines.append(f"orbit {e.isotropy_order} group {digest} {dump}")
        return "\n".join(lines)


def skeletonize(g: FinGroupoid, cap: int = 24) -> Skeleton:
    """One (orbit, isotropy group) entry per connected component, ordered by
    the isotropy canonical form.  Orbit size is carried as metadata only:
    it is not invariant under the equivalences this form classifies."""
    entries = []
    for block in g.components:
        rep = block[0]
        order = len(g.hom_set(rep, rep))
        if order > cap:
            raise IsotropyTooLarge(
                f"isotropy order {order} at {rep!r} exceeds cap {cap}",
                limit=cap)
        loops, table = g.isotropy(rep)
        entries.append(SkeletonEntry(
            orbit_rep=rep, orbit_size=len(block), isotropy_order=len(loops),
            loops=loops, table=table,
            canonical=groups.canonical_form(table)))
    entries.sort(key=lambda e: (e.isotropy_order, e.canonical))
    return Skeleton(entries=tuple(entries))


def skeleton_equal(a: Skeleton, b: Skeleton) -> bool:
    """Whether the isotropy groups match componentwise up to isomorphism.
    Entries are sorted by (order, canonical form), and equal canonical forms
    mean isomorphic groups, so the sorted canonical forms decide it."""
    return ([e.canonical for e in a.entries]
            == [e.canonical for e in b.entries])


def skeletal_equivalence_functor(h: FinGroupoid, g: FinGroupoid,
                                 cap: int = 24) -> StrictArrow | None:
    """An essentially surjective fully faithful functor h -> g built by
    matching skeleton entries, or None when the skeletons differ: the
    skeletal retraction of h, then the isotropy isomorphisms."""
    sk_h, sk_g = skeletonize(h, cap=cap), skeletonize(g, cap=cap)
    if not skeleton_equal(sk_h, sk_g):
        return None
    imgs, theta = {}, {}
    for eh, eg in zip(sk_h.entries, sk_g.entries):
        iso = groups.find_isomorphism(eh.table, eg.table)
        imgs.update(dict.fromkeys(h.component_of[eh.orbit_rep],
                                  g.unit[eg.orbit_rep]))
        theta.update(zip(eh.loops, (eg.loops[i] for i in iso)))
    return transport(f"match_{h.name}_{g.name}*retr_{h.name}", h, g, imgs,
                     theta)


@dataclass(frozen=True, eq=False)
class MoritaHomotopySpan:
    mid: FinGroupoid
    left_leg: StrictArrow   # mid -> K
    right_leg: StrictArrow  # mid -> G


def are_morita_homotopy_equivalent(k: FinGroupoid, g: FinGroupoid,
                                   cap: int = 24) -> MoritaHomotopySpan | None:
    """A span of essential homotopy equivalences joining k and g, or None.

    The boolean agrees with skeleton comparison; the span routes through
    the skeletal subgroupoid of k, whose inclusion and whose matching
    functor into g are both essential equivalences.
    """
    right = skeletal_equivalence_functor(k, g, cap=cap)
    if right is None:
        return None
    reps = [block[0] for block in k.components]
    mid = restrict(k, reps, name=f"sk({k.name})")
    incl = inclusion_functor(mid, k)
    return MoritaHomotopySpan(mid=mid, left_leg=incl,
                              right_leg=compose_functors(right, incl))
