"""Seeded random instances: groupoids, covers, descent data.

Every finite groupoid is, up to isomorphism, a disjoint union of
transitive blocks Pair(m) x K with K the isotropy group, so the generator
draws per-orbit (size, group) data from the order <= 6 catalog.  All
randomness flows through an explicit seed; nothing here is nondeterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import groups
from .core import (FinGroupoid, StrictArrow, disjoint_union, id_part,
                   index_arrows, tabulate)
from .descent import Bundle, Cover, CoverPiece, DescentDatum, descend


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    count: int = 100
    max_objects: int = 6
    max_isotropy: int = 6
    max_arrows: int = 80


def transitive_groupoid(name: str, objects, table) -> FinGroupoid:
    """Pair(objects) x K: arrows (x, y, k) with componentwise composition."""
    objects = tuple(objects)
    table = tuple(tuple(row) for row in table)
    e = groups.identity_of(table)
    inv = groups.inverses(table)
    head = {x: id_part(x, ">") for x in objects}
    arrows = {(x, y, k): f"{head[x]}>{y}:{k}"
              for x in objects for y in objects for k in range(len(table))}
    return tabulate(
        name, objects, arrows, ends=lambda p: p[:2],
        compose=lambda p, qs: [arrows[p[0], z, table[l][p[2]]]
                               for _, z, l in qs],
        unit=lambda x: (x, x, e), inv=lambda p: (p[1], p[0], inv[p[2]]))


def inflate(g: FinGroupoid, copies: dict[str, int]):
    """Blow each object x up into copies[x] isomorphic ones; returns the
    inflated groupoid and the collapsing projection functor, an essential
    equivalence."""
    obj = {(x, i): f"{x}@{i}" for x in g.objects for i in range(copies[x])}
    # arrows[c, i, j] = ids[i][j][c]
    arrows, ids = {}, {}
    for c in g.arrows:
        for i in range(copies[g.src[c]]):
            row = ids.setdefault(i, {})
            for j in range(copies[g.tgt[c]]):
                arrows[c, i, j] = row.setdefault(j, {})[c] = f"{c}@{i}>{j}"
    units = {o: (g.unit[x], i, i) for (x, i), o in obj.items()}
    after = g.after

    def compose(p, qs):
        c, i, _ = p
        row, then = ids[i], after[c]
        return [row[j][then[d]] for d, _, j in qs]

    big = tabulate(
        f"{g.name}*inflated", obj.values(), arrows,
        ends=lambda p: (obj[g.src[p[0]], p[1]], obj[g.tgt[p[0]], p[2]]),
        compose=compose,
        unit=units.__getitem__, inv=lambda p: (g.inv[p[0]], p[2], p[1]))
    proj = StrictArrow(
        name=f"collapse_{g.name}", dom=big, cod=g,
        obj_map={o: x for (x, _), o in obj.items()},
        arr_map={a: p[0] for p, a in arrows.items()})
    return big, proj


def random_groupoid(rng: random.Random, name: str,
                    max_objects: int = 6, max_isotropy: int = 6,
                    skeleton_spec=None, max_arrows: int = 80) -> FinGroupoid:
    """Disjoint union of random transitive blocks.  A skeleton_spec (list
    of group tables) pins the equivalence class while sizes stay random;
    orbit sizes grow only while the total object and arrow budgets allow
    (a block of size m with isotropy K contributes m^2 |K| arrows)."""
    if skeleton_spec is None:
        catalog = [t for _, t in groups.small_groups(max_isotropy)]
        n_orbits = rng.randint(1, max(1, max_objects // 2))
        skeleton_spec = [rng.choice(catalog) for _ in range(n_orbits)]
    buckets = len(skeleton_spec)
    sizes = [1] * buckets

    def arrow_total():
        return sum(s * s * len(t) for s, t in zip(sizes, skeleton_spec))

    for _ in range(rng.randint(0, max(0, max_objects - buckets))):
        i = rng.randrange(buckets)
        sizes[i] += 1
        if sum(sizes) > max_objects or arrow_total() > max_arrows:
            sizes[i] -= 1
    parts = []
    for i, (size, table) in enumerate(zip(sizes, skeleton_spec)):
        objs = [f"{name}o{i}n{j}" for j in range(size)]
        parts.append(transitive_groupoid(f"{name}b{i}", objs, table))
    return disjoint_union(name, parts)


# the chance that a corpus member reuses the previous member's skeleton
EQUIVALENT_CLUSTER_RATE = 0.3


def corpus_groupoids(cfg: CorpusConfig) -> list[FinGroupoid]:
    """Seeded corpus with deliberate clusters of equivalent groupoids
    (same skeleton, different orbit sizes and labels)."""
    rng = random.Random(cfg.seed)
    catalog = [t for _, t in groups.small_groups(cfg.max_isotropy)]
    out: list[FinGroupoid] = []
    cluster_spec = None
    for i in range(cfg.count):
        if cluster_spec is not None and rng.random() < EQUIVALENT_CLUSTER_RATE:
            spec = cluster_spec
        else:
            n_orbits = rng.randint(1, max(1, cfg.max_objects // 2))
            spec = [rng.choice(catalog) for _ in range(n_orbits)]
            cluster_spec = spec
        out.append(random_groupoid(rng, f"g{i}", cfg.max_objects,
                                   cfg.max_isotropy, skeleton_spec=spec,
                                   max_arrows=cfg.max_arrows))
    return out


# ---------------------------------------------------------------------------
# descent instances


def random_bundle(rng: random.Random, name: str, base_size: int = 8,
                  max_fibre: int = 5) -> Bundle:
    base = tuple(f"x{i}" for i in range(rng.randint(1, base_size)))
    total, proj = [], {}
    for x in base:
        for j in range(rng.randint(0, max_fibre)):
            e = f"{x}e{j}"
            total.append(e)
            proj[e] = x
    return Bundle(name=name, base=base, total=tuple(total), proj=proj)


def random_cover(rng: random.Random, name: str, base) -> Cover:
    base = tuple(base)
    n_pieces = rng.randint(1, 4)
    pieces = []
    for i in range(n_pieces):
        elements, to_base = [], {}
        for j, x in enumerate(base):
            for k in range(rng.randint(0, 2)):
                u = f"p{i}u{j}c{k}"
                elements.append(u)
                to_base[u] = x
        pieces.append(CoverPiece(name=f"U{i}", elements=tuple(elements),
                                 to_base=to_base))
    # patch joint surjectivity: route every missed base point into piece 0
    hit = {p.to_base[u] for p in pieces for u in p.elements}
    missing = [x for x in base if x not in hit]
    if missing:
        p0 = pieces[0]
        extra = tuple(f"p0fix{i}" for i in range(len(missing)))
        pieces[0] = CoverPiece(
            name=p0.name, elements=p0.elements + extra,
            to_base={**p0.to_base, **dict(zip(extra, missing))})
    return Cover(name=name, base=base, pieces=tuple(pieces))


def scramble_datum(rng: random.Random, d: DescentDatum) -> DescentDatum:
    """Conjugate a datum by random per-point fibre relabellings; preserves
    the cocycle conditions while destroying the canonical pulled-back
    shape, giving honest non-trivial transitions."""
    relabel: dict[str, dict[str, str]] = {}
    new_fibres = {}
    for p in d.cover.pieces:
        fib = d.fibres[p.name]
        fibre = index_arrows(fib.total, fib.proj)
        mapping = {}
        for u in p.elements:
            elems = list(fibre.get(u, ()))
            shuffled = [f"{p.name}.{u}.f{i}" for i in range(len(elems))]
            rng.shuffle(elems)
            mapping.update(dict(zip(elems, shuffled)))
        relabel[p.name] = mapping
        new_fibres[p.name] = Bundle(
            name=f"{fib.name}~", base=fib.base,
            total=tuple(sorted(mapping.values())),
            proj={mapping[a]: fib.proj[a] for a in fib.total})
    new_transitions = {}
    for (i, j), table in d.transitions.items():
        new_table = {}
        for (u, v), m in table.items():
            new_table[(u, v)] = {relabel[i][a]: relabel[j][b]
                                 for a, b in m.items()}
        new_transitions[(i, j)] = new_table
    return DescentDatum(name=f"{d.name}~", cover=d.cover, fibres=new_fibres,
                        transitions=new_transitions)


def random_datum(rng: random.Random, name: str, base_size: int = 8,
                 max_fibre: int = 5) -> tuple[Bundle, Cover, DescentDatum]:
    """A valid random datum, produced by descending a random bundle along a
    random cover and scrambling the fibres."""
    bundle = random_bundle(rng, f"{name}A", base_size, max_fibre)
    cover = random_cover(rng, f"{name}C", bundle.base)
    return bundle, cover, scramble_datum(rng, descend(bundle, cover))
