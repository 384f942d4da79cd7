"""Seeded inputs for the three workloads, with their planted answers.

``generate(workload, seed, outdir)`` writes the input files and a
``manifest.json`` that lists the operations round by round.  Every op
carries the answer its generator planted; no grpd decider computes it.
The same seed writes byte-identical files.

Every round of a workload has the same composition (the same group kinds,
table shapes and probe slots); the seed picks relabellings, ids, orbit
sizes of the small blocks and the descent data.  A run executes whole
rounds, so runs with different seeds do the same kind of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from tables import (SMALL, TABLES, identity, inverses, random_relabelling,
                    relabel)

SPEED_SAMPLES = 5  # speed-loop runs before and after a set-up

# rounds written per run; classify never reuses a round, because reused
# tables would turn cold group-layer calls into cache hits
ROUNDS = {"classify": 12, "construct": 2, "descent": 8}

# classify: one cluster per entry, each block an (isotropy, m0, m1) triple:
# a kind, or "order<n>" for a seeded kind of that order from SMALL, with
# its object count in member 0 and member 1.  Shapes are fixed so that
# every round costs about the same; cluster 2 holds the probe pair.
CLASSIFY_CLUSTERS = [
    [("order6", 3, 2)],
    [("A4xZ2", 1, 1), ("order4", 2, 1)],
    [("Dic3xZ2", 1, 1), ("order6", 2, 2)],
    [("order8", 2, 1), ("order12", 1, 2), ("Q8xZ3", 1, 1)],
]
PROBE_CLUSTER = 2
# homotopic pairs: functors from member 0 into member 1 of these clusters
HOMOTOPIC_CLUSTERS = [1, 3]

ORDERS = {}
for _kind, _table in SMALL.items():
    ORDERS.setdefault(len(_table), []).append(_kind)


def _orbit_lines(objs, t, aid, out):
    """Append the arrow/id/inv/comp lines of Pair(objs) x K to ``out``."""
    m, n = len(objs), len(t)
    e, inv = identity(t), inverses(t)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                out["arrow"].append(
                    f"arrow {aid[i][j][k]} : {objs[i]} -> {objs[j]}")
                out["inv"].append(f"inv {aid[i][j][k]} = {aid[j][i][inv[k]]}")
        out["id"].append(f"id {objs[i]} = {aid[i][i][e]}")
    for i in range(m):
        for j in range(m):
            for l in range(m):
                for k1 in range(n):
                    a1 = aid[i][j][k1]
                    for k2 in range(n):
                        out["comp"].append(f"comp {aid[j][l][k2]} {a1} = "
                                           f"{aid[i][l][t[k2][k1]]}")


class Block:
    """One transitive block Pair(m) x K with a relabelled table and ids."""

    def __init__(self, kind, perm, objects, aid):
        self.kind = kind
        self.perm = perm  # catalog element i is named perm[i] here
        self.table = relabel(TABLES[kind], perm)
        self.objects = objects
        self.aid = aid  # aid[i][j][k]: the arrow (objects[i] -> objects[j], k)

    @property
    def order(self):
        return len(self.table)


def make_block(rng, kind, m, obj_name, arrow_name):
    n = len(TABLES[kind])
    objects = [obj_name(j) for j in range(m)]
    aid = [[[arrow_name(i, j, k) for k in range(n)] for j in range(m)]
           for i in range(m)]
    return Block(kind, random_relabelling(rng, TABLES[kind]), objects, aid)


def groupoid_text(name, blocks):
    out = {"arrow": [], "id": [], "inv": [], "comp": []}
    for b in blocks:
        _orbit_lines(b.objects, b.table, b.aid, out)
    objects = [x for b in blocks for x in b.objects]
    return "\n".join([f"groupoid {name}", "objects: " + " ".join(objects)]
                     + out["arrow"] + out["id"] + out["inv"]
                     + out["comp"]) + "\n"


def _write(outdir, name, text):
    Path(outdir, name).write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# classify


def _member(rng, name, kinds, sizes, punct):
    blocks = []
    for oi, (kind, m) in enumerate(zip(kinds, sizes)):
        if punct:
            blocks.append(make_block(
                rng, kind, m, lambda j, oi=oi: f"{name}.o{oi}!{j}@",
                lambda i, j, k, oi=oi: f"({oi}:{i}>{j})[{k}],*"))
        else:
            blocks.append(make_block(
                rng, kind, m, lambda j, oi=oi: f"{name}o{oi}n{j}",
                lambda i, j, k, oi=oi: f"a{oi}_{i}_{j}_{k}"))
    return blocks


def _plant_carrier_collision(a_blocks, b_blocks):
    """Ids on which grpd's bibundle point id ``f"{x}|{c}"`` collides.

    The Morita witness maps every object of a's small block to the least
    object of the matching block of b; naming two a-objects ``P`` and
    ``P|q`` and two arrows into that object ``q|r`` and ``r`` makes the
    points (P, q|r) and (P|q, r) share the id ``P|q|r``.
    """
    a, b = a_blocks[1], b_blocks[1]
    a.objects[0] += "P"
    a.objects[1] = a.objects[0] + "|q"
    rep = b.objects.index(min(b.objects))
    b.aid[0][rep][0] = "q|r"
    b.aid[1][rep][0] = "r"


def _class_key(kinds):
    return "+".join(sorted(kinds))


def _morita_carrier(a_blocks, b_blocks):
    """Points of the induced bibundle: a-objects times arrows into the
    matched b-object, block by block (kinds within a member are distinct)."""
    by_kind = {b.kind: b for b in b_blocks}
    return sum(len(a.objects) * len(by_kind[a.kind].objects) * a.order
               for a in a_blocks)


def _functor_text(name, dom, cod, obj_map, arr_map):
    lines = [f"functor {name} : {dom} -> {cod}"]
    lines += [f"obj {x} -> {y}" for x, y in obj_map.items()]
    lines += [f"arr {a} -> {b}" for a, b in arr_map.items()]
    return "\n".join(lines) + "\n"


def _homotopic_pair(rng, dom_blocks, cod_blocks, positive):
    """Functors F, G: dom -> cod, block i into block i.

    F relabels each isotropy table into the matching one.  A positive G
    conjugates F by chosen connecting arrows c_x: F(x) -> G(x); a negative
    G sends block 0 into block 1 of cod, where no arrow reaches.  Returns
    both maps and, when positive, the hom-set each component must lie in.
    """
    f_obj, f_arr, g_obj, g_arr, allowed = {}, {}, {}, {}, {}
    for bi, (d, c) in enumerate(zip(dom_blocks, cod_blocks)):
        # phi: d's labels -> c's labels, through the shared catalog table
        phi = [0] * d.order
        for k in range(d.order):
            phi[d.perm[k]] = c.perm[k]
        s = [rng.randrange(len(c.objects)) for _ in d.objects]
        s2 = [rng.randrange(len(c.objects)) for _ in d.objects]
        conn = [rng.randrange(c.order) for _ in d.objects]
        inv = inverses(c.table)
        moved = not positive and bi == 0
        other = cod_blocks[1]
        other_unit = identity(other.table)
        for i, x in enumerate(d.objects):
            f_obj[x] = c.objects[s[i]]
            g_obj[x] = other.objects[0] if moved else c.objects[s2[i]]
            if positive:
                allowed[x] = [c.aid[s[i]][s2[i]][k] for k in range(c.order)]
        t = c.table
        for i in range(len(d.objects)):
            for j in range(len(d.objects)):
                for k in range(d.order):
                    a = d.aid[i][j][k]
                    f_arr[a] = c.aid[s[i]][s[j]][phi[k]]
                    if moved:
                        g_arr[a] = other.aid[0][0][other_unit]
                    else:
                        # c_j . F(a) . c_i^-1 ("F(a) then c_j" after c_i^-1)
                        g_arr[a] = c.aid[s2[i]][s2[j]][
                            t[conn[j]][t[phi[k]][inv[conn[i]]]]]
    return f_obj, f_arr, g_obj, g_arr, allowed


def gen_classify(rng, outdir, sizes):
    rounds = []
    for r in range(ROUNDS["classify"]):
        members = []  # (name, blocks)
        for c, spec in enumerate(CLASSIFY_CLUSTERS):
            kinds = [rng.choice(ORDERS[int(k[5:])]) if k.startswith("order")
                     else k for k, _, _ in spec]
            pair = []
            for j in range(2):
                name = f"r{r}c{c}m{j}"
                punct = c == PROBE_CLUSTER
                pair.append((name, _member(rng, name, kinds,
                                           [b[1 + j] for b in spec], punct)))
            if c == PROBE_CLUSTER:
                _plant_carrier_collision(pair[0][1], pair[1][1])
            members.append(pair)
        ops = []
        flat = [m for pair in members for m in pair]
        for name, blocks in flat:
            sizes.add_blocks(blocks)
            sizes.add_bytes(_write(outdir, f"{name}.grpd",
                                   groupoid_text(name, blocks)))
        for name, blocks in flat:
            n = len(blocks)
            f = [f"{name}.grpd"]
            orbits = sorted(sorted(b.objects) for b in blocks)
            cls = _class_key(b.kind for b in blocks)
            ops.append({"cmd": "transitive", "files": f,
                        "exit": 0 if n == 1 else 1})
            ops.append({"cmd": "cgeo", "files": f, "exit": 0, "cgeo": n,
                        "cover": orbits})
            ops.append({"cmd": "locus", "files": f, "exit": 0,
                        "point": n == 1, "cgeo": n, "cls": cls})
            ops.append({"cmd": "skeleton", "files": f, "exit": 0,
                        "orders": sorted(b.order for b in blocks),
                        "cls": cls})
        pairs = [(members[c][0], members[c][1]) for c in range(len(members))]
        pairs += [(members[c][0], members[(c + 1) % len(members)][1])
                  for c in range(len(members))]
        for cmd in ("morita", "morita-homotopy"):
            for (a, ab), (b, bb) in pairs:
                same = (_class_key(x.kind for x in ab)
                        == _class_key(x.kind for x in bb))
                op = {"cmd": cmd, "files": [f"{a}.grpd", f"{b}.grpd"],
                      "exit": 0 if same else 1, "equivalent": same}
                if same and cmd == "morita":
                    op["carrier"] = _morita_carrier(ab, bb)
                    sizes.carrier_points += op["carrier"]
                    if a.startswith(f"r{r}c{PROBE_CLUSTER}"):
                        op["known_defect"] = "bibundle point id x|c"
                if same and cmd == "morita-homotopy":
                    op["orbits"] = [sorted(x.objects) for x in ab]
                ops.append(op)
        for c in HOMOTOPIC_CLUSTERS:
            (a, ab), (b, bb) = members[c]
            for positive in (True, False):
                fo, fa, go, ga, allowed = _homotopic_pair(rng, ab, bb,
                                                          positive)
                tag = f"r{r}c{c}{'p' if positive else 'n'}"
                text = (groupoid_text(a, ab) + groupoid_text(b, bb)
                        + _functor_text(f"F{tag}", a, b, fo, fa))
                sizes.add_bytes(_write(outdir, f"F{tag}.grpd", text))
                sizes.add_bytes(_write(outdir, f"G{tag}.grpd", _functor_text(
                    f"G{tag}", a, b, go, ga)))
                op = {"cmd": "homotopic",
                      "files": [f"F{tag}.grpd", f"G{tag}.grpd"],
                      "exit": 0 if positive else 1, "homotopic": positive}
                if positive:
                    op["allowed"] = allowed
                ops.append(op)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# construct

# (operation, isotropy kind, orbit size m); every result is validated as
# far as its size allows and serialized.  The last slot is the probe: its
# ids make grpd's cocylinder square id "(u,v)@base" collide.
CONSTRUCT_SLOTS = [
    ("cocylinder", "Z3", 2),
    ("cocylinder", "S3", 1),
    ("pullback1", "Z2", 2),
    ("pullback1", "Z4", 1),
    ("pullback1", "S3", 1),
    ("pullback2", "Z2", 2),
    ("inflate", "S3", 3),
    ("unit", "S3", 4),
    ("cocylinder", "Z2", 2),
]
INFLATE_COPIES = 2


def _construct_sizes(op, n, m):
    """Closed-form sizes of the result on Pair(m) x K with |K| = n."""
    if op == "cocylinder":
        return {"objects": m**2 * n, "arrows": m**4 * n**3,
                "comp": m**6 * n**5}
    if op == "pullback1":  # and one 2-cell
        return {"objects": m**2 * n, "arrows": m**4 * n**3,
                "comp": m**6 * n**5, "cells": 1}
    if op == "pullback2":
        return {"objects": m**3 * n**2, "arrows": m**6 * n**5,
                "comp": m**9 * n**8, "cells": 2}
    if op == "inflate":
        c = INFLATE_COPIES * m
        return {"objects": c, "arrows": c**2 * n, "comp": c**3 * n**2}
    return {"carrier": m**2 * n}


def _plant_square_collision(block):
    """Name four arrows out of one object ``s``, ``s,t``, ``t,w`` and ``w``:
    the squares (s, t,w) and (s,t, w) over the same base then share the
    cocylinder arrow id ``(s,t,w)@base``."""
    out = [(0, j, k) for j in range(len(block.objects))
           for k in range(block.order)]
    for (i, j, k), name in zip(out, ("s", "s,t", "t,w", "w")):
        block.aid[i][j][k] = name


def gen_construct(rng, outdir, sizes):
    rounds = []
    for r in range(ROUNDS["construct"]):
        ops = []
        for i, (op, kind, m) in enumerate(CONSTRUCT_SLOTS):
            name = f"s{r}_{i}"
            probe = i == len(CONSTRUCT_SLOTS) - 1
            if probe:
                block = make_block(rng, kind, m, lambda j: f"x.{j}!",
                                   lambda a, b, k: f"({a}>{b})[{k}]|@")
                _plant_square_collision(block)
            else:
                block = make_block(rng, kind, m, lambda j: f"{name}o{j}",
                                   lambda a, b, k: f"a{a}_{b}_{k}")
            text = groupoid_text(name, [block])
            if op.startswith("pullback"):
                ident = {x: x for x in block.objects}
                arrs = {a: a for row in block.aid for col in row
                        for a in col}
                text += (_functor_text(f"{name}L", name, name, ident, arrs)
                         + _functor_text(f"{name}R", name, name, ident, arrs))
            sizes.add_blocks([block])
            sizes.add_bytes(_write(outdir, f"{name}.grpd", text))
            entry = {"op": op, "file": f"{name}.grpd", "order": block.order,
                     "m": m, "expect": _construct_sizes(op, block.order, m)}
            sizes.output_comp += entry["expect"].get("comp", 0)
            sizes.carrier_points += entry["expect"].get("carrier", 0)
            if probe:
                entry["known_defect"] = "cocylinder square id (u,v)@base"
            ops.append(entry)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# descent

DESCENT_DATA = 24     # data per round
DESCENT_NEGATIVE = (3, 9, 15)  # slots with two values swapped in one
                               # transition (fixed: a negative op is cheaper)
DESCENT_LARGE = 6     # the last slots hold data with twice the base
DESCENT_BASE = 20     # base points of the other data (the tests use <= 8)
DESCENT_PIECES = 3
# The shape of the data: per base point, its fibre size (0-4) and how many
# points each of the 3 pieces holds over it (0-2; 3 in all, so the pieces
# cover jointly).  The seed shuffles the shape over the base points and
# picks the ids, so data of one base size cost the same: the median op is
# one of 15 alike positives and the tail falls among the large data,
# whatever the seed.


def _shape(base_size):
    return [(j % 5, (j % 3, (j + 1) % 3, (j + 2) % 3))
            for j in range(base_size)]


def _random_datum(rng, name, base_size):
    """corpus.random_datum with a fixed shape: a bundle and a cover laid
    out by a seeded shuffle of ``_shape(base_size)``, descended along the
    cover and scrambled as corpus.random_datum does."""
    from grpd import corpus, descent

    base = tuple(f"x{i}" for i in range(base_size))
    shape = _shape(base_size)
    rng.shuffle(shape)
    total, proj = [], {}
    for x, (fibre, _) in zip(base, shape):
        for j in range(fibre):
            total.append(f"{x}e{j}")
            proj[f"{x}e{j}"] = x
    bundle = descent.Bundle(name=f"{name}A", base=base, total=tuple(total),
                            proj=proj)
    pieces = []
    for i in range(DESCENT_PIECES):
        to_base = {f"p{i}u{j}c{k}": x
                   for j, (x, (_, over)) in enumerate(zip(base, shape))
                   for k in range(over[i])}
        pieces.append(descent.CoverPiece(name=f"U{i}",
                                         elements=tuple(to_base),
                                         to_base=to_base))
    cover = descent.Cover(name=f"{name}C", base=base, pieces=tuple(pieces))
    return bundle, cover, corpus.scramble_datum(
        rng, descent.descend(bundle, cover))


def _fibre_sizes(bundle):
    sizes = {x: 0 for x in bundle.base}
    for a in bundle.total:
        sizes[bundle.proj[a]] += 1
    return sizes


def _swap_one_transition(rng, datum):
    """Copy of the datum with two values swapped in one transition
    bijection over a fibre of size >= 2, or None when no fibre is that big."""
    from grpd.descent import DescentDatum

    spots = [(key, uv) for key, table in sorted(datum.transitions.items())
             for uv, m in sorted(table.items()) if len(m) >= 2]
    if not spots:
        return None
    key, uv = rng.choice(spots)
    trans = {k: {p: dict(m) for p, m in t.items()}
             for k, t in datum.transitions.items()}
    m = trans[key][uv]
    a, b = rng.sample(sorted(m), 2)
    m[a], m[b] = m[b], m[a]
    return DescentDatum(name=datum.name, cover=datum.cover,
                        fibres=datum.fibres, transitions=trans)


def _collision_datum_text(rng, name):
    """A valid datum on which grpd's glued class id ``f"{piece}.{elem}"``
    collides: piece ``U`` holds ``V.e`` over x0 and piece ``U.V`` holds
    ``e`` over x1, both least in their classes, and ``U.V.e`` names both.
    Returns the text and the fibre size over each base point."""
    base = [f"x!{i}" for i in range(rng.randint(3, 6))]
    fibre = {x: rng.randint(1, 3) for x in base}
    pieces = {"U": {"u0": base[0]},
              "U.V": {f"v{i}": x for i, x in enumerate(base) if i >= 1},
              "W|*": {f"w({i})[{c}]": x for i, x in enumerate(base)
                      for c in range(rng.randint(0, 2))}}
    if not pieces["W|*"]:
        del pieces["W|*"]

    def elem(p, u, t):
        if (p, u, t) == ("U", "u0", 0):
            return "V.e"
        if (p, u, t) == ("U.V", "v1", 0):
            return "e"
        return f"{u}:{t}"

    lines = [f"cover {name}C", "base: " + " ".join(base)]
    for p, els in pieces.items():
        lines.append(f"piece {p} : " + " ".join(els))
        lines += [f"map {p} {u} -> {x}" for u, x in els.items()]
    lines.append(f"datum {name} : {name}C")
    for p, els in pieces.items():
        for u, x in els.items():
            lines.append(f"fiber {p} {u} : " + " ".join(
                elem(p, u, t) for t in range(fibre[x])))
    for p, els in pieces.items():
        for q, els2 in pieces.items():
            for u, x in els.items():
                for v, y in els2.items():
                    if x == y:
                        lines += [f"trans {p} {q} {u} {v} {elem(p, u, t)} "
                                  f"-> {elem(q, v, t)}"
                                  for t in range(fibre[x])]
    return "\n".join(lines) + "\n", fibre


def gen_descent(rng, outdir, sizes):
    from grpd import formats

    rounds = []
    for r in range(ROUNDS["descent"]):
        ops = []
        for i in range(DESCENT_DATA):
            name = f"d{r}_{i}"
            negative = i in DESCENT_NEGATIVE
            large = i >= DESCENT_DATA - DESCENT_LARGE
            bundle, cover, datum = _random_datum(
                rng, name, DESCENT_BASE * (2 if large else 1))
            # every datum has fibres of size >= 2, so a swap always exists
            swapped = _swap_one_transition(rng, datum) if negative else datum
            text = formats.serialize_datum(swapped)
            entry = {"file": f"{name}.desc", "datum": datum.name,
                     "negative": negative}
            if not negative:
                entry["fibres"] = _fibre_sizes(bundle)
                entry["pieces"] = {p.name: p.to_base for p in cover.pieces}
            sizes.add_datum(cover, _fibre_sizes(bundle))
            sizes.add_bytes(_write(outdir, entry["file"], text))
            ops.append(entry)
        name = f"d{r}_probe"
        text, fibre = _collision_datum_text(rng, name)
        sizes.add_bytes(_write(outdir, f"{name}.desc", text))
        ops.append({"file": f"{name}.desc", "datum": name, "negative": False,
                    "fibres": fibre, "pieces": None,
                    "known_defect": "glued class id piece.elem"})
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------


class Sizes:
    """Sizes of a run's inputs (and of construct's planted outputs, per
    pass over the rounds), reported next to its timings."""

    def __init__(self):
        self.objects = self.arrows = self.comp = self.bytes = 0
        self.output_comp = self.carrier_points = 0
        self.isotropy_orders = set()
        self.base_points = self.cover_points = self.overlap_triples = 0

    def add_blocks(self, blocks):
        for b in blocks:
            m, n = len(b.objects), b.order
            self.objects += m
            self.arrows += m * m * n
            self.comp += m**3 * n * n
            self.isotropy_orders.add(n)

    def add_bytes(self, n):
        self.bytes += n

    def add_datum(self, cover, fibres):
        self.base_points += len(cover.base)
        over = {x: 0 for x in cover.base}
        for p in cover.pieces:
            for u in p.elements:
                over[p.to_base[u]] += 1
        self.cover_points += sum(over.values())
        self.overlap_triples += sum(k**3 for k in over.values())

    def as_dict(self):
        out = {"input_bytes": self.bytes}
        if self.objects:
            out.update(objects=self.objects, arrows=self.arrows,
                       comp_entries=self.comp,
                       isotropy_orders=sorted(self.isotropy_orders),
                       carrier_points=self.carrier_points)
        if self.output_comp:
            out["output_comp_entries"] = self.output_comp
        if self.base_points:
            out.update(base_points=self.base_points,
                       cover_points=self.cover_points,
                       overlap_triples=self.overlap_triples)
        return out


GENERATORS = {"classify": gen_classify, "construct": gen_construct,
              "descent": gen_descent}


def generate(workload, seed, outdir):
    """Write the workload's inputs and manifest into outdir."""
    Path(outdir).mkdir(parents=True, exist_ok=True)
    sizes = Sizes()
    rounds = GENERATORS[workload](random.Random(seed), outdir, sizes)
    manifest = {"workload": workload, "seed": seed, "rounds": rounds,
                "sizes": sizes.as_dict()}
    Path(outdir, "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return manifest


def main(argv=None):
    """Set up once and print the time taken: importing grpd, generating
    the inputs and writing them, with the speed loop's times around it."""
    import argparse
    import sys
    from time import perf_counter

    from speed import LOOPS

    loop_times = [LOOPS["interp"]() for _ in range(SPEED_SAMPLES)]
    t0 = perf_counter()
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", choices=sorted(GENERATORS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import grpd.cli  # noqa: F401  (set-up includes loading the package)
    generate(args.workload, args.seed, args.out)
    setup_s = perf_counter() - t0
    loop_times += [LOOPS["interp"]() for _ in range(SPEED_SAMPLES)]
    print(json.dumps({"setup_s": setup_s, "loop_times": loop_times}))


if __name__ == "__main__":
    main()
