import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd import cli, descent
from grpd.corpus import random_bundle, random_cover, random_datum, \
    scramble_datum
from grpd.descent import (BadDatum, Bundle, CocycleReport, CocycleViolation,
                          Cover, CoverPiece, DescentDatum, DescentError,
                          GlueResult, NotSurjective, check_cocycle,
                          descend, glue, validate_datum)
from grpd.formats import parse_document, serialize_datum


def fibre_of(b: Bundle, x):
    """The elements of b over x, in the order of b's total."""
    return [a for a in b.total if b.proj[a] == x]


def swap_datum(f21_swap=True):
    cover = Cover("C", ("*",), (CoverPiece("U", ("a", "b"),
                                           {"a": "*", "b": "*"}),))
    fib = Bundle("A", ("a", "b"), ("a0", "a1", "b0", "b1"),
                 {"a0": "a", "a1": "a", "b0": "b", "b1": "b"})
    back = {"b0": "a1", "b1": "a0"} if f21_swap else {"b0": "a0", "b1": "a1"}
    table = {("U", "U"): {
        ("a", "a"): {"a0": "a0", "a1": "a1"},
        ("b", "b"): {"b0": "b0", "b1": "b1"},
        ("a", "b"): {"a0": "b1", "a1": "b0"},
        ("b", "a"): back,
    }}
    return DescentDatum("D", cover, {"U": fib}, table)


# ---------------------------------------------------------------------------
# subcanonical


def test_subcanonical_two_to_one(factor_through):
    p = {"1": "x", "2": "x", "3": "y"}
    # a map constant on the fibres factors, and only through one map
    assert factor_through(p, {"1": 0, "2": 0, "3": 0}, ["x", "y"]) == \
        ({"x": 0, "y": 0}, None)
    # a map separating the fibre {1, 2} does not, and the pair is named
    for q in ({"1": 0, "2": 1, "3": 0}, {u: u for u in p}):
        assert factor_through(p, q, ["x", "y"]) == (None, ("1", "2"))
    assert factor_through({**p, "0": "y"}, {"0": 1, "1": 0, "2": 0, "3": 2},
                          ["x", "y"]) == (None, ("0", "3"))


def test_subcanonical_bijection(factor_through):
    assert factor_through({"1": "x"}, {"1": "a"}, ["x"]) == ({"x": "a"}, None)


def test_subcanonical_rejects_inclusion(factor_through):
    with pytest.raises(NotSurjective):
        factor_through({"1": "x"}, {"1": "x"}, ["x", "y"])


def all_surjections(n, k):
    """Every onto map range(n) -> range(k), generated recursively."""
    f = [0] * n
    out = []

    def rec(i, used):
        if n - i < k - len(used):
            return
        if i == n:
            out.append(tuple(f))
            return
        for v in range(k):
            f[i] = v
            rec(i + 1, used | {v} if v not in used else used)

    rec(0, frozenset())
    return out


def test_every_small_surjection_is_subcanonical(factor_through):
    checked = refused = 0
    for n in range(1, 6):
        domain = [f"u{i}" for i in range(n)]
        identity = {u: u for u in domain}
        for k in range(1, n + 1):
            base = [f"x{j}" for j in range(k)]
            parity = {x: j % 2 for j, x in enumerate(base)}
            for f in all_surjections(n, k):
                mapping = {u: base[v] for u, v in zip(domain, f)}
                q = {u: parity[x] for u, x in mapping.items()}
                assert factor_through(mapping, q, base) == (parity, None)
                if n > k:
                    h, (u, v) = factor_through(mapping, identity, base)
                    assert h is None and u < v and mapping[u] == mapping[v]
                    refused += 1
                checked += 1
    assert checked == sum(
        len(all_surjections(n, k))
        for n in range(1, 6) for k in range(1, n + 1))
    # every surjection but the 1 + 2 + 6 + 24 + 120 bijections
    assert refused == checked - 153


# ---------------------------------------------------------------------------
# cocycle conditions


def test_identity_transitions_pass(corpus):
    rng = random.Random(5)
    bundle = random_bundle(rng, "A", 5, 3)
    cover = random_cover(rng, "C", bundle.base)
    assert check_cocycle(descend(bundle, cover)).ok


def test_swap_transitions_pass():
    assert check_cocycle(swap_datum()).ok


def test_broken_swap_fails_with_witness():
    report = check_cocycle(swap_datum(f21_swap=False))
    assert not report.ok
    kind, pieces, overlap, element = report.failure
    assert kind == "b"
    assert pieces == ("U", "U", "U")


def test_diagonal_condition_detected():
    d = swap_datum()
    table = {k: dict(v) for k, v in d.transitions[("U", "U")].items()}
    table[("a", "a")] = {"a0": "a1", "a1": "a0"}
    bad = DescentDatum("D2", d.cover, d.fibres, {("U", "U"): table})
    report = check_cocycle(bad)
    assert not report.ok and report.failure[0] == "a"


def test_structurally_broken_datum_rejected():
    d = swap_datum()
    missing = {("U", "U"): {k: v for k, v in d.transitions[("U", "U")].items()
                            if k != ("a", "b")}}
    with pytest.raises(BadDatum):
        validate_datum(DescentDatum("D3", d.cover, d.fibres, missing))
    not_bijective = {("U", "U"): {**d.transitions[("U", "U")],
                                  ("a", "b"): {"a0": "b1", "a1": "b1"}}}
    with pytest.raises(BadDatum):
        validate_datum(DescentDatum("D4", d.cover, d.fibres, not_bijective))


# ---------------------------------------------------------------------------
# gluing


def test_glue_swap_gives_two_global_sections():
    glued = glue(swap_datum())
    assert len(glued.bundle.total) == 2
    assert set(glued.bundle.proj.values()) == {"*"}
    # each class is named after its least (piece, element) member
    assert glued.bundle.total == ("U.a0", "U.a1")


def test_glue_constant_datum_recovers_product():
    base = ("1", "2", "3")
    bundle = Bundle("A", base, tuple(f"{x}f{i}" for x in base
                                     for i in range(2)),
                    {f"{x}f{i}": x for x in base for i in range(2)})
    pieces = (CoverPiece("U1", ("u1", "u2"), {"u1": "1", "u2": "2"}),
              CoverPiece("U2", ("v2", "v3"), {"v2": "2", "v3": "3"}))
    cover = Cover("C", base, pieces)
    glued = glue(descend(bundle, cover))
    assert len(glued.bundle.total) == len(bundle.total)
    fibre_sizes = sorted(len(fibre_of(glued.bundle, x)) for x in base)
    assert fibre_sizes == [2, 2, 2]


def test_glue_single_identity_piece_is_the_local_bundle():
    base = ("x", "y")
    bundle = Bundle("A", base, ("e0", "e1", "e2"),
                    {"e0": "x", "e1": "x", "e2": "y"})
    cover = Cover("C", base, (CoverPiece("U", ("x", "y"),
                                         {"x": "x", "y": "y"}),))
    datum = descend(bundle, cover)
    glued = glue(datum)
    assert len(glued.bundle.total) == 3
    local = datum.fibres["U"]
    assert sorted(len(fibre_of(local, u)) for u in ("x", "y")) == \
        sorted(len(fibre_of(glued.bundle, x)) for x in base)


def test_glue_raises_on_cocycle_violation():
    with pytest.raises(CocycleViolation):
        glue(swap_datum(f21_swap=False))


# ---------------------------------------------------------------------------
# round trips


def assert_bundle_isomorphic_over_base(a: Bundle, b: Bundle):
    assert set(a.base) == set(b.base)
    for x in a.base:
        assert len(fibre_of(a, x)) == len(fibre_of(b, x)), x


def test_descend_then_glue_round_trip():
    rng = random.Random(17)
    for i in range(100):
        bundle, cover, datum = random_datum(rng, f"r{i}")
        assert check_cocycle(datum).ok
        glued = glue(datum)
        assert_bundle_isomorphic_over_base(glued.bundle, bundle)
        # the piece comparison maps are exactly the pullback identifications
        for p in cover.pieces:
            fib = datum.fibres[p.name]
            local = glued.piece_maps[p.name]
            for u in p.elements:
                images = {local[(u, a)] for a in fibre_of(fib, u)}
                assert len(images) == len(fibre_of(fib, u))
                assert images == {c for c in glued.bundle.total
                                  if glued.bundle.proj[c] == p.to_base[u]}


def test_glue_then_descend_round_trip():
    rng = random.Random(23)
    for i in range(100):
        bundle, cover, datum = random_datum(rng, f"s{i}")
        glued = glue(datum)
        descended = descend(glued.bundle, cover)
        # theta_i(a) = (u, class(i, a)) is a datum isomorphism: bijective on
        # fibres and commuting with the transitions on every overlap
        theta = {}
        for p in cover.pieces:
            fib = datum.fibres[p.name]
            local = glued.piece_maps[p.name]
            theta[p.name] = {a: f"{fib.proj[a]}.{local[(fib.proj[a], a)]}"
                             for a in fib.total}
            assert sorted(theta[p.name].values()) == \
                sorted(descended.fibres[p.name].total)
        for pi in cover.pieces:
            for pj in cover.pieces:
                src = datum.transitions[(pi.name, pj.name)]
                dst = descended.transitions[(pi.name, pj.name)]
                for (u, v), m in src.items():
                    for a, b in m.items():
                        assert dst[(u, v)][theta[pi.name][a]] == \
                            theta[pj.name][b]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_random_data_always_glue(seed):
    rng = random.Random(seed)
    bundle, cover, datum = random_datum(rng, "h", base_size=5, max_fibre=3)
    assert check_cocycle(datum).ok
    glued = glue(datum)
    assert_bundle_isomorphic_over_base(glued.bundle, bundle)


def test_scramble_preserves_cocycle():
    rng = random.Random(31)
    bundle = random_bundle(rng, "A", 6, 4)
    cover = random_cover(rng, "C", bundle.base)
    datum = descend(bundle, cover)
    for _ in range(5):
        datum = scramble_datum(rng, datum)
        assert check_cocycle(datum).ok


# ---------------------------------------------------------------------------
# stray entries


def test_stray_transitions_rejected():
    d = swap_datum()
    # U has no element "c", so (a, c) is no overlap pair
    table = {**d.transitions[("U", "U")], ("a", "c"): {}}
    with pytest.raises(BadDatum) as err:
        validate_datum(DescentDatum("D5", d.cover, d.fibres,
                                    {("U", "U"): table}))
    assert err.value.witness == (("U", "U"), ("a", "c"))
    extra = {**d.transitions, ("U", "V"): {}, ("T", "U"): {}}
    with pytest.raises(BadDatum) as err:
        validate_datum(DescentDatum("D6", d.cover, d.fibres, extra))
    assert err.value.witness == ("T", "U")


def test_duplicate_cover_ids_rejected():
    twice = Cover("C", ("*",), (CoverPiece("U", ("a", "a"), {"a": "*"}),))
    with pytest.raises(BadDatum) as err:
        twice.validate()
    assert err.value.witness == "a"
    piece = CoverPiece("U", ("a",), {"a": "*"})
    with pytest.raises(BadDatum) as err:
        Cover("C", ("*",), (piece, piece)).validate()
    assert err.value.witness == "U"


# ---------------------------------------------------------------------------
# oracles: the quadratic overlap, the full cocycle sweep and the gluing
# that checks the cocycle conditions before it builds the quotient


def oracle_overlap(pi, pj):
    return [(u, v) for u in pi.elements for v in pj.elements
            if pi.to_base[u] == pj.to_base[v]]


def oracle_check_cocycle(d):
    validate_datum(d)
    for p in d.cover.pieces:
        table = d.transitions[(p.name, p.name)]
        for u in p.elements:
            for a, b in table[(u, u)].items():
                if a != b:
                    return CocycleReport(ok=False,
                                         failure=("a", p.name, u, a, b))
    pieces = d.cover.pieces
    for pi in pieces:
        for pj in pieces:
            for pk in pieces:
                for u in pi.elements:
                    for v in pj.elements:
                        if pi.to_base[u] != pj.to_base[v]:
                            continue
                        for w in pk.elements:
                            if pk.to_base[w] != pi.to_base[u]:
                                continue
                            fij = d.transitions[(pi.name, pj.name)][(u, v)]
                            fjk = d.transitions[(pj.name, pk.name)][(v, w)]
                            fik = d.transitions[(pi.name, pk.name)][(u, w)]
                            for a in fij:
                                if fjk[fij[a]] != fik[a]:
                                    return CocycleReport(
                                        ok=False,
                                        failure=("b",
                                                 (pi.name, pj.name, pk.name),
                                                 (u, v, w), a))
    return CocycleReport(ok=True)


def oracle_classes(items, links):
    """Connected components by search: sorted, ordered by least member."""
    adjacent = {x: [] for x in items}
    for x, y in links:
        adjacent[x].append(y)
        adjacent[y].append(x)
    seen, classes = set(), []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        block, todo = [], [x]
        while todo:
            y = todo.pop()
            block.append(y)
            for z in adjacent[y]:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        classes.append(tuple(sorted(block)))
    return sorted(classes)


def escaped(s, sep):
    """The id escape rule, a character at a time: a backslash before each
    ``sep`` and each backslash.  The oracles spell ids with it rather than
    with ``core.id_part``."""
    return "".join("\\" + ch if ch in (sep, "\\") else ch for ch in s)


def oracle_glue(d):
    report = oracle_check_cocycle(d)
    if not report:
        raise CocycleViolation(f"cocycle conditions fail: {report.failure}",
                               witness=report.failure)
    pieces = d.cover.pieces
    tagged = [(p.name, a) for p in pieces for a in d.fibres[p.name].total]
    links = [((pi.name, a), (pj.name, b)) for pi in pieces for pj in pieces
             for m in d.transitions[(pi.name, pj.name)].values()
             for a, b in m.items()]
    piece_of = {p.name: p for p in pieces}
    total, proj, member_cls = [], {}, {}
    for members in oracle_classes(tagged, links):
        cid = f"{escaped(members[0][0], '.')}.{members[0][1]}"
        total.append(cid)
        bases = {piece_of[pname].to_base[d.fibres[pname].proj[a]]
                 for (pname, a) in members}
        for member in members:
            member_cls[member] = cid
        if len(bases) != 1:
            raise CocycleViolation(
                f"glued class {cid!r} sits over several base points "
                f"{sorted(bases)}", witness=cid)
        proj[cid] = bases.pop()
    bundle = Bundle(name=f"glue({d.name})", base=d.cover.base,
                    total=tuple(sorted(total)), proj=proj)
    piece_maps = {}
    for p in pieces:
        fib = d.fibres[p.name]
        local = {(fib.proj[a], a): member_cls[(p.name, a)] for a in fib.total}
        for u in p.elements:
            glued_fibre = {c for c in bundle.total
                           if proj[c] == p.to_base[u]}
            image = {local[(u, a)] for a in fibre_of(fib, u)}
            if image != glued_fibre or len(image) != len(fibre_of(fib, u)):
                raise CocycleViolation(
                    f"piece {p.name!r} does not compare bijectively over "
                    f"{u!r}", witness=(p.name, u))
        piece_maps[p.name] = local
    return GlueResult(bundle=bundle, piece_maps=piece_maps)


def glue_outcome(glue_fn, d):
    """The glued bundle and comparison maps, or the exception's type,
    message and witness."""
    try:
        r = glue_fn(d)
    except DescentError as e:
        return type(e), str(e), e.witness
    b = r.bundle
    return b.name, b.base, b.total, b.proj, r.piece_maps


def mutants(rng, d):
    """Copies of d with two values swapped in one transition, with a
    non-identity diagonal, and with every transition from one piece to
    another redrawn at random (many failing triples, so the sweep order
    decides the witness), where the fibres allow them."""
    def copy():
        return {k: {uv: dict(m) for uv, m in t.items()}
                for k, t in d.transitions.items()}

    out = []
    spots = [(k, uv) for k, t in sorted(d.transitions.items())
             for uv, m in sorted(t.items()) if len(m) >= 2]
    if spots:
        trans = copy()
        key, uv = rng.choice(spots)
        m = trans[key][uv]
        a, b = rng.sample(sorted(m), 2)
        m[a], m[b] = m[b], m[a]
        out.append(DescentDatum(d.name + "s", d.cover, d.fibres, trans))
    diagonal = [(k, uv) for k, uv in spots if k[0] == k[1] and uv[0] == uv[1]]
    if diagonal:
        trans = copy()
        key, uv = rng.choice(diagonal)
        keys = sorted(trans[key][uv])
        trans[key][uv] = dict(zip(keys, keys[1:] + keys[:1]))
        out.append(DescentDatum(d.name + "d", d.cover, d.fibres, trans))
    across = sorted({k for k, _ in spots if k[0] != k[1]})
    if across:
        trans = copy()
        key = rng.choice(across)
        for uv, m in sorted(trans[key].items()):
            values = sorted(m.values())
            rng.shuffle(values)
            trans[key][uv] = dict(zip(sorted(m), values))
        out.append(DescentDatum(d.name + "r", d.cover, d.fibres, trans))
    return out


def collision_datum():
    """A valid datum whose glued class ids would collide unescaped: piece U
    holds V.e over x and piece U.V holds e over y, and both classes would
    be spelled "U.V.e"."""
    cover = Cover("C", ("x", "y"),
                  (CoverPiece("U", ("u",), {"u": "x"}),
                   CoverPiece("U.V", ("v",), {"v": "y"})))
    fibres = {"U": Bundle("F", ("u",), ("V.e",), {"V.e": "u"}),
              "U.V": Bundle("G", ("v",), ("e",), {"e": "v"})}
    trans = {("U", "U"): {("u", "u"): {"V.e": "V.e"}},
             ("U.V", "U.V"): {("v", "v"): {"e": "e"}},
             ("U", "U.V"): {}, ("U.V", "U"): {}}
    return DescentDatum("D", cover, fibres, trans)


def assert_glues_apart(d, over_u, over_v):
    """d is the collision datum, its piece U over ``over_u`` and its piece
    U.V over ``over_v``: the piece name U.V is escaped, so the two classes
    glue to two ids, and the glued bundle descends again."""
    assert check_cocycle(d).ok
    r = glue(d)
    assert r.bundle.total == ("U.V.e", "U\\.V.e")
    assert r.bundle.proj == {"U.V.e": over_u, "U\\.V.e": over_v}
    assert r.piece_maps == {"U": {("u", "V.e"): "U.V.e"},
                            "U.V": {("v", "e"): "U\\.V.e"}}
    assert glue_outcome(glue, d) == glue_outcome(oracle_glue, d)
    assert check_cocycle(validate_datum(descend(r.bundle, d.cover))).ok


def test_piece_names_holding_the_separator_glue_into_distinct_classes():
    assert_glues_apart(collision_datum(), "x", "y")


def test_flipped_cover_glues_the_separator_datum_into_distinct_classes():
    """The collision datum with its pieces in the other order, so that the
    class of ("U.V", "e") comes first in cover order."""
    d = collision_datum()
    flipped = DescentDatum("D", Cover("C", ("y", "x"), (
        CoverPiece("U.V", ("v",), {"v": "x"}),
        CoverPiece("U", ("u",), {"u": "y"}))), d.fibres, d.transitions)
    assert_glues_apart(flipped, "y", "x")


# ---------------------------------------------------------------------------
# charts: glue takes the first piece point over each base point, in cover
# order, as its chart


def labelled_datum(name, base, pieces, fibres):
    """A datum from labelled fibres: ``pieces`` maps each piece, in cover
    order, to its points and their base points, and ``fibres`` maps a
    (piece, point) to its elements and their labels.  Every transition
    sends an element to the element of the same label, so the cocycle
    conditions hold."""
    cover = Cover("C", tuple(base), tuple(
        CoverPiece(p, tuple(points), dict(points))
        for p, points in pieces.items()))
    bundles = {p: Bundle(f"F{p}", tuple(points),
                         tuple(a for u in points for a in fibres[(p, u)]),
                         {a: u for u in points for a in fibres[(p, u)]})
               for p, points in pieces.items()}
    trans = {}
    for p, points in pieces.items():
        for q, others in pieces.items():
            table = {}
            for u, x in points.items():
                for v, y in others.items():
                    if x == y:
                        by_label = {k: b for b, k in fibres[(q, v)].items()}
                        table[(u, v)] = {a: by_label[k] for a, k in
                                         fibres[(p, u)].items()}
            trans[(p, q)] = table
    return DescentDatum(name, cover, bundles, trans)


def assert_glues_as_the_oracle(d, total):
    assert check_cocycle(d) == oracle_check_cocycle(d)
    assert glue_outcome(glue, d) == glue_outcome(oracle_glue, d)
    assert glue(d).bundle.total == total


def test_chart_from_a_later_piece():
    """B comes first but misses y, so y's chart is A's point a2; over x
    the chart is B's point, yet each class is named after its A member."""
    d = labelled_datum("D", ("x", "y"), {
        "B": {"b": "x"},
        "A": {"a1": "x", "a2": "y"},
    }, {("B", "b"): {"b0": 0, "b1": 1},
        ("A", "a1"): {"s": 1, "t": 0},
        ("A", "a2"): {"k": 0, "j": 1}})
    assert_glues_as_the_oracle(d, ("A.j", "A.k", "A.s", "A.t"))
    glued = glue(d)
    assert glued.bundle.proj == {"A.j": "y", "A.k": "y", "A.s": "x",
                                 "A.t": "x"}
    assert glued.piece_maps["B"] == {("b", "b0"): "A.t", ("b", "b1"): "A.s"}


def test_chart_piece_with_two_points_over_one_base_point():
    """The chart is a1, but a2's elements are less, so they name the
    classes."""
    d = labelled_datum("D", ("x",), {
        "A": {"a1": "x", "a2": "x"},
        "B": {"b": "x"},
    }, {("A", "a1"): {"p": 0, "q": 1},
        ("A", "a2"): {"n": 0, "m": 1},
        ("B", "b"): {"e": 1, "f": 0}})
    assert_glues_as_the_oracle(d, ("A.m", "A.n"))
    assert glue(d).piece_maps["A"] == {
        ("a1", "p"): "A.n", ("a1", "q"): "A.m",
        ("a2", "n"): "A.n", ("a2", "m"): "A.m"}


def test_base_point_with_empty_fibres():
    d = labelled_datum("D", ("x", "y", "z"), {
        "A": {"a": "x", "ay": "y"},
        "B": {"by": "y", "bz": "z"},
    }, {("A", "a"): {"a0": 0},
        ("A", "ay"): {}, ("B", "by"): {},
        ("B", "bz"): {"z0": 0, "z1": 1}})
    assert_glues_as_the_oracle(d, ("A.a0", "B.z0", "B.z1"))
    assert "y" not in glue(d).bundle.proj.values()


def test_swap_between_two_pieces_that_are_no_charts():
    """A holds every chart; a swap in f_BC leaves every link from a chart
    intact, and only the sweep over all entries sees it."""
    d = labelled_datum("D", ("x",), {
        "A": {"a": "x"}, "B": {"b": "x"}, "C": {"c": "x"},
    }, {("A", "a"): {"a0": 0, "a1": 1},
        ("B", "b"): {"b0": 0, "b1": 1},
        ("C", "c"): {"c0": 0, "c1": 1}})
    assert glue(d).bundle.total == ("A.a0", "A.a1")
    trans = {k: {uv: dict(m) for uv, m in t.items()}
             for k, t in d.transitions.items()}
    trans[("B", "C")][("b", "c")] = {"b0": "c1", "b1": "c0"}
    bad = DescentDatum("D", d.cover, d.fibres, trans)
    assert not check_cocycle(bad).ok
    assert check_cocycle(bad) == oracle_check_cocycle(bad)
    want = glue_outcome(oracle_glue, bad)
    assert want[0] is CocycleViolation
    assert glue_outcome(glue, bad) == want


def test_a_checked_cover_is_freed_without_the_collector():
    # validate() caches True, not the cover itself, so a cover with its
    # check and overlaps kept holds no cycle: dropping the last reference
    # to it frees it and every overlap it keeps at once
    bundle, cover, datum = random_datum(random.Random(3), "c", base_size=4,
                                        max_fibre=2)
    assert check_cocycle(datum) and check_cocycle(descend(bundle, cover))
    ref = weakref.ref(cover)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del cover, datum
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_descent_agrees_with_the_quadratic_oracles():
    rng = random.Random(2024)
    fails = {"s": [], "d": [], "r": []}
    for i in range(300):
        _, cover, datum = random_datum(rng, f"o{i}",
                                       base_size=rng.randint(2, 7),
                                       max_fibre=3)
        for pi in cover.pieces:
            for pj in cover.pieces:
                pairs = cover.overlap(pi, pj)
                assert pairs == tuple(oracle_overlap(pi, pj))
                assert cover.overlap(pi, pj) is pairs
        assert check_cocycle(datum) == oracle_check_cocycle(datum)
        assert glue_outcome(glue, datum) == glue_outcome(oracle_glue, datum)
        for d in mutants(rng, datum):
            assert check_cocycle(d) == oracle_check_cocycle(d)
            want = glue_outcome(oracle_glue, d)
            assert glue_outcome(glue, d) == want
            fails[d.name[-1]].append(len(want) == 3)
    # a swap or a non-identity diagonal always breaks the cocycle
    # conditions (f_ji . f_ij or f_ii is no longer the identity); a redrawn
    # table may come out unchanged
    assert len(fails["s"]) > 200 and all(fails["s"])
    assert len(fails["d"]) > 200 and all(fails["d"])
    assert len(fails["r"]) > 100 and sum(fails["r"]) > 100


def broken_copies(rng, d):
    """Copies of d that break its structure at random: a value moved to
    any element of the target piece, a table keyed by another fibre of
    its piece, a table dropped or added over any two points, and a bundle
    with an element added, dropped or listed twice (its tables left as
    they are)."""
    pieces = {p.name: p for p in d.cover.pieces}
    out = []

    def copy():
        return {k: {uv: dict(m) for uv, m in t.items()}
                for k, t in d.transitions.items()}

    def datum(tag, trans=None, fibres=None):
        out.append(DescentDatum(d.name + tag, d.cover, fibres or d.fibres,
                                trans or d.transitions))

    spots = [(k, uv) for k, t in sorted(d.transitions.items())
             for uv, m in sorted(t.items()) if m]
    if spots:
        trans = copy()
        (i, j), uv = rng.choice(spots)
        m = trans[i, j][uv]
        m[rng.choice(sorted(m))] = rng.choice(d.fibres[j].total)
        datum("v", trans)
        trans = copy()
        (i, j), uv = rng.choice(spots)
        fib = d.fibres[i]
        others = sorted({fib.proj[a] for a in fib.total} - {uv[0]})
        if others:
            keys = fibre_of(fib, rng.choice(others))
            values = list(trans[i, j][uv].values())
            trans[i, j][uv] = dict(zip(keys, values + values))
            datum("k", trans)
    k = rng.choice(sorted(d.transitions))
    trans = copy()
    if trans[k]:
        del trans[k][rng.choice(sorted(trans[k]))]
        datum("m", trans)
    trans = copy()
    i, j = k
    uv = (rng.choice(pieces[i].elements or ("?",)),
          rng.choice(pieces[j].elements or ("?",)))
    trans[k][uv] = {}
    datum("a", trans)
    p = rng.choice(sorted(pieces))
    fib = d.fibres[p]
    if pieces[p].elements:
        u = rng.choice(pieces[p].elements)
        grown = Bundle(fib.name, fib.base, fib.total + ("new",),
                       {**fib.proj, "new": u})
        datum("g", fibres={**d.fibres, p: grown})
    if fib.total:
        a = rng.choice(fib.total)
        kept = tuple(b for b in fib.total if b != a)
        datum("d", fibres={**d.fibres, p: Bundle(
            fib.name, fib.base, kept, {b: fib.proj[b] for b in kept})})
        datum("t", fibres={**d.fibres, p: Bundle(
            fib.name, fib.base, fib.total + (a,), fib.proj)})
    return out


def test_a_broken_datum_never_glues_and_raises_validate_datums_error():
    """The sweep accepts no datum that validate_datum rejects, whatever
    breaks it: a fibre grown or shrunk under its tables included, which
    no size test catches (the class checks do)."""
    rng = random.Random(4242)
    shapes = []
    for i in range(200):
        _, _, datum = random_datum(rng, f"b{i}", base_size=rng.randint(2, 6),
                                   max_fibre=3)
        for bad in broken_copies(rng, datum):
            want = glue_outcome(oracle_glue, bad)
            assert glue_outcome(glue, bad) == want, bad.name
            if want[0] is not CocycleViolation and len(want) == 3:
                shapes.append(bad.name[-1])
    # every kind of break was rejected many times
    assert {tag: shapes.count(tag) > 20 for tag in "vkmagdt"} == \
        dict.fromkeys("vkmagdt", True)


ORDERS = (("check", "glue"), ("glue", "check"), ("check", "check"),
          ("glue", "glue"))


def test_check_and_glue_agree_in_any_order_and_sweep_once(monkeypatch):
    """check_cocycle and glue share one cached sweep and glue attempt:
    whichever runs first, and however often, each gives the oracles'
    answer; the sweep runs once per datum, and validate_datum runs
    exactly when the datum does not glue."""
    rng = random.Random(77)
    data = [collision_datum()]
    for i in range(40):
        _, _, datum = random_datum(rng, f"c{i}", base_size=rng.randint(2, 6),
                                   max_fibre=3)
        data += [datum] + mutants(rng, datum)
    want = [(oracle_check_cocycle(d), glue_outcome(oracle_glue, d))
            for d in data]
    assert sum(not report for report, _ in want) > 50
    sweeps, validations = [], []
    sweep = descent._sweep
    monkeypatch.setattr(descent, "_sweep",
                        lambda d: sweeps.append(d) or sweep(d))
    monkeypatch.setattr(descent, "validate_datum",
                        lambda d: validations.append(d) or validate_datum(d))
    run = {"check": check_cocycle, "glue": lambda d: glue_outcome(glue, d)}
    for d, (report, outcome) in zip(data, want):
        for order in ORDERS:
            fresh = DescentDatum(d.name, d.cover, d.fibres, d.transitions)
            sweeps.clear()
            validations.clear()
            for step in order:
                got = run[step](fresh)
                assert got == (report if step == "check" else outcome)
            assert sweeps == [fresh]
            assert validations == ([] if report else [fresh])


def broken_data():
    """Data that validate_datum rejects, by name, each with whether its
    file reads back as a datum that validate_datum still rejects."""
    d = swap_datum()
    table = d.transitions[("U", "U")]
    fib = d.fibres["U"]

    def with_table(name, changes):
        """d with the tables over the changed pairs replaced, or dropped
        where the change is None."""
        return DescentDatum(name, d.cover, d.fibres, {("U", "U"): {
            k: m for k, m in {**table, **changes}.items() if m is not None}})

    # a second base point y, with the point c of U over it
    cover_y = Cover("C", ("*", "y"), (CoverPiece(
        "U", ("a", "b", "c"), {"a": "*", "b": "*", "c": "y"}),))
    fib_y = {"U": Bundle("A", ("a", "b", "c"), fib.total + ("c0",),
                         {**fib.proj, "c0": "c"})}
    empty = labelled_datum("E", ("x", "y", "z"), {
        "A": {"a": "x", "ay": "y"}, "B": {"by": "y", "bz": "z"}},
        {("A", "a"): {"a0": 0}, ("A", "ay"): {}, ("B", "by"): {},
         ("B", "bz"): {"z0": 0}})
    apart = collision_datum()
    return {
        "a-table-missing": (with_table("D3", {("a", "b"): None}), True),
        "not-bijective": (with_table("D4", {("a", "b"): {"a0": "b1",
                                                         "a1": "b1"}}), True),
        "stray-point": (with_table("D5", {("a", "c"): {}}), False),
        "cover-misses-a-point": (DescentDatum(
            "D6", Cover("C", ("*", "y"), d.cover.pieces), d.fibres,
            d.transitions), True),
        # a table keyed by the fibre of another point of U over *: every
        # entry stays in its class
        "keys-of-another-point": (with_table(
            "K", {("b", "a"): {"a0": "a0", "a1": "a1"}}), True),
        # values over the right base point, in the classes of their keys,
        # but over a, not b
        "values-over-another-point": (with_table(
            "V", {("b", "b"): {"b0": "a1", "b1": "a0"}}), True),
        "element-listed-twice": (DescentDatum("T", d.cover, {"U": Bundle(
            "A", fib.base, fib.total + ("a1",), fib.proj)},
            d.transitions), True),
        # a file gives each bundle its piece's elements as its base
        "bundle-over-another-base": (DescentDatum("W", d.cover, {"U": Bundle(
            "A", fib.base + ("z",), fib.total, fib.proj)},
            d.transitions), False),
        # f_UU over (b, a) is no chart's table, so no class check needs
        # it; a file holds an empty table for it
        "non-chart-table-missing": (with_table("M", {("b", "a"): None}), True),
        "stray-pair-over-two-base-points": (DescentDatum(
            "S", cover_y, fib_y, {("U", "U"): {
                **table, ("c", "c"): {"c0": "c0"},
                ("a", "c"): {"a0": "c0"}}}), True),
        # (by, a) over y and x stands in for the overlap pair (by, ay),
        # whose table no chart reads: both tables are empty, and so is the
        # fibre over by
        "empty-stray-pair-for-an-overlap-pair": (DescentDatum(
            "P", empty.cover, empty.fibres, {**empty.transitions, ("B", "A"): {
                ("by", "a"): {}}}), False),
        "stray-piece-pair": (DescentDatum("Q", d.cover, d.fibres, {
            **d.transitions, ("U", "V"): {("a", "a"): {"a0": "a0"}}}), True),
        # (U.V, W) holds the tables of (U.V, U), which no chart reads: as
        # many piece pairs and tables as the cover asks for; a file holds
        # no empty piece pair
        "stray-piece-pair-for-a-real-one": (DescentDatum(
            "O", apart.cover, apart.fibres,
            {**{k: t for k, t in apart.transitions.items()
                if k != ("U.V", "U")}, ("U.V", "W"): {}}), False),
        # an element over z, which is no point of U; a file lists each
        # fibre under its point
        "element-off-the-piece": (DescentDatum("Z", d.cover, {"U": Bundle(
            "A", fib.base, fib.total + ("z0",), {**fib.proj, "z0": "z"})},
            d.transitions), False),
        # U and U.V do not overlap, so the missing table would be empty
        "piece-pair-missing": (DescentDatum(
            "R", apart.cover, apart.fibres,
            {k: t for k, t in apart.transitions.items()
             if k != ("U", "U.V")}), False),
    }


def test_an_invalid_datum_raises_the_same_error_on_every_call(tmp_path,
                                                               capsys):
    """check_cocycle and glue raise exactly validate_datum's error on
    every call, and grpd descent-check prints it and exits 2."""
    kinds = set()
    for shape, (bad, in_file) in broken_data().items():
        with pytest.raises(DescentError) as err:
            validate_datum(bad)
        want = type(err.value), str(err.value), err.value.witness
        kinds.add(want[0])
        for call in (check_cocycle, glue, check_cocycle, glue):
            with pytest.raises(DescentError) as err:
                call(bad)
            assert (type(err.value), str(err.value),
                    err.value.witness) == want, shape
        if not in_file:
            continue
        path = tmp_path / f"{shape}.desc"
        path.write_text(serialize_datum(bad))
        read = parse_document(path.read_text()).data[bad.name]
        with pytest.raises(DescentError) as err:
            validate_datum(read)
        assert cli.run(["descent-check", str(path)]) == 2, shape
        assert capsys.readouterr() == ("", f"error: {err.value}\n")
    assert kinds == {BadDatum, NotSurjective}


def oracle_descend(a, c):
    """descend's fibres and transitions, each fibre of ``a`` found by
    filtering its whole total."""
    def t(u, e):
        return f"{escaped(u, '.')}.{e}"

    fibres = {p.name: [(t(u, e), u) for u in p.elements
                       for e in fibre_of(a, p.to_base[u])] for p in c.pieces}
    transitions = {
        (pi.name, pj.name): [((u, v), [(t(u, e), t(v, e))
                                       for e in fibre_of(a, pi.to_base[u])])
                             for (u, v) in oracle_overlap(pi, pj)]
        for pi in c.pieces for pj in c.pieces}
    return fibres, transitions


def oracle_relabel(rng, d):
    """The fibre relabelling scramble_datum draws, each fibre found by
    filtering the whole total."""
    relabel = {}
    for p in d.cover.pieces:
        fib = d.fibres[p.name]
        for u in p.elements:
            elems = fibre_of(fib, u)
            rng.shuffle(elems)
            relabel.update({(p.name, a): f"{p.name}.{u}.f{i}"
                            for i, a in enumerate(elems)})
    return relabel


def test_fibre_indexes_keep_the_order_of_a_full_scan():
    """descend, scramble_datum and serialize_datum list each fibre in the
    order of the bundle's total, as a filter over the total does."""
    rng = random.Random(99)
    for i in range(300):
        bundle, cover, datum = random_datum(rng, f"f{i}",
                                            base_size=rng.randint(2, 7),
                                            max_fibre=3)
        d = descend(bundle, cover)
        fibres, transitions = oracle_descend(bundle, cover)
        assert {k: [(t, b.proj[t]) for t in b.total]
                for k, b in d.fibres.items()} == fibres
        assert {k: [(uv, list(m.items())) for uv, m in t.items()]
                for k, t in d.transitions.items()} == transitions
        relabel = oracle_relabel(random.Random(i), datum)
        scrambled = scramble_datum(random.Random(i), datum)
        assert scrambled.transitions == {
            (pi, pj): {uv: {relabel[(pi, a)]: relabel[(pj, b)]
                            for a, b in m.items()} for uv, m in t.items()}
            for (pi, pj), t in datum.transitions.items()}
        lines = [line for line in serialize_datum(datum).splitlines()
                 if line.startswith("fiber ")]
        assert lines == [f"fiber {p.name} {u} : "
                         + " ".join(fibre_of(datum.fibres[p.name], u))
                         for p in cover.pieces for u in p.elements]
