import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.corpus import random_bundle, random_cover, random_datum, \
    scramble_datum
from grpd.descent import (BadDatum, Bundle, CocycleViolation, Cover,
                          CoverPiece, DescentDatum, NotSurjective,
                          check_cocycle, check_subcanonical, descend, glue,
                          validate_datum)


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


def test_subcanonical_two_to_one():
    r = check_subcanonical({"1": "x", "2": "x", "3": "y"}, ["x", "y"])
    assert r["ok"]
    assert r["classes"] == [["1", "2"], ["3"]]


def test_subcanonical_bijection():
    assert check_subcanonical({"1": "x"}, ["x"])["ok"]


def test_subcanonical_rejects_inclusion():
    with pytest.raises(NotSurjective):
        check_subcanonical({"1": "x"}, ["x", "y"])


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


def test_every_small_surjection_is_subcanonical():
    checked = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            base = [f"x{j}" for j in range(k)]
            for f in all_surjections(n, k):
                mapping = {f"u{i}": base[f[i]] for i in range(n)}
                assert check_subcanonical(mapping, base)["ok"]
                checked += 1
    assert checked == sum(
        len(all_surjections(n, k))
        for n in range(1, 6) for k in range(1, n + 1))


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
    fibre_sizes = sorted(len(glued.bundle.fibre(x)) for x in base)
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
    assert sorted(len(local.fibre(u)) for u in ("x", "y")) == \
        sorted(len(glued.bundle.fibre(x)) for x in base)


def test_glue_raises_on_cocycle_violation():
    with pytest.raises(CocycleViolation):
        glue(swap_datum(f21_swap=False))


# ---------------------------------------------------------------------------
# round trips


def assert_bundle_isomorphic_over_base(a: Bundle, b: Bundle):
    assert set(a.base) == set(b.base)
    for x in a.base:
        assert len(a.fibre(x)) == len(b.fibre(x)), x


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
                images = {local[(u, a)] for a in fib.fibre(u)}
                assert len(images) == len(fib.fibre(u))
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
