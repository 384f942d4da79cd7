import pytest

from grpd import groups
from grpd.core import validate_groupoid
from grpd.corpus import CorpusConfig, corpus_groupoids
from grpd.descent import NotSurjective


@pytest.fixture(scope="session")
def corpus():
    """Seeded mid-size corpus shared across unit-test modules."""
    members = corpus_groupoids(CorpusConfig(seed=20250809, count=40))
    for g in members:
        validate_groupoid(g)
    return members


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Members small enough for the quadratic searches."""
    return [g for g in corpus if len(g.arrows) <= 30]


def _isomorphic_skeletons(a, b) -> bool:
    """Whether the isotropy groups of two skeletons match as multisets
    under the brute-force ``groups.is_isomorphic``: an oracle for
    ``skeleton_equal`` that neither reads nor orders by canonical forms."""
    unmatched = [e.table for e in b.entries]
    if len(a.entries) != len(unmatched):
        return False
    for e in a.entries:
        match = next((i for i, t in enumerate(unmatched)
                      if groups.is_isomorphic(e.table, t)), None)
        if match is None:
            return False
        del unmatched[match]
    return True


@pytest.fixture(scope="session")
def isomorphic_skeletons():
    return _isomorphic_skeletons


def _factor_through(p, q, base):
    """Factor q through the surjection p onto ``base`` (both maps are
    dicts on one domain): ``(h, None)`` with h(p(u)) = q(u) for every u,
    the only such h since p is onto.  A q that separates two points of one
    fibre of p does not factor: ``(None, (u, v))`` names them, v the least
    point at which q differs from its value at the least point u of v's
    fibre.  A p that misses a base point raises NotSurjective.

    p is the coequalizer of its kernel pair exactly when every map
    constant on its fibres factors through it uniquely, and no other map
    does: the ambient site is subcanonical when every cover passes."""
    missed = sorted(set(base) - set(p.values()))
    if missed:
        raise NotSurjective(f"map misses {missed}", witness=tuple(missed))
    h, first = {}, {}
    for u in sorted(p):
        x = p[u]
        if x not in h:
            h[x], first[x] = q[u], u
        elif h[x] != q[u]:
            return None, (first[x], u)
    return h, None


@pytest.fixture(scope="session")
def factor_through():
    return _factor_through
