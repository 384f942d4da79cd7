import pytest

from grpd import groups
from grpd.core import validate_groupoid
from grpd.corpus import CorpusConfig, corpus_groupoids


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
