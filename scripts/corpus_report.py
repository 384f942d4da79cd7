#!/usr/bin/env python3
"""Sweep a seeded corpus and tabulate the invariants.

Prints one row per groupoid (orbits, covering invariant, locus key) plus a
summary of equivalence classes.

Usage: python scripts/corpus_report.py --seed 7 --count 40
"""

import argparse
import sys
from collections import Counter

from grpd.cli import positive_int
from grpd.complexity import cgeo, locus_key
from grpd.core import validate_groupoid
from grpd.corpus import CorpusConfig, corpus_groupoids
from grpd.homotopy import skeletonize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=positive_int, default=40)
    parser.add_argument("--max-objects", type=positive_int, default=6)
    parser.add_argument("--max-isotropy", type=positive_int, default=6)
    args = parser.parse_args()

    members = corpus_groupoids(CorpusConfig(
        seed=args.seed, count=args.count, max_objects=args.max_objects,
        max_isotropy=args.max_isotropy))
    print(f"{'name':<8} {'objects':>7} {'arrows':>6} {'orbits':>6} "
          f"{'cgeo':>4}  locus")
    classes = Counter()
    for g in members:
        validate_groupoid(g)
        n_orbits = len(g.components)
        value = cgeo(g)
        key = locus_key(g)
        classes[tuple(e.canonical for e in skeletonize(g).entries)] += 1
        shown = key if len(key) <= 40 else key[:37] + "..."
        print(f"{g.name:<8} {len(g.objects):>7} {len(g.arrows):>6} "
              f"{n_orbits:>6} {value:>4}  {shown}")
    print(f"\n{len(members)} groupoids, "
          f"{len(classes)} equivalence classes "
          f"(largest {max(classes.values())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
