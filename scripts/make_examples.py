#!/usr/bin/env python3
"""Write the small example files used by the README walkthrough.

Usage: python scripts/make_examples.py [--out sample_data]
"""

import argparse
import random
import sys
from pathlib import Path

from grpd import groups
from grpd.bibundle import unit_bibundle
from grpd.complexity import point_groupoid
from grpd.core import (disjoint_union, identity_functor, inclusion_functor,
                       pair_groupoid, restrict)
from grpd.corpus import random_datum
from grpd.formats import (serialize_bibundle, serialize_datum,
                          serialize_functor, serialize_groupoid)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sample_data")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    p3 = pair_groupoid("pair3", ["1", "2", "3"])
    pt = point_groupoid("pt_triv", groups.cyclic(1))
    bz2 = point_groupoid("BZ2", groups.cyclic(2))
    mix = disjoint_union("mix", [pair_groupoid("p2", ["a", "b"]), bz2])
    one = restrict(p3, ["1"], name="one")

    (out / "pair3.grpd").write_text(serialize_groupoid(p3))
    (out / "point.grpd").write_text(serialize_groupoid(pt))
    (out / "bz2.grpd").write_text(serialize_groupoid(bz2))
    (out / "mix.grpd").write_text(serialize_groupoid(mix))
    (out / "cospan.grpd").write_text(
        serialize_groupoid(one) + serialize_groupoid(p3)
        + serialize_functor(inclusion_functor(one, p3, name="left"))
        + serialize_functor(inclusion_functor(one, p3, name="right")))
    (out / "idfun.grpd").write_text(
        serialize_groupoid(p3) + serialize_functor(identity_functor(p3)))
    (out / "unit_pair3.bib").write_text(
        serialize_groupoid(p3) + serialize_bibundle(unit_bibundle(p3)))
    _, _, datum = random_datum(random.Random(1), "demo", base_size=3,
                               max_fibre=3)
    (out / "datum.desc").write_text(serialize_datum(datum))
    print(f"wrote {len(list(out.iterdir()))} files to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
