"""grpd: exact computation with groupoids internal to finite sets.

Decides essential / Morita / Morita-homotopy equivalence, composes
bibundle correspondences, glues descent data, and computes the
geometric-complexity covering invariant, which is the number of orbits.
"""

from .core import (FinGroupoid, StrictArrow, NatTrans, validate_groupoid,
                   compose_functors, cocylinder, are_homotopic,
                   pair_groupoid, discrete_groupoid, disjoint_union,
                   restrict)
from .bibundle import (Bibundle, LeftAction, RightAction, unit_bibundle,
                       tensor, functor_to_bibundle, bibundles_isomorphic,
                       are_morita_equivalent, is_principal,
                       validate_bibundle)
from .homotopy import (Cospan, homotopy_pullback, is_essential_equivalence,
                       are_morita_homotopy_equivalent, skeletonize,
                       skeleton_equal, Skeleton)
from .complexity import (is_transitive, point_groupoid, subgroupoid,
                         is_weak_point_subgroupoid, cgeo, relative_cgeo,
                         exists_deformation, locus_key)
from .descent import (Bundle, Cover, CoverPiece, DescentDatum,
                      check_cocycle, glue, descend)

__version__ = "0.1.0"
