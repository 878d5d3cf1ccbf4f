"""Exact integer homology of finite pointed sets over trace monoids.

A trace monoid is presented by generators and an independence relation;
independent generators commute.  Given a finite pointed set with a right
action of such a monoid, this package builds the associated chain
complexes over three coefficient systems, computes their homology with
exact Smith normal form arithmetic, and mechanically verifies the
decomposition identities relating them to the clique complex of the
independence relation.
"""

from .alphabet import (IndependenceAlphabet, clique_counts,
                       enumerate_cliques, max_clique_size)
from .chains import (BASEPOINT_ONLY, DELTA, PUNCTURED, SYSTEMS, ChainComplex,
                     CoefficientSystem, boundary_matrix, build_complex,
                     enumerate_basis, homology)
from .errors import ValidationError
from .intlinalg import (KERNEL_NAME, AbelianGroup, BoundaryCompositionError,
                        IntegerMatrix, ShapeError, SNFResult,
                        homology_of_pair, smith_normal_form)
from .msets import (BASEPOINT, ConditionsReport, PointedMSet, chain_mset,
                    check_conditions, fan_mset, full_action_from_successor,
                    iso_check, x0_mset)
from .simplicial import (SimplicialComplex, barycentric_flagification,
                         clique_complex, read_face_list)
from .verify import (CounterexampleReport, DegreeComparison,
                     VerificationReport, check_lemma_split, check_prop_power,
                     check_theorem_aug, check_theorem_main,
                     counterexample_report)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "BASEPOINT", "BASEPOINT_ONLY", "BoundaryCompositionError",
    "ChainComplex", "CoefficientSystem", "ConditionsReport",
    "CounterexampleReport", "DELTA", "DegreeComparison",
    "IndependenceAlphabet", "IntegerMatrix", "KERNEL_NAME", "PUNCTURED",
    "PointedMSet", "SNFResult", "SYSTEMS", "ShapeError", "SimplicialComplex",
    "ValidationError", "VerificationReport", "barycentric_flagification",
    "boundary_matrix", "build_complex", "chain_mset", "check_conditions",
    "check_lemma_split", "check_prop_power", "check_theorem_aug",
    "check_theorem_main", "clique_complex", "clique_counts",
    "counterexample_report", "enumerate_basis", "enumerate_cliques",
    "fan_mset", "full_action_from_successor", "homology", "homology_of_pair",
    "iso_check", "max_clique_size", "read_face_list", "smith_normal_form",
    "x0_mset",
]
