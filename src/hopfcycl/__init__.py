"""Exact-arithmetic cyclic homology of finite-dimensional Hopf algebras.

The package computes Hochschild and cyclic homology of finite-dimensional
algebras and of Hopf algebras twisted by a (grouplike, character, character)
triple, entirely in exact arithmetic over Z, Q, finite prime fields and
cyclotomic fields, and cross-validates the results against closed formulas
for group algebras, truncated quiver algebras and Taft algebras.
"""

from .errors import (
    HopfCyclError,
    IndexOutOfRange,
    InvalidCharacter,
    MissingRootOfUnity,
    NegativePartialSum,
    NotAComplex,
    NotAField,
    NotAUnit,
    ParseError,
    PreconditionFailed,
    ResourceCap,
    RingMismatch,
    RingWithoutRationals,
    UnsupportedCombination,
    UnsupportedRing,
)
from .rings import (
    QQ,
    ZZ,
    CyclotomicField,
    HomologyModule,
    IntegerRing,
    IntegersMod,
    PrimeField,
    RationalField,
    Ring,
    annihilator_and_quotient,
    cyclotomic_polynomial,
    free_module,
    parse_ring,
    primitive_root_of_unity,
    zero_module,
)
from .sparse import (
    SparseMatrix,
    homology_at,
    homology_sequence,
    rank,
    smith_normal_form,
)
from .hopf import (
    AlgebraData,
    Character,
    CMTriple,
    GroupLike,
    HopfAlgebraData,
    check_cm_triple,
    is_grouplike,
    twisted_antipode,
)
from .cyclic import (
    ChainComplexWindow,
    ClassicalCyclicModule,
    ConnesMoscoviciModule,
    CyclicModule,
    connes_lambda_hc,
    cyclic_bicomplex_hc,
    cyclic_bicomplex_hc_upto,
    hochschild_homology,
    hochschild_homology_upto,
    hochschild_window,
    sbi_check,
    sbi_rank_assignment,
    verify_cyclic_axioms,
)
from .groups import (
    FiniteGroup,
    GammaCyclicModule,
    burghelea_check,
    centralizer,
    character_from_zeta,
    chi_isomorphism,
    closed_hc_cyclic_group,
    closed_hc_group_algebra,
    cm_group_module,
    conjugacy_classes,
    group_algebra,
    periodic_resolution_homology,
    theta_chain_map_check,
    theta_map,
    trivial_character,
)
from .quivers import (
    Quiver,
    TruncatedPathAlgebra,
    coefficient_homology_skoldberg,
    cycle_orbit_counts,
    graded_sbi_hc,
    hc_closed_form_truncated,
    hh_closed_form,
    hh_via_skoldberg,
    path_algebra_hh,
    skoldberg_resolution,
    taft_cm_closed_form,
    taft_cm_congruences,
    taft_cm_homology,
    taft_cm_module,
    taft_cm_triples,
    taft_grouplike,
    taft_hopf,
    taft_vertex_character,
    truncated_algebra,
    vertex_character,
)

__version__ = "0.1.0"
