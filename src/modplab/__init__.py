"""Exact modular representation workbench for finite groups.

Finite fields with precomputed arithmetic tables, exact linear algebra,
finite groups and their subgroup lattices, representations with induction
and restriction, covering-map machinery, relative exact structures with
stable homs, a Jordan-type oracle, and congruence-depth fairness
certificates, all glued together by deterministic verification suites.
"""

from .fields import FiniteField
from .linalg import Matrix, Subspace, column_space, hstack, row_reduce, solve, vstack
from .groups import (
    FinGroup,
    Subgroup,
    all_subgroups,
    conjugate_intersect,
    coset_lookup,
    group_from_table,
)
from .reps import (
    Character,
    Rep,
    RepMap,
    ShortExactSeq,
    character_rep,
    characters_of,
    cyclic_span,
    cyclic_span_dim,
    direct_sum,
    fixed_points,
    group_characters,
    hom_space,
    induce,
    regular_rep,
    rep_from_generators,
    restrict,
    trivial_rep,
)
from .covers import (
    CoverAssembly,
    CoverageError,
    assemble_cover,
    character_eigenspace,
    cover_map,
    extend_by_central_character,
    fixed_cover_subspace,
    induced_trivial,
    qualifying_subgroups,
)
from .exact import (
    StableHomResult,
    adjunction_counit,
    adjunction_unit,
    averaging_section,
    counit_section,
    loop_rep,
    quotient_rep,
    relative_projectivity_test,
    stable_hom,
    subrep_on_kernel,
    subrep_on_subspace,
    suspension,
    u_split_search,
    unit_retraction,
)
from .jordan import jordan_block_rep, jordan_type, stable_jordan_type, unipotent_block
from .fairness import (
    DepthTriple,
    FairnessCertificate,
    PrecisionError,
    WitnessReport,
    central_refinement,
    fairness_refinement,
    overlap_depths,
    overlap_depths_bruteforce,
    verify_certificate,
    witness_search,
)
from .catalog import (
    catalog_fields,
    catalog_groups,
    catalog_reps,
    load_catalog,
    subgroup_id,
)
from .reports import VERSION as __version__
from .reports import canonical_json, make_report, render_text
from .suites import SUITES, run_suite
