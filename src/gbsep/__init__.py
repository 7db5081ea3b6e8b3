"""Cohomological separability of generalised Baumslag-Solitar groups.

Decide, from a labelled-graph description, whether a GBS group has
separable cohomology and what its profinite cohomological dimension is,
with machine-checkable certificates: explicit finite quotients into
holomorphs of cyclic groups, witness modules with nonvanishing second
cohomology, and exhaustive oracle confirmations.
"""

from .arith import (
    PrimeSet,
    factorize,
    is_isocratic,
    is_prime,
    isocracy_locus,
    nu_p,
    p_free_part,
    primes_up_to,
)
from .classify import Certificate, Verdict, classify_bs, classify_gbs, self_audit
from .cohomology import (
    CohomologyReport,
    FpModule,
    ModuleError,
    RegimeError,
    build_isocratic_witness,
    build_leaf_witness,
    cohomology_abstract,
    cohomology_profinite,
    licensed_topology,
    validate_module,
)
from .graphs import (
    Edge,
    GbsGraph,
    GraphError,
    Presentation,
    augmentation_products,
    balance_potential,
    bs_graph,
    canonical_presentation,
    cycle_basis,
    epsilon_table,
    parse_graph,
    reduce_graph,
    spanning_tree,
    subdivide_loops,
    the_cycle,
)
from .oracle import (
    OracleError,
    OrderSpectrum,
    check_topology_prediction,
    enumerate_metacyclic_quotients,
    enumerate_perm_quotients,
)
from .quotients import (
    QuotientCert,
    QuotientError,
    construct_balanced_quotient,
    construct_cycle_quotient,
    construct_nonisocratic_p_quotient,
    verify_cert,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CohomologyReport",
    "Edge",
    "FpModule",
    "GbsGraph",
    "GraphError",
    "ModuleError",
    "OracleError",
    "OrderSpectrum",
    "Presentation",
    "PrimeSet",
    "QuotientCert",
    "QuotientError",
    "RegimeError",
    "Verdict",
    "augmentation_products",
    "balance_potential",
    "bs_graph",
    "build_isocratic_witness",
    "build_leaf_witness",
    "canonical_presentation",
    "check_topology_prediction",
    "classify_bs",
    "classify_gbs",
    "cohomology_abstract",
    "cohomology_profinite",
    "construct_balanced_quotient",
    "construct_cycle_quotient",
    "construct_nonisocratic_p_quotient",
    "cycle_basis",
    "enumerate_metacyclic_quotients",
    "enumerate_perm_quotients",
    "epsilon_table",
    "factorize",
    "is_isocratic",
    "is_prime",
    "isocracy_locus",
    "licensed_topology",
    "nu_p",
    "p_free_part",
    "parse_graph",
    "primes_up_to",
    "reduce_graph",
    "self_audit",
    "spanning_tree",
    "subdivide_loops",
    "the_cycle",
    "validate_module",
    "verify_cert",
]
