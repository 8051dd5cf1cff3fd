"""cliquecert: exact clique extraction with verifiable certificates.

Given a k-uniform hypergraph, the extractors return either a clique
witness or a certificate of a complete m-tuple of missing edges, both
checkable by enumeration.  Companion modules evaluate the closed-form
bounds the guarantees rest on, run the box-nerve fractional-Helly
pipeline, and search for extremal instances that upper-bound the optimal
clique fraction empirically.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    asymptotic_exponent,
    beta_recursion,
    bound_report,
    chordal_bound,
    kalai_bound,
    meets_beta_bound,
    meets_theorem1_bound,
    theorem1_bound,
)
from .core import (
    BudgetExhaustedError,
    CliqueWitness,
    Density,
    Edge,
    InputFormatError,
    InternalConsistencyError,
    KUniformHypergraph,
    SizeRefusalError,
    count_m_cliques,
    greedy_extend_clique,
    hypergraph_from_dict,
    hypergraph_to_dict,
    m_clique_family,
    max_clique,
    maximal_missing_matching,
)
from .extractor import (
    ExtractionOutcome,
    NoProgressError,
    ShrinkResult,
    extract_graph,
    extract_hypergraph,
    score_tau,
    shrink_step,
)
from .forbidden import (
    CompleteTupleCertificate,
    TupleSearchResult,
    Verdict,
    find_complete_tuple,
    has_induced_biclique,
    verify_complete_tuple,
)
from .geometry import (
    Box,
    BoxFamily,
    HellyOutcome,
    box_family_from_dict,
    box_family_to_dict,
    boxes_intersect,
    build_nerve,
    colorful_check,
    fractional_helly_pipeline,
    random_box_family,
)
from .search import (
    BetaUpperRow,
    FrontierRecord,
    HillClimbConfig,
    exhaustive_frontier,
    format_beta_table,
    hill_climb,
    report_beta_upper,
)
