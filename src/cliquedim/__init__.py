"""Clique-theoretic learnability dimensions of finite concept classes.

The library builds contradiction graphs of finite concept classes, computes
their exact clique and fractional clique numbers (the latter with matched
primal/dual rational certificates), derives the clique and fractional clique
dimensions alongside the VC and Littlestone dimensions, converts large
cliques into shattered mistake trees via balanced-example elimination, and
runs the multiplicative-weights boosting pipeline that turns an optimal
fractional coloring into a consistency guarantee for every realizable
dataset.
"""

from .concepts import (
    ConceptClass,
    Dataset,
    FAMILIES,
    HypothesisPattern,
    LabeledExample,
    example_red_clique_datasets,
    format_class_text,
    generate,
    is_consistent,
    is_realizable,
    mask_to_pattern,
    parse_class_text,
    parse_dataset,
    pattern_to_mask,
)
from .errors import (
    CliquedimError,
    ContradictoryDatasetError,
    DegenerateCliqueError,
    EmptyClassError,
    InfeasibleModelError,
    InvariantError,
    InvalidParamsError,
    LengthMismatchError,
    NoSeparationError,
    NotCompleteError,
    NotRealizableDistributionError,
    NotShatteredError,
    ResourceLimitError,
    ZeroColoringError,
)
from .graph import (
    Caps,
    ContradictionGraph,
    DEFAULT_CAPS,
    IndependentSetFamily,
    build_graph,
    export_edge_list,
    independent_sets,
    wl_fingerprint,
)
from .trees import (
    MistakeLeaf,
    MistakeNode,
    MistakeTree,
    branches,
    is_complete,
    max_depth,
    min_depth,
    parse_tree,
    serialize_tree,
)
from .cliques import (
    BalancedPointReport,
    Clique,
    find_balanced_point,
    has_clique_of_size,
    max_clique,
    clique_from_tree,
    tree_from_clique,
    validate_clique,
)
from .simplex import solve_packing_lp
from .fractional import (
    DualityCertificate,
    FractionalClique,
    FractionalColoring,
    coloring_to_distribution,
    format_certificate,
    frac_str,
    omega_star,
    parse_certificate,
    parse_frac,
    uniform_coloring_witness,
    validate_cover,
    validate_packing,
)
from .dimensions import (
    DimensionReport,
    DimensionValue,
    EXACT,
    LOWER_BOUND,
    PerMRow,
    cached_graph,
    cached_omega_star,
    check_inequalities,
    clear_caches,
    clique_dimension,
    dimension_report,
    fcd_alpha_cutoff,
    fractional_clique_dimension,
    littlestone_dimension,
    littlestone_witness,
    smallest_separating_m0,
    tech_cd_cutoff,
    vc_dimension,
)
from .boosting import (
    BoostConfig,
    BoostVerifyReport,
    BoostVerifyRow,
    ExpertGameTranscript,
    MuTilde,
    boost_config,
    clopper_pearson,
    draw_patterns,
    forced_gamma_good_check,
    format_boost_report,
    mu_tilde,
    numeric_lemma_checks,
    run_expert_game,
    small_pop_err_check,
    small_pop_verdicts,
    verify_sspfcd_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
