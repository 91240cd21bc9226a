"""Locally dependent random fields: construction, normalized and
self-normalized sums, Berry-Esseen bound shapes, and exact / Monte-Carlo
certification of explicit-constant moment and concentration inequalities.
"""

from .neighborhood import (  # noqa: F401
    DerivedNeighborhoods,
    NeighborhoodSystem,
    default_pair_cover,
    derive,
    make_system,
    pair_interference,
    reverse_neighborhoods,
    validate_structure,
)
from .fields import (  # noqa: F401
    ContinuousSource,
    DiscreteSource,
    LatentSourceField,
    Realization,
    build_constrained_ustat_field,
    build_decorated_graph_field,
    build_graph_dependency,
    build_iid_field,
    build_m_dependent,
    build_pattern_field,
    build_ustat_field,
    build_word_field,
    induced_neighborhoods,
    sample,
)
from .statistics import (  # noqa: F401
    clamped_w2bar,
    count_pattern_occurrences,
    count_word_occurrences,
    psi_clamp,
    self_normalized_w2,
    subgraph_statistic,
    sum_and_w1,
)
from .moments import MomentTable, exact_moment_table, hoeffding_sigma1, mc_moment_table  # noqa: F401
from .bounds import (  # noqa: F401
    BoundReport,
    bound_constrained_u,
    bound_decorated,
    bound_distributed_general,
    bound_distributed_u,
    bound_general_beta,
    bound_graph,
    bound_main,
    bound_self_normalized,
    delta_components_prop1,
    delta_components_prop2,
)
from .oracle import (  # noqa: F401
    InequalityVerdict,
    check_ld_independence,
    check_lemma_r4,
    check_lemma_s2,
    check_lemma_s4,
    check_lemma_xiyi,
    check_prop1,
    check_prop2,
    exact_expectation,
    exact_kolmogorov,
    run_checker_suite,
)
from .harness import EmpiricalSummary, RateFit, mc_run, rate_fit, ratio_table  # noqa: F401

__version__ = "0.1.0"
