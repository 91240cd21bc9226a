"""Locally dependent random fields: construction, normalized and
self-normalized sums, Berry-Esseen bound shapes, and exact / Monte-Carlo
certification of explicit-constant moment and concentration inequalities.
"""

from .neighborhood import (  # noqa: F401
    DerivedNeighborhoods,
    NeighborhoodSystem,
    derive,
    make_system,
    validate_structure,
)
from .fields import (  # noqa: F401
    ContinuousSource,
    DiscreteSource,
    LatentSourceField,
    build_constrained_ustat_field,
    build_decorated_graph_field,
    build_graph_dependency,
    build_iid_field,
    build_m_dependent,
    build_pattern_field,
    build_ustat_field,
    build_word_field,
    count_word_occurrences,
    induced_neighborhoods,
)
from .statistics import count_pattern_occurrences, subgraph_statistic  # noqa: F401
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
    CheckInstance,
    InequalityVerdict,
    check_ld_independence,
    check_lemma_r4,
    check_lemma_s2,
    check_lemma_s4,
    check_lemma_xiyi,
    check_lemma_xiyi_corollary,
    check_prop1,
    check_prop2,
    exact_kolmogorov,
    run_checker_suite,
    stack_instances,
)
from .harness import EmpiricalSummary, RateFit, mc_run, rate_fit, ratio_table  # noqa: F401

__version__ = "0.1.0"
