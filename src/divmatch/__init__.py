"""Diversity-aware weighted bipartite b-matching.

Assign workers with categorical feature vectors to capacity-constrained
teams, minimizing a weighted sum of assignment cost and per-feature
squared-concentration penalties, by canceling negative cycles in an
auxiliary switch-graph. Small instances can be certified against an
exhaustive oracle.
"""

from .instance import (
    CombinationIndex,
    CostModel,
    Feature,
    FeatureSchema,
    Instance,
    InvalidInstanceError,
    Team,
    TradeoffWeights,
    build_combination_index,
    convert_cost_mode,
    dump_instance,
    generate_reviewer_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_instance,
)
from .objective import (
    ObjectiveBreakdown,
    assignment_from_matrix,
    count_tensor,
    diversity_k,
    embed,
    exchange_gain,
    matrix_from_assignment,
    objective,
    total_utility,
)
from .auxgraph import (
    AuxGraph,
    CycleApplicationError,
    GraphTooLargeError,
    apply_and_update,
    build_aux_graph,
)
from .negcycle import (
    ExchangeCycle,
    bellman_ford_detect,
    goldberg_radzik_detect,
)
from .solver import (
    IterationRecord,
    SolveReport,
    initial_feasible,
    iteration_bound,
    solve,
)
from .oracle import (
    BudgetExceededError,
    OracleResult,
    enumerate_optimal,
)

__version__ = "0.1.0"
