"""Test-and-quarantine planning on contact networks.

A simulation and solver toolkit for sequentially choosing whom to test in a
partially observed epidemic: exact belief tracking, exact finite-horizon
value iteration over alpha-vector sets, certified upper/lower value bounds,
and a family of tractable policies benchmarked against the exact optimum on
desk-scale instances.
"""

from .approx import (
    BeliefGrid,
    GapRow,
    LowerBound,
    SandwichResult,
    approx_solve_lower,
    approx_solve_upper,
    nested_grid_ladder,
    point_backup,
    sandwich,
)
from .beliefs import (
    Belief,
    belief_update,
    expected_infections,
    filter_observation,
    marginal_infection,
    predict_belief,
)
from .errors import (
    ContractViolation,
    DimensionError,
    EpitestError,
    InconsistentObservationError,
    InternalInconsistency,
    SizeCapError,
    ValidationError,
)
from .exact import (
    AlphaSet,
    ValueFunction,
    evaluate,
    exact_backup,
    load_value_function,
    save_value_function,
    solve,
)
from .model import (
    ContactGraph,
    ContactSchedule,
    EMPTY_QUARANTINE,
    Quarantine,
    SystemState,
    active_subgraph,
    sample_active_edge,
    transmit_with_uniform,
)
from .oracle import oracle_value, predict_dense, tree_value
from .policies import (
    GreedyPolicy,
    GreedyStageValue,
    NeverTestPolicy,
    OpenLoopPlan,
    OpenLoopPolicy,
    OpenLoopValue,
    OneStepPolicy,
    PolicyContext,
    RandomTestPolicy,
    check_lookahead_assumption,
    default_plan,
    make_policy,
    policy_tree_value,
)
from .scenario import ScenarioConfig, dump_scenario, load_scenario, scenario_from_dict
from .simulate import (
    EpisodeTrace,
    MonteCarloResult,
    StepRecord,
    monte_carlo_eval,
    paired_difference,
    run_episode,
)

__version__ = "0.1.0"
