"""eslsim: discrete-time multi-robot task allocation with switching delays.

A simulator and policy suite for M robots serving N Bernoulli task queues
under one-slot travel costs, plus an exact solver on capped instances that
audits the serve-longest policy structure, and paired sample-path
experiments for the underlying exchange arguments.
"""

from .model import (
    IDLE,
    IDLE_ACTION,
    SERVE,
    SERVE_ACTION,
    SWITCH,
    InfeasibleActionError,
    JointAction,
    ModelConfig,
    RobotAction,
    SlotDelta,
    SystemState,
    initial_state,
    is_feasible,
    sample_arrivals,
    step,
    switch_to,
    validate_state,
)
from .policies import (
    POLICY_NAMES,
    AgeBookDesyncError,
    CyclicPolicy,
    DegenerateRateError,
    EslPolicy,
    FcfsPolicy,
    continuous_dwell,
    cyclic_decide,
    dwell_metadata,
    dwell_objective,
    esl_decide,
    fcfs_decide,
    make_policy,
    optimize_dwell,
    patrol_blocks,
    resolve_dwell,
    switch_to_shortest_decide,
    tuned_dwell,
)
from .evaluator import (
    PRNG_ID,
    AggregateResult,
    EpisodeMetrics,
    ExperimentConfig,
    InsufficientReplicationsError,
    aggregate,
    make_grid,
    grid_dwell_metadata,
    run_episode,
    run_grid,
    run_cyclic_scan,
    run_lockstep,
)
from .mdp import (
    ConvergenceError,
    StateSpaceTooLargeError,
    TruncatedMdp,
    ValueTable,
    Violation,
    bellman_update,
    build_truncated_mdp,
    check_esl_optimality,
    count_orbits,
    count_states,
    monotonicity_violations,
    orbit_id,
    q_table,
    value_iteration,
)
from .coupling import (
    SCENARIO_NAMES,
    CouplingReport,
    CouplingScenario,
    ScenarioPreconditionError,
    check_gap_pattern,
    coupled_run,
    coupled_runs,
    make_scenario,
    validate_scenario,
)

__version__ = "0.1.0"
