"""fdlab: a lab for crash-failure oracles and algorithm wrappers.

Asynchronous message-passing algorithms run against explicit crash patterns
and per-process suspicion oracles.  The package models runs, validates them,
classifies oracle histories (always-accurate, full-foresight, and
accurate-after-k), applies the stall and delay wrappers, and exhaustively
checks over bounded run spaces that the wrappers preserve problem
solvability.
"""

from .detectors import (
    FDSpec,
    MembershipVerdict,
    MembershipViolation,
    canonical_history,
    history_in_m,
    history_in_p,
    history_in_pk,
    history_matches,
    initial_crash_scenario,
    perturbed_histories,
    shift_history,
    shift_pattern,
)
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DomainMismatch,
    FaultyStepPresent,
    FdlabError,
    KOutOfRange,
    MismatchedPreState,
    MissingNoOpPrefix,
    NonPositiveTime,
    NoSuchInTransitMessage,
    NotSoSRun,
    UncoveredState,
)
from .harness import (
    DEFAULT_RUN_CAP,
    ClauseFailure,
    EnumerationBounds,
    ProbeReport,
    SolvesReport,
    TheoremReport,
    all_monotone_patterns,
    check_solves,
    counterexample_probe,
    enumerate_runs,
    estimate_run_families,
    history_groups,
    init_combinations,
    verify_das,
    verify_sos,
)
from .machines import (
    BUILTIN_NAMES,
    CollectThenDecide,
    FloodMinConsensus,
    LeastUnsuspectedConsensus,
    TableAlgorithm,
    builtin_algorithm,
    collect_interpretation,
)
from .model import (
    Algorithm,
    Configuration,
    FailurePattern,
    History,
    Message,
    Run,
    Step,
    apply_step,
    config_sequence,
    own_state_views,
    project_schedule,
)
from .problems import (
    AGREEMENT_ALPHABET,
    AGREEMENT_INITIAL_ALPHABET,
    ConsensusPredicate,
    IndependenceWitness,
    Interpretation,
    ProblemPredicate,
    StrongConsensusPredicate,
    StutterWitness,
    agreement_state,
    check_crash_time_independence,
    check_finite_stuttering,
    eval_consensus,
    eval_strong_consensus,
    interpret_config,
    interpret_run,
    is_one_stutter,
    is_stutter,
    stutter_expansions,
)
from .traces import (
    algorithm_from_doc,
    algorithm_to_doc,
    canonical_json,
    problem_from_doc,
    problem_to_doc,
    run_from_doc,
    run_to_doc,
)
from .transforms import (
    DelayAStep,
    DelayState,
    StallOnSuspect,
    StallState,
    das_run_mapping,
    delay_a_step,
    derive_interpretation_das,
    derive_interpretation_sos,
    stall_on_suspect,
    strip_faulty_steps,
    to_initial_crash_run,
)
from .validation import RunViolation, ValidationMode, ValidityReport, validate_run

__version__ = "0.1.0"
