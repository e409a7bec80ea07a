"""The public surface, pinned: the names ``import fdlab`` exposes and each
command-line verb's arguments.  Changing either is a deliberate act, so it
also means changing the lists here."""

from __future__ import annotations

import argparse
import types

import fdlab
from fdlab import cli

EXPORTS = {
    # detectors
    "FDSpec", "MembershipVerdict", "MembershipViolation", "canonical_history",
    "history_in_m", "history_in_p", "history_in_pk", "history_matches",
    "initial_crash_scenario", "perturbed_histories", "shift_history", "shift_pattern",
    # errors
    "AlphabetMismatch", "BudgetExceeded", "DomainMismatch", "FaultyStepPresent",
    "FdlabError", "KOutOfRange", "MismatchedPreState", "MissingNoOpPrefix",
    "NonPositiveTime", "NoSuchInTransitMessage", "NotSoSRun", "StutterDepthExceeded",
    "UncoveredState",
    # harness
    "DEFAULT_RUN_CAP", "ClauseFailure", "EnumerationBounds", "ProbeReport",
    "SolvesReport", "TheoremReport", "all_monotone_patterns", "check_solves",
    "counterexample_probe", "enumerate_runs", "estimate_run_families",
    "history_groups", "init_combinations", "verify_das", "verify_sos",
    # machines
    "BUILTIN_NAMES", "CollectThenDecide", "FloodMinConsensus",
    "LeastUnsuspectedConsensus", "TableAlgorithm", "builtin_algorithm",
    "collect_interpretation",
    # model
    "Algorithm", "Configuration", "FailurePattern", "History", "Message", "Run",
    "Step", "apply_step", "config_sequence", "own_state_views", "project_schedule",
    # problems
    "AGREEMENT_ALPHABET", "AGREEMENT_INITIAL_ALPHABET", "ConsensusPredicate",
    "IndependenceWitness", "Interpretation", "ProblemPredicate",
    "StrongConsensusPredicate", "StutterWitness", "agreement_state",
    "check_crash_time_independence", "check_finite_stuttering", "eval_consensus",
    "eval_strong_consensus", "interpret_config", "interpret_run", "is_one_stutter",
    "is_stutter", "stutter_expansions",
    # traces
    "algorithm_from_doc", "algorithm_to_doc", "canonical_json", "problem_from_doc",
    "problem_to_doc", "run_from_doc", "run_to_doc",
    # transforms
    "DelayAStep", "DelayState", "StallOnSuspect", "StallState", "das_run_mapping",
    "delay_a_step", "derive_interpretation_das", "derive_interpretation_sos",
    "stall_on_suspect", "strip_faulty_steps", "to_initial_crash_run",
    # validation
    "RunViolation", "ValidationMode", "ValidityReport", "validate_run",
}

BOUNDS = {"--n", "--horizon", "--max-steps", "--history-budget"}
ORACLE = {"--fd"}

#: per verb, its positional arguments in <angle brackets> and its options
VERBS = {
    "validate": {"<trace>", "--algorithm", "--mode", "--fairness-window", "--n", "--json"}
    | ORACLE,
    "transform": {"<which>", "<algorithm>", "--n", "--json"},
    "verify": {"<theorem>", "<algorithm>", "--k", "--thorough", "--json"} | BOUNDS,
    "probe": {"<algorithm>", "--problem", "--require-quiescence", "--fairness-window",
              "--json"} | ORACLE | BOUNDS,
}


def test_package_exports() -> None:
    exposed = {
        name
        for name, value in vars(fdlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exposed == EXPORTS


def test_cli_verbs_and_their_arguments() -> None:
    parser = cli._build_parser()
    (verbs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        verb: {
            name
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for name in action.option_strings or [f"<{action.dest}>"]
        }
        for verb, sub in verbs.choices.items()
    }
    assert found == VERBS
