"""Bounded exhaustive enumeration and the machine-checked preservation claims.

The enumerator walks every valid run inside explicit bounds: every monotone
crash pattern, every in-budget oracle history, every combination of initial
states, and every schedule of at most ``max_steps`` steps placed at
consecutive time points starting from every feasible offset.  Placing steps
at consecutive times is a deliberate canonicalization — configurations do not
depend on times, and the offset sweep still exercises every liveness/oracle
context — and is reported as such.

On top of the enumerator sit ``check_solves`` and ``counterexample_probe``:
does an algorithm solve a problem over all fair bounded runs?  Both read one
scan that yields each strict-fairness run with its verdict (decided,
undecided or fail); the first tallies the verdicts, the second stops at the
first failure.  Fairness is decided in the schedule tree as it is walked,
and each run's verdict comes from the observable rows and agreement-monitor
state it shares with the previous run, so no run is re-interpreted from its
initial states.  ``verify_sos`` / ``verify_das`` check that the stall and
delay wrappers preserve solvability, clause by clause on every run.  All of
them expand the same schedule trees, one tree per call re-rooted at each
family.  Each preservation claim is one walker class that states the whole
claim and adds incremental per-step checks; one walker serves a call, and
``_verify_claim`` takes it over patterns, history groups and initial states.
``thorough=True`` re-derives every per-node verdict from scratch through
``validate_run``, ``is_stutter`` and the predicate and insists the two agree.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator

from .detectors import (
    FDSpec,
    MembershipVerdict,
    history_in_p,
    history_in_pk,
    initial_crash_scenario,
    perturbed_histories,
    shift_history,
    shift_pattern,
)
from .errors import BudgetExceeded, DomainMismatch, FdlabError, KOutOfRange
from .model import (
    Algorithm,
    FailurePattern,
    History,
    Message,
    Run,
    State,
    Step,
    all_monotone_patterns,
    own_state_views,
)
from .problems import (
    AGREEMENT_ALPHABET,
    ConsensusPredicate,
    Interpretation,
    ProblemPredicate,
    ProblemSeq,
    StrongConsensusPredicate,
    agreement_state,
    interpret_run,
    is_stutter,
)
from .traces import run_to_doc
from .transforms import (
    DelayState,
    das_run_mapping,
    delay_a_step,
    derive_interpretation_das,
    derive_interpretation_sos,
    stall_on_suspect,
    strip_faulty_steps,
    to_initial_crash_run,
)
from .validation import RunViolation, ValidationMode, validate_run

__all__ = [
    "DEFAULT_RUN_CAP",
    "RUN_CAP_ENV_VAR",
    "EnumerationBounds",
    "all_monotone_patterns",
    "init_combinations",
    "history_groups",
    "estimate_run_families",
    "enumerate_runs",
    "SolvesReport",
    "check_solves",
    "ProbeReport",
    "counterexample_probe",
    "ClauseFailure",
    "TheoremReport",
    "verify_sos",
    "verify_das",
]

DEFAULT_RUN_CAP = 1_000_000
RUN_CAP_ENV_VAR = "FDLAB_RUN_CAP"
#: At most this many distinct failure entries are kept per report.
MAX_RECORDED_FAILURES = 20

#: Canonicalization notes attached to every enumeration-backed report.
CANONICALIZATION_NOTES = (
    "schedule times are consecutive within a window; every feasible window "
    "offset is swept, runs with internal time gaps are not enumerated",
    "histories deviating from the canonical one only at cells no live process "
    "reads share one schedule tree; memberships are still checked per history",
)


@dataclass(frozen=True)
class EnumerationBounds:
    """Everything that makes an exhaustive enumeration finite.

    ``patterns`` and ``inits`` default to every monotone crash pattern and
    every combination of initial states.  Explicit ``inits`` hold initial
    states of the algorithm that is walked: for ``verify_das``, the delay
    wrapper's ``DelayState``s.  ``run_cap`` bounds the a-priori
    estimate of run families (pattern x history x initial-state choices); it
    falls back to the ``FDLAB_RUN_CAP`` environment variable, then to
    ``DEFAULT_RUN_CAP``.
    """

    n: int
    horizon: int
    max_steps: int
    history_budget: int = 0
    mode: ValidationMode = ValidationMode.PREFIX_CONSISTENT
    fairness_window: int | None = None
    patterns: tuple[FailurePattern, ...] | None = None
    inits: tuple[tuple[State, ...], ...] | None = None
    run_cap: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.horizon < 0 or self.max_steps < 0:
            raise DomainMismatch("bounds need n >= 1, horizon >= 0, max_steps >= 0")
        if self.history_budget < 0:
            raise DomainMismatch("history budget cannot be negative")
        if self.fairness_window is not None and self.fairness_window < 1:
            raise DomainMismatch(
                f"fairness window must be positive, got {self.fairness_window}"
            )
        if self.run_cap is not None and self.run_cap < 0:
            raise DomainMismatch(f"run cap must be non-negative, got {self.run_cap}")

    def resolved_cap(self) -> int:
        if self.run_cap is not None:
            return self.run_cap
        raw = os.environ.get(RUN_CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_RUN_CAP
        if not raw.strip().isdecimal():
            raise DomainMismatch(
                f"{RUN_CAP_ENV_VAR} must be a non-negative integer, got {raw!r}"
            )
        return int(raw)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "max_steps": self.max_steps,
            "history_budget": self.history_budget,
            "mode": self.mode.value,
            "fairness_window": self.fairness_window,
            "patterns": None if self.patterns is None else len(self.patterns),
            "inits": None if self.inits is None else len(self.inits),
            "run_cap": self.resolved_cap(),
        }


def init_combinations(alg: Algorithm) -> tuple[tuple[State, ...], ...]:
    """Every way to pick one initial state per process, in declaration order."""
    return tuple(product(*(alg.initial_states(i) for i in range(alg.n))))


def estimate_run_families(
    bounds: EnumerationBounds, inits_count: int, patterns_count: int | None = None
) -> int:
    """Upper bound on |patterns| x |histories per pattern| x |initial choices|.

    Computed without materializing anything, so a hopeless request is refused
    before any work happens.  Schedules inside a family are enumerated
    exhaustively and only counted after the fact.
    """
    if patterns_count is None:
        patterns_count = (
            len(bounds.patterns)
            if bounds.patterns is not None
            else (bounds.horizon + 2) ** bounds.n
        )
    cells = bounds.n * (bounds.horizon + 1)
    alternatives = 2**bounds.n - 1
    hist_bound = 1
    term = 1
    for r in range(1, bounds.history_budget + 1):
        term = term * (cells - r + 1) // r * alternatives
        hist_bound += term
    return patterns_count * hist_bound * inits_count


def _run_space(
    alg: Algorithm, bounds: EnumerationBounds
) -> tuple[tuple[FailurePattern, ...], tuple[tuple[State, ...], ...], int]:
    """The patterns and initial-state choices to sweep, and the family estimate.

    Refuses a space that holds no run, because a check over it would report
    success without having looked at anything, explicit patterns or initial
    states of another shape than the bounds, initial-state choices holding a
    state that is not initial for ``alg``, and a space whose estimate exceeds
    the run cap.
    """
    if alg.n != bounds.n:
        raise DomainMismatch(f"algorithm is over {alg.n} processes, bounds over {bounds.n}")
    inits = bounds.inits if bounds.inits is not None else init_combinations(alg)
    if bounds.patterns == () or not inits:
        raise DomainMismatch("the bounds admit no crash pattern or no initial states")
    for f in bounds.patterns or ():
        if (f.n, f.horizon) != (bounds.n, bounds.horizon):
            raise DomainMismatch(
                f"a pattern over {f.n} processes and horizon {f.horizon} does not fit "
                f"bounds over {bounds.n} processes and horizon {bounds.horizon}"
            )
    for init in inits:
        if len(init) != bounds.n:
            raise DomainMismatch(
                f"a choice of {len(init)} initial states does not fit bounds "
                f"over {bounds.n} processes"
            )
        for p, q in enumerate(init):
            if q not in alg.initial_states(p):
                raise DomainMismatch(f"process {p} cannot start in {q!r}: not an initial state")
    estimate = estimate_run_families(bounds, len(inits))
    cap = bounds.resolved_cap()
    if estimate > cap:
        raise BudgetExceeded(
            f"estimated {estimate} run families exceed the cap of {cap} "
            f"(raise {RUN_CAP_ENV_VAR} or pass run_cap to override)"
        )
    patterns = (
        bounds.patterns
        if bounds.patterns is not None
        else all_monotone_patterns(bounds.n, bounds.horizon)
    )
    return patterns, inits, estimate


def history_groups(
    spec: FDSpec, pattern: FailurePattern, budget: int
) -> list[tuple[History, list[History]]]:
    """In-budget histories grouped by what live processes can see.

    Each group is (representative, members); all members agree on every cell
    ``(p, t)`` with ``p`` live at ``t``, so one schedule tree covers them all.
    """
    groups: dict[tuple, list[History]] = {}
    order: list[tuple] = []
    for h in perturbed_histories(spec, pattern, budget):
        key = tuple(
            h.at(p, t)
            for t in range(pattern.horizon + 1)
            for p in sorted(pattern.live_at(t))
        )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(h)
    return [(groups[key][0], groups[key]) for key in order]


class _ScheduleTree:
    """The schedule trees of one call, one (pattern, history, initial states)
    family at a time.

    ``start`` roots the tree at a family.  The tree holds the current path:
    per-process states, the messages in transit (in send order), the
    schedule and its times.  ``delta_cache`` memoizes ``alg.transition`` for
    every family of the call.
    """

    def __init__(self, alg: Algorithm, max_steps: int):
        self.alg = alg
        self.max_steps = max_steps
        self.n = alg.n
        self.delta_cache: dict = {}

    def start(self, pattern: FailurePattern, history: History, init: tuple[State, ...]) -> None:
        """Root the tree at a family, with the empty path."""
        self.pattern = pattern
        self.history = history
        self.init = init
        self.horizon = pattern.horizon
        self.states: list[State] = list(init)
        self.transit: list[Message] = []
        self.schedule: list[Step] = []
        self.times: list[int] = []

    def run(self) -> Run:
        """The current path as a run."""
        return Run(
            self.pattern, self.history, self.init, tuple(self.schedule), tuple(self.times)
        )

    def children(self, t: int) -> Iterator[Step]:
        """Apply each step enabled at time ``t``, yield it, then undo it.

        Nothing is enabled once the path holds ``max_steps`` steps or ``t``
        is past the horizon.  Order: by actor, then receiving nothing before
        receiving each message addressed to the actor, in send order.
        """
        depth = len(self.schedule)
        if depth >= self.max_steps or t > self.horizon:
            return
        crashed = self.pattern.crashed_at(t)
        states = self.states
        transit = self.transit
        cache = self.delta_cache
        for actor in range(self.n):
            if actor in crashed:
                continue
            suspects = self.history.at(actor, t)
            pre = states[actor]
            options: list[Message | None] = [None]
            options.extend(m for m in transit if m.receiver == actor)
            for received in options:
                transmission = None if received is None else received.transmission()
                key = (actor, pre, transmission, suspects)
                try:
                    result = cache[key]
                except KeyError:
                    result = cache[key] = self.alg.transition(
                        actor, pre, transmission, suspects
                    )
                if result is None:
                    continue
                post, dispatch = result
                sent = (
                    None
                    if dispatch is None
                    else Message(actor, dispatch[0], dispatch[1], depth * self.n + actor)
                )
                step = Step(actor, pre, received, suspects, post, sent)
                states[actor] = post
                removed_at = 0
                if received is not None:
                    removed_at = transit.index(received)
                    del transit[removed_at]
                if sent is not None:
                    transit.append(sent)
                self.schedule.append(step)
                self.times.append(t)
                yield step
                self.times.pop()
                self.schedule.pop()
                if sent is not None:
                    transit.pop()
                if received is not None:
                    transit.insert(removed_at, received)
                states[actor] = pre

    def runs(self, owed: frozenset[int], window: int | None) -> Iterator[Run]:
        """The runs that owe the processes in ``owed`` no strict-fairness
        debt: the empty run, then every nonempty schedule of each window
        offset in depth-first order.

        The debts of ``validation._liveness_debts`` are kept in step with the
        path: the number of messages in transit to an owed process, and each
        owed process's last step time (-1 before its first step; a process
        owed nothing is pinned to the horizon).  A run is yielded when
        nothing is owed and every owed process stepped less than ``window``
        points before the horizon (default window: the whole run).  A path
        whose last step lies ``window`` or more points after some owed
        process's last step is neither yielded nor extended: that process's
        gap is too long whether it steps later or not.  So no walked path
        ever closes a gap that long.  With nobody owed, every run is yielded.
        """
        window = self.horizon + 1 if window is None else window
        last = [-1 if p in owed else self.horizon for p in range(self.n)]
        if self.horizon - min(last) < window:
            yield self.run()
        # from this offset on, an owed process has idled a whole window
        too_late = window + min(last) + 1
        for window_start in range(min(self.horizon + 1, too_late)):
            yield from self._below(window_start, window, owed, last, 0)

    def _below(
        self, t: int, window: int, owed: frozenset[int], last: list[int], debt: int
    ) -> Iterator[Run]:
        for step in self.children(t):
            actor = step.actor
            child_debt = debt
            if step.received is not None and actor in owed:
                child_debt -= 1
            if step.sent is not None and step.sent.receiver in owed:
                child_debt += 1
            before = last[actor]
            if actor in owed:
                last[actor] = t
            oldest = min(last)
            if t - oldest < window:
                if not child_debt and self.horizon - oldest < window:
                    yield self.run()
                yield from self._below(t + 1, window, owed, last, child_debt)
            last[actor] = before


def enumerate_runs(alg: Algorithm, fd: FDSpec, bounds: EnumerationBounds) -> Iterator[Run]:
    """Every valid run within the bounds, in a fixed deterministic order.

    Order: pattern, then history, then initial states, then window offset,
    then depth-first schedule order.  In strict-fairness mode the pattern's
    correct processes are owed fairness, and runs carrying unmet liveness
    debts are left out, decided in the tree as it is walked; in
    prefix-consistent mode nobody is owed anything, so a fairness window is
    refused.  The empty run appears once per (pattern, history, initial
    states), at window offset 0.
    """
    strict = bounds.mode is ValidationMode.STRICT_FAIRNESS
    if not strict and bounds.fairness_window is not None:
        raise DomainMismatch("a fairness window applies only in strict-fairness mode")
    patterns, inits, _ = _run_space(alg, bounds)
    tree = _ScheduleTree(alg, bounds.max_steps)
    for pattern in patterns:
        owed = pattern.correct() if strict else frozenset()
        for history in perturbed_histories(fd, pattern, bounds.history_budget):
            for init in inits:
                tree.start(pattern, history, init)
                yield from tree.runs(owed, bounds.fairness_window)


# ---------------------------------------------------------------------------
# Solvability over fair bounded runs.


def _verdict(predicate: ProblemPredicate, w: ProblemSeq, pattern: FailurePattern) -> str:
    """'decided', 'undecided' (safety holds but some survivor has not decided
    by the horizon) or 'fail' for one observable sequence."""
    if predicate.evaluate(w, pattern):
        return "decided"
    if predicate.undecided(w, pattern):
        return "undecided"
    return "fail"


class _SequenceJudge:
    """The growing observable sequence, judged whole by any predicate.

    Has ``_AgreementMonitor``'s push/pop/classify interface, for predicates
    the monitor does not mirror.
    """

    def __init__(self, letters: list[str], predicate: ProblemPredicate, pattern: FailurePattern):
        self.rows = [tuple(letters)]
        self.predicate = predicate
        self.pattern = pattern

    def push(self, i: int, letter: str) -> None:
        row = list(self.rows[-1])
        row[i] = letter
        self.rows.append(tuple(row))

    def pop(self, token: None) -> None:
        self.rows.pop()

    def classify(self) -> str:
        return _verdict(self.predicate, tuple(self.rows), self.pattern)


def _judge(
    predicate: ProblemPredicate, sigma: frozenset[str], letters: list[str], pattern: FailurePattern
) -> _AgreementMonitor | _SequenceJudge:
    """The judge of a sequence that starts at ``letters`` and grows by
    ``push``: ``_AgreementMonitor`` for the two agreement predicates over an
    alphabet of agreement letters, ``_SequenceJudge`` for anything else."""
    if (
        type(predicate) in (ConsensusPredicate, StrongConsensusPredicate)
        and sigma <= AGREEMENT_ALPHABET
    ):
        strong = isinstance(predicate, StrongConsensusPredicate)
        return _AgreementMonitor(letters, pattern.correct(), strong)
    return _SequenceJudge(letters, predicate, pattern)


def _fair_verdicts(
    alg: Algorithm,
    fd: FDSpec,
    interp: Interpretation,
    predicate: ProblemPredicate,
    strict_bounds: EnumerationBounds,
) -> Iterator[tuple[Run, str]]:
    """Each fair run within the strict-mode bounds, in enumeration order,
    with its verdict.

    Consecutive runs share a schedule prefix, so the judge of the previous
    run is kept with a stack of the steps pushed into it: per run, only the
    steps after the longest prefix of identical ``Step`` objects are popped
    and pushed, each as its actor's new letter.  The judge starts over
    whenever the (pattern, history, initial states) family changes.  A scan
    that ends without a fair run raises ``DomainMismatch``: a check over no
    run must not report success.
    """
    interp.check_initial_cover(alg.initial_states)
    of = interp.of
    pattern = history = init = None
    steps: list[Step] = []
    tokens: list = []
    for run in enumerate_runs(alg, fd, strict_bounds):
        if run.init is not init or run.history is not history or run.pattern is not pattern:
            pattern, history, init = run.pattern, run.history, run.init
            letters = [of(i, s) for i, s in enumerate(init)]
            judge = _judge(predicate, interp.sigma, letters, pattern)
            steps, tokens = [], []
        schedule = run.schedule
        keep = 0
        limit = min(len(steps), len(schedule))
        while keep < limit and steps[keep] is schedule[keep]:
            keep += 1
        for token in reversed(tokens[keep:]):
            judge.pop(token)
        del steps[keep:], tokens[keep:]
        for step in schedule[keep:]:
            tokens.append(judge.push(step.actor, of(step.actor, step.post)))
            steps.append(step)
        yield run, judge.classify()
    if pattern is None:
        raise DomainMismatch("the bounds admit no fair run")


@dataclass
class SolvesReport:
    """Verdict of an exhaustive solvability check."""

    algorithm: str
    fd: str
    problem: str
    bounds: dict
    solves: bool
    checked_runs: int
    decided_runs: int
    undecided_runs: int
    violation_count: int
    require_quiescence: bool
    counterexample: dict | None
    elapsed_seconds: float
    canonicalizations: tuple[str, ...] = CANONICALIZATION_NOTES

    def to_dict(self) -> dict:
        return {
            "schema": "report.v1",
            "kind": "solves",
            "algorithm": self.algorithm,
            "fd": self.fd,
            "problem": self.problem,
            "bounds": self.bounds,
            "solves": self.solves,
            "checked_runs": self.checked_runs,
            "decided_runs": self.decided_runs,
            "undecided_runs": self.undecided_runs,
            "violation_count": self.violation_count,
            "require_quiescence": self.require_quiescence,
            "counterexample": self.counterexample,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "canonicalizations": list(self.canonicalizations),
        }


def check_solves(
    alg: Algorithm,
    fd: FDSpec,
    interp: Interpretation,
    predicate: ProblemPredicate,
    bounds: EnumerationBounds,
    require_quiescence: bool = False,
) -> SolvesReport:
    """Does the algorithm solve the problem on every fair run in bounds?

    Runs whose only defect is running out of horizon (safety holds, some
    survivor undecided) are tallied as undecided and, unless
    ``require_quiescence`` is set, excluded from the verdict.
    """
    t0 = time.perf_counter()
    strict_bounds = replace(bounds, mode=ValidationMode.STRICT_FAIRNESS)
    counts = {"decided": 0, "undecided": 0, "fail": 0}
    failing = {"fail", "undecided"} if require_quiescence else {"fail"}
    counterexample: dict | None = None
    for run, verdict in _fair_verdicts(alg, fd, interp, predicate, strict_bounds):
        counts[verdict] += 1
        if counterexample is None and verdict in failing:
            counterexample = run_to_doc(run, alg)
    violations = sum(counts[verdict] for verdict in failing)
    return SolvesReport(
        algorithm=alg.name,
        fd=fd.serialize(),
        problem=predicate.name,
        bounds=strict_bounds.to_dict(),
        solves=violations == 0,
        checked_runs=sum(counts.values()),
        decided_runs=counts["decided"],
        undecided_runs=counts["undecided"],
        violation_count=violations,
        require_quiescence=require_quiescence,
        counterexample=counterexample,
        elapsed_seconds=time.perf_counter() - t0,
    )


@dataclass
class ProbeReport:
    """Outcome of hunting for a single violating run."""

    algorithm: str
    fd: str
    problem: str
    bounds: dict
    found: bool
    run: Run | None
    run_doc: dict | None
    detail: str
    checked_runs: int
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "schema": "report.v1",
            "kind": "probe",
            "algorithm": self.algorithm,
            "fd": self.fd,
            "problem": self.problem,
            "bounds": self.bounds,
            "found": self.found,
            "run": self.run_doc,
            "detail": self.detail,
            "checked_runs": self.checked_runs,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def counterexample_probe(
    alg: Algorithm,
    fd: FDSpec,
    interp: Interpretation,
    predicate: ProblemPredicate,
    bounds: EnumerationBounds,
) -> ProbeReport:
    """First fair run within bounds that genuinely violates the problem
    (undecided runs never count), or a report that none exists."""
    t0 = time.perf_counter()
    strict_bounds = replace(bounds, mode=ValidationMode.STRICT_FAIRNESS)
    checked = 0
    found: Run | None = None
    for run, verdict in _fair_verdicts(alg, fd, interp, predicate, strict_bounds):
        checked += 1
        if verdict == "fail":
            found = run
            break
    return ProbeReport(
        algorithm=alg.name,
        fd=fd.serialize(),
        problem=predicate.name,
        bounds=strict_bounds.to_dict(),
        found=found is not None,
        run=found,
        run_doc=None if found is None else run_to_doc(found, alg),
        detail=(
            f"no violation among {checked} fair runs"
            if found is None
            else f"run #{checked} violates {predicate.name}"
        ),
        checked_runs=checked,
        elapsed_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Preservation claims, checked clause by clause.


@dataclass
class ClauseFailure:
    """One violated clause, with a concrete run when one was materialized.

    ``multiplicity`` counts the occurrences of this (clause, detail) pair
    along run paths, so one run can add more than 1 to it: a stalled process
    that shows the wrong letter at each of its steps repeats the pair once
    per step.
    """

    clause: str
    detail: str
    multiplicity: int = 1
    run_doc: dict | None = None

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "detail": self.detail,
            "multiplicity": self.multiplicity,
            "run": self.run_doc,
        }


@dataclass
class TheoremReport:
    """Outcome of exhaustively checking a preservation claim.

    ``failure_count`` counts (run, clause) pairs: a run that violates a
    clause in several ways counts once for it.  ``failures`` keeps at most
    ``MAX_RECORDED_FAILURES`` distinct (clause, detail) entries, each with
    its multiplicity (see ``ClauseFailure``), so multiplicities need not sum
    to ``failure_count``.  ``families`` is the a-priori estimate of
    (pattern, history, initial states) families that the run cap is checked
    against, an upper bound on the families that exist; the in-budget
    histories that exist are counted in ``checked_histories``.
    """

    theorem: str
    algorithm: str
    fd: str
    k: int | None
    bounds: dict
    families: int
    checked_runs: int
    checked_histories: int
    failure_count: int
    failures: list[ClauseFailure]
    decided_runs: int
    undecided_runs: int
    thorough: bool
    elapsed_seconds: float
    canonicalizations: tuple[str, ...] = CANONICALIZATION_NOTES

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        return {
            "schema": "report.v1",
            "kind": "theorem",
            "theorem": self.theorem,
            "algorithm": self.algorithm,
            "fd": self.fd,
            "k": self.k,
            "bounds": self.bounds,
            "families": self.families,
            "checked_runs": self.checked_runs,
            "checked_histories": self.checked_histories,
            "failure_count": self.failure_count,
            "failures": [f.to_dict() for f in self.failures],
            "decided_runs": self.decided_runs,
            "undecided_runs": self.undecided_runs,
            "thorough": self.thorough,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "canonicalizations": list(self.canonicalizations),
        }


class _AgreementMonitor:
    """Incremental verdicts for the two agreement predicates.

    Mirrors ``ConsensusPredicate``/``StrongConsensusPredicate`` over the
    growing observable sequence in O(1) per step; cross-checked against the
    direct evaluation in thorough mode.
    """

    __slots__ = (
        "strong",
        "correct",
        "proposals",
        "decisions",
        "ever",
        "undecided_survivors",
        "stability_broken",
        "proposal_changed",
    )

    def __init__(self, letters: list[str], correct: frozenset[int], strong: bool):
        self.strong = strong
        self.correct = correct
        self.proposals: list[int] = []
        self.decisions: list[int | None] = []
        self.ever: dict[int, int] = {}
        self.stability_broken = 0
        self.proposal_changed = 0
        for letter in letters:
            p, d = agreement_state(letter)
            self.proposals.append(p)
            self.decisions.append(d)
            if d is not None:
                self.ever[d] = self.ever.get(d, 0) + 1
        self.undecided_survivors = sum(1 for c in correct if self.decisions[c] is None)

    def push(self, i: int, letter: str) -> tuple:
        old_d = self.decisions[i]
        token = (i, old_d, self.stability_broken, self.proposal_changed)
        p, d = agreement_state(letter)
        if p != self.proposals[i]:
            self.proposal_changed += 1
        if d != old_d:
            if old_d is not None:
                self.stability_broken += 1
            self._decide(i, old_d, d)
        return token

    def pop(self, token: tuple) -> None:
        i, old_d, self.stability_broken, self.proposal_changed = token
        d = self.decisions[i]
        if d != old_d:
            self._decide(i, d, old_d)

    def _decide(self, i: int, old_d: int | None, d: int | None) -> None:
        """Move process ``i``'s decision from ``old_d`` to a different ``d``,
        keeping the counts in step."""
        if old_d is not None:
            count = self.ever[old_d] - 1
            if count:
                self.ever[old_d] = count
            else:
                del self.ever[old_d]
        if d is not None:
            self.ever[d] = self.ever.get(d, 0) + 1
        if i in self.correct:
            if old_d is None:
                self.undecided_survivors -= 1
            elif d is None:
                self.undecided_survivors += 1
        self.decisions[i] = d

    def classify(self) -> str:
        """'fail' | 'undecided' | 'decided' for the current sequence."""
        if self.stability_broken or self.proposal_changed or len(self.ever) > 1:
            return "fail"
        for value in self.ever:
            # the one value decided anywhere: someone proposed it and, under
            # the strong rule, some survivor did
            if value not in self.proposals:
                return "fail"
            if self.strong and self.correct and all(
                self.proposals[c] != value for c in self.correct
            ):
                return "fail"
        # with no survivors nobody is left undecided
        return "undecided" if self.undecided_survivors else "decided"

    def digest(self) -> tuple:
        return (
            self.stability_broken,
            self.proposal_changed,
            tuple(sorted(self.ever.items())),
            tuple(self.proposals),
        )


class _WalkTotals:
    """What a walk found: runs (``nodes``), (run, clause) violations, decided
    and undecided runs, and ``tally``, the occurrences of each (clause,
    detail) pair in first-seen order (``None`` while empty).  One record
    serves a memoized subtree, a history group and a whole call."""

    __slots__ = ("nodes", "violations", "decided", "undecided", "tally")

    def __init__(self) -> None:
        self.nodes = 0
        self.violations = 0
        self.decided = 0
        self.undecided = 0
        self.tally: dict[tuple[str, str], int] | None = None

    def count(self, pair: tuple[str, str], times: int) -> None:
        tally = self.tally
        if tally is None:
            tally = self.tally = {}
        tally[pair] = tally.get(pair, 0) + times

    def add(self, other: "_WalkTotals", factor: int = 1) -> None:
        """Credit ``factor`` copies of ``other``."""
        self.nodes += other.nodes * factor
        self.violations += other.violations * factor
        self.decided += other.decided * factor
        self.undecided += other.undecided * factor
        if other.tally is not None:
            for pair, times in other.tally.items():
                self.count(pair, times * factor)


class _TreeWalker(_ScheduleTree):
    """One preservation claim, walked over every schedule tree of one call.

    A subclass states the whole claim: ``theorem``, ``fd``, ``k``, ``wrap``,
    ``derive``, ``map_pattern``, ``membership`` and its clause names, which
    initial states and steps the run mapping changes, the per-step clause
    checks and the mapping half of the per-node slow-path cross-check.  The
    walker adds the observable letters, the predicate's judge and the per-run
    violations carried by the current path.  ``examples`` (for each of the
    first ``MAX_RECORDED_FAILURES`` (clause, detail) pairs, the document of
    the first run seen, or ``None`` for a membership clause) and ``memo``
    (each walked subtree's ``_WalkTotals``, their tallies interned) last for
    the whole call.
    """

    theorem: str
    fd: FDSpec
    k: int | None = None
    c_clause: str
    d_clause: str
    membership_clause: str
    membership_subject: str

    def __init__(
        self,
        base_alg: Algorithm,
        interp: Interpretation,
        predicate: ProblemPredicate,
        max_steps: int,
        derived_interp: Interpretation | None,
        thorough: bool,
    ):
        interp.check_initial_cover(base_alg.initial_states)
        if derived_interp is None:
            derived_interp = self.derive(interp, base_alg)
        self.v_tilde = derived_interp
        super().__init__(self.wrap(base_alg), max_steps)
        self.base_alg = base_alg
        self.interp = interp
        self.predicate = predicate
        self.thorough = thorough
        self.examples: dict[tuple[str, str], dict | None] = {}
        self.memo: dict[tuple, _WalkTotals] = {}
        self.tallies: dict[tuple, dict[tuple[str, str], int]] = {}

    def start(
        self,
        pattern: FailurePattern,
        history: History,
        init: tuple[State, ...],
        mapped_pattern: FailurePattern,
    ) -> None:
        """Root the walk at a family whose run maps under ``mapped_pattern``."""
        super().start(pattern, history, init)
        self.mapped_pattern = mapped_pattern
        self.faulty = pattern.faulty()
        self.letters: list[str] = [self.v_tilde.of(i, s) for i, s in enumerate(init)]
        self.mapped_init = tuple(self.mapped_state(s) for s in init)
        #: the original letters of the mapped run's initial states
        self.mapped_letters = tuple(self.interp.of(i, q) for i, q in enumerate(self.mapped_init))
        #: processes whose first letter differs from their mapped one
        self.init_mismatches = sum(a != b for a, b in zip(self.letters, self.mapped_letters))
        self.w_stack: list[tuple[str, ...]] = [tuple(self.letters)]
        self.judge = _judge(self.predicate, self.v_tilde.sigma, self.letters, pattern)
        #: per-run clause violations carried by the current path
        self.sticky: list[tuple[str, str]] = []

    # -- specialized by subclasses -------------------------------------------

    def mapped_state(self, state: State) -> State:
        """The mapped run's counterpart of an initial state."""
        return state

    def step_violations(self, step: Step, aligned: bool) -> tuple[list[tuple[str, str]], bool]:
        """Clause violations introduced by this step, and whether the
        observable alignment invariant survives it."""
        raise NotImplementedError

    def dropped(self, step: Step) -> bool:
        """Does the run mapping drop this step?"""
        raise NotImplementedError

    def memo_view(self, aligned: bool) -> dict | None:
        return None

    def memo_key(self, t: int, remaining: int) -> tuple:
        raise NotImplementedError

    def check_mapping(self, run: Run, fast_clauses: set[str]) -> None:
        """Validate the current run's mapped run from scratch and compare
        with the fast path's clause verdicts (thorough)."""
        raise NotImplementedError

    # -- generic walk ---------------------------------------------------------

    def stutter_reference(self) -> tuple[tuple[str, ...], ...]:
        """The mapped run's observable sequence, which the current one must
        expand."""
        of, dropped = self.interp.of, self.dropped
        states = list(self.mapped_init)
        rows = [tuple(of(i, s) for i, s in enumerate(states))]
        for step in self.schedule:
            if not dropped(step):
                states[step.actor] = step.post
                rows.append(tuple(of(i, s) for i, s in enumerate(states)))
        return tuple(rows)

    def structural_violations(self, mapped: Run, fd: FDSpec) -> list[RunViolation]:
        """Every violation of the mapped run under the wrapped algorithm
        except history membership, which is a clause of its own."""
        report = validate_run(mapped, self.base_alg, fd, ValidationMode.PREFIX_CONSISTENT)
        return [v for v in report.violations if v.condition != "history-membership"]

    def mapped_verdict_not_fail(self) -> bool:
        """Does the mapped run's observable sequence satisfy the problem (or
        merely run out of horizon)?  Consulted only when the wrapper run's
        sequence fails: the preservation claim transfers satisfaction along
        the mapping, it does not manufacture it."""
        return _verdict(self.predicate, self.stutter_reference(), self.mapped_pattern) != "fail"

    def account_node(self, totals: _WalkTotals, aligned: bool) -> None:
        totals.nodes += 1
        violations = self.sticky
        c_ok = True
        if not aligned:
            c_ok = is_stutter(self.stutter_reference(), tuple(self.w_stack))
            if not c_ok:
                violations = violations + [
                    (self.c_clause, "observable sequence is not a stutter expansion")
                ]
        verdict = self.judge.classify()
        if verdict == "fail":
            if self.mapped_verdict_not_fail():
                violations = violations + [
                    (
                        self.d_clause,
                        "problem predicate rejects the wrapper sequence although "
                        "the mapped run satisfies the problem",
                    )
                ]
        elif verdict == "decided":
            totals.decided += 1
        else:
            totals.undecided += 1
        if violations:
            totals.violations += len({clause for clause, _ in violations})
            examples = self.examples
            for pair in violations:
                totals.count(pair, 1)
                if pair not in examples and len(examples) < MAX_RECORDED_FAILURES:
                    examples[pair] = run_to_doc(self.run(), self.alg)
        if self.thorough:
            self.slow_check(aligned, c_ok, verdict, violations)

    def slow_check(
        self, aligned: bool, c_ok: bool, verdict: str, violations: list
    ) -> None:
        """Re-derive this node's verdicts from scratch and compare (thorough)."""
        run = self.run()
        report = validate_run(run, self.alg, self.fd, ValidationMode.PREFIX_CONSISTENT)
        assert report.valid, f"engine produced an invalid run: {report.violations}"
        self.check_mapping(run, {clause for clause, _ in violations})
        slow_c = is_stutter(self.stutter_reference(), tuple(self.w_stack))
        if aligned:
            assert slow_c, "aligned paths must stutter-embed"
        else:
            assert slow_c == c_ok
        slow_verdict = _verdict(self.predicate, tuple(self.w_stack), self.pattern)
        assert slow_verdict == verdict, f"{slow_verdict} != {verdict}"
        fast_d = any(clause == self.d_clause for clause, _ in violations)
        assert fast_d == (slow_verdict == "fail" and self.mapped_verdict_not_fail())

    def walk(self, totals: _WalkTotals) -> None:
        """Account the root once, then every window offset's subtree."""
        aligned = not self.init_mismatches
        self.account_node(totals, aligned)
        for window_start in range(self.horizon + 1):
            self.expand(totals, window_start, aligned)

    def expand(self, totals: _WalkTotals, t: int, aligned: bool) -> None:
        """Walk the children at time ``t`` into ``totals``, or credit them
        from the memo.

        A memo entry is the subtree's ``_WalkTotals``, clause tally included.
        A miss walks the children into a fresh record and stores it; a hit
        and a miss alike end by adding that record to ``totals``.
        """
        depth = len(self.schedule)
        if depth >= self.max_steps or t > self.horizon:
            return
        memo = self.memo_view(aligned)
        if memo is None:
            self.expand_children(totals, t, aligned)
            return
        key = self.memo_key(t, min(self.max_steps - depth, self.horizon + 1 - t))
        subtree = memo.get(key)
        if subtree is None:
            subtree = _WalkTotals()
            self.expand_children(subtree, t, aligned)
            if subtree.tally is not None:
                # few distinct tallies recur across many subtrees: keep one copy
                subtree.tally = self.tallies.setdefault(tuple(subtree.tally.items()), subtree.tally)
            memo[key] = subtree
        totals.add(subtree)

    def expand_children(self, totals: _WalkTotals, t: int, aligned: bool) -> None:
        letters = self.letters
        judge = self.judge
        sticky = self.sticky
        for step in self.children(t):
            actor = step.actor
            new_letter = self.v_tilde.of(actor, step.post)
            old_letter = letters[actor]
            letters[actor] = new_letter
            self.w_stack.append(tuple(letters))
            token = judge.push(actor, new_letter)

            step_viols, still_aligned = self.step_violations(step, aligned)
            sticky.extend(step_viols)
            child_aligned = aligned and still_aligned
            self.account_node(totals, child_aligned)
            self.expand(totals, t + 1, child_aligned)

            if step_viols:
                del sticky[len(sticky) - len(step_viols):]
            judge.pop(token)
            self.w_stack.pop()
            letters[actor] = old_letter


class _SosWalker(_TreeWalker):
    """The stall wrapper under the full-foresight oracle: its runs map to
    runs of the base algorithm whose faulty processes crash at time 0."""

    theorem = "sos-preservation"
    fd = FDSpec.foresight()
    c_clause = "sos-c-stutter-relation"
    d_clause = "sos-d-problem-holds"
    membership_clause = "sos-a-history-membership"
    membership_subject = "stripped-run history"
    wrap = staticmethod(stall_on_suspect)
    derive = staticmethod(derive_interpretation_sos)
    map_pattern = staticmethod(initial_crash_scenario)

    def membership(self, history: History, mapped_pattern: FailurePattern) -> MembershipVerdict:
        return history_in_p(history, mapped_pattern)

    def start(self, *family) -> None:
        super().start(*family)
        if self.init_mismatches:
            self.sticky.append(
                (
                    "sos-b-interpretation-equality",
                    "derived interpretation disagrees on an initial state",
                )
            )
        self.live_at = tuple(self.pattern.live_at(t) for t in range(self.horizon + 1))
        # A subtree's outcome depends on the history only through the cells
        # live processes read, so the memo is sound only while those all hold
        # the horizon-faulty set, as the memo key assumes.
        self.memoize = (
            not self.thorough
            and isinstance(self.judge, _AgreementMonitor)
            and not self.init_mismatches
            and all(
                self.history.at(p, t) == self.faulty
                for t in range(self.horizon + 1)
                for p in self.live_at[t]
            )
        )

    def memo_view(self, aligned: bool) -> dict | None:
        return self.memo if self.memoize and aligned and not self.sticky else None

    def memo_key(self, t: int, remaining: int) -> tuple:
        live_suffix = tuple(self.live_at[u] for u in range(t, t + remaining))
        transit_key = tuple(
            sorted((m.sender, m.receiver, m.payload) for m in self.transit)
        )
        assert isinstance(self.judge, _AgreementMonitor)
        return (
            remaining,
            live_suffix,
            self.faulty,
            tuple(self.states),
            transit_key,
            self.judge.digest(),
        )

    def step_violations(self, step: Step, aligned: bool) -> tuple[list[tuple[str, str]], bool]:
        out: list[tuple[str, str]] = []
        actor = step.actor
        still_aligned = True
        if actor in self.faulty:
            if step.sent is not None:
                out.append(
                    (
                        "sos-a-stripped-run-valid",
                        f"eventually-faulty process {actor} sends a message",
                    )
                )
            if self.letters[actor] != self.mapped_letters[actor]:
                out.append(
                    (
                        "sos-b-interpretation-equality",
                        f"stalled process {actor} shows {self.letters[actor]!r}, "
                        f"its frozen view shows {self.mapped_letters[actor]!r}",
                    )
                )
            if self.letters[actor] != self.v_tilde.of(actor, step.pre):
                still_aligned = False
        else:
            if self.letters[actor] != self.interp.of(actor, step.post):
                out.append(
                    (
                        "sos-b-interpretation-equality",
                        f"process {actor} shows {self.letters[actor]!r} under the derived "
                        f"interpretation but {self.interp.of(actor, step.post)!r} under the "
                        f"original",
                    )
                )
                still_aligned = False
        return out, still_aligned

    def dropped(self, step: Step) -> bool:
        return step.actor in self.faulty

    def check_mapping(self, run: Run, fast_clauses: set[str]) -> None:
        base_run = None
        try:
            base_run = to_initial_crash_run(strip_faulty_steps(run))
            a_ok = not self.structural_violations(base_run, FDSpec.always_accurate())
        except FdlabError:
            a_ok = False
        assert a_ok == ("sos-a-stripped-run-valid" not in fast_clauses)
        if base_run is not None:
            assert interpret_run(base_run, self.interp) == self.stutter_reference()

        b_ok = True
        stripped_schedule = tuple(s for s in self.schedule if s.actor not in self.faulty)
        for i in range(self.n):
            wrapper_views = own_state_views(self.init, tuple(self.schedule), i)
            base_views = own_state_views(self.init, stripped_schedule, i)
            for index, state in enumerate(wrapper_views):
                frozen = base_views[min(index, len(base_views) - 1)]
                if self.v_tilde.of(i, state) != self.interp.of(i, frozen):
                    b_ok = False
        assert b_ok == ("sos-b-interpretation-equality" not in fast_clauses)


class _DasWalker(_TreeWalker):
    """The delay wrapper under the accurate-after-``k+1`` oracle: its runs
    map, shifted one time point earlier, to runs under accurate-after-``k``."""

    theorem = "das-preservation"
    c_clause = "das-c-stutter-relation"
    d_clause = "das-d-problem-holds"
    membership_clause = "das-h-history-membership"
    membership_subject = "mapped history"
    wrap = staticmethod(delay_a_step)
    derive = staticmethod(derive_interpretation_das)

    def __init__(
        self,
        k: int,
        time_shift: bool,
        base_alg: Algorithm,
        interp: Interpretation,
        predicate: ProblemPredicate,
        max_steps: int,
        derived_interp: Interpretation | None,
        thorough: bool,
    ):
        self.k = k
        self.time_shift = time_shift
        self.fd = FDSpec.accurate_after(k + 1)
        super().__init__(base_alg, interp, predicate, max_steps, derived_interp, thorough)

    def map_pattern(self, pattern: FailurePattern) -> FailurePattern:
        return shift_pattern(pattern) if self.time_shift else pattern

    def membership(self, history: History, mapped_pattern: FailurePattern) -> MembershipVerdict:
        shifted = shift_history(history) if self.time_shift else history
        return history_in_pk(shifted, mapped_pattern, self.k)

    def mapped_state(self, state: State) -> State:
        return state.base if isinstance(state, DelayState) else state

    def step_violations(self, step: Step, aligned: bool) -> tuple[list[tuple[str, str]], bool]:
        actor = step.actor
        if isinstance(step.pre, DelayState):
            assert step.received is None and step.sent is None
            # the dropped no-op must not move the observable letter
            return [], self.letters[actor] == self.v_tilde.of(actor, step.pre)
        return [], self.letters[actor] == self.interp.of(actor, step.post)

    def dropped(self, step: Step) -> bool:
        return isinstance(step.pre, DelayState)

    def check_mapping(self, run: Run, fast_clauses: set[str]) -> None:
        mapped = das_run_mapping(run, time_shift=self.time_shift)
        structural = self.structural_violations(mapped, FDSpec.accurate_after(self.k))
        assert not structural, f"mapped run structurally invalid: {structural}"
        assert interpret_run(mapped, self.interp) == self.stutter_reference()


def _verify_claim(walker: _TreeWalker, bounds: EnumerationBounds) -> TheoremReport:
    """Check the walker's preservation claim on every run of its wrapped
    algorithm under its oracle.

    Each claim is one walker class, and one walker serves the whole call.
    Per history group, every member is judged by ``membership`` against the
    mapped pattern, and the walker walks the group's representative once per
    initial-state choice into one ``_WalkTotals``, which the call total adds
    once per member.  The report's failures are the call total's first
    ``MAX_RECORDED_FAILURES`` (clause, detail) pairs with their example runs.
    The claims cover every prefix-consistent run, so strict fairness and
    fairness windows are refused.
    """
    started = time.perf_counter()
    if bounds.mode is not ValidationMode.PREFIX_CONSISTENT or bounds.fairness_window is not None:
        raise DomainMismatch(
            "preservation claims cover every prefix-consistent run; "
            "they take no strict-fairness mode and no fairness window"
        )
    patterns, inits, families = _run_space(walker.alg, bounds)
    totals = _WalkTotals()
    checked_histories = 0

    for pattern in patterns:
        mapped_pattern = walker.map_pattern(pattern)
        for rep, members in history_groups(walker.fd, pattern, bounds.history_budget):
            checked_histories += len(members)
            bad_memberships = []
            for h in members:
                verdict = walker.membership(h, mapped_pattern)
                if not verdict.prefix_consistent:
                    v = verdict.violations[0]
                    bad_memberships.append(
                        f"{walker.membership_subject} breaks {v.condition} "
                        f"(observer {v.observer}, subject {v.subject}, t={v.time})"
                    )
            group = _WalkTotals()
            for init in inits:
                walker.start(pattern, rep, init, mapped_pattern)
                walker.walk(group)
            totals.add(group, len(members))
            for detail in bad_memberships:
                pair = (walker.membership_clause, detail)
                totals.violations += group.nodes
                totals.count(pair, group.nodes)
                if len(walker.examples) < MAX_RECORDED_FAILURES:
                    walker.examples.setdefault(pair, None)

    return TheoremReport(
        theorem=walker.theorem,
        algorithm=walker.base_alg.name,
        fd=walker.fd.serialize(),
        k=walker.k,
        bounds=bounds.to_dict(),
        families=families,
        checked_runs=totals.nodes,
        checked_histories=checked_histories,
        failure_count=totals.violations,
        failures=[
            ClauseFailure(clause, detail, totals.tally[clause, detail], doc)
            for (clause, detail), doc in walker.examples.items()
        ],
        decided_runs=totals.decided,
        undecided_runs=totals.undecided,
        thorough=walker.thorough,
        elapsed_seconds=time.perf_counter() - started,
    )


def verify_sos(
    base_alg: Algorithm,
    interp: Interpretation,
    predicate: ProblemPredicate,
    bounds: EnumerationBounds,
    derived_interp: Interpretation | None = None,
    thorough: bool = False,
) -> TheoremReport:
    """Exhaustively check that the stall wrapper preserves the problem.

    Walks every run of the wrapped-then-stalled algorithm under the
    full-foresight oracle within bounds and checks four clauses:

    a. dropping faulty-process steps and re-homing onto the crashed-from-the-
       start pattern yields a valid run of the wrapped algorithm under the
       always-accurate oracle, including that oracle's history membership;
    b. the derived interpretation agrees, index by index, with the original
       interpretation on the two runs' per-process state views;
    c. the stripped run's observable sequence stutter-embeds into the wrapper
       run's observable sequence;
    d. problem satisfaction transfers along the mapping: a wrapper run whose
       stripped counterpart satisfies the problem satisfies it too (runs that
       merely ran out of horizon are tallied as undecided).

    ``derived_interp`` overrides the automatically derived interpretation
    (used to demonstrate that a broken derivation is caught).  ``thorough``
    re-derives every node verdict from scratch and disables memoization.
    Bounds in strict-fairness mode or with a fairness window are refused.
    """
    walker = _SosWalker(base_alg, interp, predicate, bounds.max_steps, derived_interp, thorough)
    return _verify_claim(walker, bounds)


def verify_das(
    base_alg: Algorithm,
    interp: Interpretation,
    predicate: ProblemPredicate,
    k: int,
    bounds: EnumerationBounds,
    derived_interp: Interpretation | None = None,
    time_shift: bool = True,
    thorough: bool = False,
) -> TheoremReport:
    """Exhaustively check that the delay wrapper preserves the problem.

    Walks every run of the wrapped-then-delayed algorithm under the
    accurate-after-``k+1`` oracle within bounds and checks four clauses:

    a. dropping each process's leading no-op and moving every remaining step
       one time point earlier yields a structurally valid run of the wrapped
       algorithm.  This holds by construction of ``delay_a_step`` (each
       process's first step is the no-op), so it is asserted only when
       ``thorough`` is set;
    h. the shifted history is a safe member of the accurate-after-``k``
       class for the shifted pattern;
    c. the mapped run's observable sequence stutter-embeds into the wrapper
       run's observable sequence;
    d. problem satisfaction transfers along the mapping: a wrapper run whose
       mapped counterpart satisfies the problem satisfies it too (runs that
       merely ran out of horizon are tallied as undecided).

    ``time_shift=False`` skips the re-timing in both the mapping and the
    membership clause, demonstrating that the shift is what makes clause (h)
    hold.  ``thorough`` re-derives every node verdict from scratch.
    Bounds in strict-fairness mode or with a fairness window are refused, and
    so is a ``k`` outside ``0..horizon-1``, for which ``k+1`` leaves the
    horizon.
    """
    if not 0 <= k < bounds.horizon:
        raise KOutOfRange(f"stabilization time k={k} outside 0..{bounds.horizon - 1}")
    walker = _DasWalker(
        k, time_shift, base_alg, interp, predicate, bounds.max_steps, derived_interp, thorough
    )
    return _verify_claim(walker, bounds)
