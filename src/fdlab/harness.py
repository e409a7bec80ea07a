"""Bounded exhaustive enumeration and the machine-checked preservation claims.

The enumerator walks every valid run inside explicit bounds: every monotone
crash pattern, every in-budget oracle history, every combination of initial
states, and every schedule of at most ``max_steps`` steps placed at
consecutive time points starting from every feasible offset.  Placing steps
at consecutive times is a deliberate canonicalization, and is reported as
such.  Configurations do not depend on times, but what a step suspects does,
so the offset sweep need not reach every oracle context that a run with an
internal time gap reads.  Under ``Pk`` with a deviation budget it does not:
at n=3, horizon 2, 2 steps and budget 1 under ``Pk:1``, 216 of the 13,568
gapped runs, taken without their times, are not enumerated.  Budget 2 reaches
none of them on its own pattern, only on another with the same survivors.

On top of the enumerator sit ``check_solves`` and ``counterexample_probe``:
does an algorithm solve a problem over all fair bounded runs?  Both report one
scan, which tallies the verdict (decided, undecided or fail) of each
strict-fairness run and keeps the first run that the report counts as a
violation; the probe has it stop there.  Fairness is decided in the schedule
tree as it is walked, and each run's verdict comes from the judge it shares
with the previous run, which holds the run's observable rows, so no run is
re-interpreted from its initial states.  ``verify_sos`` / ``verify_das`` check
that the stall and delay wrappers preserve solvability, clause by clause on
every run.  All of them walk the same schedule trees, one tree per call that
enters each pattern once and is re-rooted at each of its families, each walk
one recursion that hands each child its parent's step budget less one.  Each
preservation claim is one walker class that states the whole claim and adds
incremental per-step checks; one walker serves a call, and ``_verify_claim``
takes it over patterns, history groups and initial states.  A tree's nodes
are configurations without message tags, interned per call, and it keeps one
child table for the call: a node's children under one time's column (crashed
set and history cells) are built once, each transition input runs
``alg.transition`` once, and equal post states are one object.  ``Step``s
exist only for runs.  Both walkers memoize every subtree for the whole call,
in one table per id of the window the subtree reads (faulty set and columns)
and broken bit, keyed by the node id of the configuration with its transit
sorted.  Off aligned paths that carry no violation, the key packs the path's
context above the node id: its violations and the id of its two observable
sequences, whose clause (c) verdict ``is_stutter`` gives once per call
(``_TreeWalker.memo_key``).
``thorough=True`` re-derives every per-node verdict from scratch through
``validate_run``, ``is_stutter`` and the predicate and insists the two agree.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from itertools import product
from math import comb, prod
from typing import Iterator

from .detectors import (
    FDSpec,
    MembershipVerdict,
    _perturbations,
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
#: A memo key packs a path's context above this many bits of node id; no
#: call interns anywhere near 2**32 nodes.
_NODE_BITS = 32

#: The canonicalization note of every enumeration-backed report.
SWEEP_NOTE = (
    "schedule times are consecutive within a window; every feasible window "
    "offset is swept, runs with internal time gaps are not enumerated; under "
    "Pk with a deviation budget, which gapped runs the sweep covers depends "
    "on the budget"
)
#: The further note of a theorem report, whose walk serves a history group.
GROUPING_NOTE = (
    "histories deviating from the canonical one only at cells no live process "
    "reads share one schedule tree; one exact membership check serves each "
    "such group"
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
        digits = raw.strip()
        try:
            if digits.isascii() and digits.isdecimal():
                return int(digits)
        except ValueError:  # more digits than Python converts to an int
            pass
        raise DomainMismatch(f"{RUN_CAP_ENV_VAR} must be a non-negative integer, got {raw!r}")

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(mode=self.mode.value, run_cap=self.resolved_cap())
        for name in ("patterns", "inits"):
            doc[name] = None if doc[name] is None else len(doc[name])
        return doc


def init_combinations(alg: Algorithm) -> tuple[tuple[State, ...], ...]:
    """Every way to pick one initial state per process, in declaration order."""
    return tuple(product(*(alg.initial_states(i) for i in range(alg.n))))


def estimate_run_families(
    bounds: EnumerationBounds, inits_count: int, cap: int | None = None
) -> int:
    """Upper bound on |patterns| x |histories per pattern| x |initial choices|.

    Computed without materializing anything, so a hopeless request is refused
    before any work happens.  Schedules inside a family are enumerated
    exhaustively and only counted after the fact.  With a ``cap``, the sum
    over history rewrites stops at the first partial estimate above it, so
    an over-cap answer may be a lower bound of the full estimate.
    """
    patterns_count = (
        len(bounds.patterns) if bounds.patterns is not None else (bounds.horizon + 2) ** bounds.n
    )
    cells = bounds.n * (bounds.horizon + 1)
    alternatives = 2**bounds.n - 1
    estimate = 0
    # no variant rewrites more cells than there are
    for r in range(min(bounds.history_budget, cells) + 1):
        estimate += patterns_count * inits_count * comb(cells, r) * alternatives**r
        # the first term is patterns x inits; when it is 0, so is every term
        if not estimate or cap is not None and estimate > cap:
            break
    return estimate


def _run_space(
    alg: Algorithm, bounds: EnumerationBounds
) -> tuple[tuple[FailurePattern, ...], tuple[tuple[State, ...], ...], int]:
    """The patterns and initial-state choices to sweep, and the family estimate.

    Refuses explicit patterns or initial states of another shape than the
    bounds, initial-state choices holding a state that is not initial for
    ``alg``, a space that holds no run, because a check over it would report
    success without having looked at anything, and a space whose estimate
    exceeds the run cap.  The estimate counts initial-state choices as a
    product, so a hopeless space is refused before anything is listed.
    """
    if alg.n != bounds.n:
        raise DomainMismatch(f"algorithm is over {alg.n} processes, bounds over {bounds.n}")
    for f in bounds.patterns or ():
        if (f.n, f.horizon) != (bounds.n, bounds.horizon):
            raise DomainMismatch(
                f"a pattern over {f.n} processes and horizon {f.horizon} does not fit "
                f"bounds over {bounds.n} processes and horizon {bounds.horizon}"
            )
    for init in bounds.inits or ():
        if len(init) != bounds.n:
            raise DomainMismatch(
                f"a choice of {len(init)} initial states does not fit bounds "
                f"over {bounds.n} processes"
            )
        for p, q in enumerate(init):
            if q not in alg.initial_states(p):
                raise DomainMismatch(f"process {p} cannot start in {q!r}: not an initial state")
    inits_count = (
        len(bounds.inits)
        if bounds.inits is not None
        else prod(len(alg.initial_states(p)) for p in range(alg.n))
    )
    cap = bounds.resolved_cap()
    estimate = estimate_run_families(bounds, inits_count, cap)
    # a product of counts, zero exactly when there is no pattern or no init
    if not estimate:
        raise DomainMismatch("the bounds admit no crash pattern or no initial states")
    if estimate > cap:
        # Python refuses to print an int of more than 4,300 digits
        shown = f"at least {estimate}" if estimate < 10**18 else "over 10**18"
        shown_cap = cap if cap < 10**18 else "over 10**18"
        raise BudgetExceeded(
            f"estimated {shown} run families exceed the cap of {shown_cap} "
            f"(raise {RUN_CAP_ENV_VAR} or pass run_cap to override)"
        )
    patterns = (
        bounds.patterns
        if bounds.patterns is not None
        else all_monotone_patterns(bounds.n, bounds.horizon)
    )
    inits = bounds.inits if bounds.inits is not None else init_combinations(alg)
    return patterns, inits, estimate


def history_groups(
    spec: FDSpec, pattern: FailurePattern, budget: int
) -> list[tuple[History, list[History]]]:
    """In-budget histories grouped by what live processes can see.

    Each group is (representative, members); all members agree on every cell
    ``(p, t)`` with ``p`` live at ``t``, so one schedule tree covers them all.
    Two variants of the canonical history agree there exactly when their
    rewrites of live cells are equal, so those rewrites are the group key.
    """
    live = [pattern.live_at(t) for t in range(pattern.horizon + 1)]
    groups: dict[tuple, list[History]] = {}
    for rewrites, h in _perturbations(spec, pattern, budget):
        key = tuple(((p, t), v) for (p, t), v in rewrites if p in live[t])
        groups.setdefault(key, []).append(h)
    return [(members[0], members) for members in groups.values()]


class _Interner:
    """Equal values share one small int, given in first-seen order;
    ``values[i]`` is the value of id ``i``."""

    __slots__ = ("ids", "values")

    def __init__(self) -> None:
        self.ids: dict = {}
        self.values: list = []

    def __call__(self, value) -> int:
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.values)
            self.values.append(value)
        return i


def _moved(transit: tuple, position: int | None, sent) -> tuple:
    """``transit`` without its entry at ``position`` and with ``sent``
    appended, each where it is not ``None``."""
    if position is not None:
        transit = transit[:position] + transit[position + 1 :]
    return transit if sent is None else transit + (sent,)


class _ScheduleTree:
    """The schedule trees of one call, one (pattern, history, initial states)
    family at a time, over one graph of configurations.

    A node is a configuration without message tags: the local state ids,
    then the ids of the (sender, receiver, payload) triples in transit in
    send order, interned in ``nodes``; ``sorted_of`` maps it to the node
    with its transit sorted, which the memo keys on.  ``roots`` holds one
    node per initial-state choice of ``inits``.  ``enter`` sets the pattern
    of the families that ``start`` roots the tree at, and ``budgets``, the
    step budget (``max_steps``, cut at the horizon) of each window offset
    at which a step fits; a new history interns each time's column (crashed
    set and cells, as ``set_ids``) in ``column_at``.  The path is ``path``,
    the facts of its edges, whose steps sit at consecutive times from the
    window ``offset``.

    ``table`` maps a column id and a node id to the node's child entries,
    flat, two slots each: the child's node id (``None`` for a leaf, which
    is not interned) and the edge's facts, ``(actor, position of the
    received triple or None, post id, sent triple id or None,
    *step_facts)``.  ``transitions`` maps each (actor, pre id, received
    triple id, suspects) to ``(post id, sent triple id, *step_facts)``, or
    to ``None`` where no step is enabled: ``alg.transition`` runs once per
    input, and equal post states are one object.
    """

    def __init__(self, alg: Algorithm, max_steps: int, inits: tuple[tuple[State, ...], ...]):
        self.alg = alg
        self.max_steps = max_steps
        self.n = alg.n
        self.inits = inits
        self.state_ids = _Interner()
        self.triple_ids = _Interner()
        self.receiver_of: list[int] = []
        self.set_ids = _Interner()
        self.columns = _Interner()
        self.nodes = _Interner()
        self.sorted_of: list[int] = []
        self.roots = [self.node(tuple(map(self.state_ids, init))) for init in inits]
        self.transitions: dict[tuple, tuple | None] = {}
        self.facts: dict[tuple, tuple] = {}
        self.table: dict[int, dict[int, tuple]] = {}
        #: (actor, pre id, received message, suspects id, depth) -> its step
        self.steps: dict[tuple, Step] = {}

    def enter(self, pattern: FailurePattern) -> None:
        """Enter a pattern, whose families ``start`` roots until the next one."""
        self.pattern = pattern
        self.horizon = pattern.horizon
        end = self.horizon + 1
        self.budgets = [min(self.max_steps, end - t) for t in range(end)] if self.max_steps else []
        self.history: History | None = None

    def enter_history(self, history: History) -> None:
        """Intern the columns of a history of the entered pattern."""
        self.history = history
        ids, crashed = self.set_ids, self.pattern.crashed
        self.column_at = [
            self.columns((ids(crashed[t]), *[ids(row[t]) for row in history.cells]))
            for t in range(self.horizon + 1)
        ]
        self.tables_at = [self.table.setdefault(column, {}) for column in self.column_at]

    def start(self, history: History, choice: int) -> None:
        """Root the tree at the family of ``history`` and ``inits[choice]``."""
        if history is not self.history:
            self.enter_history(history)
        self.init = self.inits[choice]
        self.root = self.roots[choice]
        self.path: list[tuple] = []
        self.offset = 0

    def step_facts(self, actor: int, pre: State, suspects: frozenset[int], post: State) -> tuple:
        """What a walker needs of a step on every visit, computed once."""
        return ()

    def transition(self, key: tuple[int, int, int | None, frozenset[int]]) -> tuple | None:
        """The entry of ``transitions`` at ``key``, made on its first use."""
        actor, pre, received, suspects = key
        states, triples = self.state_ids, self.triple_ids
        heard = None if received is None else triples.values[received][::2]
        result = self.alg.transition(actor, states.values[pre], heard, suspects)
        if result is not None:
            post, sent = states(result[0]), None
            if result[1] is not None:
                sent = triples((actor, *result[1]))
                if sent == len(self.receiver_of):
                    self.receiver_of.append(result[1][0])
            values = states.values
            result = (post, sent, *self.step_facts(actor, values[pre], suspects, values[post]))
        self.transitions[key] = result
        return result

    def node(self, configuration: tuple[int, ...]) -> int:
        """The id of a configuration, interning it and its sorted form."""
        i = self.nodes.ids.get(configuration)
        if i is None:
            i = self.nodes(configuration)
            self.sorted_of.append(i)
            ordered = configuration[: self.n] + tuple(sorted(configuration[self.n :]))
            if ordered != configuration:
                self.sorted_of[i] = self.node(ordered)
        return i

    def expansion(self, node: int, column: int, leaves: bool) -> tuple:
        """The child entries of ``node`` under ``column``, built from scratch.

        Order: by actor, skipping crashed ones, then receiving nothing before
        receiving each triple addressed to the actor, in send order.
        """
        n, sets = self.n, self.set_ids.values
        crashed, *cells = (sets[i] for i in self.columns.values[column])
        configuration = self.nodes.values[node]
        states, transit = configuration[:n], configuration[n:]
        entries: list = []
        for actor in range(n):
            if actor in crashed:
                continue
            options = [None] + [i for i, m in enumerate(transit) if self.receiver_of[m] == actor]
            for position in options:
                received = None if position is None else transit[position]
                key = (actor, states[actor], received, cells[actor])
                result = self.transitions[key] if key in self.transitions else self.transition(key)
                if result is None:
                    continue
                facts = (actor, position, *result)
                facts = self.facts.setdefault(facts, facts)
                moved = states[:actor] + (facts[2],) + states[actor + 1 :]
                child = None if leaves else self.node(moved + _moved(transit, position, facts[3]))
                entries += (child, facts)
        return tuple(entries)

    def children(self, node: int, t: int, leaves: bool) -> tuple:
        """The child entries of ``node`` at time ``t``, ``leaves`` if no step
        can follow them; leaf entries serve until an inner expansion."""
        table = self.tables_at[t]
        entries = table.get(node)
        if entries is None or not leaves and entries and entries[0] is None:
            entries = table[node] = self.expansion(node, self.column_at[t], leaves)
        return entries

    def step(self, facts: tuple, depth: int, states, received: Message | None, column) -> Step:
        """The step of ``facts`` at ``depth`` from the node's state ids under
        the column's set ids, built once per (actor, pre state, received
        message, suspects, depth); it tags its message ``depth * n + actor``."""
        actor, _, post, sent = facts[:4]
        key = (actor, states[actor], received, column[1 + actor], depth)
        step = self.steps.get(key)
        if step is None:
            message = None
            if sent is not None:
                message = Message(*self.triple_ids.values[sent], depth * self.n + actor)
            pre, post = self.state_ids.values[key[1]], self.state_ids.values[post]
            step = Step(actor, pre, received, self.set_ids.values[key[3]], post, message)
            self.steps[key] = step
        return step

    def make_run(self, schedule: list[Step]) -> Run:
        times = tuple(range(self.offset, self.offset + len(schedule)))
        return Run(self.pattern, self.history, self.init, tuple(schedule), times)

    def run(self) -> Run:
        """The current path as a run, its steps rebuilt from its facts."""
        states, transit, schedule = list(self.nodes.values[self.root]), (), []
        for depth, facts in enumerate(self.path):
            column = self.columns.values[self.column_at[self.offset + depth]]
            received = None if facts[1] is None else transit[facts[1]]
            schedule.append(self.step(facts, depth, states, received, column))
            transit = _moved(transit, facts[1], schedule[-1].sent)
            states[facts[0]] = facts[2]
        return self.make_run(schedule)

    def runs(self, owed: frozenset[int], window: int | None) -> Iterator[Run]:
        """The runs that owe the processes in ``owed`` no strict-fairness
        debt: the empty run, then every nonempty schedule of each window
        offset in depth-first order.

        The debts of ``validation._liveness_debts`` are kept along the path:
        the messages in transit to an owed process, and each owed process's
        last step time (-1 before its first step; others are pinned to the
        horizon).  A run is yielded when nothing is owed and every owed
        process stepped less than ``window`` points before the horizon
        (default: the whole run).  A path whose last step lies ``window`` or
        more points after an owed process's last step is neither yielded nor
        extended, since that gap stays too long.
        """
        window = self.horizon + 1 if window is None else window
        last = [-1 if p in owed else self.horizon for p in range(self.n)]
        self.fairness = owed, window, last
        self.schedule: list[Step] = []
        if self.horizon - min(last) < window:
            yield self.make_run(self.schedule)
        # from this offset on, an owed process has idled a whole window
        too_late = window + min(last) + 1
        for offset, remaining in enumerate(self.budgets[:too_late]):
            self.offset = offset
            yield from self._below(offset, self.root, (), remaining, 0)

    def _below(self, t: int, node: int, messages: tuple, remaining: int, debt: int) -> Iterator[Run]:
        """The runs of at most ``remaining`` (at least 1) more steps below
        ``node`` at time ``t``, whose tagged messages in transit are ``messages``."""
        schedule, (owed, window, last) = self.schedule, self.fairness
        depth = len(schedule)
        entries = self.children(node, t, remaining == 1)
        states, column = self.nodes.values[node], self.columns.values[self.column_at[t]]
        for i in range(0, len(entries), 2):
            child, facts = entries[i], entries[i + 1]
            actor, position, _, sent = facts
            child_debt = debt
            if position is not None and actor in owed:
                child_debt -= 1
            if sent is not None and self.receiver_of[sent] in owed:
                child_debt += 1
            before = last[actor]
            if actor in owed:
                last[actor] = t
            oldest = min(last)
            if t - oldest < window:
                received = None if position is None else messages[position]
                step = self.step(facts, depth, states, received, column)
                schedule.append(step)
                if not child_debt and self.horizon - oldest < window:
                    yield self.make_run(schedule)
                if remaining > 1:
                    rest = _moved(messages, position, step.sent)
                    yield from self._below(t + 1, child, rest, remaining - 1, child_debt)
                schedule.pop()
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
    tree = _ScheduleTree(alg, bounds.max_steps, inits)
    for pattern in patterns:
        tree.enter(pattern)
        owed = pattern.correct() if strict else frozenset()
        for history in perturbed_histories(fd, pattern, bounds.history_budget):
            for choice in range(len(inits)):
                tree.start(history, choice)
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


class _Rows(_Interner):
    """The observable rows of one call, interned as row ids.

    ``moves`` maps ``(row id, i, letter)`` to the id of the row in which
    process ``i`` shows ``letter`` instead, and to whether that change
    breaks an agreement sequence (``_BREAKS``; false for other letters).
    ``verdicts`` maps (predicate type, survivors) to each row id's verdict
    on that row alone.
    """

    __slots__ = ("moves", "verdicts")

    def __init__(self) -> None:
        super().__init__()
        self.moves: dict[tuple[int, int, str], tuple[int, bool]] = {}
        self.verdicts: dict[tuple[type, frozenset[int]], dict[int, str]] = {}

    def move(self, key: tuple[int, int, str]) -> tuple[int, bool]:
        """Make the entry of ``moves`` at ``key``, on its first use."""
        row, i, letter = key
        old = self.values[row]
        new = self(old[:i] + (letter,) + old[i + 1 :])
        move = self.moves[key] = (new, _BREAKS.get((old[i], letter), False))
        return move


class _Judge:
    """The growing observable sequence of one run, judged by its predicate.

    ``ids`` holds the sequence as ids of ``table``, the call's ``_Rows``,
    from the row id it is built or ``reset`` with: ``push`` appends the row
    in which process ``i`` shows ``letter`` instead, and ``pop`` takes the
    last row back.  ``rows`` and ``last`` decode it.  ``broken`` holds one
    bit per row: has a step up to it broken an agreement sequence for good
    (see ``_BREAKS``)?  ``classify`` judges the whole sequence, so this
    judge serves any predicate.
    """

    __slots__ = ("ids", "broken", "table", "moves", "predicate", "pattern")

    def __init__(
        self,
        row: int,
        predicate: ProblemPredicate,
        pattern: FailurePattern,
        table: _Rows,
    ):
        self.reset(row)
        self.table = table
        self.moves = table.moves
        self.predicate = predicate
        self.pattern = pattern

    @property
    def rows(self) -> list[tuple[str, ...]]:
        values = self.table.values
        return [values[row] for row in self.ids]

    def last(self) -> tuple[str, ...]:
        return self.table.values[self.ids[-1]]

    def reset(self, row: int) -> None:
        """Start over at the one row ``row``."""
        self.ids = [row]
        self.broken = [False]

    def push(self, i: int, letter: str) -> None:
        ids = self.ids
        key = (ids[-1], i, letter)
        row, breaks = self.moves.get(key) or self.table.move(key)
        ids.append(row)
        self.broken.append(self.broken[-1] or breaks)

    def pop(self) -> None:
        self.ids.pop()
        self.broken.pop()

    def classify(self) -> str:
        """'fail' | 'undecided' | 'decided' for the current sequence."""
        return _verdict(self.predicate, tuple(self.rows), self.pattern)


def _monitored(predicate: ProblemPredicate, sigma: frozenset[str]) -> bool:
    """Is it an agreement predicate over an alphabet of agreement letters?"""
    return (
        type(predicate) in (ConsensusPredicate, StrongConsensusPredicate)
        and sigma <= AGREEMENT_ALPHABET
    )


def _judge(
    predicate: ProblemPredicate,
    sigma: frozenset[str],
    row: int,
    pattern: FailurePattern,
    table: _Rows,
) -> _Judge:
    """The judge of a sequence that starts at the row of id ``row`` and
    grows by ``push``, its rows interned in ``table``: ``_AgreementMonitor``
    where ``_monitored`` holds, the whole-sequence ``_Judge`` for anything
    else."""
    if _monitored(predicate, sigma):
        return _AgreementMonitor(row, predicate, pattern, table)
    return _Judge(row, predicate, pattern, table)


def _fair_scan(
    alg: Algorithm,
    fd: FDSpec,
    interp: Interpretation,
    predicate: ProblemPredicate,
    strict_bounds: EnumerationBounds,
    failing: set[str],
    stop: bool,
) -> tuple[dict[str, int], Run | None]:
    """Judge each fair run within the strict-mode bounds, in enumeration
    order: the tally of verdicts ('decided', 'undecided', 'fail') and the
    first run whose verdict is in ``failing``, or ``None``.  With ``stop``,
    the scan ends at that run, which the tally then counts last.

    Consecutive runs share a schedule prefix, so the judge of the previous
    run is kept: per run, only the steps after the longest prefix of
    ``Step`` objects identical to the previous run's are popped and pushed,
    each as its actor's new letter.  ``enumerate_runs`` builds each step
    once per edge and call, so an identical step may come from another
    path; it is an equal step, which pushes the same letter, and that is
    all the judge needs.  Each pattern has one judge, ``reset`` to the
    root row of each (history, initial states) family, as the preservation
    walkers root theirs.  A scan that ends without a fair run raises
    ``DomainMismatch``: a check over no run must not report success.
    """
    interp.check_initial_cover(alg.initial_states)
    of = interp.of
    table = _Rows()
    counts = {"decided": 0, "undecided": 0, "fail": 0}
    first: Run | None = None
    pattern = history = init = None
    steps: tuple[Step, ...] = ()
    for run in enumerate_runs(alg, fd, strict_bounds):
        if run.init is not init or run.history is not history or run.pattern is not pattern:
            if run.pattern is not pattern:
                judge = _judge(predicate, interp.sigma, 0, run.pattern, table)
            judge.reset(table(tuple(of(i, s) for i, s in enumerate(run.init))))
            pattern, history, init = run.pattern, run.history, run.init
            steps = ()
        schedule = run.schedule
        keep = 0
        limit = min(len(steps), len(schedule))
        while keep < limit and steps[keep] is schedule[keep]:
            keep += 1
        for _ in range(len(steps) - keep):
            judge.pop()
        for step in schedule[keep:]:
            judge.push(step.actor, of(step.actor, step.post))
        steps = schedule
        verdict = judge.classify()
        counts[verdict] += 1
        if first is None and verdict in failing:
            first = run
            if stop:
                break
    if pattern is None:
        raise DomainMismatch("the bounds admit no fair run")
    return counts, first


def _report_doc(report, kind: str, **replaced) -> dict:
    """A report's ``report.v1`` document: its fields in declaration order,
    some ``replaced``, the timing rounded to milliseconds."""
    doc = {"schema": "report.v1", "kind": kind}
    doc.update((f.name, getattr(report, f.name)) for f in fields(report))
    doc.update(replaced, elapsed_seconds=round(report.elapsed_seconds, 3))
    if "canonicalizations" in doc:
        doc["canonicalizations"] = list(report.canonicalizations)
    return doc


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
    canonicalizations: tuple[str, ...] = (SWEEP_NOTE,)

    def to_dict(self) -> dict:
        return _report_doc(self, "solves")


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
    failing = {"fail", "undecided"} if require_quiescence else {"fail"}
    counts, first = _fair_scan(alg, fd, interp, predicate, strict_bounds, failing, stop=False)
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
        counterexample=None if first is None else run_to_doc(first, alg),
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
        doc = _report_doc(self, "probe", run=self.run_doc)
        del doc["run_doc"]
        return doc


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
    counts, found = _fair_scan(alg, fd, interp, predicate, strict_bounds, {"fail"}, stop=True)
    checked = sum(counts.values())
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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["run"] = doc.pop("run_doc")
        return doc


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
    canonicalizations: tuple[str, ...] = (SWEEP_NOTE, GROUPING_NOTE)

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        return _report_doc(self, "theorem", failures=[f.to_dict() for f in self.failures])


#: (letter before, letter after) -> does a step that makes this change break
#: an agreement sequence for good: it changes its actor's proposal, or a
#: decision already taken
_BREAKS: dict[tuple[str, str], bool] = {
    (old, new): agreement_state(new)[0] != agreement_state(old)[0]
    or agreement_state(old)[1] not in (None, agreement_state(new)[1])
    for old in AGREEMENT_ALPHABET
    for new in AGREEMENT_ALPHABET
}


class _AgreementMonitor(_Judge):
    """The judge of the two agreement predicates, in O(1) per step.

    Until a row's ``broken`` bit is set, the last row holds every proposal
    and every decision taken, so the predicate's verdict on the whole
    sequence is its verdict on the last row alone, cached per row id in the
    table's ``verdicts``.  After a break both predicates fail, since
    ``undecided`` needs safety too.
    """

    __slots__ = ("verdicts",)

    def __init__(
        self,
        row: int,
        predicate: ProblemPredicate,
        pattern: FailurePattern,
        table: _Rows,
    ):
        super().__init__(row, predicate, pattern, table)
        # both agreement predicates are stateless and read a pattern only
        # through its survivors
        self.verdicts = table.verdicts.setdefault((type(predicate), pattern.correct()), {})

    def classify(self) -> str:
        """'fail' | 'undecided' | 'decided' for the current sequence."""
        if self.broken[-1]:
            return "fail"
        row = self.ids[-1]
        verdict = self.verdicts.get(row)
        if verdict is None:
            verdict = self.verdicts[row] = _verdict(
                self.predicate, (self.table.values[row],), self.pattern
            )
        return verdict


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
    checks, and the mapping half of the per-node slow-path cross-check.

    The walker adds the path's two observable sequences, each in its own
    judge: the wrapper run's in ``judge``, and the mapped run's in
    ``mapped``, one row per step the mapping keeps.  Both judges intern
    their rows in ``rows``, the call's ``_Rows``; ``root_rows`` holds each
    initial-state choice's two root row ids, and each pattern has one pair
    of judges, reset at each family's root.  It also keeps the per-run
    violations the path carries.  A path on which the two last row ids were
    always equal is aligned: it stutter-expands the mapped sequence by
    construction.  Off such paths clause (c) reads ``stutters``, which maps
    each distinct pair of row id sequences to its id and ``is_stutter``
    verdict, so ``is_stutter`` runs once per pair and call.

    ``walk`` accounts a family's root, then each window offset's subtree
    through ``expand``, the walk's one recursive method.  ``examples`` (for
    each of the first ``MAX_RECORDED_FAILURES`` (clause, detail) pairs, the
    document of the first run seen, or ``None`` for a membership clause)
    lasts for the whole call, and so do ``memo`` (see ``expand``),
    ``subtrees``, ``stutters`` and ``contexts``.  ``memo`` is ``None`` for a
    ``thorough`` call, or a judge other than the agreement monitor, the one
    whose verdicts the key's broken bit and states fix; otherwise it serves
    every path.  Window ids come from ``windows``, each a column id and the
    next window's id.
    """

    theorem: str
    fd: FDSpec
    k: int | None = None
    c_clause: str
    d_clause: str
    membership_clause: str
    membership_subject: str

    def __init__(
        self, alg: Algorithm, inits: tuple[tuple[State, ...], ...], max_steps: int,
        base_alg: Algorithm, interp: Interpretation, predicate: ProblemPredicate,
        derived_interp: Interpretation | None, thorough: bool,
    ):
        interp.check_initial_cover(base_alg.initial_states)
        if derived_interp is None:
            derived_interp = self.derive(interp, base_alg)
        self.v_tilde = derived_interp
        self.interp = interp
        super().__init__(alg, max_steps, inits)
        self.base_alg = base_alg
        self.predicate = predicate
        self.thorough = thorough
        self.examples: dict[tuple[str, str], dict | None] = {}
        self.rows = rows = _Rows()
        #: each initial-state choice's root rows: the wrapper run's, the mapped run's
        self.root_rows = [
            (rows(tuple(map(derived_interp.of, range(self.n), init))),
             rows(tuple(interp.of(i, self.mapped_state(q)) for i, q in enumerate(init))))
            for init in inits
        ]
        monitored = _monitored(predicate, derived_interp.sigma)
        self.memo: dict[int, dict[int, _WalkTotals]] | None = (
            {} if monitored and not thorough else None
        )
        #: each distinct subtree record the memo stores, kept once for the call
        self.subtrees: dict[tuple, _WalkTotals] = {}
        self.windows = _Interner()
        #: (mapped row ids, wrapper row ids) -> (pair id, is_stutter verdict)
        self.stutters: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, bool]] = {}
        #: (sticky pairs, pair id) of the paths the plain memo key does not serve
        self.contexts = _Interner()

    def enter(self, pattern: FailurePattern) -> None:
        """Enter a pattern, with one judge per observable sequence."""
        super().enter(pattern)
        self.faulty = pattern.faulty()
        self.mapped_pattern = self.map_pattern(pattern)
        predicate, rows = self.predicate, self.rows
        self.judge = _judge(predicate, self.v_tilde.sigma, 0, pattern, rows)
        self.mapped = _judge(predicate, self.interp.sigma, 0, self.mapped_pattern, rows)

    def enter_history(self, history: History) -> None:
        super().enter_history(history)
        #: (t, remaining) -> the window id of this pattern and history there
        self.window_at: dict[tuple[int, int], int] = {}

    def start(self, history: History, choice: int) -> None:
        """Root the walk at a family, both judges at the choice's root rows."""
        super().start(history, choice)
        row, mapped_row = self.root_rows[choice]
        self.judge.reset(row)
        self.mapped.reset(mapped_row)
        self.init_aligned = row == mapped_row
        #: per-run clause violations carried by the current path
        self.sticky: list[tuple[str, str]] = []

    # -- specialized by subclasses -------------------------------------------

    def mapped_state(self, state: State) -> State:
        """The mapped run's counterpart of an initial state."""
        return state

    def step_violations(self, facts: tuple) -> list[tuple[str, str]]:
        """Clause violations introduced by the step of these facts, read
        once both sequences hold its rows."""
        return []

    def dropped(self, actor: int, pre: State, suspects: frozenset[int]) -> bool:
        """Does the run mapping drop this step?  Read from the step alone,
        because the transitions serve every pattern of the call."""
        raise NotImplementedError

    def step_facts(
        self, actor: int, pre: State, suspects: frozenset[int], post: State
    ) -> tuple[str, str | None]:
        """The step's letter in the wrapper run, and in the mapped run or
        ``None`` when the mapping drops it."""
        shown = self.v_tilde.of(actor, post)
        return shown, None if self.dropped(actor, pre, suspects) else self.interp.of(actor, post)

    def memo_view(self) -> dict | None:
        """The memo to consult at each node, or ``None`` to walk it."""
        return self.memo

    def memo_key(self, t: int, remaining: int, node: int, aligned: bool) -> tuple[int, int]:
        """What fixes the subtree below ``node`` at time ``t``, at most
        ``remaining`` more steps deep: the id of its window with the broken
        bit, and the node with its transit sorted, packed with the path's
        context where the path is not ``aligned`` or carries a violation.

        The window holds the faulty set, which fixes the survivors that the
        verdicts and the stall clauses read, and the columns of times
        ``t .. t+remaining-1``: the crashed sets fix who can step, the cells
        what each step suspects.  Its id chains the column at ``t`` to the
        window of ``(t+1, remaining-1)``, down to the faulty set alone, so
        the length fixes ``remaining``.  Nothing below reads ``t`` or the
        depth: nodes hold messages without the tag that depth sets.

        On an aligned path that carries no violation, the states fix the
        last row and so every later verdict of an unbroken sequence.  The
        mapped judge's row and bit equal the wrapper judge's there: both
        start at equal rows, a dropped step repeats the last row
        (``_BREAKS[x, x]`` is false), and a kept step makes the same letter
        change in both.  Off such paths the context, interned in
        ``contexts``, is the sticky pairs and the id of the two row id
        sequences in ``stutters``.  The sequences fix both last rows, both
        broken bits and, with the rows each step pushes, every later
        ``is_stutter`` verdict; the sticky pairs are what the subtree's
        nodes carry besides their own.  Whether the path is aligned is not
        in the key: where an aligned path's node passes clause (c) by
        construction, ``is_stutter`` holds on its sequences anyway.
        """
        window = self.window_at.get((t, remaining))
        if window is None:
            column_at, end = self.column_at, t + remaining
            window = self.windows((self.set_ids(self.faulty),))
            for s in range(end - 1, t - 1, -1):
                window = self.window_at[s, end - s] = self.windows((column_at[s], window))
        configuration = self.sorted_of[node]
        if not aligned or self.sticky:
            context = self.contexts((tuple(self.sticky), self.stutter(aligned)[0]))
            configuration |= (context + 1) << _NODE_BITS
        return window << 1 | self.judge.broken[-1], configuration

    def stutter(self, aligned: bool) -> tuple[int, bool]:
        """The entry of ``stutters`` for the path's two row id sequences,
        made on its first use: ``is_stutter`` runs once per distinct pair,
        and not for a pair first met on an aligned path, which
        stutter-embeds by construction."""
        key = (tuple(self.mapped.ids), tuple(self.judge.ids))
        entry = self.stutters.get(key)
        if entry is None:
            verdict = aligned or is_stutter(tuple(self.mapped.rows), tuple(self.judge.rows))
            entry = self.stutters[key] = (len(self.stutters), verdict)
        return entry

    def check_mapping(self, run: Run, fast_clauses: set[str]) -> None:
        """Validate the current run's mapped run from scratch and compare
        with the fast path's clause verdicts (thorough)."""
        raise NotImplementedError

    # -- generic walk ---------------------------------------------------------

    def structural_violations(self, mapped: Run, fd: FDSpec) -> list[RunViolation]:
        """Every violation of the mapped run under the wrapped algorithm
        except history membership, which is a clause of its own."""
        report = validate_run(mapped, self.base_alg, fd, ValidationMode.PREFIX_CONSISTENT)
        return [v for v in report.violations if v.condition != "history-membership"]

    def account_node(self, totals: _WalkTotals, aligned: bool) -> None:
        totals.nodes += 1
        violations = self.sticky
        c_ok = aligned or self.stutter(False)[1]
        if not c_ok:
            detail = "observable sequence is not a stutter expansion"
            violations = violations + [(self.c_clause, detail)]
        verdict = self.judge.classify()
        # satisfaction transfers along the mapping; a failing mapped run excuses
        if verdict == "fail":
            if self.mapped.classify() != "fail":
                detail = (
                    "problem predicate rejects the wrapper sequence although "
                    "the mapped run satisfies the problem"
                )
                violations = violations + [(self.d_clause, detail)]
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
        mapped = tuple(self.mapped.rows)
        slow_c = is_stutter(mapped, tuple(self.judge.rows))
        if aligned:
            assert slow_c, "aligned paths must stutter-embed"
        else:
            assert slow_c == c_ok
        slow_verdict = _verdict(self.predicate, tuple(self.judge.rows), self.pattern)
        assert slow_verdict == verdict, f"{slow_verdict} != {verdict}"
        fast_d = any(clause == self.d_clause for clause, _ in violations)
        slow_mapped = _verdict(self.predicate, mapped, self.mapped.pattern)
        fast_mapped = self.mapped.classify()
        assert slow_mapped == fast_mapped, f"mapped run: {slow_mapped} != {fast_mapped}"
        assert fast_d == (slow_verdict == "fail" and slow_mapped != "fail")

    def walk(self, totals: _WalkTotals) -> None:
        """Account the root once, then each window offset's subtree."""
        self.account_node(totals, self.init_aligned)
        for offset, remaining in enumerate(self.budgets):
            self.offset = offset
            self.expand(totals, self.root, offset, remaining, self.init_aligned)

    def expand(self, totals: _WalkTotals, node: int, t: int, remaining: int, aligned: bool) -> None:
        """Account each child of ``node`` at time ``t`` into ``totals``, and
        walk below it while ``remaining``, the steps left, allows another.

        Where ``memo_view`` returns a memo, the subtree is credited from it.
        The memo maps a ``memo_key``'s window id to a table from its
        configuration, packed with the path's context off aligned,
        violation-free paths, to the subtree's ``_WalkTotals``, clause tally
        included, each distinct record kept once in ``subtrees``.  A hit
        adds that record to ``totals``; a miss walks the children into a
        fresh record, stores it, and then adds it.
        """
        into = totals
        memo = self.memo_view()
        if memo is not None:
            window, key = self.memo_key(t, remaining, node, aligned)
            table = memo.get(window)
            if table is None:
                table = memo[window] = {}
            subtree = table.get(key)
            if subtree is not None:
                totals.add(subtree)
                return
            into = _WalkTotals()
        judge, mapped = self.judge, self.mapped
        judge_ids, mapped_ids = judge.ids, mapped.ids
        sticky, path = self.sticky, self.path
        step_violations = self.step_violations
        entries = iter(self.children(node, t, remaining == 1))
        for child, facts in zip(entries, entries):
            actor, _, _, _, shown, mapped_letter = facts
            judge.push(actor, shown)
            if mapped_letter is not None:
                mapped.push(actor, mapped_letter)
            path.append(facts)

            step_viols = step_violations(facts)
            sticky.extend(step_viols)
            child_aligned = aligned and judge_ids[-1] == mapped_ids[-1]
            self.account_node(into, child_aligned)
            if remaining > 1:
                self.expand(into, child, t + 1, remaining - 1, child_aligned)

            if step_viols:
                del sticky[len(sticky) - len(step_viols):]
            path.pop()
            if mapped_letter is not None:
                mapped.pop()
            judge.pop()
        if into is not totals:
            # few distinct records recur under many keys: keep one copy of each
            tally = None if into.tally is None else tuple(into.tally.items())
            record = (into.nodes, into.violations, into.decided, into.undecided, tally)
            subtree = table[key] = self.subtrees.setdefault(record, into)
            totals.add(subtree)


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

    def start(self, history: History, choice: int) -> None:
        super().start(history, choice)
        if not self.init_aligned:
            detail = "derived interpretation disagrees on an initial state"
            self.sticky.append(("sos-b-interpretation-equality", detail))

    def step_violations(self, facts: tuple) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        actor, sent = facts[0], facts[3]
        shown = self.judge.last()[actor]
        # the actor's letter in the stripped run: its last kept state's
        frozen = self.mapped.last()[actor]
        if actor not in self.faulty:
            if shown != frozen:
                detail = (
                    f"process {actor} shows {shown!r} under the derived "
                    f"interpretation but {frozen!r} under the original"
                )
                out.append(("sos-b-interpretation-equality", detail))
            return out
        if sent is not None:
            detail = f"eventually-faulty process {actor} sends a message"
            out.append(("sos-a-stripped-run-valid", detail))
        if shown != frozen:
            detail = f"stalled process {actor} shows {shown!r}, its frozen view shows {frozen!r}"
            out.append(("sos-b-interpretation-equality", detail))
        return out

    def dropped(self, actor: int, pre: State, suspects: frozenset[int]) -> bool:
        # strict M tells a live actor exactly the faulty processes
        return actor in suspects

    def check_mapping(self, run: Run, fast_clauses: set[str]) -> None:
        base_run = None
        try:
            base_run = to_initial_crash_run(strip_faulty_steps(run))
            a_ok = not self.structural_violations(base_run, FDSpec.always_accurate())
        except FdlabError:
            a_ok = False
        assert a_ok == ("sos-a-stripped-run-valid" not in fast_clauses)
        if base_run is not None:
            assert interpret_run(base_run, self.interp) == tuple(self.mapped.rows)

        b_ok = True
        stripped_schedule = tuple(s for s in run.schedule if s.actor not in self.faulty)
        for i in range(self.n):
            wrapper_views = own_state_views(run.init, run.schedule, i)
            base_views = own_state_views(run.init, stripped_schedule, i)
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

    def __init__(self, *args, k: int, time_shift: bool):
        self.k = k
        self.time_shift = time_shift
        self.fd = FDSpec.accurate_after(k + 1)
        super().__init__(*args)

    def map_pattern(self, pattern: FailurePattern) -> FailurePattern:
        return shift_pattern(pattern) if self.time_shift else pattern

    def membership(self, history: History, mapped_pattern: FailurePattern) -> MembershipVerdict:
        shifted = shift_history(history) if self.time_shift else history
        return history_in_pk(shifted, mapped_pattern, self.k)

    def mapped_state(self, state: State) -> State:
        return state.base if isinstance(state, DelayState) else state

    def dropped(self, actor: int, pre: State, suspects: frozenset[int]) -> bool:
        return isinstance(pre, DelayState)

    def check_mapping(self, run: Run, fast_clauses: set[str]) -> None:
        mapped = das_run_mapping(run, time_shift=self.time_shift)
        structural = self.structural_violations(mapped, FDSpec.accurate_after(self.k))
        assert not structural, f"mapped run structurally invalid: {structural}"
        assert interpret_run(mapped, self.interp) == tuple(self.mapped.rows)


def _verify_claim(
    walker_type: type[_TreeWalker], bounds: EnumerationBounds, base_alg: Algorithm, *args, **kw
) -> TheoremReport:
    """Check the preservation claim of ``walker_type`` on every run of its
    wrapped algorithm under its oracle.

    The run space is checked before the walker, built from ``base_alg``,
    ``args`` and ``kw``, serves the whole call.  Per history group, it walks
    the representative once per initial-state choice into one
    ``_WalkTotals``, which the call total adds once per member.

    ``membership`` judges only the representative against the mapped
    pattern, and its verdict is exactly every member's, because both claims'
    mapped memberships read only cells whose observer is live in the
    original pattern, where the members agree.  The stall claim's
    initial-crash pattern constrains only the correct processes.  The delay
    claim's cell ``(p, t)`` of the shifted history is the original cell
    ``(p, min(t+1, horizon))``, and ``p`` is live there exactly when it is
    live at ``t`` in the shifted pattern; unshifted, the pattern is the
    original one.  ``thorough`` judges every member and asserts that each
    verdict is the representative's.

    The report's failures are the call total's first
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
    alg = walker_type.wrap(base_alg)
    patterns, inits, families = _run_space(alg, bounds)
    walker = walker_type(alg, inits, bounds.max_steps, base_alg, *args, **kw)
    totals = _WalkTotals()
    checked_histories = 0

    for pattern in patterns:
        walker.enter(pattern)
        for rep, members in history_groups(walker.fd, pattern, bounds.history_budget):
            checked_histories += len(members)
            verdict = walker.membership(rep, walker.mapped_pattern)
            if walker.thorough:
                for h in members:
                    assert walker.membership(h, walker.mapped_pattern) == verdict
            group = _WalkTotals()
            for choice in range(len(inits)):
                walker.start(rep, choice)
                walker.walk(group)
            totals.add(group, len(members))
            if not verdict.prefix_consistent:
                v = verdict.violations[0]
                pair = (
                    walker.membership_clause,
                    f"{walker.membership_subject} breaks {v.condition} "
                    f"(observer {v.observer}, subject {v.subject}, t={v.time})",
                )
                totals.violations += group.nodes * len(members)
                totals.count(pair, group.nodes * len(members))
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
    return _verify_claim(_SosWalker, bounds, base_alg, interp, predicate, derived_interp, thorough)


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
    so are a horizon of 0, which no accuracy time ``k+1 >= 1`` fits, and a
    ``k`` outside ``0..horizon-1``, for which ``k+1`` leaves the horizon.
    """
    if bounds.horizon < 1:
        raise DomainMismatch("the delay claim needs horizon >= 1 for its accuracy time k+1")
    if not 0 <= k < bounds.horizon:
        raise KOutOfRange(f"stabilization time k={k} outside 0..{bounds.horizon - 1}")
    args = (base_alg, interp, predicate, derived_interp, thorough)
    return _verify_claim(_DasWalker, bounds, *args, k=k, time_shift=time_shift)
