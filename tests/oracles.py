"""Brute-force reference implementations the acceptance tests compare against.

Everything here is deliberately slow and structurally independent of the
library's own algorithms: the stutter oracle explores single-insertion chains
breadth-first instead of using the dynamic program, and the run oracle builds
schedules by unguided syntactic search and keeps whatever ``validate_run``
accepts instead of generating only legal steps (with ``gaps``, at any
increasing step times, to show what the offset sweep covers), and the
solvability scan re-validates and re-interprets every run from scratch
instead of following the schedule tree.  The history references judge and build histories
with the oracle classes as first written, one function per class, build
every candidate variant and re-judge it whole, and group histories by their
values on every live cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterator

from fdlab import (
    Algorithm,
    DomainMismatch,
    EnumerationBounds,
    FailurePattern,
    FDSpec,
    History,
    Interpretation,
    KOutOfRange,
    MembershipVerdict,
    MembershipViolation,
    Message,
    Run,
    Step,
    ValidationMode,
    all_monotone_patterns,
    enumerate_runs,
    init_combinations,
    interpret_run,
    perturbed_histories,
    validate_run,
)
from fdlab.harness import ProbeReport, SolvesReport
from fdlab.model import _sorted_subsets
from fdlab.problems import ProblemPredicate
from fdlab.traces import run_to_doc

Row = tuple[str, ...]
Seq = tuple[Row, ...]


class PlantedTimeDependent(ProblemPredicate):
    """Deliberately broken: the verdict reads the crash time, not the survivor set."""

    name = "planted-time-dependent"
    sigma = frozenset({"0|-", "1|-"})
    sigma_init = frozenset({"0|-", "1|-"})

    def evaluate(self, w, f) -> bool:
        return not f.crashed_at(0)


class PlantedLengthSensitive(ProblemPredicate):
    """Deliberately broken: the verdict reads the sequence length."""

    name = "planted-length-sensitive"
    sigma = frozenset({"0|-", "1|-"})
    sigma_init = frozenset({"0|-", "1|-"})

    def evaluate(self, w, f) -> bool:
        return len(w) % 2 == 0


def one_stutter_successors(w: Seq) -> set[Seq]:
    """Every sequence obtained from ``w`` by inserting one row.

    The inserted row is built componentwise from the neighboring rows of the
    insertion point; at the two ends only one neighbor exists, so the insert
    degenerates to an exact copy of that end row.
    """
    out: set[Seq] = set()
    if not w:
        return out
    width = len(w[0])
    for j in range(len(w) + 1):
        neighbors = [row for row in (w[j - 1] if j > 0 else None, w[j] if j < len(w) else None) if row is not None]
        for mid in product(*({row[i] for row in neighbors} for i in range(width))):
            out.add(w[:j] + (tuple(mid),) + w[j:])
    return out


def stutter_closure(w: Seq, max_len: int) -> set[Seq]:
    """All sequences reachable from ``w`` by repeated insertion, up to
    ``max_len`` rows (including ``w`` itself)."""
    seen = {w}
    frontier = [w]
    while frontier:
        next_frontier = []
        for base in frontier:
            if len(base) >= max_len:
                continue
            for succ in one_stutter_successors(base):
                if succ not in seen:
                    seen.add(succ)
                    next_frontier.append(succ)
        frontier = next_frontier
    return seen


def stutter_chain_oracle(w: Seq, w_prime: Seq) -> bool:
    """Is there a chain of single insertions leading from ``w`` to ``w_prime``?"""
    return w_prime in stutter_closure(w, len(w_prime))


def restricted_growth_strings(length: int, max_values: int) -> Iterator[tuple[int, ...]]:
    """Every sequence over 0..max_values-1 in first-occurrence canonical form:
    it starts with 0 and never jumps past 1 + its running maximum."""
    def extend(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield prefix
            return
        for v in range(min(top + 2, max_values)):
            yield from extend(prefix + (v,), max(top, v))

    if length == 0:
        yield ()
    else:
        yield from extend((), -1)


def canonical_sequence_pairs(
    width: int, alphabet_size: int, len_w: int, len_w_prime: int
) -> Iterator[tuple[Seq, Seq]]:
    """Every (w, w') pair of the given shape, up to renaming letters within a
    column.

    Per column, the letters of w followed by the letters of w' are put in
    first-occurrence canonical form; distinct pairs of sequences that agree
    after such a renaming behave identically under any predicate that only
    compares letters within a column for equality.
    """
    total = len_w + len_w_prime
    columns = list(restricted_growth_strings(total, alphabet_size))
    for chosen in product(columns, repeat=width):
        w = tuple(tuple(str(chosen[i][r]) for i in range(width)) for r in range(len_w))
        w_prime = tuple(
            tuple(str(chosen[i][len_w + r]) for i in range(width))
            for r in range(len_w_prime)
        )
        yield w, w_prime


# ---------------------------------------------------------------------------
# The oracle classes as first written: each class stated per function, the
# cell rule and the canonical history apart.


def _reference_check_shapes(h: History, f: FailurePattern) -> None:
    if h.n != f.n or h.horizon != f.horizon:
        raise DomainMismatch(
            f"history is over {h.n} processes to horizon {h.horizon}, "
            f"pattern over {f.n} to {f.horizon}"
        )


@dataclass(frozen=True)
class _ReferenceCellRule:
    """The safety part of one oracle class on one pattern, one cell at a time:
    may observer ``p`` be told ``v`` at time ``t``?"""

    observers: tuple[frozenset[int], ...]
    forbidden: tuple[frozenset[int], ...]
    required: tuple[frozenset[int], ...]
    forbidden_name: str

    def cell_violations(self, p: int, t: int, value: frozenset[int]) -> list[MembershipViolation]:
        if p not in self.observers[t]:
            return []
        out = [
            MembershipViolation(self.forbidden_name, p, subject, t)
            for subject in sorted(value & self.forbidden[t])
        ]
        out.extend(
            MembershipViolation("foresight-missing", p, subject, t)
            for subject in sorted(self.required[t] - value)
        )
        return out

    def violations(self, h: History) -> list[MembershipViolation]:
        return [
            v
            for t, observers in enumerate(self.observers)
            for p in sorted(observers)
            for v in self.cell_violations(p, t, h.at(p, t))
        ]


def _reference_foresight_rule(f: FailurePattern, strict_live: bool) -> _ReferenceCellRule:
    faulty = f.faulty()
    times = range(f.horizon + 1)
    return _ReferenceCellRule(
        observers=tuple(f.live_at(t) if strict_live else f.correct() for t in times),
        forbidden=tuple(f.correct() for _ in times),
        required=tuple(faulty for _ in times),
        forbidden_name="foresight-spurious",
    )


def _reference_accuracy_rule(f: FailurePattern, k: int, accuracy: str) -> _ReferenceCellRule:
    _reference_check_k(k, f)
    protected_base = f.live_at(k)
    times = range(f.horizon + 1)
    return _ReferenceCellRule(
        observers=tuple(f.live_at(t) for t in times),
        forbidden=tuple(protected_base & f.live_at(t) for t in times),
        required=tuple(frozenset() for _ in times),
        forbidden_name=accuracy,
    )


def reference_history_in_p(h: History, f: FailurePattern) -> MembershipVerdict:
    return _reference_accurate_after(h, f, 0, "accuracy")


def reference_history_in_m(
    h: History, f: FailurePattern, strict_live: bool = True
) -> MembershipVerdict:
    _reference_check_shapes(h, f)
    violations = _reference_foresight_rule(f, strict_live).violations(h)
    ok = not violations
    return MembershipVerdict(ok, ok, tuple(violations))


def reference_history_in_pk(h: History, f: FailurePattern, k: int) -> MembershipVerdict:
    return _reference_accurate_after(h, f, k, "late-accuracy")


def _reference_check_k(k: int, f: FailurePattern) -> None:
    if k < 0 or k > f.horizon:
        raise KOutOfRange(f"stabilization time k={k} outside horizon 0..{f.horizon}")


def _reference_accurate_after(
    h: History, f: FailurePattern, k: int, accuracy: str
) -> MembershipVerdict:
    _reference_check_shapes(h, f)
    prefix = _reference_accuracy_rule(f, k, accuracy).violations(h)
    suffix = [
        MembershipViolation("completeness", observer, subject, f.horizon)
        for observer in sorted(f.correct())
        for subject in sorted(f.faulty())
        if subject not in h.at(observer, f.horizon)
    ]
    return MembershipVerdict(
        prefix_consistent=not prefix,
        horizon_complete=not prefix and not suffix,
        violations=tuple(prefix + suffix),
    )


def reference_history_matches(spec: FDSpec, h: History, f: FailurePattern) -> MembershipVerdict:
    if spec.kind == "P":
        return reference_history_in_p(h, f)
    if spec.kind == "M":
        return reference_history_in_m(h, f, strict_live=spec.marabout_strict_live)
    assert spec.k is not None
    return reference_history_in_pk(h, f, spec.k)


def reference_canonical_history(spec: FDSpec, f: FailurePattern) -> History:
    if spec.kind == "M":
        faulty = f.faulty()
        return History.from_function(f.n, f.horizon, lambda p, t: faulty)
    k = 0 if spec.kind == "P" else spec.k
    assert k is not None
    _reference_check_k(k, f)
    early = f.crashed_at(k)
    return History.from_function(f.n, f.horizon, lambda p, t: f.crashed_at(t) | early)


def reference_perturbed_histories(spec: FDSpec, f: FailurePattern, budget: int) -> list[History]:
    """``perturbed_histories`` by candidate and test: every rewrite of at most
    ``budget`` cells is built, and kept if the whole history is still a safe
    member of the class."""
    if budget < 0:
        raise DomainMismatch(f"negative deviation budget {budget}")
    base = reference_canonical_history(spec, f)
    cells = [(p, t) for p in range(f.n) for t in range(f.horizon + 1)]
    value_pool = _sorted_subsets(f.n)
    out = [base]
    for count in range(1, budget + 1):
        for chosen in combinations(cells, count):
            alternative_sets = [
                [v for v in value_pool if v != base.at(p, t)] for (p, t) in chosen
            ]
            for values in product(*alternative_sets):
                variant = base
                for (p, t), value in zip(chosen, values):
                    variant = variant.with_cell(p, t, value)
                if reference_history_matches(spec, variant, f).prefix_consistent:
                    out.append(variant)
    return out


def reference_history_groups(
    pattern: FailurePattern, histories: list[History]
) -> list[tuple[History, list[History]]]:
    """``history_groups`` of the given histories, keyed by each history's
    values on every live cell."""
    groups: dict[tuple, list[History]] = {}
    order: list[tuple] = []
    for h in histories:
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


def reference_children(
    alg: Algorithm,
    states: tuple,
    transit: tuple[tuple[int, int, str], ...],
    crashed: frozenset[int],
    suspects: tuple[frozenset[int], ...],
) -> list[tuple]:
    """The children of a configuration without message tags (the local
    states and the (sender, receiver, payload) triples in transit, in send
    order) when the crashed set is ``crashed`` and process ``p`` suspects
    ``suspects[p]``, each as (actor, position of the received triple or
    ``None``, post state, sent triple or ``None``, child states, child
    transit).  Order: by actor, then receiving nothing before receiving each
    triple addressed to the actor, in send order."""
    out = []
    for actor in range(alg.n):
        if actor in crashed:
            continue
        options = [None] + [i for i, m in enumerate(transit) if m[1] == actor]
        for position in options:
            heard = None if position is None else (transit[position][0], transit[position][2])
            result = alg.transition(actor, states[actor], heard, suspects[actor])
            if result is None:
                continue
            post, dispatch = result
            sent = None if dispatch is None else (actor, *dispatch)
            rest = [m for i, m in enumerate(transit) if i != position] + [sent] * (sent is not None)
            child_states = states[:actor] + (post,) + states[actor + 1 :]
            out.append((actor, position, post, sent, child_states, tuple(rest)))
    return out


def brute_force_runs(alg: Algorithm, fd: FDSpec, bounds: EnumerationBounds) -> set[Run]:
    """Every candidate run within bounds that ``validate_run`` accepts.

    Candidates are built by picking, at each step, any actor, any pending
    message addressed to it or no receipt, reading the oracle history cell,
    and following the algorithm's transition; times walk every window of
    consecutive points.  No legality knowledge beyond that is used — crashed
    actors, bad receipts, and the rest are offered to the validator and kept
    only if the whole run validates.
    """
    accepted: set[Run] = set()
    inits = init_combinations(alg)
    for pattern in all_monotone_patterns(bounds.n, bounds.horizon):
        for history in perturbed_histories(fd, pattern, bounds.history_budget):
            for init in inits:
                for start in range(bounds.horizon + 1):
                    for schedule, times in _all_schedules(
                        alg, history, init, start, bounds.horizon, bounds.max_steps
                    ):
                        if schedule == () and start > 0:
                            continue
                        run = Run(pattern, history, init, schedule, times)
                        if validate_run(run, alg, fd, bounds.mode).valid:
                            accepted.add(run)
    return accepted


def _all_schedules(
    alg: Algorithm,
    history,
    init: tuple,
    start: int,
    horizon: int,
    max_steps: int,
    gaps: bool = False,
) -> Iterator[tuple[tuple[Step, ...], tuple[int, ...]]]:
    """Depth-first syntactic search over schedules with consecutive times
    from ``start``, or with ``gaps``, at any strictly increasing times from
    ``start`` on."""
    n = alg.n

    def walk(
        states: tuple,
        pending: tuple[Message, ...],
        schedule: tuple[Step, ...],
        times: tuple[int, ...],
    ) -> Iterator[tuple[tuple[Step, ...], tuple[int, ...]]]:
        yield schedule, times
        if len(schedule) >= max_steps:
            return
        first = times[-1] + 1 if times else start
        last = horizon if gaps else min(first, horizon)
        for t, actor in product(range(first, last + 1), range(n)):
            receipts: list[Message | None] = [None] + [
                m for m in pending if m.receiver == actor
            ]
            for received in receipts:
                suspects = history.at(actor, t)
                result = alg.transition(
                    actor,
                    states[actor],
                    received.transmission() if received else None,
                    suspects,
                )
                if result is None:
                    continue
                post, sent = result
                # tags are serial in send order: step index scaled by n, plus
                # the actor, matching the library's numbering byte for byte
                message = (
                    Message(actor, sent[0], sent[1], len(schedule) * n + actor)
                    if sent
                    else None
                )
                step = Step(actor, states[actor], received, suspects, post, message)
                next_pending = tuple(m for m in pending if m is not received) + (
                    (message,) if message else ()
                )
                next_states = states[:actor] + (post,) + states[actor + 1 :]
                yield from walk(next_states, next_pending, schedule + (step,), times + (t,))

    yield from walk(init, (), (), ())


def time_free(run: Run) -> tuple:
    """What a run is without its times: its pattern, its initial states, and
    per step the actor, pre state, received transmission, suspects, post
    state and dispatch."""
    return (
        run.pattern,
        run.init,
        tuple(
            (
                step.actor,
                step.pre,
                None if step.received is None else step.received.transmission(),
                step.suspects,
                step.post,
                None if step.sent is None else (step.sent.receiver, step.sent.payload),
            )
            for step in run.schedule
        ),
    )


def gapped_projections(alg: Algorithm, fd: FDSpec, bounds: EnumerationBounds) -> set[tuple]:
    """The ``time_free`` projection of every prefix-consistent run within
    bounds whose step times are any strictly increasing points up to the
    horizon: candidates from the syntactic search with gaps, kept when
    ``validate_run`` accepts them."""
    patterns = bounds.patterns or all_monotone_patterns(bounds.n, bounds.horizon)
    out: set[tuple] = set()
    for pattern in patterns:
        for history in perturbed_histories(fd, pattern, bounds.history_budget):
            for init in init_combinations(alg):
                for schedule, times in _all_schedules(
                    alg, history, init, 0, bounds.horizon, bounds.max_steps, gaps=True
                ):
                    run = Run(pattern, history, init, schedule, times)
                    if validate_run(run, alg, fd, ValidationMode.PREFIX_CONSISTENT).valid:
                        out.add(time_free(run))
    return out


def reference_fair_verdicts(
    alg: Algorithm,
    fd: FDSpec,
    interp: Interpretation,
    predicate: ProblemPredicate,
    bounds: EnumerationBounds,
) -> Iterator[tuple[Run, str]]:
    """The solvability scan re-derived run by run: every prefix-consistent
    run that ``validate_run`` accepts under strict fairness, interpreted from
    its initial states and judged on the whole observable sequence."""
    interp.check_initial_cover(alg.initial_states)
    lax = replace(bounds, mode=ValidationMode.PREFIX_CONSISTENT, fairness_window=None)
    for run in enumerate_runs(alg, fd, lax):
        report = validate_run(
            run, alg, fd, ValidationMode.STRICT_FAIRNESS, bounds.fairness_window
        )
        if not report.valid:
            continue
        w = interpret_run(run, interp)
        if predicate.evaluate(w, run.pattern):
            yield run, "decided"
        elif predicate.undecided(w, run.pattern):
            yield run, "undecided"
        else:
            yield run, "fail"


def reference_report_docs(
    alg: Algorithm,
    fd: FDSpec,
    interp: Interpretation,
    predicate: ProblemPredicate,
    bounds: EnumerationBounds,
) -> tuple[dict, dict, dict]:
    """What ``check_solves`` without and with ``require_quiescence`` and
    ``counterexample_probe`` report, by ``to_dict()`` without
    ``elapsed_seconds``, computed from one reference scan."""
    strict = replace(bounds, mode=ValidationMode.STRICT_FAIRNESS)
    scan = list(reference_fair_verdicts(alg, fd, interp, predicate, strict))
    header = (alg.name, fd.serialize(), predicate.name, strict.to_dict())
    verdicts = [verdict for _, verdict in scan]
    docs = []
    for failing in ({"fail"}, {"fail", "undecided"}):
        first = next((run for run, verdict in scan if verdict in failing), None)
        violations = sum(verdict in failing for verdict in verdicts)
        report = SolvesReport(
            *header, violations == 0, len(scan), verdicts.count("decided"),
            verdicts.count("undecided"), violations, failing != {"fail"},
            None if first is None else run_to_doc(first, alg), 0.0,
        )
        docs.append(report.to_dict())
    index = next((i for i, (_, verdict) in enumerate(scan) if verdict == "fail"), None)
    found = None if index is None else scan[index][0]
    checked = len(scan) if index is None else index + 1
    detail = (
        f"no violation among {checked} fair runs"
        if found is None
        else f"run #{checked} violates {predicate.name}"
    )
    probe = ProbeReport(
        *header, found is not None, found, None if found is None else run_to_doc(found, alg),
        detail, checked, 0.0,
    )
    docs.append(probe.to_dict())
    for doc in docs:
        del doc["elapsed_seconds"]
    return docs[0], docs[1], docs[2]
