"""Brute-force reference implementations the acceptance tests compare against.

Everything here is deliberately slow and structurally independent of the
library's own algorithms: the stutter oracle explores single-insertion chains
breadth-first instead of using the dynamic program, and the run oracle builds
schedules by unguided syntactic search and keeps whatever ``validate_run``
accepts instead of generating only legal steps, and the solvability scan
re-validates and re-interprets every run from scratch instead of following
the schedule tree.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Iterator

from fdlab import (
    Algorithm,
    EnumerationBounds,
    FDSpec,
    Interpretation,
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
) -> Iterator[tuple[tuple[Step, ...], tuple[int, ...]]]:
    """Depth-first syntactic search over schedules with consecutive times."""
    n = alg.n

    def walk(
        states: tuple,
        pending: tuple[Message, ...],
        schedule: tuple[Step, ...],
        times: tuple[int, ...],
    ) -> Iterator[tuple[tuple[Step, ...], tuple[int, ...]]]:
        yield schedule, times
        t = start + len(schedule)
        if len(schedule) >= max_steps or t > horizon:
            return
        for actor in range(n):
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
    lax = replace(bounds, mode=ValidationMode.PREFIX_CONSISTENT)
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
