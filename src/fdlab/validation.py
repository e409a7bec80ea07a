"""Whole-run validation against an algorithm, an oracle class, and a pattern.

Two validation modes exist.  ``PREFIX_CONSISTENT`` checks every safety
condition: every process starts in one of its initial states, crashed
processes take no steps, oracle outputs match the history,
messages are received at most once and only after being sent, states chain
correctly, every step is an actual transition of the algorithm, and the
history is a safe member of the oracle class.  ``STRICT_FAIRNESS``
additionally demands the liveness debts a finite run can discharge: every
message addressed to a surviving process is received within the run, and
every surviving process steps at least once in every time window of the
configured length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator

from .detectors import FDSpec, history_matches
from .errors import DomainMismatch
from .model import Algorithm, Message, Run

__all__ = [
    "ValidationMode",
    "RunViolation",
    "ValidityReport",
    "validate_run",
]


class ValidationMode(enum.Enum):
    """How much a finite run is required to prove about liveness."""

    PREFIX_CONSISTENT = "prefix-consistent"
    STRICT_FAIRNESS = "strict-fairness"


@dataclass(frozen=True)
class RunViolation:
    """One broken validity condition, tied to a step where applicable."""

    condition: str
    step_index: int | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "step_index": self.step_index,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[RunViolation, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [v.to_dict() for v in self.violations],
        }


def validate_run(
    run: Run,
    alg: Algorithm,
    fd: FDSpec,
    mode: ValidationMode = ValidationMode.PREFIX_CONSISTENT,
    fairness_window: int | None = None,
) -> ValidityReport:
    """Check every validity condition and report all violations found.

    Raises :class:`DomainMismatch` if the run and the algorithm disagree on
    the process set, or if a given fairness window is not positive, in any
    mode; everything else is reported, not raised.
    """
    if alg.n != run.n:
        raise DomainMismatch(f"algorithm is over {alg.n} processes, run over {run.n}")
    if fairness_window is not None and fairness_window < 1:
        raise DomainMismatch(f"fairness window must be positive, got {fairness_window}")
    violations = [
        RunViolation("non-initial-state", None, f"process {p} starts in {q!r}, not initial")
        for p, q in enumerate(run.init)
        if q not in alg.initial_states(p)
    ]
    horizon = run.horizon

    previous_time: int | None = None
    for index, t in enumerate(run.times):
        if not 0 <= t <= horizon:
            violations.append(
                RunViolation("time-range", index, f"time {t} outside 0..{horizon}")
            )
        if previous_time is not None and t <= previous_time:
            violations.append(
                RunViolation(
                    "time-order", index, f"time {t} does not increase past {previous_time}"
                )
            )
        previous_time = t

    current = {p: run.init[p] for p in range(run.n)}
    stepped: set[int] = set()
    sent_messages: dict[Message, int] = {}
    consumed: set[Message] = set()
    used_tags: set[int] = set()

    for index, (step, t) in enumerate(zip(run.schedule, run.times)):
        p = step.actor
        if not 0 <= p < run.n:
            violations.append(RunViolation("actor-range", index, f"no process {p}"))
            continue
        if 0 <= t <= horizon and p in run.pattern.crashed_at(t):
            violations.append(
                RunViolation("actor-crashed", index, f"process {p} is crashed at time {t}")
            )
        if 0 <= t <= horizon and step.suspects != run.history.at(p, t):
            violations.append(
                RunViolation(
                    "oracle-mismatch",
                    index,
                    f"step reads {sorted(step.suspects)}, history cell ({p}, {t}) is "
                    f"{sorted(run.history.at(p, t))}",
                )
            )
        if step.received is not None:
            m = step.received
            if m.receiver != p:
                violations.append(
                    RunViolation(
                        "misdelivered-receive",
                        index,
                        f"process {p} receives a message addressed to {m.receiver}",
                    )
                )
            if m not in sent_messages or sent_messages[m] >= index:
                violations.append(
                    RunViolation("spurious-receive", index, f"{m} was never sent earlier")
                )
            elif m in consumed:
                violations.append(
                    RunViolation("duplicate-receive", index, f"{m} was already received")
                )
            consumed.add(m)
        expected_pre = current[p]
        if step.pre != expected_pre:
            condition = "state-discontinuity" if p in stepped else "initial-state-mismatch"
            violations.append(
                RunViolation(
                    condition,
                    index,
                    f"process {p} is in {expected_pre!r}, step expects {step.pre!r}",
                )
            )
        result = alg.transition(p, step.pre, step.received_transmission(), step.suspects)
        if result is None:
            violations.append(
                RunViolation(
                    "no-such-transition",
                    index,
                    f"algorithm has no step from {step.pre!r} with this receipt and oracle output",
                )
            )
        elif result != (step.post, step.sent_transmission()):
            violations.append(
                RunViolation(
                    "transition-mismatch",
                    index,
                    f"algorithm prescribes {result!r}, step records "
                    f"{(step.post, step.sent_transmission())!r}",
                )
            )
        if step.sent is not None:
            m = step.sent
            if m.sender != p:
                violations.append(
                    RunViolation(
                        "sender-mismatch", index, f"process {p} sends on behalf of {m.sender}"
                    )
                )
            if m.tag in used_tags:
                violations.append(
                    RunViolation("duplicate-tag", index, f"message tag {m.tag} reused")
                )
            used_tags.add(m.tag)
            sent_messages[m] = index
        current[p] = step.post
        stepped.add(p)

    membership = history_matches(fd, run.history, run.pattern)
    if not membership.prefix_consistent:
        for v in membership.violations:
            violations.append(
                RunViolation(
                    "history-membership",
                    None,
                    f"{v.condition}: observer {v.observer} about {v.subject} at time {v.time}",
                )
            )

    if mode is ValidationMode.STRICT_FAIRNESS:
        sent = sorted(sent_messages, key=lambda m: m.tag)
        violations.extend(_liveness_debts(run, sent, consumed, fairness_window))

    return ValidityReport(valid=not violations, violations=tuple(violations))


def _liveness_debts(
    run: Run,
    sent: Iterable[Message],
    consumed: Container[Message],
    fairness_window: int | None,
) -> Iterator[RunViolation]:
    """The strict-fairness debts of a whole run.  The enumerator keeps the
    same debts step by step as it walks (``harness._ScheduleTree.fair_runs``).

    ``sent`` lists the run's sent messages in tag order, ``consumed`` holds
    the received ones.  First every message to a survivor never received,
    then every survivor idle for ``fairness_window`` time points (default:
    the whole run).
    """
    window = fairness_window if fairness_window is not None else run.horizon + 1
    correct = run.pattern.correct()
    for m in sent:
        if m not in consumed and m.receiver in correct:
            yield RunViolation(
                "undelivered-message",
                None,
                f"message {m.tag} to surviving process {m.receiver} never received",
            )
    for p in sorted(correct):
        # the longest stretch of time points without a step of p
        times = [-1] + [t for step, t in zip(run.schedule, run.times) if step.actor == p]
        gaps = max(b - a - 1 for a, b in zip(times, times[1:] + [run.horizon + 1]))
        if gaps >= window:
            yield RunViolation(
                "fairness-gap",
                None,
                f"surviving process {p} has a {gaps}-point stretch without a step "
                f"(window {window})",
            )
