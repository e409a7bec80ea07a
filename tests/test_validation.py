"""Whole-run validation: every condition fires on a targeted mutation."""

from __future__ import annotations

import dataclasses

import pytest

from fdlab import (
    DomainMismatch,
    EnumerationBounds,
    FDSpec,
    Message,
    Run,
    Step,
    ValidationMode,
    builtin_algorithm,
    enumerate_runs,
    validate_run,
)

ALG, _, _ = builtin_algorithm("flood-consensus-p", 2)
FD = FDSpec.always_accurate()
BOUNDS = EnumerationBounds(n=2, horizon=3, max_steps=4, history_budget=0)


def conditions(run: Run, mode: ValidationMode = ValidationMode.PREFIX_CONSISTENT, **kw) -> set[str]:
    report = validate_run(run, ALG, FD, mode, **kw)
    return {v.condition for v in report.violations}


@pytest.fixture(scope="module")
def rich_run() -> Run:
    """A crash-free run containing a send and a matching receive."""
    for run in enumerate_runs(ALG, FD, BOUNDS):
        has_receive = any(s.received is not None for s in run.schedule)
        if (
            has_receive
            and not run.pattern.faulty()
            and len(run.schedule) >= 3
            and run.times[-1] + 1 <= run.horizon
        ):
            return run
    raise AssertionError("no suitable run within bounds")


def replace_step(run: Run, index: int, **changes) -> Run:
    step = dataclasses.replace(run.schedule[index], **changes)
    schedule = run.schedule[:index] + (step,) + run.schedule[index + 1 :]
    return dataclasses.replace(run, schedule=schedule)


class TestAcceptsValidRuns:
    def test_enumerated_runs_all_validate(self) -> None:
        count = 0
        for run in enumerate_runs(ALG, FD, BOUNDS):
            report = validate_run(run, ALG, FD)
            assert report.valid, report.violations
            count += 1
        assert count > 1000

    def test_process_count_mismatch_raises(self, rich_run: Run) -> None:
        other, _, _ = builtin_algorithm("flood-consensus-p", 3)
        with pytest.raises(DomainMismatch):
            validate_run(rich_run, other, FD)


class TestTimeConditions:
    def test_time_out_of_range(self, rich_run: Run) -> None:
        bad = dataclasses.replace(rich_run, times=(99,) + rich_run.times[1:])
        assert "time-range" in conditions(bad)

    def test_times_must_increase(self, rich_run: Run) -> None:
        t0 = rich_run.times[0]
        bad = dataclasses.replace(rich_run, times=(t0, t0) + rich_run.times[2:])
        assert "time-order" in conditions(bad)


class TestStepConditions:
    def test_dead_actor(self, rich_run: Run) -> None:
        actor = rich_run.schedule[0].actor
        t0 = rich_run.times[0]
        crashed = tuple(
            frozenset({actor}) if t >= t0 else frozenset()
            for t in range(rich_run.horizon + 1)
        )
        bad = dataclasses.replace(
            rich_run, pattern=dataclasses.replace(rich_run.pattern, crashed=crashed)
        )
        assert "actor-crashed" in conditions(bad)

    def test_actor_out_of_range(self, rich_run: Run) -> None:
        bad = replace_step(rich_run, 0, actor=7)
        assert "actor-range" in conditions(bad)

    def test_oracle_mismatch(self, rich_run: Run) -> None:
        step = rich_run.schedule[0]
        bad = replace_step(rich_run, 0, suspects=step.suspects ^ {1 - step.actor})
        assert "oracle-mismatch" in conditions(bad)

    def test_spurious_receive(self, rich_run: Run) -> None:
        step = rich_run.schedule[0]
        ghost = Message(1 - step.actor, step.actor, "0", 71)
        post, sent_t = ALG.transition(
            step.actor, step.pre, ghost.transmission(), step.suspects
        )
        sent = None if sent_t is None else Message(step.actor, sent_t[0], sent_t[1], 72)
        bad = replace_step(rich_run, 0, received=ghost, post=post, sent=sent)
        assert "spurious-receive" in conditions(bad)

    def test_duplicate_receive(self, rich_run: Run) -> None:
        index, step = next(
            (i, s) for i, s in enumerate(rich_run.schedule) if s.received is not None
        )
        extra_time = rich_run.times[-1] + 1
        assert extra_time <= rich_run.horizon
        pre = next(
            s.post for s in reversed(rich_run.schedule) if s.actor == step.actor
        )
        result = ALG.transition(
            step.actor, pre, step.received.transmission(), rich_run.history.at(step.actor, extra_time)
        )
        post, sent_t = result
        dup = Step(
            step.actor,
            pre,
            step.received,
            rich_run.history.at(step.actor, extra_time),
            post,
            None if sent_t is None else Message(step.actor, sent_t[0], sent_t[1], 73),
        )
        bad = dataclasses.replace(
            rich_run,
            schedule=rich_run.schedule + (dup,),
            times=rich_run.times + (extra_time,),
        )
        assert "duplicate-receive" in conditions(bad)

    def test_misdelivered_receive(self, rich_run: Run) -> None:
        index, step = next(
            (i, s) for i, s in enumerate(rich_run.schedule) if s.received is not None
        )
        stray = step.received._replace(receiver=1 - step.actor)
        bad = replace_step(rich_run, index, received=stray)
        assert "misdelivered-receive" in conditions(bad)

    def test_state_discontinuity_and_initial_mismatch(self, rich_run: Run) -> None:
        actor0 = rich_run.schedule[0].actor
        wrong = ALG.initial_states(actor0)[1]
        if wrong == rich_run.schedule[0].pre:
            wrong = ALG.initial_states(actor0)[0]
        post, sent_t = ALG.transition(actor0, wrong, None, rich_run.schedule[0].suspects)
        bad = replace_step(
            rich_run,
            0,
            pre=wrong,
            received=None,
            post=post,
            sent=None if sent_t is None else Message(actor0, sent_t[0], sent_t[1], 74),
        )
        tags = conditions(bad)
        assert "initial-state-mismatch" in tags
        later = [
            i
            for i, s in enumerate(rich_run.schedule)
            if i > 0 and any(p.actor == s.actor for p in rich_run.schedule[:i])
        ]
        if later:
            i = later[0]
            s = rich_run.schedule[i]
            bad2 = replace_step(rich_run, i, pre=wrong if s.actor == actor0 else s.pre)
            if s.actor == actor0:
                assert "state-discontinuity" in conditions(bad2)

    def test_transition_mismatch(self, rich_run: Run) -> None:
        step = rich_run.schedule[0]
        other_init = ALG.initial_states(step.actor)[1]
        if other_init == step.post:
            other_init = ALG.initial_states(step.actor)[0]
        bad = replace_step(rich_run, 0, post=other_init)
        assert "transition-mismatch" in conditions(bad)

    def test_no_such_transition(self, rich_run: Run) -> None:
        step = rich_run.schedule[0]
        bad = replace_step(rich_run, 0, pre="not-a-state", post="not-a-state")
        assert "no-such-transition" in conditions(bad)

    def test_sender_mismatch_and_duplicate_tag(self, rich_run: Run) -> None:
        index, step = next(
            (i, s) for i, s in enumerate(rich_run.schedule) if s.sent is not None
        )
        forged = step.sent._replace(sender=1 - step.actor)
        assert "sender-mismatch" in conditions(replace_step(rich_run, index, sent=forged))
        sends = [i for i, s in enumerate(rich_run.schedule) if s.sent is not None]
        if len(sends) >= 2:
            a, b = sends[0], sends[1]
            clone = rich_run.schedule[b].sent._replace(tag=rich_run.schedule[a].sent.tag)
            assert "duplicate-tag" in conditions(replace_step(rich_run, b, sent=clone))


class TestHistoryMembership:
    def test_unsafe_history_is_flagged(self, rich_run: Run) -> None:
        h = rich_run.history.with_cell(0, rich_run.horizon, {1})
        bad = dataclasses.replace(rich_run, history=h)
        report = validate_run(bad, ALG, FD)
        tags = {v.condition for v in report.violations}
        assert "history-membership" in tags


class TestStrictFairness:
    def test_undelivered_message_to_survivor(self, rich_run: Run) -> None:
        first_send = next(i for i, s in enumerate(rich_run.schedule) if s.sent is not None)
        prefix = rich_run.schedule[: first_send + 1]
        bad = dataclasses.replace(
            rich_run, schedule=prefix, times=rich_run.times[: first_send + 1]
        )
        assert "undelivered-message" in conditions(bad, ValidationMode.STRICT_FAIRNESS)

    def test_fairness_gap_with_tight_window(self, rich_run: Run) -> None:
        lazy = 1 - rich_run.schedule[0].actor
        only_first = tuple(
            (s, t) for s, t in zip(rich_run.schedule, rich_run.times) if s.actor != lazy
        )
        bad = dataclasses.replace(
            rich_run,
            schedule=tuple(s for s, _ in only_first),
            times=tuple(t for _, t in only_first),
        )
        tags = conditions(bad, ValidationMode.STRICT_FAIRNESS, fairness_window=1)
        assert "fairness-gap" in tags or "undelivered-message" in tags

    def test_window_must_be_positive(self, rich_run: Run) -> None:
        with pytest.raises(DomainMismatch):
            validate_run(
                rich_run, ALG, FD, ValidationMode.STRICT_FAIRNESS, fairness_window=0
            )

    def test_window_needs_strict_mode(self, rich_run: Run) -> None:
        """Prefix-consistent mode reads no fairness window, so one is refused
        rather than ignored."""
        with pytest.raises(DomainMismatch, match="fairness window"):
            validate_run(rich_run, ALG, FD, ValidationMode.PREFIX_CONSISTENT, fairness_window=1)

    @pytest.mark.parametrize("mode", list(ValidationMode), ids=lambda mode: mode.value)
    def test_window_is_refused_in_every_mode(self, rich_run: Run, mode) -> None:
        for window in (0, -1):
            with pytest.raises(DomainMismatch, match="fairness window"):
                validate_run(rich_run, ALG, FD, mode, fairness_window=window)


class TestInitialStates:
    def test_each_non_initial_state_is_flagged_once(self, rich_run: Run) -> None:
        """A run starts every process in one of its initial states; each
        process that does not is one violation, tied to no step."""
        empty = dataclasses.replace(rich_run, schedule=(), times=())
        assert validate_run(empty, ALG, FD).valid
        later = tuple(
            next(q for q in ALG.reachable_states(p) if q not in ALG.initial_states(p))
            for p in range(ALG.n)
        )
        for init, processes in (((later[0], empty.init[1]), [0]), (later, [0, 1])):
            report = validate_run(dataclasses.replace(empty, init=init), ALG, FD)
            assert [(v.condition, v.step_index) for v in report.violations] == [
                ("non-initial-state", None)
            ] * len(processes)
            for p, v in zip(processes, report.violations):
                assert v.detail.startswith(f"process {p} starts in")
