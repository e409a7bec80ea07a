"""Core model objects: patterns, histories, steps, runs, configurations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from fdlab import (
    Configuration,
    DomainMismatch,
    FailurePattern,
    History,
    Message,
    MismatchedPreState,
    NoSuchInTransitMessage,
    Step,
    apply_step,
    builtin_algorithm,
    project_schedule,
)
from fdlab.model import config_sequence, own_state_views


def crash_times_strategy(n: int, horizon: int):
    choice = st.one_of(st.none(), st.integers(min_value=0, max_value=horizon))
    return st.fixed_dictionaries({p: choice for p in range(n)}).map(
        lambda d: {p: t for p, t in d.items() if t is not None}
    )


class TestFailurePattern:
    def test_from_crash_times_round_trips(self) -> None:
        f = FailurePattern.from_crash_times(3, 4, {1: 2})
        assert f.crash_time(1) == 2
        assert f.crash_time(0) is None
        assert f.crashed_at(1) == frozenset()
        assert f.crashed_at(2) == frozenset({1})
        assert f.live_at(2) == frozenset({0, 2})
        assert f.faulty() == frozenset({1})
        assert f.correct() == frozenset({0, 2})

    def test_rejects_recovery(self) -> None:
        with pytest.raises(DomainMismatch):
            FailurePattern(2, 1, (frozenset({0}), frozenset()))

    def test_rejects_empty_process_set(self) -> None:
        with pytest.raises(DomainMismatch):
            FailurePattern(0, 1, (frozenset(), frozenset()))

    @settings(max_examples=50, deadline=None)
    @given(crash_times_strategy(3, 4))
    def test_monotone_and_consistent(self, crash_times: dict[int, int]) -> None:
        f = FailurePattern.from_crash_times(3, 4, crash_times)
        for t in range(4):
            assert f.crashed_at(t) <= f.crashed_at(t + 1)
        assert f.faulty() == f.crashed_at(4)
        assert f.correct() == frozenset(range(3)) - f.faulty()
        for p in range(3):
            assert f.crash_time(p) == crash_times.get(p)


class TestHistory:
    def test_from_function_and_cells(self) -> None:
        h = History.from_function(2, 2, lambda p, t: frozenset({p}) if t else frozenset())
        assert h.at(0, 0) == frozenset()
        assert h.at(1, 2) == frozenset({1})

    def test_with_cell_is_functional(self) -> None:
        h = History.from_function(2, 1, lambda p, t: frozenset())
        h2 = h.with_cell(1, 0, {0})
        assert h.at(1, 0) == frozenset()
        assert h2.at(1, 0) == frozenset({0})
        assert h2.at(0, 0) == frozenset()

    def test_with_cells_rewrites_at_once_and_checks_what_it_rewrites(self) -> None:
        h = History.from_function(2, 1, lambda p, t: frozenset())
        h2 = h.with_cells((((0, 1), {1}), ((1, 0), {0, 1})))
        rows = ((frozenset(), frozenset({1})), (frozenset({0, 1}), frozenset()))
        assert h2 == History(2, 1, rows)
        assert h.with_cells(()) == h
        for cell in ((2, 0), (0, 2), (-1, 0)):
            with pytest.raises(DomainMismatch, match="no cell"):
                h.with_cells(((cell, {0}),))
        with pytest.raises(DomainMismatch, match="unknown processes"):
            h.with_cell(0, 0, {2})


class TestStepApplication:
    def setup_method(self) -> None:
        self.alg, _, _ = builtin_algorithm("flood-consensus-p", 2)
        self.init = (self.alg.initial_states(0)[1], self.alg.initial_states(1)[0])

    def first_step(self) -> Step:
        post, sent = self.alg.transition(0, self.init[0], None, frozenset())
        message = Message(0, sent[0], sent[1], 0)
        return Step(0, self.init[0], None, frozenset(), post, message)

    def test_apply_step_moves_state_and_transit(self) -> None:
        config = Configuration(self.init, frozenset())
        step = self.first_step()
        after = apply_step(config, step)
        assert after.states[0] == step.post
        assert after.states[1] == self.init[1]
        assert after.in_transit == frozenset({step.sent})

    def test_apply_step_rejects_wrong_pre_state(self) -> None:
        config = Configuration((self.init[0], self.init[0]), frozenset())
        step = self.first_step()
        bad = Step(1, self.init[1], None, frozenset(), self.init[1], None)
        with pytest.raises(MismatchedPreState):
            apply_step(config, bad)
        apply_step(config, step)

    def test_apply_step_rejects_phantom_receive(self) -> None:
        config = Configuration(self.init, frozenset())
        ghost = Message(1, 0, "0", 99)
        post, _ = self.alg.transition(0, self.init[0], ghost.transmission(), frozenset())
        step = Step(0, self.init[0], ghost, frozenset(), post, None)
        with pytest.raises(NoSuchInTransitMessage):
            apply_step(config, step)

    def test_config_sequence_prefix_structure(self) -> None:
        step = self.first_step()
        configs = config_sequence(self.init, (step,))
        assert len(configs) == 2
        assert configs[0].states == self.init
        assert configs[1].states[0] == step.post

    def test_transmission_views(self) -> None:
        step = self.first_step()
        assert step.sent_transmission() == (step.sent.receiver, step.sent.payload)
        assert step.received_transmission() is None
        assert step.sent.transmission() == (step.sent.sender, step.sent.payload)


class TestProjections:
    def test_project_schedule_filters_by_actor(self) -> None:
        alg, _, _ = builtin_algorithm("flood-consensus-p", 2)
        init = tuple(alg.initial_states(i)[0] for i in range(2))
        post0, sent0 = alg.transition(0, init[0], None, frozenset())
        step0 = Step(0, init[0], None, frozenset(), post0, Message(0, 1, sent0[1], 0))
        post1, sent1 = alg.transition(1, init[1], None, frozenset())
        step1 = Step(1, init[1], None, frozenset(), post1, Message(1, 0, sent1[1], 3))
        assert project_schedule((step0, step1), 0) == (step0,)
        assert project_schedule((step0, step1), 1) == (step1,)

    def test_own_state_views(self) -> None:
        alg, _, _ = builtin_algorithm("flood-consensus-p", 2)
        init = tuple(alg.initial_states(i)[0] for i in range(2))
        post0, sent0 = alg.transition(0, init[0], None, frozenset())
        step0 = Step(0, init[0], None, frozenset(), post0, Message(0, 1, sent0[1], 0))
        views = own_state_views(init, (step0,), 0)
        assert views == (init[0], post0)
        assert own_state_views(init, (step0,), 1) == (init[1],)


class TestRunShape:
    def test_mismatched_lengths_rejected(self) -> None:
        from fdlab import Run

        f = FailurePattern.from_crash_times(1, 1, {})
        h = History.from_function(1, 1, lambda p, t: frozenset())
        alg, _, _ = builtin_algorithm("flood-consensus-p", 1)
        init = (alg.initial_states(0)[0],)
        with pytest.raises(DomainMismatch):
            Run(f, h, init, (), (0,))

    def test_pattern_history_shape_must_agree(self) -> None:
        from fdlab import Run

        f = FailurePattern.from_crash_times(1, 1, {})
        h = History.from_function(1, 2, lambda p, t: frozenset())
        alg, _, _ = builtin_algorithm("flood-consensus-p", 1)
        with pytest.raises(DomainMismatch):
            Run(f, h, (alg.initial_states(0)[0],), (), ())
