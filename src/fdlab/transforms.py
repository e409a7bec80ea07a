"""Algorithm transformations and the run mappings that accompany them.

Two wrappers are provided.  The stall wrapper makes a process that finds
itself in its own suspect set, while still in an initial state, step into an
absorbing silent state: it never sends or changes observable value again,
though it may still drain messages addressed to it.  The delay wrapper makes
every process spend its first step on a no-op before running the wrapped
algorithm unchanged.

The run mappings translate executions of a wrapped algorithm back into
executions of the wrapped one: stripping the steps of eventually-faulty
processes (for the stall wrapper) and dropping the leading no-ops while
advancing the clock (for the delay wrapper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .detectors import initial_crash_scenario, shift_history, shift_pattern
from .errors import (
    FaultyStepPresent,
    MissingNoOpPrefix,
    NonPositiveTime,
    NotSoSRun,
)
from .model import Algorithm, Run, State, Transmission
from .problems import Interpretation

__all__ = [
    "StallState",
    "DelayState",
    "StallOnSuspect",
    "DelayAStep",
    "stall_on_suspect",
    "delay_a_step",
    "derive_interpretation_sos",
    "derive_interpretation_das",
    "strip_faulty_steps",
    "to_initial_crash_run",
    "das_run_mapping",
]


@dataclass(frozen=True)
class StallState:
    """The absorbing silent state entered from the wrapped initial state."""

    base: Hashable


@dataclass(frozen=True)
class DelayState:
    """The pre-start state holding a wrapped initial state for one no-op."""

    base: Hashable


class _Wrapper(Algorithm):
    """What both wrappers share: the wrapped algorithm's payloads, and a wire
    form ``<prefix>(<wrapped state>)`` for the one state type they add."""

    suffix: str
    prefix: str
    state_type: type

    def __init__(self, base: Algorithm):
        self.base = base
        self.name = f"{base.name}+{self.suffix}"
        self.n = base.n

    def payload_alphabet(self, i: int) -> tuple[str, ...]:
        return self.base.payload_alphabet(i)

    def state_str(self, state: State) -> str:
        if isinstance(state, self.state_type):
            return f"{self.prefix}({self.base.state_str(state.base)})"
        return self.base.state_str(state)

    def parse_state(self, text: str) -> State:
        if text.startswith(f"{self.prefix}(") and text.endswith(")"):
            return self.state_type(self.base.parse_state(text[len(self.prefix) + 1 : -1]))
        return self.base.parse_state(text)


class StallOnSuspect(_Wrapper):
    """Wrap an algorithm so self-suspecting processes go silent immediately.

    From an initial state whose oracle output contains the process itself,
    the only step receives nothing and moves to the stall state.  Stall
    states self-loop and never send; they may receive (and ignore) messages.
    All other behavior is the wrapped algorithm's, unchanged.
    """

    suffix, prefix, state_type = "sos", "stall", StallState

    def __init__(self, base: Algorithm):
        super().__init__(base)
        self._initial_sets = tuple(
            frozenset(base.initial_states(i)) for i in range(base.n)
        )

    def initial_states(self, i: int) -> tuple[State, ...]:
        return self.base.initial_states(i)

    def transition(
        self, i: int, state: State, received: Transmission | None, suspects: frozenset[int]
    ) -> tuple[State, Transmission | None] | None:
        if isinstance(state, StallState):
            return (state, None)
        if i in suspects and state in self._initial_sets[i]:
            if received is not None:
                return None
            return (StallState(state), None)
        return self.base.transition(i, state, received, suspects)


class DelayAStep(_Wrapper):
    """Wrap an algorithm so every process starts with one silent no-op step."""

    suffix, prefix, state_type = "das", "delay", DelayState

    def initial_states(self, i: int) -> tuple[State, ...]:
        return tuple(DelayState(q) for q in self.base.initial_states(i))

    def transition(
        self, i: int, state: State, received: Transmission | None, suspects: frozenset[int]
    ) -> tuple[State, Transmission | None] | None:
        if isinstance(state, DelayState):
            if received is not None:
                return None
            return (state.base, None)
        return self.base.transition(i, state, received, suspects)


def stall_on_suspect(alg: Algorithm) -> StallOnSuspect:
    return StallOnSuspect(alg)


def delay_a_step(alg: Algorithm) -> DelayAStep:
    return DelayAStep(alg)


def derive_interpretation_sos(interp: Interpretation, base: Algorithm) -> Interpretation:
    """Extend an interpretation of the wrapped algorithm to its stall wrapper.

    Each stall state shows the same observable letter as the initial state it
    was entered from, so going silent is observably a pause, not a change.
    """
    return _hold_initial_letters(interp, base, StallState)


def derive_interpretation_das(interp: Interpretation, base: Algorithm) -> Interpretation:
    """Extend an interpretation of the wrapped algorithm to its delay wrapper.

    Each delay state shows the letter of the initial state it holds, so the
    leading no-op is observably a pause.
    """
    return _hold_initial_letters(interp, base, DelayState)


def _hold_initial_letters(interp: Interpretation, base: Algorithm, holder: type) -> Interpretation:
    """Map ``holder(q)`` to the letter of each initial state ``q``."""
    maps = []
    for i in range(base.n):
        extended = dict(interp.maps[i])
        for q in base.initial_states(i):
            extended[holder(q)] = interp.of(i, q)
        maps.append(extended)
    return Interpretation(tuple(maps), interp.sigma, interp.sigma_init)


def strip_faulty_steps(run: Run) -> Run:
    """Drop every step taken by an eventually-faulty process.

    Sound only when those steps are silent: raises :class:`NotSoSRun` if a
    dropped step sent a message some surviving step might depend on.
    """
    faulty = run.pattern.faulty()
    schedule = []
    times = []
    for step, t in zip(run.schedule, run.times):
        if step.actor in faulty:
            if step.sent is not None:
                raise NotSoSRun(
                    f"step of eventually-faulty process {step.actor} at time {t} "
                    f"sends a message"
                )
            continue
        schedule.append(step)
        times.append(t)
    return Run(run.pattern, run.history, run.init, tuple(schedule), tuple(times))


def to_initial_crash_run(run: Run) -> Run:
    """Re-home a run onto the pattern where every faulty process is down from
    time 0.  Requires the faulty processes to take no steps."""
    faulty = run.pattern.faulty()
    for step, t in zip(run.schedule, run.times):
        if step.actor in faulty:
            raise FaultyStepPresent(
                f"eventually-faulty process {step.actor} still steps at time {t}"
            )
    return Run(
        initial_crash_scenario(run.pattern),
        run.history,
        run.init,
        run.schedule,
        run.times,
    )


def das_run_mapping(run: Run, time_shift: bool = True) -> Run:
    """Translate a run of the delay wrapper into a run of the wrapped algorithm.

    Drops each process's leading no-op, unwraps the initial states, moves
    every remaining step one time point earlier, and advances the pattern and
    history by one time point to match.  ``time_shift=False`` skips the
    re-timing (useful to demonstrate that the shift is what makes the result
    validate).

    Raises :class:`MissingNoOpPrefix` when a stepping process's first step is
    not the no-op (or an initial state is not a delay state), and
    :class:`NonPositiveTime` when a surviving step would move before time 0.
    """
    for i, state in enumerate(run.init):
        if not isinstance(state, DelayState):
            raise MissingNoOpPrefix(f"initial state of process {i} is not a delay state")
    mapped_init = tuple(state.base for state in run.init)

    noop_done: set[int] = set()
    schedule = []
    times = []
    for index, (step, t) in enumerate(zip(run.schedule, run.times)):
        p = step.actor
        if p not in noop_done:
            if not isinstance(step.pre, DelayState) or step.received is not None or (
                step.sent is not None
            ):
                raise MissingNoOpPrefix(
                    f"first step of process {p} (schedule index {index}) is not the no-op"
                )
            noop_done.add(p)
            continue
        if time_shift and t == 0:
            raise NonPositiveTime(
                f"step at schedule index {index} sits at time 0 and cannot move earlier"
            )
        schedule.append(step)
        times.append(t - 1 if time_shift else t)

    pattern = shift_pattern(run.pattern) if time_shift else run.pattern
    history = shift_history(run.history) if time_shift else run.history
    return Run(pattern, history, mapped_init, tuple(schedule), tuple(times))
