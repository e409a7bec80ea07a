"""Core execution model for crash-prone message-passing computations.

The model is finite and explicit on purpose: a fixed process set ``0..n-1``, a
fixed integer time horizon, crash patterns that are monotone sets of crashed
processes per time point, oracle histories giving each process a suspect set
per time point, and runs that pair a schedule of steps with the time points at
which the steps occur.  Everything is an immutable value so runs can be
hashed, compared, and replayed deterministically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import product
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import DomainMismatch, MismatchedPreState, NoSuchInTransitMessage

__all__ = [
    "ProcessId",
    "TimePoint",
    "State",
    "Message",
    "Step",
    "Configuration",
    "FailurePattern",
    "History",
    "Run",
    "Algorithm",
    "apply_step",
    "config_sequence",
    "own_state_views",
    "project_schedule",
]

ProcessId = int
TimePoint = int
#: Algorithm-local states are opaque hashable values owned by the algorithm.
State = Hashable
#: A receipt or dispatch as seen by a transition function: (peer id, payload).
Transmission = tuple[int, str]


class Message(NamedTuple):
    """A message travelling between two processes.

    The ``tag`` is a serial number unique within a run, assigned in send
    order.  It exists so that receives refer to one concrete send even when
    several identical payloads are in flight; it carries no information the
    algorithm can observe.
    """

    sender: int
    receiver: int
    payload: str
    tag: int

    def transmission(self) -> Transmission:
        """The (sender, payload) pair the receiving transition observes."""
        return (self.sender, self.payload)


@dataclass(frozen=True)
class Step:
    """One atomic step: receive at most one message, move state, send at most one."""

    actor: int
    pre: State
    received: Message | None
    suspects: frozenset[int]
    post: State
    sent: Message | None

    def received_transmission(self) -> Transmission | None:
        return None if self.received is None else self.received.transmission()

    def sent_transmission(self) -> Transmission | None:
        """The (receiver, payload) dispatch pair the sending transition chose."""
        return None if self.sent is None else (self.sent.receiver, self.sent.payload)


@dataclass(frozen=True)
class Configuration:
    """A global snapshot: per-process states plus the messages in transit."""

    states: tuple[State, ...]
    in_transit: frozenset[Message]


@dataclass(frozen=True)
class FailurePattern:
    """Which processes have crashed at each time point.

    ``crashed[t]`` is the set of processes crashed at time ``t``; the sets are
    monotone in ``t`` (a crashed process never recovers) and a process in
    ``crashed[t]`` takes no step at any time ``>= t``.
    """

    n: int
    horizon: int
    crashed: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.horizon < 0:
            raise DomainMismatch("need at least one process and a nonnegative horizon")
        if len(self.crashed) != self.horizon + 1:
            raise DomainMismatch(
                f"pattern has {len(self.crashed)} cells for horizon {self.horizon}"
            )
        everyone = range(self.n)
        previous: frozenset[int] = frozenset()
        for t, cell in enumerate(self.crashed):
            if not all(p in everyone for p in cell):
                raise DomainMismatch(f"crashed set at time {t} names unknown processes")
            if not previous <= cell:
                raise DomainMismatch(f"crashed set shrinks at time {t}")
            previous = cell

    @classmethod
    def from_crash_times(
        cls, n: int, horizon: int, crash_times: Mapping[int, int] | None = None
    ) -> "FailurePattern":
        """Build a pattern from ``{process: first crashed time}`` (omitted = never)."""
        crash_times = crash_times or {}
        cells = tuple(
            frozenset(p for p, ct in crash_times.items() if ct <= t)
            for t in range(horizon + 1)
        )
        return cls(n, horizon, cells)

    def crashed_at(self, t: int) -> frozenset[int]:
        return self.crashed[t]

    def live_at(self, t: int) -> frozenset[int]:
        return frozenset(range(self.n)) - self.crashed[t]

    def faulty(self) -> frozenset[int]:
        """Processes crashed by the horizon."""
        return self.crashed[self.horizon]

    def correct(self) -> frozenset[int]:
        """Processes still live at the horizon."""
        return frozenset(range(self.n)) - self.crashed[self.horizon]

    def crash_time(self, p: int) -> int | None:
        """First time at which ``p`` is crashed, or None if it never crashes."""
        for t in range(self.horizon + 1):
            if p in self.crashed[t]:
                return t
        return None


@dataclass(frozen=True)
class History:
    """Oracle output: for each process and time point, a set of suspects.

    ``cells[p][t]`` is what process ``p`` would be told at time ``t``.  Cells
    exist for every process and time, including cells of crashed processes
    that no step can ever read.
    """

    n: int
    horizon: int
    cells: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != self.n:
            raise DomainMismatch(f"history has rows for {len(self.cells)} of {self.n} processes")
        for p, row in enumerate(self.cells):
            if len(row) != self.horizon + 1:
                raise DomainMismatch(
                    f"history row {p} has {len(row)} cells for horizon {self.horizon}"
                )
            for t, cell in enumerate(row):
                if not all(0 <= q < self.n for q in cell):
                    raise DomainMismatch(f"history cell ({p}, {t}) names unknown processes")

    @classmethod
    def from_function(
        cls, n: int, horizon: int, cell: Callable[[int, int], Iterable[int]]
    ) -> "History":
        return cls(
            n,
            horizon,
            tuple(
                tuple(frozenset(cell(p, t)) for t in range(horizon + 1)) for p in range(n)
            ),
        )

    def at(self, p: int, t: int) -> frozenset[int]:
        return self.cells[p][t]

    def with_cell(self, p: int, t: int, value: Iterable[int]) -> "History":
        """A copy with one cell replaced."""
        return self.with_cells((((p, t), value),))

    def with_cells(self, rewrites: Iterable[tuple[tuple[int, int], Iterable[int]]]) -> "History":
        """A copy with each ``((p, t), value)`` rewrite applied.

        Only the rewritten cells are checked: every other cell was checked
        when this history was built.
        """
        rows = list(self.cells)
        for (p, t), value in rewrites:
            if not (0 <= p < self.n and 0 <= t <= self.horizon):
                raise DomainMismatch(f"history has no cell ({p}, {t})")
            value = frozenset(value)
            if not all(0 <= q < self.n for q in value):
                raise DomainMismatch(f"history cell ({p}, {t}) names unknown processes")
            row = list(rows[p])
            row[t] = value
            rows[p] = tuple(row)
        out = object.__new__(History)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "horizon", self.horizon)
        object.__setattr__(out, "cells", tuple(rows))
        return out


@dataclass(frozen=True)
class Run:
    """A bounded execution: pattern, history, initial states, schedule, times.

    ``times[i]`` is the time point of ``schedule[i]``; times are strictly
    increasing, so at most one step happens per time point.
    """

    pattern: FailurePattern
    history: History
    init: tuple[State, ...]
    schedule: tuple[Step, ...]
    times: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.pattern.n != self.history.n or self.pattern.horizon != self.history.horizon:
            raise DomainMismatch("pattern and history disagree on processes or horizon")
        if len(self.init) != self.pattern.n:
            raise DomainMismatch("initial states do not cover the process set")
        if len(self.schedule) != len(self.times):
            raise DomainMismatch("schedule and time sequence have different lengths")

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def horizon(self) -> int:
        return self.pattern.horizon


class Algorithm(ABC):
    """A deterministic message-passing algorithm over ``n`` processes.

    Transitions are partial: :meth:`transition` returns None when the process
    has no step for the given (state, receipt, suspects) triple, and such a
    step can never occur in a valid run.  State values are opaque but must be
    hashable; :meth:`state_str`/:meth:`parse_state` fix their wire format.
    """

    name: str
    n: int

    @abstractmethod
    def initial_states(self, i: int) -> tuple[State, ...]:
        """The allowed initial states of process ``i``."""

    @abstractmethod
    def transition(
        self, i: int, state: State, received: Transmission | None, suspects: frozenset[int]
    ) -> tuple[State, Transmission | None] | None:
        """The unique (post-state, dispatch) for this step, or None if undefined."""

    @abstractmethod
    def payload_alphabet(self, i: int) -> tuple[str, ...]:
        """Every payload process ``i`` could ever send."""

    @abstractmethod
    def state_str(self, state: State) -> str:
        """Serialize a state to its canonical string form."""

    @abstractmethod
    def parse_state(self, text: str) -> State:
        """Inverse of :meth:`state_str`."""

    def reachable_states(self, i: int) -> tuple[State, ...]:
        """All states process ``i`` can reach, by closure over every input.

        Explores every receipt from every peer's payload alphabet and every
        suspect set, so it over-approximates any single run.  Sorted by the
        canonical string form for determinism.
        """
        receipts = _receipt_domain(self, i)
        suspect_sets = _sorted_subsets(self.n)
        seen: set[State] = set(self.initial_states(i))
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            for received in receipts:
                for suspects in suspect_sets:
                    result = self.transition(i, state, received, suspects)
                    if result is None:
                        continue
                    post = result[0]
                    if post not in seen:
                        seen.add(post)
                        frontier.append(post)
        return tuple(sorted(seen, key=self.state_str))


def _receipt_domain(alg: Algorithm, i: int) -> list[Transmission | None]:
    """Every receipt process ``i`` can see: nothing, then each peer's payloads."""
    out: list[Transmission | None] = [None]
    for j in range(alg.n):
        if j != i:
            out.extend((j, payload) for payload in alg.payload_alphabet(j))
    return out


def _sorted_subsets(n: int) -> list[frozenset[int]]:
    """Every subset of ``0..n-1``, by size and then lexicographically."""
    out: list[tuple[int, ...]] = [()]
    for p in range(n):
        out.extend(subset + (p,) for subset in list(out))
    return [frozenset(s) for s in sorted(out, key=lambda s: (len(s), s))]


def all_monotone_patterns(n: int, horizon: int) -> tuple[FailurePattern, ...]:
    """Every monotone crash pattern, ordered by per-process crash times
    (never-crashing first)."""
    choices: tuple[int | None, ...] = (None,) + tuple(range(horizon + 1))
    out = []
    for times in product(choices, repeat=n):
        crash_times = {p: t for p, t in enumerate(times) if t is not None}
        out.append(FailurePattern.from_crash_times(n, horizon, crash_times))
    return tuple(out)


def apply_step(config: Configuration, step: Step) -> Configuration:
    """Apply one step to a configuration, enforcing local sanity.

    Raises :class:`MismatchedPreState` if the actor is not in the step's
    pre-state and :class:`NoSuchInTransitMessage` if the received message is
    absent from transit or addressed to someone else.
    """
    if config.states[step.actor] != step.pre:
        raise MismatchedPreState(
            f"process {step.actor} is in {config.states[step.actor]!r}, step expects {step.pre!r}"
        )
    transit = config.in_transit
    if step.received is not None:
        if step.received.receiver != step.actor:
            raise NoSuchInTransitMessage(
                f"process {step.actor} cannot receive a message addressed to "
                f"{step.received.receiver}"
            )
        if step.received not in transit:
            raise NoSuchInTransitMessage(f"{step.received} is not in transit")
        transit = transit - {step.received}
    if step.sent is not None:
        transit = transit | {step.sent}
    states = tuple(
        step.post if p == step.actor else s for p, s in enumerate(config.states)
    )
    return Configuration(states, transit)


def config_sequence(init: tuple[State, ...], schedule: tuple[Step, ...]) -> tuple[Configuration, ...]:
    """The configurations before and after each step, starting from ``init``.

    Depends only on the order of steps, never on the times at which they are
    taken.
    """
    configs = [Configuration(tuple(init), frozenset())]
    for step in schedule:
        configs.append(apply_step(configs[-1], step))
    return tuple(configs)


def own_state_views(
    init: tuple[State, ...], schedule: tuple[Step, ...], i: int
) -> tuple[State, ...]:
    """Process ``i``'s state after each of its own steps, starting at its initial.

    Element ``l`` is the state of ``i`` after its ``l``-th own step; once the
    process stops stepping its view is simply the last element.
    """
    views = [init[i]]
    for step in schedule:
        if step.actor == i:
            views.append(step.post)
    return tuple(views)


def project_schedule(schedule: tuple[Step, ...], i: int) -> tuple[Step, ...]:
    """The subsequence of steps taken by process ``i``."""
    return tuple(step for step in schedule if step.actor == i)
