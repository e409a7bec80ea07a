"""Built-in algorithms, their interpretations, and a table-backed algorithm.

Both built-ins share one collect-then-decide skeleton over binary proposals:
record every value received, send the own value to each peer in id order (one
peer per step), and once all sends are out, decide on the first step whose
oracle output leaves no unsuspected process with an unknown value.  They
differ only in the decision rule:

* ``flood-consensus-p`` decides the minimum of every collected value.
* ``strong-consensus-m`` decides the value of the smallest-id unsuspected
  process (its own value if the oracle suspects everyone).

A received value can share a step with a send or with the decision; after
deciding a process keeps absorbing receipts without further effect.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .errors import DomainMismatch
from .model import Algorithm, State, Transmission
from .problems import (
    AGREEMENT_ALPHABET,
    AGREEMENT_INITIAL_ALPHABET,
    ConsensusPredicate,
    Interpretation,
    ProblemPredicate,
    StrongConsensusPredicate,
)

__all__ = [
    "CollectState",
    "CollectThenDecide",
    "FloodMinConsensus",
    "LeastUnsuspectedConsensus",
    "collect_interpretation",
    "TableAlgorithm",
    "BUILTIN_NAMES",
    "builtin_algorithm",
]


class CollectState(NamedTuple):
    """State of one collect-then-decide process.

    ``known`` is a sorted tuple of (process id, value) pairs, always
    containing the own proposal; ``sends_done`` counts peers already served;
    ``decision`` is None until the process decides.
    """

    value: int
    known: tuple[tuple[int, int], ...]
    sends_done: int
    decision: int | None


class CollectThenDecide(Algorithm):
    """The shared skeleton; subclasses plug in the decision rule."""

    def __init__(self, n: int, name: str):
        if n < 1:
            raise DomainMismatch("need at least one process")
        self.n = n
        self.name = name

    def decide(
        self, i: int, known: Mapping[int, int], suspects: frozenset[int]
    ) -> int:
        raise NotImplementedError

    def initial_states(self, i: int) -> tuple[State, ...]:
        return tuple(
            CollectState(v, ((i, v),), 0, None) for v in (0, 1)
        )

    def transition(
        self, i: int, state: State, received: Transmission | None, suspects: frozenset[int]
    ) -> tuple[State, Transmission | None] | None:
        if not isinstance(state, CollectState):
            return None
        known = dict(state.known)
        if received is not None:
            sender, payload = received
            if payload not in ("0", "1"):
                return None
            known[sender] = int(payload)
        after = CollectState(
            state.value, tuple(sorted(known.items())), state.sends_done, state.decision
        )
        k = state.sends_done
        if k < self.n - 1:  # send to the k-th peer in id order, skipping i itself
            return (after._replace(sends_done=k + 1), (k + (k >= i), str(state.value)))
        if state.decision is None and all(
            p in known for p in range(self.n) if p not in suspects
        ):
            return (after._replace(decision=self.decide(i, known, suspects)), None)
        return (after, None)

    def payload_alphabet(self, i: int) -> tuple[str, ...]:
        return ("0", "1")

    def state_str(self, state: State) -> str:
        assert isinstance(state, CollectState)
        known = ",".join(f"{p}:{v}" for p, v in state.known)
        decision = "-" if state.decision is None else str(state.decision)
        return f"v{state.value};k{known};s{state.sends_done};d{decision}"

    def parse_state(self, text: str) -> State:
        try:
            v_part, k_part, s_part, d_part = text.split(";")
            value = int(v_part.removeprefix("v"))
            known_text = k_part.removeprefix("k")
            known = tuple(
                (int(p), int(v))
                for p, v in (pair.split(":") for pair in known_text.split(",") if pair)
            )
            sends_done = int(s_part.removeprefix("s"))
            d_text = d_part.removeprefix("d")
            decision = None if d_text == "-" else int(d_text)
        except (ValueError, AttributeError) as exc:
            raise DomainMismatch(f"unparseable state {text!r}") from exc
        return CollectState(value, known, sends_done, decision)


class FloodMinConsensus(CollectThenDecide):
    """Decide the minimum of every value collected so far."""

    def __init__(self, n: int):
        super().__init__(n, "flood-consensus-p")

    def decide(self, i: int, known: Mapping[int, int], suspects: frozenset[int]) -> int:
        return min(known.values())


class LeastUnsuspectedConsensus(CollectThenDecide):
    """Decide the value of the smallest-id process the oracle does not suspect."""

    def __init__(self, n: int):
        super().__init__(n, "strong-consensus-m")

    def decide(self, i: int, known: Mapping[int, int], suspects: frozenset[int]) -> int:
        candidates = [p for p in range(self.n) if p not in suspects]
        if not candidates:
            return known[i]
        return known[min(candidates)]


def collect_interpretation(alg: CollectThenDecide) -> Interpretation:
    """The agreement-alphabet view of a collect-then-decide machine: each state
    shows its proposal and its decision, nothing else."""
    maps = []
    for i in range(alg.n):
        table = {}
        for state in alg.reachable_states(i):
            assert isinstance(state, CollectState)
            decision = "-" if state.decision is None else str(state.decision)
            table[state] = f"{state.value}|{decision}"
        maps.append(table)
    return Interpretation(
        tuple(maps), AGREEMENT_ALPHABET, AGREEMENT_INITIAL_ALPHABET
    )


class TableAlgorithm(Algorithm):
    """An algorithm given by explicit transition tables.

    ``tables[i]`` maps (state, receipt, suspects) to (post, dispatch); states
    are plain strings.  This is the parsed form of the wire format and a handy
    way to build tiny test algorithms.
    """

    def __init__(
        self,
        name: str,
        n: int,
        initials: tuple[tuple[str, ...], ...],
        tables: tuple[
            Mapping[tuple[str, Transmission | None, frozenset[int]], tuple[str, Transmission | None]],
            ...,
        ],
        payloads: tuple[tuple[str, ...], ...],
    ):
        if n < 1:
            raise DomainMismatch(f"an algorithm needs at least one process, not n={n}")
        if len(initials) != n or len(tables) != n or len(payloads) != n:
            raise DomainMismatch("per-process tables do not cover the process set")
        for i, (states, table) in enumerate(zip(initials, tables)):
            if not states:
                raise DomainMismatch(f"process {i} has no initial state")
            for (_, received, suspects), (_, sent) in table.items():
                named = [*suspects, *(m[0] for m in (received, sent) if m is not None)]
                if any(q not in range(n) for q in named):
                    raise DomainMismatch(
                        f"a transition of process {i} names a process outside 0..{n - 1}"
                    )
        self.name = name
        self.n = n
        self._initials = initials
        self._tables = tables
        self._payloads = payloads

    def initial_states(self, i: int) -> tuple[State, ...]:
        return self._initials[i]

    def transition(
        self, i: int, state: State, received: Transmission | None, suspects: frozenset[int]
    ) -> tuple[State, Transmission | None] | None:
        return self._tables[i].get((state, received, suspects))

    def payload_alphabet(self, i: int) -> tuple[str, ...]:
        return self._payloads[i]

    def state_str(self, state: State) -> str:
        assert isinstance(state, str)
        return state

    def parse_state(self, text: str) -> State:
        return text


#: Wire names of the built-in algorithm/problem pairings.
BUILTIN_NAMES = ("flood-consensus-p", "strong-consensus-m")

_BUILTIN_FACTORIES: dict[str, tuple[Callable[[int], CollectThenDecide], Callable[[], ProblemPredicate]]] = {
    "flood-consensus-p": (FloodMinConsensus, ConsensusPredicate),
    "strong-consensus-m": (LeastUnsuspectedConsensus, StrongConsensusPredicate),
}


def builtin_algorithm(
    name: str, n: int
) -> tuple[CollectThenDecide, Interpretation, ProblemPredicate]:
    """Instantiate a built-in by wire name: (algorithm, interpretation, problem)."""
    alg, predicate = _builtin_machine(name, n)
    return alg, collect_interpretation(alg), predicate


def _builtin_machine(name: str, n: int) -> tuple[CollectThenDecide, ProblemPredicate]:
    """A built-in's algorithm and problem, built without exploring a state:
    ``collect_interpretation`` explores every reachable state under all 2^n
    suspect sets."""
    try:
        alg_factory, pred_factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise DomainMismatch(
            f"unknown algorithm {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return alg_factory(n), pred_factory()
