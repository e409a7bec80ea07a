"""Observable behavior: interpretations, stutter closure, agreement predicates.

An interpretation maps each process's algorithm states to a small observable
alphabet; applying it to every configuration of a run yields an observable
sequence.  Problems are predicates over (observable sequence, crash pattern).
The checks at the end of the module probe two hygiene properties a problem
should have: its verdict may depend on the pattern only through the set of
surviving processes, and it must be invariant under stutter expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    UncoveredState,
)
from .model import FailurePattern, Run, State, all_monotone_patterns, config_sequence

__all__ = [
    "ProblemState",
    "ProblemConfig",
    "ProblemSeq",
    "Interpretation",
    "interpret_config",
    "interpret_run",
    "is_one_stutter",
    "is_stutter",
    "stutter_expansions",
    "ProblemPredicate",
    "agreement_state",
    "AGREEMENT_ALPHABET",
    "AGREEMENT_INITIAL_ALPHABET",
    "eval_consensus",
    "eval_strong_consensus",
    "ConsensusPredicate",
    "StrongConsensusPredicate",
    "IndependenceWitness",
    "check_crash_time_independence",
    "StutterWitness",
    "check_finite_stuttering",
]

ProblemState = str
ProblemConfig = tuple[str, ...]
ProblemSeq = tuple[ProblemConfig, ...]


@dataclass(frozen=True)
class Interpretation:
    """Per-process maps from algorithm states to an observable alphabet.

    ``maps[i]`` sends every state process ``i`` can reach to a letter of
    ``sigma``; the images of ``i``'s initial states must be exactly
    ``sigma_init``.
    """

    maps: tuple[Mapping[State, str], ...]
    sigma: frozenset[str]
    sigma_init: frozenset[str]

    def __post_init__(self) -> None:
        if not self.sigma_init <= self.sigma:
            raise AlphabetMismatch("initial alphabet is not part of the full alphabet")

    def of(self, i: int, state: State) -> str:
        try:
            letter = self.maps[i][state]
        except KeyError:
            raise UncoveredState(f"process {i} has no image for state {state!r}") from None
        if letter not in self.sigma:
            raise AlphabetMismatch(
                f"state {state!r} of process {i} maps to {letter!r}, outside the alphabet"
            )
        return letter

    def check_initial_cover(self, initials_of: Callable[[int], Sequence[State]]) -> None:
        """Require the initial states of every process to map onto ``sigma_init``."""
        for i in range(len(self.maps)):
            image = {self.of(i, q) for q in initials_of(i)}
            if image != self.sigma_init:
                raise AlphabetMismatch(
                    f"initial states of process {i} map onto {sorted(image)}, "
                    f"expected {sorted(self.sigma_init)}"
                )

    def replaced(self, i: int, state: State, letter: str) -> "Interpretation":
        """A copy with one image changed (used to probe broken interpretations)."""
        new_map = dict(self.maps[i])
        new_map[state] = letter
        maps = tuple(new_map if j == i else m for j, m in enumerate(self.maps))
        return Interpretation(maps, self.sigma, self.sigma_init)


def interpret_config(states: Sequence[State], interp: Interpretation) -> ProblemConfig:
    return tuple(interp.of(i, s) for i, s in enumerate(states))


def interpret_run(run: Run, interp: Interpretation) -> ProblemSeq:
    """The observable sequence of a run: one letter row per configuration."""
    return tuple(
        interpret_config(c.states, interp) for c in config_sequence(run.init, run.schedule)
    )


def is_one_stutter(w: ProblemSeq, w_prime: ProblemSeq) -> bool:
    """True iff ``w_prime`` inserts exactly one row into ``w``, every inserted
    letter copied from a vertical neighbor.

    Between two rows the inserted letter may come from either neighbor; at the
    two boundaries only one neighbor exists, so the inserted row must copy the
    end row exactly.
    """
    if len(w_prime) != len(w) + 1 or not w:
        return False
    for j in range(len(w) + 1):
        if w_prime[:j] != w[:j] or w_prime[j + 1 :] != w[j:]:
            continue
        mid = w_prime[j]
        if j == 0:
            if mid == w[0]:
                return True
        elif j == len(w):
            if mid == w[-1]:
                return True
        elif all(mid[i] in (w[j - 1][i], w[j][i]) for i in range(len(mid))):
            return True
    return False


def _gap_is_componentwise_switch(
    left: ProblemConfig, gap: Sequence[ProblemConfig], right: ProblemConfig
) -> bool:
    """Each component may change value at most once across left, gap, right,
    and only from the left value to the right value."""
    for i in range(len(left)):
        expected = left[i]
        for row in gap:
            v = row[i]
            if v == expected:
                continue
            if expected == left[i] and v == right[i]:
                expected = right[i]
                continue
            return False
    return True


def is_stutter(w: ProblemSeq, w_prime: ProblemSeq) -> bool:
    """True iff ``w_prime`` arises from ``w`` by repeated single-row insertion.

    Decided by dynamic programming over an exact structural characterization:
    the rows of ``w`` must embed into ``w_prime`` in order; rows before the
    image of the first original and after the image of the last original must
    copy that end row exactly; and within each interior gap every component's
    letters must move from the left endpoint's value to the right endpoint's
    value with at most one switch.
    """
    if w == w_prime:
        return True
    if len(w_prime) < len(w) or not w:
        return False
    if any(len(row) != len(w[0]) for row in w + w_prime):
        raise AlphabetMismatch("sequences mix rows of different widths")
    if w[0] != w_prime[0]:
        return False
    last_wp = len(w_prime) - 1
    # reachable = positions j where the current original row may sit; the
    # first original may sit anywhere inside the leading run of its copies.
    reachable: set[int] = set()
    for j in range(last_wp + 1):
        if w_prime[j] != w[0]:
            break
        reachable.add(j)
    for l in range(1, len(w)):
        row = w[l]
        next_reachable: set[int] = set()
        for j in reachable:
            for j_prime in range(j + 1, last_wp + 1):
                if w_prime[j_prime] != row:
                    continue
                if _gap_is_componentwise_switch(
                    w[l - 1], w_prime[j + 1 : j_prime], row
                ):
                    next_reachable.add(j_prime)
        if not next_reachable:
            return False
        reachable = next_reachable
    last_row = w[-1]
    return any(
        all(w_prime[j] == last_row for j in range(p + 1, last_wp + 1))
        for p in reachable
    )


def stutter_expansions(w: ProblemSeq, max_len: int) -> Iterator[ProblemSeq]:
    """Every sequence reachable from ``w`` by single-row insertions, up to
    ``max_len`` rows, in breadth-first deterministic order (``w`` first)."""
    seen = {w}
    frontier = [w]
    yield w
    while frontier:
        next_frontier: list[ProblemSeq] = []
        for base in frontier:
            if len(base) >= max_len or not base:
                continue
            width = len(base[0])
            for j in range(len(base) + 1):
                if j == 0:
                    inserted = [base[0]]
                elif j == len(base):
                    inserted = [base[-1]]
                else:
                    choices = [
                        sorted({base[j - 1][i], base[j][i]}) for i in range(width)
                    ]
                    inserted = [tuple(mid) for mid in product(*choices)]
                for mid in inserted:
                    candidate = base[:j] + (mid,) + base[j:]
                    if candidate not in seen:
                        seen.add(candidate)
                        next_frontier.append(candidate)
        next_frontier.sort()
        for candidate in next_frontier:
            yield candidate
        frontier = next_frontier


class ProblemPredicate:
    """A problem: a verdict over (observable sequence, crash pattern).

    ``undecided`` distinguishes runs that merely ran out of time: the safety
    part of the problem holds but some surviving process has not produced its
    final output.  Generic predicates may leave it at the default False.
    """

    name: str = "predicate"
    sigma: frozenset[str] = frozenset()
    sigma_init: frozenset[str] = frozenset()

    def evaluate(self, w: ProblemSeq, f: FailurePattern) -> bool:
        raise NotImplementedError

    def undecided(self, w: ProblemSeq, f: FailurePattern) -> bool:
        return False


# ---------------------------------------------------------------------------
# Agreement problems over binary proposals.
#
# Observable letters have the shape "<proposal>|<decision>" with proposal in
# {0, 1} and decision in {-, 0, 1}; "-" means undecided.

AGREEMENT_ALPHABET = frozenset(f"{p}|{d}" for p in "01" for d in "-01")
AGREEMENT_INITIAL_ALPHABET = frozenset(f"{p}|-" for p in "01")


_AGREEMENT_PARSE: dict[str, tuple[int, int | None]] = {
    letter: (int(letter[0]), None if letter[2] == "-" else int(letter[2]))
    for letter in AGREEMENT_ALPHABET
}


def agreement_state(letter: str) -> tuple[int, int | None]:
    """Split an agreement letter into (proposal, decision-or-None)."""
    try:
        return _AGREEMENT_PARSE[letter]
    except KeyError:
        raise AlphabetMismatch(f"{letter!r} is not an agreement letter") from None


@lru_cache(maxsize=1 << 18)
def _agreement_safety(w: ProblemSeq) -> tuple[bool, tuple[int, ...], frozenset[int]]:
    """Shared safety core: constant proposals, write-once decisions, decisions
    drawn from the proposals, and no two different decisions anywhere.

    Returns (safety holds, proposals, decision values seen).  Depends only on
    the sequence, never the crash pattern, so results are memoized; the
    returned values are immutable because they are shared between callers.
    """
    if not w:
        return False, (), frozenset()
    width = len(w[0])
    proposals: list[int] = []
    decisions: set[int] = set()
    ok = True
    for i in range(width):
        proposal0, decision = agreement_state(w[0][i])
        proposals.append(proposal0)
        for row in w:
            proposal, d = agreement_state(row[i])
            if proposal != proposal0:
                ok = False
            if decision is not None and d != decision:
                ok = False
            decision = d
            if d is not None:
                decisions.add(d)
    if any(d not in proposals for d in decisions):
        ok = False
    if len(decisions) > 1:
        ok = False
    return ok, tuple(proposals), frozenset(decisions)


def _all_survivors_decided(w: ProblemSeq, f: FailurePattern) -> bool:
    last = w[-1]
    return all(agreement_state(last[p])[1] is not None for p in sorted(f.correct()))


def eval_consensus(w: ProblemSeq, f: FailurePattern) -> bool:
    """Binary agreement: every decision equals some proposal, no two decisions
    differ anywhere in the sequence (even by processes that later crash), and
    every surviving process has decided in the final row."""
    ok, _, _ = _agreement_safety(w)
    return ok and _all_survivors_decided(w, f)


def eval_strong_consensus(w: ProblemSeq, f: FailurePattern) -> bool:
    """Agreement anchored to a survivor: some single surviving process's
    proposal is the only value anyone ever decides.  Vacuously true on the
    sequence level when nothing survives."""
    ok, proposals, decisions = _agreement_safety(w)
    if not ok:
        return False
    if not f.correct():
        return True
    return _anchored(proposals, decisions, f) and _all_survivors_decided(w, f)


def _anchored(proposals: tuple[int, ...], decisions: frozenset[int], f: FailurePattern) -> bool:
    """Some surviving process proposed every value decided anywhere."""
    return any(all(d == proposals[c] for d in decisions) for c in sorted(f.correct()))


class ConsensusPredicate(ProblemPredicate):
    name = "consensus"
    sigma = AGREEMENT_ALPHABET
    sigma_init = AGREEMENT_INITIAL_ALPHABET

    def evaluate(self, w: ProblemSeq, f: FailurePattern) -> bool:
        return eval_consensus(w, f)

    def undecided(self, w: ProblemSeq, f: FailurePattern) -> bool:
        ok, _, _ = _agreement_safety(w)
        return ok and not _all_survivors_decided(w, f)


class StrongConsensusPredicate(ProblemPredicate):
    name = "strong-consensus"
    sigma = AGREEMENT_ALPHABET
    sigma_init = AGREEMENT_INITIAL_ALPHABET

    def evaluate(self, w: ProblemSeq, f: FailurePattern) -> bool:
        return eval_strong_consensus(w, f)

    def undecided(self, w: ProblemSeq, f: FailurePattern) -> bool:
        ok, proposals, decisions = _agreement_safety(w)
        return (
            ok
            and _anchored(proposals, decisions, f)
            and not _all_survivors_decided(w, f)
        )


# ---------------------------------------------------------------------------
# Hygiene checks over bounded universes of observable sequences.


@dataclass(frozen=True)
class IndependenceWitness:
    """Two patterns with the same survivors on which the verdicts differ."""

    w: ProblemSeq
    pattern_a: FailurePattern
    pattern_b: FailurePattern


@dataclass(frozen=True)
class StutterWitness:
    """A sequence and an expansion of it on which the verdicts differ."""

    w: ProblemSeq
    w_prime: ProblemSeq
    pattern: FailurePattern


def _problem_seqs(
    sigma: Iterable[str], sigma_init: Iterable[str], n: int, max_len: int
) -> Iterator[ProblemSeq]:
    """Every sequence of 1..max_len rows whose first row uses the initial
    alphabet, in deterministic order."""
    rows = sorted(product(sorted(sigma), repeat=n))
    first_rows = sorted(product(sorted(sigma_init), repeat=n))
    for first in first_rows:
        stack: list[ProblemSeq] = [(first,)]
        while stack:
            w = stack.pop()
            yield w
            if len(w) < max_len:
                stack.extend((w + (row,)) for row in reversed(rows))


def check_crash_time_independence(
    pred: ProblemPredicate,
    n: int,
    horizon: int,
    max_len: int,
    eval_cap: int = 50_000_000,
) -> IndependenceWitness | None:
    """Search for a verdict that depends on crash times, not just survivors.

    Enumerates every observable sequence up to ``max_len`` rows and every
    crash pattern; within each group of patterns sharing a survivor set the
    verdict must be constant.  Returns the first witness found, or None.
    """
    patterns = _capped_patterns(pred, n, horizon, max_len, eval_cap)
    groups: dict[frozenset[int], list[FailurePattern]] = {}
    for f in patterns:
        groups.setdefault(f.correct(), []).append(f)
    for w in _problem_seqs(pred.sigma, pred.sigma_init, n, max_len):
        for survivors in sorted(groups, key=sorted):
            group = groups[survivors]
            baseline = pred.evaluate(w, group[0])
            for f in group[1:]:
                if pred.evaluate(w, f) != baseline:
                    return IndependenceWitness(w, group[0], f)
    return None


def check_finite_stuttering(
    pred: ProblemPredicate,
    n: int,
    horizon: int,
    max_len: int,
    max_expanded_len: int,
    eval_cap: int = 50_000_000,
) -> StutterWitness | None:
    """Search for a stutter expansion that flips the verdict.

    For every observable sequence up to ``max_len`` rows, every stutter
    expansion up to ``max_expanded_len`` rows, and every crash pattern, the
    verdicts on the sequence and its expansion must agree.  Returns the first
    witness found, or None.
    """
    patterns = _capped_patterns(pred, n, horizon, max_len, eval_cap)
    for w in _problem_seqs(pred.sigma, pred.sigma_init, n, max_len):
        expansions = [wp for wp in stutter_expansions(w, max_expanded_len) if wp != w]
        if not expansions:
            continue
        for f in patterns:
            baseline = pred.evaluate(w, f)
            for w_prime in expansions:
                if pred.evaluate(w_prime, f) != baseline:
                    return StutterWitness(w, w_prime, f)
    return None


def _capped_patterns(
    pred: ProblemPredicate, n: int, horizon: int, max_len: int, eval_cap: int
) -> tuple[FailurePattern, ...]:
    """Every monotone pattern, once the sequence x pattern count is known to
    stay within ``eval_cap``."""
    patterns = all_monotone_patterns(n, horizon)
    rows = len(pred.sigma) ** n
    first = len(pred.sigma_init) ** n
    seq_count = sum(first * rows**length for length in range(max_len))
    if seq_count * len(patterns) > eval_cap:
        raise BudgetExceeded(
            f"{seq_count} sequences x {len(patterns)} patterns exceeds cap {eval_cap}"
        )
    return patterns
