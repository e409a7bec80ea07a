"""Oracle classes: specifications, history membership, canonical histories.

Three oracle classes are supported, written with their conventional short
names on the wire:

* ``P`` — never suspects a live process (checked at cells of live observers),
  and every crashed process ends up permanently suspected by every surviving
  observer.  This is ``Pk:0`` and is computed as such.
* ``M`` — tells every live process exactly the set of processes that will
  have crashed by the horizon, at every time point.  ``M:correct`` is the
  loose reading (``marabout_strict_live`` false): only surviving observers
  are constrained.
* ``Pk:<k>`` — perfect after time ``k``: a process that is live at time ``k``
  and still live now is never suspected by a live observer, and crashed
  processes end up permanently suspected.

Membership is split into a safety part (``prefix_consistent``: no forbidden
suspicion anywhere) and a liveness part (``horizon_complete``: additionally,
every required permanent suspicion has materialized by the horizon, i.e.
holds over a nonempty suffix ending at the horizon).

Each class is stated once, by ``_class_rule``: per pattern, one
``_ClassRule`` that judges histories, builds the canonical history and
tells the perturbation generator which cell values are admissible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterator

from .errors import DomainMismatch, KOutOfRange
from .model import FailurePattern, History, _sorted_subsets

__all__ = [
    "KIND_ALWAYS_ACCURATE",
    "KIND_FORESIGHT",
    "KIND_ACCURATE_AFTER",
    "FDSpec",
    "MembershipViolation",
    "MembershipVerdict",
    "history_in_p",
    "history_in_m",
    "history_in_pk",
    "history_matches",
    "canonical_history",
    "perturbed_histories",
    "initial_crash_scenario",
    "shift_pattern",
    "shift_history",
]

#: Wire names of the three oracle kinds, and of ``M`` constraining only survivors.
KIND_ALWAYS_ACCURATE = "P"
KIND_FORESIGHT = "M"
KIND_ACCURATE_AFTER = "Pk"
_LOOSE_FORESIGHT = "M:correct"

_KINDS = (KIND_ALWAYS_ACCURATE, KIND_FORESIGHT, KIND_ACCURATE_AFTER)


@dataclass(frozen=True)
class FDSpec:
    """Which oracle class a history is judged against.

    ``k`` is meaningful only for the ``Pk`` kind; ``marabout_strict_live``
    only for the ``M`` kind (true = constrain all live observers, false =
    constrain surviving observers only, spelled ``M:correct``).
    """

    kind: str
    k: int | None = None
    marabout_strict_live: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainMismatch(f"unknown oracle kind {self.kind!r}")
        if self.kind == KIND_ACCURATE_AFTER:
            if self.k is None:
                raise KOutOfRange("oracle kind Pk needs a stabilization time k")
            if self.k < 0:
                raise KOutOfRange(f"stabilization time k={self.k} is negative")
        elif self.k is not None:
            raise DomainMismatch(f"oracle kind {self.kind} takes no stabilization time")
        if not self.marabout_strict_live and self.kind != KIND_FORESIGHT:
            raise DomainMismatch(f"oracle kind {self.kind} has no foresight to loosen")

    @classmethod
    def always_accurate(cls) -> "FDSpec":
        return cls(KIND_ALWAYS_ACCURATE)

    @classmethod
    def foresight(cls, strict_live: bool = True) -> "FDSpec":
        return cls(KIND_FORESIGHT, marabout_strict_live=strict_live)

    @classmethod
    def accurate_after(cls, k: int) -> "FDSpec":
        return cls(KIND_ACCURATE_AFTER, k=k)

    def serialize(self) -> str:
        if self.kind == KIND_ACCURATE_AFTER:
            return f"Pk:{self.k}"
        if not self.marabout_strict_live:
            return _LOOSE_FORESIGHT
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FDSpec":
        """The oracle spelled exactly as ``serialize`` spells it."""
        if text == KIND_ALWAYS_ACCURATE:
            return cls.always_accurate()
        if text == KIND_FORESIGHT:
            return cls.foresight()
        if text == _LOOSE_FORESIGHT:
            return cls.foresight(strict_live=False)
        if text.startswith("Pk:"):
            digits = text[3:]
            try:
                k = int(digits)
            except ValueError as exc:
                raise DomainMismatch(f"bad stabilization time in {text!r}") from exc
            if str(k) != digits:
                raise DomainMismatch(f"bad stabilization time in {text!r}")
            return cls.accurate_after(k)
        raise DomainMismatch(f"unknown oracle spec {text!r}")


@dataclass(frozen=True)
class MembershipViolation:
    """One forbidden or missing suspicion: which rule, who, about whom, when."""

    condition: str
    observer: int
    subject: int
    time: int

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "observer": self.observer,
            "subject": self.subject,
            "time": self.time,
        }


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of judging a history against an oracle class."""

    prefix_consistent: bool
    horizon_complete: bool
    violations: tuple[MembershipViolation, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "prefix_consistent": self.prefix_consistent,
            "horizon_complete": self.horizon_complete,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class _ClassRule:
    """One oracle class on one pattern.

    Safety is per cell: only the observers in ``observers[t]`` are
    constrained at ``t``.  Telling one of them a subject in ``forbidden[t]``
    breaks ``forbidden_name``, and leaving out a subject of ``required[t]``
    breaks ``foresight-missing``.  When ``complete`` holds, liveness is owed
    too: every faulty process is suspected by every correct observer over a
    nonempty suffix ending at the horizon (equivalently, at the horizon).
    """

    pattern: FailurePattern
    observers: tuple[frozenset[int], ...]
    forbidden: tuple[frozenset[int], ...]
    required: tuple[frozenset[int], ...]
    forbidden_name: str
    complete: bool

    def admits(self, p: int, t: int, value: frozenset[int]) -> bool:
        """May observer ``p`` be told the suspect set ``value`` at time
        ``t``?  Exactly when ``cell_violations`` finds nothing there."""
        return (
            p not in self.observers[t]
            or not value & self.forbidden[t] and self.required[t] <= value
        )

    def cell_violations(self, p: int, t: int, value: frozenset[int]) -> list[MembershipViolation]:
        """What telling observer ``p`` the suspect set ``value`` at time ``t``
        breaks: forbidden subjects, then missing ones; empty when the cell is
        admissible."""
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

    def verdict(self, h: History) -> MembershipVerdict:
        """Judge ``h``: every broken cell by time, observer, then subject,
        then every missing permanent suspicion at the horizon."""
        f = self.pattern
        if h.n != f.n or h.horizon != f.horizon:
            raise DomainMismatch(
                f"history is over {h.n} processes to horizon {h.horizon}, "
                f"pattern over {f.n} to {f.horizon}"
            )
        prefix = [
            v
            for t, observers in enumerate(self.observers)
            for p in sorted(observers)
            if not self.admits(p, t, h.at(p, t))
            for v in self.cell_violations(p, t, h.at(p, t))
        ]
        suffix = [
            MembershipViolation("completeness", observer, subject, f.horizon)
            for observer in sorted(f.correct() if self.complete else ())
            for subject in sorted(f.faulty())
            if subject not in h.at(observer, f.horizon)
        ]
        return MembershipVerdict(
            prefix_consistent=not prefix,
            horizon_complete=not prefix and not suffix,
            violations=tuple(prefix + suffix),
        )

    def canonical(self) -> History:
        """The least-information member: every cell, crashed observers'
        included, suspects everyone the class does not forbid."""
        f = self.pattern
        everyone = frozenset(range(f.n))
        cells = [everyone - forbidden for forbidden in self.forbidden]
        return History.from_function(f.n, f.horizon, lambda p, t: cells[t])


def _class_rule(spec: FDSpec, f: FailurePattern) -> _ClassRule:
    """The rule of ``spec``'s class on ``f``; the one statement of each class.

    * ``M``: constrained observers see exactly the horizon-faulty set.
    * ``P`` and ``Pk:<k>``: a live observer never suspects a process live at
      time ``k`` (0 for ``P``) and still live now, and completeness is owed.
    """
    times = range(f.horizon + 1)
    if spec.kind == KIND_FORESIGHT:
        observers = f.live_at if spec.marabout_strict_live else lambda t: f.correct()
        return _ClassRule(
            pattern=f,
            observers=tuple(observers(t) for t in times),
            forbidden=tuple(f.correct() for _ in times),
            required=tuple(f.faulty() for _ in times),
            forbidden_name="foresight-spurious",
            complete=False,
        )
    k = spec.k if spec.kind == KIND_ACCURATE_AFTER else 0
    assert k is not None
    if k > f.horizon:
        raise KOutOfRange(f"stabilization time k={k} outside horizon 0..{f.horizon}")
    return _ClassRule(
        pattern=f,
        observers=tuple(f.live_at(t) for t in times),
        forbidden=tuple(f.live_at(k) & f.live_at(t) for t in times),
        required=tuple(frozenset() for _ in times),
        forbidden_name="late-accuracy" if spec.kind == KIND_ACCURATE_AFTER else "accuracy",
        complete=True,
    )


def history_in_p(h: History, f: FailurePattern) -> MembershipVerdict:
    """Judge ``h`` against the always-accurate, eventually-complete class:
    the lag-0 member of the accurate-after chain."""
    return _class_rule(FDSpec.always_accurate(), f).verdict(h)


def history_in_m(h: History, f: FailurePattern, strict_live: bool = True) -> MembershipVerdict:
    """Judge ``h`` against the full-foresight class: constrained observers see
    exactly the horizon-faulty set at every time point."""
    return _class_rule(FDSpec.foresight(strict_live), f).verdict(h)


def history_in_pk(h: History, f: FailurePattern, k: int) -> MembershipVerdict:
    """Judge ``h`` against the accurate-after-``k`` class.

    Safety: a live observer never suspects a process that was live at time
    ``k`` and is still live now.  Liveness: every faulty process is suspected
    by every correct observer over a nonempty suffix ending at the horizon.
    """
    return _class_rule(FDSpec.accurate_after(k), f).verdict(h)


def history_matches(spec: FDSpec, h: History, f: FailurePattern) -> MembershipVerdict:
    """Judge ``h`` against ``spec``'s class."""
    return _class_rule(spec, f).verdict(h)


def canonical_history(spec: FDSpec, f: FailurePattern) -> History:
    """The least-information member of the class for this pattern.

    * ``P``: suspect exactly the currently crashed processes.
    * ``M``: every cell is the horizon-faulty set.
    * ``Pk:<k>``: suspect the processes crashed now or by time ``k``.

    Every cell is filled, including cells of crashed observers.
    """
    return _class_rule(spec, f).canonical()


#: One cell rewrite of a canonical history: ``((observer, time), value)``.
_Rewrite = tuple[tuple[int, int], frozenset[int]]


def perturbed_histories(spec: FDSpec, f: FailurePattern, budget: int) -> list[History]:
    """The canonical history plus every variant within the deviation budget.

    A variant rewrites at most ``budget`` cells, each to any suspect set other
    than the canonical one, and is kept only if it is still a safe member of
    the class (``prefix_consistent``).  The order is deterministic: by number
    of rewritten cells, then by cell position, then by rewritten value.
    """
    return [h for _, h in _perturbations(spec, f, budget)]


def _perturbations(
    spec: FDSpec, f: FailurePattern, budget: int
) -> Iterator[tuple[tuple[_Rewrite, ...], History]]:
    """``perturbed_histories``, each history with the rewrites that build it
    from the canonical one, in cell order.

    Safety is a conjunction of per-cell conditions and the canonical history
    passes every one, so a variant is safe exactly when each rewritten cell
    is: only admissible values are ever built.
    """
    if budget < 0:
        raise DomainMismatch(f"negative deviation budget {budget}")
    rule = _class_rule(spec, f)
    base = rule.canonical()
    yield (), base
    if budget == 0:
        return
    cells = [(p, t) for p in range(f.n) for t in range(f.horizon + 1)]
    value_pool = _sorted_subsets(f.n)
    admissible = {
        (p, t): [
            v for v in value_pool if v != base.at(p, t) and rule.admits(p, t, v)
        ]
        for (p, t) in cells
    }
    for count in range(1, min(budget, len(cells)) + 1):
        for chosen in combinations(cells, count):
            for values in product(*(admissible[c] for c in chosen)):
                rewrites = tuple(zip(chosen, values))
                yield rewrites, base.with_cells(rewrites)


def initial_crash_scenario(f: FailurePattern) -> FailurePattern:
    """The pattern in which every eventually-faulty process is crashed from time 0."""
    faulty = f.faulty()
    return FailurePattern(f.n, f.horizon, tuple(faulty for _ in range(f.horizon + 1)))


def shift_pattern(f: FailurePattern) -> FailurePattern:
    """Advance the pattern one time point, holding the last cell at the horizon."""
    cells = tuple(
        f.crashed_at(min(t + 1, f.horizon)) for t in range(f.horizon + 1)
    )
    return FailurePattern(f.n, f.horizon, cells)


def shift_history(h: History) -> History:
    """Advance a history one time point, holding the last cell at the horizon."""
    return History.from_function(
        h.n, h.horizon, lambda p, t: h.at(p, min(t + 1, h.horizon))
    )
