"""Oracle classes: specifications, history membership, canonical histories.

Three oracle classes are supported, written with their conventional short
names on the wire:

* ``P`` — never suspects a live process (checked at cells of live observers),
  and every crashed process ends up permanently suspected by every surviving
  observer.  This is ``Pk:0`` and is computed as such.
* ``M`` — tells every live process exactly the set of processes that will
  have crashed by the horizon, at every time point.  With
  ``marabout_strict_live`` false only surviving observers are constrained.
* ``Pk:<k>`` — perfect after time ``k``: a process that is live at time ``k``
  and still live now is never suspected by a live observer, and crashed
  processes end up permanently suspected.

Membership is split into a safety part (``prefix_consistent``: no forbidden
suspicion anywhere) and a liveness part (``horizon_complete``: additionally,
every required permanent suspicion has materialized by the horizon, i.e.
holds over a nonempty suffix ending at the horizon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

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

#: Wire names of the three oracle kinds.
KIND_ALWAYS_ACCURATE = "P"
KIND_FORESIGHT = "M"
KIND_ACCURATE_AFTER = "Pk"

_KINDS = (KIND_ALWAYS_ACCURATE, KIND_FORESIGHT, KIND_ACCURATE_AFTER)


@dataclass(frozen=True)
class FDSpec:
    """Which oracle class a history is judged against.

    ``k`` is meaningful only for the ``Pk`` kind; ``marabout_strict_live``
    only for the ``M`` kind (true = constrain all live observers, false =
    constrain surviving observers only).
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
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FDSpec":
        text = text.strip()
        if text == KIND_ALWAYS_ACCURATE:
            return cls.always_accurate()
        if text == KIND_FORESIGHT:
            return cls.foresight()
        if text.startswith("Pk:"):
            try:
                k = int(text[3:])
            except ValueError as exc:
                raise DomainMismatch(f"bad stabilization time in {text!r}") from exc
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


def _check_shapes(h: History, f: FailurePattern) -> None:
    if h.n != f.n or h.horizon != f.horizon:
        raise DomainMismatch(
            f"history is over {h.n} processes to horizon {h.horizon}, "
            f"pattern over {f.n} to {f.horizon}"
        )


def history_in_p(h: History, f: FailurePattern) -> MembershipVerdict:
    """Judge ``h`` against the always-accurate, eventually-complete class:
    the lag-0 member of the accurate-after chain."""
    return _accurate_after(h, f, 0, "accuracy")


def history_in_m(h: History, f: FailurePattern, strict_live: bool = True) -> MembershipVerdict:
    """Judge ``h`` against the full-foresight class: constrained observers see
    exactly the horizon-faulty set at every time point."""
    _check_shapes(h, f)
    faulty = f.faulty()
    violations: list[MembershipViolation] = []
    for t in range(f.horizon + 1):
        observers = f.live_at(t) if strict_live else f.correct()
        for observer in sorted(observers):
            cell = h.at(observer, t)
            for subject in sorted(cell - faulty):
                violations.append(MembershipViolation("foresight-spurious", observer, subject, t))
            for subject in sorted(faulty - cell):
                violations.append(MembershipViolation("foresight-missing", observer, subject, t))
    ok = not violations
    return MembershipVerdict(ok, ok, tuple(violations))


def history_in_pk(h: History, f: FailurePattern, k: int) -> MembershipVerdict:
    """Judge ``h`` against the accurate-after-``k`` class.

    Safety: a live observer never suspects a process that was live at time
    ``k`` and is still live now.  Liveness: every faulty process is suspected
    by every correct observer over a nonempty suffix ending at the horizon.
    """
    return _accurate_after(h, f, k, "late-accuracy")


def _check_k(k: int, f: FailurePattern) -> None:
    if k < 0 or k > f.horizon:
        raise KOutOfRange(f"stabilization time k={k} outside horizon 0..{f.horizon}")


def _accurate_after(h: History, f: FailurePattern, k: int, accuracy: str) -> MembershipVerdict:
    """Membership in the accurate-after-``k`` class, forbidden suspicions
    named ``accuracy``.  The completeness debt: every faulty process is
    suspected by every correct observer over a nonempty suffix ending at the
    horizon (equivalently, at the horizon)."""
    _check_shapes(h, f)
    _check_k(k, f)
    protected_base = f.live_at(k)
    prefix: list[MembershipViolation] = []
    for t in range(f.horizon + 1):
        live = f.live_at(t)
        protected = protected_base & live
        for observer in sorted(live):
            for subject in sorted(h.at(observer, t) & protected):
                prefix.append(MembershipViolation(accuracy, observer, subject, t))
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


def history_matches(spec: FDSpec, h: History, f: FailurePattern) -> MembershipVerdict:
    """Dispatch membership judgment on an oracle spec."""
    if spec.kind == KIND_ALWAYS_ACCURATE:
        return history_in_p(h, f)
    if spec.kind == KIND_FORESIGHT:
        return history_in_m(h, f, strict_live=spec.marabout_strict_live)
    assert spec.k is not None
    return history_in_pk(h, f, spec.k)


def canonical_history(spec: FDSpec, f: FailurePattern) -> History:
    """The least-information member of the class for this pattern.

    * ``P``: suspect exactly the currently crashed processes.
    * ``M``: every cell is the horizon-faulty set.
    * ``Pk:<k>``: suspect the processes crashed now or by time ``k``.

    Every cell is filled, including cells of crashed observers.
    """
    if spec.kind == KIND_FORESIGHT:
        faulty = f.faulty()
        return History.from_function(f.n, f.horizon, lambda p, t: faulty)
    k = 0 if spec.kind == KIND_ALWAYS_ACCURATE else spec.k
    assert k is not None
    _check_k(k, f)
    early = f.crashed_at(k)
    return History.from_function(f.n, f.horizon, lambda p, t: f.crashed_at(t) | early)


def perturbed_histories(spec: FDSpec, f: FailurePattern, budget: int) -> list[History]:
    """The canonical history plus every variant within the deviation budget.

    A variant rewrites at most ``budget`` cells, each to any suspect set other
    than the canonical one, and is kept only if it is still a safe member of
    the class (``prefix_consistent``).  The order is deterministic: by number
    of rewritten cells, then by cell position, then by rewritten value.
    """
    if budget < 0:
        raise DomainMismatch(f"negative deviation budget {budget}")
    base = canonical_history(spec, f)
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
                if history_matches(spec, variant, f).prefix_consistent:
                    out.append(variant)
    return out


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
