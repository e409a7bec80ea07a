"""Exception types shared across the package.

Every error raised deliberately by the library derives from :class:`FdlabError`
so callers (and the CLI) can distinguish usage problems from genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "FdlabError",
    "MismatchedPreState",
    "NoSuchInTransitMessage",
    "DomainMismatch",
    "KOutOfRange",
    "UncoveredState",
    "AlphabetMismatch",
    "BudgetExceeded",
    "NotSoSRun",
    "FaultyStepPresent",
    "MissingNoOpPrefix",
    "NonPositiveTime",
]


class FdlabError(Exception):
    """Base class for all deliberate library errors."""


class MismatchedPreState(FdlabError):
    """A step's pre-state disagrees with the acting process's current state."""


class NoSuchInTransitMessage(FdlabError):
    """A step receives a message that is not currently in transit to the actor."""


class DomainMismatch(FdlabError):
    """Two model objects disagree on the process set or the time horizon."""


class KOutOfRange(FdlabError):
    """A stabilization index is negative or exceeds the time horizon."""


class UncoveredState(FdlabError):
    """An interpretation has no image for a state it is asked to map."""


class AlphabetMismatch(FdlabError):
    """A value lies outside the declared observable alphabet."""


class BudgetExceeded(FdlabError):
    """An enumeration's a-priori size estimate exceeds the configured hard cap."""


class NotSoSRun(FdlabError):
    """A run handed to the stall-stripping mapping has a faulty process sending."""


class FaultyStepPresent(FdlabError):
    """A run expected to contain only steps of correct processes has others."""


class MissingNoOpPrefix(FdlabError):
    """A run of a step-delaying algorithm lacks the leading no-op step."""


class NonPositiveTime(FdlabError):
    """A time shift would move a step to a negative time point."""
