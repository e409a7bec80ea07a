"""Both preservation claims, fast path against slow path, on random machines.

Every other fast-equals-thorough test and memo audit runs one of the two
built-in machines, whose letter sequences are few.  Here a seeded search
draws small ``TableAlgorithm`` machines: four states per process, two of
them initial (showing ``0|-`` and ``1|-``) and two showing random agreement
letters, two payloads per process, and each table input enabled with
probability 0.75, with a random post state and dispatch.  Each machine is
checked under both claims with its derived interpretation, and again with
one letter of it changed, at any state, so that failures reach subtrees the
memos serve.  The fast report must equal the thorough one, the report with
memos the one without, and every subtree the memos would serve the first one
walked under its key, and read only what its key fixes.  The search is seeded and bounded, so every run of the
suite tries the same machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from fdlab import (
    ConsensusPredicate,
    EnumerationBounds,
    FDSpec,
    Interpretation,
    StrongConsensusPredicate,
    check_solves,
    counterexample_probe,
    verify_das,
    verify_sos,
)
from fdlab import harness
from fdlab.machines import TableAlgorithm
from fdlab.problems import AGREEMENT_ALPHABET, AGREEMENT_INITIAL_ALPHABET, ProblemPredicate
from fdlab.transforms import derive_interpretation_das, derive_interpretation_sos

from .oracles import reference_report_docs
from .test_harness import (
    READ_SET_BOUNDS,
    _AuditMemo,
    _check_table_shape,
    _ReadSetAudit,
    _recorded,
    _untimed,
)

STATES = ("s0", "s1", "s2", "s3")
INITIALS = ("s0", "s1")
PAYLOADS = ("a", "b")
LETTERS = sorted(AGREEMENT_ALPHABET)
#: each claim's derivation of the wrapper's interpretation
DERIVE = {"sos": derive_interpretation_sos, "das": derive_interpretation_das}


@dataclass(frozen=True)
class Machine:
    """A random machine with its interpretation, its problem, and where
    to change one derived letter: ``(process, state index, letter shift)``."""

    alg: TableAlgorithm
    interp: Interpretation
    predicate: ProblemPredicate
    sabotage: tuple[int, int, int]

    def derived(self, claim: str, sabotaged: bool) -> Interpretation | None:
        """The claim's derived interpretation with one letter changed, or
        ``None`` (derive it) when not ``sabotaged``."""
        if not sabotaged:
            return None
        derived = DERIVE[claim](self.interp, self.alg)
        i, index, shift = self.sabotage
        state = sorted(derived.maps[i], key=repr)[index]
        letter = LETTERS[(LETTERS.index(derived.of(i, state)) + shift) % len(LETTERS)]
        return derived.replaced(i, state, letter)


@st.composite
def machines(draw, n: int) -> Machine:
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    subsets = [frozenset(c) for size in range(n + 1) for c in combinations(range(n), size)]
    tables = []
    maps = []
    for i in range(n):
        peers = [j for j in range(n) if j != i]
        receipts = [None] + [(j, payload) for j in peers for payload in PAYLOADS]
        table = {}
        for state in STATES:
            for receipt in receipts:
                for suspects in subsets:
                    if rng.random() < 0.75:
                        dispatch = (
                            (rng.choice(peers), rng.choice(PAYLOADS))
                            if peers and rng.random() < 0.5
                            else None
                        )
                        table[state, receipt, suspects] = (rng.choice(STATES), dispatch)
        tables.append(table)
        maps.append({"s0": "0|-", "s1": "1|-", "s2": rng.choice(LETTERS), "s3": rng.choice(LETTERS)})
    alg = TableAlgorithm("random", n, (INITIALS,) * n, tuple(tables), (PAYLOADS,) * n)
    interp = Interpretation(tuple(maps), AGREEMENT_ALPHABET, AGREEMENT_INITIAL_ALPHABET)
    predicate = rng.choice([ConsensusPredicate(), StrongConsensusPredicate()])
    # a derived map holds every state and one wrapper state per initial state
    states = len(STATES) + len(INITIALS)
    sabotage = (rng.randrange(n), rng.randrange(states), rng.randrange(1, len(LETTERS)))
    return Machine(alg, interp, predicate, sabotage)


def _report(
    machine: Machine, claim: str, sabotaged: bool, bounds: EnumerationBounds, thorough=False
) -> dict:
    """The claim's report (the delay claim's at k = 0) without its timing and
    its ``thorough`` flag."""
    args = (machine.alg, machine.interp, machine.predicate)
    derived = machine.derived(claim, sabotaged)
    if claim == "sos":
        report = verify_sos(*args, bounds, derived_interp=derived, thorough=thorough)
    else:
        report = verify_das(*args, 0, bounds, derived_interp=derived, thorough=thorough)
    doc = report.to_dict()
    del doc["elapsed_seconds"], doc["thorough"]
    return doc


# A machine is drawn from one seed, and a smaller seed is no smaller machine,
# so shrinking would only delay the report of the first failing machine.
SETTINGS = settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
TWO = EnumerationBounds(n=2, horizon=2, max_steps=3, history_budget=1)
THREE = EnumerationBounds(n=3, horizon=2, max_steps=3)
SOLVES = EnumerationBounds(n=2, horizon=2, max_steps=3, history_budget=1, fairness_window=2)


@SETTINGS
@given(machines(2))
def test_fast_equals_thorough_on_random_machines(machine: Machine) -> None:
    """Whole reports minus timing, every recorded failure included."""
    for claim in DERIVE:
        for sabotaged in (False, True):
            fast = _report(machine, claim, sabotaged, TWO)
            assert fast == _report(machine, claim, sabotaged, TWO, thorough=True), claim


@SETTINGS
@given(machines(3))
def test_memo_on_equals_memo_off_on_random_machines(machine: Machine) -> None:
    """At n = 3 both memos hit across patterns and window offsets, and the
    stall memo across initial states too; no report may depend on a hit."""
    cases = [(claim, sabotaged) for claim in DERIVE for sabotaged in (False, True)]
    memoized = [_report(machine, claim, sabotaged, THREE) for claim, sabotaged in cases]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness._TreeWalker, "memo_view", lambda self: None)
        assert [_report(machine, claim, sabotaged, THREE) for claim, sabotaged in cases] == memoized


@SETTINGS
@given(machines(3))
def test_equal_memo_keys_mean_equal_subtrees_on_random_machines(machine: Machine) -> None:
    """Wherever a memo would be consulted, one audit memo for the whole call
    walks the subtree anyway and compares it with every earlier subtree
    under the same key, for both claims, clean and sabotaged."""
    memo_view = harness._TreeWalker.memo_view
    for claim in DERIVE:
        for sabotaged in (False, True):
            audit = _AuditMemo()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    harness._TreeWalker,
                    "memo_view",
                    lambda self: None if memo_view(self) is None else audit,
                )
                _report(machine, claim, sabotaged, THREE)


@SETTINGS
@given(machines(2))
def test_solves_equals_the_reference_scan_on_random_machines(machine: Machine) -> None:
    """``check_solves``, with and without quiescence, and the probe report
    what a from-scratch scan of every fair run reports, under both
    agreement predicates."""
    alg, interp, fd = machine.alg, machine.interp, FDSpec.always_accurate()
    for predicate in (ConsensusPredicate(), StrongConsensusPredicate()):
        lax, quiescent, probe = reference_report_docs(alg, fd, interp, predicate, SOLVES)
        assert _untimed(check_solves(alg, fd, interp, predicate, SOLVES)) == lax
        assert (
            _untimed(check_solves(alg, fd, interp, predicate, SOLVES, require_quiescence=True))
            == quiescent
        )
        assert _untimed(counterexample_probe(alg, fd, interp, predicate, SOLVES)) == probe


@SETTINGS
@given(machines(3))
def test_memoized_walks_read_only_what_their_keys_fix_on_random_machines(
    machine: Machine,
) -> None:
    """Every subtree a memo would store reads only what its key fixes, for
    both claims, clean and sabotaged (see ``_ReadSetAudit``)."""
    with pytest.MonkeyPatch.context() as patch:
        audit = _ReadSetAudit(patch)
        for claim in DERIVE:
            for sabotaged in (False, True):
                _report(machine, claim, sabotaged, READ_SET_BOUNDS)
    assert not audit.frames


@SETTINGS
@given(machines(3))
def test_child_tables_equal_the_reference_expansion_on_random_machines(machine: Machine) -> None:
    """Each claim's child table holds the from-scratch expansion of every
    node it was asked for, and interns nothing an inner expansion does not
    reach (see ``_check_table_shape``)."""
    with pytest.MonkeyPatch.context() as patch:
        trees = _recorded(patch)
        for claim in DERIVE:
            _report(machine, claim, False, THREE)
    assert len(trees) == 2
    for tree in trees:
        _check_table_shape(tree)
