"""Interpretations, the stutter preorder, agreement predicates, hygiene checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from fdlab import (
    AlphabetMismatch,
    ConsensusPredicate,
    FailurePattern,
    Interpretation,
    StrongConsensusPredicate,
    UncoveredState,
    agreement_state,
    check_crash_time_independence,
    check_finite_stuttering,
    eval_consensus,
    eval_strong_consensus,
    interpret_config,
    is_one_stutter,
    is_stutter,
    stutter_expansions,
)
from .oracles import (
    PlantedLengthSensitive,
    PlantedTimeDependent,
    one_stutter_successors,
    stutter_chain_oracle,
)


def rows(letters: str) -> tuple[tuple[str, ...], ...]:
    """Shorthand: 'ab cb' -> (('a','b'), ('c','b'))."""
    return tuple(tuple(group) for group in letters.split())


class TestInterpretation:
    def build(self) -> Interpretation:
        return Interpretation(
            ({"x": "a", "y": "b"}, {"x": "a", "y": "b"}),
            sigma=frozenset("ab"),
            sigma_init=frozenset("a"),
        )

    def test_lookup_and_config(self) -> None:
        interp = self.build()
        assert interp.of(0, "x") == "a"
        assert interpret_config(("x", "y"), interp) == ("a", "b")

    def test_uncovered_state(self) -> None:
        with pytest.raises(UncoveredState):
            self.build().of(0, "z")

    def test_letter_outside_alphabet(self) -> None:
        broken = self.build().replaced(0, "x", "q")
        with pytest.raises(AlphabetMismatch):
            broken.of(0, "x")

    def test_initial_alphabet_must_be_subset(self) -> None:
        with pytest.raises(AlphabetMismatch):
            Interpretation(({},), sigma=frozenset("a"), sigma_init=frozenset("b"))

    def test_initial_cover_check(self) -> None:
        interp = self.build()
        interp.check_initial_cover(lambda i: ("x",))
        with pytest.raises(AlphabetMismatch):
            interp.check_initial_cover(lambda i: ("x", "y"))


class TestOneStutter:
    def test_interior_insertion_mixes_neighbors(self) -> None:
        w = rows("ab cd")
        assert is_one_stutter(w, rows("ab ad cd"))
        assert is_one_stutter(w, rows("ab cb cd"))
        assert is_one_stutter(w, rows("ab cd cd"))
        assert not is_one_stutter(w, rows("ab dd cd"))

    def test_boundary_insertion_copies_the_end_row(self) -> None:
        w = rows("ab cd")
        assert is_one_stutter(w, rows("ab ab cd"))
        assert is_one_stutter(w, rows("ab cd cd"))
        assert not is_one_stutter(w, rows("cb ab cd"))
        assert is_one_stutter(rows("ab"), rows("ab ab"))

    def test_length_discipline(self) -> None:
        w = rows("ab cd")
        assert not is_one_stutter(w, w)
        assert not is_one_stutter(w, rows("ab ab ab cd"))
        assert not is_one_stutter((), rows("ab"))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
            min_size=1,
            max_size=4,
        )
    )
    def test_agrees_with_successor_oracle(self, base: list[tuple[str, str]]) -> None:
        w = tuple(base)
        succs = one_stutter_successors(w)
        for candidate in succs:
            assert is_one_stutter(w, candidate)
        # nothing of the right length outside the successor set is accepted
        for candidate in succs:
            mutated = candidate[:1] + (("z", "z"),) + candidate[2:]
            if mutated not in succs:
                assert not is_one_stutter(w, mutated)


class TestStutterDP:
    def test_reflexive(self) -> None:
        assert is_stutter(rows("ab cd"), rows("ab cd"))

    def test_rejects_shorter_or_empty(self) -> None:
        assert not is_stutter(rows("ab cd"), rows("ab"))
        assert not is_stutter((), rows("ab"))

    def test_mixed_widths_raise(self) -> None:
        with pytest.raises(AlphabetMismatch):
            is_stutter(rows("ab"), (("a",),))

    def test_chain_of_two_insertions(self) -> None:
        w = rows("ab cd")
        assert is_stutter(w, rows("ab ad cd cd"))
        assert is_stutter(w, rows("ab ab ad cd"))
        assert not is_stutter(w, rows("ab dd dd cd"))

    def test_boundary_blocks_must_copy_exactly(self) -> None:
        assert is_stutter(rows("aa"), rows("aa aa aa"))
        assert not is_stutter(rows("ab cd"), rows("ad ab cd"))
        assert not is_stutter(rows("ab cd"), rows("ab cd ad"))

    def test_interior_gap_must_switch_monotonically(self) -> None:
        # a component may move from the left value to the right value once,
        # never back
        assert not is_stutter(rows("ab cb"), rows("ab cb ab"))
        assert not is_stutter(rows("ab cb"), rows("ab cb ab cb"))
        assert is_stutter(rows("ab cd"), rows("ab cb cd"))
        assert is_stutter(rows("ab cd ab"), rows("ab cd cd ab ab"))

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from("ab")),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=2),
        st.randoms(),
    )
    def test_random_insertion_chains_are_accepted(
        self, base: list[tuple[str, str]], extra: int, rng
    ) -> None:
        w = tuple(base)
        current = w
        for _ in range(extra):
            current = rng.choice(sorted(one_stutter_successors(current)))
        assert is_stutter(w, current)
        assert stutter_chain_oracle(w, current)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from("ab")),
            min_size=1,
            max_size=2,
        ),
        st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from("ab")),
            min_size=1,
            max_size=4,
        ),
    )
    def test_agrees_with_chain_oracle(
        self, base: list[tuple[str, str]], target: list[tuple[str, str]]
    ) -> None:
        w, w_prime = tuple(base), tuple(target)
        assert is_stutter(w, w_prime) == stutter_chain_oracle(w, w_prime)


class TestStutterExpansions:
    def test_starts_with_the_base_and_is_deterministic(self) -> None:
        w = rows("ab cd")
        first = list(stutter_expansions(w, 4))
        second = list(stutter_expansions(w, 4))
        assert first == second
        assert first[0] == w

    def test_yields_exactly_the_closure(self) -> None:
        from .oracles import stutter_closure

        w = rows("ab cd")
        produced = set(stutter_expansions(w, 4))
        assert produced == stutter_closure(w, 4)

    def test_everything_yielded_is_accepted_by_the_dp(self) -> None:
        w = rows("ab cd")
        for w_prime in stutter_expansions(w, 5):
            assert is_stutter(w, w_prime)


class TestAgreementPredicates:
    F_NONE = FailurePattern.from_crash_times(2, 1, {})
    F_ONE = FailurePattern.from_crash_times(2, 1, {1: 0})

    def test_letter_parsing(self) -> None:
        assert agreement_state("0|-") == (0, None)
        assert agreement_state("1|0") == (1, 0)
        with pytest.raises(AlphabetMismatch):
            agreement_state("2|-")

    def test_agreement_and_validity(self) -> None:
        assert eval_consensus((("0|-", "1|-"), ("0|0", "1|0")), self.F_NONE)
        # decisions must agree
        assert not eval_consensus((("0|-", "1|-"), ("0|0", "1|1")), self.F_NONE)
        # decisions must be someone's proposal
        assert not eval_consensus((("0|-", "0|-"), ("0|1", "0|1")), self.F_NONE)
        # proposals must stay constant
        assert not eval_consensus((("0|-", "1|-"), ("1|-", "1|-")), self.F_NONE)
        # decisions are write-once
        assert not eval_consensus(
            (("0|-", "1|-"), ("0|0", "1|-"), ("0|-", "1|-"), ("0|0", "1|0")),
            self.F_NONE,
        )

    def test_termination_scope_is_the_survivor_set(self) -> None:
        w = (("0|-", "1|-"), ("0|0", "1|-"))
        assert not eval_consensus(w, self.F_NONE)
        assert eval_consensus(w, self.F_ONE)

    def test_strong_consensus_anchors_to_a_survivor(self) -> None:
        w = (("0|-", "1|-"), ("0|1", "1|1"))
        assert eval_consensus(w, self.F_NONE)
        assert eval_strong_consensus(w, self.F_NONE)
        # with process 1 gone, deciding 1 is not anchored to any survivor
        w_partial = (("0|-", "1|-"), ("0|1", "1|-"))
        assert not eval_strong_consensus(w_partial, self.F_ONE)
        w_own = (("0|-", "1|-"), ("0|0", "1|-"))
        assert eval_strong_consensus(w_own, self.F_ONE)

    def test_undecided_distinguishes_timeouts_from_violations(self) -> None:
        pred = ConsensusPredicate()
        timeout = (("0|-", "1|-"),)
        assert not pred.evaluate(timeout, self.F_NONE)
        assert pred.undecided(timeout, self.F_NONE)
        broken = (("0|-", "1|-"), ("0|0", "1|1"))
        assert not pred.evaluate(broken, self.F_NONE)
        assert not pred.undecided(broken, self.F_NONE)
        strong = StrongConsensusPredicate()
        unanchored = (("0|-", "1|-"), ("0|1", "1|-"))
        assert not strong.undecided(unanchored, self.F_ONE)
        assert strong.undecided((("0|-", "1|-"),), self.F_ONE)


class TestHygieneChecks:
    def test_planted_time_dependence_is_caught(self) -> None:
        witness = check_crash_time_independence(PlantedTimeDependent(), 2, 2, 1)
        assert witness is not None
        assert witness.pattern_a.correct() == witness.pattern_b.correct()
        a = PlantedTimeDependent().evaluate(witness.w, witness.pattern_a)
        b = PlantedTimeDependent().evaluate(witness.w, witness.pattern_b)
        assert a != b

    def test_planted_length_sensitivity_is_caught(self) -> None:
        witness = check_finite_stuttering(PlantedLengthSensitive(), 2, 1, 2, 3)
        assert witness is not None
        assert is_stutter(witness.w, witness.w_prime)
        a = PlantedLengthSensitive().evaluate(witness.w, witness.pattern)
        b = PlantedLengthSensitive().evaluate(witness.w_prime, witness.pattern)
        assert a != b

    def test_real_predicates_are_clean_at_small_bounds(self) -> None:
        for pred in (ConsensusPredicate(), StrongConsensusPredicate()):
            assert check_crash_time_independence(pred, 2, 2, 2) is None
            assert check_finite_stuttering(pred, 2, 1, 2, 3) is None
