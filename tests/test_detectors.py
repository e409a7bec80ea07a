"""Oracle classes: spec parsing, membership judgments, canonical histories."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fdlab import (
    DomainMismatch,
    FailurePattern,
    FDSpec,
    History,
    KOutOfRange,
    all_monotone_patterns,
    canonical_history,
    history_in_m,
    history_in_p,
    history_in_pk,
    history_matches,
    initial_crash_scenario,
    perturbed_histories,
    shift_history,
    shift_pattern,
)
from fdlab.detectors import _class_rule

from .oracles import (
    reference_canonical_history,
    reference_history_in_m,
    reference_history_in_p,
    reference_history_in_pk,
)


def spec_strategy():
    return st.one_of(
        st.just(FDSpec.always_accurate()),
        st.just(FDSpec.foresight()),
        st.just(FDSpec.foresight(False)),
        st.integers(min_value=0, max_value=5).map(FDSpec.accurate_after),
    )


class TestFDSpec:
    @settings(max_examples=30, deadline=None)
    @given(spec_strategy())
    def test_serialize_parse_round_trip(self, spec: FDSpec) -> None:
        assert FDSpec.parse(spec.serialize()) == spec

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.sampled_from(["P", "M", "M:correct", "Pk:", "M:"]).flatmap(
                lambda prefix: st.text(max_size=4).map(lambda rest: prefix + rest)
            ),
        )
    )
    def test_every_text_is_a_wire_name_or_refused(self, text: str) -> None:
        """A text names an oracle exactly when that oracle serializes to it."""
        try:
            spec = FDSpec.parse(text)
        except (DomainMismatch, KOutOfRange):
            return
        assert spec.serialize() == text

    def test_wire_names(self) -> None:
        assert FDSpec.always_accurate().serialize() == "P"
        assert FDSpec.foresight().serialize() == "M"
        assert FDSpec.foresight(strict_live=False).serialize() == "M:correct"
        assert FDSpec.accurate_after(2).serialize() == "Pk:2"

    def test_rejects_bad_specs(self) -> None:
        with pytest.raises(DomainMismatch):
            FDSpec.parse("Q")
        with pytest.raises(DomainMismatch):
            FDSpec.parse("Pk:two")
        for spelling in ("Pk: 1", "Pk:+1", "Pk:01", "Pk:\u0661", "Pk:1_0", " Pk:1", "M\n"):
            with pytest.raises(DomainMismatch):
                FDSpec.parse(spelling)
        with pytest.raises(KOutOfRange):
            FDSpec.parse("Pk:-1")
        with pytest.raises(KOutOfRange):
            FDSpec.accurate_after(-1)
        with pytest.raises(DomainMismatch):
            FDSpec("P", k=1)
        with pytest.raises(KOutOfRange):
            FDSpec("Pk")
        for kind, k in (("P", None), ("Pk", 1)):
            with pytest.raises(DomainMismatch):
                FDSpec(kind, k=k, marabout_strict_live=False)


class TestMembership:
    def test_canonical_histories_belong_to_their_class(self) -> None:
        for f in all_monotone_patterns(2, 3):
            p_verdict = history_in_p(canonical_history(FDSpec.always_accurate(), f), f)
            assert p_verdict.prefix_consistent and p_verdict.horizon_complete
            m_verdict = history_in_m(canonical_history(FDSpec.foresight(), f), f)
            assert m_verdict.prefix_consistent and m_verdict.horizon_complete
            for k in range(4):
                verdict = history_in_pk(
                    canonical_history(FDSpec.accurate_after(k), f), f, k
                )
                assert verdict.prefix_consistent and verdict.horizon_complete

    def test_accuracy_violation_is_reported_with_coordinates(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {})
        h = canonical_history(FDSpec.always_accurate(), f).with_cell(0, 1, {1})
        verdict = history_in_p(h, f)
        assert not verdict.prefix_consistent
        v = verdict.violations[0]
        assert (v.condition, v.observer, v.subject, v.time) == ("accuracy", 0, 1, 1)

    def test_completeness_is_a_liveness_debt_only(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {1: 0})
        empty = History.from_function(2, 2, lambda p, t: frozenset())
        verdict = history_in_p(empty, f)
        assert verdict.prefix_consistent
        assert not verdict.horizon_complete
        assert {v.condition for v in verdict.violations} == {"completeness"}

    def test_foresight_constrains_live_observers_exactly(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {1: 2})
        good = canonical_history(FDSpec.foresight(), f)
        assert history_in_m(good, f).prefix_consistent
        # a live-but-faulty observer's cell is constrained under the strict
        # reading and free under the loose one
        loose = good.with_cell(1, 0, frozenset())
        assert not history_in_m(loose, f).prefix_consistent
        assert history_in_m(loose, f, strict_live=False).prefix_consistent

    def test_pk_forgives_only_the_early_crashed(self) -> None:
        f = FailurePattern.from_crash_times(3, 3, {1: 0, 2: 2})
        h = canonical_history(FDSpec.accurate_after(0), f)
        # suspecting 1 (crashed by k=0) everywhere is fine; suspecting the
        # late-crashing 2 while it is still live is not
        assert history_in_pk(h, f, 0).prefix_consistent
        bad = h.with_cell(0, 1, {1, 2})
        verdict = history_in_pk(bad, f, 0)
        assert not verdict.prefix_consistent
        assert verdict.violations[0].condition == "late-accuracy"

    def test_pk_out_of_range(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {})
        h = canonical_history(FDSpec.always_accurate(), f)
        with pytest.raises(KOutOfRange):
            history_in_pk(h, f, 3)

    def test_dispatch_matches_direct_calls(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {0: 1})
        h = canonical_history(FDSpec.accurate_after(1), f)
        assert history_matches(FDSpec.accurate_after(1), h, f) == history_in_pk(h, f, 1)
        assert history_matches(FDSpec.always_accurate(), h, f) == history_in_p(h, f)

    def test_p_is_pk_at_lag_zero(self) -> None:
        """P and Pk:0 agree on the canonical history and on the membership of
        it and every one-cell rewrite of it, for every pattern with n <= 3 and
        horizon <= 3; only P's forbidden suspicions are named "accuracy"."""
        p, pk0 = FDSpec.always_accurate(), FDSpec.accurate_after(0)
        pairs = 0
        for n in (1, 2, 3):
            values = [frozenset(s) for r in range(n + 1) for s in combinations(range(n), r)]
            for horizon in range(4):
                for f in all_monotone_patterns(n, horizon):
                    base = canonical_history(p, f)
                    assert base == canonical_history(pk0, f)
                    histories = [base] + [
                        base.with_cell(q, t, value)
                        for q in range(n)
                        for t in range(horizon + 1)
                        for value in values
                        if value != base.at(q, t)
                    ]
                    for h in histories:
                        in_p, in_pk = history_in_p(h, f), history_in_pk(h, f, 0)
                        assert in_p.prefix_consistent == in_pk.prefix_consistent
                        assert in_p.horizon_complete == in_pk.horizon_complete
                        assert {v.condition for v in in_p.violations} <= {
                            "accuracy",
                            "completeness",
                        }
                        renamed = [
                            replace(v, condition="late-accuracy")
                            if v.condition == "accuracy"
                            else v
                            for v in in_p.violations
                        ]
                        assert renamed == list(in_pk.violations)
                        pairs += 1
        assert pairs == 17_186

    def test_classes_equal_their_first_statement(self) -> None:
        """Canonical histories and whole verdicts, violations in order, equal
        the references for P, M, M:correct and every Pk:k, on every pattern
        with n <= 3 and horizon <= 3, on each canonical history and every
        one-cell rewrite of it."""
        pairs = 0
        for n in (1, 2, 3):
            values = [frozenset(s) for r in range(n + 1) for s in combinations(range(n), r)]
            for horizon in range(4):
                judges = [
                    (FDSpec.always_accurate(), reference_history_in_p),
                    (FDSpec.foresight(), reference_history_in_m),
                    (
                        FDSpec.foresight(strict_live=False),
                        lambda h, f: reference_history_in_m(h, f, strict_live=False),
                    ),
                ] + [
                    (FDSpec.accurate_after(k), lambda h, f, k=k: reference_history_in_pk(h, f, k))
                    for k in range(horizon + 1)
                ]
                for f in all_monotone_patterns(n, horizon):
                    for spec, reference in judges:
                        base = canonical_history(spec, f)
                        assert base == reference_canonical_history(spec, f)
                        histories = [base] + [
                            base.with_cell(q, t, value)
                            for q in range(n)
                            for t in range(horizon + 1)
                            for value in values
                            if value != base.at(q, t)
                        ]
                        for h in histories:
                            assert history_matches(spec, h, f) == reference(h, f)
                            pairs += 1
        assert pairs == 112_688

    def test_admits_exactly_the_cells_without_violations(self) -> None:
        """``_ClassRule.admits`` holds exactly where ``cell_violations`` is
        empty, for P, M, M:correct and every Pk:k, on every pattern with
        n <= 3 and horizon <= 3, at every cell and every suspect set."""
        cells = admitted = 0
        for n in (1, 2, 3):
            values = [frozenset(s) for r in range(n + 1) for s in combinations(range(n), r)]
            for horizon in range(4):
                specs = [FDSpec.always_accurate(), FDSpec.foresight(), FDSpec.foresight(False)]
                specs += [FDSpec.accurate_after(k) for k in range(horizon + 1)]
                for f in all_monotone_patterns(n, horizon):
                    for spec in specs:
                        rule = _class_rule(spec, f)
                        for p in range(n):
                            for t in range(horizon + 1):
                                for value in values:
                                    admits = rule.admits(p, t, value)
                                    assert admits == (not rule.cell_violations(p, t, value))
                                    cells += 1
                                    admitted += admits
        assert (cells, admitted) == (128_148, 88_063)

    def test_shape_mismatch_raises(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {})
        h = History.from_function(2, 3, lambda p, t: frozenset())
        with pytest.raises(DomainMismatch):
            history_in_p(h, f)


class TestPerturbedHistories:
    def test_canonical_comes_first_and_all_members_are_safe(self) -> None:
        spec = FDSpec.always_accurate()
        for f in all_monotone_patterns(2, 2):
            members = perturbed_histories(spec, f, 1)
            assert members[0] == canonical_history(spec, f)
            for h in members:
                assert history_in_p(h, f).prefix_consistent

    def test_budget_is_monotone(self) -> None:
        spec = FDSpec.accurate_after(1)
        f = FailurePattern.from_crash_times(2, 2, {1: 1})
        small = perturbed_histories(spec, f, 1)
        large = perturbed_histories(spec, f, 2)
        assert set(small) <= set(large)
        assert len(set(large)) == len(large)

    def test_deterministic_order(self) -> None:
        spec = FDSpec.always_accurate()
        f = FailurePattern.from_crash_times(2, 2, {0: 1})
        assert perturbed_histories(spec, f, 2) == perturbed_histories(spec, f, 2)

    def test_budget_past_the_cell_count_adds_nothing(self) -> None:
        """No variant rewrites more cells than the history has (2 at n=1,
        h=1), so a huge budget lists what budget 2 lists, without looping
        over the budget."""
        for f in all_monotone_patterns(1, 1):
            for spec in (FDSpec.always_accurate(), FDSpec.foresight(strict_live=False)):
                assert perturbed_histories(spec, f, 10**30) == perturbed_histories(spec, f, 2)

    def test_negative_budget_rejected(self) -> None:
        f = FailurePattern.from_crash_times(2, 2, {})
        with pytest.raises(DomainMismatch):
            perturbed_histories(FDSpec.always_accurate(), f, -1)

    def test_strict_foresight_admits_only_dead_cell_variation(self) -> None:
        spec = FDSpec.foresight()
        f = FailurePattern.from_crash_times(2, 2, {1: 1})
        faulty = f.faulty()
        for h in perturbed_histories(spec, f, 2):
            for t in range(3):
                for p in sorted(f.live_at(t)):
                    assert h.at(p, t) == faulty


class TestScenarioMaps:
    def test_initial_crash_scenario_front_loads_faults(self) -> None:
        f = FailurePattern.from_crash_times(3, 3, {1: 2, 2: 3})
        f0 = initial_crash_scenario(f)
        assert f0.faulty() == f.faulty()
        for t in range(4):
            assert f0.crashed_at(t) == f.faulty()

    def test_shift_pattern_advances_and_clamps(self) -> None:
        f = FailurePattern.from_crash_times(2, 3, {0: 2})
        g = shift_pattern(f)
        assert g.crashed_at(0) == frozenset()
        assert g.crashed_at(1) == frozenset({0})
        assert g.crashed_at(3) == frozenset({0})

    def test_shift_history_advances_and_clamps(self) -> None:
        h = History.from_function(1, 2, lambda p, t: frozenset({0}) if t == 2 else frozenset())
        g = shift_history(h)
        assert g.at(0, 0) == frozenset()
        assert g.at(0, 1) == frozenset({0})
        assert g.at(0, 2) == frozenset({0})

    def test_shift_preserves_late_accuracy_membership(self) -> None:
        """Histories of the accurate-after-(k+1) class, advanced one time
        point together with their pattern, land in the accurate-after-k class
        — the fact the delay-wrapper history clause rests on."""
        for f in all_monotone_patterns(2, 3):
            shifted_f = shift_pattern(f)
            for k in range(3):
                for h in perturbed_histories(FDSpec.accurate_after(k + 1), f, 1):
                    assert history_in_pk(shift_history(h), shifted_f, k).prefix_consistent
