"""Unit tests for the exhaustive enumeration and checking harness."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

from fdlab import (
    DEFAULT_RUN_CAP,
    ConsensusPredicate,
    EnumerationBounds,
    FDSpec,
    Interpretation,
    StrongConsensusPredicate,
    ValidationMode,
    builtin_algorithm,
    check_solves,
    counterexample_probe,
    enumerate_runs,
    interpret_run,
    validate_run,
    verify_das,
    verify_sos,
)
from fdlab import harness
from fdlab.detectors import perturbed_histories
from fdlab.errors import BudgetExceeded, DomainMismatch, KOutOfRange, UncoveredState
from fdlab.harness import (
    RUN_CAP_ENV_VAR,
    all_monotone_patterns,
    estimate_run_families,
    history_groups,
    init_combinations,
)
from fdlab.traces import canonical_json, run_from_doc
from fdlab.transforms import DelayState, StallState, derive_interpretation_sos

from .oracles import (
    PlantedLengthSensitive,
    reference_history_groups,
    reference_perturbed_histories,
    reference_report_docs,
)

ALG, INTERP, PREDICATE = builtin_algorithm("flood-consensus-p", 2)
FD = FDSpec.always_accurate()


class TestBounds:
    def test_rejects_impossible_shapes(self) -> None:
        with pytest.raises(DomainMismatch):
            EnumerationBounds(n=0, horizon=2, max_steps=2)
        with pytest.raises(DomainMismatch):
            EnumerationBounds(n=2, horizon=-1, max_steps=2)
        with pytest.raises(DomainMismatch):
            EnumerationBounds(n=2, horizon=2, max_steps=-1)
        with pytest.raises(DomainMismatch):
            EnumerationBounds(n=2, horizon=2, max_steps=2, history_budget=-1)
        with pytest.raises(DomainMismatch, match="fairness window"):
            EnumerationBounds(n=2, horizon=2, max_steps=3, fairness_window=0)
        with pytest.raises(DomainMismatch, match="fairness window"):
            EnumerationBounds(n=2, horizon=2, max_steps=3, fairness_window=-1)
        with pytest.raises(DomainMismatch, match="run cap"):
            EnumerationBounds(n=2, horizon=2, max_steps=2, run_cap=-1)

    def test_cap_resolution_order(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """Explicit cap beats the environment, which beats the default."""
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=2)
        monkeypatch.delenv(RUN_CAP_ENV_VAR, raising=False)
        assert bounds.resolved_cap() == DEFAULT_RUN_CAP
        monkeypatch.setenv(RUN_CAP_ENV_VAR, "123")
        assert bounds.resolved_cap() == 123
        for malformed in ("abc", "", "-5", "1e6", "9" * 5000, "\u0663"):
            monkeypatch.setenv(RUN_CAP_ENV_VAR, malformed)
            with pytest.raises(DomainMismatch, match=RUN_CAP_ENV_VAR):
                bounds.resolved_cap()
        capped = EnumerationBounds(n=2, horizon=2, max_steps=2, run_cap=7)
        assert capped.resolved_cap() == 7

    def test_dict_form_reports_the_resolved_cap(self) -> None:
        bounds = EnumerationBounds(n=2, horizon=3, max_steps=4, run_cap=99)
        d = bounds.to_dict()
        assert d["run_cap"] == 99
        assert d["mode"] == "prefix-consistent"
        assert d["patterns"] is None


class TestUniverses:
    def test_monotone_pattern_count(self) -> None:
        """One crash time (or never) per process: (horizon + 2) ** n."""
        assert len(all_monotone_patterns(2, 3)) == 25
        assert len(all_monotone_patterns(3, 1)) == 27

    def test_patterns_are_monotone_and_start_crash_free(self) -> None:
        patterns = all_monotone_patterns(2, 3)
        assert patterns[0].crashed_at(3) == frozenset()
        for f in patterns:
            for t in range(3):
                assert f.crashed_at(t) <= f.crashed_at(t + 1)

    def test_init_combinations_cover_the_product(self) -> None:
        combos = init_combinations(ALG)
        assert len(combos) == 4
        assert len({tuple(s.value for s in c) for c in combos}) == 4

    def test_family_estimate_matches_the_closed_form(self) -> None:
        b0 = EnumerationBounds(n=2, horizon=3, max_steps=4)
        assert estimate_run_families(b0, inits_count=4) == 25 * 1 * 4
        b1 = EnumerationBounds(n=2, horizon=3, max_steps=4, history_budget=1)
        cells, alternatives = 2 * 4, 2**2 - 1
        assert estimate_run_families(b1, inits_count=4) == 25 * (1 + cells * alternatives) * 4

    def test_estimate_dominates_reality(self) -> None:
        """The a-priori bound is an upper bound on actual families."""
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=2, history_budget=1)
        actual = sum(
            len(perturbed_histories(FD, f, 1)) * 4
            for f in all_monotone_patterns(2, 2)
        )
        assert actual <= estimate_run_families(bounds, inits_count=4)


class TestHistoryGroups:
    def test_members_partition_the_budgeted_histories(self) -> None:
        for pattern in all_monotone_patterns(2, 2):
            groups = history_groups(FD, pattern, 1)
            members = [h for _, group in groups for h in group]
            assert len(members) == len(perturbed_histories(FD, pattern, 1))
            assert len({id(h) for h in members}) == len(members)

    def test_members_agree_wherever_someone_is_alive(self) -> None:
        for pattern in all_monotone_patterns(2, 2):
            for rep, group in history_groups(FD, pattern, 1):
                assert rep is group[0]
                for h in group:
                    for t in range(pattern.horizon + 1):
                        for p in pattern.live_at(t):
                            assert h.at(p, t) == rep.at(p, t)


#: (n, horizon, largest budget) of the history-layer grids
HISTORY_GRID = [
    pytest.param(n, h, budget, id=f"n{n}-h{h}")
    for n, horizons, budget in ((1, 5, 2), (2, 5, 2), (3, 4, 1))
    for h in range(horizons)
]


def _oracle_specs(horizon: int) -> list[FDSpec]:
    return [FDSpec.always_accurate(), FDSpec.foresight(), FDSpec.foresight(strict_live=False)] + [
        FDSpec.accurate_after(k) for k in range(horizon + 1)
    ]


class TestHistoryReferences:
    @pytest.mark.parametrize("n, horizon, budget", HISTORY_GRID)
    def test_generator_and_groups_equal_the_references(
        self, n: int, horizon: int, budget: int
    ) -> None:
        """The constructive generator lists what candidate-and-test kept, in
        the same order, and grouping by live rewrites gives the groups that
        keying on every live cell gave, representatives included."""
        for pattern in all_monotone_patterns(n, horizon):
            for spec in _oracle_specs(horizon):
                for b in range(budget + 1):
                    expected = reference_perturbed_histories(spec, pattern, b)
                    assert perturbed_histories(spec, pattern, b) == expected
                    groups = history_groups(spec, pattern, b)
                    assert groups == reference_history_groups(pattern, expected)
                    assert all(rep is members[0] for rep, members in groups)

    @pytest.mark.parametrize("n, horizon, budget", HISTORY_GRID)
    def test_one_membership_verdict_serves_a_group(
        self, n: int, horizon: int, budget: int
    ) -> None:
        """Each claim's mapped membership verdict, violations included, is the
        same for every member of a history group as for its representative:
        the stall claim under ``M``, and the delay claim under ``Pk:k+1`` for
        every ``k``, shifted and unshifted."""
        alg, interp, predicate = builtin_algorithm("flood-consensus-p", n)
        walkers = [harness._SosWalker(alg, interp, predicate, 1, None, False)] + [
            harness._DasWalker(k, shift, alg, interp, predicate, 1, None, False)
            for k in range(horizon)
            for shift in (True, False)
        ]
        members_seen = 0
        for pattern in all_monotone_patterns(n, horizon):
            for walker in walkers:
                mapped = walker.map_pattern(pattern)
                for rep, members in history_groups(walker.fd, pattern, budget):
                    verdict = walker.membership(rep, mapped)
                    for h in members:
                        assert walker.membership(h, mapped) == verdict
                    members_seen += len(members)
        assert members_seen > 0


class TestEnumerateRuns:
    BOUNDS = EnumerationBounds(n=2, horizon=3, max_steps=3)

    def test_process_count_must_match(self) -> None:
        alg3, _, _ = builtin_algorithm("flood-consensus-p", 3)
        with pytest.raises(DomainMismatch):
            next(enumerate_runs(alg3, FD, self.BOUNDS))

    def test_empty_run_space_is_refused(self) -> None:
        """A check over no pattern or no initial states would examine nothing
        and must not report success."""
        no_patterns = EnumerationBounds(n=2, horizon=3, max_steps=3, patterns=())
        no_inits = EnumerationBounds(n=2, horizon=3, max_steps=3, inits=())
        for bounds in (no_patterns, no_inits):
            with pytest.raises(DomainMismatch, match="admit no"):
                next(enumerate_runs(ALG, FD, bounds))
            with pytest.raises(DomainMismatch, match="admit no"):
                check_solves(ALG, FD, INTERP, PREDICATE, bounds)
            with pytest.raises(DomainMismatch, match="admit no"):
                verify_sos(ALG, INTERP, PREDICATE, bounds)
            with pytest.raises(DomainMismatch, match="admit no"):
                verify_das(ALG, INTERP, PREDICATE, 0, bounds)

    def test_explicit_patterns_and_inits_must_fit_the_bounds(self) -> None:
        """Patterns over another horizon or process count, and initial-state
        choices of another width, are refused instead of walked or crashed on."""
        q = ALG.initial_states(0)[0]
        misfits = (
            EnumerationBounds(n=2, horizon=2, max_steps=3, patterns=all_monotone_patterns(2, 4)),
            EnumerationBounds(n=2, horizon=2, max_steps=3, patterns=all_monotone_patterns(3, 2)),
            EnumerationBounds(n=2, horizon=2, max_steps=3, inits=((q,),)),
            EnumerationBounds(n=2, horizon=2, max_steps=3, inits=((q, q, q),)),
        )
        for bounds in misfits:
            with pytest.raises(DomainMismatch, match="does not fit"):
                next(enumerate_runs(ALG, FD, bounds))
            with pytest.raises(DomainMismatch, match="does not fit"):
                check_solves(ALG, FD, INTERP, PREDICATE, bounds)
            with pytest.raises(DomainMismatch, match="does not fit"):
                counterexample_probe(ALG, FD, INTERP, PREDICATE, bounds)
            with pytest.raises(DomainMismatch, match="does not fit"):
                verify_sos(ALG, INTERP, PREDICATE, bounds)
            with pytest.raises(DomainMismatch, match="does not fit"):
                verify_das(ALG, INTERP, PREDICATE, 0, bounds)

    def test_inits_must_be_initial_states_of_the_walked_machine(self) -> None:
        """Runs start in initial states only: the algorithm's for the
        solvability checks and the stall claim, whose wrapper starts where
        the algorithm does, and the delay wrapper's ``DelayState``s for the
        delay claim."""
        later = next(q for q in ALG.reachable_states(0) if q not in ALG.initial_states(0))
        stray = EnumerationBounds(
            n=2, horizon=2, max_steps=3, inits=((later, ALG.initial_states(1)[0]),)
        )
        with pytest.raises(DomainMismatch, match="not an initial state"):
            next(enumerate_runs(ALG, FD, stray))
        with pytest.raises(DomainMismatch, match="not an initial state"):
            check_solves(ALG, FD, INTERP, PREDICATE, stray)
        with pytest.raises(DomainMismatch, match="not an initial state"):
            counterexample_probe(ALG, FD, INTERP, PREDICATE, stray)
        with pytest.raises(DomainMismatch, match="not an initial state"):
            verify_sos(ALG, INTERP, PREDICATE, stray)

        everywhere = EnumerationBounds(n=2, horizon=2, max_steps=3)
        plain = replace(everywhere, inits=init_combinations(ALG))
        delayed = replace(
            plain, inits=tuple(tuple(DelayState(q) for q in init) for init in plain.inits)
        )
        with pytest.raises(DomainMismatch, match="not an initial state"):
            verify_das(ALG, INTERP, PREDICATE, 0, plain)
        for check, explicit in (
            (lambda bounds: verify_sos(ALG, INTERP, PREDICATE, bounds), plain),
            (lambda bounds: verify_das(ALG, INTERP, PREDICATE, 0, bounds), delayed),
        ):
            report, default = _untimed(check(explicit)), _untimed(check(everywhere))
            assert report.pop("bounds")["inits"] == 4
            default.pop("bounds")
            assert report == default

    def test_fairness_window_needs_strict_mode(self) -> None:
        """Nobody is owed fairness in prefix-consistent mode, so a window
        there would be accepted and never read."""
        with pytest.raises(DomainMismatch, match="fairness window"):
            next(enumerate_runs(ALG, FD, replace(self.BOUNDS, fairness_window=1)))

    def test_cap_refuses_before_any_work(self) -> None:
        bounds = EnumerationBounds(n=2, horizon=3, max_steps=3, run_cap=10)
        with pytest.raises(BudgetExceeded, match="exceed the cap of 10"):
            next(enumerate_runs(ALG, FD, bounds))

    def test_deterministic_order(self) -> None:
        first = list(enumerate_runs(ALG, FD, self.BOUNDS))
        second = list(enumerate_runs(ALG, FD, self.BOUNDS))
        assert first == second

    def test_every_enumerated_run_validates(self) -> None:
        runs = list(enumerate_runs(ALG, FD, self.BOUNDS))
        assert len(runs) > 1000
        for run in runs[::17]:
            assert validate_run(run, ALG, FD, self.BOUNDS.mode).valid

    def test_empty_run_appears_once_per_family(self) -> None:
        runs = list(enumerate_runs(ALG, FD, self.BOUNDS))
        empties = [r for r in runs if not r.schedule]
        assert len(empties) == 25 * 1 * 4
        assert len(set(empties)) == len(empties)

    def test_strict_fairness_filters_a_subset(self) -> None:
        """Strict mode keeps exactly the lax runs that ``validate_run`` finds
        valid in strict mode, in the same order, for every window."""
        mode = ValidationMode.STRICT_FAIRNESS
        alg3, _, _ = builtin_algorithm("flood-consensus-p", 3)
        three = EnumerationBounds(n=3, horizon=2, max_steps=3)
        for alg, bounds in ((ALG, self.BOUNDS), (alg3, three)):
            lax_runs = list(enumerate_runs(alg, FD, bounds))
            for window in (None, 1, 2):
                strict = replace(bounds, mode=mode, fairness_window=window)
                strict_runs = list(enumerate_runs(alg, FD, strict))
                assert set(strict_runs) < set(lax_runs)
                assert strict_runs == [
                    run for run in lax_runs if validate_run(run, alg, FD, mode, window).valid
                ]


class TestCheckSolves:
    BOUNDS = EnumerationBounds(n=2, horizon=3, max_steps=3)

    def test_flood_solves_consensus_under_always_accurate(self) -> None:
        report = check_solves(ALG, FD, INTERP, PREDICATE, self.BOUNDS)
        assert report.solves
        assert report.violation_count == 0
        assert report.counterexample is None
        assert report.checked_runs == report.decided_runs + report.undecided_runs
        assert report.checked_runs > 0

    def test_quiescence_turns_timeouts_into_violations(self) -> None:
        lax = check_solves(ALG, FD, INTERP, PREDICATE, self.BOUNDS)
        strict = check_solves(
            ALG, FD, INTERP, PREDICATE, self.BOUNDS, require_quiescence=True
        )
        assert lax.undecided_runs > 0
        assert not strict.solves
        assert strict.violation_count == lax.undecided_runs
        assert strict.counterexample is not None
        reparsed = run_from_doc(strict.counterexample, ALG)
        assert validate_run(reparsed, ALG, FD).valid

    def test_no_fair_run_is_refused(self) -> None:
        """A fairness filter that leaves no run would report success over
        nothing.  Under the crash-free pattern alone, both survivors cannot
        step at every point within 4 steps, nor both step at all within 1."""
        crash_free = all_monotone_patterns(2, 3)[:1]
        for bounds in (
            EnumerationBounds(n=2, horizon=3, max_steps=4, patterns=crash_free, fairness_window=1),
            EnumerationBounds(n=2, horizon=3, max_steps=1, patterns=crash_free),
        ):
            for quiescence in (False, True):
                with pytest.raises(DomainMismatch, match="admit no fair run"):
                    check_solves(ALG, FD, INTERP, PREDICATE, bounds, quiescence)
            with pytest.raises(DomainMismatch, match="admit no fair run"):
                counterexample_probe(ALG, FD, INTERP, PREDICATE, bounds)

    def test_report_dict_shape(self) -> None:
        d = check_solves(ALG, FD, INTERP, PREDICATE, self.BOUNDS).to_dict()
        assert d["schema"] == "report.v1"
        assert d["kind"] == "solves"
        assert d["fd"] == "P"
        assert d["bounds"]["mode"] == "strict-fairness"
        assert canonical_json(d)


class TestFairScan:
    """``check_solves`` and the probe judge each fair run from the prefix it
    shares with the previous one; the reference re-validates and
    re-interprets every run from scratch."""

    @pytest.mark.parametrize(
        "name, fd",
        [
            pytest.param("flood-consensus-p", FDSpec.always_accurate(), id="flood-consensus-p"),
            pytest.param("strong-consensus-m", FDSpec.foresight(), id="strong-consensus-m"),
        ],
    )
    def test_reports_equal_the_reference_scan(self, name: str, fd: FDSpec) -> None:
        alg, interp, _ = builtin_algorithm(name, 2)
        predicates = (ConsensusPredicate(), StrongConsensusPredicate(), PlantedLengthSensitive())
        failing = 0
        for window, budget, predicate in product((None, 1, 2), (0, 1), predicates):
            bounds = EnumerationBounds(
                n=2, horizon=2, max_steps=3, history_budget=budget, fairness_window=window
            )
            lax, quiescent, probe = reference_report_docs(alg, fd, interp, predicate, bounds)
            assert _untimed(check_solves(alg, fd, interp, predicate, bounds)) == lax
            assert (
                _untimed(check_solves(alg, fd, interp, predicate, bounds, require_quiescence=True))
                == quiescent
            )
            assert _untimed(counterexample_probe(alg, fd, interp, predicate, bounds)) == probe
            failing += probe["found"]
        assert failing > 0

    def test_uncovered_state_is_reported_as_the_reference_does(self) -> None:
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=3)
        strict = replace(bounds, mode=ValidationMode.STRICT_FAIRNESS)
        run = next(r for r in enumerate_runs(ALG, FD, strict) if len(r.schedule) >= 2)
        step = run.schedule[-1]
        assert step.post not in ALG.initial_states(step.actor)
        maps = list(INTERP.maps)
        maps[step.actor] = {q: v for q, v in maps[step.actor].items() if q != step.post}
        broken = Interpretation(tuple(maps), INTERP.sigma, INTERP.sigma_init)
        with pytest.raises(UncoveredState) as expected:
            reference_report_docs(ALG, FD, broken, PREDICATE, bounds)
        with pytest.raises(UncoveredState) as solves:
            check_solves(ALG, FD, broken, PREDICATE, bounds)
        with pytest.raises(UncoveredState) as probe:
            counterexample_probe(ALG, FD, broken, PREDICATE, bounds)
        assert str(solves.value) == str(probe.value) == str(expected.value)


class TestJudges:
    @pytest.mark.parametrize(
        "predicate",
        [ConsensusPredicate(), StrongConsensusPredicate(), PlantedLengthSensitive()],
        ids=lambda predicate: predicate.name,
    )
    def test_classify_equals_the_whole_sequence_verdict(self, predicate) -> None:
        """Whichever judge ``_judge`` picks, its verdict after every push and
        every pop is the predicate's on the rows it holds, and popping every
        push returns the rows to row 0.  Every sequence of up to three pushes
        is walked depth first, so pops interleave with pushes.  At horizon 0,
        whose patterns cover every survivor set, row 0 ranges over the whole
        alphabet, so a run may start with a decision already taken."""
        letters = sorted(predicate.sigma)
        pushes = [(i, letter) for i in range(2) for letter in letters]
        judges = set()

        def walk(judge, pattern, depth: int) -> None:
            assert judge.classify() == harness._verdict(predicate, tuple(judge.rows), pattern)
            if depth == 3:
                return
            for i, letter in pushes:
                judge.push(i, letter)
                walk(judge, pattern, depth + 1)
                judge.pop()
                assert judge.classify() == harness._verdict(
                    predicate, tuple(judge.rows), pattern
                )

        for horizon in range(3):
            for pattern in all_monotone_patterns(2, horizon):
                starts = predicate.sigma if horizon == 0 else predicate.sigma_init
                for init in product(sorted(starts), repeat=2):
                    judge = harness._judge(predicate, predicate.sigma, list(init), pattern)
                    judges.add(type(judge))
                    walk(judge, pattern, 0)
                    assert judge.rows == [init]
        agreement = not isinstance(predicate, PlantedLengthSensitive)
        assert judges == {harness._AgreementMonitor if agreement else harness._Judge}


def _untimed(report) -> dict:
    return {key: value for key, value in report.to_dict().items() if key != "elapsed_seconds"}


class _AuditMemo(dict):
    """A stall memo that never hits, so every subtree is walked each time;
    a store under a key stored before must carry the first store's totals
    and tally, in the same order."""

    def __init__(self) -> None:
        super().__init__()
        self.repeats = 0

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, subtree) -> None:
        tally = None if subtree.tally is None else tuple(subtree.tally.items())
        record = (subtree.nodes, subtree.violations, subtree.decided, subtree.undecided, tally)
        if key in self:
            self.repeats += 1
            assert self[key] == record, key
        else:
            super().__setitem__(key, record)


def _sabotaged_sos(alg, interp: Interpretation) -> Interpretation:
    """Criterion 3's sabotage: one stall state shows the wrong letter."""
    q = alg.initial_states(0)[0]
    wrong = "1|-" if interp.of(0, q) != "1|-" else "0|-"
    return derive_interpretation_sos(interp, alg).replaced(0, StallState(q), wrong)


class TestCounterexampleProbe:
    def test_flood_breaks_strong_anchoring(self) -> None:
        """The minimum rule can decide a crashed process's value, which the
        anchored predicate forbids; the probe materializes such a run."""
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=3)
        report = counterexample_probe(
            ALG, FD, INTERP, StrongConsensusPredicate(), bounds
        )
        assert report.found
        assert report.run is not None
        assert validate_run(report.run, ALG, FD, ValidationMode.STRICT_FAIRNESS).valid
        w = interpret_run(report.run, INTERP)
        assert not StrongConsensusPredicate().evaluate(w, report.run.pattern)
        assert not StrongConsensusPredicate().undecided(w, report.run.pattern)

    def test_probe_reports_absence(self) -> None:
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=3)
        report = counterexample_probe(ALG, FD, INTERP, PREDICATE, bounds)
        assert not report.found
        assert report.run is None
        assert "no violation" in report.detail
        assert report.checked_runs > 0


class TestTheoremChecks:
    BOUNDS = EnumerationBounds(n=2, horizon=3, max_steps=3, history_budget=1)

    @pytest.mark.parametrize(
        "name, sabotaged, planted",
        [
            pytest.param("flood-consensus-p", False, False, id="flood-consensus-p"),
            pytest.param("strong-consensus-m", False, False, id="strong-consensus-m"),
            pytest.param("flood-consensus-p", True, False, id="flood-consensus-p-sabotaged"),
            pytest.param(
                "flood-consensus-p", False, True, id="flood-consensus-p-length-sensitive"
            ),
        ],
    )
    def test_stall_preservation_fast_equals_thorough(
        self, name: str, sabotaged: bool, planted: bool
    ) -> None:
        """The memoized pass and the from-scratch pass agree exactly, down to
        every recorded failure's clause, detail, multiplicity and run.  The
        sabotaged derivation (criterion 3's) makes memo hits carry failures.
        The length-sensitive predicate is judged on the whole sequence, which
        the memo does not serve, and fails clause (d)."""
        alg, interp, predicate = builtin_algorithm(name, 2)
        if planted:
            predicate = PlantedLengthSensitive()
        derived = _sabotaged_sos(alg, interp) if sabotaged else None
        fast = verify_sos(alg, interp, predicate, self.BOUNDS, derived_interp=derived)
        slow = verify_sos(
            alg, interp, predicate, self.BOUNDS, derived_interp=derived, thorough=True
        )
        assert fast.ok == slow.ok == (not sabotaged and not planted)
        for field in ("checked_runs", "checked_histories", "failure_count",
                      "decided_runs", "undecided_runs", "families"):
            assert getattr(fast, field) == getattr(slow, field), field
        assert [f.to_dict() for f in fast.failures] == [f.to_dict() for f in slow.failures]

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_stall_memo_on_equals_memo_off_at_three_processes(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """At n = 3 memo hits cross patterns and initial states; whole reports,
        clean and sabotaged, must not depend on them.  A memoized call after
        the sabotaged one checks that no state outlives a call."""
        alg, interp, predicate = builtin_algorithm(name, 3)
        bounds = EnumerationBounds(n=3, horizon=4, max_steps=4)

        def report(derived: Interpretation | None) -> dict:
            return _untimed(verify_sos(alg, interp, predicate, bounds, derived_interp=derived))

        clean = report(None)
        sabotaged = report(_sabotaged_sos(alg, interp))
        assert report(None) == clean
        assert clean["failure_count"] == 0 < sabotaged["failure_count"]
        monkeypatch.setattr(harness._SosWalker, "memo_view", lambda self, aligned: None)
        assert report(None) == clean
        assert report(_sabotaged_sos(alg, interp)) == sabotaged

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_equal_stall_memo_keys_mean_equal_subtrees(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Wherever the stall memo would be consulted, an audit memo walks
        the subtree anyway and compares it with every earlier subtree under
        the same key, clean and sabotaged."""
        alg, interp, predicate = builtin_algorithm(name, 3)
        bounds = EnumerationBounds(n=3, horizon=4, max_steps=4)
        memo_view = harness._SosWalker.memo_view
        for derived in (None, _sabotaged_sos(alg, interp)):
            audit = _AuditMemo()
            monkeypatch.setattr(
                harness._SosWalker,
                "memo_view",
                lambda self, aligned: None if memo_view(self, aligned) is None else audit,
            )
            verify_sos(alg, interp, predicate, bounds, derived_interp=derived)
            assert audit.repeats > 0
            assert any(tally for *_, tally in audit.values()) == (derived is not None)

    @pytest.mark.parametrize(
        "claim",
        [pytest.param("sos", id="sabotaged-sos"), pytest.param("das", id="unshifted-das")],
    )
    def test_recorded_failure_cap_keeps_a_prefix(
        self, claim: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Capped at K entries, the recorded failures are the first K of the
        uncapped list, multiplicities and runs included.  The sabotaged stall
        claim's walk clauses carry runs; the unshifted delay claim's
        membership clauses carry none."""
        alg, interp, predicate = builtin_algorithm("flood-consensus-p", 2)

        def failures() -> list[dict]:
            if claim == "sos":
                bounds = EnumerationBounds(n=2, horizon=3, max_steps=3, history_budget=1)
                report = verify_sos(
                    alg, interp, predicate, bounds, derived_interp=_sabotaged_sos(alg, interp)
                )
            else:
                bounds = EnumerationBounds(n=2, horizon=3, max_steps=3, history_budget=2)
                report = verify_das(alg, interp, predicate, 0, bounds, time_shift=False)
            return [f.to_dict() for f in report.failures]

        monkeypatch.setattr(harness, "MAX_RECORDED_FAILURES", 10**6)
        uncapped = failures()
        assert len(uncapped) > 1
        assert all((f["run"] is not None) == (claim == "sos") for f in uncapped)
        for k in range(1, len(uncapped) + 1):
            monkeypatch.setattr(harness, "MAX_RECORDED_FAILURES", k)
            assert failures() == uncapped[:k]

    def test_grouped_histories_count_as_their_members(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """A history group is walked once and credited once per member:
        walking every member on its own gives the same counts and the same
        multiplicity for each (clause, detail) pair, on walk clauses and on
        membership clauses alike."""
        alg, interp, predicate = builtin_algorithm("flood-consensus-p", 2)
        bounds = EnumerationBounds(n=2, horizon=3, max_steps=3, history_budget=1)
        broken = _sabotaged_sos(alg, interp)

        def summaries() -> list[dict]:
            out = []
            for report in (
                verify_sos(alg, interp, predicate, bounds, derived_interp=broken),
                verify_das(alg, interp, predicate, 0, bounds, time_shift=False),
            ):
                doc = _untimed(report)
                doc["failures"] = {
                    (f["clause"], f["detail"]): f["multiplicity"] for f in doc["failures"]
                }
                out.append(doc)
            return out

        grouped = summaries()
        assert all(doc["failures"] for doc in grouped)
        def singletons(spec: FDSpec, pattern, budget: int) -> list:
            return [(h, [h]) for h in perturbed_histories(spec, pattern, budget)]

        monkeypatch.setattr(harness, "history_groups", singletons)
        assert summaries() == grouped

    def test_claims_refuse_fairness_bounds(self) -> None:
        """Both claims walk every prefix-consistent run, so a strict mode or a
        fairness window would be reported without being applied."""
        strict = ValidationMode.STRICT_FAIRNESS
        for bounds in (
            EnumerationBounds(n=2, horizon=2, max_steps=2, mode=strict),
            EnumerationBounds(n=2, horizon=2, max_steps=2, mode=strict, fairness_window=1),
            EnumerationBounds(n=2, horizon=2, max_steps=2, fairness_window=1),
        ):
            with pytest.raises(DomainMismatch, match="fairness"):
                verify_sos(ALG, INTERP, PREDICATE, bounds)
            with pytest.raises(DomainMismatch, match="fairness"):
                verify_das(ALG, INTERP, PREDICATE, 0, bounds)

    @pytest.mark.parametrize(
        "name, planted",
        [
            pytest.param("flood-consensus-p", False, id="flood-consensus-p"),
            pytest.param("strong-consensus-m", False, id="strong-consensus-m"),
            pytest.param("flood-consensus-p", True, id="flood-consensus-p-length-sensitive"),
        ],
    )
    def test_delay_preservation_fast_equals_thorough(self, name: str, planted: bool) -> None:
        """The length-sensitive predicate is judged on the whole sequence and
        fails clause (d); its failures must agree too."""
        alg, interp, predicate = builtin_algorithm(name, 2)
        if planted:
            predicate = PlantedLengthSensitive()
        fast = verify_das(alg, interp, predicate, 0, self.BOUNDS)
        slow = verify_das(alg, interp, predicate, 0, self.BOUNDS, thorough=True)
        assert fast.ok == slow.ok == (not planted)
        for field in ("checked_runs", "checked_histories", "failure_count",
                      "decided_runs", "undecided_runs", "families"):
            assert getattr(fast, field) == getattr(slow, field), field
        assert [f.to_dict() for f in fast.failures] == [f.to_dict() for f in slow.failures]

    def test_delay_claim_refuses_a_lag_past_the_horizon(self) -> None:
        """The wrapper's oracle is accurate after ``k+1``, which must stay
        within the horizon; the refusal names the ``k`` given."""
        bounds = EnumerationBounds(n=2, horizon=3, max_steps=2)
        for k in (-2, -1, 3, 9):
            with pytest.raises(KOutOfRange, match=rf"^stabilization time k={k} outside 0\.\.2$"):
                verify_das(ALG, INTERP, PREDICATE, k, bounds)
        assert verify_das(ALG, INTERP, PREDICATE, 2, bounds).ok

    def test_theorem_report_dict_shape(self) -> None:
        report = verify_sos(ALG, INTERP, PREDICATE, self.BOUNDS)
        d = report.to_dict()
        assert d["schema"] == "report.v1"
        assert d["kind"] == "theorem"
        assert d["theorem"] == "sos-preservation"
        assert d["fd"] == "M"
        assert d["failures"] == []
        assert len(d["canonicalizations"]) == 2
        assert canonical_json(d)

    def test_delay_report_names_the_shifted_oracle(self) -> None:
        report = verify_das(ALG, INTERP, PREDICATE, 1, self.BOUNDS)
        assert report.ok
        assert report.k == 1
        assert report.fd == "Pk:2"
