"""Unit tests for the exhaustive enumeration and checking harness."""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from typing import Iterator

import pytest

from fdlab import (
    DEFAULT_RUN_CAP,
    ConsensusPredicate,
    EnumerationBounds,
    FDSpec,
    FailurePattern,
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
from fdlab.detectors import canonical_history, perturbed_histories
from fdlab.errors import BudgetExceeded, DomainMismatch, KOutOfRange, UncoveredState
from fdlab.harness import (
    RUN_CAP_ENV_VAR,
    all_monotone_patterns,
    estimate_run_families,
    history_groups,
    init_combinations,
)
from fdlab.machines import TableAlgorithm
from fdlab.model import Step
from fdlab.problems import AGREEMENT_ALPHABET, AGREEMENT_INITIAL_ALPHABET, is_stutter
from fdlab.traces import canonical_json, run_from_doc
from fdlab.transforms import (
    DelayState,
    StallState,
    derive_interpretation_das,
    derive_interpretation_sos,
)

from .oracles import (
    PlantedLengthSensitive,
    brute_force_runs,
    gapped_projections,
    reference_history_groups,
    reference_children,
    reference_perturbed_histories,
    reference_report_docs,
    time_free,
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
        # no variant rewrites more than the 8 cells, so a larger budget adds nothing
        huge, b8 = (replace(b0, history_budget=b) for b in (10**30, 8))
        assert estimate_run_families(huge, 4) == estimate_run_families(b8, 4)

    def test_estimate_dominates_reality(self) -> None:
        """The a-priori bound is an upper bound on actual families."""
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=2, history_budget=1)
        actual = sum(
            len(perturbed_histories(FD, f, 1)) * 4
            for f in all_monotone_patterns(2, 2)
        )
        assert actual <= estimate_run_families(bounds, inits_count=4)

    def test_capped_estimate_is_the_estimate_within_the_cap(self) -> None:
        """A cap changes no estimate within it, and over it the answer is
        still over it."""
        for n, horizon, budget, inits in product((1, 2, 3), (0, 2, 5), (0, 1, 3, 40), (1, 4)):
            bounds = EnumerationBounds(n=n, horizon=horizon, max_steps=1, history_budget=budget)
            full = estimate_run_families(bounds, inits)
            for cap in (0, 1, 100, 10_000, full - 1, full, full + 1):
                capped = estimate_run_families(bounds, inits, cap)
                assert capped == full if full <= cap else cap < capped <= full


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
        inits = init_combinations(alg)
        walkers = [harness._SosWalker(alg, inits, 1, alg, interp, predicate, None, False)] + [
            harness._DasWalker(
                alg, inits, 1, alg, interp, predicate, None, False, k=k, time_shift=shift
            )
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

    @pytest.mark.parametrize("n, horizon, budget", HISTORY_GRID)
    def test_strict_foresight_leaves_one_group_per_pattern(
        self, n: int, horizon: int, budget: int
    ) -> None:
        """The stall memo's key holds no history.  That is sound because
        strict ``M`` admits one value at every cell a live process reads, the
        horizon-faulty set: every pattern has one history group, represented
        by the canonical history."""
        fd = harness._SosWalker.fd
        for pattern in all_monotone_patterns(n, horizon):
            for b in range(budget + 1):
                [(rep, members)] = history_groups(fd, pattern, b)
                assert rep == canonical_history(fd, pattern)
                for h in members:
                    for t in range(horizon + 1):
                        for p in pattern.live_at(t):
                            assert h.at(p, t) == pattern.faulty()


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

    def test_cap_refuses_an_estimate_too_long_to_print(self) -> None:
        """An estimate or a cap past Python's 4,300-digit limit for printing
        an int is refused like any other, not with a ``ValueError``."""
        alg, interp, predicate = builtin_algorithm("flood-consensus-p", 3)
        for bounds in (
            EnumerationBounds(n=3, horizon=10**1500, max_steps=1),
            EnumerationBounds(n=3, horizon=10**2000, max_steps=1, run_cap=10**4400),
        ):
            with pytest.raises(BudgetExceeded, match="exceed the cap of"):
                verify_sos(alg, interp, predicate, bounds)

    def test_cap_refuses_a_long_horizon_with_a_large_budget(self) -> None:
        """The history sum stops once the estimate is over the cap; summed
        in full, its 100,001 bignum terms take longer than 20 s."""
        bounds = EnumerationBounds(n=2, horizon=100_000, max_steps=1, history_budget=100_000)
        with pytest.raises(BudgetExceeded, match="exceed the cap of 1000000"):
            verify_sos(ALG, INTERP, PREDICATE, bounds)
        with pytest.raises(BudgetExceeded, match="exceed the cap of 1000000"):
            next(enumerate_runs(ALG, FD, bounds))

    def test_runs_equal_the_pinned_fingerprint(self) -> None:
        """Every run's pattern, history, initial states, schedule and times,
        in enumeration order, hash to a pinned value: sharing steps between
        families and patterns must change no run and no order."""
        digest = hashlib.sha256()
        windows = (
            (ValidationMode.PREFIX_CONSISTENT, None),
            (ValidationMode.STRICT_FAIRNESS, None),
            (ValidationMode.STRICT_FAIRNESS, 1),
        )
        count = 0
        for (n, horizon, max_steps, budget), fd, (mode, window) in product(
            ((1, 2, 2, 0), (2, 2, 3, 1), (2, 3, 4, 0), (3, 2, 3, 0)),
            (FDSpec.always_accurate(), FDSpec.foresight(), FDSpec.accurate_after(1)),
            windows,
        ):
            alg, _, _ = builtin_algorithm("flood-consensus-p", n)
            bounds = EnumerationBounds(
                n, horizon, max_steps, budget, mode=mode, fairness_window=window
            )
            name = alg.state_str
            for run in enumerate_runs(alg, fd, bounds):
                count += 1
                schedule = [
                    (step.actor, name(step.pre), step.received and tuple(step.received),
                     sorted(step.suspects), name(step.post), step.sent and tuple(step.sent))
                    for step in run.schedule
                ]
                digest.update(repr((
                    [sorted(cell) for cell in run.pattern.crashed],
                    [[sorted(cell) for cell in row] for row in run.history.cells],
                    [name(q) for q in run.init],
                    schedule,
                    run.times,
                )).encode())
        assert count == 95_340
        assert digest.hexdigest() == (
            "2ff00fddeb4a91c264e7239f88f1340d91ab867f526df1eb9bc62035037bf8bf"
        )

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


class TestStepBudgetEdges:
    """The two edges of a window's step budget, ``min(max_steps, horizon +
    1 - offset)``: no step at all, and a step bound past the horizon, which
    the horizon cuts at every offset."""

    BOUNDS = EnumerationBounds(n=2, horizon=2, max_steps=0, history_budget=1)

    @pytest.mark.parametrize("max_steps", [0, BOUNDS.horizon + 2])
    @pytest.mark.parametrize(
        "name, fd",
        [
            pytest.param("flood-consensus-p", FDSpec.always_accurate(), id="flood-consensus-p"),
            pytest.param("strong-consensus-m", FDSpec.foresight(), id="strong-consensus-m"),
        ],
    )
    def test_every_walk_equals_its_reference(self, name: str, fd: FDSpec, max_steps: int) -> None:
        """The enumeration equals the blind search in both modes, the
        solvability reports equal the reference scan's, and each claim's
        report equals its ``thorough`` one."""
        alg, interp, predicate = builtin_algorithm(name, 2)
        bounds = replace(self.BOUNDS, max_steps=max_steps)
        for mode in ValidationMode:
            moded = replace(bounds, mode=mode)
            runs = list(enumerate_runs(alg, fd, moded))
            assert len(runs) == len(set(runs))
            assert set(runs) == brute_force_runs(alg, fd, moded)
        lax, quiescent, probe = reference_report_docs(alg, fd, interp, predicate, bounds)
        assert _untimed(check_solves(alg, fd, interp, predicate, bounds)) == lax
        assert (
            _untimed(check_solves(alg, fd, interp, predicate, bounds, require_quiescence=True))
            == quiescent
        )
        assert _untimed(counterexample_probe(alg, fd, interp, predicate, bounds)) == probe
        for claim, args in ((verify_sos, ()), (verify_das, (0,))):
            fast, slow = (
                _untimed(claim(alg, interp, predicate, *args, bounds, thorough=thorough))
                for thorough in (False, True)
            )
            assert fast.pop("thorough") is False and slow.pop("thorough") is True
            assert fast == slow


class TestGappedRuns:
    """What the offset sweep covers of runs whose steps leave time gaps,
    each run taken without its times (``time_free``).  Every enumerated run
    is a gapped-reference run.  At two processes the sweep reaches every
    gapped run; at three, under ``Pk`` with budget 1, it does not."""

    @pytest.mark.parametrize("spec", ["P", "M", "Pk:1"])
    def test_the_sweep_reaches_every_gapped_run_at_two_processes(self, spec: str) -> None:
        fd = FDSpec.parse(spec)
        bounds = EnumerationBounds(n=2, horizon=2, max_steps=2, history_budget=1)
        engine = {time_free(run) for run in enumerate_runs(ALG, fd, bounds)}
        assert engine == gapped_projections(ALG, fd, bounds)

    def test_a_gap_can_need_a_history_outside_the_budget(self) -> None:
        """Process 1 crashes at time 1 and process 2 at time 2.  48 of the
        pattern's 384 gapped runs read oracle contexts that no consecutive
        placement reaches within budget 1, and budget 2 on the same pattern
        reaches none of them either."""
        alg, _, _ = builtin_algorithm("flood-consensus-p", 3)
        fd = FDSpec.accurate_after(1)
        pattern = FailurePattern(3, 2, (frozenset(), frozenset({1}), frozenset({1, 2})))
        bounds = EnumerationBounds(
            n=3, horizon=2, max_steps=2, history_budget=1, patterns=(pattern,)
        )
        gapped = gapped_projections(alg, fd, bounds)
        engine = {time_free(run) for run in enumerate_runs(alg, fd, bounds)}
        assert (len(gapped), len(engine)) == (384, 336)
        assert engine < gapped
        wider = replace(bounds, history_budget=2)
        assert not (gapped - engine) & {time_free(run) for run in enumerate_runs(alg, fd, wider)}


def _recorded(
    monkeypatch: pytest.MonkeyPatch, count_transitions: bool = False
) -> list[harness._ScheduleTree]:
    """The schedule trees (walkers included) that later calls build.  With
    ``count_transitions``, each tree's ``calls`` lists the inputs of every
    ``alg.transition`` call it makes."""
    trees: list[harness._ScheduleTree] = []
    init = harness._ScheduleTree.__init__

    def record(tree, *args) -> None:
        init(tree, *args)
        trees.append(tree)
        if count_transitions:
            tree.calls = []
            transition = tree.alg.transition

            def counted(actor, pre, heard, suspects):
                key = (actor, tree.state_ids.ids[pre], heard, suspects)
                tree.calls.append(key)
                return transition(actor, pre, heard, suspects)

            tree.alg.transition = counted

    monkeypatch.setattr(harness._ScheduleTree, "__init__", record)
    return trees


class TestStepTable:
    """One call takes each transition once: ``transitions`` maps each
    (actor, pre state id, received triple id, suspects) to the post state
    id, the sent triple id and a walker's letters, and ``enumerate_runs``
    builds each ``Step`` once per edge (actor, pre state, received message,
    suspects, depth)."""

    BOUNDS = EnumerationBounds(n=2, horizon=3, max_steps=3, history_budget=1)

    def _calls(self) -> list:
        """Three calls, each on its own instance of the algorithm."""

        def machine() -> tuple:
            return builtin_algorithm("flood-consensus-p", 2)

        return [
            lambda: list(enumerate_runs(machine()[0], FD, self.BOUNDS)),
            lambda: verify_sos(*machine(), self.BOUNDS),
            lambda: verify_das(*machine(), 1, self.BOUNDS),
        ]

    def test_each_step_is_the_transition_of_its_edge(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """``alg.transition`` runs once per entry of ``transitions``; every
        entry equals the transition of its input, its post state is the
        interned object, and a walker's facts are the step's letter and its
        mapped letter, ``None`` when dropped.  Each child entry's facts are
        its transition's, at the received triple's position."""
        trees = _recorded(monkeypatch, count_transitions=True)
        for call in self._calls():
            call()
        dropped = kept = 0
        for tree in trees:
            assert tree.transitions
            states, triples = tree.state_ids.values, tree.triple_ids.values
            inputs = {
                (actor, pre, None if received is None else triples[received][::2], suspects)
                for actor, pre, received, suspects in tree.transitions
            }
            assert len(tree.calls) == len(set(tree.calls)) == len(inputs)
            assert set(tree.calls) == inputs
            for (actor, pre_id, received, suspects), entry in tree.transitions.items():
                heard = None if received is None else triples[received][::2]
                result = tree.alg.transition(actor, states[pre_id], heard, suspects)
                if result is None:
                    assert entry is None
                    continue
                post, dispatch = result
                post_id, sent, *letters = entry
                assert states[post_id] == post
                assert tree.state_ids.ids[post] == post_id
                assert (None if sent is None else triples[sent]) == (
                    None if dispatch is None else (actor, *dispatch)
                )
                if not isinstance(tree, harness._TreeWalker):
                    assert letters == []
                    continue
                shown, mapped = letters
                assert shown == tree.v_tilde.of(actor, post)
                if mapped is None:
                    dropped += 1
                else:
                    kept += 1
                    assert mapped == tree.interp.of(actor, post)
            for node, column, entries in _entries(tree):
                configuration = tree.nodes.values[node]
                cells = [tree.set_ids.values[i] for i in tree.columns.values[column][1:]]
                for _, (actor, position, *edge) in entries:
                    received = None if position is None else configuration[tree.n + position]
                    key = (actor, configuration[actor], received, cells[actor])
                    assert tuple(edge) == tree.transitions[key]
        assert len(trees) == 3
        assert dropped and kept

    def test_equal_edges_share_one_step_across_families_and_patterns(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        trees = _recorded(monkeypatch)
        alg, _, _ = builtin_algorithm("flood-consensus-p", 2)
        seen: dict[tuple, tuple[Step, set]] = {}
        for run in enumerate_runs(alg, FD, self.BOUNDS):
            for depth, step in enumerate(run.schedule):
                key = (step.actor, step.pre, step.received, step.suspects, depth)
                first, families = seen.setdefault(key, (step, set()))
                assert first is step
                assert step.post is _tree_state(trees, step.post)
                families.add((run.pattern, run.history, run.init))
        (tree,) = trees

        def interned(key: tuple) -> tuple:
            actor, pre, received, suspects, depth = key
            return actor, tree.state_ids.ids[pre], received, tree.set_ids.ids[suspects], depth

        assert all(tree.steps[interned(key)] is step for key, (step, _) in seen.items())
        assert len(seen) < sum(len(families) for _, families in seen.values())
        assert max(len({f[0] for f in families}) for _, families in seen.values()) > 1


def _tree_state(trees: list, state):
    """The state object that the one recorded tree interned for ``state``."""
    (tree,) = trees
    return tree.state_ids.values[tree.state_ids.ids[state]]


def _entries(tree) -> Iterator[tuple[int, int, list[tuple]]]:
    """Each child-table key of a tree, as (node id, column id, its entries as
    (child node id or None, facts) pairs)."""
    for column, table in tree.table.items():
        for node, flat in table.items():
            yield node, column, list(zip(flat[::2], flat[1::2]))


def _check_table_shape(tree) -> None:
    """Each child-table entry is the from-scratch expansion of its node and
    column in the reference's order, and only what an inner expansion
    reaches is interned: the roots, each inner entry's child and the sorted
    forms of those, which are the memo's configurations."""
    n, states, triples = tree.n, tree.state_ids.values, tree.triple_ids.values
    sets = tree.set_ids.values
    reached = set(tree.roots)
    leaves = 0
    for node, column, entries in _entries(tree):
        configuration = tree.nodes.values[node]
        crashed, *cells = (sets[i] for i in tree.columns.values[column])
        expected = reference_children(
            tree.alg,
            tuple(states[q] for q in configuration[:n]),
            tuple(triples[m] for m in configuration[n:]),
            crashed,
            tuple(cells),
        )
        assert len(entries) == len(expected)
        for (child, facts), (actor, position, post, sent, child_states, rest) in zip(
            entries, expected
        ):
            assert facts[:2] == (actor, position)
            assert states[facts[2]] == post
            assert (None if facts[3] is None else triples[facts[3]]) == sent
            if child is None:
                leaves += 1
                continue
            reached.add(child)
            decoded = tree.nodes.values[child]
            assert tuple(states[q] for q in decoded[:n]) == child_states
            assert tuple(triples[m] for m in decoded[n:]) == rest
    reached |= {tree.sorted_of[node] for node in reached}
    assert reached == set(range(len(tree.nodes.values)))
    for node, configuration in enumerate(tree.nodes.values):
        ordered = tree.nodes.values[tree.sorted_of[node]]
        assert ordered[:n] == configuration[:n]
        assert ordered[n:] == tuple(sorted(configuration[n:]))
    assert leaves


class TestChildTable:
    """The tree's child table against a from-scratch expansion, and the
    walkers' per-call roots."""

    BOUNDS = EnumerationBounds(n=3, horizon=2, max_steps=3, history_budget=1)

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_entries_equal_the_reference_expansion(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        alg, interp, predicate = builtin_algorithm(name, 3)
        trees = _recorded(monkeypatch)
        list(enumerate_runs(alg, FD, self.BOUNDS))
        verify_sos(alg, interp, predicate, self.BOUNDS)
        verify_das(alg, interp, predicate, 0, self.BOUNDS)
        assert len(trees) == 3
        for tree in trees:
            _check_table_shape(tree)

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_root_rows_are_interned_once_per_call(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Every row a call interns outside a judge's step is one of the
        two root rows of an initial-state choice, so the call's rows grow
        only with steps, however many families it roots."""
        alg, interp, predicate = builtin_algorithm(name, 3)
        rooted = _rows_interned_outside_steps(monkeypatch)
        verify_sos(alg, interp, predicate, self.BOUNDS)
        verify_das(alg, interp, predicate, 0, self.BOUNDS)
        inits = len(init_combinations(alg))
        assert rooted == [2 * inits, 2 * inits]


def _rows_interned_outside_steps(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Per walker that later calls build, the rows interned by anything
    other than ``_Rows.move``, the interning of a judge's step."""
    counts: list[int] = []
    init, call = harness._TreeWalker.__init__, harness._Rows.__call__

    def counted_init(walker, *args, **kw) -> None:
        counts.append(0)
        init(walker, *args, **kw)

    def counted_call(rows, value) -> int:
        if sys._getframe(1).f_code.co_name != "move":
            counts[-1] += 1
        return call(rows, value)

    monkeypatch.setattr(harness._TreeWalker, "__init__", counted_init)
    monkeypatch.setattr(harness._Rows, "__call__", counted_call)
    return counts


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
        assert d["canonicalizations"] == [
            "schedule times are consecutive within a window; every feasible window "
            "offset is swept, runs with internal time gaps are not enumerated; under "
            "Pk with a deviation budget, which gapped runs the sweep covers depends "
            "on the budget"
        ]
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
                    rows = harness._Rows()
                    judge = harness._judge(predicate, predicate.sigma, rows(init), pattern, rows)
                    judges.add(type(judge))
                    walk(judge, pattern, 0)
                    assert judge.rows == [init]
        agreement = not isinstance(predicate, PlantedLengthSensitive)
        assert judges == {harness._AgreementMonitor if agreement else harness._Judge}


def _untimed(report) -> dict:
    return {key: value for key, value in report.to_dict().items() if key != "elapsed_seconds"}


class _AuditMemo(dict):
    """A memo of per-window tables that never hit, so every subtree is
    walked each time.  ``get(window)`` returns the window's table, kept for
    the audit's life; a store under a configuration stored before in that
    table must carry the first store's totals and tally, in the same order.
    ``repeats`` counts such stores across all tables, and ``context_repeats``
    those under a key that packs a path context (see ``memo_key``)."""

    def __init__(self) -> None:
        super().__init__()
        self.repeats = self.context_repeats = 0

    def get(self, window, default=None):
        table = super().get(window)
        if table is None:
            table = self[window] = _AuditTable(self)
        return table

    def records(self) -> list[tuple]:
        """The first record stored under each key, across all tables."""
        return [record for table in self.values() for record in table.values()]


class _AuditTable(dict):
    """One window's table of an ``_AuditMemo``."""

    def __init__(self, memo: _AuditMemo) -> None:
        super().__init__()
        self.memo = memo

    def get(self, configuration, default=None):
        return default

    def __setitem__(self, configuration, subtree) -> None:
        tally = None if subtree.tally is None else tuple(subtree.tally.items())
        record = (subtree.nodes, subtree.violations, subtree.decided, subtree.undecided, tally)
        if configuration in self:
            self.memo.repeats += 1
            self.memo.context_repeats += configuration >> harness._NODE_BITS > 0
            assert self[configuration] == record, configuration
        else:
            super().__setitem__(configuration, record)


class _ReadSetAudit:
    """A memo that never hits and checks, on every miss, that the subtree
    walk reads only what the key fixes.

    The pattern, the history and the tree position are wrapped in recording
    proxies for the whole call.  A miss opens a frame: its time ``t``, from
    the ``memo_key`` call just before, and its key decoded through the
    call's interners into the sets it holds, so a wrong key is judged by its
    own contents.  A key without a path context needs a path that carries
    no violation and ends in equal rows; a key with one must decode to the
    path's sticky pairs and to both judges' row ids.  Until the subtree is
    stored, each read is checked against every open frame: columns (crashed
    sets and history cells) only at times ``t .. t+remaining-1``, equal to
    the key's; the faulty set
    (through ``faulty``, ``correct`` or a verdict) only if the key holds it;
    the depth and the offset not at all (messages in the tree carry no tag,
    and the step budget is counted down from the root).  Run documents are
    built outside the check.  ``misses`` counts the frames, ``contexts``
    those whose key packs a context, and ``reads`` the reads checked.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.frames: list[tuple[int, int, frozenset | None, list]] = []
        self.table = _ReadSetTable(self)
        self.pending: tuple[int, tuple[int, int]] | None = None
        self.suspended = 0
        self.misses = self.reads = self.contexts = 0
        self.walker = None
        audit = self
        walker_type = harness._TreeWalker
        memo_key, memo_view = walker_type.memo_key, walker_type.memo_view
        enter, enter_history = walker_type.enter, walker_type.enter_history
        start, run = walker_type.start, walker_type.run

        def spied_key(walker, t: int, remaining: int, node: int, aligned: bool) -> tuple[int, int]:
            key = memo_key(walker, t, remaining, node, aligned)
            audit.pending = (t, key)
            return key

        def recording_enter(walker, pattern) -> None:
            enter(walker, pattern)
            audit.walker = walker
            walker.pattern = _Recorded(pattern, audit)
            walker.faulty = _RecordedSet(walker.faulty, audit)

        def recording_enter_history(walker, history) -> None:
            enter_history(walker, history)
            walker.column_at = _RecordedRow(walker.column_at, audit, "column")
            walker.tables_at = _RecordedRow(walker.tables_at, audit, "column")

        def recording_start(walker, history, choice: int) -> None:
            start(walker, history, choice)
            walker.history = _RecordedHistory(history, audit)
            walker.path = _RecordedList(walker.path, audit)

        def unrecorded_run(walker):
            audit.suspended += 1
            pattern, history = walker.pattern, walker.history
            walker.pattern, walker.history = pattern.real, history.real
            try:
                return run(walker)
            finally:
                walker.pattern, walker.history = pattern, history
                audit.suspended -= 1

        def offset_get(walker) -> int:
            audit.read("offset", sys._getframe(1).f_code.co_name)
            return walker.__dict__["_offset"]

        def offset_set(walker, value: int) -> None:
            walker.__dict__["_offset"] = value

        monkeypatch.setattr(walker_type, "memo_key", spied_key)
        monkeypatch.setattr(
            walker_type,
            "memo_view",
            lambda walker: None if memo_view(walker) is None else self,
        )
        monkeypatch.setattr(walker_type, "enter", recording_enter)
        monkeypatch.setattr(walker_type, "enter_history", recording_enter_history)
        monkeypatch.setattr(walker_type, "start", recording_start)
        monkeypatch.setattr(walker_type, "run", unrecorded_run)
        monkeypatch.setattr(walker_type, "offset", property(offset_get, offset_set), raising=False)
        for judge_type in (harness._Judge, harness._AgreementMonitor):
            classify = judge_type.classify
            monkeypatch.setattr(
                judge_type,
                "classify",
                lambda judge, classify=classify: audit.read("faulty") or classify(judge),
            )

    # -- the memo's interface: one table per window, which never hits ---------

    def get(self, window: int, default=None) -> "_ReadSetTable":
        return self.table

    def open(self) -> None:
        """Open the frame of the miss whose key ``memo_key`` just returned."""
        t, (window, configuration) = self.pending
        walker = self.walker
        sets = _set_decoder(walker)
        columns: list[tuple] = []
        value = walker.windows.values[window >> 1]
        while len(value) == 2:
            columns.append(walker.columns.values[value[0]])
            value = walker.windows.values[value[1]]
        faulty = sets(value[0]) if value else None
        decoded = []
        for column in columns:
            crashed = sets(column[0]) if len(column) == walker.n + 1 else None
            decoded.append((crashed, tuple(sets(c) for c in column[-walker.n :])))
        self.frames.append((t, len(columns), faulty, decoded))
        self.misses += 1
        context = configuration >> harness._NODE_BITS
        if not context:
            assert not walker.sticky, "a plain key on a path that carries a violation"
            assert walker.judge.ids[-1] == walker.mapped.ids[-1], "a plain key on unequal rows"
            return
        sticky, pair = walker.contexts.values[context - 1]
        assert list(sticky) == walker.sticky, "sticky pairs"
        mapped, wrapper = list(walker.stutters)[pair]
        assert list(mapped) == walker.mapped.ids, "mapped row ids"
        assert list(wrapper) == walker.judge.ids, "wrapper row ids"
        self.contexts += 1

    # -- reads -----------------------------------------------------------------

    def read(self, kind: str, *where) -> None:
        """Check one read against every open frame."""
        if self.suspended or not self.frames:
            return
        self.reads += 1
        walker = self.walker
        for t, remaining, faulty, decoded in self.frames:
            if kind == "faulty":
                assert faulty == walker.pattern.real.faulty(), "faulty set read, not in the key"
            elif kind in ("depth", "offset"):
                raise AssertionError(f"{kind} read by {where[0]} in a memoized walk")
            else:
                s = where[-1]
                assert t <= s < t + remaining, f"{kind} read at {s}, window {t}..{t + remaining - 1}"
                crashed, cells = decoded[s - t]
                if kind in ("crashed", "column"):
                    assert crashed == walker.pattern.real.crashed[s], f"crashed set at {s}"
                history = walker.history.real.cells
                for p in range(walker.n) if kind == "column" else where[:1] if kind == "cell" else ():
                    assert cells[p] == history[p][s], f"cell ({p}, {s})"


class _ReadSetTable:
    """A window's table of a ``_ReadSetAudit``: a lookup opens a frame and
    misses, and the store after the subtree's walk closes it."""

    def __init__(self, audit: _ReadSetAudit) -> None:
        self.audit = audit

    def get(self, configuration, default=None):
        self.audit.open()
        return default

    def __setitem__(self, configuration, subtree) -> None:
        self.audit.frames.pop()


def _set_decoder(walker):
    ids = walker.set_ids
    values = getattr(ids, "values", None)
    if isinstance(values, list):
        return values.__getitem__
    inverse = {i: s for s, i in ids.items()}
    return inverse.__getitem__


class _Recorded:
    """A failure pattern whose reads are checked by the audit."""

    def __init__(self, real, audit: _ReadSetAudit) -> None:
        self.real, self.audit = real, audit
        self.n, self.horizon = real.n, real.horizon
        self.crashed = _RecordedRow(real.crashed, audit, "crashed")

    def crashed_at(self, t: int) -> frozenset:
        self.audit.read("crashed", t)
        return self.real.crashed[t]

    def faulty(self) -> frozenset:
        self.audit.read("faulty")
        return self.real.faulty()

    def correct(self) -> frozenset:
        self.audit.read("faulty")
        return self.real.correct()


class _RecordedRow(tuple):
    """Sets by time, each read checked by the audit."""

    def __new__(cls, row, audit: _ReadSetAudit, kind: str, *where):
        recorded = super().__new__(cls, row)
        recorded.audit, recorded.kind, recorded.where = audit, kind, where
        return recorded

    def __getitem__(self, s):
        self.audit.read(self.kind, *self.where, s)
        return super().__getitem__(s)

    def __iter__(self):
        return (self[s] for s in range(len(self)))


class _RecordedHistory:
    """A history whose cells are read through ``_RecordedRow``s."""

    def __init__(self, real, audit: _ReadSetAudit) -> None:
        self.real = real
        self.n, self.horizon = real.n, real.horizon
        self.cells = tuple(_RecordedRow(row, audit, "cell", p) for p, row in enumerate(real.cells))


class _RecordedSet(frozenset):
    """The faulty set, each membership test checked by the audit."""

    def __new__(cls, real: frozenset, audit: _ReadSetAudit):
        recorded = super().__new__(cls, real)
        recorded.audit = audit
        return recorded

    def __contains__(self, p) -> bool:
        self.audit.read("faulty")
        return super().__contains__(p)

    def __hash__(self) -> int:
        self.audit.read("faulty")
        return super().__hash__()


class _RecordedList(list):
    """The path, whose length (the depth) a memoized walk must not read."""

    def __init__(self, real: list, audit: _ReadSetAudit) -> None:
        super().__init__(real)
        self.audit = audit

    def __len__(self) -> int:
        self.audit.read("depth", sys._getframe(1).f_code.co_name)
        return super().__len__()


def _sabotaged_sos(alg, interp: Interpretation) -> Interpretation:
    """Criterion 3's sabotage: one stall state shows the wrong letter."""
    q = alg.initial_states(0)[0]
    wrong = "1|-" if interp.of(0, q) != "1|-" else "0|-"
    return derive_interpretation_sos(interp, alg).replaced(0, StallState(q), wrong)


def _sabotaged_das(alg, interp: Interpretation) -> Interpretation:
    """The delay claim's counterpart: one delay state shows the wrong letter."""
    q = alg.initial_states(0)[0]
    wrong = "1|-" if interp.of(0, q) != "1|-" else "0|-"
    return derive_interpretation_das(interp, alg).replaced(0, DelayState(q), wrong)


def _sabotaged_step_das(alg, interp: Interpretation) -> Interpretation:
    """A derivation wrong on a state the mapping keeps: the state process 0
    enters from its first initial state, hearing and suspecting nothing."""
    post, _ = alg.transition(0, alg.initial_states(0)[0], None, frozenset())
    proposal, decision = interp.of(0, post).split("|")
    wrong = f"{1 - int(proposal)}|{decision}"
    return derive_interpretation_das(interp, alg).replaced(0, post, wrong)


#: n = 3 delay-claim bounds whose memo hits cross histories and patterns.
#: Its patterns leave process 0 the one survivor, whose decision can rest on
#: what it suspects, so the history cells a subtree reads change its totals
DELAY_AUDIT_BOUNDS = EnumerationBounds(
    n=3,
    horizon=3,
    max_steps=4,
    history_budget=1,
    patterns=tuple(p for p in all_monotone_patterns(3, 3) if p.faulty() == {1, 2}),
)
#: the delay checks the memo audits compare: clean, a delay state's letter
#: sabotaged, a kept state's letter sabotaged, and unshifted.  The two
#: sabotages put failures in subtrees the memo serves.  A delay state shows
#: its letter only in a run's first row, so its sabotage unaligns the run at
#: the root, and every memo key below packs the path's context
DELAY_AUDIT_CASES = ("clean", "delay-letter", "step-letter", "unshifted")
DELAY_SABOTAGES = {"delay-letter": _sabotaged_das, "step-letter": _sabotaged_step_das}
#: n = 3 delay-claim bounds whose step bound ends each window before the
#: horizon, over every pattern, so that patterns which share a window's
#: crashed sets and history cells but not their faulty set meet there
DELAY_SHORT_BOUNDS = EnumerationBounds(n=3, horizon=2, max_steps=2, history_budget=1)


#: n = 3 bounds small enough to walk every subtree the memos would serve
#: under the read-set audit
READ_SET_BOUNDS = EnumerationBounds(n=3, horizon=2, max_steps=2)


def _delay_report(name: str, case: str, bounds: EnumerationBounds = DELAY_AUDIT_BOUNDS) -> dict:
    alg, interp, predicate = builtin_algorithm(name, 3)
    sabotage = DELAY_SABOTAGES.get(case)
    derived = None if sabotage is None else sabotage(alg, interp)
    return _untimed(
        verify_das(
            alg, interp, predicate, 0, bounds,
            derived_interp=derived, time_shift=case != "unshifted",
        )
    )


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
        monkeypatch.setattr(harness._SosWalker, "memo_view", lambda self: None)
        assert report(None) == clean
        assert report(_sabotaged_sos(alg, interp)) == sabotaged

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_equal_stall_memo_keys_mean_equal_subtrees(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Wherever the stall memo would be consulted, an audit memo walks
        the subtree anyway and compares it with every earlier subtree under
        the same key, clean and sabotaged; only the sabotaged call repeats
        keys that pack a context."""
        alg, interp, predicate = builtin_algorithm(name, 3)
        bounds = EnumerationBounds(n=3, horizon=4, max_steps=4)
        memo_view = harness._SosWalker.memo_view
        for derived in (None, _sabotaged_sos(alg, interp)):
            audit = _AuditMemo()
            monkeypatch.setattr(
                harness._SosWalker,
                "memo_view",
                lambda self: None if memo_view(self) is None else audit,
            )
            verify_sos(alg, interp, predicate, bounds, derived_interp=derived)
            assert audit.repeats > 0
            assert any(tally for *_, tally in audit.records()) == (derived is not None)
            assert (audit.context_repeats > 0) == (derived is not None)

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
    def test_delay_preservation_fast_equals_thorough(
        self, name: str, sabotaged: bool, planted: bool
    ) -> None:
        """The memoized pass and the from-scratch pass agree exactly.  A
        delay state showing the wrong letter fails clauses (c) and (d) on the
        runs that start in it.  The length-sensitive predicate is judged on
        the whole sequence, which the memo does not serve, and fails clause
        (d); its failures must agree too."""
        alg, interp, predicate = builtin_algorithm(name, 2)
        if planted:
            predicate = PlantedLengthSensitive()
        derived = _sabotaged_das(alg, interp) if sabotaged else None
        fast = verify_das(alg, interp, predicate, 0, self.BOUNDS, derived_interp=derived)
        slow = verify_das(
            alg, interp, predicate, 0, self.BOUNDS, derived_interp=derived, thorough=True
        )
        assert fast.ok == slow.ok == (not sabotaged and not planted)
        for field in ("checked_runs", "checked_histories", "failure_count",
                      "decided_runs", "undecided_runs", "families"):
            assert getattr(fast, field) == getattr(slow, field), field
        assert [f.to_dict() for f in fast.failures] == [f.to_dict() for f in slow.failures]

    @pytest.mark.parametrize("case", ["sos", *DELAY_SABOTAGES])
    def test_stutter_table_holds_each_pairs_verdict(
        self, case: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Each entry of a sabotaged call's stutter table holds
        ``is_stutter``'s verdict on the two row sequences its key decodes
        to, and ``is_stutter`` runs at most once per entry; the call's
        report is the thorough one's."""
        alg, interp, predicate = builtin_algorithm("flood-consensus-p", 2)
        derived = (_sabotaged_sos if case == "sos" else DELAY_SABOTAGES[case])(alg, interp)
        walkers = []
        calls = 0
        init = harness._TreeWalker.__init__

        def recording_init(walker, *args, **kw) -> None:
            init(walker, *args, **kw)
            walkers.append(walker)

        def counted(w, w_prime) -> bool:
            nonlocal calls
            calls += 1
            return is_stutter(w, w_prime)

        def report(thorough: bool) -> dict:
            kw = dict(derived_interp=derived, thorough=thorough)
            if case == "sos":
                return _untimed(verify_sos(alg, interp, predicate, self.BOUNDS, **kw))
            return _untimed(verify_das(alg, interp, predicate, 0, self.BOUNDS, **kw))

        monkeypatch.setattr(harness._TreeWalker, "__init__", recording_init)
        monkeypatch.setattr(harness, "is_stutter", counted)
        fast = report(False)
        walker = walkers[0]
        rows = walker.rows.values
        verdicts = []
        for expected, ((mapped, wrapper), (pair, verdict)) in enumerate(walker.stutters.items()):
            assert pair == expected
            w, w_prime = (tuple(rows[row] for row in ids) for ids in (mapped, wrapper))
            assert verdict == is_stutter(w, w_prime)
            verdicts.append(verdict)
        assert 0 < calls <= len(verdicts)
        assert not all(verdicts)
        slow = report(True)
        assert (fast.pop("thorough"), slow.pop("thorough")) == (False, True)
        assert fast["failure_count"] > 0
        assert fast == slow

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_delay_memo_on_equals_memo_off_at_three_processes(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """The delay memo's hits cross histories, initial states and
        patterns; whole reports, clean, sabotaged and unshifted, must not
        depend on them.  A memo key first looked up under another history
        of the same pattern is such a hit."""
        memo_key = harness._DasWalker.memo_key
        first_history: dict[tuple, object] = {}
        crossing = 0

        def spied(walker, t: int, remaining: int, configuration: int, aligned: bool) -> tuple:
            nonlocal crossing
            key = memo_key(walker, t, remaining, configuration, aligned)
            crossing += first_history.setdefault((walker.pattern, key), walker.history) is not (
                walker.history
            )
            return key

        monkeypatch.setattr(harness._DasWalker, "memo_key", spied)
        memoized = {case: _delay_report(name, case) for case in DELAY_AUDIT_CASES}
        assert crossing > 0
        failing = {case for case, doc in memoized.items() if doc["failure_count"]}
        assert failing == set(DELAY_AUDIT_CASES) - {"clean"}
        monkeypatch.setattr(harness._DasWalker, "memo_view", lambda self: None)
        assert {case: _delay_report(name, case) for case in DELAY_AUDIT_CASES} == memoized

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_equal_delay_memo_keys_mean_equal_subtrees(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Wherever the delay memo would be consulted, one audit memo for the
        whole call walks the subtree anyway and compares it with every
        earlier subtree under the same key, whichever pattern stored it: a
        key must fix its subtree whatever the memo's lifetime.  Subtrees
        carry failures exactly where a letter is sabotaged.  Keys off
        aligned paths, which pack a context, repeat only there: in every
        delay-letter call, which unaligns each run at its root."""
        memo_view = harness._DasWalker.memo_view
        for bounds in (DELAY_AUDIT_BOUNDS, DELAY_SHORT_BOUNDS):
            for case in DELAY_AUDIT_CASES:
                audit = _AuditMemo()
                monkeypatch.setattr(
                    harness._DasWalker,
                    "memo_view",
                    lambda self: None if memo_view(self) is None else audit,
                )
                _delay_report(name, case, bounds)
                assert audit.repeats > 0
                sabotaged = case in DELAY_SABOTAGES
                assert any(tally for *_, tally in audit.records()) == sabotaged
                # a kept state's letter unaligns a short window's paths only at leaves
                unaligned = case == "delay-letter" or sabotaged and bounds is DELAY_AUDIT_BOUNDS
                assert (audit.context_repeats > 0) == unaligned

    def test_delay_memo_keeps_each_key_for_the_whole_call(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """The delay memo lasts for the whole call: each (window,
        configuration) key misses once, and some hit is on an entry stored
        while walking an earlier pattern."""
        memo_key = harness._DasWalker.memo_key
        stored_in: dict[tuple[int, int], FailurePattern] = {}
        earlier = missed_again = 0

        def spied(walker, t: int, remaining: int, node: int, aligned: bool) -> tuple[int, int]:
            nonlocal earlier, missed_again
            key = window, configuration = memo_key(walker, t, remaining, node, aligned)
            if configuration in walker.memo.get(window, ()):
                earlier += stored_in[key] != walker.pattern
            else:
                missed_again += key in stored_in
                stored_in[key] = walker.pattern
            return key

        monkeypatch.setattr(harness._DasWalker, "memo_key", spied)
        _delay_report("flood-consensus-p", "clean")
        assert earlier > 0
        assert missed_again == 0

    @pytest.mark.parametrize("name", ["flood-consensus-p", "strong-consensus-m"])
    def test_memoized_walks_read_only_what_their_keys_fix(
        self, name: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Every subtree the memos would store reads only what its key fixes
        (``_ReadSetAudit``), for both claims, clean and sabotaged."""
        alg, interp, predicate = builtin_algorithm(name, 3)
        audit = _ReadSetAudit(monkeypatch)
        for derived in (None, _sabotaged_sos(alg, interp)):
            verify_sos(alg, interp, predicate, READ_SET_BOUNDS, derived_interp=derived)
        for case in DELAY_AUDIT_CASES[:3]:
            _delay_report(name, case, READ_SET_BOUNDS)
        assert not audit.frames
        assert audit.misses > audit.contexts > 0 and audit.reads > 0

    def test_over_cap_claims_are_refused_before_anything_is_built(self) -> None:
        """The run cap is checked before the walker exists, so refusing a
        wide algorithm allocates nothing per process subset: at 16
        processes each claim's refusal peaks under 1 MB."""
        n = 16
        alg = TableAlgorithm("wide", n, (("a", "b"),) * n, ({},) * n, (("x",),) * n)
        maps = ({"a": "0|-", "b": "1|-"},) * n
        interp = Interpretation(maps, AGREEMENT_ALPHABET, AGREEMENT_INITIAL_ALPHABET)
        bounds = EnumerationBounds(n=n, horizon=2, max_steps=2, run_cap=0)
        for check in (
            lambda: verify_sos(alg, interp, PREDICATE, bounds),
            lambda: verify_das(alg, interp, PREDICATE, 0, bounds),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded):
                    check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

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
        assert d["canonicalizations"] == [
            "schedule times are consecutive within a window; every feasible window "
            "offset is swept, runs with internal time gaps are not enumerated; under "
            "Pk with a deviation budget, which gapped runs the sweep covers depends "
            "on the budget",
            "histories deviating from the canonical one only at cells no live process "
            "reads share one schedule tree; one exact membership check serves each "
            "such group",
        ]
        assert canonical_json(d)

    def test_delay_report_names_the_shifted_oracle(self) -> None:
        report = verify_das(ALG, INTERP, PREDICATE, 1, self.BOUNDS)
        assert report.ok
        assert report.k == 1
        assert report.fd == "Pk:2"
