"""Unit tests for the JSON wire formats and their round trips."""

from __future__ import annotations

import json
from itertools import islice

import pytest

from fdlab import (
    EnumerationBounds,
    FDSpec,
    builtin_algorithm,
    enumerate_runs,
    validate_run,
)
from fdlab.errors import DomainMismatch
from fdlab.machines import TableAlgorithm
from fdlab.traces import (
    algorithm_from_doc,
    algorithm_to_doc,
    canonical_json,
    problem_from_doc,
    problem_to_doc,
    run_from_doc,
    run_to_doc,
)

ALG, INTERP, _ = builtin_algorithm("flood-consensus-p", 2)
FD = FDSpec.always_accurate()
BOUNDS = EnumerationBounds(n=2, horizon=3, max_steps=4, history_budget=0)


def sample_runs(count: int):
    return list(islice(enumerate_runs(ALG, FD, BOUNDS), count))


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self) -> None:
        text = canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"y"') < text.index('"z"')

    def test_parse_and_rerender_is_identity(self) -> None:
        doc = {"n": 2, "rows": [[0, []], [1, [0, 1]]], "name": "x"}
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text


class TestRunDocuments:
    def test_doc_round_trip_is_byte_exact(self) -> None:
        """Serializing, parsing, and re-serializing reproduces the bytes."""
        runs = sample_runs(200)
        assert runs
        for run in runs:
            doc = run_to_doc(run, ALG)
            text = canonical_json(doc)
            reparsed = run_from_doc(json.loads(text), ALG)
            assert canonical_json(run_to_doc(reparsed, ALG)) == text

    def test_parsed_runs_stay_valid(self) -> None:
        """Re-matched message identities satisfy every validity condition."""
        for run in sample_runs(200):
            reparsed = run_from_doc(run_to_doc(run, ALG), ALG)
            report = validate_run(reparsed, ALG, FD)
            assert report.valid, [v.to_dict() for v in report.violations]

    def test_receives_rematch_fifo(self) -> None:
        """Two in-flight copies of the same (sender, receiver, payload): the
        receive consumes the one sent first."""
        alg = TableAlgorithm(
            "repeater",
            2,
            (("a",), ("p",)),
            (
                {
                    ("a", None, frozenset()): ("b", (1, "x")),
                    ("b", None, frozenset()): ("c", (1, "x")),
                },
                {("p", (0, "x"), frozenset()): ("q", None)},
            ),
            (("x",), ()),
        )
        doc = {
            "schema": "run.v1",
            "n": 2,
            "horizon": 3,
            "pattern": [[t, []] for t in range(4)],
            "history": [[p, t, []] for p in range(2) for t in range(4)],
            "init": ["a", "p"],
            "schedule": [
                {"actor": 0, "pre": "a", "recv": None, "fd": [], "post": "b", "send": [1, "x"]},
                {"actor": 0, "pre": "b", "recv": None, "fd": [], "post": "c", "send": [1, "x"]},
                {"actor": 1, "pre": "p", "recv": [0, "x"], "fd": [], "post": "q", "send": None},
            ],
            "times": [0, 1, 2],
        }
        run = run_from_doc(doc, alg)
        received = run.schedule[2].received
        assert received is not None
        assert received == run.schedule[0].sent
        assert received != run.schedule[1].sent

    def test_unmatched_receive_parses_but_fails_validation(self) -> None:
        """A receive with no matching send gets a sentinel identity that the
        validator rejects, instead of a parse error."""
        doc = next(
            d
            for d in (run_to_doc(r, ALG) for r in sample_runs(200))
            if any(s["recv"] is None for s in d["schedule"])
        )
        doc["schedule"] = [dict(s) for s in doc["schedule"]]
        victim = next(s for s in doc["schedule"] if s["recv"] is None)
        victim["recv"] = [1 - victim["actor"], "0"]
        tampered = run_from_doc(doc, ALG)
        bad_tags = [
            s.received.tag
            for s in tampered.schedule
            if s.received is not None and s.received.tag < 0
        ]
        assert bad_tags
        report = validate_run(tampered, ALG, FD)
        assert not report.valid
        assert any(v.condition == "spurious-receive" for v in report.violations)

    def test_malformed_run_documents(self) -> None:
        good = run_to_doc(sample_runs(1)[0], ALG)
        cases: list[dict] = []
        doc = dict(good)
        doc["schema"] = "run.v2"
        cases.append(doc)
        doc = dict(good)
        del doc["times"]
        cases.append(doc)
        doc = dict(good)
        doc["pattern"] = good["pattern"][:-1]
        cases.append(doc)
        doc = dict(good)
        doc["pattern"] = [[99, []]] + good["pattern"][1:]
        cases.append(doc)
        doc = dict(good)
        doc["history"] = good["history"][:-1]
        cases.append(doc)
        doc = dict(good)
        doc["init"] = good["init"] + ["v0;k0:0;s0;d-"]
        cases.append(doc)
        doc = dict(good)
        doc["schedule"] = [{"actor": 0}]
        cases.append(doc)
        doc = dict(good)
        doc["times"] = ["soon"]
        cases.append(doc)
        cases.append({"schema": "run.v1"})
        for row in (["x", []], 5, [0, 5]):
            doc = dict(good)
            doc["pattern"] = [row] + good["pattern"][1:]
            cases.append(doc)
        for row in (["x", 0, []], 5, [0, 0, 5]):
            doc = dict(good)
            doc["history"] = [row] + good["history"][1:]
            cases.append(doc)
        stepped = run_to_doc(next(r for r in sample_runs(100) if r.schedule), ALG)
        step = stepped["schedule"][0]
        for field, value in (("recv", ["a", "0"]), ("recv", 5), ("send", ["b", "0"]),
                             ("send", [1])):
            doc = dict(stepped)
            doc["schedule"] = [dict(step, **{field: value})] + stepped["schedule"][1:]
            cases.append(doc)
        # a repeated pattern time or history cell in place of another one
        doc = dict(good)
        doc["pattern"] = [good["pattern"][0]] * 2 + good["pattern"][2:]
        cases.append(doc)
        doc = dict(good)
        doc["history"] = [good["history"][0]] * 2 + good["history"][2:]
        cases.append(doc)
        for case in cases:
            with pytest.raises(DomainMismatch):
                run_from_doc(case, ALG)

    def test_unparseable_state_is_a_domain_error(self) -> None:
        doc = run_to_doc(sample_runs(1)[0], ALG)
        doc["init"] = ["garbage"] + doc["init"][1:]
        with pytest.raises(DomainMismatch):
            run_from_doc(doc, ALG)


class TestProblemDocuments:
    def test_doc_round_trip_is_byte_exact(self) -> None:
        doc = problem_to_doc(INTERP, ALG)
        text = canonical_json(doc)
        reparsed = problem_from_doc(json.loads(text), ALG)
        assert canonical_json(problem_to_doc(reparsed, ALG)) == text

    def test_parsed_interpretation_agrees_on_every_state(self) -> None:
        reparsed = problem_from_doc(problem_to_doc(INTERP, ALG), ALG)
        assert frozenset(reparsed.sigma) == frozenset(INTERP.sigma)
        assert frozenset(reparsed.sigma_init) == frozenset(INTERP.sigma_init)
        for i in range(ALG.n):
            for state in ALG.reachable_states(i):
                assert reparsed.of(i, state) == INTERP.of(i, state)

    def test_malformed_problem_documents(self) -> None:
        with pytest.raises(DomainMismatch):
            problem_from_doc({"schema": "problem.v2"}, ALG)
        with pytest.raises(DomainMismatch):
            problem_from_doc({"schema": "problem.v1", "sigma": ["a"]}, ALG)
        with pytest.raises(DomainMismatch):
            problem_from_doc(
                {"schema": "problem.v1", "sigma": ["a"], "sigma_init": ["a"], "V": [5]}, ALG
            )


class TestAlgorithmDocuments:
    def test_doc_round_trip_is_byte_exact(self) -> None:
        for name in ("flood-consensus-p", "strong-consensus-m"):
            alg, _, _ = builtin_algorithm(name, 2)
            doc = algorithm_to_doc(alg)
            text = canonical_json(doc)
            reparsed = algorithm_from_doc(json.loads(text))
            assert canonical_json(algorithm_to_doc(reparsed)) == text

    def test_tabulation_lists_only_defined_rows(self) -> None:
        doc = algorithm_to_doc(ALG)
        for rows in doc["table"]:
            for row in rows:
                assert row["post"] is not None

    def test_malformed_algorithm_documents(self) -> None:
        good = algorithm_to_doc(ALG)
        with pytest.raises(DomainMismatch):
            algorithm_from_doc({"schema": "algorithm.v2"})
        doc = dict(good)
        del doc["payloads"]
        with pytest.raises(DomainMismatch):
            algorithm_from_doc(doc)
        doc = dict(good)
        doc["table"] = doc["table"][:1]
        with pytest.raises(DomainMismatch):
            algorithm_from_doc(doc)
        doc = dict(good)
        doc["table"] = [[{"pre": "x"}], []]
        with pytest.raises(DomainMismatch):
            algorithm_from_doc(doc)
        row = good["table"][0][0]
        for field, value in (("recv", ["z", "p"]), ("send", ["z", "p"]), ("send", [0])):
            doc = dict(good)
            doc["table"] = [[dict(row, **{field: value})], []]
            with pytest.raises(DomainMismatch):
                algorithm_from_doc(doc)
        doc = dict(good)
        doc["table"] = [5, []]
        with pytest.raises(DomainMismatch):
            algorithm_from_doc(doc)
        doc = dict(good)
        doc["table"] = [good["table"][0] + [dict(row, post="garbage")], good["table"][1]]
        with pytest.raises(DomainMismatch, match="twice"):
            algorithm_from_doc(doc)
