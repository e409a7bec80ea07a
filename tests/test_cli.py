"""End-to-end tests of the command line, run in-process through ``main``."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from fdlab import (
    Algorithm,
    EnumerationBounds,
    FDSpec,
    builtin_algorithm,
    enumerate_runs,
)
from fdlab.cli import main
from fdlab.traces import canonical_json, run_to_doc

ALG, _, _ = builtin_algorithm("flood-consensus-p", 2)
#: a JSON number past Python's 4,300-digit integer conversion limit, which
#: ``json.loads`` refuses with a plain ``ValueError``
HUGE_NUMBER_DOC = '{"n": ' + "9" * 5000 + "}"


@pytest.fixture()
def run_doc() -> dict:
    bounds = EnumerationBounds(n=2, horizon=3, max_steps=3)
    runs = enumerate_runs(ALG, FDSpec.always_accurate(), bounds)
    run = next(r for r in runs if len(r.schedule) >= 2)
    return run_to_doc(run, ALG)


@pytest.fixture()
def run_file(tmp_path: Path, run_doc: dict) -> Path:
    path = tmp_path / "run.json"
    path.write_text(canonical_json(run_doc))
    return path


class TestValidate:
    def test_valid_run_exits_zero(self, run_file: Path, capsys) -> None:
        code = main(["validate", str(run_file), "--algorithm", "flood-consensus-p", "--fd", "P"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("valid run:")

    def test_reads_stdin_dash(self, run_doc: dict, capsys, monkeypatch) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO(canonical_json(run_doc)))
        code = main(["validate", "-", "--algorithm", "flood-consensus-p", "--fd", "P"])
        assert code == 0
        assert "valid run" in capsys.readouterr().out

    def test_invalid_run_exits_one_and_names_conditions(
        self, tmp_path: Path, run_doc: dict, capsys
    ) -> None:
        run_doc["times"] = list(range(len(run_doc["times"])))[::-1]
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(run_doc))
        code = main(["validate", str(path), "--algorithm", "flood-consensus-p", "--fd", "P"])
        out = capsys.readouterr().out
        assert code == 1
        assert "invalid run" in out
        assert "time-order" in out

    def test_non_initial_state_exits_one(self, tmp_path: Path, run_doc: dict, capsys) -> None:
        """The empty run is valid only from initial states."""
        later = next(q for q in ALG.reachable_states(0) if q not in ALG.initial_states(0))
        run_doc.update(schedule=[], times=[])
        run_doc["init"][0] = ALG.state_str(later)
        path = tmp_path / "late.json"
        path.write_text(canonical_json(run_doc))
        code = main(["validate", str(path), "--algorithm", "flood-consensus-p", "--fd", "P"])
        out = capsys.readouterr().out
        assert code == 1
        assert "non-initial-state" in out

    def test_json_report(self, run_file: Path, capsys) -> None:
        code = main(
            ["validate", str(run_file), "--algorithm", "flood-consensus-p", "--fd", "P", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["violations"] == []

    def test_missing_file_is_a_usage_error(self, capsys) -> None:
        code = main(["validate", "/no/such/file.json", "--algorithm", "flood-consensus-p", "--fd", "P"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_a_usage_error(self, tmp_path: Path, capsys) -> None:
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["validate", str(path), "--algorithm", "flood-consensus-p", "--fd", "P"])
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [pytest.param(HUGE_NUMBER_DOC.encode(), id="huge-number"),
         pytest.param(b"\xff{}", id="not-utf-8"),
         pytest.param(b"[" * 100_000, id="deeply-nested")],
    )
    def test_unreadable_document_is_a_usage_error(
        self, content: bytes, tmp_path: Path, capsys
    ) -> None:
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        code = main(["validate", str(path), "--algorithm", "flood-consensus-p", "--fd", "P"])
        assert code == 2
        assert "not a readable JSON document" in capsys.readouterr().err

    def test_malformed_field_is_a_usage_error(
        self, tmp_path: Path, run_doc: dict, capsys
    ) -> None:
        run_doc["pattern"][0] = ["x", []]
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(run_doc))
        code = main(["validate", str(path), "--algorithm", "flood-consensus-p", "--fd", "P"])
        assert code == 2
        assert "malformed run document" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["prefix-consistent", "strict-fairness"])
    def test_nonpositive_window_is_a_usage_error(self, run_file: Path, mode: str, capsys) -> None:
        code = main(
            ["validate", str(run_file), "--algorithm", "flood-consensus-p", "--fd", "P",
             "--mode", mode, "--fairness-window", "0"]
        )
        assert code == 2
        assert "fairness window" in capsys.readouterr().err

    def test_window_needs_strict_mode(self, run_file: Path, capsys) -> None:
        """The window is read only where survivors are owed fairness."""
        args = ["validate", str(run_file), "--algorithm", "flood-consensus-p", "--fd", "P",
                "--fairness-window", "1"]
        assert main(args) == 2
        assert "fairness window" in capsys.readouterr().err
        assert main([*args, "--mode", "strict-fairness"]) == 1
        assert "fairness-gap" in capsys.readouterr().out

    def test_repeated_history_cell_is_a_usage_error(
        self, tmp_path: Path, run_doc: dict, capsys
    ) -> None:
        run_doc["history"][1] = run_doc["history"][0]
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(run_doc))
        code = main(["validate", str(path), "--algorithm", "flood-consensus-p", "--fd", "P"])
        assert code == 2
        assert "twice" in capsys.readouterr().err

    def test_unknown_oracle_string(self, run_file: Path, capsys) -> None:
        code = main(["validate", str(run_file), "--algorithm", "flood-consensus-p", "--fd", "Q"])
        assert code == 2

    def test_unknown_algorithm_name(self, run_file: Path, capsys) -> None:
        code = main(["validate", str(run_file), "--algorithm", "mystery", "--fd", "P"])
        assert code == 2
        assert "not a builtin" in capsys.readouterr().err

    def test_process_count_is_refused_for_an_algorithm_document(
        self, run_file: Path, tmp_path: Path, capsys
    ) -> None:
        assert main(["transform", "sos", "flood-consensus-p", "--json"]) == 0
        path = tmp_path / "a.json"
        path.write_text(capsys.readouterr().out)
        code = main(
            ["validate", str(run_file), "--algorithm", str(path), "--fd", "M", "--n", "2"]
        )
        assert code == 2
        assert "--n applies only to builtin algorithms" in capsys.readouterr().err


class TestTransform:
    def test_text_summary_lists_states(self, capsys) -> None:
        code = main(["transform", "sos", "flood-consensus-p"])
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm: flood-consensus-p+sos (n=2)" in out
        assert "states:" in out
        assert "stall(" in out

    def test_json_document_round_trips(self, capsys) -> None:
        code = main(["transform", "das", "flood-consensus-p", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "algorithm.v1"
        assert doc["name"] == "flood-consensus-p+das"
        assert any("delay(" in s for s in doc["states"][0])

    def test_wrappers_nest_through_stdin(self, capsys, monkeypatch) -> None:
        """Piping one transform's JSON into another stacks the wrappers."""
        assert main(["transform", "das", "flood-consensus-p", "--json"]) == 0
        first = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(first))
        assert main(["transform", "das", "-", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "flood-consensus-p+das+das"
        assert any("delay(delay(" in s for s in doc["states"][0])

    def test_file_input(self, tmp_path: Path, capsys) -> None:
        assert main(["transform", "sos", "strong-consensus-m", "--json"]) == 0
        path = tmp_path / "alg.json"
        path.write_text(capsys.readouterr().out)
        assert main(["transform", "das", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "strong-consensus-m+sos+das"

    def test_huge_json_number_on_stdin_is_a_usage_error(self, capsys, monkeypatch) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO(HUGE_NUMBER_DOC))
        assert main(["transform", "sos", "-"]) == 2
        assert "standard input is not a readable JSON document" in capsys.readouterr().err

    def test_process_count_applies_to_builtins(self, capsys) -> None:
        assert main(["transform", "sos", "flood-consensus-p", "--n", "3"]) == 0
        assert "algorithm: flood-consensus-p+sos (n=3)" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_process_count_is_refused_for_a_document(
        self, source: str, tmp_path: Path, capsys, monkeypatch
    ) -> None:
        """A document fixes its own process count, so ``--n`` would be ignored."""
        assert main(["transform", "sos", "flood-consensus-p", "--json"]) == 0
        doc = capsys.readouterr().out
        if source == "file":
            path = tmp_path / "a.json"
            path.write_text(doc)
            algorithm = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            algorithm = "-"
        assert main(["transform", "das", algorithm, "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n applies only to builtin algorithms" in captured.err

    @pytest.mark.parametrize("verb", ["transform", "validate"])
    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(
                {"schema": "algorithm.v1", "name": "empty", "n": 0, "init": [],
                 "payloads": [], "table": []},
                id="no-process",
            ),
            pytest.param(
                {"schema": "algorithm.v1", "name": "stray", "n": 2, "init": [["a"], ["p"]],
                 "payloads": [["x"], []],
                 "table": [[{"pre": "a", "recv": None, "fd": [], "post": "b",
                             "send": [5, "x"]}], []]},
                id="send-to-no-process",
            ),
        ],
    )
    def test_algorithm_document_outside_its_processes_is_a_usage_error(
        self, verb: str, doc: dict, tmp_path: Path, run_file: Path, capsys
    ) -> None:
        path = tmp_path / "alg.json"
        path.write_text(canonical_json(doc))
        argv = (
            ["transform", "sos", str(path)]
            if verb == "transform"
            else ["validate", str(run_file), "--algorithm", str(path), "--fd", "P"]
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestVerify:
    def test_stall_claim_passes_at_small_bounds(self, capsys) -> None:
        code = main(["verify", "sos", "flood-consensus-p", "--horizon", "2", "--max-steps", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sos-preservation on flood-consensus-p under M: OK" in out
        assert "note:" in out

    def test_delay_claim_json_report(self, capsys) -> None:
        code = main(
            ["verify", "das", "strong-consensus-m", "--k", "1",
             "--horizon", "2", "--max-steps", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "theorem"
        assert doc["theorem"] == "das-preservation"
        assert doc["fd"] == "Pk:2"
        assert doc["failure_count"] == 0

    def test_run_cap_stops_verification_with_exit_three(self, capsys, monkeypatch) -> None:
        monkeypatch.setenv("FDLAB_RUN_CAP", "10")
        code = main(["verify", "sos", "flood-consensus-p", "--history-budget", "1"])
        assert code == 3
        assert "exceed the cap of 10" in capsys.readouterr().err

    def test_long_horizon_with_a_large_budget_exits_three(self, capsys, monkeypatch) -> None:
        """The refusal comes before the history sum grows past the cap."""
        monkeypatch.delenv("FDLAB_RUN_CAP", raising=False)
        code = main(
            ["verify", "sos", "flood-consensus-p", "--horizon", "100000",
             "--history-budget", "100000"]
        )
        assert code == 3
        assert "exceed the cap of 1000000" in capsys.readouterr().err

    def test_fairness_window_is_a_usage_error(self, capsys) -> None:
        """The claims walk every prefix-consistent run; only ``probe`` takes a
        fairness window."""
        code = main(
            ["verify", "sos", "flood-consensus-p", "--horizon", "2", "--max-steps", "2",
             "--fairness-window", "1"]
        )
        assert code == 2
        assert "--fairness-window" in capsys.readouterr().err
        assert main(
            ["probe", "flood-consensus-p", "--fd", "P", "--problem", "consensus",
             "--horizon", "2", "--max-steps", "2", "--fairness-window", "1"]
        ) == 0

    @pytest.mark.parametrize("k", ["0", "7"])
    def test_stall_claim_takes_no_lag(self, k: str, capsys) -> None:
        code = main(
            ["verify", "sos", "flood-consensus-p", "--horizon", "2", "--max-steps", "2", "--k", k]
        )
        assert code == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["9", "3", "-2"])
    def test_delay_lag_past_the_horizon_names_the_given_lag(self, k: str, capsys) -> None:
        code = main(["verify", "das", "flood-consensus-p", "--horizon", "3", "--k", k])
        assert code == 2
        assert f"k={k} outside 0..2" in capsys.readouterr().err

    def test_delay_claim_needs_a_positive_horizon(self, capsys) -> None:
        code = main(["verify", "das", "flood-consensus-p", "--horizon", "0"])
        assert code == 2
        assert "the delay claim needs horizon >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify", "sos", "flood-consensus-p"], id="verify"),
            pytest.param(
                ["probe", "flood-consensus-p", "--fd", "P", "--problem", "consensus"],
                id="probe",
            ),
        ],
    )
    def test_over_cap_request_is_refused_before_any_state_is_explored(
        self, argv: list[str], capsys, monkeypatch
    ) -> None:
        """A built-in's interpretation explores every reachable state under
        all 2^n suspect sets; an over-cap request must not pay for that."""

        def explore(self, i: int):
            raise AssertionError("reachable states explored before the run cap")

        monkeypatch.delenv("FDLAB_RUN_CAP", raising=False)
        monkeypatch.setattr(Algorithm, "reachable_states", explore)
        assert main([*argv, "--n", "7"]) == 3
        assert "exceed the cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify", "sos", "flood-consensus-p", "--n", "5000"], id="n"),
            pytest.param(
                ["verify", "sos", "flood-consensus-p", "--n", "3", "--horizon", str(10**1500)],
                id="sos-horizon",
            ),
            pytest.param(
                ["verify", "das", "flood-consensus-p", "--n", "2", "--horizon", str(10**2500)],
                id="das-horizon",
            ),
        ],
    )
    def test_estimate_too_long_to_print_still_exits_three(
        self, argv: list[str], capsys, monkeypatch
    ) -> None:
        """Past Python's 4,300-digit limit an estimate cannot be printed;
        the refusal is still the budget's exit code, without a traceback."""
        monkeypatch.delenv("FDLAB_RUN_CAP", raising=False)
        assert main(argv) == 3
        assert "exceed the cap of" in capsys.readouterr().err

    def test_malformed_run_cap_is_a_usage_error(self, capsys, monkeypatch) -> None:
        monkeypatch.setenv("FDLAB_RUN_CAP", "abc")
        code = main(["verify", "sos", "flood-consensus-p", "--n", "2", "--horizon", "2"])
        assert code == 2
        assert "FDLAB_RUN_CAP must be a non-negative integer" in capsys.readouterr().err


class TestProbe:
    def test_no_violation_exits_zero(self, capsys) -> None:
        code = main(
            ["probe", "flood-consensus-p", "--fd", "P", "--problem", "consensus",
             "--horizon", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no violation among" in out

    def test_found_counterexample_exits_one_and_revalidates(
        self, tmp_path: Path, capsys
    ) -> None:
        """The emitted witness is itself a valid run document."""
        code = main(
            ["probe", "flood-consensus-p", "--fd", "P", "--problem", "strong-consensus",
             "--horizon", "2", "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "probe"
        assert payload["found"] is True
        witness = tmp_path / "witness.json"
        witness.write_text(canonical_json(payload["run"]))
        assert main(
            ["validate", str(witness), "--algorithm", "flood-consensus-p", "--fd", "P"]
        ) == 0

    def test_quiescent_probe_counts_timeouts(self, capsys) -> None:
        code = main(
            ["probe", "flood-consensus-p", "--fd", "P", "--problem", "consensus",
             "--horizon", "2", "--max-steps", "2", "--require-quiescence"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "quiescence violation among" in out

    def test_unknown_problem_name(self, capsys) -> None:
        code = main(
            ["probe", "flood-consensus-p", "--fd", "P", "--problem", "leader-election"]
        )
        assert code == 2
        assert "unknown problem" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys) -> None:
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys) -> None:
        assert main(["audit"]) == 2

    @pytest.mark.parametrize("flag", ["--marabout-strict-live", "--no-marabout-strict-live"])
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["transform", "sos", "flood-consensus-p"], id="transform"),
            pytest.param(
                ["verify", "sos", "flood-consensus-p", "--horizon", "2", "--max-steps", "2"],
                id="verify",
            ),
            pytest.param(
                ["probe", "flood-consensus-p", "--fd", "P", "--problem", "consensus",
                 "--horizon", "2", "--max-steps", "2"],
                id="probe-P",
            ),
            pytest.param(
                ["validate", "missing.json", "--algorithm", "flood-consensus-p",
                 "--fd", "Pk:1"],
                id="validate-Pk",
            ),
            pytest.param(
                ["probe", "flood-consensus-p", "--fd", "M", "--problem", "consensus",
                 "--horizon", "2", "--max-steps", "2"],
                id="probe-M",
            ),
            pytest.param(
                ["validate", "missing.json", "--algorithm", "flood-consensus-p",
                 "--fd", "M"],
                id="validate-M",
            ),
        ],
    )
    def test_oracle_flag_is_refused_where_no_oracle_is_read(
        self, argv: list[str], flag: str, capsys
    ) -> None:
        """No verb takes a foresight flag: ``transform`` takes no oracle, each
        claim of ``verify`` fixes its own, and the loose foresight oracle has
        its own name, ``--fd M:correct``."""
        assert main([*argv, flag]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("fd, runs", [("M", 2_732), ("M:correct", 4_556)])
    def test_oracle_flag_is_read_under_the_foresight_oracle(
        self, fd: str, runs: int, capsys
    ) -> None:
        """Constraining only the survivors admits more perturbed histories,
        and the report names the oracle it checked."""
        argv = ["probe", "flood-consensus-p", "--fd", fd, "--problem", "consensus",
                "--horizon", "2", "--max-steps", "2", "--history-budget", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"under {fd} against consensus: no violation among {runs} fair runs" in out
