"""End-to-end tests of the command line, run in-process through ``main``."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from fdlab import (
    EnumerationBounds,
    FDSpec,
    builtin_algorithm,
    enumerate_runs,
)
from fdlab.cli import main
from fdlab.traces import canonical_json, run_to_doc

ALG, _, _ = builtin_algorithm("flood-consensus-p", 2)


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
