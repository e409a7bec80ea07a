"""The benchmark's own test, at tiny bounds (a few seconds in all).

Run with ``python3 -m pytest -q perfbench``.  It shows that traced and plain
calls report identical counts, that the tracer leaves no ``fdlab`` name
patched, and that a wrong pinned count makes the benchmark exit nonzero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
from tracer import FUNCTIONS, METRIC_UNITS, Tracer
from workloads import Workload, build, report_counts

HERE = Path(__file__).resolve().parent

# The README's solvability check, and criterion 3's bounds for the others.
TINY = {
    w.name: w
    for w in (
        Workload(
            "tiny-solves",
            "solves",
            (2, 3, 4, 1),
            {"ok": True, "checked_runs": 15_680},
        ),
        Workload("tiny-sos", "sos", (2, 3, 3, 1), {"ok": True}),
        Workload("tiny-das", "das", (2, 3, 3, 1), {"ok": True}),
        Workload(
            "tiny-sos-broken",
            "sos",
            (2, 3, 3, 1),
            {"ok": False, "failure_count": 6_048},
            broken=True,
        ),
    )
}


@pytest.mark.parametrize("name", TINY)
def test_traced_and_plain_calls_report_identical_counts(name: str) -> None:
    workload = TINY[name]
    give_up = time.monotonic() + 60
    plain = run.run_child(workload, "plain", give_up)
    traced = run.run_child(workload, "traced", give_up)
    assert traced["counts"] == plain["counts"]
    assert run.pin_mismatches(workload.pins, plain["counts"]) == []
    assert traced["still_patched"] == []
    assert set(traced["layers"]) == set(METRIC_UNITS)


def test_traced_run_reports_every_layer_metric() -> None:
    tally = run.Tally()
    metrics = run.measure(TINY["tiny-sos-broken"], 0, True, tally, time.monotonic() + 60)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert set(metrics) == set(METRIC_UNITS) | {"trace_overhead"}
    assert metrics["harness.history_groups.members"][0] > 0
    assert metrics["problems.is_stutter.calls"][0] > 0


def test_tracer_restores_every_patched_name() -> None:
    sys.path.insert(0, str(run.SRC))
    call, alg, predicate = build(TINY["tiny-solves"].spec())
    expected = report_counts(call())
    modules = {name: sys.modules[name] for name, *_ in FUNCTIONS}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    instances_before = (dict(vars(alg)), dict(vars(predicate)))

    tracer = Tracer()
    tracer.install(modules, alg, predicate)
    try:
        assert report_counts(call()) == expected
    finally:
        tracer.restore()

    assert tracer.metrics(1.0)["harness.enumerate_runs.runs"] == 15_680
    for name, module in modules.items():
        assert vars(module) == before[name], name
    assert (dict(vars(alg)), dict(vars(predicate))) == instances_before


def test_wrong_pinned_count_exits_nonzero(capsys) -> None:
    good = TINY["tiny-solves"]
    assert run.main(["--workload", good.name, "--seconds", "0"], workloads=TINY) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True

    wrong = replace(good, pins={**good.pins, "checked_runs": 15_681})
    code = run.main(["--workload", wrong.name, "--seconds", "0"], workloads={wrong.name: wrong})
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solves-flood", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
