"""Time-to-verdict benchmark for fdlab's exhaustive checks.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Load shape: a closed loop with one client.  Each check call runs to
completion in a fresh process (``child.py``) before the next one starts, so
peak memory belongs to that call alone; no threads, no parallel processes.
Calls repeat until the next one would end after ``--seconds``; every metric
is the median over the calls of the run.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
plain and traced calls alternate and the per-layer metrics of the traced
calls are reported, with ``trace_overhead`` = traced ``wall_s`` / plain
``wall_s`` - 1.

Every call's verdict and counts are compared with the values pinned in
``workloads.py``; a call that raises or differs counts as failed, ends the
measurement, and makes the benchmark exit 1.  Nothing is sampled, so
``--seed`` is recorded but cannot change the inputs.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRIC_UNITS as LAYER_UNITS
from workloads import WORKLOADS, Workload, pin_mismatches

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"
#: Every call of one workload, set-up included, must end within this many
#: seconds of its start; a call still running then is killed and fails.
WORKLOAD_TIMEOUT_S = 170
#: Set-up takes about 0.1 s and swings with the host's load, so untraced runs
#: add this many set-up-only processes after each check call to its samples.
EXTRA_SETUPS_PER_CALL = 2


class ChildFailed(Exception):
    pass


def run_child(workload: Workload, mode: str, give_up: float) -> dict:
    """Run one measuring process to completion and return its result.

    The process is killed if it is still running at monotonic time ``give_up``.
    """
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(workload.spec()), mode],
            capture_output=True,
            text=True,
            timeout=max(give_up - time.monotonic(), 0.1),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} call still running {WORKLOAD_TIMEOUT_S}s after start") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{mode} call exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Measuring processes attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, workload: Workload, reason: str) -> None:
        self.failed += 1
        print(f"[{workload.name}] FAILED CHECK: {reason}", file=sys.stderr)


def measure(
    workload: Workload, seconds: float, trace: bool, tally: Tally, give_up: float
) -> dict:
    """Repeat the workload's check call for ``seconds``; return its metrics
    as ``{name: (value, unit)}``."""
    modes = ("plain", "traced") if trace else ("plain",) + ("setup",) * EXTRA_SETUPS_PER_CALL
    samples: dict[str, list[dict]] = {mode: [] for mode in modes}
    reference: dict | None = None
    deadline = time.monotonic() + seconds
    while not tally.failed:
        started = time.monotonic()
        for mode in modes:
            tally.attempted += 1
            try:
                result = run_child(workload, mode, give_up)
            except ChildFailed as exc:
                tally.fail(workload, str(exc))
                break
            if mode == "setup":
                samples[mode].append(result)
                continue
            problems = pin_mismatches(workload.pins, result["counts"])
            reference = reference or result["counts"]
            if result["counts"] != reference:
                problems.append(f"{mode} counts differ from the first call's")
            if mode == "traced":
                problems += [f"{name} left patched" for name in result["still_patched"]]
                if samples["traced"]:
                    layers, ref = result["layers"], samples["traced"][0]["layers"]
                    problems += [
                        f"{name} differs between traced calls"
                        for name, unit in LAYER_UNITS.items()
                        if unit == "count" and layers[name] != ref[name]
                    ]
            if problems:
                tally.fail(workload, "; ".join(problems))
                break
            samples[mode].append(result)
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    return summarize(workload, samples, trace)


def summarize(workload: Workload, samples: dict[str, list[dict]], trace: bool) -> dict:
    plain = samples["plain"]
    if not plain or (trace and not samples["traced"]):
        return {}
    wall = statistics.median(r["wall_s"] for r in plain)
    runs = plain[0]["counts"]["checked_runs"]
    setups = plain + samples.get("setup", [])
    print(f"[{workload.name}] medians of {len(plain)} plain calls, set-up of {len(setups)}")
    clauses = plain[0]["counts"]["clauses"]
    for clause, multiplicity in clauses.items():
        print(f"[{workload.name}] clause multiplicity (not pinned) {multiplicity:,}  {clause}")
    if not trace:
        return {
            "wall_s": (wall, "s"),
            "runs_per_s": (runs / wall, "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        }
    traced = samples["traced"]
    print(f"[{workload.name}] {len(traced)} traced calls")
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), unit)
        for name, unit in LAYER_UNITS.items()
    }
    overhead = statistics.median(r["wall_s"] for r in traced) / wall - 1
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdlab" / "__init__.py").is_file():
        print(f"no fdlab sources under {SRC}", file=sys.stderr)
        return 2
    chosen = list(workloads.values()) if args.workload == "all" else [workloads[args.workload]]
    print(
        f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed} "
        f"(inputs are fixed), closed loop with one client, one fresh process per call"
    )
    tally = Tally()
    metrics: dict[str, dict] = {}
    for workload in chosen:
        give_up = time.monotonic() + WORKLOAD_TIMEOUT_S
        # Compiles fdlab's bytecode once, so no measured set-up pays for it.
        try:
            run_child(workload, "setup", give_up)
        except ChildFailed as exc:
            print(f"[{workload.name}] cannot set up: {exc}", file=sys.stderr)
            return 2
        found = measure(workload, args.seconds, bool(args.trace), tally, give_up)
        prefix = f"{workload.name}." if args.workload == "all" else ""
        for name, (value, unit) in found.items():
            print(f"[{workload.name}] {name} = {value:.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = tally.failed == 0
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"failed_checks = {share:.3g} ({tally.failed} of {tally.attempted} processes)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
