"""The benchmark's workloads: one exhaustive check call each, with pinned counts.

Every workload runs on ``flood-consensus-p`` with three processes.  Nothing
is sampled, so the inputs are the same for every seed; the counts below were
produced by the deterministic enumeration order and gate every measured call.

This module does not import ``fdlab`` at import time: ``build`` does, so that
the time to import the library is part of the measured set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALGORITHM = "flood-consensus-p"


@dataclass(frozen=True)
class Workload:
    """One check call and the report fields it must reproduce exactly.

    ``check`` is ``"sos"`` (``verify_sos``), ``"das"`` (``verify_das`` with
    k=0) or ``"solves"`` (``check_solves`` under the always-accurate oracle).
    ``bounds`` is (n, horizon, max_steps, history_budget).  ``broken`` flips one
    letter of the derived interpretation, as acceptance criterion 3 does.
    """

    name: str
    check: str
    bounds: tuple[int, int, int, int]
    pins: dict = field(default_factory=dict)
    broken: bool = False

    def spec(self) -> dict:
        """What a measuring process needs to rebuild the call."""
        return {"check": self.check, "bounds": list(self.bounds), "broken": self.broken}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sos-memo",
            "sos",
            (3, 6, 6, 1),
            {
                "ok": True,
                "checked_runs": 61_499_376,
                "families": 606_208,
                "checked_histories": 38_144,
            },
        ),
        Workload(
            "das-walk",
            "das",
            (3, 4, 4, 1),
            {
                "ok": True,
                "checked_runs": 4_190_376,
                "families": 183_168,
                "checked_histories": 13_548,
            },
        ),
        Workload(
            "solves-flood",
            "solves",
            (3, 4, 4, 0),
            {
                "ok": True,
                "checked_runs": 109_616,
                "decided_runs": 69_640,
                "undecided_runs": 39_976,
            },
        ),
        # The per-clause multiplicities of this check are reported but not
        # pinned: memo hits charge a cached subtree's violations to one clause,
        # so they are known to differ from the thorough path.
        Workload(
            "sos-broken",
            "sos",
            (3, 5, 5, 1),
            {
                "ok": False,
                "checked_runs": 15_616_936,
                "failure_count": 9_982_092,
                "decided_runs": 5_916_584,
                "undecided_runs": 6_372_988,
            },
            broken=True,
        ),
    )
}


def build(spec: dict):
    """Import ``fdlab`` and build everything the check call takes.

    Returns ``(call, alg, predicate)``: ``call()`` runs the check and returns
    its report; the algorithm and predicate are the instances the call uses,
    so a tracer can wrap their methods.
    """
    import fdlab
    from fdlab.transforms import StallState, derive_interpretation_sos

    n, horizon, max_steps, budget = spec["bounds"]
    alg, interp, predicate = fdlab.builtin_algorithm(ALGORITHM, n)
    bounds = fdlab.EnumerationBounds(
        n=n, horizon=horizon, max_steps=max_steps, history_budget=budget
    )
    check = spec["check"]
    if check == "sos":
        derived = None
        if spec["broken"]:
            q = alg.initial_states(0)[0]
            wrong = "1|-" if interp.of(0, q) != "1|-" else "0|-"
            derived = derive_interpretation_sos(interp, alg).replaced(0, StallState(q), wrong)
        return (
            lambda: fdlab.verify_sos(alg, interp, predicate, bounds, derived_interp=derived),
            alg,
            predicate,
        )
    if check == "das":
        return lambda: fdlab.verify_das(alg, interp, predicate, 0, bounds), alg, predicate
    if check == "solves":
        fd = fdlab.FDSpec.always_accurate()
        return lambda: fdlab.check_solves(alg, fd, interp, predicate, bounds), alg, predicate
    raise ValueError(f"unknown check {check!r}")


def report_counts(report) -> dict:
    """The verdict and every count a report carries, as plain values."""
    doc = report.to_dict()
    ok = doc["solves"] if doc["kind"] == "solves" else doc["failure_count"] == 0
    counts = {"ok": ok}
    for key in (
        "checked_runs",
        "families",
        "checked_histories",
        "failure_count",
        "decided_runs",
        "undecided_runs",
        "violation_count",
    ):
        if key in doc:
            counts[key] = doc[key]
    counts["clauses"] = {
        f"{f['clause']}: {f['detail']}": f["multiplicity"] for f in doc.get("failures", [])
    }
    return counts


def pin_mismatches(pins: dict, counts: dict) -> list[str]:
    """Every pinned field whose value differs, as readable lines."""
    return [
        f"{key}: expected {want!r}, got {counts.get(key)!r}"
        for key, want in pins.items()
        if counts.get(key) != want
    ]
