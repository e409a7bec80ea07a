"""JSON wire formats: ``run.v1``, ``problem.v1``, ``algorithm.v1``.

Documents are plain dicts; ``canonical_json`` renders them with sorted keys
and a trailing newline, and parsing a canonical document and re-serializing
it reproduces the bytes exactly.

Run documents carry no message identities: a receive is recorded as the
``[sender, payload]`` pair the actor consumed.  Parsing re-matches receives
against outstanding sends first-in-first-out; a receive that matches nothing
still parses (with a sentinel identity the validator will reject), so that a
corrupt trace yields an invalid-run report rather than a parse error.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import DomainMismatch
from .model import (
    Algorithm,
    FailurePattern,
    History,
    Message,
    Run,
    Step,
    _receipt_domain,
    _sorted_subsets,
)
from .problems import Interpretation

__all__ = [
    "canonical_json",
    "run_to_doc",
    "run_from_doc",
    "problem_to_doc",
    "problem_from_doc",
    "algorithm_to_doc",
    "algorithm_from_doc",
]


def canonical_json(doc: dict) -> str:
    """The canonical rendering: sorted keys, two-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _ids(values) -> list[int]:
    return sorted(int(v) for v in values)


# ---------------------------------------------------------------------------
# run.v1


def run_to_doc(run: Run, alg: Algorithm) -> dict:
    """Serialize a run; states through ``alg.state_str``, no message tags."""
    steps = []
    for s in run.schedule:
        transition = (s.pre, s.received_transmission(), s.suspects, s.post, s.sent_transmission())
        steps.append({"actor": s.actor, **_row_to_doc(alg, *transition)})
    return {
        "schema": "run.v1",
        "n": run.n,
        "horizon": run.horizon,
        "pattern": [[t, _ids(run.pattern.crashed_at(t))] for t in range(run.horizon + 1)],
        "history": [
            [p, t, _ids(run.history.at(p, t))]
            for p in range(run.n)
            for t in range(run.horizon + 1)
        ],
        "init": [alg.state_str(s) for s in run.init],
        "schedule": steps,
        "times": list(run.times),
    }


def _row_to_doc(alg: Algorithm, pre, received, suspects, post, dispatch) -> dict:
    """One transition as a document row, shared by runs and algorithms."""
    return {
        "pre": alg.state_str(pre),
        "recv": None if received is None else list(received),
        "fd": _ids(suspects),
        "post": alg.state_str(post),
        "send": None if dispatch is None else list(dispatch),
    }


def _row_from_doc(row: Mapping, parse_state) -> tuple:
    """Inverse of :func:`_row_to_doc`.  A malformed field raises ``KeyError``,
    ``TypeError`` or ``ValueError``; callers turn these into
    :class:`DomainMismatch`."""
    return (
        parse_state(row["pre"]),
        _transmission(row["recv"], "recv is [sender, payload]"),
        frozenset(int(q) for q in row["fd"]),
        parse_state(row["post"]),
        _transmission(row["send"], "send is [receiver, payload]"),
    )


def _transmission(pair, shape: str) -> tuple[int, str] | None:
    if pair is None:
        return None
    _require(len(pair) == 2, shape)
    return int(pair[0]), str(pair[1])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainMismatch(message)


def run_from_doc(doc: Mapping, alg: Algorithm) -> Run:
    """Parse a ``run.v1`` document back into a run.

    Receives are re-matched to sends first-in-first-out on
    (sender, receiver, payload); an unmatched receive gets a sentinel
    identity no send carries, so validation flags it instead of parsing
    failing.
    """
    _require(isinstance(doc, Mapping), "run document must be a JSON object")
    _require(doc.get("schema", "run.v1") == "run.v1", "unsupported run schema")
    try:
        return _parse_run(doc, alg)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainMismatch(f"malformed run document: {exc}") from exc


def _parse_run(doc: Mapping, alg: Algorithm) -> Run:
    n = int(doc["n"])
    horizon = int(doc["horizon"])
    pattern_rows = list(doc["pattern"])
    history_rows = list(doc["history"])
    init_row = list(doc["init"])
    schedule_rows = list(doc["schedule"])
    times = tuple(int(t) for t in doc["times"])

    _require(len(pattern_rows) == horizon + 1, "pattern must cover every time point")
    crashed: list[frozenset[int]] = [frozenset()] * (horizon + 1)
    for row in pattern_rows:
        _require(len(row) == 2, "pattern rows are [t, [ids]]")
        t, ids = int(row[0]), row[1]
        _require(0 <= t <= horizon, "pattern row time out of range")
        crashed[t] = frozenset(int(p) for p in ids)
    pattern = FailurePattern(n, horizon, tuple(crashed))

    _require(
        len(history_rows) == n * (horizon + 1), "history must cover every (process, time) cell"
    )
    cells: list[list[frozenset[int]]] = [
        [frozenset()] * (horizon + 1) for _ in range(n)
    ]
    for row in history_rows:
        _require(len(row) == 3, "history rows are [pid, t, [ids]]")
        p, t, ids = int(row[0]), int(row[1]), row[2]
        _require(0 <= p < n and 0 <= t <= horizon, "history cell out of range")
        cells[p][t] = frozenset(int(q) for q in ids)
    history = History(n, horizon, tuple(tuple(r) for r in cells))

    _require(len(init_row) == n, "init must list one state per process")
    init = tuple(alg.parse_state(s) for s in init_row)

    outstanding: list[Message] = []
    steps: list[Step] = []
    sentinel = -1
    for index, row in enumerate(schedule_rows):
        actor = int(row["actor"])
        pre, recv, suspects, post, send = _row_from_doc(row, alg.parse_state)
        received = None
        if recv is not None:
            sender, payload = recv
            match = next(
                (
                    m
                    for m in outstanding
                    if m.sender == sender and m.receiver == actor and m.payload == payload
                ),
                None,
            )
            if match is not None:
                outstanding.remove(match)
                received = match
            else:
                received = Message(sender, actor, payload, sentinel)
                sentinel -= 1
        sent = None
        if send is not None:
            sent = Message(actor, send[0], send[1], index)
            outstanding.append(sent)
        steps.append(Step(actor, pre, received, suspects, post, sent))

    return Run(pattern, history, init, tuple(steps), times)


# ---------------------------------------------------------------------------
# problem.v1


def problem_to_doc(interp: Interpretation, alg: Algorithm) -> dict:
    """Serialize an interpretation; map keys through ``alg.state_str``."""
    return {
        "schema": "problem.v1",
        "sigma": sorted(interp.sigma),
        "sigma_init": sorted(interp.sigma_init),
        "V": [
            {alg.state_str(state): letter for state, letter in sorted(
                table.items(), key=lambda kv: alg.state_str(kv[0])
            )}
            for table in interp.maps
        ],
    }


def problem_from_doc(doc: Mapping, alg: Algorithm) -> Interpretation:
    _require(isinstance(doc, Mapping), "problem document must be a JSON object")
    _require(doc.get("schema", "problem.v1") == "problem.v1", "unsupported problem schema")
    try:
        sigma = frozenset(str(s) for s in doc["sigma"])
        sigma_init = frozenset(str(s) for s in doc["sigma_init"])
        maps = tuple(
            {alg.parse_state(key): str(letter) for key, letter in dict(table).items()}
            for table in doc["V"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainMismatch(f"malformed problem document: {exc}") from exc
    return Interpretation(maps, sigma, sigma_init)


# ---------------------------------------------------------------------------
# algorithm.v1


def algorithm_to_doc(alg: Algorithm) -> dict:
    """Tabulate an algorithm: reachable states, initials, payloads, and the
    full transition table over every (state, receipt, suspected-set)."""
    suspect_sets = _sorted_subsets(alg.n)
    states = []
    tables = []
    for i in range(alg.n):
        reachable = alg.reachable_states(i)
        states.append([alg.state_str(s) for s in reachable])
        rows = []
        for state in reachable:
            for received in _receipt_domain(alg, i):
                for suspects in suspect_sets:
                    result = alg.transition(i, state, received, suspects)
                    if result is not None:
                        rows.append(_row_to_doc(alg, state, received, suspects, *result))
        tables.append(rows)
    return {
        "schema": "algorithm.v1",
        "name": alg.name,
        "n": alg.n,
        "init": [[alg.state_str(s) for s in alg.initial_states(i)] for i in range(alg.n)],
        "payloads": [list(alg.payload_alphabet(i)) for i in range(alg.n)],
        "states": states,
        "table": tables,
    }


def algorithm_from_doc(doc: Mapping):
    """Parse an ``algorithm.v1`` document into an explicit-table algorithm."""
    from .machines import TableAlgorithm

    _require(isinstance(doc, Mapping), "algorithm document must be a JSON object")
    _require(
        doc.get("schema", "algorithm.v1") == "algorithm.v1", "unsupported algorithm schema"
    )
    try:
        name = str(doc["name"])
        n = int(doc["n"])
        init = tuple(tuple(str(s) for s in row) for row in doc["init"])
        payloads = tuple(tuple(str(p) for p in row) for row in doc["payloads"])
        table_rows = list(doc["table"])
        _require(len(table_rows) == n, "table must cover every process")
        tables = []
        for rows in table_rows:
            table: dict = {}
            for row in rows:
                pre, received, suspects, post, dispatch = _row_from_doc(row, str)
                table[(pre, received, suspects)] = (post, dispatch)
            tables.append(table)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainMismatch(f"malformed algorithm document: {exc}") from exc
    return TableAlgorithm(name, n, init, tuple(tables), payloads)
