"""Mutated wire documents fail with an ``FdlabError``, never a traceback.

Valid ``run.v1`` and ``algorithm.v1`` documents are mutated at random paths:
an integer is moved by one, a value is replaced by any JSON value (``NaN``
and ``Infinity`` included, which Python's JSON reader accepts) or by a copy
of another part of the document, a key is deleted, or a list element is
dropped or repeated.  Each mutated document then goes where the command
line sends it: a run document through parsing and validation in both
modes, an algorithm document through parsing and both wrappers.  The search
is seeded and bounded, so every run of the suite tries the same documents.
"""

from __future__ import annotations

import copy
import math
from itertools import islice

from hypothesis import given, settings, strategies as st

from fdlab import (
    EnumerationBounds,
    FDSpec,
    FdlabError,
    ValidationMode,
    algorithm_from_doc,
    algorithm_to_doc,
    builtin_algorithm,
    delay_a_step,
    enumerate_runs,
    run_from_doc,
    run_to_doc,
    stall_on_suspect,
    validate_run,
)

ALG, _, _ = builtin_algorithm("flood-consensus-p", 2)
TABLE = algorithm_from_doc(algorithm_to_doc(ALG))
FD = FDSpec.always_accurate()
RUN_DOCS = [
    run_to_doc(run, ALG)
    for run in islice(
        (
            r
            for r in enumerate_runs(ALG, FD, EnumerationBounds(n=2, horizon=3, max_steps=4))
            if any(s.received is not None for s in r.schedule)
        ),
        3,
    )
]
ALGORITHM_DOCS = [
    algorithm_to_doc(builtin_algorithm("flood-consensus-p", 1)[0]),
    algorithm_to_doc(ALG),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=5)
    | st.sampled_from([10**30, -(10**30), math.inf, -math.inf, math.nan, 0.5])
    | st.text(max_size=6)
    | st.sampled_from(["v0;k0:0;s0;d-", "v1;k1:1;s1;d1", "stall(v0;k0:0;s0;d-)", "P"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated(draw, docs: list[dict]) -> dict:
    """One of ``docs`` with one to three random mutations."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(doc))[1:]
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        action = draw(st.sampled_from(["nudge", "replace", "transplant", "delete", "repeat"]))
        if action == "nudge" and type(parent[key]) is int:
            parent[key] += draw(st.sampled_from([-1, 1]))
        elif action in ("nudge", "replace"):
            parent[key] = draw(json_values)
        elif action == "transplant":
            parent[key] = copy.deepcopy(_at(doc, draw(st.sampled_from(paths))))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _fails_cleanly(action) -> None:
    try:
        action()
    except FdlabError:
        pass


SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(mutated(RUN_DOCS))
def test_mutated_run_documents_validate_or_fail_cleanly(doc: dict) -> None:
    for alg in (ALG, TABLE):
        for mode in ValidationMode:
            _fails_cleanly(lambda: validate_run(run_from_doc(doc, alg), alg, FD, mode))


@SETTINGS
@given(mutated(ALGORITHM_DOCS))
def test_mutated_algorithm_documents_transform_or_fail_cleanly(doc: dict) -> None:
    def transform() -> None:
        alg = algorithm_from_doc(doc)
        for wrap in (stall_on_suspect, delay_a_step):
            algorithm_to_doc(wrap(alg))

    _fails_cleanly(transform)
