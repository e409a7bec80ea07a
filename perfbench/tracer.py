"""Outside-in tracer: wraps ``fdlab``'s public functions where they are looked up.

``fdlab.harness`` imports most of the functions it calls by name, so each one
is patched in the module that calls it, not only where it is defined.  Times
are inclusive: a span nested inside another traced span is counted in both.
Only outermost spans are subtracted from the check call to give the walk's
self time.  Every patched name is put back by ``restore``.
"""

from __future__ import annotations

import time
from types import ModuleType

# (module that looks the name up, attribute, metric prefix, what to count)
FUNCTIONS = (
    ("fdlab.harness", "history_groups", "harness.history_groups", "groups"),
    ("fdlab.harness", "perturbed_histories", "detectors.perturbed_histories", "list"),
    ("fdlab.detectors", "history_matches", "detectors.history_matches", None),
    ("fdlab.harness", "history_in_p", "detectors.history_in_p", None),
    ("fdlab.harness", "history_in_pk", "detectors.history_in_pk", None),
    ("fdlab.harness", "shift_history", "detectors.shift_history", None),
    ("fdlab.harness", "enumerate_runs", "harness.enumerate_runs", "generator"),
    ("fdlab.harness", "interpret_run", "problems.interpret_run", None),
    ("fdlab.problems", "config_sequence", "model.config_sequence", None),
    ("fdlab.harness", "is_stutter", "problems.is_stutter", None),
    ("fdlab.harness", "run_to_doc", "traces.run_to_doc", None),
)
# (instance role, method, metric prefix)
METHODS = (
    ("alg", "transition", "machines.transition"),
    ("predicate", "evaluate", "problems.predicate"),
    ("predicate", "undecided", "problems.predicate"),
)

#: Every per-layer metric a traced run reports, with its unit.
METRIC_UNITS = {
    "harness.history_groups.s": "s",
    "harness.history_groups.calls": "count",
    "harness.history_groups.groups": "count",
    "harness.history_groups.members": "count",
    "detectors.perturbed_histories.s": "s",
    "detectors.perturbed_histories.calls": "count",
    "detectors.perturbed_histories.out": "count",
    "detectors.history_matches.s": "s",
    "detectors.history_matches.calls": "count",
    "detectors.keep_ratio": "ratio",
    "detectors.history_in_p.s": "s",
    "detectors.history_in_p.calls": "count",
    "detectors.history_in_pk.s": "s",
    "detectors.history_in_pk.calls": "count",
    "detectors.shift_history.s": "s",
    "detectors.shift_history.calls": "count",
    "harness.walk.self_s": "s",
    "harness.enumerate_runs.s": "s",
    "harness.enumerate_runs.runs": "count",
    "machines.transition.s": "s",
    "machines.transition.calls": "count",
    "problems.interpret_run.s": "s",
    "problems.interpret_run.calls": "count",
    "model.config_sequence.s": "s",
    "model.config_sequence.calls": "count",
    "problems.is_stutter.s": "s",
    "problems.is_stutter.calls": "count",
    "problems.predicate.s": "s",
    "problems.predicate.calls": "count",
    "traces.run_to_doc.s": "s",
    "traces.run_to_doc.calls": "count",
}


class _Layer:
    __slots__ = ("calls", "seconds", "out", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.out = 0
        self.extra = 0


class Tracer:
    """Patches the traced names on ``install`` and puts them back on ``restore``.

    ``covered`` accumulates the duration of outermost spans only, so that a
    check call's duration minus ``covered`` is the time spent in code no
    wrapper sees: the tree walk, memo lookups and leaf accounting.
    """

    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = {}
        self.depth = 0
        self.covered = 0.0
        self._undo: list[tuple[object, str, object, bool]] = []

    def install(self, modules: dict[str, ModuleType], alg, predicate) -> None:
        for module_name, attr, metric, kind in FUNCTIONS:
            module = modules[module_name]
            self._patch(module, attr, self._wrap(getattr(module, attr), metric, kind))
        roles = {"alg": alg, "predicate": predicate}
        for role, attr, metric in METHODS:
            obj = roles[role]
            self._patch(obj, attr, self._wrap(getattr(obj, attr), metric, None))

    def restore(self) -> None:
        while self._undo:
            obj, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    def _patch(self, obj, attr: str, wrapper) -> None:
        own = vars(obj)
        had_own = attr in own
        self._undo.append((obj, attr, own.get(attr), had_own))
        setattr(obj, attr, wrapper)

    def _wrap(self, fn, metric: str, kind: str | None):
        layer = self.layers.setdefault(metric, _Layer())
        tracer = self
        clock = time.perf_counter

        if kind == "generator":

            def gen_wrapper(*args, **kwargs):
                layer.calls += 1
                return tracer._timed_iter(fn(*args, **kwargs), layer)

            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer.depth -= 1
                layer.calls += 1
                layer.seconds += elapsed
                if not tracer.depth:
                    tracer.covered += elapsed

        if kind is None:
            return wrapper

        def counting_wrapper(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            if kind == "groups":
                layer.out += len(result)
                layer.extra += sum(len(members) for _, members in result)
            else:
                layer.out += len(result)
            return result

        return counting_wrapper

    def _timed_iter(self, iterator, layer: _Layer):
        """Yield from ``iterator``, timing only the time spent inside it."""
        clock = time.perf_counter
        while True:
            self.depth += 1
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                self.depth -= 1
                layer.seconds += elapsed
                if not self.depth:
                    self.covered += elapsed
            layer.out += 1
            yield item

    def metrics(self, call_seconds: float) -> dict[str, float]:
        """Every per-layer metric for one traced check call."""
        out: dict[str, float] = {}
        for metric, layer in self.layers.items():
            out[f"{metric}.s"] = layer.seconds
            out[f"{metric}.calls"] = layer.calls
        groups = self.layers["harness.history_groups"]
        out["harness.history_groups.groups"] = groups.out
        out["harness.history_groups.members"] = groups.extra
        kept = self.layers["detectors.perturbed_histories"].out
        tested = self.layers["detectors.history_matches"].calls
        out["detectors.perturbed_histories.out"] = kept
        out["detectors.keep_ratio"] = kept / tested if tested else 0.0
        out["harness.enumerate_runs.runs"] = self.layers["harness.enumerate_runs"].out
        out["harness.walk.self_s"] = call_seconds - self.covered
        return {name: out[name] for name in METRIC_UNITS}
