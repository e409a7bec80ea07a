"""One measured check call in a fresh process.

Usage: ``python3 perfbench/child.py '<workload spec JSON>' setup|plain|traced``

Imports ``fdlab`` from the checkout's ``src`` directory, builds the call's
inputs (timed as set-up), runs the check call once (timed as wall time) and
prints one JSON object: the timings, this process's peak resident memory,
the report's counts and, when traced, the per-layer metrics and any ``fdlab``
name still patched after the tracer was removed.  ``setup`` stops after the
set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from tracer import FUNCTIONS, METHODS, Tracer
from workloads import build, report_counts

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    mode = argv[1]
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    call, alg, predicate = build(spec)
    setup_s = time.perf_counter() - start
    import fdlab

    if Path(fdlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"fdlab was imported from {fdlab.__file__}, not from {SRC}")
    result: dict = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        modules = {name: sys.modules[name] for name, *_ in FUNCTIONS}
        originals = {(name, attr): getattr(modules[name], attr) for name, attr, *_ in FUNCTIONS}
        roles = {"alg": alg, "predicate": predicate}
        tracer = Tracer()
        tracer.install(modules, alg, predicate)
    try:
        start = time.perf_counter()
        report = call()
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()

    result["wall_s"] = wall_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["counts"] = report_counts(report)
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        result["still_patched"] = [
            f"{name}.{attr}"
            for (name, attr), original in originals.items()
            if getattr(modules[name], attr) is not original
        ] + [f"{role}.{attr}" for role, attr, _ in METHODS if attr in vars(roles[role])]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
