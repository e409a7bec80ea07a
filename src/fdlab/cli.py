"""Command-line front end.

Subcommands: ``validate`` a run document, ``transform`` an algorithm with one
of the two wrappers, ``verify`` a preservation claim exhaustively, and
``probe`` for a single violating run.  Exit codes: 0 success / nothing found,
1 invalid run / failures / counterexample found, 2 usage or parse error,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .detectors import FDSpec
from .errors import BudgetExceeded, FdlabError
from .harness import (
    EnumerationBounds,
    _run_space,
    check_solves,
    counterexample_probe,
    verify_das,
    verify_sos,
)
from .machines import BUILTIN_NAMES, _builtin_machine, collect_interpretation
from .model import Algorithm
from .problems import (
    ConsensusPredicate,
    Interpretation,
    ProblemPredicate,
    StrongConsensusPredicate,
)
from .traces import (
    algorithm_from_doc,
    algorithm_to_doc,
    canonical_json,
    run_from_doc,
)
from .transforms import delay_a_step, stall_on_suspect
from .validation import ValidationMode, validate_run

__all__ = ["main"]

PROBLEM_NAMES = ("consensus", "strong-consensus")


def _add_bounds_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=2, help="number of processes")
    parser.add_argument("--horizon", type=int, default=3, help="last time point")
    parser.add_argument("--max-steps", type=int, default=3, help="schedule length bound")
    parser.add_argument(
        "--history-budget", type=int, default=0, help="oracle-history perturbation budget"
    )


def _add_fd_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fd", required=True, help='oracle: "P", "M", "M:correct" or "Pk:<k>"')


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdlab",
        description="Crash-failure oracle lab: validate, transform, verify, probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a run.v1 document")
    p_val.add_argument("trace", help="path to a run.v1 JSON file, or - for stdin")
    p_val.add_argument(
        "--algorithm", required=True, help="builtin name or algorithm.v1 JSON path"
    )
    _add_fd_flag(p_val)
    p_val.add_argument(
        "--mode",
        choices=[m.value for m in ValidationMode],
        default=ValidationMode.PREFIX_CONSISTENT.value,
    )
    p_val.add_argument(
        "--fairness-window",
        type=int,
        default=None,
        help="longest tolerated survivor idle stretch (strict-fairness mode only)",
    )
    p_val.add_argument("--n", type=int, default=None, help="processes (builtin algorithms)")

    p_tr = sub.add_parser("transform", help="emit a wrapped algorithm.v1 document")
    p_tr.add_argument("which", choices=["sos", "das"])
    p_tr.add_argument(
        "algorithm",
        help="builtin name, algorithm.v1 JSON path, or - for stdin "
        "(pipe --json output back in to nest wrappers)",
    )
    p_tr.add_argument("--n", type=int, default=None, help="processes (builtin algorithms)")

    p_ver = sub.add_parser("verify", help="exhaustively check a preservation claim")
    p_ver.add_argument("theorem", choices=["sos", "das"])
    p_ver.add_argument("algorithm", choices=list(BUILTIN_NAMES))
    p_ver.add_argument(
        "--k", type=int, default=None, help="oracle accuracy lag (das only, default 0)"
    )
    p_ver.add_argument(
        "--thorough",
        action="store_true",
        help="re-derive every per-run verdict from scratch (slow)",
    )
    _add_bounds_flags(p_ver)

    p_pr = sub.add_parser("probe", help="hunt for one problem-violating fair run")
    p_pr.add_argument("algorithm", choices=list(BUILTIN_NAMES))
    _add_fd_flag(p_pr)
    p_pr.add_argument("--problem", required=True, help="consensus or strong-consensus")
    p_pr.add_argument(
        "--require-quiescence",
        action="store_true",
        help="count runs that merely ran out of horizon as violations",
    )
    p_pr.add_argument(
        "--fairness-window",
        type=int,
        default=None,
        help="longest tolerated survivor idle stretch (default: horizon + 1)",
    )
    _add_bounds_flags(p_pr)

    for verb in sub.choices.values():
        verb.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _load_algorithm(name_or_path: str, n: int | None) -> Algorithm:
    """A builtin by name (``n`` processes, default 2), or an algorithm.v1
    document from a file or ``-``, which fixes its own process count."""
    if name_or_path in BUILTIN_NAMES:
        alg, _ = _builtin_machine(name_or_path, n if n is not None else 2)
        return alg
    if n is not None:
        raise FdlabError(
            f"--n applies only to builtin algorithms; {name_or_path!r} is an "
            "algorithm document and fixes its own process count"
        )
    if name_or_path == "-":
        return algorithm_from_doc(json.loads(sys.stdin.read()))
    path = Path(name_or_path)
    if not path.exists():
        raise FdlabError(
            f"unknown algorithm {name_or_path!r}: not a builtin "
            f"({', '.join(BUILTIN_NAMES)}) and no such file"
        )
    return algorithm_from_doc(json.loads(path.read_text()))


def _builtin_for(
    name: str, bounds: EnumerationBounds
) -> tuple[Algorithm, Interpretation, ProblemPredicate]:
    """A built-in's (algorithm, interpretation, problem) for a check within
    ``bounds``, refused over the run cap first: the interpretation explores
    every reachable state under all 2^n suspect sets, a cost that grows too
    fast to pay for a request the cap refuses anyway.  Both wrappers start
    in as many initial states as the algorithm, so the estimate is the one
    the check applies."""
    alg, predicate = _builtin_machine(name, bounds.n)
    _run_space(alg, bounds)
    return alg, collect_interpretation(alg), predicate


def _read_doc(path_or_dash: str) -> dict:
    text = sys.stdin.read() if path_or_dash == "-" else Path(path_or_dash).read_text()
    return json.loads(text)


def _bounds_from_args(args: argparse.Namespace) -> EnumerationBounds:
    return EnumerationBounds(
        n=args.n,
        horizon=args.horizon,
        max_steps=args.max_steps,
        history_budget=args.history_budget,
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    alg = _load_algorithm(args.algorithm, args.n)
    fd = FDSpec.parse(args.fd)
    run = run_from_doc(_read_doc(args.trace), alg)
    report = validate_run(
        run, alg, fd, ValidationMode(args.mode), fairness_window=args.fairness_window
    )
    if args.json:
        sys.stdout.write(canonical_json(report.to_dict()))
    elif report.valid:
        print(f"valid run: {len(run.schedule)} steps, horizon {run.horizon}, fd {fd.serialize()}")
    else:
        print(f"invalid run: {len(report.violations)} violation(s)")
        for v in report.violations:
            where = "" if v.step_index is None else f" at step {v.step_index}"
            print(f"  - {v.condition}{where}: {v.detail}")
    return 0 if report.valid else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    base = _load_algorithm(args.algorithm, args.n)
    wrapped = stall_on_suspect(base) if args.which == "sos" else delay_a_step(base)
    doc = algorithm_to_doc(wrapped)
    if args.json:
        sys.stdout.write(canonical_json(doc))
    else:
        print(f"algorithm: {doc['name']} (n={doc['n']})")
        for i in range(doc["n"]):
            print(
                f"  process {i}: {len(doc['states'][i])} states "
                f"({len(doc['init'][i])} initial), {len(doc['table'][i])} transitions"
            )
            print(f"    states: {', '.join(doc['states'][i])}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.theorem == "sos" and args.k is not None:
        raise FdlabError("verify sos takes no --k: the stall claim has no accuracy lag")
    bounds = _bounds_from_args(args)
    alg, interp, predicate = _builtin_for(args.algorithm, bounds)
    if args.theorem == "sos":
        report = verify_sos(alg, interp, predicate, bounds, thorough=args.thorough)
    else:
        k = 0 if args.k is None else args.k
        report = verify_das(alg, interp, predicate, k, bounds, thorough=args.thorough)
    if args.json:
        sys.stdout.write(canonical_json(report.to_dict()))
    else:
        print(
            f"{report.theorem} on {report.algorithm} under {report.fd}: "
            f"{'OK' if report.ok else 'FAILED'}"
        )
        print(
            f"  checked {report.checked_runs} runs over {report.checked_histories} "
            f"histories ({report.families} families) in {report.elapsed_seconds:.1f}s"
        )
        print(
            f"  decided {report.decided_runs}, undecided {report.undecided_runs}, "
            f"clause violations {report.failure_count}"
        )
        for f in report.failures:
            print(f"  - {f.clause} (x{f.multiplicity}): {f.detail}")
        for note in report.canonicalizations:
            print(f"  note: {note}")
    return 0 if report.ok else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    if args.problem not in PROBLEM_NAMES:
        raise FdlabError(
            f"unknown problem {args.problem!r} (choose from {', '.join(PROBLEM_NAMES)})"
        )
    fd = FDSpec.parse(args.fd)
    bounds = dataclasses.replace(_bounds_from_args(args), fairness_window=args.fairness_window)
    alg, interp, _ = _builtin_for(args.algorithm, bounds)
    predicate = (
        ConsensusPredicate() if args.problem == "consensus" else StrongConsensusPredicate()
    )
    if args.require_quiescence:
        report = check_solves(
            alg, fd, interp, predicate, bounds, require_quiescence=True
        )
        found = not report.solves
        doc = report.counterexample
        summary = (
            f"quiescence violation among {report.checked_runs} fair runs"
            if found
            else f"no violation among {report.checked_runs} fair runs"
        )
        payload = report.to_dict()
    else:
        probe = counterexample_probe(alg, fd, interp, predicate, bounds)
        found = probe.found
        doc = probe.run_doc
        summary = probe.detail
        payload = probe.to_dict()
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        print(f"probe {alg.name} under {fd.serialize()} against {args.problem}: {summary}")
        if doc is not None:
            sys.stdout.write(canonical_json(doc))
    return 1 if found else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other exits
        return int(exc.code) if exc.code else 0
    handlers = {
        "validate": _cmd_validate,
        "transform": _cmd_transform,
        "verify": _cmd_verify,
        "probe": _cmd_probe,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FdlabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
