"""Command-line front end: analyze, synth, simulate, verify.

Exit status: 0 on success, 1 when a verification or simulation check
fails, 2 on usage or parse errors. Structured output is versioned with
a schema field; the human rendering carries the same information.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .boolfun import (
    DEPTH_MAX_ARITY,
    NPN_MAX_ARITY,
    TruthTable,
    parse_function,
)
from .formula import READ_ONCE_MAX_ARITY, recognize_read_once, to_text
from .qprogram import collect_axioms, program_from_json, query_cost, simulate
from .suites import SUITES, run_suite
from .synth import (
    ENGINE_MAX_ARITY,
    certificate_from_json,
    certificate_to_json,
    synthesize,
    verify_certificate,
)

_DEFAULT_SUITES = ("symmetric", "primitives", "depth", "sweep4",
                   "structural", "counting")


def _fail_usage(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return 2


def _emit(payload: dict, human_lines, fmt: str, out_path):
    text = json.dumps(payload, indent=2)
    if fmt == "json":
        print(text)
    else:
        for line in human_lines:
            print(line)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _parse_fn(text: str) -> TruthTable:
    try:
        return parse_function(text)
    except ValueError as e:
        raise SystemExit(_fail_usage(str(e)))


def cmd_analyze(args) -> int:
    f = _parse_fn(args.fn)
    n = f.arity
    support = f.support()
    profile = f.symmetric_profile()
    payload = {
        "schema": 1,
        "kind": "analysis",
        "function": f.to_hex_text(),
        "arity": n,
        "popcount": f.popcount(),
        "symmetricProfile": None if profile is None else list(profile),
        "monotone": f.is_monotone(),
        "degree": f.degree(),
    }
    payload["decisionTreeDepth"] = (f.decision_tree_depth()
                                    if n <= DEPTH_MAX_ARITY else None)
    read_once = None
    if 1 <= n <= READ_ONCE_MAX_ARITY and len(support) == n:
        fml = recognize_read_once(f)
        if fml is not None:
            read_once = to_text(fml)
    payload["readOnce"] = read_once
    if n <= NPN_MAX_ARITY:
        payload["npnCanonical"] = f.npn_canonical()[0].to_hex_text()
    else:
        payload["npnCanonical"] = None
    payload["andIsomorphic"] = f.is_and_isomorphic()
    human = [
        "function:       %s" % payload["function"],
        "arity:          %d" % n,
        "popcount:       %d" % payload["popcount"],
        "symmetric:      %s" % (
            "".join(map(str, payload["symmetricProfile"]))
            if payload["symmetricProfile"] is not None else "no"),
        "monotone:       %s" % ("yes" if payload["monotone"] else "no"),
        "degree:         %d" % payload["degree"],
        "depth:          %s" % (payload["decisionTreeDepth"]
                                if payload["decisionTreeDepth"] is not None
                                else "beyond supported arity"),
        "read-once:      %s" % (read_once if read_once else "no"),
        "npn canonical:  %s" % (payload["npnCanonical"] or
                                "beyond supported arity"),
        "AND-isomorphic: %s" % ("yes" if payload["andIsomorphic"] else "no"),
    ]
    _emit(payload, human, args.format, args.out)
    return 0


def cmd_synth(args) -> int:
    f = _parse_fn(args.fn)
    if f.arity > ENGINE_MAX_ARITY:
        return _fail_usage("synthesis supports arity <= %d, got %d"
                           % (ENGINE_MAX_ARITY, f.arity))
    cert = synthesize(f)
    rep = verify_certificate(cert)
    if not rep.ok:
        print("error: refusing to emit an unverified certificate:",
              file=sys.stderr)
        for failure in rep.failures:
            print("  " + failure, file=sys.stderr)
        return 1
    cert_json = certificate_to_json(cert)
    payload = {
        "schema": 1,
        "kind": "synthesis",
        "certificate": cert_json,
        "verification": {"ok": True, "level": rep.level},
    }
    rules = []
    for use in cert.rules_used:
        if use.rule not in rules:
            rules.append(use.rule)
    summary = "%s: %d queries, %s%s; rules %s" % (
        f.to_hex_text(), cert.claimed_queries, cert.level,
        ", optimal" if cert.optimal else "", "+".join(rules) or "-")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(summary)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(cert_json, indent=2) + "\n")
    return 0


def cmd_simulate(args) -> int:
    # the JSON reader, the loader and the program walks recurse once per
    # nesting level; all of them finish before anything is printed
    try:
        return _simulate_file(args)
    except RecursionError:
        return _fail_usage("%s: program nested too deeply" % args.path)


def _simulate_file(args) -> int:
    try:
        with open(args.path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        return _fail_usage("cannot read %s: %s" % (args.path, e))
    f = None
    if isinstance(obj, dict) and obj.get("kind") == "certificate":
        try:
            cert = certificate_from_json(obj)
        except KeyError as e:
            return _fail_usage("certificate lacks the %s field" % e)
        except (ValueError, TypeError) as e:
            return _fail_usage("not a valid certificate file: %s" % e)
        program = cert.program
        f = cert.function
    else:
        try:
            program = program_from_json(obj)
        except (ValueError, KeyError, TypeError) as e:
            return _fail_usage("not a program or certificate file: %s" % e)
    if args.fn:
        f = _parse_fn(args.fn)
    if f is None:
        return _fail_usage("a bare program file needs --fn to compare against")
    leaves = collect_axioms(program)
    if leaves:
        spots = ", ".join(path for path, _ in leaves)
        print("error: not simulatable: axiom leaf at %s" % spots,
              file=sys.stderr)
        return 1
    try:
        rep = simulate(program, f)
    except ValueError as e:
        return _fail_usage("cannot simulate %s: %s" % (args.path, e))
    payload = {
        "schema": 1,
        "kind": "simulation",
        "function": f.to_hex_text(),
        "report": rep.to_json(),
    }
    human = [
        "exact:                %s" % ("yes" if rep.exact else "no"),
        "worst wrong amplitude: %.3e" % rep.worst_wrong_amplitude,
        "worst-case queries:   %d" % rep.queries_worst_case,
        "declared queries:     %d" % query_cost(program),
    ]
    if not rep.exact:
        diff = format(rep.ones ^ f.bits, "0%db" % f.size)[::-1]
        wrong = [m for m, c in enumerate(diff) if c == "1"]
        human.append("failing inputs:       %s"
                     % ", ".join(format(m, "0%db" % f.arity)[::-1]
                                 for m in wrong[:8]))
        payload["failingInputs"] = wrong
    _emit(payload, human, args.format, args.out)
    return 0 if rep.exact else 1


def cmd_verify(args) -> int:
    source = "--max-n"
    if args.max_n is None and "QUERYSYNTH_MAX_N" in os.environ:
        source = "QUERYSYNTH_MAX_N"
        try:
            args.max_n = int(os.environ[source])
        except ValueError:
            return _fail_usage("QUERYSYNTH_MAX_N must be an integer")
    if args.max_n is not None and args.max_n < 1:
        return _fail_usage("%s must be at least 1" % source)
    if args.max_n is not None and args.max_n > ENGINE_MAX_ARITY:
        return _fail_usage("%s must be at most %d" % (source, ENGINE_MAX_ARITY))
    if args.jobs < 1:
        return _fail_usage("--jobs must be at least 1")
    jobs = min(args.jobs, os.cpu_count() or 1)
    if args.suite:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
    else:
        names = list(_DEFAULT_SUITES)
    for name in names:
        if name not in SUITES:
            return _fail_usage("unknown suite %r (have: %s)"
                               % (name, ", ".join(sorted(SUITES))))
    reports = []
    human = []
    failed = 0
    for name in names:
        rep = run_suite(name, max_n=args.max_n, seed=args.seed, jobs=jobs)
        reports.append(rep.to_json())
        failed += rep.failed
        human.append("%-11s %d/%d passed over %d functions (%.1fs)"
                     % (name + ":", rep.passed, rep.checked, rep.population,
                        rep.wall_time))
        for failure in rep.failures[:10]:
            human.append("  FAIL " + failure)
    payload = {"schema": 1, "kind": "verification", "reports": reports}
    _emit(payload, human, args.format, args.out)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querysynth",
        description="Boolean function analysis and exact quantum query "
                    "program synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn_required=False, fn_flag=True):
        if fn_flag:
            p.add_argument("--fn", required=fn_required,
                           help="function as bin:..., hex:..., profile:... "
                                "or formula:...")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--out", help="also write the structured report here")

    p = sub.add_parser("analyze", help="invariants of one function")
    common(p, fn_required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="synthesize and verify a certificate")
    common(p, fn_required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate",
                       help="run a program or certificate file on every input")
    p.add_argument("path", help="program or certificate JSON file")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, fn_flag=False)
    p.add_argument("--suite", help="comma-separated suite ids (default: %s)"
                                   % ",".join(_DEFAULT_SUITES))
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
