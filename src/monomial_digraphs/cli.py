"""Command-line entry point.

Exit codes: 0 success, 1 domain error (bad parameters), 2 undecided
(budget exhausted), 3 I/O error.  --json output is byte-stable for
identical invocations; timings and diagnostics go to stderr.
"""

import argparse
import json
import os
import sys

from .field import make_field, field_for_order
from .digraph import (build_monomial, export, count_cycles_by_length,
                      BudgetExceededError)
from . import invariants
from .iso import iso_search, UndecidedError, DEFAULT_SEARCH_BUDGET
from .sweep import ProfileCache, sweep as run_sweep

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_UNDECIDED = 2
EXIT_IO = 3

CACHE_ENV_VAR = "MONOMIAL_DIGRAPHS_CACHE"


def _parser():
    p = argparse.ArgumentParser(prog="mdg",
                                description="monomial digraph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", help="show field construction data")
    sp.add_argument("p", type=int)
    sp.add_argument("e", type=int)

    sp = sub.add_parser("build", help="build D(q; m, n) and export it")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--format", choices=["arcs-text", "dot"],
                    default="arcs-text")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("invariants", help="invariant profile of D(q; m, n)")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--cycles", type=int, default=None, metavar="L")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("iso", help="decide D(q;m1,n1) ~ D(q;m2,n2)")
    sp.add_argument("q", type=int)
    sp.add_argument("m1", type=int)
    sp.add_argument("n1", type=int)
    sp.add_argument("m2", type=int)
    sp.add_argument("n2", type=int)
    sp.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("sweep", help="conjecture verification campaign")
    sp.add_argument("--qmin", type=int, required=True)
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--m1-only", action="store_true")
    sp.add_argument("--cache", default=os.environ.get(CACHE_ENV_VAR))
    sp.add_argument("--json", default=None, metavar="REPORT",
                    help="write one JSON object per q to REPORT ('-' = stdout)")
    sp.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    sp = sub.add_parser("census", help="motif census of D(q; m, n)")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--motif", choices=list(invariants.MOTIF_NAMES),
                    default="K")

    sp = sub.add_parser("cycles", help="directed cycle counts by length")
    sp.add_argument("q", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("L", type=int)

    sp = sub.add_parser("trinomial",
                        help="roots of X^d - 2X + 1 in GF(q)")
    sp.add_argument("q", type=int)
    sp.add_argument("d", type=int)
    return p


def _build_digraph(q, m, n):
    return build_monomial(field_for_order(q), m, n)


def _cmd_field_info(args):
    F = make_field(args.p, args.e)
    coeffs = ",".join(str(c) for c in F.modulus)
    print(f"q = {F.q}")
    print(f"modulus = {coeffs if coeffs else '(none)'}")
    print(f"primitive = {F.primitive}")
    return EXIT_OK


def _cmd_build(args):
    D = _build_digraph(args.q, args.m, args.n)
    text = export(D, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_invariants(args):
    D = _build_digraph(args.q, args.m, args.n)
    prof = invariants.profile(D, cycle_cap=args.cycles)
    if args.json:
        print(json.dumps(prof.as_dict()))
    else:
        for key, value in prof.as_dict().items():
            print(f"{key:24s} {value}")
    return EXIT_OK


def _cmd_iso(args):
    D1 = _build_digraph(args.q, args.m1, args.n1)
    D2 = _build_digraph(args.q, args.m2, args.n2)
    cert = iso_search(D1, D2, budget=args.budget)
    print(f"nodes={cert.nodes} time={cert.seconds:.3f}s", file=sys.stderr)
    if args.json:
        print(json.dumps(cert.as_dict()))
    else:
        line = f"verdict: {cert.verdict}"
        if cert.witness:
            line += f" (witness: {cert.witness})"
        print(line)
    return EXIT_OK


def _cmd_sweep(args):
    cache = ProfileCache(args.cache) if args.cache else None
    try:
        reports = run_sweep(args.qmin, args.qmax,
                                  m1_only=args.m1_only, cache=cache,
                                  budget=args.budget)
    finally:
        if cache is not None:
            cache.close()
    payload = "".join(json.dumps(r.as_dict()) + "\n" for r in reports)
    if args.json == "-":
        sys.stdout.write(payload)
    elif args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    if args.json != "-":
        for r in reports:
            frac = (r.resolved_by_invariant / r.cross_class_pairs
                    if r.cross_class_pairs else 1.0)
            print(f"q={r.q:3d} classes={r.class_count:3d} "
                  f"within-ok={r.within_class_checks:3d} "
                  f"cross={r.cross_class_pairs:4d} "
                  f"by-invariant={r.resolved_by_invariant:4d} "
                  f"by-search={r.resolved_by_search:3d} "
                  f"undecided={r.undecided} "
                  f"counterexamples={len(r.counterexamples)} "
                  f"filter-efficacy={frac:.3f}")
    for r in reports:
        print(f"q={r.q:3d} time={r.wall_time:.3f}s", file=sys.stderr)
    bad = sum(len(r.counterexamples) for r in reports)
    und = sum(r.undecided for r in reports)
    print(f"total counterexamples: {bad}, undecided: {und}", file=sys.stderr)
    return EXIT_UNDECIDED if und else EXIT_OK


def _cmd_census(args):
    D = _build_digraph(args.q, args.m, args.n)
    print(invariants.motif_census(D, args.motif))
    return EXIT_OK


def _cmd_cycles(args):
    D = _build_digraph(args.q, args.m, args.n)
    counts = count_cycles_by_length(D, args.L)
    for length, count in enumerate(counts, start=1):
        print(f"{length} {count}")
    return EXIT_OK


def _cmd_trinomial(args):
    F = field_for_order(args.q)
    print(invariants.trinomial_root_count(F, args.d))
    return EXIT_OK


_HANDLERS = {
    "field-info": _cmd_field_info,
    "build": _cmd_build,
    "invariants": _cmd_invariants,
    "iso": _cmd_iso,
    "sweep": _cmd_sweep,
    "census": _cmd_census,
    "cycles": _cmd_cycles,
    "trinomial": _cmd_trinomial,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_DOMAIN if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (UndecidedError, BudgetExceededError) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
