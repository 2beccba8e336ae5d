"""Workload definitions, seeded input generation and output checks.

Nothing here imports the program: inputs are generated from the seed with
plain arithmetic, and the checks read only the `mdg` outputs (plus an
optional mapping verifier passed in by the caller).
"""

import json
import random
from dataclasses import dataclass
from math import gcd

EXIT_OK = 0
EXIT_UNDECIDED = 2

# mdg sweep reports recorded at the seed commit: q -> (class_count,
# within_class_checks, cross_class_pairs).  The split between the invariant
# and search stages is deliberately not pinned; later changes move it.
FULL_SWEEP_REFERENCE = {
    2: (1, 0, 0), 3: (4, 0, 6), 4: (5, 4, 10), 5: (10, 6, 45),
    7: (20, 16, 190), 8: (9, 40, 36), 9: (22, 42, 231), 11: (28, 72, 378),
    13: (50, 94, 1225), 17: (46, 210, 1035), 19: (68, 256, 2278),
}
M1_SWEEP_REFERENCE = {
    3: (2, 0, 1), 5: (4, 0, 6), 7: (6, 0, 15), 9: (8, 0, 28),
    11: (10, 0, 45), 13: (12, 0, 66), 17: (16, 0, 120), 19: (18, 0, 153),
    25: (24, 0, 276),
}

# The three q = 16 class pairs that the full sweep hands to backtracking,
# named by canonical representatives.  The last one is the budgeted pair:
# it is undecided at SEARCH_BUDGET nodes (exit 2) at the seed commit.
SEARCH_Q = 16
SEARCH_PAIRS = (((1, 2), (1, 8)), ((1, 7), (1, 13)), ((3, 6), (3, 9)))
BUDGETED_PAIR = 2
SEARCH_BUDGET = 400

CACHE_TOKEN = "{cache}"


@dataclass(frozen=True)
class Workload:
    """One named workload.

    `setup_commands` run in each set-up child (they may write the cache);
    `commands` are the timed `mdg` invocations.  `setup_samples` is how
    many set-ups a run measures for `setup_s`.
    """

    name: str
    why: str
    setup_commands: list
    commands: list
    setup_samples: int


def class_members(q, m, n):
    """The orbit of (m, n) under (m, n) -> (k m, k n) mod (q - 1) over
    units k, with exponents normalised into [1, q - 1]; sorted."""
    r = q - 1
    return sorted({((k * m - 1) % r + 1, (k * n - 1) % r + 1)
                   for k in range(1, r + 1) if gcd(k, r) == 1})


def search_pairs(seed):
    """Seeded choice of one class member for each side of each pair."""
    rng = random.Random(seed)
    return [(rng.choice(class_members(SEARCH_Q, *a)),
             rng.choice(class_members(SEARCH_Q, *b)))
            for a, b in SEARCH_PAIRS]


def _sweep_argv(qmin, qmax, *extra):
    return ["sweep", "--qmin", str(qmin), "--qmax", str(qmax), *extra,
            "--json", "-"]


def workload(name, seed):
    """The Workload called `name` for `seed`.  The sweeps are fixed by
    their q ranges and record the seed without using it."""
    if name == "full-sweep":
        cmds = [_sweep_argv(2, 13, "--cache", CACHE_TOKEN),
                _sweep_argv(17, 19, "--cache", CACHE_TOKEN)]
        return Workload(name, WHY[name], cmds, cmds, setup_samples=2)
    if name == "m1-sweep":
        return Workload(name, WHY[name], [],
                        [_sweep_argv(3, 19, "--m1-only"),
                         _sweep_argv(25, 25, "--m1-only")], setup_samples=7)
    if name == "search-q16":
        cmds = [["iso", str(SEARCH_Q), str(m1), str(n1), str(m2), str(n2),
                 "--budget", str(SEARCH_BUDGET), "--json"]
                for (m1, n1), (m2, n2) in search_pairs(seed)]
        return Workload(name, WHY[name], [], cmds, setup_samples=7)
    raise ValueError(f"unknown workload {name!r}")


WHY = {
    "full-sweep": "all classes for q<=13 and q=17,19 on a warm cache: "
                  "digraph construction and within-class verify_mapping "
                  "dominate; profiles come from the cache",
    "m1-sweep": "m=1 sweep q=3..19 and q=25 with no cache: the "
                "directed-K22 census in invariants dominates, plus root "
                "refinement and the largest digraphs (625 vertices)",
    "search-q16": "three q=16 pairs that reach backtracking, one budgeted "
                  "at 400 nodes: iso search dominates; invariants and "
                  "construction are a few percent",
}
NAMES = tuple(WHY)


# -- output checks -----------------------------------------------------------

class Outcome:
    """Operations attempted and failed, the budgeted searches left
    undecided (an expected outcome, not a failure), and the reason for
    every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.errors = []

    def fail(self, ops, reason):
        self.failed += ops
        self.errors.append(reason)

    @property
    def correct(self):
        return not self.errors

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "undecided": self.undecided, "errors": self.errors}


def check(name, results, verify_iso=None):
    """Check the outputs of one run of workload `name`.

    `results` is a list of (argv, exit_code, stdout) for the timed commands,
    in order.  `verify_iso(q, pair1, pair2, mapping)` checks an Iso mapping;
    it is needed only if a search reports Iso.
    """
    out = Outcome()
    if name == "search-q16":
        _check_search(results, out, verify_iso)
    else:
        _check_sweeps(results, FULL_SWEEP_REFERENCE if name == "full-sweep"
                      else M1_SWEEP_REFERENCE, out)
    return out


def _ops(ref, qs):
    return sum(ref[q][1] + ref[q][2] for q in qs)


def _check_sweeps(results, ref, out):
    for argv, code, stdout in results:
        qmin = int(argv[argv.index("--qmin") + 1])
        qmax = int(argv[argv.index("--qmax") + 1])
        expected = [q for q in sorted(ref) if qmin <= q <= qmax]
        try:
            reports = [json.loads(line) for line in stdout.splitlines() if line]
        except ValueError:
            reports = None
        if code != EXIT_OK or reports is None:
            out.attempted += _ops(ref, expected)
            out.fail(_ops(ref, expected),
                     f"{' '.join(argv)}: exit {code}, unreadable report"
                     if reports is None else f"{' '.join(argv)}: exit {code}")
            continue
        by_q = {r.get("q"): r for r in reports}
        if list(by_q) != expected:
            out.errors.append(f"{' '.join(argv)}: q list {list(by_q)} "
                              f"!= expected {expected}")
        for q in expected:
            r = by_q.get(q)
            if r is None:
                out.attempted += _ops(ref, [q])
                out.fail(_ops(ref, [q]), f"q={q}: no report")
                continue
            try:
                counts = (r["class_count"], r["within_class_checks"],
                          r["cross_class_pairs"])
                bad = len(r["counterexamples"]) + r["undecided"]
                resolved = r["resolved_by_invariant"] + r["resolved_by_search"]
            except (KeyError, TypeError):
                out.attempted += _ops(ref, [q])
                out.fail(_ops(ref, [q]), f"q={q}: malformed report")
                continue
            ops = counts[1] + counts[2]
            out.attempted += ops
            if bad:
                out.fail(bad, f"q={q}: {len(r['counterexamples'])} "
                              f"counterexamples, {r['undecided']} undecided")
            if counts != ref[q]:
                out.fail(ops, f"q={q}: (classes, within, cross) {counts} "
                              f"!= reference {ref[q]}")
            elif resolved != counts[2]:
                out.fail(ops, f"q={q}: resolved pairs do not add up to "
                              f"cross_class_pairs")


def _check_search(results, out, verify_iso):
    if len(results) != len(SEARCH_PAIRS):
        out.attempted = len(SEARCH_PAIRS)
        out.fail(len(SEARCH_PAIRS), f"{len(results)} iso results, expected "
                                    f"{len(SEARCH_PAIRS)}")
        return
    for i, (argv, code, stdout) in enumerate(results):
        out.attempted += 1
        q, m1, n1, m2, n2 = (int(a) for a in argv[1:6])
        label = f"D({q};{m1},{n1}) vs D({q};{m2},{n2})"
        if code == EXIT_UNDECIDED and i == BUDGETED_PAIR:
            out.undecided += 1
            continue
        if code != EXIT_OK:
            out.fail(1, f"{label}: exit {code}")
            continue
        try:
            cert = json.loads(stdout)
            verdict = cert["verdict"]
        except (ValueError, KeyError, TypeError):
            out.fail(1, f"{label}: unreadable certificate")
            continue
        if verdict == "NonIso":
            continue
        if verdict == "Iso":
            ok = verify_iso is not None and verify_iso(
                q, (m1, n1), (m2, n2), cert.get("mapping"))
            out.fail(1, f"{label}: Iso across classes (counterexample; "
                        f"mapping {'verifies' if ok else 'does not verify'})")
            continue
        out.fail(1, f"{label}: unknown verdict {verdict!r}")
