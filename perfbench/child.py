"""One set-up or one measured repetition of a workload, in a fresh
interpreter.

    PYTHONHASHSEED=0 python3 -s perfbench/child.py WORKLOAD SEED MODE TRACE \
        WORKDIR RUN_ID CACHE

Imports the package from the checkout's `src/` (never from an installed
copy) and prints a `ready` line with the CLOCK_MONOTONIC time, so the
parent can time set-up from the moment it started this interpreter.
MODE `setup` first runs the workload's set-up commands, which write the
profile cache CACHE, under the calibration loop, and stops after `ready`
and a line with the loop's rate.  MODE `run` then calls the
timed `mdg` commands through `monomial_digraphs.cli.main`, in-process,
checks their outputs and prints one JSON result line.  In MODE `run`
with TRACE 0 a calibration loop is timed every CAL_PERIOD_S meanwhile (see
Calibrator); MODE `plain` is `run` without it.  With TRACE 1 the timed
commands run under spans (see spans.py), which are written to WORKDIR when
the repetition ends.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

EXIT_NO_PROGRAM = 3
CAL_PERIOD_S = 0.05
CAL_SETUP_SAMPLES = 20
_CAL_KEYS = [((i * 7919) % 4001, i & 31) for i in range(1500)]


def calibration_loop():
    """Seconds taken by a fixed pure-Python loop of about 1.5 ms: dict
    updates on tuple keys and a sort, the operations the program spends its
    time on.  Its duration is the unit `cal` of the calibrated metrics."""
    t = time.perf_counter()
    counts = {}
    for key in _CAL_KEYS:
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t


class Calibrator:
    """Times calibration_loop every CAL_PERIOD_S of wall time (SIGALRM)
    while the timed commands run.

    On a shared host the CPU's speed swings by up to 1.8x within a minute,
    as other tenants load the cores.  The loop runs at the current speed
    just as the program does, so a time divided by the loop's duration
    at that moment is far steadier than the time itself.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def in_cal(self, seconds):
        """`seconds` of program time in calibration-loop lengths: the
        time integral of 1/loop duration, sampled at even steps."""
        samples = self.samples or [calibration_loop()]
        return seconds * statistics.fmean(1 / c for c in samples)


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_program():
    """The package modules, imported from ROOT/src only."""
    sys.path.insert(0, SRC)
    cli = importlib.import_module("monomial_digraphs.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    # `from monomial_digraphs import sweep` gives the function: the package
    # __init__ shadows the module, so take every module from sys.modules.
    return {name: sys.modules[f"monomial_digraphs.{name}"]
            for name in ("field", "digraph", "invariants", "iso", "sweep",
                         "cli")}


def call_mdg(cli, argv):
    """(exit code, stdout, stderr) of `mdg argv`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fill(argv, cache):
    return [cache if a == workloads.CACHE_TOKEN else a for a in argv]


def main(argv):
    name, seed, mode, trace, workdir, run_id, cache = argv
    seed, trace = int(seed), int(trace)
    wl = workloads.workload(name, seed)
    mods = import_program()
    cli = mods["cli"]

    cal = Calibrator()
    if mode == "setup":
        with cal:
            for cmd in wl.setup_commands:
                code, _, err = call_mdg(cli, _fill(cmd, cache))
                if code != 0:
                    print(f"perfbench: set-up command {cmd} exited {code}: "
                          f"{err[-500:]}", file=sys.stderr)
                    return 1
    print(json.dumps({"ready": monotonic()}), flush=True)
    if mode == "setup":
        # More loop samples, taken after `ready` so that they are not
        # set-up time: an import-only set-up is over before the first tick.
        cal.samples.extend(calibration_loop()
                           for _ in range(CAL_SETUP_SAMPLES))
        print(json.dumps({"cal_spent_s": cal.spent,
                          "cal_per_s": cal.in_cal(1.0)}), flush=True)
        return 0

    tracer = None
    if trace:
        tracer = spans.Tracer(run_id)
        spans.install(tracer, mods["field"], mods["invariants"],
                      mods["iso"], mods["sweep"], cli)

    def verify_iso(q, a, b, mapping):
        F = mods["field"].field_for_order(q)
        build = mods["digraph"].build_monomial
        try:
            return mods["iso"].verify_mapping(build(F, *a), build(F, *b),
                                              mapping)
        except (ValueError, TypeError, IndexError):
            return False

    results, stderr_tail = [], []
    with cal if mode == "run" and not trace else contextlib.nullcontext():
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        for cmd in wl.commands:
            code, out, err = call_mdg(cli, _fill(cmd, cache))
            results.append((cmd, code, out))
            stderr_tail.append(err[-300:])
        outcome = workloads.check(name, results, verify_iso)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
    # the calibration ticks are not program time
    wall -= cal.spent
    cpu -= cal.spent

    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_cal": cal.in_cal(wall),
        "cal_samples": len(cal.samples),
        "cal_ms": (1e3 * statistics.median(cal.samples) if cal.samples
                   else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "outcome": outcome.as_dict(),
        "stdout_sha256": [hashlib.sha256(out.encode()).hexdigest()
                          for _, _, out in results],
        "stdout_bytes": sum(len(out.encode()) for _, _, out in results),
        "exit_codes": [code for _, code, _ in results],
    }
    if not outcome.correct:
        record["stderr_tail"] = stderr_tail
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer.spans)
        spans_file = os.path.join(workdir, f"spans-{run_id}.jsonl")
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = spans_file
        record["span_count"] = len(tracer.spans)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
