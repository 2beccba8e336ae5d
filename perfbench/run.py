"""Benchmark of the `mdg` pipeline: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from `src/` next to this
directory.  Every repetition runs in a fresh interpreter (child.py), one at
a time: a closed loop with one client.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; with --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
`--all` runs every workload and prints each metric with its unit.
Records (environment, every sample, spans) go to `.perfbench_out/`.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_out")
RUN_DEADLINE_S = 170.0
END_TO_END = (("wall_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed and recorded, not on the result line: see README.md
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"), ("cal_ms", "ms"),
             ("setup_raw_s", "s"))
# setup_s is set-up time in calibration loops, times this: the set-up time
# on a host where the loop takes 1 ms (see README.md)
CAL_REF_S = 1e-3
# Children get a fixed hash seed and none of the caller's PYTHON* settings.
# With random hash seeds the peak RSS of an m1-sweep repetition flipped
# between two values 0.9 MB apart.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONHASHSEED"] = "0"


class RunError(Exception):
    """A repetition could not run or produced no result."""


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(name, seed, mode, trace, run_id, cache, deadline):
    """Start child.py; return (setup_s, the child's second JSON line).

    setup_s runs from just before the interpreter is started to the child's
    `ready` line (both read CLOCK_MONOTONIC, which is system-wide).  The
    second line is the result record, or for a set-up child the loop's rate
    and the time its ticks took."""
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), name,
           str(seed), mode, str(trace), WORKDIR, run_id, cache]
    t_spawn = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{name} {mode} passed the {RUN_DEADLINE_S:.0f} s "
                       f"run deadline") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError(f"{name} {mode} exited {proc.returncode}: "
                       f"{err.strip()[-800:]}")
    try:
        lines = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
        setup_s = lines[0]["ready"] - t_spawn
        result = lines[1]
    except (ValueError, IndexError, KeyError) as exc:
        raise RunError(f"{name} {mode}: unreadable child output "
                       f"({exc}): {out[-300:]!r}") from None
    return setup_s, result


def _remove(path):
    if os.path.exists(path):
        os.remove(path)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=dict(os.environ,
                                      GIT_DIR=os.path.join(ROOT, ".git")),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def environment(seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed,
            "loadavg_start": list(os.getloadavg())}


def measure(name, seed, seconds, trace):
    """One benchmark run of workload `name`: a dict with the result line
    and a record of everything measured."""
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = monotonic() + RUN_DEADLINE_S
    wl = workloads.workload(name, seed)
    env = environment(seed)
    run_id = f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    cache = os.path.join(WORKDIR, f"cache-{run_id}.jsonl")
    setups, setups_cal, records = [], [], []

    def child(mode, tr, tag, path=cache):
        setup_s, rec = spawn(name, seed, mode, tr, f"{run_id}-{tag}", path,
                             deadline)
        if mode == "setup":
            setups.append(setup_s - rec["cal_spent_s"])
            setups_cal.append(setups[-1] * rec["cal_per_s"])
        else:
            records.append(rec)

    try:
        # Set-up children: the first writes the cache the repetitions read
        # (full-sweep); each one is a set-up sample for setup_s.
        for i in range(1 if trace else wl.setup_samples):
            if setups and monotonic() + 2 * max(setups) > deadline:
                break
            path = cache if i == 0 else f"{cache}.{i}"
            _remove(path)
            child("setup", 0, f"setup{i}", path)
            if i:
                _remove(path)
        if trace:
            # the untraced twin gives the tracing overhead and
            # cli.json_identical
            child("plain", 0, "plain")
            child("run", 1, "traced")
        else:
            # Repeat until the timed work is as close to `seconds` as
            # whole repetitions get it.
            while True:
                t = monotonic()
                child("run", 0, f"rep{len(records)}")
                walls = [r["wall_s"] for r in records]
                if (sum(walls) + statistics.mean(walls) / 2 >= seconds
                        or monotonic() + (monotonic() - t) > deadline):
                    break
    finally:
        _remove(cache)
    env["loadavg_end"] = list(os.getloadavg())

    outcomes = [r["outcome"] for r in records]
    errors = [e for o in outcomes for e in o["errors"]]
    result = {"correct": not errors,
              "attempted": sum(o["attempted"] for o in outcomes),
              "failed": sum(o["failed"] for o in outcomes)}
    undecided = sum(o["undecided"] for o in outcomes)

    if trace:
        plain, traced = records
        values = dict(traced["layers"])
        values["cli.json_bytes"] = traced["stdout_bytes"]
        values["cli.json_identical"] = int(
            plain["stdout_sha256"] == traced["stdout_sha256"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = dict(spans.PER_LAYER + spans.DETAIL_ONLY)
        shown = spans.PER_LAYER
    else:
        values = {k: statistics.median(r[k] for r in records)
                  for k in ("wall_cal", "wall_s", "cpu_s", "cal_ms")}
        values["setup_s"] = statistics.median(setups_cal) * CAL_REF_S
        values["setup_raw_s"] = statistics.median(setups)
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
        units = dict(END_TO_END + RAW_TIMES)
        shown = END_TO_END
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in shown}

    record = {"workload": name, "why": wl.why, "seconds": seconds,
              "trace": trace, "env": env, "setup_s_samples": setups,
              "setup_cal_samples": setups_cal,
              "repetitions": records, "undecided": undecided,
              "errors": errors, "result": result,
              "all_metrics": {k: {"value": v, "unit": units.get(k, "")}
                              for k, v in values.items()}}
    path = os.path.join(WORKDIR, f"record-{run_id}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def failed_frac(rec):
    """Failed operations over attempted ones, counting an undecided result
    as a failure, with its base."""
    res = rec["result"]
    bad = res["failed"] + rec["undecided"]
    return (bad / res["attempted"] if res["attempted"] else 1.0,
            f"{bad}/{res['attempted']} ops ({res['failed']} failed checks, "
            f"{rec['undecided']} undecided)")


def print_record(rec, stream):
    print(f"== {rec['workload']}  seed={rec['env']['seed']} "
          f"trace={rec['trace']}  load {rec['env']['loadavg_start'][0]:.2f}"
          f"->{rec['env']['loadavg_end'][0]:.2f}  "
          f"python {rec['env']['python']} nproc {rec['env']['nproc']} "
          f"sha {rec['env']['git_sha']}", file=stream)
    for k, m in rec["all_metrics"].items():
        print(f"   {k:40s} {m['value']:>14.6g} {m['unit']}", file=stream)
    frac, base = failed_frac(rec)
    print(f"   {'failed_frac':40s} {frac:>14.4g}   {base}", file=stream)
    for e in rec["errors"]:
        print(f"   CHECK FAILED: {e}", file=stream)
    print(f"   record: {rec['path']}", file=stream)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=workloads.NAMES)
    group.add_argument("--all", action="store_true",
                       help="run every workload once and print each metric")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "monomial_digraphs",
                                       "cli.py")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.all else (args.workload,)
    recs = []
    for name in names:
        try:
            rec = measure(name, args.seed, args.seconds, args.trace)
        except RunError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print_record(rec, sys.stdout if args.all else sys.stderr)
        recs.append(rec)
    if args.all:
        print(json.dumps({r["workload"]: r["result"] for r in recs}))
        return 0 if all(r["result"]["correct"] for r in recs) else 1
    print(json.dumps(recs[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
