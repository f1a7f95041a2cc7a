#!/usr/bin/env python3
"""Times a change against its parent on one perfbench workload, in
alternating pairs of runs.

Usage (from any directory):
    python3 tools/perf_pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD SEED PAIRS

PARENT_ROOT and CHANGE_ROOT are checkouts of the two commits, and PAIRS is
at least 2. One run is the command of BENCHMARK.json, run in ROOT, with
    --workload WORKLOAD --seed SEED --seconds S --trace 0
and S the run_seconds of BENCHMARK.json. Before the pairs, each side runs
once with --seconds 0, untimed, which builds it. In each pair both sides
run once; the side that runs first alternates from pair to pair. Every run
must report correct with no failed ops, or the tool stops with an error.
Each run's metrics are printed as it finishes, followed by the minor page
faults (minflt) and involuntary context switches (nivcsw) of its process
tree: the growth of this process's RUSAGE_CHILDREN counts across the run,
into which perfbench's counts roll up because run.py waits on it. They say
how the host treated a run; whether they tell a slow host mode from a slow
program is not established.

Then, for each end-to-end metric of BENCHMARK.json, it prints each side's
median, quartiles and min-max, the relative change of the medians, the
pairs the change won, and one verdict by the metric's bound and better
direction, the first that holds of:
  better      the change won at least 9 of every 10 pairs and its median is
              better than the parent's by more than the parent's
              interquartile range
  unresolved  either side's interquartile range is wider than the bound,
              relative to its median, and the two sides' runs overlap
  worse       the change's median is worse than the parent's by more than
              the bound
  no worse    otherwise
It reads BENCHMARK.json at the root of its own checkout and writes nothing;
perfbench/run.py keeps its build in each ROOT/.bench_build.
"""

import json
import math
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def fail(msg):
    print("perf_pairs: " + msg, file=sys.stderr)
    sys.exit(1)


def run(command, root, workload, seed, seconds, label):
    """One benchmark run; returns its metrics as {name: value}, and the
    minor page faults and involuntary context switches of its process tree
    as "minflt=N nivcsw=N"."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    host = "minflt=%d nivcsw=%d" % (after.ru_minflt - before.ru_minflt,
                                    after.ru_nivcsw - before.ru_nivcsw)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s: %s exited %d without a result"
             % (label, " ".join(cmd), proc.returncode))
    if not result.get("correct") or result.get("failed") != 0:
        fail("%s: not correct or failed ops: %s" % (label, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}, host


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "med": med, "q3": q3,
            "max": max(values)}


def relative(delta, base):
    if base == 0.0:
        return 0.0 if delta == 0.0 else math.inf
    return delta / abs(base)


def verdict(metric, parent, change):
    """The verdict and the number of pairs the change won."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0.0)
    ps, cs = summary(parent), summary(change)
    gain = sign * (ps["med"] - cs["med"])
    wide = (relative(ps["q3"] - ps["q1"], ps["med"]) > bound or
            relative(cs["q3"] - cs["q1"], cs["med"]) > bound)
    overlap = max(ps["min"], cs["min"]) <= min(ps["max"], cs["max"])
    if won * 10 >= len(parent) * 9 and gain > ps["q3"] - ps["q1"]:
        return "better", won
    if wide and overlap:
        return "unresolved", won
    if relative(gain, ps["med"]) < -bound:
        return "worse", won
    return "no worse", won


def fmt(s):
    return "%.4g [%.4g-%.4g] (%.4g-%.4g)" % (s["med"], s["q1"], s["q3"],
                                              s["min"], s["max"])


def main(argv):
    if len(argv) != 6:
        print("usage: %s PARENT_ROOT CHANGE_ROOT WORKLOAD SEED PAIRS"
              % argv[0], file=sys.stderr)
        return 2
    roots = {"parent": os.path.abspath(argv[1]),
             "change": os.path.abspath(argv[2])}
    workload = argv[3]
    try:
        seed, pairs = int(argv[4]), int(argv[5])
    except ValueError:
        fail("SEED and PAIRS must be integers")
    if pairs < 2:
        fail("PAIRS must be at least 2")
    for root in roots.values():
        if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
            fail("not a checkout, no BENCHMARK.json: " + root)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    command = bench["command"]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    for side, root in roots.items():
        run(command, root, workload, seed, 0, side + " build run")

    values = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            label = "pair %d/%d %s" % (i + 1, pairs, side)
            got, host = run(command, roots[side], workload, seed, seconds,
                            label)
            values[side].append(got)
            print(label + " " + " ".join(
                "%s=%.6g" % (m["name"], got[m["name"]]) for m in metrics) +
                " " + host, flush=True)

    print("%s seed %d, pairs: %d, run seconds: %g" % (workload, seed, pairs,
                                                       seconds))
    print("metric: each side's median [q1-q3] (min-max), change of the "
          "median, pairs the change won, verdict")
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in values["parent"]]
        change = [r[name] for r in values["change"]]
        v, won = verdict(m, parent, change)
        ps, cs = summary(parent), summary(change)
        print("%-17s parent %s  change %s  %+.1f%%  won %d/%d  %s"
              % (name, fmt(ps), fmt(cs),
                 100.0 * relative(cs["med"] - ps["med"], ps["med"]), won,
                 pairs, v))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
