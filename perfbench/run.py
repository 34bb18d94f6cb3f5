#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see README.md beside this file).

Run one workload, from the root of the repository:

    python3 perfbench/run.py --rates <name=light:heavy,...> \
        --workload serve-mixed-churn --seed 1 --seconds 24 --trace 0

The Go program is built from source into .bench_build/ at the root, with
every Go cache kept there. Its output is passed through; the last line is
the result JSON, checked against the metrics BENCHMARK.json declares.

Check steadiness: two sets of runs of the same build, each run with its own
seed, interleaved. For every workload and end-to-end metric it prints each
set's median and quartiles, each set's spread (interquartile range over the
median) against the metric's bound, and whether the second set's median is
within the bound of the first's:

    python3 perfbench/run.py --steadiness --runs 10 [--workloads a,b]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build():
    """Builds the benchmark binary; the Go build cache makes a rebuild cheap."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        sys.exit("perfbench: build failed")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def check_result(line, trace, spec):
    """Returns an error string if the result line breaks the declared contract."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(res)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, undeclared %s, unit mismatch %s" % (
            missing, extra, units)
    return None


def run_once(argv):
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--trace", "-trace", default="0")
    trace = p.parse_known_args(argv)[0].trace == "1"
    build()
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = out.strip().splitlines()
    if os.path.exists(SPEC):
        err = check_result(lines[-1] if lines else "", trace, load_spec())
        if err:
            sys.exit("perfbench: " + err)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    build()
    ok = True
    for name in names:
        sets = [[], []]
        for i in range(args.runs):
            for s in range(2):
                seed = args.first_seed + s * args.runs + i
                cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit("perfbench: %s seed %d failed (exit %d)" % (name, seed, proc.returncode))
                res = json.loads(lines[-1])
                if not res["correct"] or res["failed"]:
                    ok = False
                sets[s].append(res)
                print("%s set %d seed %d: %s" % (name, s + 1, seed, json.dumps(
                    {k: round(v["value"], 4) for k, v in res["metrics"].items()})), flush=True)
        print("== %s: %d runs per set, %s s each" % (name, args.runs, seconds))
        for metric, m in bounds.items():
            bound = m["bound"]
            line = "  %-16s bound %.3f" % (metric, bound)
            medians = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][metric]["value"] for r in runs]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                if spread > bound:
                    ok = False
                line += " | set %d median %.5g [%.5g, %.5g] spread %.4f %s" % (
                    s + 1, q2, q1, q3, spread, verdict)
            worse = medians[1] / medians[0] - 1 if m["better"] == "lower" else medians[0] / medians[1] - 1
            agree = worse <= bound
            ok = ok and agree
            line += " | second vs first %+.4f %s" % (worse, "agree" if agree else "DISAGREE")
            print(line, flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main():
    if "--steadiness" not in sys.argv[1:]:
        run_once(sys.argv[1:])
        return
    p = argparse.ArgumentParser()
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    sys.exit(steadiness(p.parse_args()))


if __name__ == "__main__":
    main()
