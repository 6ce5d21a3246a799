#!/usr/bin/env python3
"""Paired parent/change runs of the repo benchmark, with every run's output kept.

    python3 scripts/perf_pairs.py --parent ../parent --change . \\
        --workload durable_recover --seeds 9001-9010 --out /tmp/pairs

For each seed it runs `python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout (odd seeds run the parent
first, even seeds the change) and saves the run's stdout and stderr as
<out>/<workload>-<seed>-<side>.{out,err}. Then, for every end-to-end metric
that BENCHMARK.json names, it prints each side's median with its quartiles
[Q1, Q3] (statistics.quantiles, exclusive method), the change in median and
how many pairs each side won (ties count for neither).

Last it lists every run that was not correct, had failed operations or
printed no result line, with the tail of its stderr, and exits 1 if there
was any. A pair with such a run is left out of the statistics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return list(range(first, last + 1))


def result_of(stdout):
    """The result object run.py prints last, or None when there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def run_one(checkout, side, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    stem = os.path.join(args.out, "%s-%d-%s" % (args.workload, seed, side))
    with open(stem + ".out", "w") as f:
        f.write(proc.stdout)
    with open(stem + ".err", "w") as f:
        f.write(proc.stderr)
    result = result_of(proc.stdout)
    fault = None
    if result is None:
        fault = "printed no result line (exit %d)" % proc.returncode
    elif not result["correct"]:
        fault = "incorrect (exit %d)" % proc.returncode
    elif result.get("failed", 0) > 0:
        fault = "%d failed" % result["failed"]
    if fault:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        fault = "%s seed %d %s: %s\n    stderr tail:\n%s" % (
            args.workload, seed, side, fault,
            "\n".join("      " + line for line in tail.splitlines()))
    return result, fault


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", required=True, help="directory for every run's output")
    args = p.parse_args()

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}

    pairs = []  # (seed, {side: result})
    faults = []
    for seed in args.seeds:
        order = SIDES if seed % 2 else tuple(reversed(SIDES))
        results = {}
        clean = True
        for side in order:
            result, fault = run_one(checkouts[side], side, args, seed)
            results[side] = result
            if fault:
                faults.append(fault)
                clean = False
            print("seed %d %-6s %s" % (seed, side, fault.split("\n")[0] if fault else "ok"),
                  flush=True)
        if clean:
            pairs.append((seed, results))

    print("\n%s, %d clean pairs (seeds %d-%d), medians [Q1, Q3]:" % (
        args.workload, len(pairs), args.seeds[0], args.seeds[-1]))
    print("| metric | parent | change | change in median | change better | parent better |")
    print("|---|---|---|---|---|---|")
    for m in metrics if pairs else []:
        name = m["name"]
        values = {s: [r[s]["metrics"][name]["value"] for _, r in pairs] for s in SIDES}
        med = {s: statistics.median(values[s]) for s in SIDES}
        quart = {s: quartiles(values[s]) for s in SIDES}
        sign = 1 if m["better"] == "lower" else -1
        change_wins = sum(1 for a, b in zip(values["parent"], values["change"])
                          if sign * (b - a) < 0)
        parent_wins = sum(1 for a, b in zip(values["parent"], values["change"])
                          if sign * (a - b) < 0)
        delta = (med["change"] - med["parent"]) / med["parent"] * 100 if med["parent"] else 0.0
        print("| `%s` (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %d/%d | %d/%d |" % (
            name, m["unit"], med["parent"], *quart["parent"], med["change"],
            *quart["change"], delta, change_wins, len(pairs), parent_wins, len(pairs)))
    for seed, results in pairs:
        print("  seed %d: %s" % (seed, ", ".join(
            "%s %.4g/%.4g" % (m["name"], results["parent"]["metrics"][m["name"]]["value"],
                              results["change"]["metrics"][m["name"]]["value"])
            for m in metrics)))

    if faults:
        print("\n%d faulty run(s); outputs are in %s:" % (len(faults), args.out))
        for fault in faults:
            print("  " + fault)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
