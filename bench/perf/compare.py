#!/usr/bin/env python3
"""Parent-versus-change comparison of the ExtDict benchmark (the pair rule).

Run alternating pairs (each side with its own bench/perf/run.py, which
builds into a directory of its own; the benchmark must be identical on both
sides, and the bounds are read from this checkout's BENCHMARK.json):
    python3 bench/perf/compare.py --parent DIR --change DIR [--pairs 10]
        [--workloads W ...] [--seconds T] [--trace 0|1]
  Pair i runs seed i + 1 on both checkouts, the parent first when i is even
  and the change first when i is odd.

Check the rules on synthetic inputs:
    python3 bench/perf/compare.py --self-test

Each (metric, workload) gets its own row and one verdict:
  gain           at least 10 pairs, the change wins at least 9 in 10 of
                 them (ties count for neither side), its median beats the
                 parent's by more than the parent's own spread (q3 - q1 of
                 statistics.quantiles(n=4)), and no more operations failed
                 than at the parent;
  regression     the change's median is worse than the parent's by more
                 than the metric's bound (BENCHMARK.json, share of the
                 parent's median);
  unresolved     the parent's spread exceeds the bound, so a regression of
                 that size could not be seen -- unless every change run
                 beats every parent run;
  no regression  anything else.
Per-layer metrics have no bound: they are only ever "gain" or "no claim".
Exit status: 1 when any row is a regression, otherwise 0.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exd_build", "alg2_solve", "serve_wire_open", "serve_hot_extend")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Applies the pair rule to one (metric, workload). `parent` and
    `change` are equal-length lists, element i from pair i."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    improvement = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    row = {
        "pairs": len(parent),
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "improvement": improvement,
        "parent_spread": spread,
    }
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and sign * (c_med - p_med) > p_q3 - p_q1
            and change_failed <= parent_failed):
        row["verdict"] = "gain"
    elif bound is None:
        row["verdict"] = "no claim"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif -improvement > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def analyse(pairs, spec):
    """Rows for every (workload, metric) present in `pairs`."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        failed = {side: sum(p[side]["failed"] for p in mine) for side in ("parent", "change")}
        for metric in mine[0]["parent"]["metrics"]:
            parent = [p["parent"]["metrics"][metric]["value"] for p in mine]
            change = [p["change"]["metrics"][metric]["value"] for p in mine]
            row = verdict(parent, change, directions.get(metric, "lower"),
                          bounds.get(metric), failed["parent"], failed["change"])
            row.update(workload=workload, metric=metric)
            rows.append(row)
    return rows


def print_rows(rows):
    print(f"{'workload':17} {'metric':31} {'parent':>12} {'change':>12} "
          f"{'better by':>9} {'wins':>6} {'spread':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:17} {r['metric']:31} {r['parent_median']:12.5g} "
              f"{r['change_median']:12.5g} {100 * r['improvement']:8.2f}% "
              f"{r['wins']:>3}/{r['pairs']:<2} {100 * r['parent_spread']:6.1f}%  "
              f"{r['verdict']}")


def run_side(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} printed no result")
    line = json.loads(lines[-1])
    if not line["correct"]:
        raise RuntimeError(f"{root}: {workload} seed {seed} was not correct")
    return line


def collect(args):
    pairs = []
    for i in range(args.pairs):
        seed = i + 1
        for workload in args.workloads:
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"workload": workload, "seed": seed}
            for side in order:
                root = args.parent if side == "parent" else args.change
                pair[side] = run_side(root, workload, seed, args.seconds, args.trace)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr)
    return pairs


def self_test():
    rng = random.Random(7)
    spec = {"end_to_end": [
                {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1}],
            "per_layer": [{"name": "layer", "unit": "us", "better": "lower"}]}

    def pairs_of(parent_fn, change_fn, n=10, failed=(0, 0)):
        out = []
        for _ in range(n):
            out.append({"workload": "w",
                        "parent": {"failed": failed[0], "metrics": {
                            "lat": {"value": parent_fn()}, "rps": {"value": 1000.0},
                            "layer": {"value": parent_fn()}}},
                        "change": {"failed": failed[1], "metrics": {
                            "lat": {"value": change_fn()}, "rps": {"value": 1000.0},
                            "layer": {"value": change_fn()}}}})
        return out

    def lat_verdict(pairs):
        return next(r for r in analyse(pairs, spec) if r["metric"] == "lat")["verdict"]

    def noisy(mean, sd):
        return lambda: rng.gauss(mean, sd)

    cases = [
        ("clear gain", pairs_of(noisy(100, 1), noisy(90, 1)), "gain"),
        ("gain needs 10 pairs", pairs_of(noisy(100, 1), noisy(90, 1), n=9),
         "no regression"),
        ("gain needs no extra failures",
         pairs_of(noisy(100, 1), noisy(90, 1), failed=(0, 3)), "no regression"),
        ("regression beyond bound", pairs_of(noisy(100, 1), noisy(120, 1)), "regression"),
        ("within bound", pairs_of(noisy(100, 1), noisy(105, 1)), "no regression"),
        ("noisy parent", pairs_of(noisy(100, 30), noisy(100, 30)), "unresolved"),
        ("all change runs better despite noise",
         pairs_of(lambda: rng.uniform(100, 160), lambda: rng.uniform(40, 99)), "gain"),
    ]
    failures = 0
    for name, pairs, expected in cases:
        got = lat_verdict(pairs)
        ok = got == expected
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} (expected {expected})")

    # Small, consistent win inside the parent's spread: wins 10/10 but the
    # medians differ by less than the parent IQR, so no gain.
    parent = [100 + d for d in (-6, -4, -3, -1, 0, 1, 2, 3, 4, 6)]
    change = [p - 0.5 for p in parent]
    got = verdict(parent, change, "lower", 0.1)["verdict"]
    failures += got != "no regression"
    print(f"{'ok  ' if got == 'no regression' else 'FAIL'} win inside spread: {got}")

    higher = verdict([100.0 + i for i in range(10)], [130.0 + i for i in range(10)],
                     "higher", 0.1)["verdict"]
    failures += higher != "gain"
    print(f"{'ok  ' if higher == 'gain' else 'FAIL'} higher-is-better gain: {higher}")

    layer = next(r for r in analyse(pairs_of(noisy(100, 1), noisy(130, 1)), spec)
                 if r["metric"] == "layer")["verdict"]
    failures += layer != "no claim"
    print(f"{'ok  ' if layer == 'no claim' else 'FAIL'} per-layer has no bound: {layer}")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if not (args.parent and args.change):
        parser.error("give --parent and --change, or --self-test")
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    rows = analyse(collect(args), spec)
    print_rows(rows)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
