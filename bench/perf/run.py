#!/usr/bin/env python3
"""ExtDict repository benchmark runner (Python standard library only).

One workload, one process (the form BENCHMARK.json's "command" takes):
    python3 bench/perf/run.py --workload NAME --seed N --seconds T --trace 0|1
  Builds bench/perf into $CARGO_TARGET_DIR/perf-<hash of the source tree>
  (default .bench_build/perf-<hash>) on first use, runs extdict_perf once,
  and prints one JSON object as the
  last line of standard output:
    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
  With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
  --trace 1 they are its per_layer list, taken from a traced run whose
  Chrome trace (trace_<workload>.json in the build directory) is analysed
  with tools/analyze_trace.py.

Every workload, each in its own process:
    python3 bench/perf/run.py [--seed N] [--seconds T] [--trace 0|1] [--out FILE]
  prints one `workload metric value unit` line per metric; --out keeps the
  driver's full documents.

Smoke (stands in for CI; registered as the ctest extdict_perf_smoke):
    python3 bench/perf/run.py --smoke [--binary PATH]
  every workload at toy shapes, untraced and traced: correctness gates and
  output schema only, no timing checks.

Exit status: 0 when every run was correct, 1 when a correctness gate or
schema check failed, 2 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("exd_build", "alg2_solve", "serve_wire_open", "serve_hot_extend")
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not be built or run (exit status 2)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from err


def run_logged(cmd, what, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{what} failed: {err}") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        raise BenchError(f"{what} failed with status {proc.returncode}")


def configured_source(build_dir):
    """The source directory `build_dir` was configured from, or None."""
    try:
        with open(build_dir / "CMakeCache.txt", encoding="utf-8") as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return Path(line.split("=", 1)[1].strip()).resolve()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures (once) and builds extdict_perf; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no ExtDict sources at {ROOT}: nothing to build")
    source = configured_source(build_dir)
    if source is None:
        run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], "configure", BUILD_TIMEOUT_S)
    elif source != HERE:
        # Building there would build another checkout's sources.
        raise BenchError(f"{build_dir} is configured for {source}, not {HERE}")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "--target", "extdict_perf",
                "-j", jobs], "build", BUILD_TIMEOUT_S)
    binary = build_dir / "extdict_perf"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_driver(binary, workload, seed, seconds, out_path, trace_path=None,
               smoke=False):
    """Runs extdict_perf once; returns its result document."""
    out_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_path)]
    if trace_path is not None:
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{workload}: {err}") from err
    if not out_path.is_file():
        raise BenchError(f"{workload}: extdict_perf exited {proc.returncode} "
                         "without a result")
    with open(out_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    for gate in doc.get("gates", []):
        if not gate["ok"]:
            log(f"{workload}: gate {gate['name']} failed: {gate['detail']}")
    return doc


def put(metrics, name, value, unit):
    metrics[name] = {"value": value, "unit": unit}


def analyse_trace(doc, trace_path, workload):
    """Adds the trace-derived per-layer metrics (per-rank attribution from
    tools/analyze_trace.py, and alg2_solve's iteration split) to `doc`.
    Returns a list of failures."""
    sys.path.insert(0, str(ROOT / "tools"))
    import analyze_trace  # pylint: disable=import-outside-toplevel

    try:
        trace = analyze_trace.load(str(trace_path))
        spans, _instants = analyze_trace.validate_events(trace)
        analyze_trace.check_drops(trace, False)
    except analyze_trace.MalformedTrace as err:
        return [f"trace {trace_path}: {err}"]

    metrics = doc["metrics"]
    failures = []
    ranks = list(analyze_trace.rank_attribution(spans).values())
    total = sum(r["total_us"] for r in ranks)
    if total > 0:
        computes = [r["compute_us"] for r in ranks]
        put(metrics, "dist.compute_frac", sum(computes) / total, "ratio")
        put(metrics, "dist.comm_frac", sum(r["comm_us"] for r in ranks) / total, "ratio")
        put(metrics, "dist.wait_frac", sum(r["wait_us"] for r in ranks) / total, "ratio")
        put(metrics, "dist.imbalance",
            max(computes) / (sum(computes) / len(computes)), "ratio")
    else:
        failures.append("trace has no rank lanes")

    if workload == "alg2_solve":
        # Each traced dist_gram_apply call is wrapped in a bench span on the
        # host lane. Within it, the union of every iteration's cross-rank
        # update and normalize envelopes is the critical path, and it should
        # account for the call's wall time. Both are traced, so tracing costs
        # cancel; thread start-up and the final gather are the remainder.
        calls = [span for (pid, _tid), lane in spans.items()
                 if pid == analyze_trace.HOST_PID for span in lane
                 if span["name"] in ("perf.dist_gram_apply", "perf.layer.core.dist_gram")]
        envelopes = []
        for name in ("dist_gram.update", "dist_gram.normalize"):
            for _iteration, members in analyze_trace.iteration_groups(spans, name):
                start = min(s["start"] for _p, s in members)
                if any(c["start"] <= start <= c["end"] for c in calls):
                    envelopes.append((start, max(s["end"] for _p, s in members)))
        wall_us = sum(c["end"] - c["start"] for c in calls)
        if wall_us > 0 and envelopes:
            critical_us = analyze_trace.merged_length(envelopes)
            put(metrics, "split.residual_pct",
                100 * abs(critical_us - wall_us) / wall_us, "%")
        else:
            failures.append("no traced dist_gram_apply calls")
    return failures


def result_line(doc, spec_metrics, failures):
    """The one-line result object, restricted to `spec_metrics` (a list of
    {"name", "unit"}); schema problems are appended to `failures`."""
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        found = doc["metrics"].get(name)
        if found is None:
            failures.append(f"metric {name} missing")
            continue
        value = found["value"]
        if found["unit"] != entry["unit"]:
            failures.append(f"metric {name} in {found['unit']}, expected {entry['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"metric {name} is not a finite number")
            value = 0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": bool(doc.get("correct")) and not failures,
        "attempted": max(1, int(doc.get("attempted", 0))),
        "failed": int(doc.get("failed", 0)),
        "metrics": metrics,
    }


def measure(spec, binary, build_dir, workload, seed, seconds, traced, smoke=False):
    """One run; returns (result line, driver document)."""
    runs = build_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}_{seed}_{'layers' if traced else 'e2e'}"
    trace_path = build_dir / f"trace_{workload}.json" if traced else None
    doc = run_driver(binary, workload, seed, seconds, runs / f"{tag}.json",
                     trace_path, smoke)
    failures = []
    if traced and trace_path.is_file():
        failures += analyse_trace(doc, trace_path, workload)
    line = result_line(doc, spec["per_layer" if traced else "end_to_end"], failures)
    for failure in failures:
        log(f"{workload}: {failure}")
    return line, doc


def default_build_dir():
    """perf-<hash of this source tree> under $CARGO_TARGET_DIR (default
    .bench_build). Checkouts that share an absolute $CARGO_TARGET_DIR then
    each build their own sources."""
    tag = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / f"perf-{tag}"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", type=Path, help="use a built extdict_perf")
    parser.add_argument("--build-dir", type=Path, default=None)
    parser.add_argument("--out", type=Path, help="full-run documents (JSON)")
    args = parser.parse_args(argv[1:])

    try:
        spec = load_spec()
        build_dir = (args.build_dir or default_build_dir()).resolve()
        binary = args.binary.resolve() if args.binary else build(build_dir)
        if args.binary:
            build_dir = binary.parent / "smoke" if args.smoke else build_dir
        seconds = args.seconds or (1.0 if args.smoke else spec["run_seconds"])

        if args.workload and not args.smoke:
            line, _doc = measure(spec, binary, build_dir, args.workload, args.seed,
                                 seconds, args.trace == 1)
            print(json.dumps(line))
            return 0 if line["correct"] else 1

        workloads = [args.workload] if args.workload else list(WORKLOADS)
        modes = (False, True) if args.smoke or args.trace == 1 else (False,)
        all_correct = True
        documents = {}
        for workload in workloads:
            for traced in modes:
                line, doc = measure(spec, binary, build_dir, workload, args.seed,
                                    seconds, traced, args.smoke)
                all_correct = all_correct and line["correct"]
                documents.setdefault(workload, {})["layers" if traced else "e2e"] = doc
                for name, metric in line["metrics"].items():
                    print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
                print(f"{workload} correct {line['correct']} attempted "
                      f"{line['attempted']} failed {line['failed']}")
        if args.out:
            args.out.write_text(json.dumps(documents, indent=1) + "\n", encoding="utf-8")
        return 0 if all_correct else 1
    except BenchError as err:
        log(f"run.py: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
