#!/usr/bin/env python3
"""Schema validator for the run_benchmarks and run_server_bench JSON artifacts.

Dependency-free (stdlib json only). CI's bench-smoke job runs

    run_benchmarks --quick --out OUT
    tools/validate_bench_json.py OUT/BENCH_gram_model.json OUT/BENCH_solvers.json
    run_server_bench --quick --out OUT
    tools/validate_bench_json.py OUT/BENCH_serve.json

so a schema drift — a renamed field, a type change, a dropped summary — fails
the PR even when the benchmark itself runs fine. The checked-in repo-root
copies of the files must also validate (the default when run with no args).

The schema language is a small subset of JSON Schema: dicts with "type",
"required", "properties", "items". Unknown extra fields are allowed — the
schema pins what downstream tooling reads, not everything the bench emits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

NUMBER = {"type": "number"}
STRING = {"type": "string"}
BOOL = {"type": "boolean"}

MEASURED_GRAM = {
    "type": "object",
    "required": [
        "update_flops_per_iteration",
        "total_flops",
        "words_total",
        "critical_path_words",
        "peak_memory_words",
        "wall_seconds",
        "modeled_seconds_from_counters",
    ],
    "properties": {
        "update_flops_per_iteration": NUMBER,
        "total_flops": NUMBER,
        "words_total": NUMBER,
        "critical_path_words": NUMBER,
        "peak_memory_words": NUMBER,
        "wall_seconds": NUMBER,
        "modeled_seconds_from_counters": NUMBER,
    },
}

MODELED = {
    "type": "object",
    "required": [
        "work_pairs",
        "flops",
        "comm_words",
        "time_cost_flop_equiv",
        "energy_cost_flop_equiv",
        "memory_words_per_proc",
    ],
    "properties": {name: NUMBER for name in (
        "work_pairs", "flops", "comm_words", "time_cost_flop_equiv",
        "energy_cost_flop_equiv", "memory_words_per_proc")},
}

GRAM_CASE = {
    "type": "object",
    "required": [
        "dataset", "platform", "strategy", "m", "l", "n", "nnz", "p",
        "iterations", "measured", "modeled", "model_check",
    ],
    "properties": {
        "dataset": STRING,
        "platform": STRING,
        "strategy": STRING,
        "m": NUMBER,
        "l": NUMBER,
        "n": NUMBER,
        "nnz": NUMBER,
        "p": NUMBER,
        "iterations": NUMBER,
        "measured": MEASURED_GRAM,
        "modeled": MODELED,
        "model_check": {
            "type": "object",
            "required": [
                "covered_by_eq2", "expected_flops_per_iteration",
                "flops_match_exact",
            ],
            "properties": {
                "covered_by_eq2": BOOL,
                "expected_flops_per_iteration": NUMBER,
                "flops_match_exact": BOOL,
            },
        },
    },
}

GRAM_MODEL_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "benchmark", "mode", "units", "cases", "summary",
        "instrumentation_overhead",
    ],
    "properties": {
        "schema_version": NUMBER,
        "benchmark": STRING,
        "mode": STRING,
        "units": STRING,
        "cases": {"type": "array", "items": GRAM_CASE},
        "summary": {
            "type": "object",
            "required": [
                "cases", "covered_by_eq2", "exact_flop_matches",
                "all_cases_match",
            ],
            "properties": {
                "cases": NUMBER,
                "covered_by_eq2": NUMBER,
                "exact_flop_matches": NUMBER,
                "all_cases_match": BOOL,
            },
        },
        "instrumentation_overhead": {
            "type": "object",
            "required": [
                "workload", "metrics_enabled_seconds",
                "metrics_disabled_seconds", "delta_pct", "note",
            ],
            "properties": {
                "workload": STRING,
                "metrics_enabled_seconds": NUMBER,
                "metrics_disabled_seconds": NUMBER,
                "delta_pct": NUMBER,
                "note": STRING,
            },
        },
    },
}

SOLVERS_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "benchmark", "mode", "cases",
                 "metrics_snapshot"],
    "properties": {
        "schema_version": NUMBER,
        "benchmark": STRING,
        "mode": STRING,
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["solver", "dataset", "l", "measured"],
                "properties": {
                    "solver": STRING,
                    "dataset": STRING,
                    "l": NUMBER,
                    "measured": {"type": "object", "required": ["wall_seconds"]},
                },
            },
        },
        "metrics_snapshot": {
            "type": "object",
            "required": ["counters", "spans"],
            "properties": {
                "counters": {"type": "object"},
                "spans": {"type": "object"},
            },
        },
    },
}

SERVE_DUEL = {
    "type": "object",
    "required": ["rounds", "ratios", "median", "floor", "ok"],
    "properties": {
        "rounds": NUMBER,
        "ratios": {"type": "array", "items": NUMBER},
        "median": NUMBER,
        "floor": NUMBER,
        "ok": BOOL,
    },
}

# run_server_bench's three interleaved duels, each with its pinned floor and
# the floor's direction: a speed-up must beat it (median > floor), an
# overhead must stay within it (0 < median <= floor).
SERVE_DUELS = {
    "batch": ("above", 1.0),
    "cache": ("above", 1.0),
    "snapshotter": ("at_most", 1.15),
}

SERVE_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "benchmark", "mode", "workload", "duels", "summary",
    ],
    "properties": {
        "schema_version": NUMBER,
        "benchmark": STRING,
        "mode": STRING,
        "workload": {
            "type": "object",
            "required": [
                "signal_dim", "atoms", "tolerance", "max_atoms",
                "signal_pool", "seeds",
            ],
            "properties": {
                "signal_dim": NUMBER,
                "atoms": NUMBER,
                "tolerance": NUMBER,
                "max_atoms": NUMBER,
                "signal_pool": NUMBER,
                "seeds": STRING,
            },
        },
        "duels": {
            "type": "object",
            "required": list(SERVE_DUELS),
            "properties": {name: SERVE_DUEL for name in SERVE_DUELS},
        },
        "summary": {
            "type": "object",
            "required": ["all_ok"],
            "properties": {"all_ok": BOOL},
        },
    },
}

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; keep the two disjoint.
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def validate(value, schema, path, errors):
    expected = schema.get("type")
    if expected and not TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if expected == "object":
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required member '{key}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
    elif expected == "array":
        item_schema = schema.get("items")
        if item_schema:
            for i, item in enumerate(value):
                validate(item, item_schema, f"{path}[{i}]", errors)


def check_semantics_gram(doc, errors):
    """Beyond shape: the invariants the bench exists to pin."""
    summary = doc.get("summary", {})
    cases = doc.get("cases", [])
    if summary.get("cases") != len(cases):
        errors.append("summary.cases disagrees with len(cases)")
    if not summary.get("all_cases_match", False):
        errors.append("summary.all_cases_match is false: the measured update "
                      "FLOPs diverged from the cost model")
    strategies = {c.get("strategy") for c in cases}
    wanted = {"partitioned_dictionary", "root_dictionary",
              "replicated_dictionary", "original_ata"}
    missing = wanted - strategies
    if missing:
        errors.append(f"sweep is missing strategies: {sorted(missing)}")
    for i, case in enumerate(cases):
        check = case.get("model_check", {})
        measured = case.get("measured", {})
        if check.get("flops_match_exact") and (
                measured.get("update_flops_per_iteration")
                != check.get("expected_flops_per_iteration")):
            errors.append(f"cases[{i}]: flops_match_exact is true but the "
                          "numbers differ")


def check_semantics_serve(doc, errors):
    """The serving duels: each median is the upper median of its own
    per-round ratios, each floor is the pinned one, each ok flag is the
    floor comparison, and every duel is present and ok."""
    duels = doc.get("duels", {})
    for name, (direction, pinned_floor) in SERVE_DUELS.items():
        duel = duels.get(name, {})
        ratios = duel.get("ratios", [])
        if len(ratios) != duel.get("rounds") or not ratios:
            errors.append(f"duels.{name}: len(ratios) != rounds")
            continue
        median = sorted(ratios)[len(ratios) // 2]
        if median != duel.get("median"):
            errors.append(f"duels.{name}.median {duel.get('median')} is not "
                          f"the median of its ratios ({median})")
        floor = duel.get("floor")
        if floor != pinned_floor:
            errors.append(f"duels.{name}.floor {floor} is not the pinned "
                          f"{pinned_floor}")
            continue
        held = (median > floor if direction == "above"
                else 0 < median <= floor)
        if duel.get("ok") != held:
            errors.append(f"duels.{name}.ok disagrees with the floor "
                          f"comparison (median {median}, floor {floor})")
        if not held:
            errors.append(f"duels.{name} missed its floor (median {median}, "
                          f"floor {floor})")
    if doc.get("summary", {}).get("all_ok") is not True:
        errors.append("summary.all_ok is not true")


def check_semantics_solvers(doc, errors):
    """The distributed solvers' update-FLOP meters and the Batch-OMP meter
    must each agree exactly with their closed form."""
    for solver in ("lasso_distributed", "power_method_distributed"):
        found = [c for c in doc.get("cases", []) if c.get("solver") == solver]
        if not found:
            errors.append(f"no {solver} case: its metered-vs-model update "
                          "FLOP check did not run")
        for i, case in enumerate(found):
            check = case.get("model_check", {})
            if not check.get("flops_match_exact", False):
                errors.append(f"{solver}[{i}]: flops_match_exact is false — "
                              "metered update FLOPs diverged from Eq. (2)")
            elif (check.get("update_flops_per_iteration")
                  != check.get("model_flops_per_iteration")):
                errors.append(f"{solver}[{i}]: update_flops_per_iteration != "
                              "model_flops_per_iteration")
    omp_cases = [c for c in doc.get("cases", [])
                 if c.get("solver") == "batch_omp_flop_model"]
    if not omp_cases:
        errors.append("no batch_omp_flop_model cases: the metered-vs-model "
                      "Batch-OMP check did not run")
    for i, case in enumerate(omp_cases):
        check = case.get("model_check", {})
        if not check.get("flops_match_exact", False):
            errors.append(f"batch_omp_flop_model[{i}]: flops_match_exact is "
                          "false — metered FLOPs diverged from encode_flops()")
        if check.get("exact_matches") != case.get("signals"):
            errors.append(f"batch_omp_flop_model[{i}]: exact_matches != "
                          "signals")


def run(path, schema, semantic_check=None):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL {path}: {exc}")
        return False
    errors = []
    validate(doc, schema, "$", errors)
    if semantic_check and not errors:
        semantic_check(doc, errors)
    for message in errors:
        print(f"FAIL {path}: {message}")
    if not errors:
        print(f"ok   {path}")
    return not errors


def main(argv):
    paths = argv[1:] or ["BENCH_gram_model.json", "BENCH_solvers.json",
                         "BENCH_serve.json"]
    ok = True
    for path in paths:
        name = Path(path).name
        if "gram_model" in name:
            ok &= run(path, GRAM_MODEL_SCHEMA, check_semantics_gram)
        elif "solvers" in name:
            ok &= run(path, SOLVERS_SCHEMA, check_semantics_solvers)
        elif "serve" in name:
            ok &= run(path, SERVE_SCHEMA, check_semantics_serve)
        else:
            print(f"FAIL {path}: unknown artifact (expected "
                  "BENCH_gram_model.json, BENCH_solvers.json or "
                  "BENCH_serve.json)")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
