#!/usr/bin/env python3
"""Schema validator for the run_benchmarks JSON artifacts.

Dependency-free (stdlib json only). CI's bench-smoke job runs

    run_benchmarks --quick --out OUT
    tools/validate_bench_json.py OUT/BENCH_gram_model.json OUT/BENCH_solvers.json
    run_server_bench --quick --out OUT
    tools/validate_bench_json.py OUT/BENCH_serve.json OUT/BENCH_cache.json \
        OUT/BENCH_telemetry.json

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

SERVE_LATENCY = {
    "type": "object",
    "required": [
        "count", "mean_seconds", "p50_seconds", "p90_seconds", "p95_seconds",
        "p99_seconds", "max_seconds",
    ],
    "properties": {name: NUMBER for name in (
        "count", "mean_seconds", "p50_seconds", "p90_seconds", "p95_seconds",
        "p99_seconds", "max_seconds")},
}

SERVE_COUNTS = {
    "type": "object",
    "required": [
        "submitted", "accepted", "served", "rejected", "shed", "stopped",
        "discarded", "invalid", "encode_failed", "lost", "batches",
        "columns_encoded", "max_batch_columns",
    ],
    "properties": {name: NUMBER for name in (
        "submitted", "accepted", "served", "rejected", "shed", "stopped",
        "discarded", "invalid", "encode_failed", "lost", "batches",
        "columns_encoded", "max_batch_columns")},
}

SERVE_CASE = {
    "type": "object",
    "required": [
        "name", "loop", "policy", "max_batch", "max_delay_us", "workers",
        "queue_capacity", "requests", "wall_seconds", "throughput_rps",
        "counts", "latency", "queue_wait",
    ],
    "properties": {
        "name": STRING,
        "loop": STRING,
        "policy": STRING,
        "max_batch": NUMBER,
        "max_delay_us": NUMBER,
        "workers": NUMBER,
        "queue_capacity": NUMBER,
        "requests": NUMBER,
        "offered_rps": NUMBER,  # open-loop cases only
        "wall_seconds": NUMBER,
        "throughput_rps": NUMBER,
        "counts": SERVE_COUNTS,
        "latency": SERVE_LATENCY,
        "queue_wait": SERVE_LATENCY,
    },
}

WIRE_PASS = {
    "type": "object",
    "required": [
        "wall_seconds", "throughput_rps", "served", "error_status",
        "transport_errors", "latency",
    ],
    "properties": {
        **{name: NUMBER for name in (
            "wall_seconds", "throughput_rps", "served", "error_status",
            "transport_errors")},
        "latency": SERVE_LATENCY,
    },
}

SERVE_WIRE = {
    "type": "object",
    "required": [
        "threads", "requests_per_thread", "requests", "rounds", "max_batch",
        "workers", "queue_capacity", "policy", "in_process", "wire",
        "daemon_counts", "wire_throughput_fraction",
        "wire_p99_overhead_seconds", "zero_lost", "accounting_balanced",
        "contract_held",
    ],
    "properties": {
        **{name: NUMBER for name in (
            "threads", "requests_per_thread", "requests", "rounds",
            "max_batch", "workers", "queue_capacity",
            "wire_throughput_fraction", "wire_p99_overhead_seconds")},
        "policy": STRING,
        "in_process": WIRE_PASS,
        "wire": WIRE_PASS,
        "daemon_counts": {
            "type": "object",
            "required": [
                "connections_accepted", "connections_refused",
                "frames_received", "malformed_closes", "invalid_payloads",
                "submitted", "replies_sent", "reply_write_failures",
                "bytes_rx", "bytes_tx",
            ],
            "properties": {name: NUMBER for name in (
                "connections_accepted", "connections_refused",
                "frames_received", "malformed_closes", "invalid_payloads",
                "submitted", "replies_sent", "reply_write_failures",
                "bytes_rx", "bytes_tx")},
        },
        "zero_lost": BOOL,
        "accounting_balanced": BOOL,
        "contract_held": BOOL,
    },
}

SERVE_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "benchmark", "mode", "units", "workload", "cases",
        "wire", "summary",
    ],
    "properties": {
        "schema_version": NUMBER,
        "benchmark": STRING,
        "mode": STRING,
        "units": STRING,
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
        "cases": {"type": "array", "items": SERVE_CASE},
        "wire": SERVE_WIRE,
        "summary": {
            "type": "object",
            "required": [
                "cases", "total_submitted", "total_served", "total_lost",
                "all_futures_resolved", "accounting_balanced", "batch1_rps",
                "batch32_rps", "batch_speedup", "batch_amortization_win",
                "wire_contract_held",
            ],
            "properties": {
                "cases": NUMBER,
                "total_submitted": NUMBER,
                "total_served": NUMBER,
                "total_lost": NUMBER,
                "all_futures_resolved": BOOL,
                "accounting_balanced": BOOL,
                "batch1_rps": NUMBER,
                "batch32_rps": NUMBER,
                "batch_speedup": NUMBER,
                "batch_amortization_win": BOOL,
                "wire_contract_held": BOOL,
            },
        },
    },
}

CACHE_PASS = {
    "type": "object",
    "required": [
        "wall_seconds", "throughput_rps", "served", "lost", "hits", "misses",
        "hit_ratio", "insertions", "evictions", "latency",
    ],
    "properties": {
        **{name: NUMBER for name in (
            "wall_seconds", "throughput_rps", "served", "lost", "hits",
            "misses", "hit_ratio", "insertions", "evictions")},
        "latency": SERVE_LATENCY,
    },
}

CACHE_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "benchmark", "mode", "units", "workload",
        "cache_sweep", "extend_pass", "summary",
    ],
    "properties": {
        "schema_version": NUMBER,
        "benchmark": STRING,
        "mode": STRING,
        "units": STRING,
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
        "cache_sweep": {
            "type": "object",
            "required": [
                "requests", "rounds", "pool_size", "warm_capacity",
                "expected_warm_hit_ratio", "cold", "warm", "warm_speedup",
                "warm_beats_cold", "hit_accounting_exact",
                "accounting_balanced",
            ],
            "properties": {
                **{name: NUMBER for name in (
                    "requests", "rounds", "pool_size", "warm_capacity",
                    "expected_warm_hit_ratio", "warm_speedup")},
                "cold": CACHE_PASS,
                "warm": CACHE_PASS,
                "warm_beats_cold": BOOL,
                "hit_accounting_exact": BOOL,
                "accounting_balanced": BOOL,
            },
        },
        "extend_pass": {
            "type": "object",
            "required": [
                "producers", "requests_per_producer", "flips",
                "atoms_per_flip", "epoch_after", "atoms_before", "atoms_after",
                "wall_seconds", "served", "cache_hits", "lost", "errors",
                "flip_seconds", "max_flip_seconds",
                "epochs_monotone_per_producer", "live_epochs_after_drain",
                "accounting_balanced", "contract_held",
            ],
            "properties": {
                **{name: NUMBER for name in (
                    "producers", "requests_per_producer", "flips",
                    "atoms_per_flip", "epoch_after", "atoms_before",
                    "atoms_after", "wall_seconds", "served", "cache_hits",
                    "lost", "errors", "max_flip_seconds",
                    "live_epochs_after_drain")},
                "flip_seconds": {"type": "array", "items": NUMBER},
                "epochs_monotone_per_producer": BOOL,
                "accounting_balanced": BOOL,
                "contract_held": BOOL,
            },
        },
        "summary": {
            "type": "object",
            "required": [
                "warm_beats_cold", "hit_accounting_exact",
                "extension_contract_held", "violations",
            ],
            "properties": {
                "warm_beats_cold": BOOL,
                "hit_accounting_exact": BOOL,
                "extension_contract_held": BOOL,
                "violations": BOOL,
            },
        },
    },
}

TELEMETRY_SNAPSHOT = {
    "type": "object",
    "required": [
        "seq", "wall_ms", "submitted", "accepted", "served",
        "encode_failures", "shed", "discarded", "cache_hits", "queue_depth",
        "inflight", "busy_workers", "epoch", "live_epochs", "cache_entries",
        "cache_resident_bytes", "window_count", "window_p50", "window_p99",
        "cumulative_count", "cumulative_p50", "cumulative_p99", "residual",
    ],
    "properties": {name: NUMBER for name in (
        "seq", "wall_ms", "submitted", "accepted", "served",
        "encode_failures", "shed", "discarded", "cache_hits", "queue_depth",
        "inflight", "busy_workers", "epoch", "live_epochs", "cache_entries",
        "cache_resident_bytes", "window_count", "window_p50", "window_p99",
        "cumulative_count", "cumulative_p50", "cumulative_p99", "residual")},
}

TELEMETRY_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "benchmark", "mode", "units", "workload",
        "telemetry_pass", "summary",
    ],
    "properties": {
        "schema_version": NUMBER,
        "benchmark": STRING,
        "mode": STRING,
        "units": STRING,
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
        "telemetry_pass": {
            "type": "object",
            "required": [
                "config", "wall_seconds", "served", "cache_hits", "lost",
                "errors", "snapshotter_ok", "snapshot_count", "seq_monotone",
                "snapshots", "reconciliation", "epoch_flip", "overhead",
                "cache", "accounting_balanced", "contract_held",
            ],
            "properties": {
                "config": {
                    "type": "object",
                    "required": [
                        "requests", "offered_rps", "period_ms", "workers",
                        "max_batch", "queue_capacity", "cache_capacity",
                        "flip_at_request", "atoms_per_flip", "tolerance",
                        "snapshots_file",
                    ],
                    "properties": {
                        **{name: NUMBER for name in (
                            "requests", "offered_rps", "period_ms", "workers",
                            "max_batch", "queue_capacity", "cache_capacity",
                            "flip_at_request", "atoms_per_flip", "tolerance")},
                        "snapshots_file": STRING,
                    },
                },
                **{name: NUMBER for name in (
                    "wall_seconds", "served", "cache_hits", "lost", "errors",
                    "snapshot_count")},
                "snapshotter_ok": BOOL,
                "seq_monotone": BOOL,
                "snapshots": {"type": "array", "items": TELEMETRY_SNAPSHOT},
                "reconciliation": {
                    "type": "object",
                    "required": [
                        "tolerance", "max_abs_residual", "final_residual",
                        "ok",
                    ],
                    "properties": {
                        "tolerance": NUMBER,
                        "max_abs_residual": NUMBER,
                        "final_residual": NUMBER,
                        "ok": BOOL,
                    },
                },
                "epoch_flip": {
                    "type": "object",
                    "required": [
                        "epoch_after", "flip_wall_ms", "flip_seconds",
                        "pre_flip_snapshots", "post_flip_snapshots", "ok",
                    ],
                    "properties": {
                        **{name: NUMBER for name in (
                            "epoch_after", "flip_wall_ms", "flip_seconds",
                            "pre_flip_snapshots", "post_flip_snapshots")},
                        "ok": BOOL,
                    },
                },
                "overhead": {
                    "type": "object",
                    "required": [
                        "rounds", "requests_per_round", "median_ratio",
                        "floor", "ok",
                    ],
                    "properties": {
                        **{name: NUMBER for name in (
                            "rounds", "requests_per_round", "median_ratio",
                            "floor")},
                        "ok": BOOL,
                    },
                },
                "cache": {
                    "type": "object",
                    "required": [
                        "hits", "misses", "entries_at_drain",
                        "resident_bytes_at_drain",
                    ],
                    "properties": {name: NUMBER for name in (
                        "hits", "misses", "entries_at_drain",
                        "resident_bytes_at_drain")},
                },
                "accounting_balanced": BOOL,
                "contract_held": BOOL,
            },
        },
        "summary": {
            "type": "object",
            "required": [
                "snapshot_count", "reconciliation_ok", "epoch_flip_ok",
                "overhead_ok", "violations",
            ],
            "properties": {
                "snapshot_count": NUMBER,
                "reconciliation_ok": BOOL,
                "epoch_flip_ok": BOOL,
                "overhead_ok": BOOL,
                "violations": BOOL,
            },
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
    """The serving contract: nothing lost, books balance, batching pays,
    and the loopback wire sweep kept the daemon-side books exact."""
    summary = doc.get("summary", {})
    cases = doc.get("cases", [])
    if summary.get("cases") != len(cases):
        errors.append("summary.cases disagrees with len(cases)")
    if summary.get("total_lost") != 0:
        errors.append("summary.total_lost is nonzero: futures were lost")
    if not summary.get("all_futures_resolved", False):
        errors.append("summary.all_futures_resolved is false")
    if not summary.get("accounting_balanced", False):
        errors.append("summary.accounting_balanced is false")
    if not summary.get("batch_amortization_win", False):
        errors.append("summary.batch_amortization_win is false: micro-"
                      "batching did not beat the batch-size-1 configuration")
    if summary.get("batch_speedup", 0) <= 1.0:
        errors.append("summary.batch_speedup is not > 1")
    names = {c.get("name") for c in cases}
    for wanted in ("closed_batch1_w1", "closed_batch32_w1"):
        if wanted not in names:
            errors.append(f"amortization pair case '{wanted}' is missing")
    for i, case in enumerate(cases):
        counts = case.get("counts", {})
        if counts.get("lost") != 0:
            errors.append(f"cases[{i}]: counts.lost is nonzero")
        submitted = counts.get("submitted", 0)
        # cache_hits defaults to 0: the sweep cases run with the cache off,
        # and older artifacts predate the counter.
        refused = sum(counts.get(k, 0)
                      for k in ("accepted", "invalid", "rejected", "stopped",
                                "cache_hits"))
        if submitted != refused:
            errors.append(f"cases[{i}]: submitted != accepted + invalid + "
                          "rejected + stopped + cache_hits")
        accepted = counts.get("accepted", 0)
        settled = sum(counts.get(k, 0)
                      for k in ("served", "encode_failed", "shed", "discarded"))
        if accepted != settled:
            errors.append(f"cases[{i}]: accepted != served + encode_failed + "
                          "shed + discarded")
        if counts.get("columns_encoded") != (counts.get("served", 0)
                                             + counts.get("encode_failed", 0)):
            errors.append(f"cases[{i}]: columns_encoded != served + "
                          "encode_failed")
        if case.get("loop") == "open" and "offered_rps" not in case:
            errors.append(f"cases[{i}]: open-loop case lacks offered_rps")

    # The wire sweep: loopback-socket serving must lose nothing and the
    # daemon-side books must balance exactly (every frame refused at the
    # boundary or submitted; every received frame gets one reply attempt).
    wire = doc.get("wire", {})
    if not summary.get("wire_contract_held", False):
        errors.append("summary.wire_contract_held is false")
    for flag in ("zero_lost", "accounting_balanced", "contract_held"):
        if not wire.get(flag, False):
            errors.append(f"wire.{flag} is false")
    requests = wire.get("requests", 0)
    if wire.get("threads", 0) * wire.get("requests_per_thread", 0) != requests:
        errors.append("wire.requests != threads * requests_per_thread")
    for side in ("in_process", "wire"):
        result = wire.get(side, {})
        if result.get("served") != requests:
            errors.append(f"wire.{side}.served != wire.requests (a lost or "
                          "errored reply in the fastest pass)")
        if result.get("transport_errors") != 0:
            errors.append(f"wire.{side}.transport_errors is nonzero")
    daemon = wire.get("daemon_counts", {})
    if daemon.get("frames_received") != requests:
        errors.append("wire.daemon_counts.frames_received != wire.requests")
    if daemon.get("frames_received") != (daemon.get("invalid_payloads", 0)
                                         + daemon.get("submitted", 0)):
        errors.append("wire.daemon_counts: frames_received != "
                      "invalid_payloads + submitted")
    if (daemon.get("replies_sent", 0) + daemon.get("reply_write_failures", 0)
            != daemon.get("frames_received")):
        errors.append("wire.daemon_counts: replies_sent + "
                      "reply_write_failures != frames_received")
    if daemon.get("malformed_closes") != 0:
        errors.append("wire.daemon_counts.malformed_closes is nonzero under "
                      "a well-formed client")


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


def check_semantics_cache(doc, errors):
    """The cache contract: warm wins, hits are exactly accounted, and the
    epoch flips were zero-downtime (nothing lost, books balanced, old
    epochs reclaimed)."""
    sweep = doc.get("cache_sweep", {})
    ext = doc.get("extend_pass", {})
    summary = doc.get("summary", {})

    if summary.get("violations") is not False:
        errors.append("summary.violations is true: the bench recorded a "
                      "contract violation")
    if not sweep.get("warm_beats_cold", False):
        errors.append("cache_sweep.warm_beats_cold is false")
    if sweep.get("warm_speedup", 0) <= 1.0:
        errors.append("cache_sweep.warm_speedup is not > 1")
    if not sweep.get("hit_accounting_exact", False):
        errors.append("cache_sweep.hit_accounting_exact is false")
    if not sweep.get("accounting_balanced", False):
        errors.append("cache_sweep.accounting_balanced is false")

    cold = sweep.get("cold", {})
    warm = sweep.get("warm", {})
    requests = sweep.get("requests", 0)
    pool = sweep.get("pool_size", 0)
    if cold.get("hits") != 0:
        errors.append("cache_sweep.cold.hits is nonzero with the cache off")
    if warm.get("hits") != requests - pool:
        errors.append("cache_sweep.warm.hits != requests - pool_size (serial "
                      "round trips make this count exact)")
    if warm.get("hits", 0) + warm.get("misses", 0) != requests:
        errors.append("cache_sweep.warm: hits + misses != requests")
    ratio = warm.get("hit_ratio", -1)
    if not 0 < ratio <= 1:
        errors.append("cache_sweep.warm.hit_ratio is outside (0, 1]")
    expected = sweep.get("expected_warm_hit_ratio", 0)
    if abs(ratio - expected) > 1e-9:
        errors.append("cache_sweep.warm.hit_ratio disagrees with "
                      "expected_warm_hit_ratio")
    for side, name in ((cold, "cold"), (warm, "warm")):
        if side.get("lost") != 0:
            errors.append(f"cache_sweep.{name}.lost is nonzero")

    if ext.get("flips", 0) < 3:
        errors.append("extend_pass.flips < 3: not enough epoch flips to "
                      "exercise the zero-downtime path")
    if ext.get("epoch_after") != ext.get("flips"):
        errors.append("extend_pass.epoch_after != flips")
    if (ext.get("atoms_after") != ext.get("atoms_before", 0)
            + ext.get("flips", 0) * ext.get("atoms_per_flip", 0)):
        errors.append("extend_pass: atoms_after != atoms_before + "
                      "flips * atoms_per_flip")
    if ext.get("lost") != 0 or ext.get("errors") != 0:
        errors.append("extend_pass lost futures or saw encode errors")
    if not ext.get("epochs_monotone_per_producer", False):
        errors.append("extend_pass.epochs_monotone_per_producer is false")
    if ext.get("live_epochs_after_drain") != 1:
        errors.append("extend_pass.live_epochs_after_drain != 1: retired "
                      "epochs were not reclaimed")
    if not ext.get("accounting_balanced", False):
        errors.append("extend_pass.accounting_balanced is false")
    if not ext.get("contract_held", False):
        errors.append("extend_pass.contract_held is false")
    flip_seconds = ext.get("flip_seconds", [])
    if len(flip_seconds) != ext.get("flips", 0):
        errors.append("extend_pass.flip_seconds length != flips")
    for i, s in enumerate(flip_seconds):
        if not 0 < s <= 30:
            errors.append(f"extend_pass.flip_seconds[{i}] = {s} is outside "
                          "(0, 30] seconds — flips must be fast and nonzero")
    if flip_seconds and abs(ext.get("max_flip_seconds", 0)
                            - max(flip_seconds)) > 1e-12:
        errors.append("extend_pass.max_flip_seconds != max(flip_seconds)")


def check_semantics_telemetry(doc, errors):
    """The telemetry contract: enough snapshots, every snapshot reconciles
    against the serving identity within the embedded tolerance (the drained
    final one exactly), the mid-run epoch flip shows as a gauge step, and
    the snapshotter's overhead stays under the bench noise floor."""
    tele = doc.get("telemetry_pass", {})
    summary = doc.get("summary", {})
    snapshots = tele.get("snapshots", [])
    tolerance = tele.get("config", {}).get("tolerance", 0)

    if summary.get("violations") is not False:
        errors.append("summary.violations is true: the bench recorded a "
                      "contract violation")
    if tele.get("snapshot_count", 0) < 20:
        errors.append("telemetry_pass.snapshot_count < 20: too few snapshots "
                      "to call the stream live")
    if len(snapshots) != tele.get("snapshot_count"):
        errors.append("len(snapshots) != snapshot_count")
    if not tele.get("seq_monotone", False):
        errors.append("telemetry_pass.seq_monotone is false")
    if tele.get("lost") != 0 or tele.get("errors") != 0:
        errors.append("telemetry_pass lost futures or saw encode errors")
    if not tele.get("snapshotter_ok", False):
        errors.append("telemetry_pass.snapshotter_ok is false: the exporter "
                      "could not write its stream")
    if not tele.get("reconciliation", {}).get("ok", False):
        errors.append("reconciliation.ok is false")
    if tele.get("reconciliation", {}).get("final_residual") != 0:
        errors.append("reconciliation.final_residual != 0: the drained "
                      "server's books do not close")
    if not tele.get("epoch_flip", {}).get("ok", False):
        errors.append("epoch_flip.ok is false: the mid-run extension is not "
                      "visible as a serve.registry.epoch gauge step")
    overhead = tele.get("overhead", {})
    if not overhead.get("ok", False):
        errors.append("overhead.ok is false: the snapshotter cost more than "
                      "the bench noise floor")
    if overhead.get("median_ratio", 99) > overhead.get("floor", 0):
        errors.append("overhead.median_ratio exceeds overhead.floor")
    if not tele.get("accounting_balanced", False):
        errors.append("telemetry_pass.accounting_balanced is false")
    if not tele.get("contract_held", False):
        errors.append("telemetry_pass.contract_held is false")

    for i, snap in enumerate(snapshots):
        if snap.get("seq") != i:
            errors.append(f"snapshots[{i}].seq != {i}: not a contiguous "
                          "0-based sequence")
        expected = (snap.get("accepted", 0) - snap.get("served", 0)
                    - snap.get("encode_failures", 0) - snap.get("shed", 0)
                    - snap.get("discarded", 0))
        level = snap.get("queue_depth", 0) + snap.get("inflight", 0)
        if snap.get("residual") != level - expected:
            errors.append(f"snapshots[{i}].residual does not match its own "
                          "counters and gauges")
        if abs(snap.get("residual", 0)) > tolerance:
            errors.append(f"snapshots[{i}].residual exceeds the embedded "
                          f"tolerance {tolerance}")
        if i > 0 and snap.get("wall_ms", 0) < snapshots[i - 1].get("wall_ms", 0):
            errors.append(f"snapshots[{i}].wall_ms ran backwards")
    if snapshots:
        final = snapshots[-1]
        if final.get("queue_depth") != 0 or final.get("inflight") != 0:
            errors.append("final snapshot still has queued or in-flight "
                          "requests after the drain")
        if final.get("residual") != 0:
            errors.append("final snapshot residual is nonzero")
        epochs = [s.get("epoch", 0) for s in snapshots]
        if epochs[0] != 0 or epochs[-1] != 1 or any(
                b < a for a, b in zip(epochs, epochs[1:])):
            errors.append("serve.registry.epoch gauge is not a monotone "
                          "0 -> 1 step across the stream")


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
                         "BENCH_serve.json", "BENCH_cache.json",
                         "BENCH_telemetry.json"]
    ok = True
    for path in paths:
        name = Path(path).name
        if "gram_model" in name:
            ok &= run(path, GRAM_MODEL_SCHEMA, check_semantics_gram)
        elif "solvers" in name:
            ok &= run(path, SOLVERS_SCHEMA, check_semantics_solvers)
        elif "cache" in name:
            ok &= run(path, CACHE_SCHEMA, check_semantics_cache)
        elif "telemetry" in name:
            ok &= run(path, TELEMETRY_SCHEMA, check_semantics_telemetry)
        elif "serve" in name:
            ok &= run(path, SERVE_SCHEMA, check_semantics_serve)
        else:
            print(f"FAIL {path}: unknown artifact (expected "
                  "BENCH_gram_model.json, BENCH_solvers.json, "
                  "BENCH_serve.json, BENCH_cache.json, or "
                  "BENCH_telemetry.json)")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
