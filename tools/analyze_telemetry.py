#!/usr/bin/env python3
"""Analyzer / CI gate for the live-serving telemetry stream.

Dependency-free (stdlib json only). Reads a raw .jsonl stream as written by
util::TelemetrySnapshotter (one insertion-ordered record {seq, wall_ms,
counters, gauges, window_quantiles} per line), e.g. the file passed to
`extdict_cli serve --telemetry` or `extdict_cli daemon --telemetry`.

Default mode prints a human timeline: one row per snapshot with the gauge
levels, the windowed/cumulative latency quantiles, and the reconciliation
residual, plus a closing summary.

--check mode is the CI gate. It fails (exit 1) when

  * seq is not a contiguous 0-based sequence or wall_ms runs backwards,
  * any snapshot's reconciliation residual — (queue_depth + inflight)
    minus (accepted - served - encode_failures - shed - discarded) —
    exceeds --tolerance (default 12),
  * the final snapshot of a drained stream is not exact (residual 0,
    queue_depth 0, inflight 0); pass --allow-live-tail for streams cut
    mid-load,
  * the serve.registry.epoch gauge ever decreases, or
  * on stationary segments (no epoch flip since the previous snapshot,
    window and cumulative counts both >= 50) the windowed p50 drifts more
    than a factor of 4 from the cumulative p50 — the windowed view must
    describe the same workload the cumulative view does, up to the
    histogram's log-bucket resolution and genuine load shifts.

Usage:
    tools/analyze_telemetry.py out/telemetry.jsonl
    tools/analyze_telemetry.py --check out/telemetry.jsonl
    tools/analyze_telemetry.py --check --tolerance 16 out/telemetry.jsonl
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WINDOW_HIST = "serve.latency.total_seconds"
DEFAULT_TOLERANCE = 12
QUANTILE_DRIFT_FACTOR = 4.0
STATIONARY_MIN_COUNT = 50


def flatten_record(record):
    """Normalizes a raw snapshotter JSONL record to one flat row."""
    counters = record.get("counters", {})
    gauges = record.get("gauges", {})
    window = record.get("window_quantiles", {}).get(WINDOW_HIST, {})
    row = {
        "seq": record.get("seq"),
        "wall_ms": record.get("wall_ms"),
        "submitted": counters.get("serve.submitted", 0),
        "accepted": counters.get("serve.accepted", 0),
        "served": counters.get("serve.served", 0),
        "encode_failures": counters.get("serve.encode_failures", 0),
        "shed": counters.get("serve.shed", 0),
        "discarded": counters.get("serve.discarded", 0),
        "cache_hits": counters.get("serve.cache_hits", 0),
        "queue_depth": gauges.get("serve.queue.depth", 0),
        "inflight": gauges.get("serve.inflight", 0),
        "busy_workers": gauges.get("serve.workers.busy", 0),
        "epoch": gauges.get("serve.registry.epoch", 0),
        "live_epochs": gauges.get("serve.registry.live_epochs", 0),
        "cache_entries": gauges.get("serve.cache.entries", 0),
        "cache_resident_bytes": gauges.get("serve.cache.resident_bytes", 0),
        "window_count": window.get("count", 0),
        "window_p50": window.get("p50", 0.0),
        "window_p99": window.get("p99", 0.0),
        "cumulative_count": window.get("cumulative_count", 0),
        "cumulative_p50": window.get("cumulative_p50", 0.0),
        "cumulative_p99": window.get("cumulative_p99", 0.0),
    }
    row["residual"] = residual_of(row)
    return row


def residual_of(row):
    expected = (row.get("accepted", 0) - row.get("served", 0)
                - row.get("encode_failures", 0) - row.get("shed", 0)
                - row.get("discarded", 0))
    return row.get("queue_depth", 0) + row.get("inflight", 0) - expected


def load(path):
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(flatten_record(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not a JSON record: {exc}")
    return rows


def check(rows, tolerance, allow_live_tail):
    errors = []
    if len(rows) < 1:
        return ["no snapshots in the stream"]
    for i, row in enumerate(rows):
        if row.get("seq") != i:
            errors.append(f"snapshot {i}: seq {row.get('seq')} breaks the "
                          "contiguous 0-based sequence")
        if i > 0 and row.get("wall_ms", 0) < rows[i - 1].get("wall_ms", 0):
            errors.append(f"snapshot {i}: wall_ms runs backwards")
        res = row["residual"]
        if abs(res) > tolerance:
            errors.append(f"snapshot {i}: residual {res} exceeds tolerance "
                          f"{tolerance} — gauges do not reconcile with the "
                          "monotone counters")
        if i > 0 and row.get("epoch", 0) < rows[i - 1].get("epoch", 0):
            errors.append(f"snapshot {i}: serve.registry.epoch decreased")
        # Windowed-vs-cumulative sanity on stationary, well-populated
        # segments only: a flip boundary or a thin window may legitimately
        # diverge.
        stationary = i > 0 and row.get("epoch") == rows[i - 1].get("epoch")
        if (stationary
                and row.get("window_count", 0) >= STATIONARY_MIN_COUNT
                and row.get("cumulative_count", 0) >= STATIONARY_MIN_COUNT
                and row.get("window_p50", 0) > 0
                and row.get("cumulative_p50", 0) > 0):
            ratio = row["window_p50"] / row["cumulative_p50"]
            if not (1.0 / QUANTILE_DRIFT_FACTOR
                    <= ratio <= QUANTILE_DRIFT_FACTOR):
                errors.append(
                    f"snapshot {i}: windowed p50 {row['window_p50']:.3g}s is "
                    f"{ratio:.2f}x the cumulative p50 "
                    f"{row['cumulative_p50']:.3g}s on a stationary segment "
                    f"(allowed factor {QUANTILE_DRIFT_FACTOR})")
    if not allow_live_tail:
        final = rows[-1]
        if final.get("queue_depth", 0) != 0 or final.get("inflight", 0) != 0:
            errors.append("final snapshot still has queued or in-flight "
                          "requests — stream did not end drained "
                          "(--allow-live-tail to accept)")
        if final["residual"] != 0:
            errors.append("final snapshot residual is nonzero — a drained "
                          "server's books must close exactly")
    return errors


def print_timeline(rows):
    header = (f"{'seq':>4} {'wall_ms':>9} {'depth':>5} {'infl':>4} "
              f"{'busy':>4} {'epoch':>5} {'entries':>7} {'kbytes':>7} "
              f"{'win_n':>6} {'win_p50':>9} {'win_p99':>9} {'resid':>5}")
    print(header)
    for row in rows:
        print(f"{row.get('seq', -1):>4} {row.get('wall_ms', 0):>9.1f} "
              f"{row.get('queue_depth', 0):>5} {row.get('inflight', 0):>4} "
              f"{row.get('busy_workers', 0):>4} {row.get('epoch', 0):>5} "
              f"{row.get('cache_entries', 0):>7} "
              f"{row.get('cache_resident_bytes', 0) / 1024:>7.1f} "
              f"{row.get('window_count', 0):>6} "
              f"{row.get('window_p50', 0) * 1e6:>8.1f}u "
              f"{row.get('window_p99', 0) * 1e6:>8.1f}u "
              f"{row['residual']:>5}")
    flips = sum(1 for a, b in zip(rows, rows[1:])
                if b.get("epoch", 0) > a.get("epoch", 0))
    span_ms = rows[-1].get("wall_ms", 0) - rows[0].get("wall_ms", 0)
    worst = max((abs(row["residual"]) for row in rows), default=0)
    print(f"\n{len(rows)} snapshots over {span_ms:.0f} ms, "
          f"{flips} epoch flip(s), max |residual| {worst}")


def main(argv):
    check_mode = False
    allow_live_tail = False
    tolerance = DEFAULT_TOLERANCE
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--check":
            check_mode = True
        elif arg == "--allow-live-tail":
            allow_live_tail = True
        elif arg == "--tolerance":
            i += 1
            if i >= len(argv):
                print("error: --tolerance needs a value", file=sys.stderr)
                return 2
            tolerance = int(argv[i])
        else:
            paths.append(arg)
        i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    ok = True
    for path in paths:
        try:
            rows = load(path)
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            ok = False
            continue
        if check_mode:
            errors = check(rows, tolerance, allow_live_tail)
            for message in errors:
                print(f"FAIL {path}: {message}")
            if not errors:
                print(f"ok   {path}: {len(rows)} snapshots reconcile "
                      f"(tolerance {tolerance})")
            ok &= not errors
        else:
            print(f"== {path} (tolerance {tolerance})")
            print_timeline(rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
