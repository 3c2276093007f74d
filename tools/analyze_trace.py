#!/usr/bin/env python3
"""Validate and analyze ExtDict Chrome trace-event JSON (util::TraceRecorder).

Usage:
    tools/analyze_trace.py [--check] [--allow-dropped] TRACE.json

Modes:
    --check           validate only (structure, B/E nesting, drop accounting)
                      and print a one-line verdict; this is what CI runs.
    (default)         validate, then reconstruct per-rank compute /
                      communication / wait attribution, load imbalance, and
                      the per-iteration critical path of the Gram update
                      phases, comparing measured words-on-critical-path with
                      the min(M, L) term of the paper's Eq. (2).

Options:
    --allow-dropped   tolerate a non-zero dropped_events count (the default
                      treats any drop as a failure — a truncated ring means
                      the timeline silently lies).

Exit codes: 0 valid, 1 malformed trace or failed invariant, 2 usage error.

The trace layout (src/util/trace.hpp): pid = emulated rank (HOST_PID for
untagged host threads), tid = ring-buffer registration index, ts in
microseconds. Waiting is recorded inside comm.recv / comm.barrier slices
(the receive scope opens before the blocking mailbox pop).

Serving-layer traces (src/serve/; e.g. the traced batch-32 pass of
bench/run_server_bench --trace) have no rank lanes at all — worker threads stay on HOST_PID. For those, analysis reports
the serve.batch.* family instead: batches formed, columns per batch, and
queue-wait vs encode-time attribution from the span args. Per-request
serve.request.{submit,cache_hit,enqueue,dequeue,shed,resolve} instants,
correlated by their "req" id arg, are stitched into request waterfalls:
both modes replay every request's lifecycle (a resolve before its submit,
a duplicate stage, or a dequeue without an enqueue is malformed), and
analysis mode prints queue-wait/service attribution plus the slowest
request's timeline. Requests that arrived over the TCP daemon additionally
carry net.request.{accept,reply} instants (src/net/daemon.cpp) with the
same "req" id; those join the waterfall as its wire-side bookends (accept
after submit, reply after resolve) and analysis reports the daemon's
reply-writer lag.
"""

import json
import sys

# Mirrors util::TraceRecorder::kHostPid.
HOST_PID = 1 << 20

VALID_PHASES = {"B", "E", "i", "C", "M"}

# Slice names whose whole duration is communication, and the subset that is
# blocking wait. Everything else inside a rank lane counts as compute.
COMM_PREFIX = "comm."
WAIT_NAMES = {"comm.recv", "comm.barrier"}

# Phase spans carrying an "iteration" arg whose cross-rank envelope is the
# per-iteration critical path.
ITERATION_SPANS = (
    "dist_gram.update",
    "dist_gram.normalize",
    "lasso.iteration",
    "power_method.iteration",
)


class MalformedTrace(Exception):
    pass


def fail(message):
    raise MalformedTrace(message)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {path}: {err}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if not isinstance(doc.get("traceEvents"), list):
        fail("missing traceEvents array")
    return doc


def validate_events(doc):
    """Structural checks plus per-lane B/E stack replay.

    Returns ({(pid, tid): [span, ...]}, [instant, ...]) where each span is a
    dict with name/start/end/depth/args in start order per lane, and each
    instant (phase "i") is a dict with name/ts/args in emission order.
    """
    stacks = {}  # (pid, tid) -> [open span]
    spans = {}  # (pid, tid) -> [closed span]
    instants = []
    recorded = 0
    for index, event in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            fail(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            fail(f"{where}: bad ph {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            fail(f"{where}: bad name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(f"{where}: bad {key}")
        if phase == "M":
            continue
        recorded += 1
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{where}: bad ts")
        args = event.get("args", {})
        if not isinstance(args, dict):
            fail(f"{where}: bad args")
        lane = (event["pid"], event["tid"])
        if phase == "i":
            instants.append({"name": event["name"], "ts": ts,
                             "args": dict(args)})
        if phase == "B":
            stack = stacks.setdefault(lane, [])
            stack.append(
                {
                    "name": event["name"],
                    "start": ts,
                    "end": None,
                    "depth": len(stack),
                    "args": dict(args),
                }
            )
        elif phase == "E":
            stack = stacks.get(lane, [])
            if not stack:
                fail(f"{where}: E {event['name']!r} with no open span on "
                     f"lane pid={lane[0]} tid={lane[1]}")
            top = stack.pop()
            if top["name"] != event["name"]:
                fail(f"{where}: E {event['name']!r} closes open span "
                     f"{top['name']!r} on lane pid={lane[0]} tid={lane[1]}")
            if ts < top["start"]:
                fail(f"{where}: span {event['name']!r} ends before it begins")
            top["end"] = ts
            top["args"].update(args)
            spans.setdefault(lane, []).append(top)
    for lane, stack in stacks.items():
        if stack:
            names = ", ".join(s["name"] for s in stack)
            fail(f"unclosed span(s) on lane pid={lane[0]} tid={lane[1]}: "
                 f"{names}")

    other = doc.get("otherData", {})
    if isinstance(other, dict) and "recorded_events" in other:
        if other["recorded_events"] != recorded:
            fail(f"otherData.recorded_events={other['recorded_events']} but "
                 f"{recorded} events emitted")
    for lane_spans in spans.values():
        lane_spans.sort(key=lambda s: s["start"])
    return spans, instants


def check_drops(doc, allow_dropped):
    other = doc.get("otherData", {})
    dropped = other.get("dropped_events", 0) if isinstance(other, dict) else 0
    if not isinstance(dropped, int):
        fail("otherData.dropped_events is not an integer")
    if dropped and not allow_dropped:
        fail(f"{dropped} events dropped (ring overflow) — the timeline is "
             "incomplete; rerun with a larger capacity or pass "
             "--allow-dropped to analyze anyway")
    return dropped


def merged_length(intervals):
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def rank_attribution(spans):
    """Per-rank compute/comm/wait seconds from the union of lane intervals."""
    ranks = {}
    for (pid, _tid), lane_spans in spans.items():
        if pid == HOST_PID:
            continue
        rank = ranks.setdefault(
            pid, {"total": [], "comm": [], "wait": [], "events": 0}
        )
        rank["events"] += 2 * len(lane_spans)
        for span in lane_spans:
            interval = (span["start"], span["end"])
            if span["depth"] == 0:
                rank["total"].append(interval)
            if span["name"].startswith(COMM_PREFIX):
                rank["comm"].append(interval)
            if span["name"] in WAIT_NAMES:
                rank["wait"].append(interval)
    result = {}
    for pid, rank in sorted(ranks.items()):
        total = merged_length(rank["total"])
        comm = merged_length(rank["comm"])
        wait = merged_length(rank["wait"])
        result[pid] = {
            "total_us": total,
            "comm_us": comm,
            "wait_us": wait,
            "compute_us": max(0.0, total - comm),
        }
    return result


def serve_attribution(spans):
    """Micro-batch scheduler summary from serve.batch.* spans (any lane,
    including HOST_PID — serving workers are not rank-tagged). Returns True
    when the trace contains the family."""
    batches = 0
    columns = []
    encode_us = 0.0
    collect_us = 0.0
    queue_us = 0
    for lane_spans in spans.values():
        for span in lane_spans:
            if span["name"] == "serve.batch.encode":
                batches += 1
                columns.append(span["args"].get("columns", 0))
                encode_us += span["end"] - span["start"]
                queue_us += span["args"].get("queue_us", 0)
            elif span["name"] == "serve.batch.collect":
                collect_us += span["end"] - span["start"]
    if batches == 0:
        return False
    total_columns = sum(columns)
    mean_columns = total_columns / batches
    print(f"\nserve.batch.*: {batches} batch(es), {total_columns} column(s) "
          f"(mean {mean_columns:.1f}/batch, max {max(columns)})")
    print(f"  encode wall {encode_us / 1e3:.3f} ms, collect wall "
          f"{collect_us / 1e3:.3f} ms, summed per-request queue wait "
          f"{queue_us / 1e3:.3f} ms")
    if encode_us > 0:
        print(f"  queue-wait / encode-wall ratio: {queue_us / encode_us:.2f} "
              "(large values mean requests spend far longer queued than "
              "being encoded — add workers or shrink the flush window)")
    return True


# Per-request lifecycle instants emitted by src/serve/server.cpp, keyed by
# the "req" arg (the server-assigned request id). A request's waterfall is
# submit -> (cache_hit | enqueue -> (dequeue -> resolve | shed)); a request
# discarded by stop() legitimately ends at enqueue.
REQUEST_STAGES = ("submit", "cache_hit", "enqueue", "dequeue", "shed",
                  "resolve")
REQUEST_PREFIX = "serve.request."

# Wire-side instants emitted by src/net/daemon.cpp, joined to the serve
# lifecycle by the same server-assigned "req" id (it travels through the
# daemon's pending-reply queue). `accept` fires right after the frame is
# handed to ExtDictServer::submit; `reply` fires after the encoded reply is
# written back to the socket — so submit <= accept and resolve <= reply on
# the shared steady clock. They are stored as "net.accept" / "net.reply"
# stages alongside the serve stages of the same request.
NET_STAGES = ("accept", "reply")
NET_PREFIX = "net.request."


def request_waterfalls(instants):
    """Groups serve.request.* instants by request id and replays each
    request's lifecycle, failing on impossible orderings or duplicate
    stages. Returns {req_id: {stage: ts}} (empty when the trace carries no
    request instants)."""
    requests = {}
    for instant in instants:
        name = instant["name"]
        if name.startswith(REQUEST_PREFIX):
            stage = name[len(REQUEST_PREFIX):]
            if stage not in REQUEST_STAGES:
                fail(f"unknown request lifecycle instant {name!r}")
        elif name.startswith(NET_PREFIX):
            net_stage = name[len(NET_PREFIX):]
            if net_stage not in NET_STAGES:
                fail(f"unknown wire lifecycle instant {name!r}")
            stage = "net." + net_stage
        else:
            continue
        if "req" not in instant["args"]:
            fail(f"{name} instant lacks the 'req' arg")
        req = instant["args"]["req"]
        stages = requests.setdefault(req, {})
        if stage in stages:
            fail(f"request {req}: duplicate {stage} instant")
        stages[stage] = instant["ts"]
    for req, stages in requests.items():
        if "submit" not in stages:
            fail(f"request {req}: lifecycle instants without a submit")
        if "cache_hit" in stages and "enqueue" in stages:
            fail(f"request {req}: both cache_hit and enqueue recorded")
        # Timestamps come from one steady clock, so cross-thread ordering
        # is meaningful; equal stamps are fine at microsecond resolution.
        order = [stages["submit"]]
        for stage in ("enqueue", "dequeue", "resolve"):
            if stage in stages:
                order.append(stages[stage])
        if any(b < a for a, b in zip(order, order[1:])):
            fail(f"request {req}: lifecycle ran backwards "
                 f"(submit/enqueue/dequeue/resolve = {order})")
        if "shed" in stages and stages["shed"] < stages["submit"]:
            fail(f"request {req}: shed before submit")
        if "dequeue" in stages and "enqueue" not in stages:
            fail(f"request {req}: dequeued but never enqueued")
        if "net.reply" in stages and "net.accept" not in stages:
            fail(f"request {req}: wire reply without a wire accept")
        if "net.accept" in stages:
            if stages["net.accept"] < stages["submit"]:
                fail(f"request {req}: wire accept before submit")
            if ("net.reply" in stages
                    and stages["net.reply"] < stages["net.accept"]):
                fail(f"request {req}: wire reply before wire accept")
            if ("net.reply" in stages and "resolve" in stages
                    and stages["net.reply"] < stages["resolve"]):
                fail(f"request {req}: wire reply before resolve")
    return requests


def print_waterfalls(requests):
    complete = {req: s for req, s in requests.items()
                if "dequeue" in s and "resolve" in s}
    hits = sum(1 for s in requests.values() if "cache_hit" in s)
    shed = sum(1 for s in requests.values() if "shed" in s)
    print(f"\nserve.request.* waterfalls: {len(requests)} request(s) "
          f"({len(complete)} full queue->resolve, {hits} cache hit(s), "
          f"{shed} shed)")
    if not complete:
        return
    queue_waits = [s["dequeue"] - s["enqueue"] for s in complete.values()]
    services = [s["resolve"] - s["dequeue"] for s in complete.values()]
    totals = {req: s["resolve"] - s["submit"] for req, s in complete.items()}
    print(f"  queue wait mean {sum(queue_waits) / len(queue_waits):.1f} us, "
          f"max {max(queue_waits):.1f} us; dequeue->resolve mean "
          f"{sum(services) / len(services):.1f} us")
    worst = max(totals, key=totals.get)
    stages = complete[worst]
    t0 = stages["submit"]
    steps = " -> ".join(
        f"{stage} +{stages[stage] - t0:.1f}us"
        for stage in ("enqueue", "dequeue", "resolve", "net.reply")
        if stage in stages)
    print(f"  slowest request {worst}: submit +0.0us -> {steps}")

    wired = {req: s for req, s in requests.items()
             if "net.accept" in s and "net.reply" in s}
    if wired:
        round_trips = [s["net.reply"] - s["net.accept"]
                       for s in wired.values()]
        lags = [s["net.reply"] - s["resolve"] for s in wired.values()
                if "resolve" in s]
        line = (f"  wire: {len(wired)} request(s) via net.request.*, "
                f"accept->reply mean "
                f"{sum(round_trips) / len(round_trips):.1f} us")
        if lags:
            line += (f", resolve->reply (reply-writer lag) mean "
                     f"{sum(lags) / len(lags):.1f} us")
        print(line)


def iteration_groups(spans, name):
    """Cross-rank groups of `name` spans: same iteration arg, overlapping in
    time (successive runs of the same workload are far apart, so a group is
    exactly one iteration of one run across all its ranks)."""
    per_iteration = {}
    for (pid, _tid), lane_spans in spans.items():
        if pid == HOST_PID:
            continue
        for span in lane_spans:
            if span["name"] == name and "iteration" in span["args"]:
                per_iteration.setdefault(span["args"]["iteration"], []).append(
                    (pid, span)
                )
    groups = []
    for iteration, members in sorted(per_iteration.items()):
        members.sort(key=lambda item: item[1]["start"])
        current, current_end = [], None
        for pid, span in members:
            if current and span["start"] > current_end:
                groups.append((iteration, current))
                current, current_end = [], None
            current.append((pid, span))
            end = span["end"]
            current_end = end if current_end is None else max(current_end, end)
        if current:
            groups.append((iteration, current))
    return groups


def span_comm_words(lane_spans, outer):
    """Words moved by comm spans nested inside `outer` on the same lane."""
    words = 0
    for span in lane_spans:
        if (
            span["name"].startswith(COMM_PREFIX)
            and span["start"] >= outer["start"]
            and span["end"] <= outer["end"]
            and span["depth"] == outer["depth"] + 1
        ):
            words += span["args"].get("words", 0)
    return words


def analyze(doc, spans, requests):
    other = doc.get("otherData", {})
    model = other.get("model", {}) if isinstance(other, dict) else {}

    ranks = rank_attribution(spans)
    if ranks:
        expected_p = model.get("p")
        if isinstance(expected_p, int) and len(ranks) < expected_p:
            fail(f"model says p={expected_p} ranks but only {len(ranks)} rank "
                 "lanes traced")

        print(f"ranks: {len(ranks)}"
              + (f" (model p={expected_p})" if expected_p else ""))
        print(f"{'rank':>6} {'total ms':>10} {'compute ms':>11} {'comm ms':>9} "
              f"{'wait ms':>9} {'comm %':>7}")
        computes = []
        for pid, att in ranks.items():
            computes.append(att["compute_us"])
            share = (100.0 * att["comm_us"] / att["total_us"]
                     if att["total_us"] else 0.0)
            print(f"{pid:>6} {att['total_us'] / 1e3:>10.3f} "
                  f"{att['compute_us'] / 1e3:>11.3f} "
                  f"{att['comm_us'] / 1e3:>9.3f} "
                  f"{att['wait_us'] / 1e3:>9.3f} {share:>6.1f}%")
        mean_compute = sum(computes) / len(computes)
        imbalance = max(computes) / mean_compute if mean_compute > 0 else 1.0
        print(f"load imbalance (max/mean compute): {imbalance:.3f}")

    served = serve_attribution(spans)
    if not ranks and not served:
        fail("no rank lanes and no serve.batch.* spans in trace (nothing ran "
             "under dist::Cluster or serve::ExtDictServer?)")
    if requests:
        print_waterfalls(requests)

    min_m_l = model.get("min_m_l")
    for name in ITERATION_SPANS:
        groups = iteration_groups(spans, name)
        if not groups:
            continue
        print(f"\n{name}: {len(groups)} iteration group(s)")
        for iteration, members in groups:
            start = min(span["start"] for _pid, span in members)
            end = max(span["end"] for _pid, span in members)
            straggler_pid, straggler = max(
                members, key=lambda item: item[1]["end"]
            )
            lane_spans = next(
                lane
                for (pid, _tid), lane in spans.items()
                if pid == straggler_pid and straggler in lane
            )
            words = span_comm_words(lane_spans, straggler)
            line = (f"  it {iteration}: wall {(end - start) / 1e3:.3f} ms "
                    f"across {len(members)} rank(s), straggler rank "
                    f"{straggler_pid}, critical-path comm {words} words")
            if words and isinstance(min_m_l, int) and min_m_l > 0:
                line += (f" = {words / min_m_l:.2f} x min(M, L)"
                         f" [min(M, L) = {min_m_l}]")
            print(line)

    dropped = other.get("dropped_events", 0) if isinstance(other, dict) else 0
    print(f"\nrecorded {other.get('recorded_events', '?')} events, "
          f"{dropped} dropped")
    return 0


def main(argv):
    check_only = False
    allow_dropped = False
    paths = []
    for arg in argv[1:]:
        if arg == "--check":
            check_only = True
        elif arg == "--allow-dropped":
            allow_dropped = True
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        doc = load(paths[0])
        spans, instants = validate_events(doc)
        requests = request_waterfalls(instants)
        check_drops(doc, allow_dropped)
        if check_only:
            events = sum(2 * len(s) for s in spans.values())
            print(f"{paths[0]}: OK ({events}+ events, "
                  f"{len(spans)} lanes, nesting balanced, "
                  f"{len(requests)} request waterfall(s), no drops)")
            return 0
        return analyze(doc, spans, requests)
    except MalformedTrace as err:
        print(f"{paths[0]}: MALFORMED: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
