#!/usr/bin/env python3
"""Validate the observability artifacts of a traced simulation run.

Usage: check_observability.py [trace.json] [stats.json]

Checks that the trace is well-formed Chrome trace-event JSON and that
stats.json carries the required hierarchical keys with sane percentile
ordering, no dropped trace events, no checker violations and a COH
ledger that sums. Exits non-zero (with a message) on the first
violation; the ObservabilityCheck ctest runs it on the artifacts of
the ObservabilityRun ctest's traced fig10_profile run.
"""

import json
import sys


def fail(msg):
    print(f"check_observability: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)
    if not isinstance(events, list) or not events:
        fail(f"{path}: expected a non-empty event array")
    for ev in events:
        for key in ("name", "ph", "pid"):
            if key not in ev:
                fail(f"{path}: event missing '{key}': {ev}")
    phases = {ev["ph"] for ev in events}
    # A traced contended run always records critical sections
    # (duration slices) and instants, plus the metadata header.
    for ph in ("M", "B", "E", "i"):
        if ph not in phases:
            fail(f"{path}: no '{ph}' events (got {sorted(phases)})")
    print(f"{path}: OK ({len(events)} events)")


def check_stats(path):
    with open(path) as f:
        stats = json.load(f)
    required = [
        "system.net.packets_delivered",
        "system.net.packet_latency",
        "system.net.packet_latency_hist",
        "system.router0.sa_grants",
        "system.ni0.packets_injected",
        "system.lockmgr0.grants",
        "system.lockmgr0.handover_latency_hist",
        "system.thread0.acquisitions",
        "system.trace.emitted",
    ]
    missing = [k for k in required if k not in stats]
    if missing:
        fail(f"{path}: missing required keys {missing}")
    hist = stats["system.net.packet_latency_hist"]
    if not hist["p50"] <= hist["p95"] <= hist["p99"]:
        fail(f"{path}: packet-latency percentiles out of order: "
             f"{hist['p50']}/{hist['p95']}/{hist['p99']}")
    if hist["count"] <= 0:
        fail(f"{path}: packet-latency histogram is empty")
    # The trace ring silently overwrites its oldest events once full;
    # an artifact produced from a saturated ring is incomplete, so CI
    # must size the ring up (trace.capacity) rather than ship it.
    dropped = stats.get("system.trace.dropped", 0)
    if dropped > 0:
        fail(f"{path}: trace ring dropped {int(dropped)} events; "
             "the exported trace is incomplete (raise the ring "
             "capacity or narrow the traced categories)")
    # A checked run that recorded violations must never pass CI even
    # if a custom handler kept it alive to the export.
    violations = stats.get("system.check.violations", 0)
    if violations > 0:
        fail(f"{path}: {int(violations)} invariant-checker "
             "violations recorded")
    check_coh_ledger(path, stats)
    print(f"{path}: OK ({len(stats)} entries)")


COH_CAUSES = ["transfer", "arbitration", "backoff", "sleep",
              "grant_gap"]


def check_coh_ledger(path, stats):
    """COH-cause ledger (DESIGN.md §14): present under --coh-ledger.

    The cause split must cover the COH exactly — both the ledger's
    own summary and the per-thread counters it mirrors.
    """
    if "sim.coh.total_cycles" not in stats:
        return
    total = stats["sim.coh.total_cycles"]
    causes = {}
    for c in COH_CAUSES:
        key = f"sim.coh.cause.{c}"
        if key not in stats:
            fail(f"{path}: ledger present but '{key}' missing")
        causes[c] = stats[key]
        if causes[c] < 0:
            fail(f"{path}: {key} is negative ({causes[c]})")
    if sum(causes.values()) != total:
        fail(f"{path}: COH causes sum to {sum(causes.values())} but "
             f"sim.coh.total_cycles is {total}")

    # The per-thread mirror: Σ coh_*_cycles == Σ blocked_idle_cycles
    # == the ledger total (the causes are charged at the same
    # accounting sites that charge blocked-idle).
    thread_coh = 0.0
    thread_idle = 0.0
    for k, v in stats.items():
        if not k.startswith("system.thread"):
            continue
        if k.endswith(".blocked_idle_cycles"):
            thread_idle += v
        elif ".coh_" in k and k.endswith("_cycles"):
            thread_coh += v
    if thread_coh != thread_idle:
        fail(f"{path}: per-thread COH causes sum to {thread_coh} "
             f"but blocked-idle cycles sum to {thread_idle}")
    if thread_idle != total:
        fail(f"{path}: ledger total {total} != per-thread "
             f"blocked-idle total {thread_idle}")
    if stats.get("sim.coh.locks", 0) < 1 and total > 0:
        fail(f"{path}: {total} COH cycles attributed but no per-lock "
             "ledger entries")
    print(f"{path}: COH ledger OK ({int(total)} cycles over "
          f"{len(COH_CAUSES)} causes)")


def main(argv):
    trace = argv[1] if len(argv) > 1 else "trace.json"
    stats = argv[2] if len(argv) > 2 else "stats.json"
    check_trace(trace)
    check_stats(stats)
    print("observability artifacts OK")


if __name__ == "__main__":
    main(sys.argv)
