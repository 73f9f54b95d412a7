#!/usr/bin/env python3
"""Golden-digest gate: run every benchmark workload once and fail
unless each one reports "correct": true.

    python3 scripts/check_golden_digest.py

Each workload runs through perfbench/run.py at --seed 1 --seconds 0
--trace 0: one batch, simulation seed 1, so every run is compared
field-exact with perfbench/golden/digest.tsv and checked against the
harness's invariants. run.py itself exits 0 whatever the verdict, so
this script reads the verdict from the JSON result line. The workload
list comes from BENCHMARK.json. Exits 1 if any workload is not
correct.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(workload):
    """True when the workload's single batch ran and is correct."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return False
    try:
        return json.loads(lines[-1])["correct"] is True
    except (ValueError, KeyError):
        return False


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = []
    for workload in (w["name"] for w in spec["workloads"]):
        ok = verdict(workload)
        print(f"{workload}: {'correct' if ok else 'NOT CORRECT'}",
              flush=True)
        if not ok:
            failed.append(workload)
    if failed:
        print(f"golden digest gate failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
