#!/usr/bin/env python3
"""Paper gate: the 64-thread Fig. 11 headline over the committed seeds.

Usage: python3 scripts/paper_gate.py   (no options; needs a build of
       build/bench/fig11_coh)

For every seed in ci/paper_gate.json, runs `fig11_coh --fresh --seed S`
at the default 64 threads in a scratch directory and reads that run's
coh_summary.json. Prints each seed's values and the mean and min-max
of the four headline values (overall, PARSEC and OMP2012 COH
reduction, spin-win gain), prints the per-program reductions, and
writes every seed's summary to build/paper_gate.json. To regenerate
the baseline, copy that file over ci/paper_gate.json.

Exits 1 when fig11_coh exits non-zero, or when a headline mean falls
below the lowest committed per-seed value of that headline: the
tolerance is the committed seed spread. Per-program values are not
gated; single programs swing by up to 64 points across seeds 1-5.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(ROOT, "ci", "paper_gate.json")
MEASURED = os.path.join(ROOT, "build", "paper_gate.json")
FIG11 = os.path.join(ROOT, "build", "bench", "fig11_coh")

# coh_summary.json key -> printed label
HEADLINE = {
    "overall_mean": "overall",
    "parsec_mean": "PARSEC",
    "omp_mean": "OMP2012",
    "spin_win_gain_mean_pts": "spin-win gain (pts)",
}


def regressions(committed, measured):
    """The headline values whose mean over @measured's seeds falls
    below their lowest per-seed value in @committed. Both are
    {"seeds": {seed: coh_summary}} records."""
    out = []
    for key, label in HEADLINE.items():
        floor = min(s[key] for s in committed["seeds"].values())
        mean = statistics.fmean(s[key] for s in measured["seeds"].values())
        if mean < floor:
            out.append(f"{label}: mean {mean:.2f} is below the lowest "
                       f"committed seed, {floor:.2f}")
    return out


def run_seed(seed):
    """fig11_coh's coh_summary.json for @seed, or None when it
    failed."""
    with tempfile.TemporaryDirectory() as cwd:
        t0 = time.monotonic()
        proc = subprocess.run([FIG11, "--fresh", "--seed", str(seed)],
                              cwd=cwd, stdout=subprocess.DEVNULL)
        print(f"seed {seed}: fig11_coh exited {proc.returncode} after "
              f"{time.monotonic() - t0:.0f} s", flush=True)
        if proc.returncode != 0:
            return None
        with open(os.path.join(cwd, "coh_summary.json")) as f:
            return json.load(f)


def report(measured):
    seeds = measured["seeds"]
    print(f"{'seed':<8}" + "".join(f"{h:>21}" for h in HEADLINE.values()))
    for seed, s in seeds.items():
        print(f"{seed:<8}" + "".join(f"{s[k]:>21.1f}" for k in HEADLINE))
    for name, fn in (("mean", statistics.fmean), ("min", min),
                     ("max", max)):
        print(f"{name:<8}" + "".join(
            f"{fn(s[k] for s in seeds.values()):>21.1f}"
            for k in HEADLINE))
    print("\nCOH reduction per program (%), not gated:")
    print(f"{'program':<8}" + "".join(f"{seed:>7}" for seed in seeds))
    for prog in next(iter(seeds.values()))["programs"]:
        print(f"{prog:<8}" + "".join(
            f"{s['programs'][prog]:>7.1f}" for s in seeds.values()))


def main():
    with open(COMMITTED) as f:
        committed = json.load(f)
    measured = {"seeds": {}}
    for seed in committed["seeds"]:
        summary = run_seed(seed)
        if summary is None:
            return 1
        measured["seeds"][seed] = summary
    with open(MEASURED, "w") as f:
        json.dump(measured, f, indent=2)
        f.write("\n")

    report(measured)
    failed = regressions(committed, measured)
    for r in failed:
        print(f"REGRESSION: {r}")
    print(f"paper gate: {'FAILED' if failed else 'OK'} "
          f"({len(measured['seeds'])} seeds; written to {MEASURED})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
