#!/bin/bash
# Regenerate every figure/table of the paper's evaluation.
#
# The sweep fans simulations out across a task pool (see DESIGN.md
# §9): each bench takes --jobs N and full 64-thread runs are memoized
# in ocor_results.tsv (build directory), so the 25-benchmark sweep is
# simulated only once even across benches. The journal is crash-safe
# (DESIGN.md §12): every flush renames a whole new file into place,
# so rerunning an interrupted sweep re-simulates only the runs stored
# since the bench's last flush.
#
# Usage: ./run_benches.sh [options] [extra bench flags...]
#   --jobs N          worker threads per bench (default: $OCOR_JOBS,
#                     else the machine's hardware concurrency)
#   --quick           forward --quick to every simulation bench
#                     (16 threads, short runs; CI smoke mode)
#   anything else is forwarded verbatim to every simulation bench
#   (e.g. --iters 8 --seed 3), after the curated per-bench flags so
#   user flags win. fig10_profile alone exports a trace and a run's
#   stats registry (--trace, --stats-json; DESIGN.md §10); in every
#   other bench --stats-json FILE dumps the sweep aggregates, with the
#   worker pool's figures as runner.pool.*.
#
# Per-bench and total wall-clock times are printed and written as
# machine-readable JSON to build/BENCH_sweep.json, together with a
# per-bench status ("ok", "degraded" for exit 75, when a run passed
# its --deadline, "failed").
#
# A failing benchmark no longer aborts the sweep: every bench runs,
# failures are summarized at the end, and the script exits 1 if any
# bench failed hard (or 75 if benches only degraded).
set -euo pipefail
SELF="$(readlink -f "$0")"
cd "$(dirname "$SELF")/build"

JOBS="${OCOR_JOBS:-$(nproc)}"
QUICK=0
EXTRA=()
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs) JOBS="$2"; shift 2 ;;
      --jobs=*) JOBS="${1#--jobs=}"; shift ;;
      --quick) QUICK=1; shift ;;
      -h|--help)
        # The comment block under the shebang line.
        awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' \
            "$SELF"
        exit 0 ;;
      *) EXTRA+=("$1"); shift ;;
    esac
done

SWEEP_JSON="BENCH_sweep.json"
ROWS=()
FAILED=()
DEGRADED=()

elapsed() { # elapsed <t0> <t1>
    awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'
}

run_bench() { # run_bench <label> <cmd...>
    local label="$1"
    shift
    echo
    echo "################ $label: $* ################"
    local t0 t1 dt status=0 verdict
    t0=$(date +%s.%N)
    "$@" || status=$?
    t1=$(date +%s.%N)
    dt=$(elapsed "$t0" "$t1")
    case "$status" in
      0)  verdict=ok ;;
      75) verdict=degraded
          DEGRADED+=("$label")
          echo "warning: $label completed degraded (exit 75)" >&2 ;;
      *)  verdict=failed
          FAILED+=("$label")
          echo "error: $label failed (exit $status): $*" >&2 ;;
    esac
    echo "### $label: ${dt}s ($verdict)"
    ROWS+=("    {\"name\": \"$label\", \"seconds\": $dt,"\
" \"status\": \"$verdict\", \"exit_code\": $status}")
}

sweep() {
    local sf=(--jobs "$JOBS")
    if [ "$QUICK" -eq 1 ]; then
        sf+=(--quick)
    fi
    run_bench fig02_criticality \
        ./bench/fig02_criticality "${sf[@]}" "${EXTRA[@]}"
    # fig05/fig08 are fixed single-scenario illustrations: no flags.
    run_bench fig05_scenarios ./bench/fig05_scenarios
    run_bench fig08_scheduling ./bench/fig08_scheduling
    run_bench fig10_profile \
        ./bench/fig10_profile "${sf[@]}" "${EXTRA[@]}"
    run_bench fig11_coh \
        ./bench/fig11_coh "${sf[@]}" "${EXTRA[@]}"
    run_bench fig12_characteristics \
        ./bench/fig12_characteristics "${sf[@]}" "${EXTRA[@]}"
    run_bench fig13_cs_time \
        ./bench/fig13_cs_time "${sf[@]}" "${EXTRA[@]}"
    run_bench fig14_roi \
        ./bench/fig14_roi "${sf[@]}" "${EXTRA[@]}"
    run_bench fig15_scalability \
        ./bench/fig15_scalability "${sf[@]}" --iters 4 "${EXTRA[@]}"
    run_bench fig16_levels \
        ./bench/fig16_levels "${sf[@]}" --quick --iters 3 --ablate \
        "${EXTRA[@]}"
    run_bench table3_summary \
        ./bench/table3_summary "${sf[@]}" "${EXTRA[@]}"
}

t0=$(date +%s.%N)
sweep
t1=$(date +%s.%N)
TOTAL_SECONDS=$(elapsed "$t0" "$t1")

{
    echo "{"
    echo "  \"jobs\": $JOBS,"
    if [ "$QUICK" -eq 1 ]; then
        echo "  \"quick\": true,"
    else
        echo "  \"quick\": false,"
    fi
    echo "  \"benches\": ["
    last=$((${#ROWS[@]} - 1))
    for i in "${!ROWS[@]}"; do
        if [ "$i" -lt "$last" ]; then
            echo "${ROWS[$i]},"
        else
            echo "${ROWS[$i]}"
        fi
    done
    echo "  ],"
    echo "  \"failed\": ${#FAILED[@]},"
    echo "  \"degraded\": ${#DEGRADED[@]},"
    echo "  \"total_seconds\": $TOTAL_SECONDS"
    echo "}"
} > "$SWEEP_JSON"

echo
echo "sweep finished in ${TOTAL_SECONDS}s" \
     "(jobs=$JOBS; timings: build/$SWEEP_JSON)"
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "failed benches: ${FAILED[*]}" >&2
    exit 1
fi
if [ "${#DEGRADED[@]}" -gt 0 ]; then
    echo "degraded benches: ${DEGRADED[*]}" >&2
    exit 75
fi
echo "all benchmarks completed cleanly"
