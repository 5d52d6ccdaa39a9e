#!/bin/sh
# Reproduces everything: build, full test suite, every table/figure
# harness, and the examples.  Outputs are written to results/.
#
# Usage: scripts/reproduce_all.sh [build-dir]
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== configure & build =="
cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

mkdir -p results

echo "== tests =="
ctest --test-dir "$BUILD" 2>&1 | tee results/test_output.txt

JOBS="$(nproc 2>/dev/null || echo 1)"

echo "== tables & figures =="
# Every figure/table renders through the one registry-driven pipeline
# entry point; results are bitwise independent of the job count, so
# parallelism is free here.  `mbias fig <id>` renders a single figure.
start="$(date +%s.%N)"
"$BUILD"/tools/mbias all --jobs "$JOBS" 2>&1 \
    | tee results/bench_output.txt
end="$(date +%s.%N)"
ALL_SECONDS="$(echo "$end $start" | awk '{print $1-$2}')"

# The campaign-heavy figures print their merged execution metrics
# (cache hits, queue waits, task latencies) as one `[metrics] {...}`
# line each; lift those out of the transcript, keyed by the section
# headers `mbias all` prints between figures.
awk -v jobs="$JOBS" -v wall="$ALL_SECONDS" '
    /^---- .* ----$/ { section = $2; next }
    /^\[metrics\] /  { sub(/^\[metrics\] /, "");
                       metrics[section] = $0;
                       if (!(section in seen)) { order[++n] = section;
                                                 seen[section] = 1 } }
    END {
        printf "{\n  \"jobs\": %s,\n  \"all_wall_seconds\": %s,\n", \
               jobs, wall
        printf "  \"figures\": [\n"
        for (i = 1; i <= n; i++)
            printf "    {\"figure\": \"%s\", \"metrics\": %s}%s\n", \
                   order[i], metrics[order[i]], i < n ? "," : ""
        printf "  ]\n}\n"
    }' results/bench_output.txt > results/BENCH_campaign.json
echo "campaign harness timings: results/BENCH_campaign.json"

echo "== microbenchmarks =="
# Prints progress on stderr and one JSON document on stdout: the
# interpreter-tier throughput matrix.
"$BUILD"/bench/microbench_sim_throughput --jobs "$JOBS" \
    2>&1 >results/BENCH_sim.json | tee -a results/bench_output.txt
echo "sim throughput: results/BENCH_sim.json" \
    | tee -a results/bench_output.txt
# Same shape for the stats engine: store-read and bootstrap
# throughput, serial reference vs fast arms, bitwise-checked.
"$BUILD"/bench/microbench_stats_throughput --jobs "$JOBS" \
    2>&1 >results/BENCH_stats.json | tee -a results/bench_output.txt
echo "stats throughput: results/BENCH_stats.json" \
    | tee -a results/bench_output.txt

echo "== examples =="
: > results/examples_output.txt
for e in "$BUILD"/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] || continue
    echo "---- $(basename "$e") ----" | tee -a results/examples_output.txt
    "$e" 2>&1 | tee -a results/examples_output.txt
done

echo "All outputs are in results/.  Compare against EXPERIMENTS.md."
