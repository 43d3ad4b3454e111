#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the full test suite, then the
# perf/determinism smokes (hot-path allocation contract, the citywide
# grid-vs-brute-force digest pin — which also asserts the grid wins on
# wall-clock — the sim-as-a-service robustness pin and the trace-replay
# re-ingest pin), then the threaded code (sweep pool, scenario server,
# watchdog, campaign client) under ThreadSanitizer. Everything a PR must
# keep green.
#
# Every ctest invocation carries a per-test timeout: the suite now
# exercises servers, watchdogs, and cancellation, and a regression there
# must fail the gate, not wedge it.
#
# Usage: scripts/check_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" --timeout 300)
"$BUILD_DIR"/bench/bench_microperf --smoke --json "$BUILD_DIR"/BENCH_hotpath.json
"$BUILD_DIR"/bench/ext_citywide --smoke --assert-wall --json "$BUILD_DIR"/BENCH_citywide_smoke.json
(cd "$BUILD_DIR" && bench/serve_smoke --seeds 1000 --json BENCH_serve_smoke.json)
(cd "$BUILD_DIR" && bench/ext_trace_replay --smoke --trace ../data/traces/sample_occupancy.csv --resilience-csv BENCH_trace_replay_resilience.csv)

# Every run is one single-threaded event loop; the threads live in the
# runner's worker pool (ThreadPool/ScenarioRunner) and the service layer (server
# workers, watchdog, campaign client). A dedicated TSan tree builds only
# their two suites (the rest of the suite runs TSan via
# SPIDER_SANITIZE=thread full builds when wanted).
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DSPIDER_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target test_sweep test_serve
"$TSAN_DIR"/tests/test_sweep
# Campaign.RetriesSeedReapedByWatchdog gives each seed a 200 ms wall-clock
# deadline that TSan's slowdown overruns; it still runs in the plain ctest
# pass above.
"$TSAN_DIR"/tests/test_serve --gtest_filter=-Campaign.RetriesSeedReapedByWatchdog

echo "tier-1: all green"
