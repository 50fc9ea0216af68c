#!/usr/bin/env bash
# Perf-trajectory entry point: runs the engine benches at 1/2/N shard
# counts (BENCH_engine_parallel.json — records/s, speedup vs the
# sequential baseline, per-phase seconds), the multi-query scheduler
# bench (BENCH_scheduler_batch.json — jobs/s sequential vs batched vs
# cached vs deduped vs persistent-restart, extraction passes saved,
# dedup followers, result-cache hit rate), and the serving-layer bench
# (BENCH_server_throughput.json — N concurrent TCP clients over
# loopback: jobs/s, dedup + shared-scan + result-cache hit rates
# observed end-to-end through the wire), and the distributed-cluster
# bench (BENCH_cluster_scaleout.json — records/s at 1/2/4 workers with
# the tables asserted bit-identical across worker counts, plus the
# mid-job worker-kill reassignment latency), and the kernel bench
# (BENCH_kernels.json — rows scored per second per measure and rows
# extracted per second by the LSTM step kernel, SIMD build vs a scalar
# -DDEEPBASE_SIMD=OFF leg of the same bench, with the per-cell speedup,
# each calibrating measure's first-block seconds and the host's lane/core
# capabilities recorded).
# Also runs the
# store-reinspection ablation and, when google-benchmark is available,
# the bench_micro engine cells, so one command captures the whole
# hot-path picture. Every bench JSON is asserted to carry its
# phase-breakdown keys (queue/extract/score/merge/wire/worker-hop, as
# applicable) before the run counts as green.
#
# Usage: scripts/bench.sh [build_dir] [max_shards]
#   build_dir   default: build
#   max_shards  default: 8 (the N in the 1/2/N sweep)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-build}"
MAX_SHARDS="${2:-8}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cd "$REPO_ROOT"

echo "== build =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_engine_parallel \
      bench_scheduler_batch bench_server bench_cluster \
      bench_store_reinspect bench_kernels >/dev/null
# The scalar leg of the kernel bench: the fallback path is a build mode,
# so the SIMD-vs-scalar comparison is a cross-build run of one binary.
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DDEEPBASE_SIMD=OFF >/dev/null
cmake --build "$SCALAR_DIR" -j "$JOBS" --target bench_kernels >/dev/null
if cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_micro \
      >/dev/null 2>&1; then
  HAVE_MICRO=1
else
  HAVE_MICRO=0
fi

echo "== engine parallel (shards 1/2/$MAX_SHARDS) =="
"$BUILD_DIR/bench/bench_engine_parallel" --shards "$MAX_SHARDS" \
    --out "$REPO_ROOT/BENCH_engine_parallel.json"

echo "== scheduler batch (sequential vs batched vs cached) =="
"$BUILD_DIR/bench/bench_scheduler_batch" --jobs 8 \
    --out "$REPO_ROOT/BENCH_scheduler_batch.json"

echo "== server throughput (concurrent TCP clients over loopback) =="
"$BUILD_DIR/bench/bench_server" --clients 4 --jobs 4 \
    --out "$REPO_ROOT/BENCH_server_throughput.json"

echo "== cluster scale-out (1/2/4 workers + reassignment latency) =="
"$BUILD_DIR/bench/bench_cluster" --jobs 4 \
    --out "$REPO_ROOT/BENCH_cluster_scaleout.json"

echo "== kernels (scalar leg, then SIMD leg vs that baseline) =="
KERNELS_SCALAR_RAW="$(mktemp)"
"$SCALAR_DIR/bench/bench_kernels" --raw-out "$KERNELS_SCALAR_RAW"
"$BUILD_DIR/bench/bench_kernels" --scalar-raw "$KERNELS_SCALAR_RAW" \
    --out "$REPO_ROOT/BENCH_kernels.json"
rm -f "$KERNELS_SCALAR_RAW"

echo "== phase-breakdown keys present in every bench JSON =="
# The observability contract: each bench exports its critical-path phase
# breakdown, so perf-trajectory diffs can attribute a regression to a
# phase, not just a total. A missing key means the bench silently lost
# its breakdown — fail loudly.
assert_keys() {
  local file="$1"; shift
  for key in "$@"; do
    grep -qF "\"$key\"" "$file" || {
      echo "$file is missing phase key \"$key\""; exit 1
    }
  done
}
assert_keys "$REPO_ROOT/BENCH_engine_parallel.json" phase_merge_s
assert_keys "$REPO_ROOT/BENCH_scheduler_batch.json" \
    phase_queue_s_mean phase_extract_s_mean phase_score_s_mean \
    phase_merge_s_mean
assert_keys "$REPO_ROOT/BENCH_server_throughput.json" \
    phase_queue_s_mean phase_extract_s_mean phase_score_s_mean \
    phase_merge_s_mean phase_wire_s_mean phase_worker_hop_s_mean \
    phase_coverage
assert_keys "$REPO_ROOT/BENCH_cluster_scaleout.json" \
    phase_merge_s_mean phase_worker_hop_s_mean
assert_keys "$REPO_ROOT/BENCH_kernels.json" \
    phase_process_s phase_calibrate_s phase_scores_s speedup_vs_scalar \
    float_lanes lstm_extract phase_extract_s

echo "== perf trend vs committed baselines =="
# Advisory per-metric diff of the fresh numbers against what HEAD has
# committed; DEEPBASE_BENCH_STRICT=1 turns >25% regressions into a
# nonzero exit (the perf-CI gate — single local runs are too noisy to
# fail by default).
python3 "$REPO_ROOT/scripts/bench_compare.py" --repo-root "$REPO_ROOT" \
    "$REPO_ROOT/BENCH_engine_parallel.json" \
    "$REPO_ROOT/BENCH_scheduler_batch.json" \
    "$REPO_ROOT/BENCH_server_throughput.json" \
    "$REPO_ROOT/BENCH_cluster_scaleout.json" \
    "$REPO_ROOT/BENCH_kernels.json"

if [ "$HAVE_MICRO" = "1" ]; then
  echo "== bench_micro engine cells =="
  "$BUILD_DIR/bench/bench_micro" \
      --benchmark_filter='BM_EngineMaterializedSharded' \
      --benchmark_min_time=0.05
fi

echo "== store reinspection (context) =="
"$BUILD_DIR/bench/bench_store_reinspect"

echo "OK — results in BENCH_engine_parallel.json, BENCH_scheduler_batch.json, BENCH_server_throughput.json, BENCH_cluster_scaleout.json, and BENCH_kernels.json"
