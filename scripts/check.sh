#!/usr/bin/env bash
# CI entry point: the tier-1 verify line (configure, build, ctest) in BOTH
# kernel builds (-DDEEPBASE_SIMD=ON default and the scalar fallback, which
# share one layout contract and whose measure kernels are pinned
# bitwise-equal by the kernels_equivalence suite), the lints (including
# the extraction-kernel ones), an out-of-core inspection smoke (behaviors
# bigger than the store's memory tier stream via the mmap tier through a
# full session Inspect, byte-identical to the in-memory control), a smoke
# run of the quickstart example through the InspectionSession API, a
# network-serving smoke (start inspect_server, drive it with
# inspect_client over loopback, scrape the kMetrics endpoint twice and
# assert the exposition carries the core series with monotonic
# counters, then assert a clean graceful-drain shutdown),
# a multi-process distributed-cluster smoke (coordinator + workers as
# separate processes; one worker SIGKILLed mid-job; the job completes
# and the table is bit-identical to the 1-worker baseline), the
# ThreadSanitizer build of the concurrency suites (intra-job
# sharding and the block loop's lanes at 3 and 8 shards, session
# jobs, the multi-query scheduler — incl. in-flight dedup,
# persistent-cache restarts, admission quotas, and the
# stale-admission regression — the inspection server/client, the
# cluster coordinator/worker, thread pool, behavior store + blob tier,
# the tracer/metrics observability suite (concurrent scrapes against
# running jobs), and the seeded chaos harness driving every failpoint
# site against a
# mixed local+remote+cluster workload), a short fixed-seed chaos smoke
# under TSan, an ASan+UBSan build-and-test pass of the full suite, a
# build of the paper-level benchmark (paperbench/) with its self-check,
# and smokes of the parallel-engine, scheduler, server, and cluster
# benches so regressions in the sharded, fused, served, and distributed
# paths fail fast.
#
# Usage: scripts/check.sh [build_dir]   (default: build; TSan uses
#                                        <build_dir>-tsan)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-build}"
TSAN_DIR="${BUILD_DIR}-tsan"
JOBS="$(nproc 2>/dev/null || echo 4)"

cd "$REPO_ROOT"

echo "== lint =="
# One compile per session job: Scheduler::PlanJob compiles each request
# and the job carries that JobPlan through admission, its run (shared by
# every identical request in flight), the cluster and EXPLAIN. A
# Catalog::Compile anywhere else in src/service or src/cluster re-resolves
# names the job already resolved (and may see a newer catalog version than
# its cache/dedup key names).
# Allowed besides PlanJob: the DistributedRun(request, default_options,
# stats) wrapper and InspectionWorker::RunSliced (a wire request compiled
# in the worker's own session). A function starts at a column-0 line
# holding "(".
LINT_OWNERS='Scheduler::PlanJob|ClusterCoordinator::DistributedRun|InspectionWorker::RunSliced'
if ! awk -v owners="($LINT_OWNERS)\\(" '
      FNR == 1 { fn = "" }
      /^[A-Za-z_].*\(/ { fn = $0 }
      { code = $0; sub(/\/\/.*/, "", code) }
      code ~ /(^|[^A-Za-z0-9_])Compile\(/ && fn !~ owners {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      FILENAME ~ /scheduler\.cc$/ && code ~ /Get(Model|Dataset)\(/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' src/service/*.cc src/service/*.h \
                        src/cluster/*.cc src/cluster/*.h; then
  echo "lint: the lines above re-resolve a session job's request against" \
       "the catalog. Scheduler::PlanJob owns the job's one compile: read" \
       "the JobPlan's compiled plan (RunPlan executes it) instead."
  exit 1
fi
# One physical plan per job: a job's shard count is resolved once, at its
# entry point — Scheduler::PlanJob, the engine's Inspect() or
# ClusterCoordinator::DistributedRun — and pinned into the options that
# PlanPipeline plans from; block_pipeline.{h,cc} define ResolveShardCount.
# The lane rules are private to PlanPipeline (block_pipeline.cc): every
# other file reads the job's PipelinePlan instead.
SRC_FILES="$(find src -name '*.cc' -o -name '*.h' | sort)"
SHARD_OWNERS='Scheduler::PlanJob|ClusterCoordinator::DistributedRun|^ResultTable Inspect'
if ! awk -v owners="($SHARD_OWNERS)\\(" '
      FNR == 1 { fn = "" }
      /^[A-Za-z_].*\(/ { fn = $0 }
      { code = $0; sub(/\/\/.*/, "", code) }
      FILENAME !~ /core\/block_pipeline\.(h|cc)$/ &&
      code ~ /(^|[^A-Za-z0-9_])ResolveShardCount\(/ && fn !~ owners {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' $SRC_FILES; then
  echo "lint: the lines above resolve a shard count outside a job's entry" \
       "point. Read the count pinned into the job's options, or its" \
       "PipelinePlan::num_shards, instead."
  exit 1
fi
LANE_RULES='Sliceable|NeedsSequentialLane|FusesIntoComposite|PairMergeExactness|PlannedBlockDispatches|CalibrationLeaders'
if grep -nwE "$LANE_RULES" $(echo "$SRC_FILES" | grep -v '^src/core/block_pipeline\.cc$'); then
  echo "lint: the lines above name a lane rule outside PlanPipeline" \
       "(core/block_pipeline.cc). Read the job's PipelinePlan (pairs," \
       "composites, sequential_lane, sliceable, blocks_planned) instead;" \
       "the calibration wave's leader rule (CalibrationLeaders) stays in" \
       "BlockPipeline's constructor."
  exit 1
fi

# One shared run per in-flight request: identical requests attach handles
# to one Scheduler::Run, which owns the cancel flag and the progress
# counter. A cancelled handle detaches; the last one stops the run; no
# waiter is ever promoted to re-run the plan from block 0. The names of
# that promotion machinery stay deleted.
DELETED_DEDUP_NAMES='FinishInflight|DeliverToWaiter|CancelWaiter|InflightJob|dedup_promotions'
if grep -rnwE "$DELETED_DEDUP_NAMES" src; then
  echo "lint: the lines above name deleted dedup-promotion machinery. A" \
       "job that shares its run detaches on Cancel() and the run goes on" \
       "(Scheduler::CancelHandle); the last handle's Cancel() stops it."
  exit 1
fi

# One TCP peer layer: src/server/net.{h,cc} is the only code in src/ that
# touches a socket. The server, client, coordinator and worker listen,
# accept, dial and send through net::Listener, net::Dial and net::Conn; a
# raw call anywhere else is a second copy of that code, and the copies
# drifted apart before (accept-loop backoff, connection reclaim and the
# shut-down-on-failed-write rule each reached only some peers).
if ! awk '
      { code = $0; sub(/\/\/.*/, "", code) }
      FILENAME !~ /^src\/server\/net\.(h|cc)$/ &&
      code ~ /(^|[^A-Za-z0-9_])::(socket|bind|listen|accept|connect)\(|setsockopt\(/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' $SRC_FILES; then
  echo "lint: the lines above make a raw socket call outside the peer" \
       "layer. src/server/net.{h,cc} owns listen, accept, dial and send:" \
       "use net::Listener, net::Dial and net::Conn instead."
  exit 1
fi

# One plain Matrix: a Matrix holds its rows, cols, lda and base pointer
# and owns element access, over an owned aligned buffer or a shared
# read-only payload (BehaviorStore's mmap handout). No storage class
# hierarchy sits behind it and no view tier beside it: src/tensor declares
# nothing virtual, and the deleted store and view names stay deleted.
if grep -rnw virtual src/tensor; then
  echo "lint: the lines above put a virtual call under src/tensor. Matrix" \
       "owns element access through its own base pointer; keep it a plain" \
       "load."
  exit 1
fi
DELETED_TENSOR_NAMES='MatrixStore|MemMatrixStore|MmapMatrixStore|VirtualMatrixStore|matrix_store|RowSliceView|GatherColsView|Materialized|shared_store'
if grep -rnwE "$DELETED_TENSOR_NAMES" src; then
  echo "lint: the lines above name a deleted matrix store class or view." \
       "Matrix owns element access (its owned buffer or shared read-only" \
       "payload); copy rows with RowSlice instead of a view."
  exit 1
fi

# One byte codec for every file: the behavior store's .behaviors and .blob
# files and the model files encode through codec::Writer and decode
# through codec::Reader over the file's bytes (codec::MapFile), like wire
# frames, measure states and result tables, so every length is checked
# against the bytes the reader still holds. A binary stream in src/ is a
# second parser beside it. TextTable::WriteCsv's text std::ofstream stays
# legal.
if grep -rnE 'std::(i|if)stream\b|ios::binary|std::ostream\*' src; then
  echo "lint: the lines above read or write binary bytes through a" \
       "stream. Encode with codec::Writer and write with" \
       "codec::WriteFile; decode with codec::Reader over codec::MapFile's" \
       "bytes (src/util/codec.h)."
  exit 1
fi

# Extraction at kernel speed. The LSTM gate step evaluates sigmoid and
# tanh with its own polynomial, one vector lane per unit: a libm call per
# unit and step in src/nn/lstm.cc is the scalar path it replaced. The
# built-in extractors write each record's units straight into the block
# ExtractBlock returns: a row copy, HStack or GatherCols in
# src/core/extractors.cc is the per-record assembly that path deleted. And
# kExtractionKernelVersion keys the unit tier (UnitBehaviorKey) and the
# persistent result cache (InspectRequestFingerprint), so behaviors an
# older build computed are re-extracted, never served.
if ! awk '
      { code = $0; sub(/\/\/.*/, "", code) }
      code ~ /std::(exp|tanh)([^A-Za-z0-9_]|$)|(^|[^A-Za-z0-9_])(expf|tanhf)([^A-Za-z0-9_]|$)/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' src/nn/lstm.cc; then
  echo "lint: the lines above call libm's exp or tanh in the LSTM. The" \
       "gate step (GateStep in src/nn/lstm.cc) owns sigmoid and tanh:" \
       "evaluate them there, one lane per unit."
  exit 1
fi
if ! awk '
      { code = $0; sub(/\/\/.*/, "", code) }
      code ~ /(^|[^A-Za-z0-9_])Row\(|SetRow|HStack|GatherCols/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' src/core/extractors.cc; then
  echo "lint: the lines above assemble a block through per-record" \
       "matrices. Write each record's units into the block's rows" \
       "(HiddenStatesInto, HiddenGradientsInto, EncoderStatesInto)."
  exit 1
fi
# Extraction in lockstep. The LSTM's pre-activations have one owner, the
# step kernel (StepKernel in src/nn/lstm.cc): it steps a tile of records
# through time together and keeps each register tile's accumulators in
# registers across k. An AddScaledSpan or MatMul in src/nn/lstm.cc is the
# per-record product it replaced. An ExtractBlock in
# src/core/extractors.cc that calls HiddenStatesInto or EncoderStatesInto
# with anything but the tile FillBlock hands it steps records one at a
# time again. A function starts at a column-0 line holding "(".
if ! awk '
      FNR == 1 { fn = "" }
      /^[A-Za-z_].*\(/ { fn = $0 }
      { code = $0; sub(/\/\/.*/, "", code) }
      FILENAME ~ /lstm\.cc$/ &&
      code ~ /(^|[^A-Za-z0-9_])(AddScaledSpan|MatMul)\(/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      FILENAME ~ /extractors\.cc$/ && fn ~ /::ExtractBlock\(/ &&
      code ~ /(HiddenStatesInto|EncoderStatesInto)\(/ &&
      code !~ /(HiddenStatesInto|EncoderStatesInto)\(tile[,)]/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' src/nn/lstm.cc src/core/extractors.cc; then
  echo "lint: the lines above build LSTM pre-activations outside the step" \
       "kernel, or step a block's records one at a time. StepKernel" \
       "(src/nn/lstm.cc) owns the product: run a layer through" \
       "LstmLayer::Forward/ForwardIds (one record) or" \
       "ForwardTile/ForwardIdsTile (a tile), and pass the tiles FillBlock" \
       "hands ExtractBlock to HiddenStatesInto or EncoderStatesInto."
  exit 1
fi
for owner in src/core/behavior_store.cc:UnitBehaviorKey \
             src/core/catalog.cc:InspectRequestFingerprint; do
  if ! awk -v fn="${owner#*:}" '
        { code = $0; sub(/\/\/.*/, "", code) }
        code ~ ("^[A-Za-z].*[^A-Za-z0-9_]" fn "\\(") { inside = 1 }
        inside && code ~ /kExtractionKernelVersion/ { found = 1 }
        inside && /^}/ { inside = 0 }
        END { exit !found }' "${owner%%:*}"; then
    echo "lint: ${owner#*:} (${owner%%:*}) does not key on" \
         "kExtractionKernelVersion, so behaviors or results an older" \
         "extraction kernel computed would be served."
    exit 1
  fi
done

# Probes on vector lanes. Logistic regression's heads, the softmax probe's
# classes and the MLP probe's hidden units train through the probe kernel
# (src/measures/probe_kernel.{h,cc}): one vector lane per output, each
# output summed bias first and units ascending. A unit value times a
# strided weight or gradient element, x[u] beside W(u, h), in the probes
# is the one-head-at-a-time loop that kernel replaced.
if ! awk '
      { code = $0; sub(/\/\/.*/, "", code) }
      code ~ /(^|[^A-Za-z0-9_])xr?\[u\]/ && code ~ /_\(u, / {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' src/measures/logreg.cc src/measures/mlp_probe.cc; then
  echo "lint: the lines above train one head at a time over strided" \
       "weights. Put the heads on vector lanes: probe::Forward and" \
       "probe::AddGradient (src/measures/probe_kernel.h)."
  exit 1
fi

# Calibration at kernel speed. Jaccard's thresholds, mutual information's
# unit and numeric-hypothesis edges and multivariate MI's medians are
# per-unit order statistics of a block, and the order-statistics kernel
# (src/measures/order_stats.{h,cc}) owns them: one vector lane per unit,
# exact ranks over order-preserving keys. A unit column gathered through
# units(r, u), or a select or sort over such a column, anywhere else in
# src/measures is the one-column-at-a-time calibration it replaced.
if ! awk '
      { code = $0; sub(/\/\/.*/, "", code) }
      FILENAME !~ /order_stats\.(h|cc)$/ &&
      code ~ /units\(r, u\)|nth_element|std::sort\((col|hv)/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }' src/measures/*.cc src/measures/*.h; then
  echo "lint: the lines above gather a unit column or sort/select one." \
       "The order-statistics kernel owns per-unit order statistics:" \
       "order_stats::Select and order_stats::MaxBelow" \
       "(src/measures/order_stats.h)."
  exit 1
fi

# One calibration per job and key. A job's pairs over one unit group
# share block 0's calibration when their measure declares that it reads
# only the units (Measure::calibration_reads_units_only). So every measure
# class that calibrates through order_stats::Select or
# order_stats::MaxBelow decides it: it overrides the capability, with
# either value, in its class body or as a Class::
# calibration_reads_units_only definition. A call is the class's when it
# sits in a Class::Method definition (a column-0 line) or in a class body.
if ! awk '
      FNR == 1 { fn_class = ""; body_class = "" }
      { code = $0; sub(/\/\/.*/, "", code) }
      code ~ /^class [A-Za-z_]/ {
        body_class = code; sub(/^class /, "", body_class)
        sub(/[^A-Za-z0-9_].*/, "", body_class)
      }
      code ~ /^};/ { body_class = "" }
      code ~ /^[A-Za-z_].*\(/ {
        fn_class = ""
        if (match(code, /[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_~][A-Za-z0-9_]*\(/)) {
          fn_class = substr(code, RSTART, RLENGTH); sub(/::.*/, "", fn_class)
        }
      }
      code ~ /calibration_reads_units_only\(/ {
        if (body_class != "") decides[body_class] = 1
        if (match(code, /[A-Za-z_][A-Za-z0-9_]*::calibration_reads_units_only\(/)) {
          c = substr(code, RSTART, RLENGTH); sub(/::.*/, "", c); decides[c] = 1
        }
      }
      FILENAME !~ /order_stats\.(h|cc)$/ &&
      code ~ /order_stats::(Select|MaxBelow)\(/ {
        c = body_class != "" ? body_class : fn_class
        calls[++n] = c; where[n] = FILENAME ":" FNR ": " $0
      }
      END {
        for (i = 1; i <= n; ++i) {
          if (!(calls[i] in decides)) { print where[i]; bad = 1 }
        }
        exit bad
      }' src/measures/*.h src/measures/*.cc; then
  echo "lint: the lines above calibrate a measure through the" \
       "order-statistics kernel, and its class does not decide whether" \
       "that calibration may be shared. Override" \
       "Measure::calibration_reads_units_only (true only when the" \
       "calibration reads the units alone; src/measures/measure.h)."
  exit 1
fi

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

echo "== smoke: quickstart =="
"$BUILD_DIR/examples/quickstart" >/dev/null

echo "== scalar build (-DDEEPBASE_SIMD=OFF): full suite =="
# The numeric substrate ships two kernel paths (vectorized + scalar
# fallback) behind one layout contract; both must stay green, and the
# kernels_equivalence suite pins them bitwise-equal per build.
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DDEEPBASE_SIMD=OFF >/dev/null
cmake --build "$SCALAR_DIR" -j "$JOBS"
(cd "$SCALAR_DIR" && ctest --output-on-failure -j "$JOBS")

echo "== smoke: out-of-core inspection (behaviors > memory tier, mmap) =="
# A dataset whose materialized behaviors dwarf the store's memory budget
# must still inspect — streamed from disk via the mmap tier — with
# scores byte-identical to an all-in-memory control run. Checked in both
# kernel builds.
"$BUILD_DIR/examples/oocore_smoke" | grep -q "OOCORE OK" || {
  echo "out-of-core smoke failed (simd build)"; exit 1
}
"$SCALAR_DIR/examples/oocore_smoke" | grep -q "OOCORE OK" || {
  echo "out-of-core smoke failed (scalar build)"; exit 1
}

echo "== smoke: network serving (server + client + graceful drain) =="
SERVER_LOG="$(mktemp)"
"$BUILD_DIR/examples/inspect_server" --serve-for 120 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
SERVER_PORT=""
for _ in $(seq 1 100); do
  SERVER_PORT="$(awk '/^LISTENING/{print $2; exit}' "$SERVER_LOG")"
  [ -n "$SERVER_PORT" ] && break
  sleep 0.1
done
if [ -z "$SERVER_PORT" ]; then
  echo "inspect_server did not come up"; cat "$SERVER_LOG"; exit 1
fi
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" >/dev/null

echo "== smoke: EXPLAIN / EXPLAIN ANALYZE + statusz over the wire =="
# Run the demo query once more at the *current* catalog version (the
# demo's remote hypothesis registration bumped it, correctly invalidating
# older cache entries), so the dry-run plan must name the shared-scan
# group it would form AND predict the repeat as a result-cache hit;
# EXPLAIN ANALYZE then runs the job and must reconcile without
# divergences ("!!" lines). statusz is the live introspection page:
# scheduler counters + cache occupancy at minimum.
EXPLAIN_OUT="$(mktemp)"
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --once >/dev/null
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --explain \
    >"$EXPLAIN_OUT"
grep -q "group=" "$EXPLAIN_OUT" || {
  echo "EXPLAIN plan does not name the shared-scan group"
  cat "$EXPLAIN_OUT"; exit 1
}
grep -q "cache: hit" "$EXPLAIN_OUT" || {
  echo "EXPLAIN plan did not predict the repeat as a cache hit"
  cat "$EXPLAIN_OUT"; exit 1
}
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --explain \
    --analyze >"$EXPLAIN_OUT"
grep -qF "| actual:" "$EXPLAIN_OUT" || {
  echo "EXPLAIN ANALYZE carried no actuals"; cat "$EXPLAIN_OUT"; exit 1
}
grep -qF "!!" "$EXPLAIN_OUT" && {
  echo "EXPLAIN ANALYZE flagged a plan-vs-actual divergence"
  cat "$EXPLAIN_OUT"; exit 1
}
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --statusz \
    >"$EXPLAIN_OUT"
for field in "scheduler: jobs_scheduled=" "result-cache: hits=" \
             "failpoints:"; do
  grep -qF "$field" "$EXPLAIN_OUT" || {
    echo "statusz is missing \"$field\""; cat "$EXPLAIN_OUT"; exit 1
  }
done
rm -f "$EXPLAIN_OUT"

echo "== smoke: metrics endpoint (Prometheus scrape x2, monotonic counters) =="
SCRAPE1="$(mktemp)"; SCRAPE2="$(mktemp)"
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --metrics >"$SCRAPE1"
for metric in deepbase_jobs_submitted_total \
              'deepbase_jobs_total{status="ok"}' \
              deepbase_queue_depth \
              deepbase_job_latency_seconds_bucket \
              deepbase_job_latency_seconds_count \
              deepbase_server_connections_total; do
  grep -qF "$metric" "$SCRAPE1" || {
    echo "metrics scrape is missing $metric"; cat "$SCRAPE1"; exit 1
  }
done
# More jobs between scrapes: the submit counter must strictly grow.
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" >/dev/null
"$BUILD_DIR/examples/inspect_client" --port "$SERVER_PORT" --metrics >"$SCRAPE2"
SUBMITTED1="$(awk '$1 == "deepbase_jobs_submitted_total" {print $2}' "$SCRAPE1")"
SUBMITTED2="$(awk '$1 == "deepbase_jobs_submitted_total" {print $2}' "$SCRAPE2")"
if [ -z "$SUBMITTED1" ] || [ -z "$SUBMITTED2" ] ||
   [ "$SUBMITTED2" -le "$SUBMITTED1" ]; then
  echo "deepbase_jobs_submitted_total not monotonic across scrapes" \
       "($SUBMITTED1 -> $SUBMITTED2)"
  exit 1
fi
rm -f "$SCRAPE1" "$SCRAPE2"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q "clean shutdown" "$SERVER_LOG" || {
  echo "inspect_server did not drain cleanly"; cat "$SERVER_LOG"; exit 1
}
rm -f "$SERVER_LOG"

echo "== smoke: distributed cluster (coordinator + 2 workers, SIGKILL one mid-job) =="
CLUSTER_LOG="$(mktemp)"
W1_LOG="$(mktemp)"; W2_LOG="$(mktemp)"
BASELINE_OUT="$(mktemp)"; KILLRUN_OUT="$(mktemp)"
"$BUILD_DIR/examples/inspect_server" --cluster --no-result-cache \
    --serve-for 120 >"$CLUSTER_LOG" 2>&1 &
CLUSTER_SRV_PID=$!
CLIENT_PORT=""; CLUSTER_PORT=""
for _ in $(seq 1 100); do
  CLIENT_PORT="$(awk '/^LISTENING/{print $2; exit}' "$CLUSTER_LOG")"
  CLUSTER_PORT="$(awk '/^CLUSTER/{print $2; exit}' "$CLUSTER_LOG")"
  [ -n "$CLUSTER_PORT" ] && break
  sleep 0.1
done
if [ -z "$CLUSTER_PORT" ]; then
  echo "cluster coordinator did not come up"; cat "$CLUSTER_LOG"; exit 1
fi
# Worker 1: healthy. Registered first, alone, for the baseline run.
"$BUILD_DIR/examples/inspect_worker" --port "$CLUSTER_PORT" --id w1 \
    >"$W1_LOG" 2>&1 &
W1_PID=$!
for _ in $(seq 1 100); do
  grep -q "WORKER READY" "$W1_LOG" && break; sleep 0.1
done
# Baseline: the 1-worker cluster result (jaccard: integer-count merge,
# bit-identical at any worker count by the determinism contract).
"$BUILD_DIR/examples/inspect_client" --port "$CLIENT_PORT" \
    --measure jaccard --once | tail -n +2 >"$BASELINE_OUT"
grep -q "^ROWS" "$BASELINE_OUT" || {
  echo "cluster baseline run produced no rows"; cat "$CLUSTER_LOG"; exit 1
}
# Worker 2: stalls each assignment (failure-injection hook), so the kill
# below always lands mid-job while its block range is still in flight.
"$BUILD_DIR/examples/inspect_worker" --port "$CLUSTER_PORT" --id w2 \
    --assignment-delay 30 >"$W2_LOG" 2>&1 &
W2_PID=$!
for _ in $(seq 1 100); do
  grep -q "WORKER READY" "$W2_LOG" && break; sleep 0.1
done
# Submit with both workers live (ranges split across w1+w2), then
# SIGKILL w2 mid-job: its range must be reassigned and the job complete.
"$BUILD_DIR/examples/inspect_client" --port "$CLIENT_PORT" \
    --measure jaccard --once | tail -n +2 >"$KILLRUN_OUT" &
KILL_CLIENT_PID=$!
sleep 1
kill -KILL "$W2_PID" 2>/dev/null || true
wait "$KILL_CLIENT_PID"
cmp "$BASELINE_OUT" "$KILLRUN_OUT" || {
  echo "cluster table changed after mid-job worker kill"
  diff "$BASELINE_OUT" "$KILLRUN_OUT" | head; exit 1
}
kill -TERM "$W1_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
kill -TERM "$CLUSTER_SRV_PID"
wait "$CLUSTER_SRV_PID"
grep -q "clean shutdown" "$CLUSTER_LOG" || {
  echo "cluster server did not drain cleanly"; cat "$CLUSTER_LOG"; exit 1
}
grep -q "reassignments" "$CLUSTER_LOG" || {
  echo "cluster server printed no cluster stats"; cat "$CLUSTER_LOG"; exit 1
}
rm -f "$CLUSTER_LOG" "$W1_LOG" "$W2_LOG" "$BASELINE_OUT" "$KILLRUN_OUT"

echo "== tsan: concurrency suites =="
cmake -B "$TSAN_DIR" -S . -DDEEPBASE_TSAN=ON >/dev/null
cmake --build "$TSAN_DIR" -j "$JOBS" --target parallel_engine_test \
      kernels_equivalence_test service_test scheduler_test server_test \
      util_test behavior_store_test cluster_test chaos_test \
      observability_test explain_test
(cd "$TSAN_DIR" &&
 ctest --output-on-failure -j 1 \
       -R 'parallel_engine_test|kernels_equivalence_test|service_test|scheduler_test|server_test|util_test|behavior_store_test|cluster_test|chaos_test|observability_test|explain_test')

echo "== tsan: chaos smoke (fixed seed, short schedule) =="
DEEPBASE_CHAOS_SEED=805381 DEEPBASE_CHAOS_STEPS=16 \
    "$TSAN_DIR/tests/chaos_test" >/dev/null

echo "== asan+ubsan: full suite =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DDEEPBASE_ASAN_UBSAN=ON >/dev/null
cmake --build "$ASAN_DIR" -j "$JOBS"
(cd "$ASAN_DIR" && ctest --output-on-failure -j 1)

echo "== paperbench: build bench_paper + selfcheck =="
# bench_paper compiles against the library's public API (SessionConfig,
# RuntimeStats, BehaviorStore), so an API change that breaks it fails
# here. The self-check runs every workload at smoke size, untraced and
# traced, and requires byte-identical tables.
PAPERBENCH_DIR="${BUILD_DIR}-paperbench"
cmake -S paperbench -B "$PAPERBENCH_DIR" >/dev/null
cmake --build "$PAPERBENCH_DIR" -j "$JOBS" --target bench_paper
PAPERBENCH_WORK="$(mktemp -d)"
"$PAPERBENCH_DIR/bench_paper" --selfcheck --workdir "$PAPERBENCH_WORK" \
    >"$PAPERBENCH_WORK/selfcheck.log" 2>&1 || true
grep -qx "selfcheck ok" "$PAPERBENCH_WORK/selfcheck.log" || {
  echo "bench_paper --selfcheck did not print 'selfcheck ok'"
  cat "$PAPERBENCH_WORK/selfcheck.log"; exit 1
}
rm -rf "$PAPERBENCH_WORK"

echo "== smoke: 2-thread parallel bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_engine_parallel \
      >/dev/null
"$BUILD_DIR/bench/bench_engine_parallel" --smoke \
    --out "$BUILD_DIR/BENCH_engine_parallel_smoke.json" >/dev/null

echo "== smoke: scheduler batch bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_scheduler_batch \
      >/dev/null
"$BUILD_DIR/bench/bench_scheduler_batch" --smoke --jobs 4 \
    --out "$BUILD_DIR/BENCH_scheduler_batch_smoke.json" >/dev/null

echo "== smoke: server throughput bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_server >/dev/null
"$BUILD_DIR/bench/bench_server" --smoke --clients 2 --jobs 2 \
    --out "$BUILD_DIR/BENCH_server_throughput_smoke.json" >/dev/null

echo "== smoke: cluster scale-out bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_cluster >/dev/null
"$BUILD_DIR/bench/bench_cluster" --smoke \
    --out "$BUILD_DIR/BENCH_cluster_scaleout_smoke.json" >/dev/null

echo "== smoke: measure-kernel bench =="
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_kernels >/dev/null
"$BUILD_DIR/bench/bench_kernels" --smoke \
    --out "$BUILD_DIR/BENCH_kernels_smoke.json" >/dev/null

echo "OK"
