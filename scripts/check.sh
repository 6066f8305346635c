#!/usr/bin/env bash
# Full verification pass for the repo:
#   1. tier-1: plain configure + build + ctest (must stay green)
#   2. ASan+UBSan build of the test suite (memory + UB errors)
#   3. TSan build running the sharded-fleet soak test (data races on the
#      mailbox / barrier / recovery paths)
#   4. campaign: the seeded 50-scenario fault-injection campaign under
#      ASan — fails on any missed-detection regression (detection floor
#      is asserted inside the campaign tests) or on a single-vs-sharded
#      trace divergence
#   5. fuzz: the coverage-guided scenario fuzzer under ASan — mutation
#      determinism, the miss-preserving minimizer, the cross-backend
#      corpus differential, and a seed-pinned smoke campaign (bounded
#      iteration budget) that must replay byte-identically; it runs
#      inside build-asan, where it leaves FUZZ_corpus.json (corpus +
#      coverage map + minimized findings, an output record nothing reads
#      back) and FUZZ_report.txt
#   6. ipc: the wire codec property tests (round-trip, truncation,
#      bit-flip, reserved type numbers), the transport and the
#      supervision state machine under ASan with leak checking on
#   7. hub: the epoll event loop (timer catch-up, backpressure, accept
#      storm, crash-loop backoff), the slot handshake (version, unknown
#      and busy rejection), kill -9 of a real publisher child and its
#      restarted successor, the SUO end of a link (slot claim,
#      idempotent recover ack) and the campaign's one wire — the
#      in-process vs hub differential and the kill-restart scenario —
#      under ASan, plus the hub campaign under TSan (the loop thread vs
#      fleet shard threads share the scored path)
#   8. fleetdiag: fleet-level online diagnosis under ASan (reporter
#      chunking, online-vs-offline ranking equivalence over real
#      sockets, slot lifecycle, fuzz-findings replay, the pruned
#      top-k scan against the full ranking, the coverage recorder's
#      range/mask hits and the SUO stand-in's step-stream digest) and
#      TSan (concurrent ingest vs ranking queries); then bench_diag_hub
#      leaves BENCH_fleetdiag.json in the repo root (spectrum ingest
#      sweep + per-fault-kind diagnosis accuracy)
#   9. recovery: the closed recovery loop under ASan (convergence gate,
#      escalation ladder, storm budget, quarantine, the MTTR campaign
#      vs the supervision-only baseline and the fuzz-findings repair
#      replay) and TSan (concurrent ingest vs actuate vs ack vs query
#      on one orchestrator); then bench_recovery_hub leaves
#      BENCH_recovery.json in the repo root (live actuation RTT +
#      storm-guard budget + MTTR/precision scores)
#  10. journal: the durable hub under ASan — WAL corruption sweeps
#      (torn tail vs mid-log fail-closed), checkpoint fallback, the
#      fork+SIGKILL fsync smoke and the crash-restart byte-identity
#      campaign — plus the journal_demo kill/restart drill and
#      bench_journal leaving BENCH_journal.json in the repo root
#      (append throughput per fsync policy + recovery time vs WAL
#      length + checkpoint cost)
#  11. exec: the executor property suite — the engine against the
#      reference interpreter's frozen step digests (random machines and
#      the TV/printer/media-player spec models) plus arena growth/reuse
#      under ASan, and the shared-program multi-thread test under TSan;
#      the report() of bench_exec, bench_awareness,
#      bench_scale, bench_printer, bench_mediaplayer, bench_detection,
#      bench_ipc, bench_hub, bench_diag_hub, bench_diagnosis (the
#      offline SflRanker::rank() across all five coefficients),
#      bench_stress, bench_loadbalance and bench_recovery (the last
#      three drive the Scheduler/EventBus event path under real TV
#      simulations), bench_fuzz and bench_journal (WAL replay decodes
#      the journaled wire frames), bench_perception and bench_priowarn
#      under ASan; two examples under ASan, run inside build-asan:
#      hub_host --fleet 2 (the one link_gate caller outside the testkit;
#      both slots must end with outages=0) and escalating_recovery (a
#      one-shard fleet whose SUO publishes straight onto its shard's
#      bus); then
#      bench_exec leaves BENCH_exec.json in the repo root
#      (steps/sec/core + bytes/monitor per kernel)
#  12. bench_scale scaling experiment, leaving BENCH_scale.json in the
#      repo root (per-shard-count throughput + merged metrics snapshot)
#  13. bench_ipc raw transport experiment, leaving BENCH_ipc.json in
#      the repo root (frames/sec + heartbeat RTT percentiles per
#      transport)
#  14. bench_hub fleet-ingest experiment, leaving BENCH_hub.json in the
#      repo root (frames/sec + ingest latency vs connection count)
#  15. bench_fuzz fuzzing experiment, leaving BENCH_fuzz.json in the
#      repo root (scenarios/sec + corpus growth and coverage curves)
#  16. perfbench: the benchmark's own Release build of the libraries
#      and every workload at smoke size, traced and untraced
#      (perfbench/test_perfbench.py; its build tree is .bench_build/)
#
# After the tier-1 stage and again after the last stage, the run fails
# if `git status --porcelain` shows a path it did not show at start: a
# leaked temp dir or an artifact missing from .gitignore.
#
# Each stage prints its wall time on completion. Stages 2-16 can be
# skipped for a quick tier-1-only run:
#   scripts/check.sh --tier1-only
# The fuzz stage's iteration budget is tunable: CHECK_FUZZ_ITERS=400
# buys a deeper corpus sweep. The default 200 is FuzzConfig{}'s and
# fuzz_demo's own, the campaign whose findings tests/fuzz_findings.hpp,
# bench_diag_hub and bench_recovery_hub run in process and replay.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
TIER1_ONLY=0
[[ "${1:-}" == "--tier1-only" ]] && TIER1_ONLY=1

STAGE_NAME=""
STAGE_T0=0
stage_end() {
  if [[ -n "$STAGE_NAME" ]]; then
    printf -- '--- %s: %ss\n' "$STAGE_NAME" "$(( $(date +%s) - STAGE_T0 ))"
  fi
}
stage() {
  stage_end
  STAGE_NAME="$*"
  STAGE_T0=$(date +%s)
  printf '\n=== %s ===\n' "$*"
}
trap stage_end EXIT

tree_status() { git status --porcelain | sort; }
STATUS_AT_START="$(tree_status)"
check_tree_clean() {
  local leaked
  leaked="$(comm -13 <(printf '%s\n' "$STATUS_AT_START") <(tree_status))"
  if [[ -n "$leaked" ]]; then
    echo "FAIL: the test stages left files in the tree:" >&2
    printf '%s\n' "$leaked" >&2
    exit 1
  fi
}

# Run a gtest binary with a --gtest_filter and fail when the filter
# selects no test. The installed gtest (1.11) has no
# --gtest_fail_if_no_test_selected: a filter that matches nothing (a
# renamed test) prints "Running 0 tests" and exits 0.
gtest_selected() {
  local log
  log="$(mktemp)"
  # Output streams through tee; pipefail makes a failing test fail here.
  "$@" | tee "$log" || { rm -f "$log"; return 1; }
  if grep -q '^\[==========\] Running 0 tests' "$log"; then
    rm -f "$log"
    echo "FAIL: the filter selected no test: $*" >&2
    return 1
  fi
  rm -f "$log"
}

stage "tier-1: configure + build + ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")
check_tree_clean

if [[ "$TIER1_ONLY" == "1" ]]; then
  echo "tier-1 green (skipped sanitizers + bench with --tier1-only)"
  exit 0
fi

stage "ASan+UBSan: configure + build + ctest"
cmake -B build-asan -S . -DTRADER_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

stage "TSan: sharded fleet soak"
cmake -B build-tsan -S . -DTRADER_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target system_soak_test sharded_fleet_test
gtest_selected ./build-tsan/tests/sharded_fleet_test \
  --gtest_filter='ShardedFleet.*:Lifecycle.*:Mailbox.*:FleetRouting.*'
gtest_selected ./build-tsan/tests/system_soak_test --gtest_filter='SystemSoak.ShardedFleetSoak*'

stage "campaign: seeded fault-injection campaign under ASan"
cmake --build build-asan -j "$JOBS" --target testkit_test campaign_demo
gtest_selected ./build-asan/tests/testkit_test --gtest_filter='Campaign.*:Executor.*'
./build-asan/examples/campaign_demo > CAMPAIGN_report.txt
grep -q 'traces identical' CAMPAIGN_report.txt
echo "campaign headline:"
grep 'detection rate' CAMPAIGN_report.txt

stage "fuzz: coverage-guided scenario fuzzer under ASan"
cmake --build build-asan -j "$JOBS" --target fuzz_test fuzz_demo
# Mutation determinism, coverage monotonicity, the miss-preserving
# minimizer and the 20-script cross-backend corpus differential, with
# leak checking on.
./build-asan/tests/fuzz_test
# Seed-pinned smoke campaign with a bounded iteration budget (override
# with CHECK_FUZZ_ITERS for a deeper sweep): the demo runs the same
# campaign twice and exits nonzero unless the reruns are
# byte-identical. It runs inside build-asan, so the corpus + findings
# JSON and the report stay out of the repo root.
(cd build-asan && ./examples/fuzz_demo 2026 "${CHECK_FUZZ_ITERS:-200}" > FUZZ_report.txt)
grep -q 'byte-identical: yes' build-asan/FUZZ_report.txt
test -s build-asan/FUZZ_corpus.json
echo "fuzz headline:"
grep -E 'corpus:|detection floor' build-asan/FUZZ_report.txt

stage "ipc: codec properties + transport + supervisor under ASan"
cmake --build build-asan -j "$JOBS" --target ipc_test
# Wire-level fuzzing (round-trip, truncation, bit-flip, the reserved
# type numbers), the framed transport and the supervisor state machine.
# The kill -9 of a real SUO process and the campaign's wire
# differential run in the hub stage.
gtest_selected ./build-asan/tests/ipc_test --gtest_filter='IpcWire.*:IpcTransport.*:IpcSupervisor.*'

stage "hub: epoll loop + multi-SUO campaign under ASan and TSan"
cmake --build build-asan -j "$JOBS" --target hub_test
# The whole suite under ASan: event-loop timer semantics (fixed-rate
# catch-up), backpressure eviction, accept storm, crash-loop backoff,
# liveness accounting, kill -9 of a forked publisher process, the SUO
# link's recover-ack cache and the 8-SUO differential campaign.
./build-asan/tests/hub_test
# Under TSan the loop thread coexists with fleet shard threads and the
# publisher test thread — the scored hub campaign must stay race-free.
cmake --build build-tsan -j "$JOBS" --target hub_test
gtest_selected ./build-tsan/tests/hub_test \
  --gtest_filter='HubCampaign.*:HubTest.PublisherStreamsToHorizonAndSaysGoodbye'

stage "fleetdiag: online diagnosis under ASan and TSan -> BENCH_fleetdiag.json"
cmake --build build-asan -j "$JOBS" --target fleetdiag_test diagnosis_test
# The chunk-pruned top-k scan against the full ranking (chunk tails,
# stale chunk bounds, load/merge/clear, ids past the span), the coverage
# recorder's word-wide range and mask hits against per-block hits, and
# the SUO stand-in's pinned step-stream digest.
gtest_selected ./build-asan/tests/diagnosis_test \
  --gtest_filter='Incremental.*:Coverage.*:CoverageProperty.*:SuoStream.*'
# Reporter chunking, the online-vs-offline ranking differential (every
# prefix, 1/2/4 shards over real sockets), slot lifecycle (reconnect
# persistence, retirement on permanent failure), the version-gated
# publisher path and the fuzz-findings diagnosis replay — leak-checked.
./build-asan/tests/fleetdiag_test
# Concurrent ingest (hub loop thread) vs live ranking queries (operator
# threads) on one shared aggregator must be race-free, the chunk bounds
# top_k() renews under the aggregator's lock included.
cmake --build build-tsan -j "$JOBS" --target fleetdiag_test
gtest_selected ./build-tsan/tests/fleetdiag_test --gtest_filter='FleetDiagConcurrency.*'
cmake --build build -j "$JOBS" --target bench_diag_hub
./build/bench/bench_diag_hub --benchmark_filter='BM_AggregatorIngest' \
  --benchmark_min_time=0.05
test -s BENCH_fleetdiag.json
echo "BENCH_fleetdiag.json written:"
head -12 BENCH_fleetdiag.json

stage "recovery: closed loop under ASan and TSan -> BENCH_recovery.json"
cmake --build build-asan -j "$JOBS" --target recovery_loop_test
# The whole closed loop, leak-checked: convergence gate, §5 ladder +
# quarantine, token-bucket storm budget, version gate for v2 peers,
# ack idempotency, the MTTR campaign against the supervision-only
# baseline (byte-reproducible, shard-invariant) and the fuzz-findings
# repair replay with its precision floor.
./build-asan/tests/recovery_loop_test
# Hub loop ingest vs orchestrator ticks vs SUO acks vs operator stats
# queries on one orchestrator must be race-free.
cmake --build build-tsan -j "$JOBS" --target recovery_loop_test
gtest_selected ./build-tsan/tests/recovery_loop_test --gtest_filter='RecoveryConcurrency.*'
cmake --build build -j "$JOBS" --target bench_recovery_hub
./build/bench/bench_recovery_hub --benchmark_filter='BM_OrchestratorTickQuietFleet' \
  --benchmark_min_time=0.05
test -s BENCH_recovery.json
echo "BENCH_recovery.json written:"
head -12 BENCH_recovery.json

stage "journal: durable hub under ASan -> BENCH_journal.json"
cmake --build build-asan -j "$JOBS" --target journal_test journal_demo
# The WAL corruption contract (byte-flip + truncation sweeps over every
# offset), checkpoint fallback/retention, every Checkpointable's
# save/load round trip, the fork+SIGKILL every-record fsync smoke and
# the crash-restart campaign that must score byte-identically to an
# uninterrupted golden run — leak-checked.
./build-asan/tests/journal_test
# Kill/restart drill over real sockets: journal on, hub killed cold at
# two different command boundaries, both runs must match the golden
# JSON byte for byte.
./build-asan/examples/journal_demo 2026 > JOURNAL_report.txt
grep -q 'crash-restart matches golden: yes' JOURNAL_report.txt
cmake --build build -j "$JOBS" --target bench_journal
./build/bench/bench_journal --benchmark_filter='BM_WalAppend' \
  --benchmark_min_time=0.05
test -s BENCH_journal.json
echo "BENCH_journal.json written:"
head -12 BENCH_journal.json

stage "exec: executor-v2 equivalence under ASan + TSan -> BENCH_exec.json"
cmake --build build-asan -j "$JOBS" --target exec_test
# The engine against the reference interpreter's frozen step digests on
# random machines and the spec models (one-slot and shared-slot twins
# still compared live), plus the arena slot-recycling churn loop with
# leak checking on.
./build-asan/tests/exec_test
# One immutable ModelProgram shared by four threads of batches — the
# ShardedFleet sharing pattern must be race-free.
cmake --build build-tsan -j "$JOBS" --target exec_test
gtest_selected ./build-tsan/tests/exec_test \
  --gtest_filter='BatchExecutor.SharedProgramAcrossThreadsIsRaceFree'
# The report() of every bench under ASan (the empty filter skips the
# microbenchmarks). They run inside build-asan so their BENCH_*.json
# stay out of the repo root.
cmake --build build-asan -j "$JOBS" --target bench_exec bench_awareness bench_scale \
  bench_printer bench_mediaplayer bench_detection bench_ipc bench_hub bench_diag_hub \
  bench_diagnosis bench_stress bench_loadbalance bench_recovery bench_recovery_hub \
  bench_fuzz bench_journal bench_perception bench_priowarn
for bench in bench_exec bench_awareness bench_scale bench_printer bench_mediaplayer \
  bench_detection bench_ipc bench_hub bench_diag_hub bench_diagnosis bench_stress \
  bench_loadbalance bench_recovery bench_recovery_hub bench_fuzz bench_journal \
  bench_perception bench_priowarn; do
  (cd build-asan && "./bench/$bench" --benchmark_filter='^$' >/dev/null)
done
# The Comparator link gate over real sockets, and a one-shard SUO on its
# shard's private bus, both under ASan. They run inside build-asan so
# nothing they write lands in the repo root.
cmake --build build-asan -j "$JOBS" --target hub_host escalating_recovery
hub_out="$(cd build-asan && ./examples/hub_host --fleet 2 --horizon-ms 500)"
echo "$hub_out"
test "$(grep -cE '^hub_host: suo[01] +errors=[0-9]+ outages=0$' <<<"$hub_out")" -eq 2
(cd build-asan && ./examples/escalating_recovery >/dev/null)
cmake --build build -j "$JOBS" --target bench_exec
./build/bench/bench_exec --benchmark_filter='BM_BatchedDispatch' \
  --benchmark_min_time=0.05
test -s BENCH_exec.json
echo "BENCH_exec.json written:"
head -12 BENCH_exec.json

stage "bench_scale: scaling experiment -> BENCH_scale.json"
./build/bench/bench_scale --benchmark_filter='BM_ShardedFleetEpoch/1' \
  --benchmark_min_time=0.05
test -s BENCH_scale.json
echo "BENCH_scale.json written:"
head -12 BENCH_scale.json

stage "bench_ipc: raw transport experiment -> BENCH_ipc.json"
./build/bench/bench_ipc --benchmark_filter='BM_EncodeOutputEvent' \
  --benchmark_min_time=0.05
test -s BENCH_ipc.json
echo "BENCH_ipc.json written:"
head -12 BENCH_ipc.json

stage "bench_hub: fleet ingest experiment -> BENCH_hub.json"
./build/bench/bench_hub --benchmark_filter='BM_EventLoopWakeDispatch' \
  --benchmark_min_time=0.05
test -s BENCH_hub.json
echo "BENCH_hub.json written:"
head -12 BENCH_hub.json

stage "bench_fuzz: fuzzing experiment -> BENCH_fuzz.json"
cmake --build build -j "$JOBS" --target bench_fuzz
./build/bench/bench_fuzz --benchmark_filter='BM_MutateScenario' \
  --benchmark_min_time=0.05
test -s BENCH_fuzz.json
echo "BENCH_fuzz.json written:"
head -12 BENCH_fuzz.json

stage "perfbench: every workload at smoke size, traced and untraced"
python3 perfbench/test_perfbench.py

check_tree_clean
stage "all checks passed"
