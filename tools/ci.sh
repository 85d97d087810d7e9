#!/usr/bin/env bash
# Pre-merge gate: configure, build, and test the four supported trees.
#
#   build         plain (PUFATT_TRACE=ON by default)
#   build-asan    AddressSanitizer + UBSan   (-DPUFATT_SANITIZE=ON)
#   build-tsan    ThreadSanitizer           (-DPUFATT_TSAN=ON)
#   build-notrace tracing compiled out      (-DPUFATT_TRACE=OFF)
#
# Every tree runs the full ctest suite *including* the bench-labeled
# smokes (service_throughput_smoke, sim_engine_smoke, micro_perf_smoke,
# obs_overhead_smoke, net_throughput_smoke, attack_matrix_quick), the
# overclocking gate (honest accepted at 1.00x/1.05x, rejected from 1.15x,
# redirect malware never accepted — the prover's clock-constraint path) and
# the modeling_attack_demo example (best obfuscated-bit LR attacker
# advantage max(a, 1-a) < 0.6, genuine die accepted 3/3, clone 0/3), so
# the stable-schema BENCH_*.json
# writers and the tracing overhead gates are exercised under each sanitizer
# too.  attack_matrix_quick runs the whole
# adversary-lab roster (bench/attack_matrix --quick) with shrunk budgets
# and relaxed gates, but still asserts the matrix is byte-stable across
# thread counts and invariant across the scalar and bit-sliced timing
# engines.  sim_engine_smoke additionally gates the bit-sliced engine
# (zero divergence vs scalar, engine-invariant CRP digests), and
# gen_crps_engine_parity re-derives the same contract at the CLI layer:
# gen-crps output must be byte-identical across --engine=scalar and
# --engine=bitslice.  The TSan tree in particular covers the socket front end's
# cross-thread seams — event-loop wakeups, pool-completion posts back onto
# the loop thread, server/loadgen counter handoff (tests/net_test.cpp) —
# the shard workers' concurrent use of one prewarmed device through
# the bit-sliced and scalar eval paths, eval_batch's thread_local
# fallback scratch (AluPuf.NullScratchIsPerThread), and four threads
# sharing one prewarmed, stateless verifier emulator
# (PufEmulator.ConcurrentEmulateAfterPrewarm) — the precondition for
# serving a device's verdicts without an emulator-cache lease — and four
# threads judging CRP entries outside the ledger lock while the on_low
# hook re-enrolls the databases under them
# (CrpLedger.ConcurrentAuthenticateWhileReplenishing).
#
# The plain (and sanitizer) trees also run the cross-process tracing
# fixture trace_merge_pipeline: traced serve + traced loadgen as two OS
# processes over a Unix socket, one live fleet-stats poll mid-flight, then
# `trace-report <client> <server>` must join 100% of wire verdicts into
# linked timelines.  On build-notrace that fixture (and trace_pipeline) is
# not registered, and the span-dependent gtests in trace_merge_test.cpp
# GTEST_SKIP themselves — the wire-format and interop tests still run, so
# the no-trace tree keeps proving the traced/untraced byte compatibility.
#
# Each tree then reruns the torture-labeled seeded kill-and-recover loop
# (tests/store_torture.cpp) with a second seed: random fault points over
# an append workload, gating that follower promotion stays byte-identical
# to direct crash recovery under plain, ASan, TSan, and no-trace builds.
# Tune with TORTURE_ITERS / TORTURE_SEED.
#
# Usage: tools/ci.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
TORTURE_ITERS="${TORTURE_ITERS:-12}"
TORTURE_SEED="${TORTURE_SEED:-49537}"

run_tree() {
  local tree="$1"
  shift
  echo "=== ${tree}: configure ($*) ==="
  cmake -B "${tree}" -S . "$@"
  echo "=== ${tree}: build ==="
  cmake --build "${tree}" -j "${JOBS}"
  echo "=== ${tree}: ctest ==="
  # ${arr[@]+...} keeps `set -u` happy on bash < 4.4 when no args given.
  (cd "${tree}" && ctest --output-on-failure -j "${JOBS}" \
      ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"})
  echo "=== ${tree}: kill-and-recover torture (seed ${TORTURE_SEED}, ${TORTURE_ITERS} iters) ==="
  (cd "${tree}" && \
      STORE_TORTURE_ITERS="${TORTURE_ITERS}" \
      STORE_TORTURE_SEED="${TORTURE_SEED}" \
      ctest --output-on-failure -L torture)
}

CTEST_ARGS=("$@")

run_tree build
run_tree build-asan -DPUFATT_SANITIZE=ON
run_tree build-tsan -DPUFATT_TSAN=ON
# The store's span instrumentation compiles to no-ops here; this leg keeps
# the subsystem (and everything else) honest about not *requiring* tracing.
run_tree build-notrace -DPUFATT_TRACE=OFF

echo "=== ci.sh: all trees green ==="
