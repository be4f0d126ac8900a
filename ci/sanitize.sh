#!/usr/bin/env bash
# Sanitizer CI for the concurrent serving stack and the DP audit harness.
#
# Builds the library + tests under ThreadSanitizer and runs the `concurrent`
# and `incremental` ctest labels (the stress/property suites in
# tests/concurrent_service_test.cc and tests/incremental_test.cc — the
# latter covers concurrent mutation racing keep-or-recompute cache repair),
# then optionally repeats under AddressSanitizer+UBSan for the whole suite,
# and/or runs the DP `audit` label under ASan+UBSan plus the audit-landscape
# bench (gated against the committed BENCH_audit_landscape.json) and the
# 2-hop-kernel bench. Every bench artifact (audit landscape, 2-hop kernels,
# fault matrix) is written under build/, so a CI run never rewrites a
# tracked file; the gates are the binaries' exit codes. Refresh a
# checked-in artifact by copying its build/ counterpart over it on purpose.
#
# Usage:
#   ci/sanitize.sh            # TSAN build + concurrent/incremental labels
#   ci/sanitize.sh --asan     # additionally ASan+UBSan over ALL tests
#   ci/sanitize.sh --audit    # additionally ASan+UBSan over the `audit`
#                             # label, a gate self-test (an injected
#                             # Bonferroni regression must make the gate
#                             # exit non-zero), then bench_audit_landscape
#                             # in gate mode (fresh rows compared against
#                             # the committed BENCH_audit_landscape.json:
#                             # honest-row violations, lost detections,
#                             # certified-bound regressions beyond
#                             # --tolerance, and shrunken Bonferroni cell
#                             # counts all fail CI; its rows go to
#                             # build/BENCH_audit_landscape.json) /
#                             # bench_two_hop_kernels (its timing rows
#                             # go to build/BENCH_two_hop_kernels.json)
#   ci/sanitize.sh --faults   # additionally the fault-injection /
#                             # overload-ladder / audited-degradation
#                             # suites (`faults` label) under BOTH
#                             # sanitizers (TSAN for the 8-thread
#                             # overload stress, ASan+UBSan for the
#                             # fallback routes), a gate self-test (an
#                             # injected unretried fail-serve plan must
#                             # make bench_fault_matrix --audit refuse
#                             # and exit non-zero), then the real
#                             # audited-degradation gate (rows written
#                             # to build/BENCH_fault_matrix.json)
#   ci/sanitize.sh --durability # additionally the crash-safety suites
#                             # (`durability` label: WAL, budget ledger,
#                             # checkpoint/recovery, DP-audited recovery,
#                             # torn-write IO hardening) under BOTH
#                             # sanitizers, a gate self-test (an injected
#                             # ledger_partial_append without recovery
#                             # must make AuditAcrossRecovery REFUSE and
#                             # bench_fault_matrix exit non-zero), then
#                             # the audited-recovery gate (rows written
#                             # to build/BENCH_fault_matrix.json)
#   ci/sanitize.sh --native   # additionally a PRIVREC_NATIVE_ARCH=ON
#                             # (-march=native) smoke build running the
#                             # kernel differential, incremental and
#                             # mechanisms suites, proving the vectorized
#                             # codegen stays bitwise-identical to the
#                             # portable build for both callers of the
#                             # shared radix sort (2-hop finalize and the
#                             # zero-block support index)
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=0
run_audit=0
run_faults=0
run_durability=0
run_native=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --audit) run_audit=1 ;;
    --faults) run_faults=1 ;;
    --durability) run_durability=1 ;;
    --native) run_native=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== [tsan] configure + build ==="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

echo "=== [tsan] ctest -L concurrent ==="
# halt_on_error so a single data race fails the build; second_deadlock_stack
# for readable lock-order reports.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}" \
  ctest --preset tsan-concurrent

echo "=== [tsan] ctest -L incremental ==="
# Incremental-maintenance suite: concurrent mutators racing delta-repair
# serves (journal drain + keep-or-recompute under the shard mutex) is the
# payload; the exact-equality property tests ride along under TSAN too.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}" \
  ctest --preset tsan-incremental

echo "=== [tsan] ctest -L audit ==="
# The audit label under TSAN certifies AuditPairUnderMutation: mirrored
# mutator threads toggling both sides of the neighboring pair while
# measurement serves interleave. Any race between the mutators and the
# delta-repair serving path fails here before it can skew an ε̂ estimate.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}" \
  ctest --preset tsan-audit

if [[ "$run_asan" == "1" ]]; then
  echo "=== [asan] configure + build ==="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  echo "=== [asan] ctest (all) ==="
  ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ctest --preset asan-all
fi

if [[ "$run_audit" == "1" ]]; then
  echo "=== [asan] configure + build (audit label) ==="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  echo "=== [asan] ctest -L audit ==="
  ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ctest --preset asan-audit
  echo "=== [default] audit gate self-test (injected regression) ==="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target bench_audit_landscape
  # Before trusting the gate, prove it can fail: a short run with the
  # Bonferroni correction deliberately collapsed to one cell must exit
  # non-zero against the committed baseline. (The cell-count channel is
  # trial-count independent, so low trials keep this cheap; the
  # halve_noise injection is exercised at the comparator level in
  # tests/audit_gate_test.cc.)
  if ./build/bench_audit_landscape --trials=200 --pairs=1 \
      --baseline=BENCH_audit_landscape.json --tolerance=1000 \
      --inject=drop_bonferroni > /dev/null; then
    echo "audit gate self-test FAILED: injected regression not detected" >&2
    exit 1
  fi
  echo "audit gate self-test OK (injected regression detected)"
  # Same proof for the node-DP trip wire: serving the honest node rows on
  # the raw graph (projection skipped, capped calibration kept —
  # ServiceOptions::uncap_projection) must flip them to certified
  # violations while they keep claiming "honest", and the gate must fail.
  # 800 trials/side keep the Clopper-Pearson bounds decisive on the
  # node-audit fixture at every swept eps.
  if ./build/bench_audit_landscape --trials=800 --pairs=1 \
      --baseline=BENCH_audit_landscape.json --tolerance=1000 \
      --inject=uncap_projection > /dev/null; then
    echo "audit gate self-test FAILED: uncapped projection not detected" >&2
    exit 1
  fi
  echo "audit gate self-test OK (uncapped projection detected)"
  echo "=== [default] bench_audit_landscape -> build/BENCH_audit_landscape.json ==="
  # Gate mode: the fresh landscape must not regress against the committed
  # artifact (honest rows stay clean, certified violations stay certified
  # within --tolerance, Bonferroni cell counts never shrink). The fresh rows
  # go to build/; the committed artifact stays the baseline.
  ./build/bench_audit_landscape --trials=4000 --pairs=3 \
    --baseline=BENCH_audit_landscape.json --tolerance=0.1 \
    --json=build/BENCH_audit_landscape.json
  echo "=== [default] bench_two_hop_kernels -> build/BENCH_two_hop_kernels.json ==="
  cmake --build --preset default -j "$(nproc)" --target bench_two_hop_kernels
  ./build/bench_two_hop_kernels --json=build/BENCH_two_hop_kernels.json
fi

if [[ "$run_faults" == "1" ]]; then
  echo "=== [tsan] ctest -L faults ==="
  # The faults label under TSAN is the overload-ladder stress: 8 threads
  # against fault-stalled shards with admission control + budget-aware
  # shedding armed, plus the mirrored fault-audit drive loops. Any race
  # between the injector's counters, the per-shard inflight gauges, and
  # the accountant fails here before it can corrupt a budget.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}" \
    ctest --preset tsan-faults
  echo "=== [asan] ctest -L faults ==="
  # Same suites under ASan+UBSan: the forced fallback routes (full
  # rebuilds, doomed-window recomputes, abandoned repairs) are exactly the
  # rarely-taken allocation-heavy paths where lifetime bugs hide.
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ctest --preset asan-faults
  echo "=== [default] fault gate self-test (injected fail-serve) ==="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target bench_fault_matrix
  # Before trusting the gate, prove it can fail: an unretried fail_serve
  # plan fails every trial's serve, so AuditPairUnderFaults must REFUSE to
  # certify and the binary must exit non-zero. A zero exit means the gate
  # would certify a service that refused to serve — fail CI.
  if ./build/bench_fault_matrix --inject=snapshot_patch_fail \
      --trials=100 > /dev/null; then
    echo "fault gate self-test FAILED: unretried fail-serve not refused" >&2
    exit 1
  fi
  echo "fault gate self-test OK (audit refused the failed service)"
  echo "=== [default] bench_fault_matrix --audit -> build/BENCH_fault_matrix.json ==="
  # The real gate: degradation matrix + overload ladder (budget exactness
  # checked in-binary) + one AuditPairUnderFaults per fault point; any
  # certified violation, audit error, or never-firing fault point exits
  # non-zero. The rows carry this host's timings, so they go to build/.
  ./build/bench_fault_matrix --audit --json=build/BENCH_fault_matrix.json
fi

if [[ "$run_durability" == "1" ]]; then
  echo "=== [tsan] ctest -L durability ==="
  # The durability label under TSAN: SaveCheckpoint's atomic snapshot view
  # racing mutators, WAL group commit under the writer path, and the
  # recovery audit's mirrored services. fsync-ordering bugs don't race,
  # but the in-memory bookkeeping around them can.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}" \
    ctest --preset tsan-durability
  echo "=== [asan] ctest -L durability ==="
  # Same suites under ASan+UBSan: torn-tail truncation, record parsing of
  # crash-shaped files, and the teardown/recovery object lifecycles are
  # exactly where use-after-free and off-by-one reads would hide.
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ctest --preset asan-durability
  echo "=== [default] recovery gate self-test (injected ledger tear) ==="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target bench_fault_matrix
  # Before trusting the gate, prove it can fail: a lying-fsync ledger tear
  # (ledger_partial_append) loses a durable charge, so the recovered spend
  # under-counts what the pre-crash service charged and AuditAcrossRecovery
  # must REFUSE to certify — the binary must exit non-zero. A zero exit
  # means the gate would certify a recovery that forgot spent budget.
  if ./build/bench_fault_matrix --inject-recovery=ledger_partial_append \
      --trials=100 > /dev/null; then
    echo "recovery gate self-test FAILED: ledger tear not refused" >&2
    exit 1
  fi
  echo "recovery gate self-test OK (audit refused the torn ledger)"
  echo "=== [default] bench_fault_matrix --audit -> build/BENCH_fault_matrix.json ==="
  # The real gate: one AuditAcrossRecovery per recoverable crash point plus
  # the recovery perf rows (checkpoint write cost, WAL replay throughput,
  # recovery time vs journal-window size); any certified violation, audit
  # error, or never-firing crash point exits non-zero. The rows carry this
  # host's timings, so they go to build/.
  ./build/bench_fault_matrix --audit --json=build/BENCH_fault_matrix.json
fi

if [[ "$run_native" == "1" ]]; then
  echo "=== [native] configure + build (-march=native) ==="
  cmake --preset native
  cmake --build --preset native -j "$(nproc)"
  echo "=== [native] ctest (kernel differential + incremental + mechanisms) ==="
  # The bitwise-identity contract must survive the widest codegen the host
  # offers: the differential suite re-checks kernel == naive, the
  # incremental suite re-checks that every entry the keep test clears
  # equals a fresh Compute, and the mechanisms
  # suite re-checks the support-index resolver == its hash-set reference,
  # all under -march=native. The radix sort (common/radix_sort.h) is
  # shared by the 2-hop finalize and the support index, so the smoke run
  # covers both of its callers.
  ctest --preset native-kernels
fi

echo "sanitize: OK"
