#!/usr/bin/env bash
# Tier-1 verification, five legs: a plain build (plus the golden study
# digest assertion, the telemetry ns/op budget gate and the GSM read
# zero-allocation gate), a warnings-as-errors build, an address+UB-sanitized
# one, a thread-sanitized build that runs the Sharding-labeled tests (the
# telemetry registry/tracer hammer, the sharded-cloud hammer, the
# router/cloud suites, and the parallel deployment study) together with the
# SchedulerPerf battery (the batched sensing hot loop raced across 8
# workers), the Concurrency battery (striped counters / sharded histograms /
# metric handles), and the Alerting battery (recorder + alert engine), and a
# chaos leg that re-runs the Robustness-labeled fault/outbox/breaker tests
# under asan together with Caching, Alerting, and the Population
# study-runner battery.
# The golden-digest gate runs the study at two wave shapes (the default
# wave, which holds all 4 participants, and --wave 1, a barrier after
# every participant) against tests/golden/study_digest.txt, then again
# under the pinned device-chaos plan (crash/restart injection, privacy
# wipes, late joins) against tests/golden/study_digest_crash.txt. A churn
# gate then requires churn's fault plan to give the same sync failures,
# outbox enqueues and digest at 1 thread and in three 4-thread runs. The
# stdout of three paper benches (Figure 1 energy, A1 triggered sensing, A2
# interfaces) must then match tests/golden/bench_*.txt byte for byte. After
# them, the benchmark's own self-test guards that perfbench/ still builds
# and runs.
# Usage: ./ci.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")"

run_suite() {
  local build_dir="$1"
  # Extra ctest selection args, e.g. "-L Sharding" (label) or "-R Foo"
  # (name regex); empty runs everything.
  local test_selector="$2"
  shift 2
  echo "=== configure + build: ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ctest: ${build_dir} ==="
  (cd "${build_dir}" &&
   ctest --output-on-failure -j "$(nproc)" ${test_selector})
}

run_suite build "" "$@"

# Golden-digest gate: the deployment study must stay byte-identical to the
# committed digest (tests/golden/study_digest.txt). GSM fading is a pure
# function of (device key, time, cell), so it no longer depends on draw
# order or on how many cells a read fades; the other streams (RAT flips,
# WiFi, GPS, mobility, network, chaos) still do, and the gate catches any
# perf change that quietly reorders their draws or drops samples. Runs
# with --progress and the timeseries recorder + alert engine at defaults
# (fully on), so the gate also proves telemetry never perturbs the study.
echo "=== golden study digest (telemetry fully enabled) ==="
golden_digest="$(cat tests/golden/study_digest.txt)"
# Both wave shapes must reproduce the committed digest: the default wave
# admits all 4 participants at once, --wave 1 retires each participant
# before admitting the next. An empty wave_args means the default wave.
for wave_args in "" "--wave 1"; do
  wave_name="${wave_args:-default wave}"
  study_out="$(./build/examples/studyctl --participants 4 --days 3 \
      --threads 2 --shards 4 ${wave_args} --progress 2>/dev/null)"
  actual_digest="$(sed -n 's/^cloud content digest: //p' <<<"${study_out}")"
  if [[ "${actual_digest}" != "${golden_digest}" ]]; then
    echo "golden digest mismatch (${wave_name}): got" \
         "'${actual_digest}', expected '${golden_digest}'" >&2
    exit 1
  fi
  echo "study digest ${actual_digest} matches golden (${wave_name})"
  # Printed, not gated: the request bytes the wire codec put on the wire.
  grep -m1 'wire bytes sent:' <<<"${study_out}" | sed 's/^ *//' || true
done

# Crashed-study golden gate: the same study under a pinned device-lifecycle
# chaos plan (mid-day crashes with checkpoint/restore recovery, end-of-day
# privacy wipes, late joins) must also stay byte-identical across wave
# shapes — crash/restart scheduling rides the same deterministic RNG
# contract as the healthy path.
echo "=== golden study digest (device chaos plan) ==="
crash_plan="crash=0d..2d,crash_rate=0.5,restart_delay=2h;wipe=1d..2d,wipe_rate=0.5;join=0d..2d,join_rate=0.5"
crash_golden="$(cat tests/golden/study_digest_crash.txt)"
for wave_args in "" "--wave 1"; do
  wave_name="${wave_args:-default wave}"
  actual_digest="$(./build/examples/studyctl --participants 4 --days 3 \
      --threads 2 --shards 4 ${wave_args} \
      --fault-plan "${crash_plan}" 2>/dev/null |
    sed -n 's/^cloud content digest: //p')"
  if [[ "${actual_digest}" != "${crash_golden}" ]]; then
    echo "crashed-study digest mismatch (${wave_name}): got" \
         "'${actual_digest}', expected '${crash_golden}'" >&2
    exit 1
  fi
  echo "crashed-study digest ${actual_digest} matches golden (${wave_name})"
done

# Churn determinism gate: under churn's fault plan (perfbench/README.md:
# route 5xx plus crash, wipe and join), which requests fail is a pure
# function of each request, never of the order the worker threads happened
# to register users in (that order assigns user ids). So 1 thread and each
# of three 4-thread runs must agree on the sync failure count, the outbox
# enqueue count and the content digest. Sized at 16 x 4 days (~1 s in
# all): when a profile PUT body carried its user id, a 4-thread run of
# this shape matched the 1-thread counts in only 2 of 8 tries.
echo "=== churn sync determinism (1 vs 4 threads) ==="
churn_plan="route=/api/users,error=0.2,from=1d,to=5d;crash=1d..6d,crash_rate=0.3,restart_delay=2h;wipe=3d..4d,wipe_rate=0.2;join=0d..2d,join_rate=0.3"
churn_outcome() {
  ./build/examples/studyctl --participants 16 --days 4 --threads "$1" \
      --fault-plan "${churn_plan}" 2>/dev/null |
    grep -E '^ *sync failures:|^ *outbox enqueued:|^cloud content digest:' |
    sed -e 's/^ *//' -e 's/ *(.*//'
}
churn_1="$(churn_outcome 1)"
if [[ "$(wc -l <<<"${churn_1}")" -ne 3 ]]; then
  echo "churn study printed no sync outcome:" >&2; echo "${churn_1}" >&2
  exit 1
fi
for run in 1 2 3; do
  churn_4="$(churn_outcome 4)"
  if [[ "${churn_1}" != "${churn_4}" ]]; then
    echo "churn sync outcome differs between 1 and 4 threads (run ${run}):" >&2
    echo "--- 1 thread:" >&2; echo "${churn_1}" >&2
    echo "--- 4 threads:" >&2; echo "${churn_4}" >&2
    exit 1
  fi
done
echo "churn sync outcome identical at 1 thread and 3 x 4 threads:"
sed 's/^/  /' <<<"${churn_1}"

# Paper-bench golden gate: bench_fig1_energy, bench_ablation_triggered and
# bench_ablation_interfaces are deterministic and take under a second
# together, so their whole stdout (energy tables, sample counts, place
# accuracy per interface) is pinned. A scheduler or energy-meter change that
# moves a single sample or joule shows up as a diff here.
echo "=== paper bench outputs vs golden ==="
for bench in fig1_energy ablation_triggered ablation_interfaces; do
  golden="tests/golden/bench_${bench}.txt"
  if ! diff -u "${golden}" <("./build/bench/bench_${bench}" 2>/dev/null); then
    echo "bench_${bench} stdout differs from ${golden}" >&2
    exit 1
  fi
  echo "bench_${bench} matches ${golden}"
done

# Benchmark build guard: perfbench/ compiles ../src with its own CMake
# (into .bench_build), so an src/ API change can break the benchmark
# without touching any target above. The self-test builds it, runs every
# workload at smoke size, traced and untraced, and checks the traced
# composition's cloud digest against the untraced run.
echo "=== perfbench self-test ==="
python3 perfbench/run.py --selftest

# Telemetry budget gate: 8 threads hammer the metric hot paths; asserts
# exact totals, the lock-free handle path beating the registry-lookup path,
# and absolute ns/op ceilings (see bench_micro_algorithms.cpp).
echo "=== telemetry ns/op budget ==="
./build/bench/bench_micro_algorithms --assert-telemetry-budget

# GSM read zero-allocation gate: BM_DeviceReadGsm/1 (the cached read on a
# dwelling participant) marks itself with an error when a steady-state
# read_gsm_into allocates. google-benchmark still exits 0 then, so the
# output is checked for the error and for the /1 row itself.
echo "=== GSM read zero-allocation ==="
gsm_bench="$(./build/bench/bench_micro_algorithms \
    --benchmark_filter=BM_DeviceReadGsm 2>&1)"
grep '^BM_DeviceReadGsm' <<<"${gsm_bench}" || true
if grep -q 'ERROR OCCURRED' <<<"${gsm_bench}" ||
   ! grep -q '^BM_DeviceReadGsm/1 ' <<<"${gsm_bench}"; then
  echo "BM_DeviceReadGsm reported an error or did not run" >&2
  exit 1
fi

# -Wall -Wextra are always on; this build promotes them to errors so new
# warnings fail CI instead of scrolling by.
run_suite build-werror "" -DPMWARE_WERROR=ON "$@"
run_suite build-asan "" -DPMWARE_SANITIZE="address;undefined" "$@"
# tsan cannot combine with asan; a third build runs just the tests that
# exercise threads (everything else is single-threaded by design). The
# Caching label rides along: its cache-on/off equivalence studies run the
# device GCA cache across 8 worker threads and 16 shards. SchedulerPerf
# races the batched dispatch loop and the device env cache under tsan.
# Concurrency races the striped-counter / sharded-histogram / handle hot
# paths; Alerting races the recorder + engine through the parallel study's
# determinism guard. Population races the wave scheduler's workers against
# the shared fold state and slot arenas. Lifecycle races the crashed-study
# determinism battery (checkpoint/restore and churn across shards x
# threads x wave).
run_suite build-tsan "-L Sharding|Caching|SchedulerPerf|Concurrency|Alerting|Population|Lifecycle" -DPMWARE_SANITIZE="thread" "$@"
# Chaos leg: the fault-injection / outbox / circuit-breaker battery again
# under asan+ubsan, isolated so failures point straight at the recovery
# machinery (the Robustness label also carries the GSM fading cutoff's
# differential, serving-digest and config-validation tests, so the
# per-radio layer search runs under asan+ubsan too), plus the cache battery (the cached study under an outage plan,
# digest invalidation) and the alerting battery (rule evaluation over the
# failure counters those faults drive). Reuses the sanitized build above.
# Population rides along so the bounded-memory guarantee is asserted under
# asan (every engine-log allocation routed through the slot arenas).
# Lifecycle runs the checkpoint/restore corruption battery and the
# crash/wipe/churn study under asan, where a half-applied restore or a
# stale pointer across a PMS teardown/reboot would trip immediately.
# Robustness also carries the discover-decoder battery
# (Robustness.MalformedDiscoverBodiesAreRejectedWhole): malformed columnar
# offload bodies — mismatched columns, out-of-range or non-numeric cell
# indices, a non-array or out-of-range cell table, missing columns — must
# answer 400 without touching the retained GSM stream, so an out-of-bounds
# index or a half-applied suffix trips asan+ubsan here.
echo "=== ctest: build-asan chaos (-L Robustness|Caching|Alerting|Population|Lifecycle) ==="
(cd build-asan && ctest --output-on-failure -j "$(nproc)" -L "Robustness|Caching|Alerting|Population|Lifecycle")

echo "ci.sh: all five suites passed"
