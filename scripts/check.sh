#!/usr/bin/env bash
# Correctness gate for AutoIndex: static analysis (lint framework +
# analyzer self-test + clang-tidy + Clang thread-safety analysis), a
# hardened (-Werror) build, and the tier-1 suite under
# AddressSanitizer + UndefinedBehaviorSanitizer and ThreadSanitizer.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer builds/runs (static analysis + plain
#            -Werror build only)
#
# Exits non-zero on the first failing stage.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==== %s ====\n' "$*"; }

step "lint (scripts/lint.py — scripts/analysis framework)"
python3 scripts/lint.py src

step "lint self-test (analyzer corpus)"
python3 tests/analysis/run_corpus_test.py

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Library sources only; tests/benches inherit the same headers anyway.
  # Any tidy diagnostic fails the gate.
  find src -name '*.cc' | xargs clang-tidy -p build-tidy --quiet \
    --warnings-as-errors='*'
else
  echo "SKIPPED: clang-tidy not installed (lint framework rules still enforced)"
fi

step "thread-safety analysis (clang -Wthread-safety)"
CLANGXX=""
for cand in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15; do
  if command -v "${cand}" >/dev/null 2>&1; then
    CLANGXX="${cand}"
    break
  fi
done
if [[ -n "${CLANGXX}" ]]; then
  # A dedicated clang build with -Wthread-safety promoted to an error:
  # the capability annotations in src/util/thread_annotations.h only
  # expand under clang, so this is the one stage that proves the lock
  # discipline (GUARDED_BY/REQUIRES/EXCLUDES) at compile time.
  cmake -B build-tsa -S . \
    -DCMAKE_CXX_COMPILER="${CLANGXX}" \
    -DAUTOINDEX_THREAD_SAFETY=ON \
    -DAUTOINDEX_WERROR=ON >/dev/null
  cmake --build build-tsa -j "${JOBS}"
else
  echo "SKIPPED: no clang++ found — thread-safety annotations compile to"
  echo "         nothing under this toolchain, so the lock discipline is"
  echo "         NOT being verified at compile time on this machine."
fi

step "hardened build (-Werror)"
cmake -B build-werror -S . -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-werror -j "${JOBS}"

step "tier-1 tests (plain build)"
ctest --test-dir build-werror -L tier1 --output-on-failure

step "index lifecycle tests (plain build)"
ctest --test-dir build-werror -L lifecycle --output-on-failure

step "bench smoke (micro benchmarks, short deterministic mode)"
ctest --test-dir build-werror -L bench-smoke --output-on-failure

step "recovery tests (snapshot/WAL crash matrix, plain build)"
ctest --test-dir build-werror -L recovery --output-on-failure

step "net tests (wire protocol + server, plain build)"
ctest --test-dir build-werror -L net --output-on-failure

# End-to-end service drill (DESIGN.md §12): boot autoindex_server on an
# ephemeral port, drive it with the remote bench over loopback, stop it
# with the shell's \shutdown, and demand a clean drain — the server exits
# non-zero when any connection leaked or an admitted statement got no
# response, so `wait` alone enforces the invariant.
net_e2e() {
  local bindir="$1"
  local log
  log="$(mktemp)"
  "${bindir}/examples/autoindex_server" --workload tpcc --port 0 \
    >"${log}" 2>&1 &
  local srv=$!
  local port=""
  for _ in $(seq 1 150); do
    port="$(awk '/^LISTENING/ {print $2}' "${log}")"
    [[ -n "${port}" ]] && break
    sleep 0.2
  done
  if [[ -z "${port}" ]]; then
    echo "FAIL: server never reported LISTENING"
    cat "${log}"
    kill "${srv}" 2>/dev/null || true
    return 1
  fi
  "${bindir}/bench/bench_concurrent" --short --connect "127.0.0.1:${port}"
  printf '\\shutdown\n' | \
    "${bindir}/examples/autoindex_shell" --connect "127.0.0.1:${port}"
  if ! wait "${srv}"; then
    echo "FAIL: server exited dirty (leaked connection or lost statement)"
    cat "${log}"
    return 1
  fi
  grep -q '^SHUTDOWN clean' "${log}"
  rm -f "${log}"
}

step "net end-to-end (server + remote bench + \\shutdown over loopback)"
net_e2e build-werror

step "metrics overhead gate (ON vs AUTOINDEX_METRICS=OFF, bench_concurrent --short)"
# The observability layer's contract (DESIGN.md §11) is < 5% overhead on
# the concurrent bench. Build a metrics-free baseline of the bench
# binaries, run both min-of-3 (min is the right statistic for noise: the
# fastest run is the least-perturbed one), and compare TOTAL_WALL_MS.
# AUTOINDEX_METRICS=OFF also compiles out request-scoped tracing
# (DESIGN.md §13) — every ScopedTrace/ScopedSpan in the hot path becomes
# a no-op, and with it the histogram sample each span records — so this
# same budget gates the combined metrics + tracing cost, including the
# per-statement span recording the bench drives through the server's
# net.request traces.
cmake -B build-nometrics -S . -DAUTOINDEX_METRICS=OFF >/dev/null
cmake --build build-nometrics -j "${JOBS}" --target bench_concurrent \
  micro_benchmarks
bench_min_ms() {
  local binary="$1" best="" ms
  for _ in 1 2 3; do
    ms="$("${binary}" --short | awk '/^TOTAL_WALL_MS/ {print $2}')"
    if [[ -z "${best}" ]] || awk -v a="${ms}" -v b="${best}" \
        'BEGIN {exit !(a < b)}'; then
      best="${ms}"
    fi
  done
  echo "${best}"
}
ON_MS="$(bench_min_ms build-werror/bench/bench_concurrent)"
OFF_MS="$(bench_min_ms build-nometrics/bench/bench_concurrent)"
echo "metrics ON:  ${ON_MS} ms (min of 3)"
echo "metrics OFF: ${OFF_MS} ms (min of 3)"
# 5% relative plus a 20 ms absolute grace so sub-second --short runs
# don't fail on scheduler jitter alone.
python3 - "${ON_MS}" "${OFF_MS}" <<'EOF'
import sys
on, off = float(sys.argv[1]), float(sys.argv[2])
budget = off * 1.05 + 20.0
if on > budget:
    sys.exit(f"FAIL: metrics-on {on:.1f} ms exceeds budget {budget:.1f} ms "
             f"(baseline {off:.1f} ms + 5% + 20 ms grace)")
print(f"OK: overhead {on - off:+.1f} ms ({(on / off - 1) * 100:+.1f}%) "
      f"within budget")
EOF
# Per-statement cost, printed next to the gate and not gated: the wall
# time above is mostly long statements and tuning, which hides what a
# short statement pays. BM_ExecutePointSelect is one pre-parsed indexed
# point SELECT through Session::Execute. The two builds run interleaved,
# pinned to one CPU when taskset exists; the ratio compares the minimum
# of 10 runs of each.
python3 - build-werror/bench/micro_benchmarks \
  build-nometrics/bench/micro_benchmarks <<'EOF'
import json, shutil, subprocess, sys
pin = ["taskset", "-c", "0"] if shutil.which("taskset") else []
def ns_per_statement(binary):
    out = subprocess.run(
        pin + [binary, "--benchmark_filter=^BM_ExecutePointSelect$",
               "--benchmark_min_time=0.2", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    bench = json.loads(out)["benchmarks"][0]
    assert bench["time_unit"] == "ns", bench["time_unit"]
    return bench["real_time"]
on_runs, off_runs = [], []
for _ in range(10):
    on_runs.append(ns_per_statement(sys.argv[1]))
    off_runs.append(ns_per_statement(sys.argv[2]))
on, off = min(on_runs), min(off_runs)
print(f"BM_ExecutePointSelect: ON {on:.0f} ns, OFF {off:.0f} ns per "
      f"statement (min of 10 interleaved): ON/OFF {on / off:.2f}")
EOF

step "tier-1 tests (AUTOINDEX_METRICS=OFF)"
# Metrics and tracing compiled out must still give a working engine; the
# tests that assert on recorded metrics or traces skip in this build.
cmake --build build-nometrics -j "${JOBS}"
ctest --test-dir build-nometrics -L tier1 --output-on-failure

if [[ "${FAST}" == "1" ]]; then
  step "OK (fast mode: sanitizer stages skipped)"
  exit 0
fi

step "sanitizer build (ASan + UBSan, -Werror, Debug)"
# Debug, unlike every other stage (RelWithDebInfo sets NDEBUG): the
# sanitizer stages are also where the engine's debug assertions run, such
# as PrefixResolver's check that a memoised ColumnRef was not changed or
# freed.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DAUTOINDEX_SANITIZE=address,undefined -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-asan -j "${JOBS}"

step "tier-1 tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L tier1 --output-on-failure

step "fuzz + property tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L 'property|fuzz' --output-on-failure

step "recovery tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L recovery --output-on-failure

step "net tests under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan -L net --output-on-failure

step "net end-to-end under ASan + UBSan"
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  net_e2e build-asan

step "sanitizer build (TSan, -Werror)"
cmake -B build-tsan -S . \
  -DAUTOINDEX_SANITIZE=thread -DAUTOINDEX_WERROR=ON >/dev/null
cmake --build build-tsan -j "${JOBS}"

step "tier-1 + concurrency + lifecycle tests under TSan"
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ctest --test-dir build-tsan -L 'tier1|concurrency|lifecycle' \
  --output-on-failure

step "OK"
