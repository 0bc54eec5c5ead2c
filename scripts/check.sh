#!/usr/bin/env bash
# One-shot local mirror of CI: configure + build + ctest + cimlint for a
# preset, plus clang-tidy over src/ when it is installed. Reproduces a red
# CI run in one command.
#
# Usage:
#   scripts/check.sh                 # relwithdebinfo (the tier-1 gate)
#   scripts/check.sh asan-ubsan      # sanitizer matrix leg
#   scripts/check.sh x86-64-v3       # AVX2/FMA target: tier-1 ctest and the
#                                    # determinism replays must hold; prints
#                                    # "skipped" on a host without AVX2/FMA
#   scripts/check.sh all             # every CI leg in sequence
#   scripts/check.sh --lint-only     # cimlint diff-baseline gate + docs links,
#                                    # then a report-only src/ line count
set -euo pipefail

cd "$(dirname "$0")/.."

# The cimlint diff-baseline gate: new findings fail, individually justified
# ones (tools/cimlint/baseline.json) pass, stale entries fail. Builds only
# the linter, so it runs in seconds and fronts the expensive build legs.
run_lint() {
  local preset="${1:-relwithdebinfo}"
  local build_dir="build/$preset"
  if [[ ! -x "$build_dir/tools/cimlint/cimlint" ]]; then
    if [[ -d "$build_dir" ]]; then
      cmake --build --preset "$preset" --target cimlint -j "$(nproc)"
    else
      # No preset tree yet: lint-only configure, which skips find_package
      # for gtest/benchmark — the gate runs on a machine with only cmake.
      build_dir="build/lint"
      cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
            -DCIM_LINT_ONLY=ON >/dev/null
      cmake --build "$build_dir" --target cimlint -j "$(nproc)"
    fi
  fi
  echo "==> [$preset] cimlint (diff-baseline)"
  "$build_dir/tools/cimlint/cimlint" --root . --diff-baseline \
      src bench examples tests tools
  echo "==> [$preset] docs link check"
  scripts/check_docs_links.sh
}

# True when the host CPU can run -march=x86-64-v3 code (AVX2 and FMA in the
# /proc/cpuinfo flags).
host_runs_x86_64_v3() {
  grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo
}

run_preset() {
  local preset="$1"
  if [[ "$preset" == "x86-64-v3" ]] && ! host_runs_x86_64_v3; then
    echo "==> [$preset] skipped: host CPU lacks AVX2/FMA (/proc/cpuinfo)"
    return 0
  fi
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  # Lint before the full build: a layering or determinism finding should
  # fail the run before minutes of compiling.
  run_lint "$preset"
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$(nproc)"
  if [[ "$preset" == "werror" ]]; then
    # werror is a build-only gate: it proves the tree stays
    # -Werror -Wconversion clean.
    return 0
  fi
  if [[ "$preset" == "tsan" ]]; then
    # tsan builds everything but runs only the concurrency-labeled suites
    # (the preset's test filter): ThreadSanitizer on the thread pool and
    # the batched DPE runtime. The serve label runs explicitly on top —
    # the dispatcher thread and re-entrant handlers are the most
    # concurrency-dense code in the repo, and the label reaches the bench
    # smoke the concurrency filter would skip.
    echo "==> [$preset] ctest (concurrency label)"
    ctest --preset "$preset"
    echo "==> [$preset] ctest (serve label)"
    ctest --test-dir "build/$preset" -L serve --output-on-failure
    echo "==> [$preset] ctest (fabric label)"
    ctest --test-dir "build/$preset" -L fabric --output-on-failure
    echo "==> [$preset] ctest (dse label)"
    ctest --test-dir "build/$preset" -L dse --output-on-failure
    return 0
  fi
  echo "==> [$preset] ctest"
  ctest --preset "$preset"
  echo "==> [$preset] ctest (serve label)"
  ctest --preset "$preset" -L serve
  echo "==> [$preset] ctest (fabric label)"
  ctest --preset "$preset" -L fabric
  echo "==> [$preset] ctest (dse label)"
  ctest --preset "$preset" -L dse
  if [[ "$preset" == "relwithdebinfo" || "$preset" == "x86-64-v3" ]]; then
    # On x86-64-v3 the replays show that results do not depend on whether
    # the target ISA could fuse multiply-adds (src/ builds with
    # -ffp-contract=off).
    run_fault_determinism_gate "$preset"
    run_serve_determinism_gate "$preset"
    run_fabric_determinism_gate "$preset"
    run_dse_determinism_gate "$preset"
  fi
  if [[ "$preset" == "relwithdebinfo" ]]; then
    run_perf_gate "$preset"
  fi
}

# Perf gate: the perf-labeled suites (fast-vs-reference differential tests
# + the kFastNoise statistical-equivalence suite + both bench smokes) plus
# the full bench artifact build (scripts/bench_json.sh), which enforces the
# kernel speedup gates and the serving availability/recovery gates and
# writes the merged BENCH_PR10.json — the artifact CI uploads and
# EXPERIMENTS.md documents.
run_perf_gate() {
  local preset="$1"
  echo "==> [$preset] ctest (perf label)"
  ctest --preset "$preset" -L perf
  echo "==> [$preset] bench artifact (speedup + availability gates, BENCH_PR10.json)"
  scripts/bench_json.sh
}

# Serving replay gate: every figure bench_serve_latency reports is derived
# from the service's virtual clock, so two runs at the same seed must write
# byte-identical JSON. A diff means batching, backoff, WFQ or the SLA loop
# picked up hidden wall-clock or scheduling dependence.
run_serve_determinism_gate() {
  local preset="$1"
  local bench="./build/$preset/bench/bench_serve_latency"
  if [[ ! -x "$bench" ]]; then
    echo "==> [$preset] serve determinism gate: bench not built; skipping"
    return 0
  fi
  echo "==> [$preset] serve determinism gate (two identical replays)"
  local run1 run2
  run1="$(mktemp)" && run2="$(mktemp)"
  "$bench" --smoke --json "$run1" > /dev/null
  "$bench" --smoke --json "$run2" > /dev/null
  if ! diff -u "$run1" "$run2"; then
    echo "FAIL: serve bench JSON diverged between identical runs"
    rm -f "$run1" "$run2"
    return 1
  fi
  rm -f "$run1" "$run2"
}

# Fabric replay gate: the fabric co-simulation's smoke JSON holds only
# virtual-time numbers and gate verdicts (wall-clock figures are full-mode
# only), so two runs must write byte-identical JSON. A diff means the
# epoch-barrier scheme, the flat NoC path or the partitioner picked up
# hidden scheduling or iteration-order dependence.
run_fabric_determinism_gate() {
  local preset="$1"
  local bench="./build/$preset/bench/bench_fabric_cosim"
  if [[ ! -x "$bench" ]]; then
    echo "==> [$preset] fabric determinism gate: bench not built; skipping"
    return 0
  fi
  echo "==> [$preset] fabric determinism gate (two identical replays)"
  local run1 run2
  run1="$(mktemp)" && run2="$(mktemp)"
  "$bench" --smoke --json "$run1" > /dev/null
  "$bench" --smoke --json "$run2" > /dev/null
  if ! diff -u "$run1" "$run2"; then
    echo "FAIL: fabric bench JSON diverged between identical runs"
    rm -f "$run1" "$run2"
    return 1
  fi
  rm -f "$run1" "$run2"
}

# DSE replay gate: the sweep artifact is a pure function of the spec and
# the root seed (every point derives its own RNG streams), so two full
# sweeps must write byte-identical JSON. A diff means a design point picked
# up state from thread scheduling or from a neighbouring point.
run_dse_determinism_gate() {
  local preset="$1"
  local bench="./build/$preset/bench/bench_dse_sweep"
  if [[ ! -x "$bench" ]]; then
    echo "==> [$preset] dse determinism gate: bench not built; skipping"
    return 0
  fi
  echo "==> [$preset] dse determinism gate (two identical replays)"
  local run1 run2
  run1="$(mktemp)" && run2="$(mktemp)"
  "$bench" --smoke --json "$run1" > /dev/null
  "$bench" --smoke --json "$run2" > /dev/null
  if ! diff -u "$run1" "$run2"; then
    echo "FAIL: dse sweep JSON diverged between identical runs"
    rm -f "$run1" "$run2"
    return 1
  fi
  rm -f "$run1" "$run2"
}

# Replay determinism gate: the fault ablation drives scenario-seeded
# injection, ABFT detection and retry/remap/degrade recovery end to end and
# prints every availability/accuracy figure it derives. Same seeds + same
# scenarios must reproduce the exact same bytes on a second run — any diff
# means a FaultLog or recovery path picked up hidden nondeterminism.
run_fault_determinism_gate() {
  local preset="$1"
  local bench="./build/$preset/bench/bench_ablation_faults"
  if [[ ! -x "$bench" ]]; then
    echo "==> [$preset] fault determinism gate: bench not built; skipping"
    return 0
  fi
  echo "==> [$preset] fault determinism gate (two identical replays)"
  local run1 run2
  run1="$(mktemp)" && run2="$(mktemp)"
  "$bench" > "$run1"
  "$bench" > "$run2"
  if ! diff -u "$run1" "$run2"; then
    echo "FAIL: fault-injection replay diverged between identical runs"
    rm -f "$run1" "$run2"
    return 1
  fi
  rm -f "$run1" "$run2"
}

run_clang_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy not installed; skipping (CI runs it on changed files)"
    return 0
  fi
  echo "==> clang-tidy (src/)"
  local build_dir="build/relwithdebinfo"
  [[ -f "$build_dir/compile_commands.json" ]] || cmake --preset relwithdebinfo
  find src -name '*.cc' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "$build_dir" --quiet
}

target="${1:-relwithdebinfo}"
case "$target" in
  --lint-only)
    run_lint relwithdebinfo
    echo "==> src/ line count (report only)"
    scripts/src_lines.sh
    echo "==> lint gate passed"
    exit 0
    ;;
  all)
    run_preset relwithdebinfo
    run_preset asan-ubsan
    run_preset tsan
    run_preset x86-64-v3
    run_preset werror
    run_clang_tidy
    ;;
  *)
    run_preset "$target"
    run_clang_tidy
    ;;
esac

echo "==> all checks passed"
