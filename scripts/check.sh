#!/usr/bin/env bash
# Full local gate, mirroring .github/workflows/ci.yml:
#   1. invariant lint self-test, then the lint itself (threading /
#      memory-order / payload / seed rules), and the benchmark driver's
#      self-test,
#   2. Release build (-DAMTFMM_WERROR=ON) + complete test suite, the runtime/pipeline tests
#      re-run pinned to one CPU (taskset -c 0) and three times in random
#      order (with the net/serve tests), plus the kernel/operator tests
#      re-run with AMTFMM_FORCE_ISA=scalar (SIMD dispatch pinned off),
#      followed by the static concurrency contract when clang++ exists:
#      -Wthread-safety -Werror build, tests/static try_compile proofs,
#      and the amtfmm_lint AST analyzer over the compilation database,
#   3. rtcheck model-checker sweep (exhaustive DFS + seeded mutations + PCT),
#   4. Debug build (-DAMTFMM_WERROR=ON) of the multi-locality parity /
#      LCO-semantics tests (assertions and the GAS/ownership debug checks
#      enabled),
#   5. ThreadSanitizer build of the concurrency-sensitive targets,
#   6. AddressSanitizer build + complete test suite,
#   7. UndefinedBehaviorSanitizer build + complete test suite,
#   8. clang-format check (skipped when clang-format is unavailable),
#   9. benchmark smoke run with Google Benchmark's JSON output, then the
#      self-checking per-ISA SIMD kernel sweep (also with the ISA forced to
#      scalar) and socket transport sweep,
#  10. multi-process parity: amtfmm_launch forks real socket localities
#      (unix + tcp, 2 and 4 processes, both coalescing modes) and
#      amtfmm_serve asserts multi-process == in-process potentials at
#      1e-12 and exact wire-byte parity with the in-process and sim runs,
#      then the resident steady-state bounds (re-arm ratio, throughput,
#      latency tail) in process and on a 2-process world.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== Invariant lint (self-test, then tree), benchmark self-test =="
python3 scripts/test_lint_invariants.py
python3 scripts/lint_invariants.py
python3 fmmbench/test_run.py

echo "== Release build (warnings are errors) + full test suite =="
cmake -B build -S . -DAMTFMM_WERROR=ON >/dev/null
cmake --build build -j"$JOBS"
# Top-level CMakeLists exports the compilation database; surface it at the
# repo root for clangd, run-clang-tidy, and amtfmm_lint -p defaults.
ln -sf build/compile_commands.json compile_commands.json
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== Static concurrency contract (clang legs) =="
# Mirrors the CI static-analysis job: a clang build carries
# -Wthread-safety -Werror=thread-safety (top-level CMakeLists), builds
# amtfmm_lint when the Clang CMake package is present, and runs the
# tests/static try_compile proofs plus the AST analyzer over the full
# compilation database.  GCC-only hosts skip with a notice — the regex
# lint above and CI remain the gate.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-static -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_C_COMPILER=clang >/dev/null
  cmake --build build-static -j"$JOBS"
  ctest --test-dir build-static --output-on-failure -j"$JOBS" \
    -R 'StaticTsa|AmtfmmLint'
else
  echo "clang++ not installed; skipping thread-safety + amtfmm_lint legs" \
       "(CI enforces them)"
fi

echo "== Robustness: runtime/pipeline tests pinned to one CPU =="
taskset -c 0 ctest --test-dir build --output-on-failure \
  -R 'EvalPipeline|Engine|Executor|Coalesc|SimReal|Trace|Counter'
echo "== Robustness: repeated, randomized-order runtime/net/serve tests =="
ctest --test-dir build --output-on-failure -j"$JOBS" \
  --repeat until-fail:3 --schedule-random \
  -R 'EvalPipeline|Engine|Executor|Coalesc|SimReal|Trace|Counter|Net|Serve'

echo "== Kernel/operator tests with SIMD dispatch forced to scalar =="
AMTFMM_FORCE_ISA=scalar ctest --test-dir build --output-on-failure \
  -j"$JOBS" -R 'Simd|Kernel|M2lRotation|Evaluator|Engine|Dag'

echo "== rtcheck: exhaustive DFS sweep =="
./build/tools/rtcheck --mode dfs
echo "== rtcheck: seeded-mutation detection =="
for m in steal-bottom-relaxed lco-set-input-no-lock \
         coalescer-count-after-insert gas-resolve-relaxed \
         counters-count-early; do
  ./build/tools/rtcheck --mutation "$m"
done
echo "== rtcheck: randomized (PCT) quick pass =="
./build/tools/rtcheck --mode pct --executions 64 --seed 1

echo "== Debug build (multi-locality parity, LCO semantics, GAS checks) =="
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug -DAMTFMM_WERROR=ON \
  >/dev/null
cmake --build build-debug -j"$JOBS" --target \
  expansion_lco_test gas_test evaluator_test sim_test
ctest --test-dir build-debug --output-on-failure -j"$JOBS" \
  -R 'MultiLocality|ExpansionLco|GasTest|GasDeathTest'

echo "== ThreadSanitizer build (runtime stress tests) =="
cmake -B build-tsan -S . -DAMTFMM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target \
  ws_deque_test executor_test coalescer_test trace_test gas_test \
  counters_test net_frame_test net_transport_test flight_recorder_test
./build-tsan/tests/runtime/ws_deque_test
./build-tsan/tests/runtime/executor_test
./build-tsan/tests/runtime/coalescer_test
./build-tsan/tests/runtime/trace_test
./build-tsan/tests/runtime/gas_test
./build-tsan/tests/runtime/counters_test
./build-tsan/tests/runtime/net_frame_test
./build-tsan/tests/runtime/net_transport_test
./build-tsan/tests/runtime/flight_recorder_test

echo "== AddressSanitizer build + full test suite =="
cmake -B build-asan -S . -DAMTFMM_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan --output-on-failure -j"$JOBS"

echo "== UndefinedBehaviorSanitizer build + full test suite =="
cmake -B build-ubsan -S . -DAMTFMM_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j"$JOBS"

echo "== clang-format check =="
if command -v clang-format >/dev/null 2>&1; then
  git ls-files 'src/**/*.hpp' 'src/**/*.cpp' 'bench/*.hpp' 'bench/*.cpp' \
    'tests/**/*.cpp' 'examples/*.cpp' \
    | xargs clang-format --dry-run -Werror
else
  echo "clang-format not installed; skipping (CI enforces it)"
fi

echo "== Benchmark smoke (Google Benchmark JSON) =="
mkdir -p build/bench-smoke
./build/bench/micro_operators --benchmark_min_time=0.05 \
  --benchmark_out=build/bench-smoke/micro_operators.json \
  --benchmark_out_format=json
./build/bench/micro_runtime --benchmark_min_time=0.05 \
  --benchmark_out=build/bench-smoke/micro_runtime.json \
  --benchmark_out_format=json

echo "== SIMD kernel sweep (self-gated; native, then forced scalar) =="
./build/bench/micro_operators --kernel-sweep
AMTFMM_FORCE_ISA=scalar ./build/bench/micro_operators --kernel-sweep

echo "== Socket transport sweep (self-gated) =="
./build/bench/micro_runtime --transport-sweep

echo "== Multi-process parity (real socket localities) =="
for np in 2 4; do
  for transport in unix tcp; do
    for coalesce in true false; do
      ./build/tools/amtfmm_launch --np="$np" --transport="$transport" \
        --timeout=120 -- ./build/tools/amtfmm_serve --n=3000 --cores=2 \
        --coalesce="$coalesce"
    done
  done
done

echo "== Resident pipeline steady state (self-gated) =="
./build/tools/amtfmm_serve --n=4000 --epochs=6 --localities=2 --cores=2
./build/tools/amtfmm_launch --np=2 --transport=unix --timeout=120 \
  -- ./build/tools/amtfmm_serve --n=4000 --epochs=6 --cores=2

echo "== Trace export + critical-path analysis =="
./build/bench/fig4_utilization --n 20000 --intervals 20 \
  --trace-out=build/bench-smoke/fig4_trace.json
./build/tools/trace_report build/bench-smoke/fig4_trace.json \
  --out build/bench-smoke/fig4_report.json

echo "== All checks passed =="
