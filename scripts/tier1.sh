#!/usr/bin/env bash
# Tier-1 verification: full release build + test suite, then the threading
# layer and the simmpi runtime under ThreadSanitizer (AEQP_SANITIZE=thread).
# Run from the repository root:  scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: release build + full ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== tier 1: benchmark self-check (H2 gate, serial + ranked paths) =="
python3 perfbench/run.py --self-check

echo "== tier 1: perf-regression sentinel self-test =="
python3 scripts/bench_history.py self-test

echo "== tier 1: TSan build (AEQP_SANITIZE=thread) =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAEQP_SANITIZE=thread
cmake --build build-tsan -j --target tsan_suites

echo "== tier 1: exec + simmpi + obs + memobs + elastic + sdc + service + membudget + rho-batch + straggler + CPSCF body + recovery driver tests under TSan =="
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -L tsan

echo "tier1: OK"
