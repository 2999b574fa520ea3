#!/usr/bin/env bash
# Profile the distributed DFPT example: runs it with AEQP_TRACE=full so it
# emits a per-phase report (stderr) and a Chrome trace-event file loadable
# in chrome://tracing or https://ui.perfetto.dev. See docs/observability.md.
#
# Usage:  scripts/profile_example.sh [output-trace.json]
#
# For a function-level profile below the spans, use a single-thread gprof
# build instead (gprof samples only the main thread; -fno-inline-functions
# keeps the tile and basis kernels visible as their own entries):
#
#   cmake -B build-gprof -S . -DCMAKE_CXX_FLAGS="-pg -fno-inline-functions" \
#         -DCMAKE_EXE_LINKER_FLAGS=-pg
#   cmake --build build-gprof -j --target example_aeqp_run
#   AEQP_NUM_THREADS=1 ./build-gprof/examples/example_aeqp_run --builtin ch4
#   gprof ./build-gprof/examples/example_aeqp_run gmon.out | less
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-trace.json}"

if [[ ! -x build/examples/example_distributed_dfpt ]]; then
  echo "== building example_distributed_dfpt =="
  cmake -B build -S .
  cmake --build build -j --target example_distributed_dfpt
fi

echo "== profiled run (AEQP_TRACE=full, AEQP_TRACE_FILE=$out) =="
AEQP_TRACE=full AEQP_TRACE_FILE="$out" ./build/examples/example_distributed_dfpt

if [[ ! -s "$out" ]]; then
  echo "profile_example: FAILED ($out missing or empty)" >&2
  exit 1
fi

# Validate the trace is well-formed JSON and carries the paper's four
# CPSCF phases when a python interpreter is around.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
names = {e.get("name") for e in trace["traceEvents"]}
missing = {"cpscf/dm", "cpscf/sumup", "cpscf/rho", "cpscf/h"} - names
if missing:
    sys.exit(f"trace is missing phase spans: {sorted(missing)}")
print(f"trace OK: {len(trace['traceEvents'])} events, "
      f"{len(names)} distinct span names")
PY
fi

echo "profile_example: OK -- load $out in chrome://tracing or ui.perfetto.dev"
