#!/usr/bin/env bash
# Runs every bench_* binary with --benchmark_format=json and saves the
# machine-readable output as BENCH_<name>.json, one file per bench, so the
# perf trajectory accumulates run over run.
#
#   bench/run_benchmarks.sh [--compare | --governor-overhead | --validate-obs] [BUILD_DIR] [OUT_DIR]
#
# Defaults: BUILD_DIR=build, OUT_DIR=bench/results. Honors
# BENCHMARK_MIN_TIME (default 0.05s per benchmark) to trade precision for
# wall time. Every BENCH_*.json records the thread-pool width it ran at
# (BAGALG_THREADS, or "unset") as context.bagalg_threads, next to the
# host_name Google Benchmark already writes. Several benches print
# human-readable preambles before the JSON document; the preamble goes to
# stderr (or is stripped here for the ones that still use stdout), so every
# BENCH_*.json is a valid JSON document.
#
# With --compare, results go to a temporary directory (unless OUT_DIR is
# given) and are diffed against the committed bench/results baselines with
# bench/compare_benchmarks.py; the script fails on any >10% regression.
#
# With --governor-overhead, only bench_governor runs (in its --paired
# mode); the resulting per-workload gov-on/gov-off ratios are checked
# against the <2% checkpoint overhead budget (docs/ROBUSTNESS.md) with
# compare_benchmarks.py --overhead.
#
# With --validate-obs, one bench runs briefly with --bagalg_trace and the
# emitted Chrome trace is checked with tools/validate_obs.py (schema +
# span-tree linkage), guarding the bench-side tracing hook.
set -euo pipefail

# Bench runs are verified runs: every IR plan a bench lowers is
# re-verified after each optimization pass (src/ir/verify.h). The
# verifier runs at plan-build time only, so measured per-row loops are
# unaffected — but plan-time benches (BM_IrLowerOnly and small-input
# exec benches where lowering dominates) do pay for it, so baselines
# and --compare gate runs must agree on it: export it unconditionally.
export BAGALG_IR_VERIFY=1

COMPARE=0
if [ "${1:-}" = "--compare" ]; then
  COMPARE=1
  shift
fi

if [ "${1:-}" = "--governor-overhead" ]; then
  shift
  BUILD_DIR="${1:-build}"
  OUT_DIR="${2:-$(mktemp -d)}"
  BIN="${BUILD_DIR}/bench/bench_governor"
  if [ ! -x "${BIN}" ]; then
    echo "missing ${BIN} — build first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  mkdir -p "${OUT_DIR}"
  OUT="${OUT_DIR}/governor_overhead.json"
  echo "== bench_governor --paired -> ${OUT}" >&2
  # Paired mode: each workload times gov_off and gov_on back-to-back in the
  # same few-ms window and reports the median of per-round ratios, so host
  # frequency/scheduler drift cancels instead of swamping the 2% budget
  # (independent off/on repetitions were observed swinging -9%..+25%
  # run-to-run on a busy host).
  "${BIN}" --paired >"${OUT}" 2>/dev/null
  exec python3 "$(dirname "$0")/compare_benchmarks.py" \
    --overhead "${OUT}" --overhead-tolerance 0.02
fi

if [ "${1:-}" = "--validate-obs" ]; then
  shift
  BUILD_DIR="${1:-build}"
  BIN="${BUILD_DIR}/bench/bench_ops"
  if [ ! -x "${BIN}" ]; then
    echo "missing ${BIN} — build first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  TRACE="$(mktemp --suffix=.json)"
  echo "== bench_ops --bagalg_trace -> ${TRACE}" >&2
  "${BIN}" --bagalg_trace="${TRACE}" --benchmark_min_time=0.01 \
    --benchmark_filter='CartesianProduct|AdditiveUnion' >/dev/null 2>&1
  exec python3 "$(dirname "$0")/../tools/validate_obs.py" --trace "${TRACE}"
fi

BUILD_DIR="${1:-build}"
if [ "${COMPARE}" = 1 ]; then
  OUT_DIR="${2:-$(mktemp -d)}"
else
  OUT_DIR="${2:-bench/results}"
fi
MIN_TIME="${BENCHMARK_MIN_TIME:-0.05}"

if ! ls "${BUILD_DIR}"/bench/bench_* >/dev/null 2>&1; then
  echo "no bench binaries under ${BUILD_DIR}/bench — build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

status=0
for bin in "${BUILD_DIR}"/bench/bench_*; do
  [ -x "${bin}" ] || continue
  case "${bin}" in *.json|*.txt) continue ;; esac
  name="$(basename "${bin}")"
  out="${OUT_DIR}/BENCH_${name}.json"
  echo "== ${name} -> ${out}" >&2
  raw="$(mktemp)"
  if "${bin}" --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
      --benchmark_context=bagalg_threads="${BAGALG_THREADS:-unset}" \
      >"${raw}" 2>/dev/null; then
    # Keep everything from the first line that opens the JSON document
    # (benches with custom mains may print a preamble first).
    # google-benchmark's JSON document opens with a line that is exactly
    # "{"; preamble tables never do (even ones with lines like "{2,4,6} ...").
    awk 'started || /^\{[[:space:]]*$/ { started = 1; print }' "${raw}" >"${out}"
    if [ ! -s "${out}" ]; then
      echo "   WARNING: ${name} produced no JSON" >&2
      status=1
    fi
  else
    echo "   WARNING: ${name} failed" >&2
    status=1
  fi
  rm -f "${raw}"
done

if [ "${COMPARE}" = 1 ]; then
  python3 "$(dirname "$0")/compare_benchmarks.py" \
    --baseline "$(dirname "$0")/results" --candidate "${OUT_DIR}" || status=1
fi
exit "${status}"
