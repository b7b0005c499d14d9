#!/usr/bin/env bash
# Reproduce everything: build, test, regenerate every paper table/figure.
#
#   scripts/reproduce.sh                    # full scale (paper parameters)
#   scripts/reproduce.sh --fast             # 1500 tasks / 2 seeds
#   scripts/reproduce.sh --jobs 8           # fan runs over 8 threads
#   scripts/reproduce.sh --audit            # invariant auditor on every run
#   WCS_BENCH_JOBS=8 scripts/reproduce.sh   # same, via the environment
#
# Runs every scenario that `wcs_bench --list-scenarios` prints, then
# bench_memlean and bench_micro. Independent (algorithm, topology-seed)
# runs are fanned out over worker threads; the default is all hardware
# threads and the output is bit-identical at any --jobs level. Outputs
# land in results/: a console log (results/<name>.log) per program run,
# a CSV series and a schema-versioned JSON run report per scenario
# (results/<scenario>.csv, results/<scenario>.json; the reports and
# results/bench_memlean.json are validated by tools/report_lint at the
# end).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST_FLAG=""
AUDIT_FLAG=""
JOBS_FLAGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST_FLAG="--fast"; shift ;;
    --audit) AUDIT_FLAG="--audit"; shift ;;
    --jobs) JOBS_FLAGS=(--jobs "$2"); shift 2 ;;
    *) echo "usage: $0 [--fast] [--audit] [--jobs N]" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Preflight: the tree must be determinism-lint clean before results are
# regenerated (scripts/check_detlint.sh; rules in DESIGN.md).
scripts/check_detlint.sh

mkdir -p results
REPORTS=()
for name in $(build/bench/wcs_bench --list-scenarios | grep -v '^ '); do
  echo "=== $name ==="
  build/bench/wcs_bench --scenario "$name" $FAST_FLAG $AUDIT_FLAG \
    "${JOBS_FLAGS[@]}" --csv "results/$name.csv" | tee "results/$name.log"
  REPORTS+=("results/$name.json")
done

echo "=== bench_memlean ==="
build/bench/bench_memlean $FAST_FLAG $AUDIT_FLAG "${JOBS_FLAGS[@]}" \
  --csv results/bench_memlean.csv | tee results/bench_memlean.log
REPORTS+=(results/bench_memlean.json)

echo "=== bench_micro ==="
# google-benchmark JSON, distinct from the run-report schema files.
build/bench/bench_micro --benchmark_out=results/bench_micro.gbench.json \
  --benchmark_out_format=json | tee results/bench_micro.log

echo "=== report_lint ==="
build/tools/report_lint "${REPORTS[@]}"

echo "done — see results/"
