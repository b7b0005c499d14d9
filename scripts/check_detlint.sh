#!/usr/bin/env bash
# Static wall, part 3: the determinism static-analysis pass.
#
#   scripts/check_detlint.sh [--json PATH]
#
# Builds tools/detlint and runs it over src/, tests/, bench/, and
# examples/. Exits non-zero on any unsuppressed finding — the checked-in
# baseline (tools/detlint/baseline.json) is empty and should stay that
# way: new findings are fixed, or justified in-line with
# `// detlint: <rule> -- <reason>`. Rules are documented in DESIGN.md
# §Invariants & static analysis, which also states how many suppressions
# remain; the script fails when that number differs from detlint's
# `N suppressed` summary.
set -euo pipefail
cd "$(dirname "$0")/.."

JSON_OUT="${1:-}"
if [[ "$JSON_OUT" == "--json" ]]; then
  JSON_OUT="${2:?--json needs a path}"
elif [[ -n "$JSON_OUT" ]]; then
  echo "usage: $0 [--json PATH]" >&2
  exit 2
fi

cmake -B build -S . >/dev/null
cmake --build build -j --target detlint >/dev/null

ARGS=(--baseline tools/detlint/baseline.json)
if [[ -n "$JSON_OUT" ]]; then
  mkdir -p "$(dirname "$JSON_OUT")"
  ARGS+=(--json "$JSON_OUT")
fi
OUT=$(build/tools/detlint "${ARGS[@]}" src tests bench examples) || {
  rc=$?
  echo "$OUT"
  exit "$rc"
}
echo "$OUT"

SUPPRESSED=$(sed -n 's/^detlint: .* \([0-9][0-9]*\) suppressed,.*/\1/p' <<<"$OUT")
STATED=$(tr '\n' ' ' <DESIGN.md |
  sed -n 's/.*the \([0-9][0-9]*\) remaining suppressions.*/\1/p')
if [[ -z "$SUPPRESSED" || -z "$STATED" ]]; then
  echo "FAIL: cannot read the suppression count from detlint or DESIGN.md" >&2
  exit 1
fi
if [[ "$SUPPRESSED" != "$STATED" ]]; then
  echo "FAIL: DESIGN.md states $STATED remaining suppressions;" \
    "detlint reports $SUPPRESSED" >&2
  exit 1
fi
echo "ok — detlint clean (suppressions all carry justifications)"
