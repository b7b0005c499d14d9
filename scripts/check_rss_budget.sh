#!/usr/bin/env bash
# Peak-RSS regression gate for the memory-lean layout (DESIGN.md
# §Memory layout).
#
#   scripts/check_rss_budget.sh                       # uses results/BENCH_memlean.json
#   scripts/check_rss_budget.sh path/to/summary.json  # explicit summary
#
# Reads the canonical bench summary (written by bench_memlean; run
# `build/bench/bench_memlean --fast` first if it is missing) and fails
# if the 100k-task FLAT run's peak RSS exceeds the checked-in budget by
# more than 20%. The budget is the measured baseline on the reference
# runner plus headroom for allocator/kernel noise; re-bless it here when
# an intentional change moves the footprint.
set -euo pipefail
cd "$(dirname "$0")/.."

# Budget for the 100k flat run: its measured peak once each (site, task)
# pair of the scheduler's residency table and decision index took 18 B
# under `rest` (u16 overlap counters, 4-byte index slots, 8-byte heap
# entries): 186.0 MB on a 4-vCPU x86-64 VM over 3 runs, down from
# 319.5 MB with 32 B pairs (DESIGN.md §Memory layout item 2). The gate
# fires at BUDGET_MB * 1.20.
BUDGET_MB=186

SUMMARY="${1:-results/BENCH_memlean.json}"
if [[ ! -f "$SUMMARY" ]]; then
  echo "check_rss_budget: $SUMMARY not found — run build/bench/bench_memlean first" >&2
  exit 2
fi

python3 - "$SUMMARY" "$BUDGET_MB" <<'EOF'
import json
import sys

summary_path, budget_mb = sys.argv[1], float(sys.argv[2])
with open(summary_path) as f:
    doc = json.load(f)

# The 100k point is the budgeted one; a --tasks override (CI reduced
# scale) labels its single point with the raw task count — budget-check
# whatever flat run the summary holds at the largest scale <= 100k.
flat = [r for r in doc.get("runs", []) if r.get("layout") == "flat"
        and int(r.get("tasks", 0)) <= 100_000]
if not flat:
    sys.exit(f"check_rss_budget: no flat run at <= 100k tasks in {summary_path}")
run = max(flat, key=lambda r: int(r["tasks"]))

peak = float(run["peak_rss_mb"])
limit = budget_mb * 1.20
scale = run.get("scale", run.get("tasks"))
print(f"check_rss_budget: {scale} flat peak RSS {peak:.1f} MB "
      f"(budget {budget_mb:.0f} MB, limit {limit:.0f} MB)")
if peak > limit:
    sys.exit(f"check_rss_budget: FAIL — peak RSS {peak:.1f} MB exceeds "
             f"{limit:.0f} MB (>20% over the {budget_mb:.0f} MB budget). "
             "If the regression is intentional, re-bless BUDGET_MB in "
             "scripts/check_rss_budget.sh.")
print("check_rss_budget: OK")
EOF
