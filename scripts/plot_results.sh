#!/usr/bin/env bash
# Render the figure CSVs that wcs_bench writes (--csv; scripts/reproduce.sh
# names them results/<scenario>.csv) into PNGs with gnuplot, one chart
# per paper figure. Usage:
#
#   scripts/plot_results.sh [results_dir]
#
# Skips silently if gnuplot is not installed.
set -euo pipefail
dir="${1:-results}"
command -v gnuplot >/dev/null || { echo "gnuplot not found; skipping"; exit 0; }

plot() {
  local csv="$1" title="$2" ylabel="$3" col="$4" out="$5"
  [[ -f "$dir/$csv" ]] || { echo "missing $dir/$csv (run wcs_bench with --csv)"; return; }
  gnuplot <<EOF
set datafile separator ','
set terminal pngcairo size 900,600
set output '$dir/$out'
set key outside
set title '$title'
set xlabel 'x'
set ylabel '$ylabel'
set grid
# long format: x,algorithm,makespan_min,transfers_per_site,...
plot for [alg in "storage-affinity overlap rest combined rest.2 combined.2"] \
  "< awk -F, -v a=".alg." 'NR>1 && \$2==a {print \$1, \$$col}' $dir/$csv" \
  using 1:2 with linespoints title alg
EOF
  echo "wrote $dir/$out"
}

# column 3 = makespan_min, column 4 = transfers_per_site (see emit_series)
plot fig4_capacity.csv  "Figure 4: makespan vs capacity"      "makespan (min)"        3 fig4.png
plot fig5_transfers.csv "Figure 5: transfers vs capacity"     "transfers/data server" 4 fig5.png
plot fig6_workers.csv   "Figure 6: makespan vs workers/site"  "makespan (min)"        3 fig6.png
plot fig7_sites.csv     "Figure 7: makespan vs sites"         "makespan (min)"        3 fig7.png
plot fig8_filesize.csv  "Figure 8: makespan vs file size"     "makespan (min)"        3 fig8.png
