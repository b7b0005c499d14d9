// Scenario CLI: the wcs_bench program is scenario_main() and nothing
// else.
//
// scenario_main(argc, argv) registers the built-in catalog, parses the
// shared flag set, and runs the selected scenario:
//
//   --scenario NAME   the catalog entry to run (required for a run)
//   --list-scenarios  print every registered scenario and exit
//   --dump-scenario [NAME]  print the built spec as JSON and exit
//   --tasks N         workload size (default 6000 = the paper's slice)
//   --seeds K         topology repetitions (default 5)
//   --jobs N          worker threads for independent runs (default: all
//                     hardware threads; output is identical at any level)
//   --csv PATH        also write the series as CSV
//   --fast            1500 tasks, 2 seeds, coarser sweep axes
//   --audit           run every simulation with the invariant auditor on
//                     (src/audit); read-only checkers, identical output
//   --report PATH     write the machine-readable run report here (default
//                     results/<scenario>.json; --no-report disables)
//   --trace-out P     additionally run one representative simulation with
//                     full observability and dump its Chrome trace to P
//   --workload NAME   override the spec's workload generator (registry
//                     names: coadd, uniform, zipf, partitioned, trace,
//                     multi-tenant)
//   --tenants N|W,..  open-system tenant roster: a count (equal weights)
//                     or comma-separated weights; with the default coadd
//                     generator this implies --workload multi-tenant
//   --arrival P       arrival process: t0 (closed, default), poisson,
//                     diurnal, or bursty
//   --block-size MB   block size of the site caches' block-granular
//                     store (storage/block_store.h; default 1 MB, at
//                     least one byte); observable only under content
//                     overlap
//   --replication-policy P  replica placement: none (disable), random,
//                     least-loaded, hierarchical, or network-cost
//                     (replication/data_replicator.h)
//
// WCS_BENCH_FAST=1 in the environment implies --fast (used by CI-style
// smoke runs); WCS_BENCH_JOBS=N sets the default for --jobs. WCS_AUDIT=1
// implies --audit (see audit::default_enabled()).
//
// A run without --scenario exits with status 2.
//
// Numeric values (N, K, MB, tenant counts and weights, WCS_BENCH_JOBS)
// must be plain unsigned decimals that fit their field; anything else —
// a sign, trailing characters, an empty tenant weight, an overflow —
// exits with status 2 and a message naming the flag.
#pragma once

namespace wcs::scenario {

// Returns the process exit code.
int scenario_main(int argc, char** argv);

}  // namespace wcs::scenario
