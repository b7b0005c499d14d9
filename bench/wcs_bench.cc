// The scenario runner: regenerates any table, figure, ablation or
// extension in the scenario registry (src/scenario/catalog.h).
//
//   wcs_bench --list-scenarios          # every registered artifact
//   wcs_bench --scenario fig5_transfers # run one; --help for the flags
#include "scenario/cli.h"

int main(int argc, char** argv) {
  return wcs::scenario::scenario_main(argc, argv);
}
