// report_lint: validate bench run reports against the run-report schema
// (v1 and v2 — v2 adds the optional per-tenant sections; see
// obs/run_report.h).
//
//   report_lint results/<scenario>.json ...
//
// Prints every violation (prefixed with the offending path) and exits
// non-zero if any file fails — CI runs this over the smoke-bench
// artifacts so a schema drift fails the build instead of silently
// breaking the perf-trajectory tooling.
#include <iostream>
#include <string>
#include <vector>

#include "obs/run_report.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: report_lint <report.json> [more.json ...]\n";
    return 2;
  }
  std::size_t bad_files = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::vector<std::string> violations =
        wcs::obs::validate_report_file(path);
    if (violations.empty()) {
      std::cout << "ok  " << path << '\n';
      continue;
    }
    ++bad_files;
    for (const std::string& v : violations) std::cerr << "FAIL " << v << '\n';
  }
  if (bad_files > 0) {
    std::cerr << bad_files << " of " << (argc - 1)
              << " report(s) failed schema validation\n";
    return 1;
  }
  std::cout << (argc - 1) << " report(s) schema-valid\n";
  return 0;
}
