// Runtime invariant auditor.
//
// The simulator keeps several pieces of redundant state for speed
// (scheduler counters and decision indexes, a slot-table event kernel,
// per-link byte counters); each is a conservation law that can silently
// drift under refactoring. The InvariantAuditor holds a registry of pluggable
// checkers that sweep the LIVE simulation — every N executed events and
// once at end-of-run — and abort with a full violation report the moment
// any law breaks (DESIGN.md § Invariants & static analysis).
//
// Enabling: GridConfig::audit defaults to default_enabled() — WCS_AUDIT=1
// or =0 in the environment wins, otherwise auditing is always on in Debug
// builds and off in Release. Benches expose it as --audit.
//
// Checkers are read-only over simulation state, so an audited run
// produces byte-identical results to an unaudited one.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace wcs::audit {

// One broken invariant, as reported by a checker. `checker` is the
// checker's slug (e.g. "flow-conservation"); `message` names the law,
// the observed values, and where they were observed.
struct Violation {
  std::string checker;
  std::string message;
};

// Thrown when a sweep finds violations; what() lists every one.
class AuditError final : public std::runtime_error {
 public:
  AuditError(const std::string& when, std::vector<Violation> violations);

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

 private:
  std::vector<Violation> violations_;
};

// Throws AuditError if `violations` is non-empty; no-op otherwise.
void throw_if_violations(const std::string& when,
                         std::vector<Violation> violations);

class InvariantAuditor {
 public:
  // A checker appends any violations it finds; it must not mutate the
  // simulation it inspects.
  using Checker = std::function<void(std::vector<Violation>&)>;

  void add_checker(std::string name, Checker fn);

  // Run every registered checker once and collect their reports.
  [[nodiscard]] std::vector<Violation> run_checks();

  // Run every checker and throw AuditError on any violation. `when`
  // labels the sweep in the report (e.g. "periodic sweep at t=3127s").
  void check(const std::string& when);

  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }
  [[nodiscard]] std::size_t num_checkers() const { return checkers_.size(); }
  [[nodiscard]] std::vector<std::string> checker_names() const;

 private:
  struct Entry {
    std::string name;
    Checker fn;
  };

  std::vector<Entry> checkers_;
  std::uint64_t sweeps_ = 0;
};

// WCS_AUDIT=1/0 in the environment wins; otherwise on iff NDEBUG is not
// defined (Debug test runs audit by default).
[[nodiscard]] bool default_enabled();

}  // namespace wcs::audit
