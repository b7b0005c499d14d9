// Small statistics toolkit: running summaries, percentiles, grouped
// samples and empirical CDFs. Used by the metrics recorder and by the workload
// characterization benches (Table 2 / Figure 3 of the paper).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "common/check.h"

namespace wcs {

// Streaming summary (Welford) — O(1) memory, numerically stable.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    double total = static_cast<double>(n_ + other.n_);
    double delta = other.mean_ - mean_;
    double new_mean = mean_ + delta * static_cast<double>(other.n_) / total;
    m2_ = m2_ + other.m2_ +
          delta * delta * static_cast<double>(n_) *
              static_cast<double>(other.n_) / total;
    mean_ = new_mean;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentile with linear interpolation; p in [0, 100]. Sorts a copy.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  WCS_CHECK(!values.empty());
  WCS_CHECK(p >= 0 && p <= 100);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  auto hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

// Jain's fairness index over per-party allocations:
//   J(x) = (sum x_i)^2 / (n * sum x_i^2),  J in [1/n, 1].
// J == 1 iff every party received the same allocation; J -> 1/n as one
// party monopolizes. Degenerate inputs (empty, single party, all-zero)
// are perfectly fair by convention and return 1.0, so a closed
// single-tenant run always reports J == 1.
[[nodiscard]] inline double jain_fairness_index(std::span<const double> xs) {
  if (xs.size() <= 1) return 1.0;
  double sum = 0;
  double sum_sq = 0;
  for (double x : xs) {
    WCS_CHECK_MSG(x >= 0, "negative allocation " << x);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0) return 1.0;  // all-zero: nobody is ahead of anybody
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

// Per-group sample sets with exact percentiles and an associative merge.
// This is the per-tenant accumulator behind the schema-v2 report
// sections: group = tenant index, samples = per-task sojourn times.
// merge() concatenates sample sets; because percentile() sorts, every
// merge order yields identical quantiles (the property test for this
// lives in tests/test_stats.cc).
class GroupedSamples {
 public:
  explicit GroupedSamples(std::size_t groups = 0) : groups_(groups) {}

  void add(std::size_t group, double value) {
    WCS_CHECK(group < groups_.size());
    groups_[group].push_back(value);
  }

  void merge(const GroupedSamples& other) {
    if (groups_.size() < other.groups_.size())
      groups_.resize(other.groups_.size());
    for (std::size_t g = 0; g < other.groups_.size(); ++g)
      groups_[g].insert(groups_[g].end(), other.groups_[g].begin(),
                        other.groups_[g].end());
  }

  [[nodiscard]] std::size_t num_groups() const { return groups_.size(); }
  [[nodiscard]] std::size_t count(std::size_t g) const {
    return groups_.at(g).size();
  }
  [[nodiscard]] double mean_of(std::size_t g) const {
    const std::vector<double>& v = groups_.at(g);
    if (v.empty()) return 0.0;
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  }
  // Percentile of group g's samples (empty group -> 0, so reports stay
  // finite for tenants that completed nothing).
  [[nodiscard]] double percentile_of(std::size_t g, double p) const {
    const std::vector<double>& v = groups_.at(g);
    return v.empty() ? 0.0 : percentile(v, p);
  }
  [[nodiscard]] const std::vector<double>& samples(std::size_t g) const {
    return groups_.at(g);
  }

 private:
  std::vector<std::vector<double>> groups_;
};

// Empirical survival curve over integer counts: fraction of observations
// whose value is >= k, for each distinct k. This is exactly the
// presentation of the paper's Figure 1/3 ("% of files accessed by >= x
// tasks", cumulative with the x-axis in decreasing order).
class ReverseCdf {
 public:
  void add(std::size_t value) { ++counts_[value]; ++n_; }

  // Fraction of observations with value >= k, in [0, 1].
  [[nodiscard]] double fraction_at_least(std::size_t k) const {
    if (n_ == 0) return 0.0;
    std::size_t c = 0;
    for (const auto& [v, cnt] : counts_)
      if (v >= k) c += cnt;
    return static_cast<double>(c) / static_cast<double>(n_);
  }

  // (value, fraction >= value) pairs in increasing value order.
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> points() const {
    std::vector<std::pair<std::size_t, double>> out;
    std::size_t tail = n_;
    out.reserve(counts_.size());
    for (const auto& [v, cnt] : counts_) {
      out.emplace_back(v, n_ ? static_cast<double>(tail) /
                                   static_cast<double>(n_)
                             : 0.0);
      tail -= cnt;
    }
    return out;
  }

  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  std::map<std::size_t, std::size_t> counts_;
  std::size_t n_ = 0;
};

}  // namespace wcs
