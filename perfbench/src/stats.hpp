/// \file stats.hpp
/// \brief Timing statistics and the result line of the benchmark.
///
/// Reporting rule: every timing is printed with its median, the highest
/// percentile that still has at least ten samples beyond it, and its
/// sample count n. Percentiles are nearest-rank, so a reported value is
/// always one of the measured samples.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fhp::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of \p samples (unsorted is fine): the sample
/// at rank ceil(q * n), clamped to [1, n]. q in [0, 1]. Empty -> 0.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double q);

/// Median and tail of one timing.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  /// Highest percentile from the ladder 99.9/99/95/90/75/50 that has at
  /// least ten samples beyond it; 0 when n < 20 (no tail is reportable).
  double tail_q = 0.0;
  double tail = 0.0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// One human-readable line: "timing <name>: median=<v> p<q>=<v> n=<n>".
[[nodiscard]] std::string format_timing(std::string_view name,
                                        const std::vector<double>& samples);

/// True iff \p name matches [A-Za-z0-9_.-]+.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// The metrics of one run, in insertion order, plus the result line.
class Report {
 public:
  /// Record a metric; throws std::invalid_argument on a bad name or a
  /// repeated one.
  void add(std::string_view name, double value, std::string_view unit);

  /// Mark the run incorrect and remember why (printed by main).
  void fail(std::string why);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void failed_op(std::uint64_t n = 1) { failed_ += n; }

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] double value(std::string_view name) const;

  /// The single-line JSON result:
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace fhp::perfbench
