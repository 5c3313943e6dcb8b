/// \file workloads.hpp
/// \brief The benchmark's workloads and its preparation step.
///
/// Every workload reports the same end-to-end metric set (untraced run)
/// or the same per-layer metric set (traced run); a layer a workload
/// does not exercise reports 0. README.md gives each metric's meaning on
/// each workload.

#pragma once

#include <cstdint>
#include <string>

#include "perf/events.hpp"
#include "stats.hpp"

namespace fhp::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< table caches, backing record, span files
};

/// Cache-directory file names.
inline constexpr const char* kHelmTable = "helm_table.bin";
inline constexpr const char* kServiceTable = "helm_table_bench_service.bin";
inline constexpr const char* kBackingRecord = "backing.txt";

/// Build the Helm table caches, report the hugetlb pool, and record the
/// backing the supernova problem's regions get. Outside any timed window.
void prepare(const std::string& cache_dir);

void run_sedov3d(const RunOptions& options, Report& report);
void run_supernova2d(const RunOptions& options, Report& report);
void run_svc_mixed(const RunOptions& options, Report& report);

/// Peak resident set of this process [MiB].
[[nodiscard]] double peak_rss_mib();

/// Compare \p value with the first value recorded under \p key in the
/// cache directory (recording it if absent); false on a mismatch.
bool same_as_recorded(const std::string& cache_dir, const std::string& key,
                      const std::string& value);

/// The modelled counters as text (wall time, which the model does not
/// produce, left out), for same_as_recorded.
[[nodiscard]] std::string counters_text(const perf::CounterSet& counters);

}  // namespace fhp::perfbench
