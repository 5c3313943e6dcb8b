/// \file prepare.cpp
/// \brief The preparation step and the per-checkout records.
///
/// Runs before any timed window: builds the two Helm table caches, reports
/// the hugetlb pool, and records which backing the supernova problem's
/// regions get. The benchmark reads and writes only inside its checkout,
/// so it uses the hugetlb pool the system already has rather than
/// resizing it; a supernova run whose regions get another backing than
/// the recorded one fails instead of comparing model counters across
/// backings.

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "eos/eos_table.hpp"
#include "mem/meminfo.hpp"
#include "rt/runtime.hpp"
#include "sims.hpp"
#include "workloads.hpp"

namespace fhp::perfbench {

namespace {

void warm_table(const eos::HelmTableSpec& spec, const std::string& path,
                mem::PagePool& pool) {
  if (eos::HelmTable::load(spec, mem::HugePolicy::kNone, pool, path)) {
    std::printf("# table cache %s: warm\n", path.c_str());
    return;
  }
  std::printf("# table cache %s: building\n", path.c_str());
  std::fflush(stdout);
  (void)eos::HelmTable::build_or_load(spec, mem::HugePolicy::kNone, pool,
                                      path);
}

}  // namespace

void prepare(const std::string& cache_dir) {
  std::filesystem::create_directories(cache_dir);
  {
    rt::Runtime runtime;
    warm_table(eos::HelmTableSpec{}, cache_dir + "/" + kHelmTable,
               runtime.page_pool());
    warm_table({-4.0, 10.0, 141, 5.0, 10.0, 51},
               cache_dir + "/" + kServiceTable, runtime.page_pool());
  }
  std::printf("# hugetlb pool (used as found): %s\n",
              mem::MeminfoSnapshot::capture().summary().c_str());

  SimConfig c;
  c.problem = Problem::kSupernova2d;
  c.nsteps = 1;
  c.trace_sample = 4;
  c.table_cache = cache_dir + "/" + kHelmTable;
  Sim sim(c);
  const std::string backing = "unk " + sim.unk_backing().describe() +
                              " table " + sim.table_backing().describe();
  if (!same_as_recorded(cache_dir, "backing", backing)) {
    throw std::runtime_error("supernova backing changed since it was "
                             "recorded: now " + backing);
  }
  std::printf("# supernova backing: %s\n", backing.c_str());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_as_recorded(const std::string& cache_dir, const std::string& key,
                      const std::string& value) {
  const std::string path = cache_dir + "/record-" + key + ".txt";
  std::ifstream in(path);
  if (!in) {
    std::ofstream(path) << value;
    return true;
  }
  std::stringstream recorded;
  recorded << in.rdbuf();
  return recorded.str() == value;
}

std::string counters_text(const perf::CounterSet& counters) {
  std::string out;
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    out += std::to_string(counters.values[e]) + " ";
  }
  return out;
}

}  // namespace fhp::perfbench
