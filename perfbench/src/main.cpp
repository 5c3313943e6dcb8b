/// \file main.cpp
/// \brief perfbench: the repository benchmark's measuring program.
///
/// Usage:
///   perfbench prepare --cache DIR
///   perfbench run --workload sedov3d|supernova2d_traced|svc_mixed
///                 --seed N --seconds S --trace 0|1 --cache DIR
///
/// `run` prints one line per timing (median, tail percentile, n), then as
/// its last line the JSON result {"correct", "attempted", "failed",
/// "metrics"}. Exit status: 0 on a correct run, 1 on a failed correctness
/// gate or error, 2 on a bad command line.

#include <cstdio>
#include <exception>
#include <string>

#include "support/log.hpp"
#include "cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace fhp::perfbench;
  Command cmd;
  try {
    cmd = parse_command_line(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), kUsage);
    return 2;
  }
  // Setup chatter (white-dwarf model, mesh sizes) would drown the report.
  fhp::Logger::instance().set_level(fhp::LogLevel::kWarn);
  try {
    if (cmd.prepare) {
      prepare(cmd.run.cache_dir);
      return 0;
    }
    Report report;
    const RunOptions& o = cmd.run;
    if (o.workload == "sedov3d") {
      run_sedov3d(o, report);
    } else if (o.workload == "supernova2d_traced") {
      run_supernova2d(o, report);
    } else {
      run_svc_mixed(o, report);
    }
    for (const std::string& why : report.failures()) {
      std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n",
                   why.c_str());
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
