/// \file cli.hpp
/// \brief perfbench's command line.

#pragma once

#include <stdexcept>

#include "workloads.hpp"

namespace fhp::perfbench {

inline constexpr const char* kUsage =
    "usage: perfbench prepare --cache DIR\n"
    "       perfbench run --workload sedov3d|supernova2d_traced|svc_mixed\n"
    "                     --seed N --seconds S --trace 0|1 --cache DIR\n";

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Command {
  bool prepare = false;
  RunOptions run;
};

/// Parse argv; every flag of the chosen command is required and takes a
/// value ("--flag value" or "--flag=value"). Throws UsageError.
[[nodiscard]] Command parse_command_line(int argc, const char* const* argv);

}  // namespace fhp::perfbench
