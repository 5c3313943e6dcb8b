#include "cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

namespace fhp::perfbench {

namespace {

std::uint64_t parse_unsigned(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
    throw UsageError("--" + flag + ": expected a non-negative integer, got '" +
                     v + "'");
  }
  return x;
}

}  // namespace

Command parse_command_line(int argc, const char* const* argv) {
  if (argc < 2) throw UsageError("missing command");
  Command cmd;
  const std::string verb = argv[1];
  if (verb == "prepare") {
    cmd.prepare = true;
  } else if (verb != "run") {
    throw UsageError("unknown command '" + verb + "'");
  }

  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError("--" + arg + " needs a value");
    }
    flags[arg] = value;
  }

  const std::set<std::string> known =
      cmd.prepare ? std::set<std::string>{"cache"}
                  : std::set<std::string>{"workload", "seed", "seconds",
                                          "trace", "cache"};
  for (const auto& [flag, value] : flags) {
    if (known.count(flag) == 0) {
      throw UsageError("unknown flag --" + flag + " for '" + verb + "'");
    }
  }
  for (const std::string& flag : known) {
    if (flags.count(flag) == 0) throw UsageError("missing --" + flag);
  }

  cmd.run.cache_dir = flags["cache"];
  if (cmd.prepare) return cmd;

  cmd.run.workload = flags["workload"];
  if (cmd.run.workload != "sedov3d" &&
      cmd.run.workload != "supernova2d_traced" &&
      cmd.run.workload != "svc_mixed") {
    throw UsageError("unknown workload '" + cmd.run.workload + "'");
  }
  cmd.run.seed = parse_unsigned("seed", flags["seed"]);
  const std::uint64_t seconds = parse_unsigned("seconds", flags["seconds"]);
  if (seconds < 1 || seconds > 600) {
    throw UsageError("--seconds must be in [1, 600]");
  }
  cmd.run.seconds = static_cast<double>(seconds);
  const std::string trace = flags["trace"];
  if (trace != "0" && trace != "1") {
    throw UsageError("--trace must be 0 or 1, got '" + trace + "'");
  }
  cmd.run.trace = trace == "1";
  return cmd;
}

}  // namespace fhp::perfbench
