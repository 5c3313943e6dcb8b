/// \file selftest.cpp
/// \brief Unit tests of perfbench's statistics, reporting, ledger and CLI.
///
/// Plain checks (no test framework): prints each failure and exits 1.

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "stats.hpp"

namespace {

using namespace fhp::perfbench;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void nearest_rank_percentile() {
  // The textbook nearest-rank example.
  const std::vector<double> s = {35, 20, 50, 15, 40};
  CHECK(nearest_rank(s, 0.05) == 15);
  CHECK(nearest_rank(s, 0.30) == 20);
  CHECK(nearest_rank(s, 0.40) == 20);
  CHECK(nearest_rank(s, 0.50) == 35);
  CHECK(nearest_rank(s, 1.00) == 50);
  CHECK(nearest_rank(s, 0.0) == 15);
  CHECK(nearest_rank({}, 0.5) == 0);
}

void tail_percentile_rule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Summary s = summarize(hundred);
  CHECK(s.n == 100);
  CHECK(s.median == 50);
  CHECK(s.tail_q == 0.90);  // p95 leaves only 5 samples beyond it
  CHECK(s.tail == 90);
  const std::string line = format_timing("step_s", hundred);
  CHECK(line == "timing step_s: median=50 p90=90 n=100");

  std::vector<double> twenty(hundred.begin(), hundred.begin() + 20);
  CHECK(summarize(twenty).tail_q == 0.50);
  std::vector<double> nineteen(hundred.begin(), hundred.begin() + 19);
  CHECK(summarize(nineteen).tail_q == 0.0);
  CHECK(format_timing("x", nineteen).find("n=19") != std::string::npos);
}

void metric_names() {
  CHECK(valid_metric_name("mesh.fill_guardcells_s"));
  CHECK(valid_metric_name("sim.setup_s.sedov"));
  CHECK(valid_metric_name("a-b_9"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("a b"));
  CHECK(!valid_metric_name("jobs/s"));
  CHECK(!valid_metric_name("\"q\""));

  std::set<std::string> seen;
  for (const MetricDef& m : kEndToEnd) {
    CHECK(valid_metric_name(m.name));
    CHECK(seen.insert(m.name).second);
  }
  for (const MetricDef& m : kPerLayer) {
    CHECK(valid_metric_name(m.name));
    CHECK(seen.insert(m.name).second);
  }
}

void report_json() {
  Report r;
  r.attempt(3);
  r.failed_op();
  r.add("latency_s", 0.125, "s");
  r.add("count", std::nan(""), "count");
  CHECK(throws([&] { r.add("latency_s", 1.0, "s"); }));
  CHECK(throws([&] { r.add("bad name", 1.0, "s"); }));
  CHECK(r.json() ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
        "{\"latency_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"count\": "
        "{\"value\": 0, \"unit\": \"count\"}}}");
  r.fail("gate");
  CHECK(!r.correct());
  CHECK(r.json().rfind("{\"correct\": false", 0) == 0);

  Report all;
  emit(all, {{"setup_s", 1.5}}, false);
  CHECK(all.value("setup_s") == 1.5);
  CHECK(all.value("sims_per_s") == 0.0);
  Report wrong;
  CHECK(throws([&] { emit(wrong, {{"setup_s", 1.0}}, true); }));
}

void ledger_self_times_add_up() {
  Ledger ledger(true);
  for (int step = 0; step < 3; ++step) {
    const Ledger::Scope root(ledger, "sim.step");
    {
      const Ledger::Scope a(ledger, "layer.a");
      const Ledger::Scope inner(ledger, "layer.a.inner");
    }
    const Ledger::Scope b(ledger, "layer.b");
  }
  const Ledger::Breakdown b = ledger.breakdown("sim.step");
  CHECK(b.roots == 3);
  CHECK(b.layers.size() == 2);  // direct children only
  CHECK(b.layers.at("layer.a").calls == 3);
  CHECK(ledger.durations("layer.a.inner").size() == 3);
  Ledger::Ns sum = b.root_self;
  for (const auto& [name, layer] : b.layers) sum += layer.self;
  // Children's self times exclude grandchildren, so add those back.
  Ledger::Ns grandchildren = 0;
  for (const Ledger::Span& s : ledger.spans()) {
    if (std::string(s.name) == "layer.a.inner") grandchildren += s.end - s.start;
  }
  CHECK(sum + grandchildren == b.root_wall);

  Ledger off(false);
  { const Ledger::Scope s(off, "sim.step"); }
  CHECK(off.spans().empty());
}

void command_line() {
  const char* good[] = {"perfbench", "run",     "--workload", "svc_mixed",
                        "--seed",    "7",       "--seconds",  "3",
                        "--trace=1", "--cache", "c"};
  const Command c = parse_command_line(11, good);
  CHECK(!c.prepare);
  CHECK(c.run.workload == "svc_mixed");
  CHECK(c.run.seed == 7);
  CHECK(c.run.seconds == 3.0);
  CHECK(c.run.trace);
  CHECK(c.run.cache_dir == "c");

  auto bad = [](std::vector<const char*> argv) {
    return throws([&] {
      (void)parse_command_line(static_cast<int>(argv.size()), argv.data());
    });
  };
  CHECK(bad({"perfbench"}));
  CHECK(bad({"perfbench", "bogus"}));
  CHECK(bad({"perfbench", "prepare", "--cache", "c", "--bogus", "1"}));
  CHECK(bad({"perfbench", "run", "--workload", "sedov3d", "--seed", "1",
             "--seconds", "2", "--trace", "2", "--cache", "c"}));
  CHECK(bad({"perfbench", "run", "--workload", "nope", "--seed", "1",
             "--seconds", "2", "--trace", "0", "--cache", "c"}));
  CHECK(bad({"perfbench", "run", "--workload", "sedov3d", "--seed", "-1",
             "--seconds", "2", "--trace", "0", "--cache", "c"}));
  CHECK(bad({"perfbench", "run", "--workload", "sedov3d", "--seed", "1",
             "--seconds", "2", "--trace", "0"}));
}

}  // namespace

int main() {
  nearest_rank_percentile();
  tail_percentile_rule();
  metric_names();
  report_json();
  ledger_self_times_add_up();
  command_line();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
