/// \file single_sim.cpp
/// \brief The sedov3d and supernova2d_traced workloads.
///
/// An episode is one simulation: its setup, then kEpisodeSteps steps.
///
/// Untraced run: pairs of episodes repeat until the time budget is spent
/// — one stepped by sim::Driver::step_once at 4 lanes (the timed path),
/// one stepped by the benchmark's own loop at 1 lane (the baseline),
/// which must end bit-identical to the Driver's.
///
/// Traced run: untraced Driver episodes alternate with traced episodes of
/// the benchmark's loop at 4 lanes, which must end bit-identical to the
/// Driver's; one traced 1-lane episode gives the per-call speedups.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "eos/eos_table.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "perf/events.hpp"
#include "sims.hpp"
#include "workloads.hpp"

namespace fhp::perfbench {

namespace {

constexpr int kEpisodeSteps = 8;   ///< two remeshes per episode
constexpr int kBaselineSteps = 4;  ///< 1-lane baseline: the first steps
constexpr int kCounterSteps = 4;   ///< sedov3d model-counter pass
constexpr int kMinPairs = 2;
constexpr int kTableLoads = 3;
/// Sedov: measured shock radius within this fraction of the analytic one
/// after kEpisodeSteps (errors seen: under 2%).
constexpr double kShockTolerance = 0.05;

struct Workload {
  Problem problem;
  const char* name;
  int trace_sample;   ///< machine-model replay in the timed steps
  bool jitter;        ///< seed moves the Sedov explosion centre
  double mass_drift;  ///< bound on |M_end / M_0 - 1| over an episode
};

constexpr Workload kSedov{Problem::kSedov3d, "sedov3d", 0, true, 1e-12};
// The white dwarf's outflow boundaries let mass leave: an episode loses
// 4.6e-4 of it, the same in every run; the bound leaves about 2x margin.
constexpr Workload kSupernova{Problem::kSupernova2d, "supernova2d_traced", 4,
                              false, 1e-3};

SimConfig config_for(const Workload& w, const RunOptions& o, int lanes,
                     int nsteps) {
  SimConfig c;
  c.problem = w.problem;
  c.lanes = lanes;
  c.nsteps = nsteps;
  c.trace_sample = w.trace_sample;
  c.seed = o.seed;
  c.jitter = w.jitter;
  c.table_cache = o.cache_dir + "/" + kHelmTable;
  return c;
}

/// End state + published counters, for the bit-identity checks.
struct Snapshot {
  std::vector<double> state;
  perf::CounterSet counters;
};

Snapshot snapshot(Sim& sim) { return {sim.canonical_state(), sim.published()}; }

/// Wall time is a counter the model does not produce; everything else
/// must match exactly.
bool same_counters(const perf::CounterSet& a, const perf::CounterSet& b) {
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    if (a.values[e] != b.values[e]) return false;
  }
  return true;
}

bool same(const Snapshot& a, const Snapshot& b) {
  return a.state.size() == b.state.size() &&
         std::memcmp(a.state.data(), b.state.data(),
                     a.state.size() * sizeof(double)) == 0 &&
         same_counters(a.counters, b.counters);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Checks common to every episode of every mode.
class Gate {
 public:
  Gate(const Workload& w, const RunOptions& o, Report& report)
      : w_(w), o_(o), report_(report) {}

  /// After construction: the supernova's regions must have the backing
  /// `prepare` recorded, or model counters would compare across backings.
  void setup(Sim& sim) {
    mass0_ = sim.mass();
    if (w_.problem != Problem::kSupernova2d) return;
    const std::string backing = "unk " + sim.unk_backing().describe() +
                                " table " + sim.table_backing().describe();
    if (!same_as_recorded(o_.cache_dir, "backing", backing)) {
      report_.fail("supernova backing changed since prepare: now " + backing);
    }
  }

  /// At the end of an episode.
  void end(Sim& sim) {
    const double drift = std::abs(sim.mass() / mass0_ - 1.0);
    worst_drift_ = std::max(worst_drift_, drift);
    if (!(drift <= w_.mass_drift)) {
      report_.fail(std::string(w_.name) + ": mass drift " +
                   std::to_string(drift) + " over bound " +
                   std::to_string(w_.mass_drift));
    }
    // The blast is self-similar only once it has outgrown the initial
    // spike; the short 1-lane baseline stops before that.
    if (w_.problem == Problem::kSedov3d && sim.steps() >= kEpisodeSteps) {
      const double ratio = sim.shock_ratio();
      worst_shock_ = std::max(worst_shock_, std::abs(ratio - 1.0));
      if (!(std::abs(ratio - 1.0) <= kShockTolerance)) {
        report_.fail("sedov3d: shock radius off the similarity solution by " +
                     std::to_string(100.0 * (ratio - 1.0)) + "%");
      }
    }
  }

  void print() const {
    std::printf("# gates: worst mass drift %.3g (bound %.3g)", worst_drift_,
                w_.mass_drift);
    if (w_.problem == Problem::kSedov3d) {
      std::printf(", worst shock-radius error %.3g (bound %.3g)",
                  worst_shock_, kShockTolerance);
    }
    std::printf("\n");
  }

  /// The model counters of a full run must be the same in every episode
  /// and every run in this checkout.
  void counters(const perf::CounterSet& c) {
    if (!have_) {
      first_ = c;
      have_ = true;
      if (!same_as_recorded(o_.cache_dir, std::string(w_.name) + ".counters",
                            counters_text(c))) {
        report_.fail(std::string(w_.name) +
                     ": model counters differ from the first run");
      }
    } else if (!same_counters(first_, c)) {
      report_.fail(std::string(w_.name) +
                   ": model counters differ between episodes");
    }
  }

 private:
  const Workload& w_;
  const RunOptions& o_;
  Report& report_;
  double mass0_ = 0.0;
  double worst_drift_ = 0.0;
  double worst_shock_ = 0.0;
  perf::CounterSet first_;
  bool have_ = false;
};

/// One episode: timed setup and steps, and the states it passed.
struct Episode {
  double setup = 0.0;
  std::vector<double> steps;
  std::vector<double> leaves;  ///< leaf blocks after each traced step
  Snapshot at_baseline;        ///< after kBaselineSteps, when asked for
  Snapshot at_end;
  [[nodiscard]] double wall() const {
    double sum = setup;
    for (const double x : steps) sum += x;
    return sum;
  }
};

/// Run one episode of \p nsteps at \p lanes, stepped by the Driver
/// (\p ledger null) or by the benchmark's loop recording into \p ledger;
/// \p inspect sees the simulation at the end.
Episode episode(const Workload& w, const RunOptions& o, int lanes, int nsteps,
                Ledger* ledger, Gate& gate, Report& report,
                bool snapshot_baseline = false,
                const std::function<void(Sim&)>& inspect = {}) {
  Episode e;
  const Clock::time_point t0 = Clock::now();
  Sim sim(config_for(w, o, lanes, nsteps));
  e.setup = seconds_since(t0);
  gate.setup(sim);
  for (int s = 0; s < nsteps; ++s) {
    const Clock::time_point t = Clock::now();
    if (ledger != nullptr) {
      sim.replica_step(*ledger);
    } else {
      sim.driver_step();
    }
    e.steps.push_back(seconds_since(t));
    if (ledger != nullptr && ledger->enabled()) {
      e.leaves.push_back(static_cast<double>(sim.leaf_blocks()));
    }
    if (snapshot_baseline && s + 1 == kBaselineSteps) {
      e.at_baseline = snapshot(sim);
    }
  }
  report.attempt(static_cast<std::uint64_t>(nsteps));
  e.at_end = snapshot(sim);
  gate.end(sim);
  if (inspect) inspect(sim);
  return e;
}

/// The paper's per-region table: modelled DTLB misses per step of each
/// PerfRegion the replay commits into.
void region_dtlb_misses(const Sim& sim, int steps, Values& v) {
  const perf::PerfContext& perf = sim.runtime().perf();
  for (const char* region : {"hydro", "eos", "flame", "grid"}) {
    v[std::string("perf.") + region + ".dtlb_misses"] =
        static_cast<double>(
            perf.regions().get(region).totals[perf::Event::kDtlbMisses]) /
        steps;
  }
}

/// The sedov3d workload steps without replay; its model counters come
/// from a separate pass over the canonical problem (the paper's Table II
/// instrumentation: every 4th block replayed). Fills the per-region
/// misses into \p layers when given.
perf::CounterSet sedov_counter_pass(const RunOptions& o, Report& report,
                                    Values* layers = nullptr) {
  SimConfig c = config_for(kSedov, o, 4, kCounterSteps);
  c.trace_sample = 4;
  c.jitter = false;
  Sim sim(c);
  while (sim.driver_step()) {
  }
  report.attempt(kCounterSteps);
  if (layers != nullptr) region_dtlb_misses(sim, kCounterSteps, *layers);
  return sim.published();
}

/// The process's first 4-lane episode runs its first steps up to 2x slow
/// (lane pool and allocator warm-up); run one before any timed window.
void warm_up(const Workload& w, const RunOptions& o, Gate& gate,
             Report& report) {
  const Episode e = episode(w, o, 4, kEpisodeSteps, nullptr, gate, report);
  std::printf("%s\n", format_timing("warm-up step_s", e.steps).c_str());
}

void run_timed(const Workload& w, const RunOptions& o, Report& report) {
  Gate gate(w, o, report);
  warm_up(w, o, gate, report);
  const Clock::time_point start = Clock::now();
  std::vector<double> setups, steps, baseline, walls, pairs, efficiency;
  perf::CounterSet counters;
  Ledger off(false);
  while (static_cast<int>(pairs.size()) < kMinPairs ||
         seconds_since(start) + mean(pairs) < o.seconds) {
    const Clock::time_point t0 = Clock::now();
    const Episode d =
        episode(w, o, 4, kEpisodeSteps, nullptr, gate, report, true);
    const Episode b = episode(w, o, 1, kBaselineSteps, &off, gate, report);
    pairs.push_back(seconds_since(t0));
    // Parallel efficiency within one pair, over the same steps: adjacent
    // windows share the machine's memory-bandwidth weather.
    const std::vector<double> first(d.steps.begin(),
                                    d.steps.begin() + kBaselineSteps);
    efficiency.push_back(nearest_rank(b.steps, 0.5) /
                         (4.0 * nearest_rank(first, 0.5)));
    setups.push_back(d.setup);
    walls.push_back(d.wall());
    steps.insert(steps.end(), d.steps.begin(), d.steps.end());
    baseline.insert(baseline.end(), b.steps.begin(), b.steps.end());
    if (!same(b.at_end, d.at_baseline)) {
      report.fail(std::string(w.name) +
                  ": 1-lane step loop differs from Driver::step_once at 4 "
                  "lanes");
    }
    if (w.trace_sample > 0) gate.counters(d.at_end.counters);
    counters = d.at_end.counters;
  }

  double counter_steps = kEpisodeSteps;
  if (w.problem == Problem::kSedov3d) {
    counters = sedov_counter_pass(o, report);
    counter_steps = kCounterSteps;
    gate.counters(counters);
  }

  gate.print();
  std::printf("%s\n", format_timing("setup_s", setups).c_str());
  std::printf("%s\n", format_timing("step_s (4 lanes)", steps).c_str());
  std::printf("%s\n", format_timing("step_s (1 lane)", baseline).c_str());
  std::printf("%s\n", format_timing("episode_s (4 lanes)", walls).c_str());
  std::printf("# parallel efficiency per pair: median %.4f n=%zu\n",
              nearest_rank(efficiency, 0.5), efficiency.size());

  const double p50 = nearest_rank(steps, 0.5);
  const double p90 = nearest_rank(steps, 0.9);
  double wall_sum = 0.0;
  for (const double x : walls) wall_sum += x;
  emit(report,
       {{"setup_s", nearest_rank(setups, 0.5)},
        {"peak_rss_mib", peak_rss_mib()},
        {"step_p50_s", p50},
        {"step_p90_s", p90},
        {"parallel_eff", nearest_rank(efficiency, 0.5)},
        {"model_dtlb_misses_per_step",
         static_cast<double>(counters[perf::Event::kDtlbMisses]) /
             counter_steps},
        {"model_cycles_per_step",
         static_cast<double>(counters[perf::Event::kCycles]) / counter_steps},
        {"sims_per_s", static_cast<double>(walls.size()) / wall_sum},
        {"interactive_p50_s", p50},
        {"interactive_p90_s", p90},
        {"batch_p50_s", nearest_rank(walls, 0.5)},
        {"batch_p90_s", nearest_rank(walls, 0.9)}},
       false);
}

double per_call(const Ledger::Breakdown& b, const char* name) {
  const auto it = b.layers.find(name);
  if (it == b.layers.end() || it->second.calls == 0) return 0.0;
  return static_cast<double>(it->second.self) /
         static_cast<double>(it->second.calls);
}

void run_traced(const Workload& w, const RunOptions& o, Report& report) {
  Gate gate(w, o, report);
  warm_up(w, o, gate, report);
  const Clock::time_point start = Clock::now();
  Ledger ledger(true);
  std::vector<double> untraced_steps, setups, leaves, pairs;
  std::uint64_t zones = 0, accesses = 0, changed = 0;
  Values v;
  const auto inspect = [&](Sim& sim) {
    zones += sim.zones_swept();
    accesses += sim.replay_accesses();
    changed += sim.remesh_changed();
    if (w.trace_sample > 0) region_dtlb_misses(sim, kEpisodeSteps, v);
    const mem::PoolCounters pool = sim.pool_counters();
    v["mem.pool.huge_allocs"] = static_cast<double>(pool.huge_allocs);
    v["mem.pool.thp_fallbacks"] = static_cast<double>(pool.thp_fallbacks);
    v["mem.pool.base_fallbacks"] = static_cast<double>(pool.base_fallbacks);
    v["mem.huge_resident_mib"] =
        static_cast<double>(sim.huge_resident_bytes()) / (1024.0 * 1024.0);
  };

  Snapshot driver_end;
  while (pairs.empty() || seconds_since(start) + mean(pairs) < o.seconds) {
    const Clock::time_point t0 = Clock::now();
    const Episode d = episode(w, o, 4, kEpisodeSteps, nullptr, gate, report);
    const Episode t = episode(w, o, 4, kEpisodeSteps, &ledger, gate, report,
                              false, inspect);
    pairs.push_back(seconds_since(t0));
    setups.push_back(d.setup);
    setups.push_back(t.setup);
    untraced_steps.insert(untraced_steps.end(), d.steps.begin(),
                          d.steps.end());
    leaves.insert(leaves.end(), t.leaves.begin(), t.leaves.end());
    if (w.trace_sample > 0) gate.counters(d.at_end.counters);
    if (!same(t.at_end, d.at_end)) {
      report.fail(std::string(w.name) +
                  ": 4-lane step loop differs from Driver::step_once");
    }
    driver_end = d.at_end;
  }

  // Per-call parallel speedups: one traced 1-lane episode against the
  // same calls of the 4-lane episodes.
  Ledger one_lane(true);
  const Episode one =
      episode(w, o, 1, kEpisodeSteps, &one_lane, gate, report);
  if (!same(one.at_end, driver_end)) {
    report.fail(std::string(w.name) +
                ": 1-lane step loop differs from Driver::step_once at 4 "
                "lanes");
  }
  const Ledger::Breakdown b1 = one_lane.breakdown("sim.step");
  const Ledger::Breakdown b = ledger.breakdown("sim.step");
  auto speedup = [&](const char* name) {
    const double four = per_call(b, name);
    return four > 0.0 ? per_call(b1, name) / four : 0.0;
  };
  v["par.speedup_fill_guardcells"] = speedup("mesh.fill_guardcells");
  v["par.speedup_sweep"] = speedup("hydro.sweep");
  v["par.speedup_eos_update"] = speedup("eos.update");

  if (w.problem == Problem::kSedov3d) {
    gate.counters(sedov_counter_pass(o, report, &v));
    v["sim.setup_s.sedov"] = nearest_rank(setups, 0.5);
  } else {
    v["sim.setup_s.supernova"] = nearest_rank(setups, 0.5);
    std::vector<double> loads;
    rt::Runtime runtime;
    for (int k = 0; k < kTableLoads; ++k) {
      const Clock::time_point t = Clock::now();
      const eos::HelmTable table = eos::HelmTable::build_or_load(
          eos::HelmTableSpec{}, mem::HugePolicy::kHugetlbfs,
          runtime.page_pool(), o.cache_dir + "/" + kHelmTable);
      loads.push_back(seconds_since(t));
    }
    std::printf("%s\n", format_timing("eos.table_load_s", loads).c_str());
    v["eos.table_load_s"] = nearest_rank(loads, 0.5);
  }

  // Per-step self times: the children of every traced step plus the
  // step's own remainder add up to its wall time exactly (integer ns).
  const auto nsteps = static_cast<double>(b.roots);
  Ledger::Ns children = 0;
  auto self_s = [&](const char* name) {
    const auto it = b.layers.find(name);
    return it == b.layers.end()
               ? 0.0
               : static_cast<double>(it->second.self) * 1e-9 / nsteps;
  };
  auto calls = [&](const char* name) {
    const auto it = b.layers.find(name);
    return it == b.layers.end()
               ? 0.0
               : static_cast<double>(it->second.calls) / nsteps;
  };
  for (const auto& [name, layer] : b.layers) children += layer.self;
  if (children + b.root_self != b.root_wall) {
    report.fail("ledger: child self times do not add up to the step wall");
  }
  v["mesh.fill_guardcells_s"] = self_s("mesh.fill_guardcells");
  v["mesh.fill_guardcells_calls"] = calls("mesh.fill_guardcells");
  v["mesh.remesh_s"] = self_s("mesh.remesh");
  v["mesh.remesh_blocks_changed"] = static_cast<double>(changed) / nsteps;
  v["mesh.leaf_blocks"] = mean(leaves);
  v["hydro.compute_dt_s"] = self_s("hydro.compute_dt");
  v["hydro.sweep_s"] = self_s("hydro.sweep");
  v["hydro.sweep_ns_per_zone"] =
      zones > 0 ? self_s("hydro.sweep") * nsteps * 1e9 /
                      static_cast<double>(zones)
                : 0.0;
  v["eos.update_s"] = self_s("eos.update");
  v["flame.advance_s"] = self_s("flame.advance");
  v["gravity.update_s"] = self_s("gravity.update");
  v["gravity.apply_source_s"] = self_s("gravity.apply_source");
  v["tlb.replay_s"] = self_s("tlb.replay");
  v["tlb.replay_accesses"] = static_cast<double>(accesses) / nsteps;
  v["tlb.replay_ns_per_access"] =
      accesses > 0 ? self_s("tlb.replay") * nsteps * 1e9 /
                         static_cast<double>(accesses)
                   : 0.0;
  v["sim.step_s"] = static_cast<double>(b.root_wall) * 1e-9 / nsteps;
  v["sim.step_other_s"] = static_cast<double>(b.root_self) * 1e-9 / nsteps;
  const std::vector<double> traced_steps = ledger.durations("sim.step");
  v["bench.trace_overhead"] = nearest_rank(traced_steps, 0.5) /
                              nearest_rank(untraced_steps, 0.5);

  gate.print();
  std::printf("%s\n",
              format_timing("step_s (untraced)", untraced_steps).c_str());
  std::printf("%s\n", format_timing("step_s (traced)", traced_steps).c_str());
  std::printf("# traced steps: %zu; mean self time per step [s]:\n",
              b.roots);
  for (const auto& [name, layer] : b.layers) {
    std::printf("#   %-22s %.6f  (%.2f calls)\n", name.c_str(),
                static_cast<double>(layer.self) * 1e-9 / nsteps,
                static_cast<double>(layer.calls) / nsteps);
  }
  std::printf("#   %-22s %.6f\n#   %-22s %.6f\n", "(step other)",
              v["sim.step_other_s"], "(step wall)", v["sim.step_s"]);

  const std::string spans = o.cache_dir + "/spans-" + w.name + ".json";
  if (!ledger.write(spans)) report.fail("cannot write " + spans);
  emit(report, v, true);
}

}  // namespace

void run_sedov3d(const RunOptions& options, Report& report) {
  if (options.trace) {
    run_traced(kSedov, options, report);
  } else {
    run_timed(kSedov, options, report);
  }
}

void run_supernova2d(const RunOptions& options, Report& report) {
  if (options.trace) {
    run_traced(kSupernova, options, report);
  } else {
    run_timed(kSupernova, options, report);
  }
}

}  // namespace fhp::perfbench
