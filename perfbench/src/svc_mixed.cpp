/// \file svc_mixed.cpp
/// \brief The svc_mixed workload: a closed loop against one svc::Service.
///
/// One generator thread keeps kInFlight jobs in flight against a
/// 4-worker service (queue capacity 16, so no kQueueFull backpressure):
/// whenever a job resolves, the next one is submitted until the time
/// budget is spent. Job classes come from bench_service's three specs:
/// Sedov (interactive), cellular and supernova (batch). Tenant setup
/// under the service's setup mutex and fair-share queueing carry the
/// cost; every tenant steps a small 2-d mesh.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "eos/eos_table.hpp"
#include "ledger.hpp"
#include "metrics.hpp"
#include "rt/runtime.hpp"
#include "sim/cellular.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace fhp::perfbench {

namespace {

constexpr int kWorkers = 4;
constexpr int kQueueCapacity = 16;
constexpr int kInFlight = 8;
constexpr int kSetupProbes = 40;  ///< service constructions timed
constexpr int kSegments = 5;        ///< closed-loop segments per run
constexpr int kSoloPerSegment = 2;  ///< solo jobs per class per segment
constexpr int kCounterJobs = 4;   ///< concurrent replaying supernovae
constexpr int kSetupRepeats = 3;  ///< traced: solo setup constructions
constexpr auto kPoll = std::chrono::microseconds(500);

enum Class : std::size_t { kSedov, kCellular, kSupernova, kClasses };
constexpr const char* kClassNames[kClasses] = {"sedov", "cellular",
                                               "supernova"};

/// bench_service's three job specs.
svc::JobSpec spec_for(Class c, const std::string& cache_dir) {
  svc::JobSpec spec;
  switch (c) {
    case kSedov:
      spec.kind = svc::JobKind::kSedov;
      spec.deadline = svc::DeadlineClass::kInteractive;
      spec.nsteps = 6;
      spec.sedov.ndim = 2;
      spec.sedov.nzb = 1;
      spec.sedov.max_level = 2;
      spec.sedov.maxblocks = 128;
      break;
    case kCellular:
      spec.kind = svc::JobKind::kCellular;
      spec.deadline = svc::DeadlineClass::kBatch;
      spec.nsteps = 5;
      spec.cellular.max_level = 2;
      spec.cellular.maxblocks = 128;
      break;
    default:
      spec.kind = svc::JobKind::kSupernova;
      spec.deadline = svc::DeadlineClass::kBatch;
      spec.nsteps = 2;
      spec.supernova.max_level = 3;
      spec.supernova.maxblocks = 400;
      spec.supernova.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
      spec.supernova.table_cache = cache_dir + "/" + kServiceTable;
      break;
  }
  return spec;
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions opts;
  opts.workers = kWorkers;
  opts.queue_capacity = kQueueCapacity;
  return opts;
}

bool is_batch(Class c) { return c != kSedov; }

/// One resolved job of the closed loop.
struct Done {
  Class cls;
  svc::JobResult result;
  double submit_s;  ///< duration of the submit() call
};

/// Deals job classes from shuffled decks that hold each class once, so
/// the seed changes the arrival order but not the mix.
class Dealer {
 public:
  explicit Dealer(std::uint64_t seed) : rng_(seed) {}
  Class next() {
    if (deck_.empty()) {
      deck_ = {kSedov, kCellular, kSupernova};
      std::shuffle(deck_.begin(), deck_.end(), rng_);
    }
    const Class cls = deck_.back();
    deck_.pop_back();
    return cls;
  }

 private:
  Rng rng_;
  std::vector<Class> deck_;
};

/// What the closed loop measured, summed over its segments.
struct Loop {
  std::vector<Done> done;
  double span = 0.0;  ///< first submit -> last result, per segment
  std::uint64_t rejected = 0;
  std::uint64_t backpressure = 0;
  double active_sum = 0.0;  ///< active tenants summed over polls
  std::uint64_t polls = 0;
  [[nodiscard]] double mean_active() const {
    return polls > 0 ? active_sum / static_cast<double>(polls) : 0.0;
  }
};

/// One closed-loop segment: keep kInFlight jobs in flight for \p seconds,
/// then let the last ones finish. Appends to \p loop.
void closed_loop(svc::Service& service, const RunOptions& o, Dealer& dealer,
                 double seconds, Report& report, Ledger& ledger, Loop& loop) {
  struct Flight {
    svc::JobId id;
    Class cls;
    double submit_s;
  };
  std::vector<Flight> flight;

  const Clock::time_point t0 = Clock::now();
  auto submit = [&]() {
    const Class cls = dealer.next();
    const svc::JobSpec spec = spec_for(cls, o.cache_dir);
    for (;;) {
      const Clock::time_point t = Clock::now();
      svc::Submission s;
      {
        const Ledger::Scope span(ledger, "svc.submit");
        s = service.submit(spec);
      }
      const double submit_s = seconds_since(t);
      if (s.accepted()) {
        report.attempt();
        flight.push_back({s.id, cls, submit_s});
        return;
      }
      if (s.reason != svc::RejectReason::kQueueFull) {
        report.attempt();
        report.failed_op();
        report.fail(std::string("submit refused: ") +
                    svc::to_string(s.reason));
        ++loop.rejected;
        return;
      }
      ++loop.backpressure;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  for (int k = 0; k < kInFlight; ++k) submit();
  Clock::time_point last = t0;
  while (!flight.empty()) {
    std::this_thread::sleep_for(kPoll);
    loop.active_sum += service.stats().active_tenants;
    ++loop.polls;
    for (std::size_t i = 0; i < flight.size();) {
      const auto p = service.progress(flight[i].id);
      const bool resolved = p && p->status != svc::JobStatus::kQueued &&
                            p->status != svc::JobStatus::kRunning;
      if (!resolved) {
        ++i;
        continue;
      }
      svc::JobResult r;
      {
        const Ledger::Scope span(ledger, "svc.wait");
        r = service.wait(flight[i].id);
      }
      last = Clock::now();
      if (r.status != svc::JobStatus::kDone) {
        report.failed_op();
        report.fail(std::string("job ") + kClassNames[flight[i].cls] +
                    " resolved " + svc::to_string(r.status) + ": " + r.error);
      }
      loop.done.push_back({flight[i].cls, std::move(r), flight[i].submit_s});
      flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
      if (seconds_since(t0) < seconds) submit();
    }
  }
  loop.span += std::chrono::duration<double>(last - t0).count();
}

/// Run one job of each class alone on the idle \p service, adding each
/// latency to \p solo[class].
void solo_probe(svc::Service& service, const RunOptions& o, Report& report,
                std::vector<std::vector<double>>& solo) {
  for (std::size_t c = 0; c < kClasses; ++c) {
    const svc::Submission s =
        service.submit(spec_for(static_cast<Class>(c), o.cache_dir));
    report.attempt();
    const svc::JobResult r =
        s.accepted() ? service.wait(s.id) : svc::JobResult{};
    if (r.status != svc::JobStatus::kDone) {
      report.failed_op();
      report.fail("solo job did not complete: " + r.error);
      continue;
    }
    solo[c].push_back(r.wall_seconds);
  }
}

/// Service construction to the first accepted job, kSetupProbes times.
std::vector<double> setup_probes(const RunOptions& o, Report& report) {
  std::vector<double> out;
  for (int k = 0; k < kSetupProbes; ++k) {
    const Clock::time_point t0 = Clock::now();
    svc::Service service(service_options());
    const svc::Submission s = service.submit(spec_for(kSedov, o.cache_dir));
    out.push_back(seconds_since(t0));
    report.attempt();
    if (!s.accepted() ||
        service.wait(s.id).status != svc::JobStatus::kDone) {
      report.failed_op();
      report.fail("setup-probe job did not complete");
    }
  }
  return out;
}

/// kCounterJobs supernovae replaying every 4th block, run as concurrent
/// co-tenants: their published counters must agree with each other and
/// with every earlier run. Returns one job's counters.
perf::CounterSet counter_pass(svc::Service& service, const RunOptions& o,
                              Report& report) {
  svc::JobSpec spec = spec_for(kSupernova, o.cache_dir);
  spec.trace_sample = 4;
  std::vector<svc::JobId> ids;
  for (int k = 0; k < kCounterJobs; ++k) {
    const svc::Submission s = service.submit(spec);
    report.attempt();
    if (s.accepted()) {
      ids.push_back(s.id);
    } else {
      report.failed_op();
      report.fail("counter-pass submit refused");
    }
  }
  perf::CounterSet first;
  std::string text;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const svc::JobResult r = service.wait(ids[k]);
    if (r.status != svc::JobStatus::kDone) {
      report.failed_op();
      report.fail("counter-pass job failed: " + r.error);
      continue;
    }
    const std::string t = counters_text(r.counters.counters);
    if (k == 0) {
      first = r.counters.counters;
      text = t;
    } else if (t != text) {
      report.fail("co-tenant supernovae published different model counters");
    }
  }
  if (!same_as_recorded(o.cache_dir, "svc_mixed.counters", text)) {
    report.fail("svc_mixed: model counters differ from the first run");
  }
  return first;
}

void run_timed(const RunOptions& o, Report& report) {
  const std::vector<double> setups = setup_probes(o, report);
  svc::Service service(service_options());
  // The loop runs in kSegments segments; after each, the idle service
  // runs each class alone. The solo samples then see the same machine
  // weather as the loop they are compared with (parallel_eff).
  Ledger off(false);
  Dealer dealer(o.seed);
  Loop loop;
  std::vector<std::vector<double>> solo(kClasses);
  for (int k = 0; k < kSegments; ++k) {
    closed_loop(service, o, dealer, o.seconds / kSegments, report, off, loop);
    for (int r = 0; r < kSoloPerSegment; ++r) {
      solo_probe(service, o, report, solo);
    }
  }
  const perf::CounterSet counters = counter_pass(service, o, report);
  const double counter_steps = spec_for(kSupernova, o.cache_dir).nsteps;

  // A class's serial work is its fastest solo latency: the median of 10
  // still swung by 25% between runs on a VM sharing memory bandwidth.
  std::vector<double> solo_work_of(kClasses);
  for (std::size_t c = 0; c < kClasses; ++c) {
    solo_work_of[c] = nearest_rank(solo[c], 0.0);
    std::printf("%s\n", format_timing(std::string("solo_s.") + kClassNames[c],
                                      solo[c])
                            .c_str());
  }
  std::vector<double> steps, interactive, batch;
  double solo_work = 0.0;
  for (const Done& d : loop.done) {
    if (d.result.status != svc::JobStatus::kDone) continue;
    const svc::JobResult& r = d.result;
    steps.push_back((r.wall_seconds - r.queue_seconds) / r.steps);
    (is_batch(d.cls) ? batch : interactive).push_back(r.wall_seconds);
    solo_work += solo_work_of[d.cls];
  }
  std::printf("%s\n", format_timing("setup_s", setups).c_str());
  std::printf("%s\n", format_timing("tenant_step_s", steps).c_str());
  std::printf("%s\n", format_timing("interactive_s", interactive).c_str());
  std::printf("%s\n", format_timing("batch_s", batch).c_str());
  std::printf("# %zu jobs in %.3f s; %llu backpressure retries\n",
              loop.done.size(), loop.span,
              static_cast<unsigned long long>(loop.backpressure));

  const auto completed = static_cast<double>(steps.size());
  emit(report,
       {{"setup_s", nearest_rank(setups, 0.5)},
        {"peak_rss_mib", peak_rss_mib()},
        {"step_p50_s", nearest_rank(steps, 0.5)},
        {"step_p90_s", nearest_rank(steps, 0.9)},
        {"parallel_eff", solo_work / (kWorkers * loop.span)},
        {"model_dtlb_misses_per_step",
         static_cast<double>(counters[perf::Event::kDtlbMisses]) /
             counter_steps},
        {"model_cycles_per_step",
         static_cast<double>(counters[perf::Event::kCycles]) / counter_steps},
        {"sims_per_s", completed / loop.span},
        {"interactive_p50_s", nearest_rank(interactive, 0.5)},
        {"interactive_p90_s", nearest_rank(interactive, 0.9)},
        {"batch_p50_s", nearest_rank(batch, 0.5)},
        {"batch_p90_s", nearest_rank(batch, 0.9)}},
       false);
}

/// Construct each class's setup alone, as the service does under its
/// setup mutex, and time it.
template <typename Setup, typename Params>
double solo_setup(const Params& params, mem::HugePolicy policy,
                  Ledger& ledger, const char* span) {
  std::vector<double> runs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rt::RuntimeOptions ropt;
    ropt.lanes = 1;
    rt::Runtime runtime(ropt);
    const Clock::time_point t0 = Clock::now();
    const Ledger::Scope s(ledger, span);
    const Setup setup(params, policy, runtime);
    runs.push_back(seconds_since(t0));
  }
  return nearest_rank(runs, 0.5);
}

void run_traced(const RunOptions& o, Report& report) {
  Values v;
  Ledger ledger(true);
  const svc::JobSpec sedov = spec_for(kSedov, o.cache_dir);
  const svc::JobSpec cellular = spec_for(kCellular, o.cache_dir);
  const svc::JobSpec supernova = spec_for(kSupernova, o.cache_dir);
  v["sim.setup_s.sedov"] = solo_setup<sim::SedovSetup>(
      sedov.sedov, sedov.policy, ledger, "sim.setup.sedov");
  v["sim.setup_s.cellular"] = solo_setup<sim::CellularSetup>(
      cellular.cellular, cellular.policy, ledger, "sim.setup.cellular");
  v["sim.setup_s.supernova"] = solo_setup<sim::SupernovaSetup>(
      supernova.supernova, supernova.policy, ledger, "sim.setup.supernova");
  {
    std::vector<double> loads;
    rt::Runtime runtime;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const Clock::time_point t0 = Clock::now();
      const Ledger::Scope s(ledger, "eos.table_load");
      const eos::HelmTable table = eos::HelmTable::build_or_load(
          supernova.supernova.table_spec, supernova.policy,
          runtime.page_pool(), supernova.supernova.table_cache);
      loads.push_back(seconds_since(t0));
    }
    v["eos.table_load_s"] = nearest_rank(loads, 0.5);
  }

  svc::Service service(service_options());
  Dealer dealer(o.seed);
  Loop loop;
  closed_loop(service, o, dealer, o.seconds, report, ledger, loop);
  double submit = 0.0, queue[2] = {}, run[2] = {}, n[2] = {};
  mem::PoolCounters pool;
  for (const Done& d : loop.done) {
    const svc::JobResult& r = d.result;
    const std::size_t c = is_batch(d.cls) ? 1 : 0;
    submit += d.submit_s;
    queue[c] += r.queue_seconds;
    run[c] += r.wall_seconds - r.queue_seconds;
    n[c] += 1.0;
    pool.huge_allocs += r.pool.huge_allocs;
    pool.thp_fallbacks += r.pool.thp_fallbacks;
    pool.base_fallbacks += r.pool.base_fallbacks;
  }
  const svc::ServiceStats stats = service.stats();
  const auto jobs = static_cast<double>(loop.done.size());
  v["svc.submit_s"] = jobs > 0 ? submit / jobs : 0.0;
  v["svc.queue_s.interactive"] = n[0] > 0 ? queue[0] / n[0] : 0.0;
  v["svc.queue_s.batch"] = n[1] > 0 ? queue[1] / n[1] : 0.0;
  v["svc.run_s.interactive"] = n[0] > 0 ? run[0] / n[0] : 0.0;
  v["svc.run_s.batch"] = n[1] > 0 ? run[1] / n[1] : 0.0;
  v["svc.active_tenants"] = loop.mean_active();
  v["svc.failed"] = static_cast<double>(stats.failed);
  v["svc.rejected"] = static_cast<double>(loop.rejected);
  v["mem.pool.huge_allocs"] = static_cast<double>(pool.huge_allocs);
  v["mem.pool.thp_fallbacks"] = static_cast<double>(pool.thp_fallbacks);
  v["mem.pool.base_fallbacks"] = static_cast<double>(pool.base_fallbacks);

  std::printf("# %zu jobs in %.3f s; setup solo [s]: sedov %.4f cellular "
              "%.4f supernova %.4f; table load %.4f s\n",
              loop.done.size(), loop.span, v["sim.setup_s.sedov"],
              v["sim.setup_s.cellular"], v["sim.setup_s.supernova"],
              v["eos.table_load_s"]);
  const std::string spans = o.cache_dir + "/spans-svc_mixed.json";
  if (!ledger.write(spans)) report.fail("cannot write " + spans);
  emit(report, v, true);
}

}  // namespace

void run_svc_mixed(const RunOptions& options, Report& report) {
  if (options.trace) {
    run_traced(options, report);
  } else {
    run_timed(options, report);
  }
}

}  // namespace fhp::perfbench
