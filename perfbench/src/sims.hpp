/// \file sims.hpp
/// \brief The two single-simulation problems and the benchmark's own
/// step loop over them.
///
/// A Sim assembles one problem exactly as the paper-reproduction benches
/// do (bench/experiment_runners.hpp): the 3-d Sedov explosion of Table II
/// and the 2-d white-dwarf deflagration of Table I. It can be advanced
/// either by sim::Driver::step_once (the untraced, timed path) or by
/// replica_step, which makes the same public calls in the same order and
/// records one ledger span around each. The two paths must end in
/// bit-identical states and published counters; the workloads check it.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hydro/hydro.hpp"
#include "ledger.hpp"
#include "perf/timers.hpp"
#include "rt/runtime.hpp"
#include "sim/driver.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"
#include "tlb/machine.hpp"

namespace fhp::perfbench {

enum class Problem { kSedov3d, kSupernova2d };

struct SimConfig {
  Problem problem = Problem::kSedov3d;
  int lanes = 4;
  int nsteps = 16;
  /// Replay every Nth leaf block into the machine model (0 = off).
  int trace_sample = 0;
  /// Sedov only: with `jitter`, the explosion centre moves by up to a
  /// quarter of a finest cell along each axis, drawn from `seed`;
  /// without it the centre is the canonical (0.5, 0.5, 0.5).
  std::uint64_t seed = 0;
  bool jitter = false;
  /// Supernova only: Helm table cache file (built by `prepare`).
  std::string table_cache;
};

/// Backing of one mapped region, as recorded by `prepare`.
struct RegionBacking {
  std::string backing;  ///< mem::to_string(Backing)
  std::size_t page_bytes = 0;
  int model_page_shift = 0;  ///< page size the machine model replays with
  [[nodiscard]] std::string describe() const;
};

class Sim {
 public:
  explicit Sim(const SimConfig& config);
  ~Sim();
  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;

  /// Advance through sim::Driver::step_once; false once the budget is
  /// spent. A Sim is stepped by the Driver or by replica_step, never both.
  bool driver_step();

  /// Advance by one step of the benchmark's own loop: the public calls
  /// Driver::step_once makes, each inside a span of \p ledger.
  bool replica_step(Ledger& ledger);

  [[nodiscard]] int steps() const;
  [[nodiscard]] double sim_time() const;
  [[nodiscard]] mesh::AmrMesh& mesh();
  [[nodiscard]] rt::Runtime& runtime() const noexcept { return *runtime_; }

  /// svc::canonical_state plus the flame's released energy.
  [[nodiscard]] std::vector<double> canonical_state();
  [[nodiscard]] perf::CounterSet published() const;
  [[nodiscard]] double mass();
  [[nodiscard]] std::size_t leaf_blocks();

  /// Sedov: measured shock radius over the analytic one (else 0).
  [[nodiscard]] double shock_ratio();

  [[nodiscard]] RegionBacking unk_backing() const;
  [[nodiscard]] RegionBacking table_backing() const;  ///< supernova only
  [[nodiscard]] std::uint64_t huge_resident_bytes() const;
  [[nodiscard]] mem::PoolCounters pool_counters() const;

  // Replica-only accounting (zero when driven by the Driver).
  [[nodiscard]] std::uint64_t replay_accesses() const noexcept {
    return replay_accesses_;
  }
  [[nodiscard]] std::uint64_t zones_swept() const noexcept {
    return zones_swept_;
  }
  [[nodiscard]] std::uint64_t remesh_changed() const noexcept {
    return remesh_changed_;
  }

 private:
  void replay();

  std::unique_ptr<rt::Runtime> runtime_;
  std::unique_ptr<sim::SedovSetup> sedov_;
  std::unique_ptr<sim::SupernovaSetup> supernova_;
  std::unique_ptr<hydro::HydroSolver> hydro_;
  std::unique_ptr<tlb::Machine> machine_;
  perf::Timers timers_;
  sim::DriverOptions options_;
  sim::DriverUnits units_;
  std::unique_ptr<sim::Driver> driver_;

  // Replica loop state (the Driver keeps its own).
  bool replica_ = false;  ///< stepped by replica_step
  double time_ = 0.0;
  double dt_ = 0.0;
  int step_ = 0;
  std::uint64_t replay_accesses_ = 0;
  std::uint64_t zones_swept_ = 0;
  std::uint64_t remesh_changed_ = 0;
};

}  // namespace fhp::perfbench
