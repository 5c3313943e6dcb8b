#include "sims.hpp"

#include <stdexcept>

#include "mesh/config.hpp"
#include "perf/region.hpp"
#include "sim/profiles.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

namespace fhp::perfbench {

namespace {

RegionBacking backing_of(const mem::MappedRegion& region,
                         std::uint8_t model_page_shift) {
  RegionBacking b;
  b.backing = std::string(mem::to_string(region.backing()));
  b.page_bytes = region.page_bytes();
  b.model_page_shift = model_page_shift;
  return b;
}

}  // namespace

std::string RegionBacking::describe() const {
  return backing + "/" + std::to_string(page_bytes) + "/shift" +
         std::to_string(model_page_shift);
}

Sim::Sim(const SimConfig& config) {
  rt::RuntimeOptions ropt;
  ropt.lanes = config.lanes;
  // A private pool per simulation: it reads the free hugetlb inventory at
  // its first allocation, so consecutive simulations (one alive at a time)
  // see the same pages and get the same backing.
  runtime_ = std::make_unique<rt::Runtime>(ropt);

  hydro::HydroOptions hopt;
  hopt.cfl = 0.6;
  options_.nsteps = config.nsteps;
  options_.trace_sample = config.trace_sample;
  options_.verbose = false;
  units_.runtime = runtime_.get();
  if (config.trace_sample > 0) {
    machine_ = std::make_unique<tlb::Machine>(tlb::MachineParams{},
                                              &runtime_->perf());
    units_.machine = machine_.get();
  }

  if (config.problem == Problem::kSedov3d) {
    sim::SedovParams params;
    params.maxblocks = 700;
    if (config.jitter) {
      Rng rng(config.seed);
      const double dx =
          1.0 / (params.nxb * (1 << (params.max_level - 1)));
      for (double& c : params.center) c += rng.uniform(-0.25, 0.25) * dx;
    }
    sedov_ = std::make_unique<sim::SedovSetup>(params, mem::HugePolicy::kNone,
                                               *runtime_);
    hydro_ = std::make_unique<hydro::HydroSolver>(sedov_->mesh(),
                                                  sedov_->eos(), hopt);
    mesh::AmrMesh& m = sedov_->mesh();
    // The Table II arm's EOS replay hook (bench/experiment_runners.hpp).
    units_.eos_trace = [&m](tlb::Tracer& t, int b) {
      const mesh::MeshConfig& c = m.config();
      m.unk().trace_sweep(t, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(), c.klo(),
                          c.khi(), 8, 6);
      t.compute(static_cast<std::uint64_t>(c.nxb * c.nyb * c.nzb) * 40, 0);
    };
  } else {
    sim::SupernovaParams params;
    params.maxblocks = 1500;
    params.table_cache = config.table_cache;
    supernova_ = std::make_unique<sim::SupernovaSetup>(
        params, mem::HugePolicy::kHugetlbfs, *runtime_);
    hydro_ = std::make_unique<hydro::HydroSolver>(supernova_->mesh(),
                                                  supernova_->eos(), hopt);
    hydro_->set_composition_fn(supernova_->composition_fn());
    units_.flame = &supernova_->flame();
    units_.gravity = &supernova_->gravity();
    sim::SupernovaSetup* setup = supernova_.get();
    units_.eos_trace = [setup](tlb::Tracer& t, int b) {
      setup->trace_eos_block(t, b);
    };
    options_.refine_vars = {mesh::var::kDens,
                            mesh::var::kFirstScalar + sim::snvar::kPhi};
  }
  driver_ = std::make_unique<sim::Driver>(mesh(), *hydro_, timers_, options_,
                                          units_);
  // The Driver fills in the default refinement variables; the replica
  // uses the same list.
  if (options_.refine_vars.empty()) {
    options_.refine_vars = {mesh::var::kDens, mesh::var::kPres};
  }
}

Sim::~Sim() = default;

mesh::AmrMesh& Sim::mesh() {
  return sedov_ != nullptr ? sedov_->mesh() : supernova_->mesh();
}

int Sim::steps() const { return replica_ ? step_ : driver_->steps(); }

double Sim::sim_time() const {
  return replica_ ? time_ : driver_->sim_time();
}

bool Sim::driver_step() {
  if (replica_) throw std::logic_error("Sim already stepped by the replica");
  return driver_->step_once();
}

bool Sim::replica_step(Ledger& ledger) {
  if (!replica_ && driver_->steps() > 0) {
    throw std::logic_error("Sim already stepped by the Driver");
  }
  replica_ = true;
  if (step_ >= options_.nsteps || time_ >= options_.tmax) return false;
  mesh::AmrMesh& m = mesh();
  const int ndim = m.config().ndim;
  // Bookkeeping outside the step span: leaves change only at remesh.
  const std::uint64_t zones_per_sweep =
      static_cast<std::uint64_t>(m.config().nxb * m.config().nyb *
                                 m.config().nzb) *
      m.tree().leaves_morton().size();

  const rt::Runtime::BindScope bound(*runtime_);
  const Ledger::Scope step(ledger, "sim.step");
  {
    const Ledger::Scope s(ledger, "hydro.compute_dt");
    dt_ = hydro_->compute_dt();
  }
  if (time_ + dt_ > options_.tmax) dt_ = options_.tmax - time_;

  // HydroSolver::step: per axis guard fill, sweep, EOS; Strang order.
  const bool forward = hydro_->forward_order();
  for (int s = 0; s < ndim; ++s) {
    const int axis = forward ? s : ndim - 1 - s;
    {
      const Ledger::Scope g(ledger, "mesh.fill_guardcells");
      m.fill_guardcells();
    }
    zones_swept_ += zones_per_sweep;
    {
      const Ledger::Scope w(ledger, "hydro.sweep");
      hydro_->sweep(axis, dt_);
    }
    {
      const Ledger::Scope e(ledger, "eos.update");
      hydro_->eos_update();
    }
  }
  hydro_->advance_step_count();

  if (units_.flame != nullptr) {
    {
      const Ledger::Scope g(ledger, "mesh.fill_guardcells");
      m.fill_guardcells();
    }
    {
      const Ledger::Scope f(ledger, "flame.advance");
      units_.flame->advance(dt_);
    }
    const Ledger::Scope e(ledger, "eos.update");
    hydro_->eos_update();
  }

  if (units_.gravity != nullptr) {
    {
      const Ledger::Scope g(ledger, "gravity.update");
      units_.gravity->update(m);
    }
    {
      const Ledger::Scope g(ledger, "gravity.apply_source");
      units_.gravity->apply_source(m, dt_);
    }
    const Ledger::Scope e(ledger, "eos.update");
    hydro_->eos_update();
  }

  if (machine_ != nullptr) {
    const Ledger::Scope r(ledger, "tlb.replay");
    replay();
  }

  time_ += dt_;
  ++step_;
  runtime_->perf().publish();

  if (options_.remesh_interval > 0 && step_ % options_.remesh_interval == 0) {
    const Ledger::Scope r(ledger, "mesh.remesh");
    remesh_changed_ += static_cast<std::uint64_t>(m.remesh(
        options_.refine_vars, options_.refine_cut, options_.derefine_cut));
  }
  return true;
}

// The Driver's trace pass: the sampled leaves of this step replayed into
// the machine model region by region, each committed under its
// PerfRegion.
void Sim::replay() {
  mesh::AmrMesh& m = mesh();
  perf::PerfContext& perf = runtime_->perf();
  tlb::Tracer tracer(machine_.get());
  const auto sample = static_cast<std::size_t>(options_.trace_sample);
  const std::vector<int> leaves = m.tree().leaves_morton();
  const auto offset = static_cast<std::size_t>(step_ % options_.trace_sample);
  auto commit = [&] {
    replay_accesses_ += machine_->quantum().accesses;
    machine_->commit(sample);
  };
  {
    perf::PerfRegion region(perf, "hydro");
    for (std::size_t n = offset; n < leaves.size(); n += sample) {
      hydro_->trace_step_block(tracer, leaves[n]);
    }
    commit();
  }
  if (units_.eos_trace) {
    perf::PerfRegion region(perf, "eos");
    for (int sweep = 0; sweep < m.config().ndim; ++sweep) {
      for (std::size_t n = offset; n < leaves.size(); n += sample) {
        units_.eos_trace(tracer, leaves[n]);
      }
    }
    commit();
  }
  if (units_.flame != nullptr) {
    perf::PerfRegion region(perf, "flame");
    for (std::size_t n = offset; n < leaves.size(); n += sample) {
      units_.flame->trace_advance_block(tracer, leaves[n]);
    }
    commit();
  }
  {
    perf::PerfRegion region(perf, "grid");
    const mesh::MeshConfig& c = m.config();
    for (std::size_t n = offset; n < leaves.size(); n += sample) {
      m.unk().trace_sweep(tracer, leaves[n], c.ilo(), c.ihi(), c.jlo(),
                          c.jhi(), c.klo(), c.khi(), c.nvar(), c.nvar());
    }
    commit();
  }
}

std::vector<double> Sim::canonical_state() {
  std::vector<double> state = svc::canonical_state(mesh(), sim_time());
  if (units_.flame != nullptr) {
    state.push_back(units_.flame->energy_released());
  }
  return state;
}

perf::CounterSet Sim::published() const {
  return runtime_->perf().published().counters;
}

double Sim::mass() { return mesh().integrate(mesh::var::kDens); }

std::size_t Sim::leaf_blocks() { return mesh().tree().leaves_morton().size(); }

double Sim::shock_ratio() {
  if (sedov_ == nullptr) return 0.0;
  const sim::SedovParams& p = sedov_->params();
  sim::RadialProfile profile(mesh(), p.center, 120, {mesh::var::kDens});
  const double exact = sim::SedovSetup::shock_radius(
      p.energy, p.rho_ambient, sim_time(), p.gamma);
  return profile.peak_radius(0) / exact;
}

RegionBacking Sim::unk_backing() const {
  const mesh::AmrMesh& m =
      sedov_ != nullptr ? sedov_->mesh() : supernova_->mesh();
  return backing_of(m.unk().region(), m.unk().page_shift());
}

RegionBacking Sim::table_backing() const {
  if (supernova_ == nullptr) return {};
  return backing_of(supernova_->table().region(),
                    supernova_->table().page_shift());
}

std::uint64_t Sim::huge_resident_bytes() const {
  const mesh::AmrMesh& m =
      sedov_ != nullptr ? sedov_->mesh() : supernova_->mesh();
  std::uint64_t bytes = m.unk().region().resident_huge_bytes();
  if (supernova_ != nullptr) {
    bytes += supernova_->table().region().resident_huge_bytes();
  }
  return bytes;
}

mem::PoolCounters Sim::pool_counters() const {
  return runtime_->page_pool().counters();
}

}  // namespace fhp::perfbench
