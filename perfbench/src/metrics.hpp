/// \file metrics.hpp
/// \brief The metric tables every workload reports (mirrors BENCHMARK.json).

#pragma once

#include <map>
#include <string>

#include "stats.hpp"

namespace fhp::perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: the untraced run reports all of them.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"step_p50_s", "s"},
    {"step_p90_s", "s"},
    {"parallel_eff", "ratio"},
    {"model_dtlb_misses_per_step", "count"},
    {"model_cycles_per_step", "count"},
    {"sims_per_s", "1/s"},
    {"interactive_p50_s", "s"},
    {"interactive_p90_s", "s"},
    {"batch_p50_s", "s"},
    {"batch_p90_s", "s"},
};

/// Per-layer metrics: the traced run reports all of them; a layer the
/// workload does not exercise reads 0. Times are per step unless the
/// name says otherwise; counts are per step except the svc/pool totals.
inline constexpr MetricDef kPerLayer[] = {
    {"mesh.fill_guardcells_s", "s"},
    {"mesh.fill_guardcells_calls", "count"},
    {"mesh.remesh_s", "s"},
    {"mesh.remesh_blocks_changed", "count"},
    {"mesh.leaf_blocks", "count"},
    {"hydro.compute_dt_s", "s"},
    {"hydro.sweep_s", "s"},
    {"hydro.sweep_ns_per_zone", "ns"},
    {"eos.update_s", "s"},
    {"eos.table_load_s", "s"},
    {"flame.advance_s", "s"},
    {"gravity.update_s", "s"},
    {"gravity.apply_source_s", "s"},
    {"tlb.replay_s", "s"},
    {"tlb.replay_accesses", "count"},
    {"tlb.replay_ns_per_access", "ns"},
    {"perf.hydro.dtlb_misses", "count"},
    {"perf.eos.dtlb_misses", "count"},
    {"perf.flame.dtlb_misses", "count"},
    {"perf.grid.dtlb_misses", "count"},
    {"par.speedup_fill_guardcells", "ratio"},
    {"par.speedup_sweep", "ratio"},
    {"par.speedup_eos_update", "ratio"},
    {"sim.step_s", "s"},
    {"sim.step_other_s", "s"},
    {"sim.setup_s.sedov", "s"},
    {"sim.setup_s.cellular", "s"},
    {"sim.setup_s.supernova", "s"},
    {"mem.huge_resident_mib", "MiB"},
    {"mem.pool.huge_allocs", "count"},
    {"mem.pool.thp_fallbacks", "count"},
    {"mem.pool.base_fallbacks", "count"},
    {"svc.submit_s", "s"},
    {"svc.queue_s.interactive", "s"},
    {"svc.queue_s.batch", "s"},
    {"svc.run_s.interactive", "s"},
    {"svc.run_s.batch", "s"},
    {"svc.active_tenants", "count"},
    {"svc.failed", "count"},
    {"svc.rejected", "count"},
    {"bench.trace_overhead", "ratio"},
};

using Values = std::map<std::string, double>;

/// Add every metric of the table selected by \p traced to \p report, in
/// table order, taking values from \p values (absent = 0). Throws
/// std::invalid_argument if \p values names a metric not in the table.
void emit(Report& report, const Values& values, bool traced);

}  // namespace fhp::perfbench
