#include "metrics.hpp"

#include <span>
#include <stdexcept>

namespace fhp::perfbench {

void emit(Report& report, const Values& values, bool traced) {
  const std::span<const MetricDef> table =
      traced ? std::span<const MetricDef>(kPerLayer)
             : std::span<const MetricDef>(kEndToEnd);
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& m : table) known = known || name == m.name;
    if (!known) {
      throw std::invalid_argument("metric '" + name + "' is not in the " +
                                  (traced ? "per-layer" : "end-to-end") +
                                  " table");
    }
  }
  for (const MetricDef& m : table) {
    const auto it = values.find(m.name);
    report.add(m.name, it != values.end() ? it->second : 0.0, m.unit);
  }
}

}  // namespace fhp::perfbench
