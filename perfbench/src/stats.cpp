#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace fhp::perfbench {

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.median = nearest_rank(samples, 0.5);
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.n)));
    if (s.n >= 20 && s.n - rank >= 10) {
      s.tail_q = q;
      s.tail = nearest_rank(samples, q);
      break;
    }
  }
  return s;
}

std::string format_timing(std::string_view name,
                          const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  char buf[256];
  if (s.tail_q > 0.0) {
    std::snprintf(buf, sizeof buf, "timing %.*s: median=%.6g p%g=%.6g n=%zu",
                  static_cast<int>(name.size()), name.data(), s.median,
                  s.tail_q * 100.0, s.tail, s.n);
  } else {
    std::snprintf(buf, sizeof buf,
                  "timing %.*s: median=%.6g (no tail: n<20) n=%zu",
                  static_cast<int>(name.size()), name.data(), s.median, s.n);
  }
  return buf;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

void Report::add(std::string_view name, double value, std::string_view unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name '" + std::string(name) + "'");
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("metric '" + m.name + "' reported twice");
    }
  }
  metrics_.push_back({std::string(name), value, std::string(unit)});
}

void Report::fail(std::string why) { failures_.push_back(std::move(why)); }

double Report::value(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::invalid_argument("no metric '" + std::string(name) + "'");
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // All digits of the measurement; non-finite values are not JSON.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace fhp::perfbench
