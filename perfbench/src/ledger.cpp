#include "ledger.hpp"

#include <cstdio>
#include <cstring>

namespace fhp::perfbench {

Ledger::Scope::Scope(Ledger& ledger, const char* name)
    : ledger_(ledger.enabled_ ? &ledger : nullptr) {
  if (ledger_ == nullptr) return;
  index_ = static_cast<int>(ledger_->spans_.size());
  ledger_->spans_.push_back({name, now_ns(), 0, ledger_->open_});
  ledger_->open_ = index_;
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) return;
  Span& s = ledger_->spans_[static_cast<std::size_t>(index_)];
  s.end = now_ns();
  ledger_->open_ = s.parent;
}

Ledger::Breakdown Ledger::breakdown(const char* root) const {
  Breakdown out;
  std::vector<Ns> child_wall(spans_.size(), 0);
  std::vector<bool> counted(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_wall[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    counted[i] = std::strcmp(s.name, root) == 0;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (counted[i]) {
      out.root_wall += s.end - s.start;
      out.root_self += s.end - s.start - child_wall[i];
      ++out.roots;
    } else if (s.parent >= 0 && counted[static_cast<std::size_t>(s.parent)]) {
      Layer& layer = out.layers[s.name];
      layer.self += s.end - s.start - child_wall[i];
      ++layer.calls;
    }
  }
  return out;
}

std::vector<double> Ledger::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end - s.start) * 1e-9);
    }
  }
  return out;
}

bool Ledger::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d}",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace fhp::perfbench
