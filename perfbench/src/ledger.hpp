/// \file ledger.hpp
/// \brief The per-layer ledger: timed spans recorded from outside the
/// library, around each public call the benchmark's step loop makes.
///
/// Spans live in memory with parent links (the enclosing open span) and
/// are written out once, when the benchmark ends. A span's self time is
/// its duration minus the durations of its direct children; times are
/// integer nanoseconds, so a parent's self time plus its children's
/// durations equals its wall time exactly. One thread records (the
/// benchmark's driver thread); a disabled ledger records nothing.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fhp::perfbench {

class Ledger {
 public:
  using Ns = std::int64_t;

  struct Span {
    const char* name;  ///< static-storage literal
    Ns start;
    Ns end;
    int parent;        ///< index into spans(), -1 for a root
  };

  /// Per-name aggregate of the direct children of one root name.
  struct Layer {
    Ns self = 0;            ///< summed self time
    std::uint64_t calls = 0;
  };

  /// The roots' summed wall and self time and their children by name.
  struct Breakdown {
    std::map<std::string, Layer> layers;
    Ns root_wall = 0;
    Ns root_self = 0;
    std::size_t roots = 0;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span; a no-op on a disabled ledger.
  class Scope {
   public:
    Scope(Ledger& ledger, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Aggregate the spans named \p root and their direct children.
  [[nodiscard]] Breakdown breakdown(const char* root) const;

  /// Durations [s] of every span named \p name, in recording order.
  [[nodiscard]] std::vector<double> durations(const char* name) const;

  /// Write every span as JSON ({"spans": [...]}); returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] static Ns now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace fhp::perfbench
