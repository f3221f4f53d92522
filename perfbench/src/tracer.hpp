#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call across a layer boundary. `layer` is the repository module
/// the call enters (lp, core.bill_capper, ...), `op` the public entry point,
/// `parent` the index of the enclosing span (-1 for a root) and `key` the
/// hour or tick the call belongs to.
struct Span {
  const char* layer = "";
  const char* op = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t key = -1;

  double ms() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

/// Nanoseconds on the steady clock since an arbitrary epoch.
std::int64_t now_ns() noexcept;

/// In-memory span recorder for the traced replay. Spans nest by call order
/// (single-threaded), are kept in memory while the workload runs and are
/// written out once at exit.
class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction. A null
  /// tracer makes the scope a no-op, so untraced runs share the code path.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* op,
          std::int64_t key = -1);
    Scope(Tracer& tracer, const char* layer, const char* op,
          std::int64_t key = -1)
        : Scope(&tracer, layer, op, key) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer() { spans_.reserve(1 << 16); }

  int begin(const char* layer, const char* op, std::int64_t key = -1);
  void end(int index);
  /// Records an interval that was measured rather than wrapped (the gap
  /// between two observer callbacks), as a child of the innermost open span.
  void record(const char* layer, const char* op, std::int64_t start_ns,
              std::int64_t end_ns, std::int64_t key = -1);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (ms) of every closed span with this layer and op.
  std::vector<double> durations_ms(const char* layer, const char* op) const;

  /// Writes one JSON object per line; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span (ns): its duration minus the part of its
/// interval covered by the union of its children's intervals, clipped to
/// the parent, so overlapping or overhanging children are counted once and
/// the result is never negative.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-layer self time and call count, summed over the spans of a layer.
struct LayerTotals {
  std::string layer;
  double self_ms = 0.0;
  long calls = 0;
};
std::vector<LayerTotals> layer_totals(const std::vector<Span>& spans);

}  // namespace perfbench
