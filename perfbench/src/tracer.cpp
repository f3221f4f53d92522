#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* op,
                     std::int64_t key)
    : tracer_(tracer), index_(tracer ? tracer->begin(layer, op, key) : -1) {}

Tracer::Scope::~Scope() {
  if (tracer_) tracer_->end(index_);
}

int Tracer::begin(const char* layer, const char* op, std::int64_t key) {
  Span span;
  span.layer = layer;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.key = key;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  // Stamped last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(int index) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  // Spans close in LIFO order; anything still open above `index` was left
  // open by an exception and closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
    spans_[static_cast<std::size_t>(top)].end_ns = t;
  }
}

void Tracer::record(const char* layer, const char* op, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t key) {
  Span span;
  span.layer = layer;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.key = key;
  spans_.push_back(span);
}

std::vector<double> Tracer::durations_ms(const char* layer,
                                         const char* op) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.layer, layer) == 0 && std::strcmp(s.op, op) == 0)
      out.push_back(s.ms());
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"layer\":\"%s\",\"op\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%d,\"key\":%lld}\n",
                  i, s.layer, s.op, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<long long>(s.key));
    out << line;
  }
  return static_cast<bool>(out.flush());
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(
        0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

std::vector<LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const LayerTotals& t) {
      return t.layer == spans[i].layer;
    });
    if (it == out.end()) {
      out.push_back(LayerTotals{spans[i].layer, 0.0, 0});
      it = out.end() - 1;
    }
    it->self_ms += static_cast<double>(self[i]) * 1e-6;
    ++it->calls;
  }
  return out;
}

}  // namespace perfbench
