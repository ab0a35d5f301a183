// In-memory span recorder for the traced run. Spans are recorded in the
// benchmark's own code around calls into each layer's public entry
// points (nothing inside the library is instrumented); they stay in
// memory and are folded into per-layer metrics when the run ends.
#ifndef IMPLBENCH_TRACE_H_
#define IMPLBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace implbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed call into a layer. `name` is "<layer>.<operation>"; spans of
/// one request (a query, or one service operation) share `request`, and
/// `parent` indexes the span that caused this one (-1 for a root).
struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// A per-thread span buffer plus named counters. Not thread-safe: every
/// client thread owns one and the buffers are merged after the run.
///
/// The buffer holds at most kMaxSpans spans (20 MiB); later spans are
/// dropped (Open returns -1) while the counters keep counting, so a fast
/// workload's traced half cannot grow memory without bound.
class Trace {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 19;

  std::int64_t Open(const char* name, std::uint64_t request,
                    std::int64_t parent = -1) {
    if (spans_.size() >= kMaxSpans) return -1;
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void Close(std::int64_t index) {
    if (index >= 0) spans_[index].end_ns = NowNs();
  }

  void Count(const std::string& name, double delta = 1) {
    counters_[name] += delta;
  }
  double counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void Merge(const Trace& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    for (const auto& [name, value] : other.counters_) {
      counters_[name] += value;
    }
  }

  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.duration_ns()));
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// Opens a span on construction and closes it on destruction; a null
/// trace records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::uint64_t request,
             std::int64_t parent = -1)
      : trace_(trace),
        index_(trace ? trace->Open(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  std::int64_t index_;
};

/// The q-quantile (0..1) of `v` by nearest rank; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace implbench

#endif  // IMPLBENCH_TRACE_H_
