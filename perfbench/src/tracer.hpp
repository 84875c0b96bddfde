// Span recorder of the benchmark driver.
//
// Spans wrap calls into the library's public functions from outside; the
// library's own trace layer is not used, so the driver measures the
// program as a user links it. A disarmed tracer records nothing and a
// Span then only reads no clock, which is how the driver times the same
// replay untraced to report the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct SpanEvent {
  std::string name;
  int parent = -1;  // index of the enclosing span on the same thread
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Aggregate of all spans of one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus the time child spans cover
};

class Tracer {
 public:
  bool armed() const { return armed_; }
  void arm(bool on) { armed_ = on; }

  /// Opens a span on the calling thread; returns its index (-1 disarmed).
  int open(std::string name);
  void close(int index);
  void rename(int index, std::string name);

  std::vector<SpanEvent> events() const;
  /// Durations [ms] of every span named `name`, in record order.
  std::vector<double> durations(const std::string& name) const;
  double total_ms(const std::string& name) const;
  std::map<std::string, SpanTotals> totals() const;
  /// Share of [start_ns, end_ns] covered by the union of top-level spans.
  double coverage(std::uint64_t start_ns, std::uint64_t end_ns) const;
  /// Chrome trace-event JSON ("X" events, µs), loadable in Perfetto.
  std::string chrome_json() const;

 private:
  bool armed_ = false;
  mutable std::mutex mutex_;  // guards events_ and open_ (client threads)
  std::vector<SpanEvent> events_;
  std::map<std::uint32_t, std::vector<int>> open_;  // per-thread stack
};

/// Scoped span; a no-op on a disarmed tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer),
        index_(tracer.armed() ? tracer.open(std::move(name)) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  /// Names the span after the fact, when the call decides what it was.
  void rename(std::string name) {
    if (index_ >= 0) tracer_.rename(index_, std::move(name));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
