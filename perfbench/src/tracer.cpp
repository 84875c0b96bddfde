#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

}  // namespace

int Tracer::open(std::string name) {
  const std::uint32_t tid = thread_tag();
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<int>& stack = open_[tid];
  SpanEvent event;
  event.name = std::move(name);
  event.parent = stack.empty() ? -1 : stack.back();
  event.tid = tid;
  event.start_ns = now_ns();
  events_.push_back(std::move(event));
  const int index = static_cast<int>(events_.size() - 1);
  stack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> guard(mutex_);
  SpanEvent& event = events_[static_cast<std::size_t>(index)];
  event.end_ns = end;
  std::vector<int>& stack = open_[event.tid];
  if (!stack.empty() && stack.back() == index) stack.pop_back();
}

void Tracer::rename(int index, std::string name) {
  std::lock_guard<std::mutex> guard(mutex_);
  events_[static_cast<std::size_t>(index)].name = std::move(name);
}

std::vector<SpanEvent> Tracer::events() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return events_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanEvent& event : events()) {
    if (event.name == name) out.push_back(event.ms());
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const double ms : durations(name)) total += ms;
  return total;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<SpanEvent> all = events();
  std::vector<double> child_ms(all.size(), 0.0);
  for (const SpanEvent& event : all) {
    if (event.parent >= 0) {
      child_ms[static_cast<std::size_t>(event.parent)] += event.ms();
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SpanTotals& totals = out[all[i].name];
    ++totals.count;
    totals.total_ms += all[i].ms();
    totals.self_ms += all[i].ms() - child_ms[i];
  }
  return out;
}

double Tracer::coverage(std::uint64_t start_ns, std::uint64_t end_ns) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top;
  for (const SpanEvent& event : events()) {
    if (event.parent >= 0) continue;
    const std::uint64_t lo = std::max(event.start_ns, start_ns);
    const std::uint64_t hi = std::min(event.end_ns, end_ns);
    if (hi > lo) top.emplace_back(lo, hi);
  }
  std::sort(top.begin(), top.end());
  std::uint64_t covered = 0, reach = start_ns;
  for (const auto& [lo, hi] : top) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return end_ns > start_ns ? static_cast<double>(covered) /
                                 static_cast<double>(end_ns - start_ns)
                           : 0.0;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanEvent> all = events();
  std::uint64_t origin = UINT64_MAX;
  for (const SpanEvent& event : all) origin = std::min(origin, event.start_ns);
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanEvent& event = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}%s\n",
                  event.name.c_str(), event.tid,
                  static_cast<double>(event.start_ns - origin) * 1e-3,
                  static_cast<double>(event.end_ns - event.start_ns) * 1e-3,
                  i, event.parent, i + 1 < all.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
