#include "core/sweep_engine.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "core/experiment.hpp"

namespace safelight::core {

std::size_t sweep_workers(std::size_t max_workers) {
  const std::size_t workers = worker_count();
  return max_workers > 0 ? std::min(workers, max_workers) : workers;
}

void run_sweep_workers(std::size_t task_count, const SweepTaskOptions& options,
                       const std::function<void(const TaskClaim&)>& worker) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> cancelled{false};
  const TaskClaim claim = [&]() -> std::optional<std::size_t> {
    if (stop.load(std::memory_order_relaxed)) return std::nullopt;
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      // A flag that flips after the last claim cancels nothing.
      if (next.load(std::memory_order_relaxed) < task_count) cancelled = true;
      stop = true;
      return std::nullopt;
    }
    const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
    if (task >= task_count) return std::nullopt;
    return task;
  };
  const std::size_t workers = sweep_workers(options.max_workers);
  if (task_count < workers * 2) {
    if (task_count > 0) worker(claim);
  } else {
    // One chunk per worker; the pool rethrows the first failure after
    // every chunk returned.
    parallel_for_chunks(0, workers, [&](std::size_t, std::size_t) {
      try {
        worker(claim);
      } catch (...) {
        stop = true;
        throw;
      }
    });
  }
  if (cancelled) throw ExperimentCancelled(options.label);
}

}  // namespace safelight::core
