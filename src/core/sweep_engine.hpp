// Keyed-task sweep engine: the one fan-out loop behind the scenario
// pipeline, the detection sweep and the campaign sweep. Callers pass their
// pending tasks (runs whose store keys are not cached yet) in claim order,
// a worker cap and a per-worker state factory; they assemble results from
// their store in their own order, so outputs never depend on which worker
// ran which task. docs/architecture.md ("Keyed-task sweep engine") has the
// scheduling rules.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/zoo.hpp"

namespace safelight::core {

/// Knobs of one sweep.
struct SweepTaskOptions {
  /// Upper bound on workers; 0 uses worker_count() (SAFELIGHT_THREADS).
  std::size_t max_workers = 0;
  /// Cooperative-cancellation flag, read before every claim. When it stops
  /// the sweep with tasks left, the caller gets ExperimentCancelled(label).
  const std::atomic<bool>* cancel = nullptr;
  std::string label;
};

/// Workers a sweep capped at `max_workers` (0 = no cap) uses: >= 1.
std::size_t sweep_workers(std::size_t max_workers);

/// Claims the next task index; nullopt once the list is drained or the
/// sweep is stopping (cancelled, or another worker failed).
using TaskClaim = std::function<std::optional<std::size_t>()>;

/// Type-erased core of run_sweep_tasks. Below 2 x workers tasks it runs
/// `worker` once on the calling thread (whose inner per-image loops still
/// parallelize); otherwise once on each of `workers` pool chunks, all
/// claiming from one shared cursor. A worker that throws stops the others
/// at their next claim; the first exception is rethrown on the caller once
/// every worker returned.
void run_sweep_workers(std::size_t task_count, const SweepTaskOptions& options,
                       const std::function<void(const TaskClaim&)>& worker);

/// Runs `evaluate(state, i)` exactly once for every i in [0, task_count),
/// claimed in ascending order. `make_state()` returns an owning pointer to
/// one worker's private state; it runs once per worker, on that worker's
/// thread, at its first claim — a worker that finds the list drained
/// builds nothing.
template <typename MakeState, typename Evaluate>
void run_sweep_tasks(std::size_t task_count, const SweepTaskOptions& options,
                     MakeState&& make_state, Evaluate&& evaluate) {
  run_sweep_workers(task_count, options, [&](const TaskClaim& claim) {
    std::optional<std::size_t> task = claim();
    if (!task) return;
    const auto state = make_state();
    do {
      evaluate(*state, *task);
    } while ((task = claim()));
  });
}

/// A worker's private deployment: its own zoo copy of the model (a cache
/// load) and `Evaluator(setup, model, args...)` built on it. Evaluation
/// corrupts and restores weights, so workers never share a model.
template <typename Evaluator>
struct WorkerDeployment {
  template <typename... Args>
  WorkerDeployment(ModelZoo& zoo, const ExperimentSetup& setup,
                   const VariantSpec& variant, Args&&... args)
      : model(zoo.get_or_train(setup, variant, false)),
        evaluator(setup, *model, std::forward<Args>(args)...) {}

  std::unique_ptr<nn::Sequential> model;
  Evaluator evaluator;
};

}  // namespace safelight::core
