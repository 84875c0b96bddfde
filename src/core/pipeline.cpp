#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <tuple>
#include <unordered_set>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "core/experiment.hpp"
#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"

namespace safelight::core {

std::string scenario_store_key(const attack::AttackScenario& scenario,
                               std::size_t eval_count) {
  return scenario.id() + "/n" + std::to_string(eval_count);
}

std::string baseline_store_key(std::size_t eval_count) {
  return "baseline/n" + std::to_string(eval_count);
}

std::string sweep_store_stem(const std::string& cache_dir,
                             const ExperimentSetup& setup,
                             const std::string& variant_name,
                             const std::string& weights_checksum,
                             const attack::CorruptionConfig& corruption) {
  return cache_dir + "/" + setup.tag() + "_" + variant_name + "_" +
         weights_checksum + "_" + attack::config_fingerprint(corruption);
}

std::vector<double> SweepResult::accuracies() const {
  std::vector<double> values;
  values.reserve(rows.size());
  for (const auto& row : rows) values.push_back(row.accuracy);
  return values;
}

BoxStats SweepResult::under_attack() const { return box_stats(accuracies()); }

namespace {

/// A-priori cost rank of a scenario, read from its own fields (no timing):
/// hotspot attacks run a thermal solve, attacks reaching the CONV layers
/// re-run the whole forward pass rather than only the FC tail, and larger
/// fractions corrupt more rings. Higher rank = costlier.
std::tuple<bool, bool, double> cost_rank(const attack::AttackScenario& s) {
  return {s.vector == attack::AttackVector::kHotspot,
          s.target != attack::AttackTarget::kFcBlock, s.fraction};
}

}  // namespace

ScenarioPipeline::ScenarioPipeline(const ExperimentSetup& setup, ModelZoo& zoo,
                                   PipelineOptions options)
    : setup_(setup), zoo_(zoo), options_(std::move(options)) {}

ScenarioPipeline::ScenarioPipeline(const ExperimentSpec& spec,
                                   const RunContext& context)
    : ScenarioPipeline(spec.resolved_setup(), context.zoo(),
                       {.cache_dir = spec.cache_dir,
                        .max_workers = spec.max_workers,
                        .verbose = spec.verbose,
                        .corruption = spec.corruption,
                        .cancel = context.cancel,
                        .plan = context.plan}) {}

SweepResult ScenarioPipeline::run(
    const VariantSpec& variant,
    const std::vector<attack::AttackScenario>& grid) {
  const auto start = std::chrono::steady_clock::now();
  trace::Span sweep_span("pipeline", "pipeline.sweep");
  sweep_span.arg("variant", variant.name)
      .arg("grid", static_cast<double>(grid.size()));

  // Train (or load) on the calling thread so workers only ever load the
  // finished zoo entry — never race on training it.
  auto model = zoo_.get_or_train(setup_, variant, options_.verbose);
  const std::string checksum = weights_checksum(*model);

  std::string base, csv_path;
  if (!options_.cache_dir.empty()) {
    std::filesystem::create_directories(options_.cache_dir);
    base = sweep_store_stem(options_.cache_dir, setup_, variant.name, checksum,
                            options_.corruption);
    csv_path = base + ".sweep.csv";
  }
  ResultStore store(csv_path);

  SweepResult result;
  result.variant = variant.name;

  // Baseline dedup: one clean evaluation serves every scenario of the sweep
  // (and, through the store, every future sweep of this variant).
  const std::string baseline_key = baseline_store_key(setup_.eval_count);
  if (const auto cached = store.lookup(baseline_key)) {
    result.baseline_accuracy = *cached;
    result.baseline_from_cache = true;
  } else if (options_.plan == nullptr) {
    AttackEvaluator evaluator(setup_, *model, variant.name, "",
                              options_.corruption);
    result.baseline_accuracy = evaluator.baseline_accuracy();
    store.put(baseline_key, result.baseline_accuracy);
  }

  // Uncached scenarios, deduplicated: a grid may repeat an id, and a
  // previous interrupted run may have persisted a prefix.
  struct PendingScenario {
    attack::AttackScenario scenario;
    std::string key;
  };
  std::vector<PendingScenario> pending;
  std::unordered_set<std::string> fresh_keys;
  for (const auto& scenario : grid) {
    scenario.validate();
    std::string key = scenario_store_key(scenario, setup_.eval_count);
    if (!store.contains(key) && fresh_keys.insert(key).second) {
      pending.push_back({scenario, std::move(key)});
    }
  }

  if (options_.plan != nullptr) {
    if (!result.baseline_from_cache || !pending.empty()) {
      PendingSweep sweep{setup_, variant,
                         std::filesystem::path(base).filename().string(),
                         attack::config_fingerprint(options_.corruption),
                         !result.baseline_from_cache, {}};
      for (const auto& p : pending) sweep.scenarios.push_back(p.scenario);
      options_.plan->push_back(std::move(sweep));
    }
    pending.clear();
  }
  result.evaluated = pending.size();

  // Longest first: with several workers the costly scenarios start early
  // instead of piling up in the grid's tail. One worker keeps grid order.
  if (sweep_workers(options_.max_workers) > 1) {
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingScenario& a, const PendingScenario& b) {
                       return cost_rank(a.scenario) > cost_rank(b.scenario);
                     });
  }
  run_sweep_tasks(
      pending.size(),
      {options_.max_workers, options_.cancel, setup_.tag()},
      [&] {
        return std::make_unique<WorkerDeployment<AttackEvaluator>>(
            zoo_, setup_, variant, variant.name, "", options_.corruption);
      },
      [&](WorkerDeployment<AttackEvaluator>& worker, std::size_t task) {
        const attack::AttackScenario& scenario = pending[task].scenario;
        trace::Span scenario_span("pipeline", "scenario.evaluate");
        if (scenario_span.active()) {
          scenario_span.arg("scenario", scenario.id());
        }
        const double accuracy = worker.evaluator.evaluate_scenario(scenario);
        store.put(pending[task].key, accuracy);
        if (options_.verbose) {
          std::printf("  [pipeline] %-36s acc %.4f\n",
                      scenario.id().c_str(), accuracy);
          std::fflush(stdout);
        }
      });

  // Assemble in grid order: execution order never leaks into the result.
  result.rows.reserve(grid.size());
  for (const auto& scenario : grid) {
    const std::string key = scenario_store_key(scenario, setup_.eval_count);
    const auto value = store.lookup(key);
    SAFELIGHT_ASSERT(value.has_value() || options_.plan != nullptr,
                     "pipeline: result missing after sweep");
    ScenarioOutcome outcome;
    outcome.scenario = scenario;
    outcome.accuracy = value.value_or(0.0);
    outcome.from_cache = fresh_keys.count(key) == 0;
    if (outcome.from_cache) ++result.cache_hits;
    result.rows.push_back(outcome);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

SweepResult ScenarioPipeline::run_paper_grid(const VariantSpec& variant,
                                             std::size_t seed_count,
                                             std::uint64_t base_seed) {
  return run(variant, attack::paper_scenario_grid(seed_count, base_seed));
}

}  // namespace safelight::core
