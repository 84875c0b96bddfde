#include "core/evaluation.hpp"

#include <cstring>
#include <filesystem>

#include "common/fingerprint.hpp"
#include "common/metrics.hpp"
#include "nn/serialize.hpp"

namespace safelight::core {

std::string weights_checksum(nn::Sequential& model) {
  Fingerprint fp;
  for (nn::Param* p : model.params()) {
    fp.mix_bytes(p->value.data(), p->value.numel() * sizeof(float));
  }
  return fp.hex16();
}

namespace {

/// Conditions the model for deployment before the mapping captures its
/// normalization scales (member-init helper).
nn::Sequential& conditioned(const accel::OnnExecutor& executor,
                            nn::Sequential& model) {
  executor.condition_weights(model);
  return model;
}

/// Batch size shared by all evaluator entry points; prefix activations are
/// cached per batch, so producer and consumer must agree on it.
constexpr std::size_t kEvalBatch = 64;

/// Upper bound on floats held by one evaluator's whole prefix cache, all
/// boundaries combined (~256 MB). Boundaries that would push past it fall
/// back to plain evaluation instead of exhausting memory — note the sweep
/// pipeline runs one evaluator per fan-out worker, so total prefix memory
/// is worker_count() times this bound.
constexpr std::size_t kMaxPrefixFloats = 64u << 20;

}  // namespace

AttackEvaluator::AttackEvaluator(const ExperimentSetup& setup,
                                 nn::Sequential& model,
                                 std::string variant_name,
                                 std::string cache_dir,
                                 attack::CorruptionConfig corruption)
    : setup_(setup), model_(model), variant_name_(std::move(variant_name)),
      executor_(setup.accelerator),
      mapping_(conditioned(executor_, model), setup.accelerator),
      clean_snapshot_(nn::snapshot_state(model)),
      eval_data_(make_test_data(setup).take(setup.eval_count)),
      corruption_(std::move(corruption)) {
  std::string cache_path;
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    // The corruption fingerprint is part of the file name so evaluators
    // with ablated physics never read each other's entries.
    cache_path = cache_dir + "/" + setup_.tag() + "_" + variant_name_ + "_" +
                 weights_checksum(model_) + "_" +
                 attack::config_fingerprint(corruption_) + ".csv";
  }
  cache_ = std::make_unique<ResultStore>(cache_path);

  // Clean copies of every mapped parameter, grouped by layer in layer
  // order: the byte-comparison base for first_dirty_layer().
  for (std::size_t i = 0; i < model_.size(); ++i) {
    std::vector<std::pair<const nn::Param*, nn::Tensor>> mapped;
    for (nn::Param* p : model_.layer(i).params()) {
      if (p->kind == nn::ParamKind::kElectronic) continue;
      mapped.emplace_back(p, p->value);
    }
    if (!mapped.empty()) clean_mapped_.emplace_back(i, std::move(mapped));
  }
}

std::string AttackEvaluator::cache_key(const std::string& scenario_id) const {
  return scenario_id + "/n" + std::to_string(eval_data_.size());
}

void AttackEvaluator::restore_clean() {
  nn::restore_state(model_, clean_snapshot_);
}

std::size_t AttackEvaluator::first_dirty_layer() const {
  for (const auto& [layer, mapped] : clean_mapped_) {
    for (const auto& [param, clean] : mapped) {
      if (std::memcmp(param->value.data(), clean.data(),
                      clean.numel() * sizeof(float)) != 0) {
        return layer;
      }
    }
  }
  return model_.size();
}

const std::vector<nn::Tensor>& AttackEvaluator::prefix_for(std::size_t layer) {
  const auto it = prefix_cache_.find(layer);
  if (it != prefix_cache_.end()) return it->second;
  static metrics::Counter& builds =
      metrics::counter("prefix_cache.boundary_builds");
  builds.add();
  // The model currently carries the attacked weights; the prefix must be
  // computed with the clean ones. Corrupted state is parked and restored
  // around the computation — a few tensor copies, once per boundary.
  std::vector<nn::Tensor> attacked = nn::snapshot_state(model_);
  nn::restore_state(model_, clean_snapshot_);
  auto prefix =
      executor_.prefix_activations(model_, eval_data_, layer, kEvalBatch);
  nn::restore_state(model_, attacked);
  return prefix_cache_.emplace(layer, std::move(prefix)).first->second;
}

double AttackEvaluator::evaluate_attacked() {
  static metrics::Counter& hits = metrics::counter("prefix_cache.hits");
  static metrics::Counter& misses = metrics::counter("prefix_cache.misses");
  // A mutating read-out hook (ADC trojan) corrupts the outputs of *clean*
  // layers too, so cached clean activations would be wrong. Observing hooks
  // (range monitors, telemetry taps) never modify activations and keep the
  // cache valid — they just see only the layers after the resume boundary.
  if (!prefix_cache_enabled_ || executor_.has_mutating_readout_hook()) {
    misses.add();
    return executor_.evaluate(model_, eval_data_, kEvalBatch);
  }
  const std::size_t dirty = first_dirty_layer();
  if (dirty == 0) {
    // Corruption starts at the first layer: nothing cacheable.
    misses.add();
    return executor_.evaluate(model_, eval_data_, kEvalBatch);
  }
  if (prefix_cache_.find(dirty) == prefix_cache_.end()) {
    // Estimate the boundary's footprint before committing memory to it.
    nn::Shape shape = eval_data_.sample_shape();
    shape.insert(shape.begin(), kEvalBatch);
    for (std::size_t i = 0; i < dirty; ++i) {
      shape = model_.layer(i).output_shape(shape);
    }
    const std::size_t batches =
        (eval_data_.size() + kEvalBatch - 1) / kEvalBatch;
    const std::size_t boundary_floats = batches * nn::shape_numel(shape);
    if (prefix_floats_ + boundary_floats > kMaxPrefixFloats) {
      misses.add();
      return executor_.evaluate(model_, eval_data_, kEvalBatch);
    }
    prefix_floats_ += boundary_floats;
  }
  ++prefix_hits_;
  hits.add();
  return executor_.evaluate_from(model_, eval_data_, dirty, prefix_for(dirty),
                                 kEvalBatch);
}

double AttackEvaluator::baseline_accuracy() {
  const std::string key = cache_key("baseline");
  if (const auto cached = cache_->lookup(key)) return *cached;
  restore_clean();
  const double accuracy = executor_.evaluate(model_, eval_data_, kEvalBatch);
  cache_->put(key, accuracy);
  return accuracy;
}

double AttackEvaluator::evaluate_scenario(
    const attack::AttackScenario& scenario) {
  const std::string key = cache_key(scenario.id());
  if (const auto cached = cache_->lookup(key)) return *cached;

  restore_clean();
  last_stats_ = attack::apply_attack(mapping_, scenario, corruption_);
  const double accuracy = evaluate_attacked();
  restore_clean();

  cache_->put(key, accuracy);
  return accuracy;
}

attack::CorruptionStats AttackEvaluator::apply_composite(
    const attack::CompositeScenario& composite) {
  restore_clean();
  last_stats_ = attack::apply_composite(mapping_, composite, corruption_);
  return last_stats_;
}

double AttackEvaluator::evaluate_applied(const std::string& id) {
  const std::string key = cache_key(id);
  if (const auto cached = cache_->lookup(key)) return *cached;
  const double accuracy = evaluate_attacked();
  cache_->put(key, accuracy);
  return accuracy;
}

double AttackEvaluator::evaluate_composite(
    const attack::CompositeScenario& composite) {
  const std::string key = cache_key(composite.id());
  if (const auto cached = cache_->lookup(key)) return *cached;

  apply_composite(composite);
  const double accuracy = evaluate_applied(composite.id());
  restore_clean();
  return accuracy;
}

}  // namespace safelight::core
