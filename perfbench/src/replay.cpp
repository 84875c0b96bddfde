// Traced replay: the work of a sweep re-run serially through the library's
// public calls, one span around each call. Spans live here, in the driver;
// nothing inside the library is instrumented for it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "accel/executor.hpp"
#include "accel/mapping.hpp"
#include "attacks/corruption.hpp"
#include "attacks/hotspot.hpp"
#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/evaluation.hpp"
#include "core/zoo.hpp"
#include "defense/suite.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "thermal/solver.hpp"

namespace perfbench {

namespace sl = safelight;

namespace {

/// Batch size of the layer replay: the executor's default, so each layer
/// sees the shapes it sees in an evaluation.
constexpr std::size_t kForwardBatch = 64;

/// Re-solves each block's thermal field from ambient with the attack's
/// solver settings and records the iteration count.
void record_solve_iterations(const sl::attack::HotspotPlan& plan,
                             const sl::attack::HotspotConfig& config,
                             std::vector<double>& iterations) {
  for (const sl::attack::BlockThermalState& state : plan.block_states) {
    sl::thermal::ThermalGrid grid = state.grid;
    const double ambient = grid.config().ambient_k;
    for (std::size_t r = 0; r < grid.rows(); ++r) {
      for (std::size_t c = 0; c < grid.cols(); ++c) {
        grid.set_temperature_k(r, c, ambient);
      }
    }
    const sl::thermal::SolveResult solved =
        sl::thermal::solve_steady_state(grid, config.solver);
    iterations.push_back(static_cast<double>(solved.iterations));
  }
}

double p50(const std::vector<double>& values) { return quantile(values, 0.5); }

}  // namespace

void run_serially(const std::function<void()>& fn) {
  // Two chunks of grain one: the library runs them as a fan-out (or inline
  // on a one-thread pool) and marks both as inside a parallel region, so
  // every nested parallel_for of the replay degrades to a serial loop.
  sl::parallel_for_chunks(
      0, 2,
      [&](std::size_t lo, std::size_t hi) {
        if (lo == 0) fn();
        (void)hi;
      },
      1);
}

ReplayResult replay_susceptibility(
    Tracer& tracer, sl::core::ModelZoo& zoo,
    const sl::core::ExperimentSetup& setup,
    const std::vector<sl::attack::AttackScenario>& grid,
    std::vector<double>& solve_iterations) {
  const sl::core::VariantSpec variant = sl::core::variant_by_name("Original");
  const sl::attack::CorruptionConfig corruption{};
  ReplayResult result;

  std::unique_ptr<sl::nn::Sequential> model;
  {
    Span span(tracer, "core.zoo_get");
    model = zoo.get_or_train(setup, variant);
  }
  {
    // Conditioning alone, on a second copy: the evaluator's constructor
    // conditions its model too but gives no way to time that step apart.
    auto copy = zoo.get_or_train(setup, variant);
    Span span(tracer, "accel.condition");
    sl::accel::OnnExecutor(setup.accelerator).condition_weights(*copy);
  }
  std::unique_ptr<sl::core::AttackEvaluator> evaluator;
  {
    Span span(tracer, "core.evaluator_init");
    evaluator = std::make_unique<sl::core::AttackEvaluator>(
        setup, *model, variant.name, "", corruption);
  }
  {
    Span span(tracer, "core.baseline");
    result.baseline = evaluator->baseline_accuracy();
  }
  std::unique_ptr<sl::accel::WeightStationaryMapping> mapping;
  {
    Span span(tracer, "core.replay_setup");
    mapping = std::make_unique<sl::accel::WeightStationaryMapping>(
        *model, setup.accelerator);
  }

  for (const sl::attack::AttackScenario& scenario : grid) {
    if (scenario.vector == sl::attack::AttackVector::kHotspot) {
      // Victim sampling plus the thermal solve, timed apart from the MR
      // physics that apply_attack adds on top.
      std::optional<sl::attack::HotspotPlan> plan;
      {
        Span span(tracer, "attacks.hotspot_plan");
        plan = sl::attack::plan_hotspot_attack(setup.accelerator, scenario,
                                               corruption.hotspot);
      }
      Span span(tracer, "thermal.solve");
      record_solve_iterations(*plan, corruption.hotspot, solve_iterations);
    }
    Span scenario_span(tracer, "core.scenario");
    {
      Span span(tracer, "core.restore");
      evaluator->restore_clean();
    }
    {
      Span span(tracer, scenario.vector == sl::attack::AttackVector::kHotspot
                            ? "attacks.apply.hotspot"
                            : "attacks.apply.actuation");
      result.corrupted_weights +=
          sl::attack::apply_attack(*mapping, scenario, corruption)
              .corrupted_weights;
    }
    {
      // The evaluator's own prefix cache decides between a full forward
      // and a resumed one (building a boundary's prefix on its first use);
      // a grown hit count names the span after the path it took.
      const std::size_t hits = evaluator->prefix_hits();
      Span span(tracer, "accel.evaluate");
      result.accuracies.push_back(evaluator->evaluate_applied(scenario.id()));
      if (evaluator->prefix_hits() != hits) span.rename("accel.evaluate_from");
    }
    {
      Span span(tracer, "core.restore");
      evaluator->restore_clean();
    }
  }
  return result;
}

std::size_t accuracy_mismatches(const ReplayResult& replay,
                                const sl::core::SusceptibilityReport& report) {
  std::size_t mismatches = replay.baseline != report.baseline_accuracy;
  for (std::size_t j = 0; j < report.rows.size(); ++j) {
    if (j >= replay.accuracies.size() ||
        replay.accuracies[j] != report.rows[j].accuracy) {
      ++mismatches;
    }
  }
  return mismatches;
}

void replay_layers(Tracer& tracer, sl::core::ModelZoo& zoo,
                   const sl::core::ExperimentSetup& setup) {
  std::unique_ptr<sl::nn::Sequential> model;
  sl::nn::Dataset data;
  {
    Span span(tracer, "nn.replay_setup");
    model = zoo.get_or_train(setup, sl::core::variant_by_name("Original"));
    sl::accel::OnnExecutor(setup.accelerator).condition_weights(*model);
    data = sl::core::make_test_data(setup).take(setup.eval_count);
  }
  struct ConvInput {
    sl::nn::Conv2d* conv;
    sl::nn::Tensor input;
  };
  std::vector<ConvInput> conv_inputs;  // first batch of each conv layer
  for (std::size_t begin = 0; begin < data.size(); begin += kForwardBatch) {
    const std::size_t end = std::min(data.size(), begin + kForwardBatch);
    sl::nn::Tensor cur;
    {
      Span span(tracer, "nn.batch");
      cur = data.batch(begin, end).first;
    }
    for (std::size_t i = 0; i < model->size(); ++i) {
      sl::nn::Layer& layer = model->layer(i);
      auto* conv = dynamic_cast<sl::nn::Conv2d*>(&layer);
      if (conv != nullptr && begin == 0) conv_inputs.push_back({conv, cur});
      const char* kind = conv != nullptr ? "nn.forward.conv"
                         : dynamic_cast<sl::nn::Linear*>(&layer) != nullptr
                             ? "nn.forward.linear"
                             : "nn.forward.other";
      Span span(tracer, kind);
      cur = layer.forward(cur, /*train=*/false);
    }
  }
  // Conv lowering as Conv2d::forward does it: one im2col and one GEMM per
  // image, here timed apart.
  for (const ConvInput& item : conv_inputs) {
    const sl::nn::Shape& shape = item.input.shape();
    sl::nn::ConvGeom g;
    g.in_c = shape[1];
    g.in_h = shape[2];
    g.in_w = shape[3];
    g.k_h = g.k_w = item.conv->kernel();
    g.stride = item.conv->stride();
    g.pad = item.conv->pad();
    const std::size_t batch = shape[0];
    const std::size_t patch = g.patch_len(), hw = g.out_hw();
    const std::size_t out_c = item.conv->out_channels();
    std::vector<float> columns(batch * patch * hw);
    std::vector<float> out(batch * out_c * hw);
    {
      Span span(tracer, "nn.im2col");
      for (std::size_t n = 0; n < batch; ++n) {
        sl::nn::im2col(item.input.data() + n * g.in_c * g.in_h * g.in_w, g,
                       columns.data() + n * patch * hw);
      }
    }
    {
      Span span(tracer, "nn.gemm");
      const float* bias = item.conv->has_bias()
                              ? item.conv->bias().value.data()
                              : nullptr;
      for (std::size_t n = 0; n < batch; ++n) {
        sl::nn::gemm(item.conv->weight().value.data(),
                     columns.data() + n * patch * hw,
                     out.data() + n * out_c * hw, out_c, patch, hw,
                     /*accumulate=*/false, bias);
      }
    }
  }
}

void replay_detectors(Tracer& tracer, sl::core::ModelZoo& zoo,
                      const sl::core::ExperimentSetup& setup,
                      const std::vector<sl::attack::AttackScenario>& scenarios,
                      std::uint64_t probe_seed) {
  const sl::attack::CorruptionConfig corruption{};
  std::unique_ptr<sl::nn::Sequential> model;
  std::unique_ptr<sl::accel::OnnExecutor> executor;
  std::unique_ptr<sl::accel::WeightStationaryMapping> mapping;
  std::unique_ptr<sl::defense::DetectorSuite> suite;
  {
    Span span(tracer, "defense.setup");
    model = zoo.get_or_train(setup, sl::core::variant_by_name("Original"));
    executor = std::make_unique<sl::accel::OnnExecutor>(setup.accelerator);
    executor->condition_weights(*model);
    mapping = std::make_unique<sl::accel::WeightStationaryMapping>(
        *model, setup.accelerator);
    suite = std::make_unique<sl::defense::DetectorSuite>(setup);
  }
  const std::vector<sl::nn::Tensor> clean = sl::nn::snapshot_state(*model);
  {
    Span span(tracer, "defense.calibrate");
    suite->calibrate({*model, *executor, nullptr, probe_seed});
  }
  for (const sl::attack::AttackScenario& scenario : scenarios) {
    std::vector<sl::attack::BlockThermalState> telemetry;
    {
      Span span(tracer, "defense.attack");
      sl::nn::restore_state(*model, clean);
      sl::attack::apply_attack(*mapping, scenario, corruption);
      telemetry = sl::defense::scenario_telemetry(setup.accelerator,
                                                  scenario, corruption);
    }
    const sl::defense::DeploymentView view{*model, *executor, &telemetry,
                                           probe_seed + 1};
    for (std::size_t i = 0; i < suite->size(); ++i) {
      sl::defense::Detector& detector = suite->detector(i);
      Span span(tracer, "defense.check." + detector.name());
      detector.check(view);
    }
  }
  sl::nn::restore_state(*model, clean);
}

void replay_metrics(const Tracer& tracer,
                    const std::vector<double>& solve_iterations,
                    std::map<std::string, double>& out) {
  out["core.zoo_get_ms"] = tracer.total_ms("core.zoo_get");
  out["core.evaluator_init_ms"] = tracer.total_ms("core.evaluator_init");
  out["core.baseline_ms"] = tracer.total_ms("core.baseline");
  const std::vector<double> scenario = tracer.durations("core.scenario");
  out["core.scenario_ms.p50"] = p50(scenario);
  out["core.scenario_ms.p90"] = quantile(scenario, 0.9);
  out["core.restore_ms.p50"] = p50(tracer.durations("core.restore"));
  const double scenario_total = tracer.total_ms("core.scenario");
  const double covered = tracer.total_ms("attacks.apply.actuation") +
                         tracer.total_ms("attacks.apply.hotspot") +
                         tracer.total_ms("accel.evaluate") +
                         tracer.total_ms("accel.evaluate_from");
  out["core.scenario_other_share"] =
      scenario_total > 0.0 ? (scenario_total - covered) / scenario_total : 0.0;
  out["attacks.apply_ms.actuation.p50"] =
      p50(tracer.durations("attacks.apply.actuation"));
  out["attacks.apply_ms.hotspot.p50"] =
      p50(tracer.durations("attacks.apply.hotspot"));
  out["attacks.hotspot_plan_ms.p50"] =
      p50(tracer.durations("attacks.hotspot_plan"));
  out["thermal.solve_iterations.p50"] = p50(solve_iterations);
  out["accel.condition_ms"] = tracer.total_ms("accel.condition");
  out["accel.evaluate_ms.p50"] = p50(tracer.durations("accel.evaluate"));
  out["accel.evaluate_from_ms.p50"] =
      p50(tracer.durations("accel.evaluate_from"));
  const double conv = tracer.total_ms("nn.forward.conv");
  const double linear = tracer.total_ms("nn.forward.linear");
  const double other = tracer.total_ms("nn.forward.other");
  out["nn.forward_ms.conv"] = conv;
  out["nn.forward_ms.linear"] = linear;
  out["nn.forward_ms.other"] = other;
  out["nn.conv_share"] =
      conv + linear + other > 0.0 ? conv / (conv + linear + other) : 0.0;
  out["nn.im2col_ms"] = tracer.total_ms("nn.im2col");
  out["nn.gemm_ms"] = tracer.total_ms("nn.gemm");
  std::size_t checks = 0;
  for (const char* name : {"canary", "range_monitor", "thermal_sentinel"}) {
    const std::vector<double> ms =
        tracer.durations(std::string("defense.check.") + name);
    checks += ms.size();
    out[std::string("defense.check_ms.") + name + ".p50"] = p50(ms);
  }
  out["defense.checks"] = static_cast<double>(checks);
}

void write_trace(const Tracer& tracer, const std::string& dir,
                 const std::string& stem) {
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/" + stem + ".trace.json", std::ios::trunc)
      << tracer.chrome_json();
  std::ofstream table(dir + "/" + stem + ".self_time.tsv", std::ios::trunc);
  table << "span\tcount\ttotal_ms\tself_ms\n";
  for (const auto& [name, totals] : tracer.totals()) {
    char line[256];
    std::snprintf(line, sizeof line, "%s\t%zu\t%.3f\t%.3f\n", name.c_str(),
                  totals.count, totals.total_ms, totals.self_ms);
    table << line;
  }
}

}  // namespace perfbench
