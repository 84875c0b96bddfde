// Sweep workloads: the default-scale susceptibility paper grid over cnn1,
// resnet18 and vgg16v, as `safelight run susceptibility` runs it, at 4
// threads (sweep-4t), 1 thread (sweep-1t) or through 4 single-thread
// worker processes (sweep-4w).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "attacks/scenario.hpp"
#include "bench.hpp"
#include "common/fingerprint.hpp"
#include "common/metrics.hpp"
#include "core/zoo.hpp"
#include "dist/coordinator.hpp"

namespace perfbench {

namespace sl = safelight;

namespace {

/// Placements per grid cell: 2 x 18 cells = 36 scenarios per model.
constexpr std::size_t kSeedCount = 2;
/// Warm reruns whose median is setup_s.
constexpr std::size_t kWarmReps = 9;

struct Rep {
  double wall_s = 0.0;
  std::vector<double> model_s;  // per model, in sweep_models() order
  std::string digest;
  std::vector<sl::core::ExperimentResult> results;
  sl::dist::DistSummary dist;  // summed over models (sweep-4w)
};

std::string digest_of(const std::vector<sl::core::ExperimentResult>& results) {
  sl::Fingerprint fp;
  const auto mix = [&fp](const std::string& text) {
    fp.mix_u64(text.size());
    fp.mix_bytes(text.data(), text.size());
  };
  for (const sl::core::ExperimentResult& result : results) {
    mix(result.to_json());
    for (const sl::core::CsvDocument& doc : result.to_csv()) {
      mix(doc.file_stem);
      for (const std::string& cell : doc.header) mix(cell);
      for (const auto& row : doc.rows) {
        for (const std::string& cell : row) mix(cell);
      }
    }
  }
  return fp.hex16();
}

class SweepRunner {
 public:
  SweepRunner(const Options& options, const RunDirs& dirs)
      : options_(options),
        dirs_(dirs),
        distributed_(options.workload == "sweep-4w"),
        threads_(options.workload == "sweep-1t" ? 1 : 4),
        zoo_(dirs.zoo) {
    const auto& registry = sl::core::ExperimentRegistry::global();
    for (const sl::nn::ModelId model : sweep_models()) {
      sl::core::ExperimentSpec spec = registry.default_spec("susceptibility");
      spec.model = model;
      spec.scale = options.scale;
      spec.seed_count = kSeedCount;
      spec.base_seed = derived_seed(options.seed, 0);
      spec.max_workers = threads_;
      specs_.push_back(spec);
      grid_size_ += sl::attack::paper_scenario_grid(kSeedCount, spec.base_seed)
                        .size();
    }
  }

  std::size_t grid_size() const { return grid_size_; }
  std::size_t threads() const { return threads_; }
  const std::vector<sl::core::ExperimentSpec>& specs() const {
    return specs_;
  }

  /// One run of the sweep over every model against the stores in `store`.
  Rep run(const std::string& store) {
    Rep rep;
    sl::core::RunContext context(zoo_);
    const std::uint64_t start = now_ns();
    for (sl::core::ExperimentSpec spec : specs_) {
      spec.cache_dir = store;
      const std::uint64_t model_start = now_ns();
      if (distributed_) {
        sl::dist::DistOptions dist_options;
        dist_options.workers = 4;
        dist_options.binary = PERFBENCH_SAFELIGHT_BIN;
        dist_options.chaos_seed = spec.base_seed;
        sl::dist::DistSummary summary;
        const sl::dist::DistStatus status = sl::dist::run_distributed(
            "susceptibility", spec, zoo_, dist_options, summary);
        if (status != sl::dist::DistStatus::kComplete) {
          throw std::runtime_error("distributed sweep quarantined tasks");
        }
        rep.dist.tasks += summary.tasks;
        rep.dist.steals += summary.steals;
        rep.dist.retries += summary.retries;
        rep.dist.merged_rows += summary.merged_rows;
        rep.dist.merge_duplicates += summary.merge_duplicates;
        rep.dist.wall_seconds += summary.wall_seconds;
      }
      rep.results.push_back(
          sl::core::ExperimentRegistry::global().run(spec, context));
      rep.model_s.push_back(seconds_since(model_start));
    }
    rep.wall_s = seconds_since(start);
    rep.digest = digest_of(rep.results);
    return rep;
  }

  /// A cold run: fresh stores, nothing may be served from cache.
  Rep run_cold(const std::string& store) {
    fresh_dir(store);
    require_weights_only(dirs_.zoo);
    Rep rep = run(store);
    // The store directory started empty, so every row in it was evaluated
    // by this run: one per scenario plus one baseline per model.
    const std::size_t rows = stored_rows(store, /*recursive=*/false);
    const std::size_t expected = grid_size_ + specs_.size();
    if (rows != expected) {
      throw std::runtime_error("cold run stored " + std::to_string(rows) +
                               " results, expected " +
                               std::to_string(expected));
    }
    return rep;
  }

 private:
  const Options& options_;
  const RunDirs& dirs_;
  bool distributed_;
  std::size_t threads_;
  sl::core::ModelZoo zoo_;
  std::vector<sl::core::ExperimentSpec> specs_;
  std::size_t grid_size_ = 0;
};

/// The digest every run of this (commit, scale, seed) must produce,
/// recorded by the first sweep run of any workload of that commit in this
/// build directory. Across commits only the pinned digest applies, so a
/// change that alters results and updates the pin is not held to an
/// earlier commit's entry.
std::string ledger_digest(const std::string& ledger, const std::string& key,
                          const std::string& digest) {
  std::ifstream in(ledger);
  std::string line_key, line_digest;
  while (in >> line_key >> line_digest) {
    if (line_key == key) return line_digest;
  }
  std::ofstream(ledger, std::ios::app) << key << ' ' << digest << '\n';
  return digest;
}

void simulated_stats(const Rep& rep, Outcome& outcome) {
  for (const sl::core::ExperimentResult& result : rep.results) {
    const auto& report = result.as<sl::core::SusceptibilityReport>();
    double worst = 0.0;
    for (const auto& group : report.groups) {
      worst = std::max(worst, report.baseline_accuracy - group.accuracy.min);
    }
    outcome.notes.push_back("stats " + sl::nn::to_string(report.model) +
                            " baseline=" + fmt(report.baseline_accuracy, 6) +
                            " worst_drop=" + fmt(worst, 6));
  }
}

/// Checks one run's digest against the first cold run's, the ledger and
/// the pin; a mismatch fails every scenario of that run.
void check_digest(const Options& options, const RunDirs& dirs,
                  const std::string& reference, const std::string& digest,
                  std::size_t grid, Outcome& outcome) {
  outcome.attempted += grid;
  std::string why;
  if (digest != reference) why = "differs from this run's first rep";
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  const std::string key = std::string(commit != nullptr ? commit : "unknown") +
                          ":" + sl::to_string(options.scale) + "/" +
                          std::to_string(options.seed);
  const std::string recorded = ledger_digest(dirs.ledger, key, digest);
  if (why.empty() && recorded != digest) {
    why = "differs from the digest recorded for " + key + " (" + recorded +
          ")";
  }
  if (why.empty() && !options.expect_digest.empty() &&
      options.expect_digest != digest) {
    why = "differs from the pinned digest " + options.expect_digest;
  }
  if (!why.empty()) {
    outcome.failed += grid;
    outcome.notes.push_back("MISMATCH digest " + digest + " " + why);
  }
}

Outcome timed(SweepRunner& runner, const Options& options,
              const RunDirs& dirs) {
  Outcome outcome;
  std::vector<Rep> cold;
  double cold_wall = 0.0;
  const std::string store = dirs.run + "/stores";
  do {
    cold.push_back(runner.run_cold(store));
    cold_wall += cold.back().wall_s;
  } while (cold_wall + cold.back().wall_s <= options.seconds);

  outcome.metrics["peak_rss_mb"] = peak_rss_mib();

  // Warm reruns, each in a fresh process as a user reruns the CLI: the
  // stores are complete, so what remains is set-up and report assembly.
  const std::string reference = cold.front().digest;
  std::vector<double> warm_s;
  std::vector<double> latencies;
  for (const Rep& rep : cold) {
    check_digest(options, dirs, reference, rep.digest, runner.grid_size(),
                 outcome);
    latencies.push_back(rep.wall_s);
  }
  for (std::size_t i = 0; i < kWarmReps; ++i) {
    const auto [code, last] = run_child(
        {"perfbench", "--rerun", store, "--workload", options.workload,
         "--seed", std::to_string(options.seed), "--root", options.root,
         "--scale", sl::to_string(options.scale)});
    std::istringstream line(last);
    std::string tag, digest;
    double seconds = 0.0;
    if (code != 0 || !(line >> tag >> seconds >> digest) || tag != "rerun") {
      throw std::runtime_error("warm rerun failed: " + last);
    }
    warm_s.push_back(seconds);
    check_digest(options, dirs, reference, digest, runner.grid_size(),
                 outcome);
  }
  simulated_stats(cold.front(), outcome);
  std::string samples;
  for (const double s : warm_s) samples += " " + fmt(s);
  outcome.notes.push_back("digest " + reference + " cold_reps " +
                          std::to_string(cold.size()) + " warm_s" + samples);

  const double reps = static_cast<double>(cold.size());
  outcome.metrics["scenarios_per_s"] =
      reps * static_cast<double>(runner.grid_size()) / cold_wall;
  // A sweep job is one `safelight run susceptibility` over all three
  // models; its latency is that run's wall time.
  outcome.metrics["jobs_per_s"] = reps / cold_wall;
  outcome.metrics["job_latency_p50_s"] = quantile(latencies, 0.5);
  outcome.metrics["job_latency_p90_s"] = quantile(latencies, 0.9);
  outcome.metrics["setup_s"] = median(warm_s);
  return outcome;
}

Outcome traced(SweepRunner& runner, const Options& options,
               const RunDirs& dirs) {
  Outcome outcome;
  auto& m = outcome.metrics;
  const std::string store = dirs.run + "/stores";

  // The timed run's work, untraced, bracketed by registry counter reads.
  const sl::metrics::Snapshot before = sl::metrics::snapshot();
  const Rep rep = runner.run_cold(store);
  const sl::metrics::Snapshot after = sl::metrics::snapshot();
  check_digest(options, dirs, rep.digest, rep.digest, runner.grid_size(),
               outcome);
  simulated_stats(rep, outcome);
  registry_metrics(before, after, m);
  for (std::size_t i = 0; i < rep.model_s.size(); ++i) {
    m["core.experiment_s." + sl::nn::to_string(sweep_models()[i])] =
        rep.model_s[i];
  }
  if (options.workload == "sweep-4w") {
    m["dist.run_s"] = rep.dist.wall_seconds;
    m["dist.tasks"] = static_cast<double>(rep.dist.tasks);
    m["dist.steals"] = static_cast<double>(rep.dist.steals);
    m["dist.retries"] = static_cast<double>(rep.dist.retries);
    const double rows = static_cast<double>(rep.dist.merged_rows);
    const double dups = static_cast<double>(rep.dist.merge_duplicates);
    m["dist.useful_ratio"] = rows + dups > 0 ? rows / (rows + dups) : 0.0;
  }

  // Serial replay of the same grids: untraced first, then traced; the
  // difference is the tracing overhead.
  Tracer tracer;
  sl::core::ModelZoo zoo(dirs.zoo);
  std::vector<ReplayResult> replays;
  std::vector<double> solve_iterations;
  const auto replay_all = [&] {
    replays.clear();
    solve_iterations.clear();
    for (const sl::core::ExperimentSpec& spec : runner.specs()) {
      const sl::core::ExperimentSetup setup = spec.resolved_setup();
      replays.push_back(replay_susceptibility(
          tracer, zoo, setup,
          sl::attack::paper_scenario_grid(spec.seed_count, spec.base_seed),
          solve_iterations));
      replay_layers(tracer, zoo, setup);
    }
  };
  std::uint64_t start = now_ns();
  run_serially(replay_all);
  const double untraced_s = seconds_since(start);
  tracer.arm(true);
  start = now_ns();
  run_serially(replay_all);
  const std::uint64_t end = now_ns();
  const double traced_s = static_cast<double>(end - start) * 1e-9;

  // The replay must compute what the timed run computed, bit for bit.
  std::size_t mismatches = 0, corrupted = 0;
  for (std::size_t i = 0; i < replays.size(); ++i) {
    mismatches += accuracy_mismatches(
        replays[i], rep.results[i].as<sl::core::SusceptibilityReport>());
    corrupted += replays[i].corrupted_weights;
  }
  outcome.failed += mismatches;
  outcome.notes.push_back("stats corrupted_weights=" +
                          std::to_string(corrupted));

  replay_metrics(tracer, solve_iterations, m);
  m["attacks.corrupted_weights"] = static_cast<double>(corrupted);
  const double busy_s = tracer.total_ms("core.scenario") * 1e-3;
  const double threads = static_cast<double>(runner.threads());
  m["core.parallel_efficiency"] = busy_s / (threads * rep.wall_s);
  m["core.idle_s"] = threads * rep.wall_s - busy_s;
  m["trace.coverage"] = tracer.coverage(start, end);
  m["trace.overhead_share"] = traced_s / untraced_s - 1.0;
  m["trace.accuracy_mismatches"] = static_cast<double>(mismatches);
  write_trace(tracer, dirs.trace,
              options.workload + "-seed" + std::to_string(options.seed));
  return outcome;
}

}  // namespace

std::vector<sl::nn::ModelId> sweep_models() {
  return {sl::nn::ModelId::kCnn1, sl::nn::ModelId::kResNet18,
          sl::nn::ModelId::kVgg16v};
}

int rerun_sweep(const Options& options, const RunDirs& dirs,
                const std::string& store) {
  SweepRunner runner(options, dirs);
  // Recursive: a distributed rerun would evaluate into worker stores.
  const std::size_t rows = stored_rows(store, /*recursive=*/true);
  const Rep rep = runner.run(store);
  if (stored_rows(store, /*recursive=*/true) != rows) {
    std::fprintf(stderr, "perfbench: warm rerun evaluated scenarios\n");
    return 1;
  }
  std::printf("rerun %.9f %s\n", rep.wall_s, rep.digest.c_str());
  return 0;
}

Outcome run_sweep(const Options& options, const RunDirs& dirs) {
  SweepRunner runner(options, dirs);
  return options.trace ? traced(runner, options, dirs)
                       : timed(runner, options, dirs);
}

}  // namespace perfbench
