// Shared declarations of the SafeLight benchmark driver.
//
// One process runs one workload once: either the timed run (end-to-end
// metrics, tracing off) or the traced run (per-layer metrics from spans
// around public library calls plus the library's own counters). Both
// check the program's outputs and end with one JSON line on stdout.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attacks/scenario.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "core/experiment.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Sweep scale; serve-mix jobs are always tiny.
  safelight::Scale scale = safelight::Scale::kDefault;
  /// Build-side state: trained zoo, per-run stores, traces, digest ledger.
  std::string root;
  /// Pinned digest the sweep outputs must equal (empty: no pin applies).
  std::string expect_digest;
  /// serve-mix: jobs the storm completes at least (p90 needs >= 100).
  std::size_t min_jobs = 100;
};

/// Everything one run reports besides provenance.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// name -> value; the unit comes from the metric catalogue.
  std::map<std::string, double> metrics;
  /// Simulated statistics and check results, printed before the JSON.
  std::vector<std::string> notes;
};

/// Paths of one run under Options::root.
struct RunDirs {
  std::string zoo;    // shared trained weights (*.slw only)
  std::string run;    // this process's stores, removed at exit
  std::string trace;  // traced-run outputs, kept
  std::string ledger; // sweep digests per (commit, scale, seed), kept
};

// ---- workloads -------------------------------------------------------------

/// sweep-4t, sweep-1t, sweep-4w.
Outcome run_sweep(const Options& options, const RunDirs& dirs);
/// serve-mix.
Outcome run_serve_mix(const Options& options, const RunDirs& dirs);
/// One warm rerun of a sweep against `store` in this fresh process; prints
/// "rerun <seconds> <digest>" and fails when it evaluated anything.
int rerun_sweep(const Options& options, const RunDirs& dirs,
                const std::string& store);

/// The models every sweep covers, in the order `safelight run` uses.
std::vector<safelight::nn::ModelId> sweep_models();
/// A seed in [1, 1e6] derived from the workload seed and a stream number.
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t stream);
/// Trains (or loads) every zoo entry the workloads use at `scales`.
void prepare_zoo(const std::string& zoo_dir,
                 const std::vector<safelight::Scale>& scales);

// ---- traced replay (replay.cpp) --------------------------------------------

struct ReplayResult {
  double baseline = 0.0;
  std::vector<double> accuracies;  // grid order
  std::size_t corrupted_weights = 0;
};

/// Serial replay of one model's susceptibility sweep through the public
/// calls, with a span around each: zoo load, evaluator construction,
/// baseline, and per scenario restore / apply / evaluate(_from).
ReplayResult replay_susceptibility(
    Tracer& tracer, safelight::core::ModelZoo& zoo,
    const safelight::core::ExperimentSetup& setup,
    const std::vector<safelight::attack::AttackScenario>& grid,
    std::vector<double>& solve_iterations);

/// Baseline and scenario accuracies of `replay` that differ, bit for bit,
/// from the report the timed run produced.
std::size_t accuracy_mismatches(
    const ReplayResult& replay,
    const safelight::core::SusceptibilityReport& report);

/// Layer-by-layer forward of the clean model over its evaluation set, and
/// each conv layer's lowering (nn::im2col + nn::gemm) on its real shapes.
void replay_layers(Tracer& tracer, safelight::core::ModelZoo& zoo,
                   const safelight::core::ExperimentSetup& setup);

/// Calibrates the detector suite and checks every detector against each
/// scenario, one span per Detector::check.
void replay_detectors(
    Tracer& tracer, safelight::core::ModelZoo& zoo,
    const safelight::core::ExperimentSetup& setup,
    const std::vector<safelight::attack::AttackScenario>& scenarios,
    std::uint64_t probe_seed);

/// Runs `fn` with the library's nested parallelism disabled, so replayed
/// scenarios run single-threaded as they do inside a sweep fan-out.
void run_serially(const std::function<void()>& fn);

/// Fills the core/attacks/thermal/accel/nn/defense metrics of `out` from
/// the replay spans.
void replay_metrics(const Tracer& tracer,
                    const std::vector<double>& solve_iterations,
                    std::map<std::string, double>& out);

/// Writes the spans (Chrome JSON) and a self-time table under `dir`.
void write_trace(const Tracer& tracer, const std::string& dir,
                 const std::string& stem);

// ---- helpers (main.cpp) ----------------------------------------------------

/// Linear-interpolated quantile of `values` (0 when empty).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Peak resident set [MiB] of this process and of any child it waited for.
double peak_rss_mib();
/// Runs this binary with `args`; returns its exit code and last stdout
/// line.
std::pair<int, std::string> run_child(const std::vector<std::string>& args);
/// Result rows in the *.csv stores under `dir` (header lines excluded).
std::size_t stored_rows(const std::string& dir, bool recursive);
/// Creates a fresh, empty directory (removing any previous one).
void fresh_dir(const std::string& path);
/// Throws when `zoo_dir` holds anything but trained weights: result stores,
/// dist worker stores or serve slot stores left by an earlier run.
void require_weights_only(const std::string& zoo_dir);
/// Name, size and mtime of every trained weight file in `zoo_dir`, sorted;
/// it changes when a run trains (or retrains) a model.
std::string weights_listing(const std::string& zoo_dir);
/// Counter value from the library's metrics registry, 0 when unregistered
/// (and 0 in timed runs, which leave the registry disarmed).
std::uint64_t counter(const std::string& name);
/// Fills the registry-counted metrics (prefix cache, stores, GEMM, pool,
/// HTTP requests)
/// from the counter growth between two snapshots.
void registry_metrics(const safelight::metrics::Snapshot& before,
                      const safelight::metrics::Snapshot& after,
                      std::map<std::string, double>& out);
std::string fmt(double value, int digits = 4);

}  // namespace perfbench
