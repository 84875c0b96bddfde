// perfbench: the SafeLight benchmark driver.
//
//   perfbench --workload <sweep-4t|sweep-1t|sweep-4w|serve-mix>
//             --seed <n> --seconds <s> --trace <0|1> --root <dir>
//             [--scale tiny|default] [--min-jobs <n>] [--expect-digest <hex>]
//   perfbench --prepare --root <dir>     train the zoo the workloads load
//   perfbench --selftest --root <dir>    tiny-scale smoke of every path
//
// One process runs one workload once. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. A
// full report with provenance goes to <root>/reports/. The process exits
// nonzero when any output check fails.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "core/zoo.hpp"
#include "nn/backend.hpp"

namespace perfbench {

namespace sl = safelight;
namespace fs = std::filesystem;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them (--trace 0).
const MetricDef kEndToEnd[] = {
    {"scenarios_per_s", "1/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},       {"jobs_per_s", "1/s"},
    {"job_latency_p50_s", "s"},   {"job_latency_p90_s", "s"},
};

/// Per-layer metrics (--trace 1). A layer the workload never reaches
/// reads 0, as the library's metrics registry reports an unused counter.
const MetricDef kPerLayer[] = {
    {"core.zoo_get_ms", "ms"},
    {"core.evaluator_init_ms", "ms"},
    {"core.baseline_ms", "ms"},
    {"core.scenario_ms.p50", "ms"},
    {"core.scenario_ms.p90", "ms"},
    {"core.restore_ms.p50", "ms"},
    {"core.scenario_other_share", "ratio"},
    {"core.parallel_efficiency", "ratio"},
    {"core.idle_s", "s"},
    {"core.experiment_s.cnn1", "s"},
    {"core.experiment_s.resnet18", "s"},
    {"core.experiment_s.vgg16v", "s"},
    {"core.prefix_hit_ratio", "ratio"},
    {"core.prefix_builds", "count"},
    {"core.store_appends", "count"},
    {"core.store_hit_ratio", "ratio"},
    {"core.zoo_trainings", "count"},
    {"attacks.apply_ms.actuation.p50", "ms"},
    {"attacks.apply_ms.hotspot.p50", "ms"},
    {"attacks.hotspot_plan_ms.p50", "ms"},
    {"attacks.corrupted_weights", "count"},
    {"thermal.solve_iterations.p50", "count"},
    {"accel.condition_ms", "ms"},
    {"accel.evaluate_ms.p50", "ms"},
    {"accel.evaluate_from_ms.p50", "ms"},
    {"nn.forward_ms.conv", "ms"},
    {"nn.forward_ms.linear", "ms"},
    {"nn.forward_ms.other", "ms"},
    {"nn.conv_share", "ratio"},
    {"nn.im2col_ms", "ms"},
    {"nn.gemm_ms", "ms"},
    {"nn.gemm_calls", "count"},
    {"nn.gemm_gflop", "GFLOP"},
    {"nn.gemm_gflops.p50", "GFLOP/s"},
    {"common.pool_chunks", "count"},
    {"common.pool_drains", "count"},
    {"defense.check_ms.canary.p50", "ms"},
    {"defense.check_ms.range_monitor.p50", "ms"},
    {"defense.check_ms.thermal_sentinel.p50", "ms"},
    {"defense.checks", "count"},
    {"serve.submit_ms.p50", "ms"},
    {"serve.queue_wait_s.p50", "s"},
    {"serve.queue_wait_s.p90", "s"},
    {"serve.run_s.p50", "s"},
    {"serve.result_ms.p50", "ms"},
    {"serve.admitted_ratio", "ratio"},
    {"serve.slot_busy_share", "ratio"},
    {"serve.http_requests", "count"},
    {"dist.run_s", "s"},
    {"dist.tasks", "count"},
    {"dist.steals", "count"},
    {"dist.retries", "count"},
    {"dist.useful_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.accuracy_mismatches", "count"},
};

const char* const kWorkloads[] = {"sweep-4t", "sweep-1t", "sweep-4w",
                                  "serve-mix"};

/// Replay spans must cover at least this share of the replay's wall time.
constexpr double kMinCoverage = 0.95;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::string read_first_line(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Where the numbers were taken; two reports compare only when it matches.
std::vector<std::pair<std::string, std::string>> provenance() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  return {
      {"nproc", std::to_string(cpus)},
      {"cpu_model", read_first_line("/proc/cpuinfo", "model name")},
      {"backend", sl::nn::backend::active().name()},
      {"kernel_fingerprint", sl::nn::backend::kernel_fingerprint()},
      {"compiler", std::string("gcc-compatible ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit != nullptr ? commit : "unknown"},
  };
}

/// Pinned sweep digest for "<scale>/<seed>" from the catalogue, or "".
std::string pinned_digest(const std::string& key) {
  std::ifstream in(PERFBENCH_CATALOGUE);
  std::stringstream text;
  text << in.rdbuf();
  if (text.str().empty()) return "";
  const sl::JsonValue catalogue = sl::JsonValue::parse(text.str());
  if (!catalogue.has("pinned_digests")) return "";
  const sl::JsonValue& pins = catalogue.at("pinned_digests");
  return pins.has(key) ? pins.at(key).as_string() : "";
}

/// Fixes thread counts before the library's pool sizes itself, arms the
/// metrics registry for a traced run (timed runs measure the program as a
/// user runs it, metrics off) and returns the run's directories.
RunDirs configure(const Options& options) {
  const bool known = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               options.workload) != std::end(kWorkloads);
  if (!known) usage("unknown workload '" + options.workload + "'");
  sl::config::Overrides overrides;
  overrides.threads = options.workload == "sweep-1t" ? 1 : 4;
  overrides.scale = options.scale;
  sl::config::set_overrides(overrides);
  // The dist workers read their thread count from the environment.
  if (options.workload == "sweep-4w") ::setenv("SAFELIGHT_THREADS", "1", 1);
  if (options.trace) sl::metrics::arm_collection();

  RunDirs dirs;
  dirs.zoo = options.root + "/zoo";
  dirs.run = options.root + "/runs/" + std::to_string(::getpid());
  dirs.trace = options.root + "/traces";
  dirs.ledger = options.root + "/digests.tsv";
  if (!fs::is_directory(dirs.zoo)) {
    throw std::runtime_error("no trained zoo at " + dirs.zoo +
                             " (run perfbench --prepare first)");
  }
  return dirs;
}

int run_workload(Options options) {
  const RunDirs dirs = configure(options);
  if (options.expect_digest.empty() && options.workload != "serve-mix") {
    options.expect_digest = pinned_digest(sl::to_string(options.scale) +
                                          "/" + std::to_string(options.seed));
  }
  fresh_dir(dirs.run);
  const std::string weights = weights_listing(dirs.zoo);

  Outcome outcome;
  try {
    outcome = options.workload == "serve-mix" ? run_serve_mix(options, dirs)
                                              : run_sweep(options, dirs);
  } catch (...) {
    fs::remove_all(dirs.run);
    throw;
  }
  fs::remove_all(dirs.run);

  // Checks every run makes, whatever the workload: nothing was trained,
  // so the zoo's weight files are the ones the run started with.
  if (weights_listing(dirs.zoo) != weights) {
    ++outcome.failed;
    outcome.notes.push_back("MISMATCH zoo weight files changed during the run");
  }
  auto& m = outcome.metrics;
  if (options.trace) {
    const std::uint64_t trainings = counter("zoo.trainings");
    if (trainings != 0) {
      ++outcome.failed;
      outcome.notes.push_back("MISMATCH zoo trained " +
                              std::to_string(trainings) +
                              " model(s) during the run");
    }
    m["core.zoo_trainings"] = static_cast<double>(trainings);
    if (m["trace.coverage"] < kMinCoverage) {
      ++outcome.failed;
      outcome.notes.push_back("MISMATCH replay spans cover " +
                              fmt(m["trace.coverage"]) + " of its wall time");
    }
  }
  const double failed_share =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;

  // Human-readable report, then the full JSON report file.
  std::printf("== perfbench %s seed=%llu trace=%d scale=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, sl::to_string(options.scale).c_str());
  const auto prov = provenance();
  for (const auto& [key, value] : prov) {
    std::printf("provenance %s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string metrics_json;
  std::string report_metrics;
  const auto emit = [&](const MetricDef& def) {
    const double value = m.count(def.name) ? m[def.name] : 0.0;
    std::printf("metric %-40s %14.6f %s\n", def.name, value, def.unit);
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", def.name, value,
                  def.unit);
    metrics_json += entry;
  };
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  std::printf("metric %-40s %14.6f %s\n", "failed_share", failed_share,
              "ratio");

  std::string prov_json;
  for (const auto& [key, value] : prov) {
    prov_json += (prov_json.empty() ? "\"" : ", \"") + key + "\": \"" +
                 json_escape(value) + "\"";
  }
  std::string notes_json;
  for (const std::string& note : outcome.notes) {
    notes_json += (notes_json.empty() ? "\"" : ", \"") + json_escape(note) +
                  "\"";
  }
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                correct ? "true" : "false", outcome.attempted,
                outcome.failed);
  const std::string result =
      std::string(head) + "\"metrics\": {" + metrics_json + "}}";
  fs::create_directories(options.root + "/reports");
  std::ofstream(options.root + "/reports/" + options.workload + "-seed" +
                    std::to_string(options.seed) + "-trace" +
                    (options.trace ? "1" : "0") + ".json",
                std::ios::trunc)
      << "{\"workload\": \"" << options.workload << "\", \"seed\": "
      << options.seed << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"scale\": \"" << sl::to_string(options.scale)
      << "\", \"provenance\": {" << prov_json << "}, \"notes\": ["
      << notes_json << "], \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Tiny-scale smoke of every workload path, timed and traced, through the
/// correctness gate; then a corrupted pinned digest that must fail it.
int selftest(const std::string& root) {
  prepare_zoo(root + "/zoo", {sl::Scale::kTiny});
  std::ofstream(root + "/digests.tsv", std::ios::trunc);  // fresh ledger
  const std::vector<std::string> base = {"perfbench", "--scale", "tiny",
                                         "--seconds", "1", "--min-jobs", "8",
                                         "--seed", "1", "--root", root};
  int failures = 0;
  const auto expect = [&](std::vector<std::string> args, bool pass) {
    const auto [code, last] = run_child(args);
    const bool ok = pass ? code == 0 && last.find("\"correct\": true") !=
                                            std::string::npos
                         : code != 0 && last.find("\"correct\": false") !=
                                            std::string::npos;
    std::string shown;
    for (std::size_t i = 1; i < args.size(); ++i) shown += " " + args[i];
    std::printf("%s%s -> exit %d\n", ok ? "ok  " : "FAIL", shown.c_str(),
                code);
    if (!ok) ++failures;
  };
  for (const char* workload : kWorkloads) {
    for (const char* trace : {"0", "1"}) {
      std::vector<std::string> args = base;
      args.insert(args.end(), {"--workload", workload, "--trace", trace});
      expect(args, true);
    }
  }
  std::vector<std::string> corrupted = base;
  corrupted.insert(corrupted.end(), {"--workload", "sweep-1t", "--trace", "0",
                                     "--expect-digest", "0000000000000000"});
  expect(corrupted, false);
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

// ---- helpers shared by the workloads ----------------------------------------

std::pair<int, std::string> run_child(const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(pipe_fds[1], 1);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    std::vector<std::string> copy = args;
    for (std::string& arg : copy) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::string out;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(pipe_fds[0], buffer, sizeof buffer)) > 0) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  const std::size_t nl = out.rfind('\n');
  return {WIFEXITED(status) ? WEXITSTATUS(status) : 128,
          nl == std::string::npos ? out : out.substr(nl + 1)};
}


double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mib() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

std::size_t stored_rows(const std::string& dir, bool recursive) {
  std::vector<fs::path> files;
  if (recursive) {
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      files.push_back(entry.path());
    }
  } else {
    for (const auto& entry : fs::directory_iterator(dir)) {
      files.push_back(entry.path());
    }
  }
  std::size_t rows = 0;
  for (const fs::path& path : files) {
    if (!fs::is_regular_file(path) || path.extension() != ".csv") continue;
    std::ifstream in(path);
    std::string line;
    for (std::getline(in, line); std::getline(in, line);) ++rows;
  }
  return rows;
}

void require_weights_only(const std::string& zoo_dir) {
  for (const fs::directory_entry& entry : fs::directory_iterator(zoo_dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".slw") {
      throw std::runtime_error("zoo holds stale state from an earlier run: " +
                               entry.path().string());
    }
  }
}

std::string weights_listing(const std::string& zoo_dir) {
  std::vector<std::string> lines;
  for (const fs::directory_entry& entry : fs::directory_iterator(zoo_dir)) {
    if (entry.path().extension() != ".slw") continue;
    lines.push_back(
        entry.path().filename().string() + " " +
        std::to_string(entry.file_size()) + " " +
        std::to_string(entry.last_write_time().time_since_epoch().count()));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::uint64_t counter(const std::string& name) {
  const sl::metrics::Snapshot snapshot = sl::metrics::snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void registry_metrics(const sl::metrics::Snapshot& before,
                      const sl::metrics::Snapshot& after,
                      std::map<std::string, double>& out) {
  const auto delta = [&](const std::string& name) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return static_cast<double>((a == after.counters.end() ? 0 : a->second) -
                               (b == before.counters.end() ? 0 : b->second));
  };
  const double hits = delta("prefix_cache.hits");
  const double misses = delta("prefix_cache.misses");
  out["core.prefix_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  out["core.prefix_builds"] = delta("prefix_cache.boundary_builds");
  out["core.store_appends"] = delta("store.appends");
  const double lookups =
      delta("store.lookup_hits") + delta("store.lookup_misses");
  out["core.store_hit_ratio"] =
      lookups > 0 ? delta("store.lookup_hits") / lookups : 0.0;
  out["nn.gemm_calls"] = delta("gemm.calls");
  out["nn.gemm_gflop"] = delta("gemm.flops") * 1e-9;
  const auto gflops = after.histograms.find("gemm.gflops");
  if (gflops != after.histograms.end()) {
    sl::metrics::HistogramSnapshot diff = gflops->second;
    const auto old = before.histograms.find("gemm.gflops");
    if (old != before.histograms.end()) {
      for (const auto& [bucket, count] : old->second.buckets) {
        diff.buckets[bucket] -= count;
      }
      diff.count -= old->second.count;
    }
    out["nn.gemm_gflops.p50"] = sl::metrics::quantile(diff, 0.5);
  }
  out["common.pool_chunks"] = delta("pool.chunks");
  out["common.pool_drains"] = delta("pool.drains");
  out["serve.http_requests"] = delta("serve.http.requests");
}

std::string fmt(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream), folded to a range every JSON number and
  // the dist wire format carry exactly.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return 1 + z % 1'000'000;
}

void prepare_zoo(const std::string& zoo_dir,
                 const std::vector<sl::Scale>& scales) {
  sl::core::ModelZoo zoo(zoo_dir);
  for (const sl::Scale scale : scales) {
    for (const sl::nn::ModelId model : sweep_models()) {
      zoo.get_or_train(sl::core::experiment_setup(model, scale),
                       sl::core::variant_by_name("Original"));
    }
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string mode = "run";
  std::string rerun_store;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--root") {
        options.root = value();
      } else if (arg == "--scale") {
        options.scale = safelight::config::parse_scale(value());
      } else if (arg == "--min-jobs") {
        options.min_jobs = std::stoul(value());
      } else if (arg == "--expect-digest") {
        options.expect_digest = value();
      } else if (arg == "--rerun") {
        mode = "rerun";
        rerun_store = value();
      } else if (arg == "--prepare" || arg == "--selftest") {
        mode = arg.substr(2);
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error& error) {
      usage("bad value for " + arg + ": " + error.what());
    }
  }
  if (options.root.empty()) usage("--root is required");
  options.root = std::filesystem::absolute(options.root).string();
  try {
    if (mode == "prepare") {
      prepare_zoo(options.root + "/zoo",
                  {safelight::Scale::kTiny, safelight::Scale::kDefault});
      return 0;
    }
    if (mode == "selftest") return selftest(options.root);
    if (mode == "rerun") return rerun_sweep(options, configure(options),
                                            rerun_store);
    if (options.workload.empty() || !have_trace) {
      usage("--workload and --trace are required");
    }
    return run_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
