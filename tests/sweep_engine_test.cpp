// Tests for the keyed-task sweep engine (core/sweep_engine.hpp): dynamic
// claiming over deliberately skewed task costs, once-per-worker state,
// failure and cancellation stops, and thread-count invariance of the three
// sweeps built on it. The suite runs with SAFELIGHT_THREADS=4 (set in
// tests/CMakeLists.txt), so four workers really run concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"
#include "test_util.hpp"

namespace safelight::core {
namespace {

constexpr std::size_t kWorkers = 4;

/// Skewed cost: every seventh task is twenty times dearer than the rest.
void skewed_work(std::size_t task) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(task % 7 == 0 ? 4000 : 200));
}

SweepTaskOptions four_workers() {
  SweepTaskOptions options;
  options.max_workers = kWorkers;
  options.label = "engine_test";
  return options;
}

/// Per-worker state of the synthetic sweeps: the thread that built it.
struct WorkerTag {
  std::thread::id thread = std::this_thread::get_id();
};

TEST(SweepEngine, RunsWithFourWorkers) {
  ASSERT_GE(worker_count(), kWorkers)
      << "the suite expects SAFELIGHT_THREADS=4";
  EXPECT_EQ(sweep_workers(kWorkers), kWorkers);
  EXPECT_EQ(sweep_workers(1), 1u);
}

TEST(SweepEngine, EvaluatesEveryKeyExactlyOnceWithStatePerWorker) {
  constexpr std::size_t kTasks = 96;
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<std::size_t> states{0};
  std::mutex mutex;
  std::set<std::thread::id> threads;
  run_sweep_tasks(
      kTasks, four_workers(),
      [&] {
        ++states;
        return std::make_unique<WorkerTag>();
      },
      [&](WorkerTag& tag, std::size_t task) {
        // State is private to its worker: only its builder thread uses it.
        EXPECT_EQ(tag.thread, std::this_thread::get_id());
        skewed_work(task);
        ++runs[task];
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_LE(states.load(), kWorkers);  // once per worker, not per task
  EXPECT_EQ(states.load(), threads.size());
  EXPECT_GT(threads.size(), 1u) << "skewed sweep never left the caller";
}

TEST(SweepEngine, ClaimsInSubmissionOrder) {
  constexpr std::size_t kTasks = 40;
  std::vector<std::size_t> claimed;
  std::mutex mutex;
  run_sweep_tasks(
      kTasks, four_workers(), [] { return std::make_unique<WorkerTag>(); },
      [&](WorkerTag&, std::size_t task) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          claimed.push_back(task);
        }
        skewed_work(task);
      });
  ASSERT_EQ(claimed.size(), kTasks);
  // Claims come off one cursor, so a task starts at most (workers - 1)
  // places away from its index.
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_LE(claimed[i], i + kWorkers - 1) << "position " << i;
  }
}

TEST(SweepEngine, FewTasksRunInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t states = 0;
  std::vector<std::size_t> order;
  run_sweep_tasks(
      2 * kWorkers - 1, four_workers(),
      [&] {
        ++states;
        return std::make_unique<WorkerTag>();
      },
      [&](WorkerTag& tag, std::size_t task) {
        EXPECT_EQ(tag.thread, caller);
        order.push_back(task);
      });
  EXPECT_EQ(states, 1u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));

  // No tasks: no state is ever built.
  run_sweep_tasks(
      0, four_workers(),
      [&] {
        ++states;
        return std::make_unique<WorkerTag>();
      },
      [](WorkerTag&, std::size_t) {});
  EXPECT_EQ(states, 1u);
}

TEST(SweepEngine, RethrowsFirstFailureAfterOtherWorkersStop) {
  constexpr std::size_t kTasks = 200;
  constexpr std::size_t kFailing = 9;
  std::atomic<int> in_flight{0};
  std::atomic<std::size_t> finished{0};
  try {
    run_sweep_tasks(
        kTasks, four_workers(), [] { return std::make_unique<WorkerTag>(); },
        [&](WorkerTag&, std::size_t task) {
          ++in_flight;
          skewed_work(task);
          --in_flight;
          if (task == kFailing) throw std::runtime_error("task 9 failed");
          ++finished;
        });
    FAIL() << "the failing task's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 9 failed");
    // Every worker returned before the caller saw the failure...
    EXPECT_EQ(in_flight.load(), 0);
    const std::size_t done = finished.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(finished.load(), done);
    // ...and they stopped at their next claim instead of draining the list.
    EXPECT_LT(done, kTasks / 2);
  }
}

TEST(SweepEngine, CancelFlagStopsAllWorkersAtATaskBoundary) {
  constexpr std::size_t kTasks = 400;
  std::atomic<bool> cancel{false};
  std::atomic<int> in_flight{0};
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<std::size_t> finished{0};
  SweepTaskOptions options = four_workers();
  options.cancel = &cancel;
  std::thread canceller([&] {
    while (finished.load() < 20) std::this_thread::yield();
    cancel = true;
  });
  EXPECT_THROW(
      run_sweep_tasks(
          kTasks, options, [] { return std::make_unique<WorkerTag>(); },
          [&](WorkerTag&, std::size_t task) {
            ++in_flight;
            skewed_work(task);
            ++runs[task];
            --in_flight;
            ++finished;
          }),
      ExperimentCancelled);
  canceller.join();
  EXPECT_EQ(in_flight.load(), 0);  // no task was abandoned midway
  const std::size_t done = finished.load();
  EXPECT_GE(done, 20u);
  EXPECT_LT(done, kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_LE(runs[i].load(), 1);

  // A flag that is already set cancels a sweep before its first task.
  EXPECT_THROW(run_sweep_tasks(
                   1, options, [] { return std::make_unique<WorkerTag>(); },
                   [](WorkerTag&, std::size_t) { FAIL(); }),
               ExperimentCancelled);
}

// ------------------------------------------------------- sweeps on the engine

ExperimentSetup tiny_setup() {
  return experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
}

std::string sweep_store_path(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.ends_with(".sweep.csv")) return path;
  }
  return "";
}

TEST(SweepEngine, CancelledPipelineResumesOnlyMissingKeysBitwise) {
  TempDir dir("engine_cancel");
  ModelZoo zoo(dir.path() + "/zoo");
  const ExperimentSetup setup = tiny_setup();
  const VariantSpec variant = variant_by_name("Original");
  const auto grid = attack::paper_scenario_grid(10);

  PipelineOptions reference_options;
  reference_options.cache_dir = dir.path() + "/reference";
  const SweepResult reference =
      ScenarioPipeline(setup, zoo, reference_options).run(variant, grid);

  // Flip the flag from another thread once a few scenarios are stored.
  std::atomic<bool> cancel{false};
  PipelineOptions options;
  options.cache_dir = dir.path() + "/cancelled";
  options.max_workers = kWorkers;
  options.cancel = &cancel;
  std::filesystem::create_directories(options.cache_dir);
  std::atomic<bool> sweep_done{false};
  std::thread canceller([&] {
    while (!sweep_done.load()) {
      const std::string store = sweep_store_path(options.cache_dir);
      if (!store.empty() && read_store_entries(store).size() >= 5) {
        cancel = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  EXPECT_THROW(ScenarioPipeline(setup, zoo, options).run(variant, grid),
               ExperimentCancelled);
  sweep_done = true;
  canceller.join();
  ASSERT_TRUE(cancel.load());

  // Every stored row is a whole scenario (baseline + scenarios), and
  // nothing is appended once run() has thrown.
  const std::string store = sweep_store_path(options.cache_dir);
  const std::size_t stored = read_store_entries(store).size();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(read_store_entries(store).size(), stored);
  ASSERT_GE(stored, 5u);
  ASSERT_LT(stored, grid.size() + 1);

  options.cancel = nullptr;
  const SweepResult resumed =
      ScenarioPipeline(setup, zoo, options).run(variant, grid);
  EXPECT_EQ(resumed.evaluated, grid.size() + 1 - stored);
  EXPECT_EQ(resumed.cache_hits, stored - 1);
  ASSERT_EQ(resumed.rows.size(), reference.rows.size());
  EXPECT_EQ(resumed.baseline_accuracy, reference.baseline_accuracy);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(resumed.rows[i].scenario.id(), grid[i].id());
    EXPECT_EQ(resumed.rows[i].accuracy, reference.rows[i].accuracy)
        << grid[i].id();
  }
}

/// Runs one experiment through a child CLI at `threads` threads and
/// returns every output document, keyed by file name.
std::map<std::string, std::string> cli_outputs(const std::string& dir,
                                               const std::string& experiment,
                                               const std::string& threads) {
  const std::string zoo = dir + "/zoo" + threads;
  const std::string out = dir + "/out" + threads;
  const ProcessResult run = run_process(
      {SAFELIGHT_CLI_BIN, "run", experiment, "--model", "cnn1", "--json"},
      {"SAFELIGHT_SCALE=tiny", "SAFELIGHT_SEEDS=2",
       "SAFELIGHT_THREADS=" + threads, "SAFELIGHT_ZOO=" + zoo,
       "SAFELIGHT_OUT=" + out},
      dir, 600.0);
  EXPECT_EQ(run.exit_code, 0) << run.stderr_text;
  std::map<std::string, std::string> documents;
  for (const auto& entry : std::filesystem::directory_iterator(out)) {
    documents[entry.path().filename().string()] =
        read_file_bytes(entry.path().string());
  }
  return documents;
}

TEST(SweepEngine, ReportsAreByteIdenticalAtOneAndFourThreads) {
  TempDir dir("engine_threads");
  // Train once; the 4-thread run starts from the same weights with empty
  // result stores, so both runs evaluate every task.
  for (const std::string experiment :
       {"susceptibility", "detection", "campaign"}) {
    const auto serial = cli_outputs(dir.path(), experiment, "1");
    if (!std::filesystem::exists(dir.path() + "/zoo4")) {
      std::filesystem::create_directories(dir.path() + "/zoo4");
      for (const auto& entry :
           std::filesystem::directory_iterator(dir.path() + "/zoo1")) {
        if (entry.path().extension() == ".slw") {
          std::filesystem::copy(entry.path(),
                                dir.path() + "/zoo4/" +
                                    entry.path().filename().string());
        }
      }
    }
    const auto parallel = cli_outputs(dir.path(), experiment, "4");
    ASSERT_FALSE(serial.empty()) << experiment;
    ASSERT_EQ(serial.size(), parallel.size()) << experiment;
    for (const auto& [name, bytes] : serial) {
      EXPECT_FALSE(bytes.empty()) << name;
      EXPECT_EQ(bytes, parallel.at(name)) << experiment << ": " << name;
    }
  }
}

}  // namespace
}  // namespace safelight::core
