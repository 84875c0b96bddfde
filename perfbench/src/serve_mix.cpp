// serve-mix: an in-process `serve::Server` with 4 slots, driven over
// loopback by 4 closed-loop clients. Each client submits a tiny-scale job
// drawn from {susceptibility, detection, campaign} x {cnn1, resnet18,
// vgg16v}, follows its event stream, fetches the result and only then
// submits the next one.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/zoo.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace sl = safelight;

namespace {

constexpr std::size_t kSlots = 4;
constexpr std::size_t kClients = 4;
/// Server constructions timed per run; setup_s is their median.
constexpr std::size_t kSetupReps = 15;
/// Completed jobs of each experiment compared with a registry reference.
constexpr std::size_t kSamplesPerExperiment = 2;

const char* const kExperiments[] = {"susceptibility", "detection",
                                    "campaign"};

struct Job {
  std::string experiment;
  std::string body;  // POST /v1/jobs document
};

/// Job `index` of the seeded mix: every block of nine jobs runs each
/// (experiment, model) pair once, in a seeded order, so the mix has the
/// same composition under every seed; the grid placement seed is per job.
Job make_job(std::uint64_t seed, std::size_t index) {
  const std::size_t block = index / 9;
  const std::vector<std::size_t> order =
      sl::Rng(derived_seed(seed, block + 1)).permutation(9);
  const std::size_t pair = order[index % 9];
  Job job;
  job.experiment = kExperiments[pair / 3];
  job.body = "{\"experiment\":\"" + job.experiment + "\",\"model\":\"" +
             sl::nn::to_string(sweep_models()[pair % 3]) +
             "\",\"scale\":\"tiny\",\"seed_count\":1,\"base_seed\":" +
             std::to_string(derived_seed(seed, 1'000'000 + index)) + "}";
  return job;
}

// ---- loopback HTTP client ---------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Response {
  int status = 0;
  std::string body;
};

/// Sends one request and reads the close-delimited response; `on_line`
/// (when set) sees each body line the moment it arrives.
Response http_exchange(std::uint16_t port, const std::string& request,
                  const std::function<void(const std::string&)>& on_line =
                      nullptr) {
  Response response;
  const int fd = connect_loopback(port);
  if (fd < 0) return response;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  std::size_t body_start = std::string::npos, line_start = 0;
  char buffer[8192];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
    if (body_start == std::string::npos) {
      const std::size_t split = raw.find("\r\n\r\n");
      if (split == std::string::npos) continue;
      body_start = line_start = split + 4;
    }
    for (std::size_t nl; on_line && (nl = raw.find('\n', line_start)) !=
                                        std::string::npos;
         line_start = nl + 1) {
      on_line(raw.substr(line_start, nl - line_start));
    }
  }
  ::close(fd);
  if (body_start == std::string::npos) return response;
  if (raw.rfind("HTTP/1.1 ", 0) == 0) response.status = std::stoi(raw.substr(9, 3));
  response.body = raw.substr(body_start);
  return response;
}

Response get(std::uint16_t port, const std::string& target,
             const std::function<void(const std::string&)>& on_line =
                 nullptr) {
  return http_exchange(port,
                  "GET " + target + " HTTP/1.1\r\nHost: b\r\n"
                                    "Connection: close\r\n\r\n",
                  on_line);
}

Response post(std::uint16_t port, const std::string& target,
              const std::string& body) {
  return http_exchange(port, "POST " + target + " HTTP/1.1\r\nHost: b\r\n" +
                            "Content-Length: " + std::to_string(body.size()) +
                            "\r\nConnection: close\r\n\r\n" + body);
}

/// The string value of `"key": "..."` in a JSON object.
std::string json_string(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return "";
  const std::size_t begin = text.find('"', text.find(':', at) + 1) + 1;
  return text.substr(begin, text.find('"', begin) - begin);
}

// ---- daemon -----------------------------------------------------------------

/// An in-process daemon on an ephemeral port; stopped and joined on
/// destruction. `setup_s` runs from construction to the first 200 from
/// /healthz.
class Daemon {
 public:
  Daemon(const std::string& root, const std::string& zoo) {
    const std::uint64_t start = now_ns();
    sl::serve::ServeOptions options;
    options.port = 0;
    options.slots = kSlots;
    options.queue_depth = kClients;
    options.root_dir = root;
    options.zoo_dir = zoo;
    options.stop = &stop_;
    server_ = std::make_unique<sl::serve::Server>(options);
    thread_ = std::thread([this] { server_->serve(); });
    while (get(port(), "/healthz").status != 200) {
      if (seconds_since(start) > 30.0) {
        stop();
        throw std::runtime_error("serve: /healthz never answered 200");
      }
    }
    setup_s_ = seconds_since(start);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return server_->port(); }
  double setup_s() const { return setup_s_; }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::unique_ptr<sl::serve::Server> server_;
  std::thread thread_;  // declared after what serve() uses
  double setup_s_ = 0.0;
};

// ---- storm ------------------------------------------------------------------

struct JobRecord {
  Job job;
  bool taken = false;      // a client ran this job
  bool submitted = false;  // 202 from POST /v1/jobs
  bool done = false;       // terminal "result" event and 200 result bytes
  double submit_ms = 0.0, queue_wait_s = 0.0, run_s = 0.0, result_ms = 0.0;
  double latency_s = 0.0;  // submit until the result bytes are received
  std::string result;
};

struct Storm {
  std::vector<JobRecord> jobs;
  double wall_s = 0.0;
};

void run_job(std::uint16_t port, Tracer& tracer, JobRecord& record) {
  const std::uint64_t start = now_ns();
  Response accepted;
  {
    Span span(tracer, "http.POST.jobs");
    accepted = post(port, "/v1/jobs", record.job.body);
  }
  record.submit_ms = seconds_since(start) * 1e3;
  if (accepted.status != 202) return;
  record.submitted = true;
  const std::string id = json_string(accepted.body, "job");
  std::uint64_t running_ns = 0, terminal_ns = 0;
  bool result_event = false;
  {
    Span span(tracer, "http.GET.events");
    get(port, "/v1/jobs/" + id + "/events", [&](const std::string& line) {
      const std::string type = json_string(line, "type");
      if (type == "running") running_ns = now_ns();
      if (type == "result" || type == "failed" || type == "cancelled") {
        terminal_ns = now_ns();
        result_event = type == "result";
      }
    });
  }
  if (!result_event || running_ns == 0) return;
  record.queue_wait_s = static_cast<double>(running_ns - start) * 1e-9;
  record.run_s = static_cast<double>(terminal_ns - running_ns) * 1e-9;
  const std::uint64_t fetch = now_ns();
  Response result;
  {
    Span span(tracer, "http.GET.result");
    result = get(port, "/v1/jobs/" + id + "/result");
  }
  record.result_ms = seconds_since(fetch) * 1e3;
  record.latency_s = seconds_since(start);
  record.done = result.status == 200;
  record.result = std::move(result.body);
}

/// Closed loop: each client submits its next job only after the previous
/// result arrived; clients stop taking jobs once `seconds` have passed and
/// at least `min_jobs` were taken.
Storm storm(std::uint16_t port, const Options& options, Tracer& tracer) {
  Storm out;
  const std::size_t cap = options.min_jobs * 4 + 64;
  out.jobs.resize(cap);
  std::atomic<std::size_t> next{0};
  const std::uint64_t start = now_ns();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= cap ||
            (i >= options.min_jobs && seconds_since(start) >= options.seconds)) {
          return;
        }
        out.jobs[i].job = make_job(options.seed, i);
        out.jobs[i].taken = true;
        run_job(port, tracer, out.jobs[i]);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  out.wall_s = seconds_since(start);
  // A client preempted between taking an index and its time check can
  // leave a gap below a later index another client ran: keep every job
  // that ran, not the prefix up to the first gap.
  std::erase_if(out.jobs, [](const JobRecord& record) { return !record.taken; });
  return out;
}

/// A completed job and the registry's result for the same spec.
struct Sampled {
  std::size_t index = 0;
  sl::core::ExperimentResult reference;
};

/// Compares a seeded sample of completed jobs with references computed by
/// ExperimentRegistry::run on the same spec.
std::vector<Sampled> check_sample(const Storm& storm, const RunDirs& dirs,
                                  Outcome& outcome) {
  std::vector<std::size_t> sample;
  for (const char* experiment : kExperiments) {
    std::size_t taken = 0;
    for (std::size_t i = 0; i < storm.jobs.size() &&
                            taken < kSamplesPerExperiment;
         ++i) {
      if (storm.jobs[i].done && storm.jobs[i].job.experiment == experiment) {
        sample.push_back(i);
        ++taken;
      }
    }
  }
  sl::core::ModelZoo zoo(dirs.zoo);
  sl::core::RunContext context(zoo);
  std::vector<Sampled> out;
  for (const std::size_t i : sample) {
    sl::core::ExperimentSpec spec =
        sl::core::spec_from_json(storm.jobs[i].job.body);
    spec.cache_dir = dirs.run + "/reference";
    fresh_dir(spec.cache_dir);
    out.push_back(
        {i, sl::core::ExperimentRegistry::global().run(spec, context)});
    if (out.back().reference.to_json() != storm.jobs[i].result) {
      ++outcome.failed;
      outcome.notes.push_back("MISMATCH job " + std::to_string(i) + " " +
                              storm.jobs[i].job.body);
    }
  }
  outcome.notes.push_back("checked " + std::to_string(sample.size()) +
                          " sampled job results against registry runs");
  return out;
}

void count_jobs(const Storm& storm, Outcome& outcome) {
  for (const JobRecord& record : storm.jobs) {
    ++outcome.attempted;
    if (!record.done) ++outcome.failed;
  }
}

std::size_t completed(const Storm& storm) {
  std::size_t n = 0;
  for (const JobRecord& record : storm.jobs) n += record.done ? 1 : 0;
  return n;
}

std::vector<double> field(const Storm& storm, double JobRecord::*member) {
  std::vector<double> out;
  for (const JobRecord& record : storm.jobs) {
    if (record.done) out.push_back(record.*member);
  }
  return out;
}

std::string daemon_root(const RunDirs& dirs, std::size_t k) {
  return dirs.run + "/serve" + std::to_string(k);
}

std::unique_ptr<Daemon> start_daemon(const RunDirs& dirs, std::size_t k) {
  const std::string root = daemon_root(dirs, k);
  fresh_dir(root);
  require_weights_only(dirs.zoo);
  return std::make_unique<Daemon>(root, dirs.zoo);
}

Outcome timed(const Options& options, const RunDirs& dirs) {
  Outcome outcome;
  std::vector<double> setups;
  for (std::size_t k = 0; k + 1 < kSetupReps; ++k) {
    setups.push_back(start_daemon(dirs, k)->setup_s());
  }
  std::unique_ptr<Daemon> daemon = start_daemon(dirs, kSetupReps);
  setups.push_back(daemon->setup_s());
  Tracer untraced;
  const Storm result = storm(daemon->port(), options, untraced);
  daemon->stop();
  outcome.metrics["peak_rss_mb"] = peak_rss_mib();
  const double rows =
      static_cast<double>(stored_rows(daemon_root(dirs, kSetupReps), true));

  count_jobs(result, outcome);
  check_sample(result, dirs, outcome);
  const std::vector<double> latency = field(result, &JobRecord::latency_s);
  outcome.metrics["scenarios_per_s"] = rows / result.wall_s;
  outcome.metrics["jobs_per_s"] =
      static_cast<double>(completed(result)) / result.wall_s;
  outcome.metrics["job_latency_p50_s"] = quantile(latency, 0.5);
  outcome.metrics["job_latency_p90_s"] = quantile(latency, 0.9);
  outcome.metrics["setup_s"] = median(setups);
  outcome.notes.push_back("storm jobs " + std::to_string(result.jobs.size()) +
                          " completed " + std::to_string(completed(result)));
  return outcome;
}

Outcome traced(const Options& options, const RunDirs& dirs) {
  Outcome outcome;
  auto& m = outcome.metrics;
  // Untraced storm, then the traced one on a fresh daemon: the jobs/s
  // ratio is the tracing overhead.
  Tracer tracer;
  std::unique_ptr<Daemon> daemon = start_daemon(dirs, 0);
  const Storm plain = storm(daemon->port(), options, tracer);
  daemon->stop();
  daemon = start_daemon(dirs, 1);
  tracer.arm(true);
  const sl::metrics::Snapshot before = sl::metrics::snapshot();
  const Storm result = storm(daemon->port(), options, tracer);
  const sl::metrics::Snapshot after = sl::metrics::snapshot();
  daemon->stop();
  count_jobs(result, outcome);
  const std::vector<Sampled> sample = check_sample(result, dirs, outcome);

  registry_metrics(before, after, m);
  m["serve.submit_ms.p50"] = median(tracer.durations("http.POST.jobs"));
  const std::vector<double> waits = field(result, &JobRecord::queue_wait_s);
  m["serve.queue_wait_s.p50"] = quantile(waits, 0.5);
  m["serve.queue_wait_s.p90"] = quantile(waits, 0.9);
  const std::vector<double> runs = field(result, &JobRecord::run_s);
  m["serve.run_s.p50"] = quantile(runs, 0.5);
  m["serve.result_ms.p50"] = quantile(field(result, &JobRecord::result_ms), 0.5);
  std::size_t admitted = 0;
  double busy = 0.0;
  for (const JobRecord& record : result.jobs) admitted += record.submitted;
  for (const double run : runs) busy += run;
  m["serve.admitted_ratio"] =
      result.jobs.empty() ? 0.0
                          : static_cast<double>(admitted) /
                                static_cast<double>(result.jobs.size());
  m["serve.slot_busy_share"] =
      busy / (static_cast<double>(kSlots) * result.wall_s);
  const double plain_rate =
      static_cast<double>(completed(plain)) / plain.wall_s;
  const double traced_rate =
      static_cast<double>(completed(result)) / result.wall_s;
  m["trace.overhead_share"] = plain_rate / traced_rate - 1.0;

  // Serial replay of the sampled jobs' work through the public calls.
  Tracer replay;
  replay.arm(true);
  sl::core::ModelZoo zoo(dirs.zoo);
  std::vector<double> solve_iterations;
  std::size_t mismatches = 0, corrupted = 0;
  const std::uint64_t start = now_ns();
  run_serially([&] {
    for (const Sampled& sampled : sample) {
      const sl::core::ExperimentSpec& spec = sampled.reference.spec;
      const sl::core::ExperimentSetup setup = spec.resolved_setup();
      const auto grid =
          sl::attack::paper_scenario_grid(spec.seed_count, spec.base_seed);
      if (spec.experiment == "susceptibility") {
        const ReplayResult replayed =
            replay_susceptibility(replay, zoo, setup, grid, solve_iterations);
        corrupted += replayed.corrupted_weights;
        mismatches += accuracy_mismatches(
            replayed, sampled.reference.as<sl::core::SusceptibilityReport>());
      } else if (spec.experiment == "detection") {
        replay_detectors(replay, zoo, setup, grid, spec.base_seed);
      } else {
        replay_layers(replay, zoo, setup);
      }
    }
  });
  const std::uint64_t end = now_ns();
  outcome.failed += mismatches;
  replay_metrics(replay, solve_iterations, m);
  m["attacks.corrupted_weights"] = static_cast<double>(corrupted);
  m["trace.coverage"] = replay.coverage(start, end);
  m["trace.accuracy_mismatches"] = static_cast<double>(mismatches);
  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed);
  write_trace(tracer, dirs.trace, stem + "-http");
  write_trace(replay, dirs.trace, stem);
  return outcome;
}

}  // namespace

Outcome run_serve_mix(const Options& options, const RunDirs& dirs) {
  return options.trace ? traced(options, dirs) : timed(options, dirs);
}

}  // namespace perfbench
