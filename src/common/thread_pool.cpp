#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace safelight {

ThreadPool::ThreadPool(std::size_t threads) {
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Job::drain() {
  // Span bookkeeping is manual (not RAII): one "pool.drain" span covers
  // every chunk this thread executed of this job, and straggler drains
  // that claim zero chunks must emit nothing.
  const std::uint64_t span_start = trace::armed() ? trace::now_ns() : 0;
  std::size_t executed = 0;
  for (;;) {
    std::size_t chunk;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (next >= chunks) break;
      chunk = next++;
    }
    ++executed;
    try {
      (*fn)(chunk);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mutex);
    if (++done == chunks) done_cv.notify_all();
  }
  if (executed == 0) return;
  static metrics::Counter& drains = metrics::counter("pool.drains");
  static metrics::Counter& chunks_run = metrics::counter("pool.chunks");
  drains.add();
  chunks_run.add(executed);
  if (trace::armed()) {
    trace::RawEvent event;
    event.name = "pool.drain";
    event.cat = "pool";
    event.start_ns = span_start;
    event.dur_ns = trace::now_ns() - span_start;
    event.num_args.emplace_back("chunks", static_cast<double>(executed));
    trace::record(std::move(event));
  }
}

void ThreadPool::run(std::size_t chunk_count,
                     const std::function<void(std::size_t)>& fn) {
  if (chunk_count == 0) return;
  if (threads_.empty() || chunk_count == 1) {
    for (std::size_t i = 0; i < chunk_count; ++i) fn(i);
    return;
  }

  const auto job = std::make_shared<Job>(fn, chunk_count);
  // One queue token per worker that could usefully help; each token is a
  // shared owner of the job, so stragglers that wake after completion find
  // an exhausted chunk counter and drop their reference harmlessly.
  const std::size_t tokens = std::min(threads_.size(), chunk_count - 1);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < tokens; ++i) queue_.push_back(job);
  }
  work_cv_.notify_all();

  job->drain();  // the submitting thread works too

  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&] { return job->done == job->chunks; });
    // Take the job's reference too, so the exception is freed on this
    // thread rather than by whichever worker drops the job last.
    if (std::exception_ptr error = std::exchange(job->error, nullptr)) {
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job->drain();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(worker_count() > 0 ? worker_count() - 1 : 0);
  return pool;
}

}  // namespace safelight
