// Minimal data-parallel loop helpers.
//
// The training and evaluation hot loops (GEMM row tiles, conv column blocks)
// are embarrassingly parallel; parallel_for splits an index range across the
// persistent worker pool (common/thread_pool.hpp). Submitting a job to the
// parked pool costs one lock + notify, so even the thousands of small GEMMs
// issued per attack sweep can afford it; the helpers still degrade to a
// plain serial loop when the range or the host does not justify fanning out.
#pragma once

#include <cstddef>
#include <functional>

namespace safelight {

/// Number of worker threads used by parallel_for (>= 1). Defaults to
/// std::thread::hardware_concurrency(), overridable with SAFELIGHT_THREADS.
std::size_t worker_count();

/// Invokes fn(i) for every i in [begin, end). Chunks the range contiguously
/// across up to worker_count() pool threads when (end - begin) >=
/// min_grain * 2, otherwise runs serially on the calling thread (the
/// serial-fallback contract is covered by Parallel.SerialBelowTwoGrains).
/// Nested calls from inside a worker always run serially. fn must be
/// thread-safe across distinct i.
///
/// Exceptions thrown by fn are captured and the first one is rethrown on the
/// calling thread after the whole range was attempted.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t min_grain = 1);

/// Like parallel_for but hands each worker a contiguous [chunk_begin,
/// chunk_end) sub-range, which avoids per-index std::function overhead in
/// tight loops. Same serial-fallback contract: serial below min_grain * 2
/// indices, and every parallel chunk except possibly the final (tail)
/// chunk spans at least min_grain indices.
void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_grain = 1);

}  // namespace safelight
