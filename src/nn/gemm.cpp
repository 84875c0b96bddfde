// Dispatching layer of the packed GEMM: owns observability, scratch
// allocation and row parallelism, and routes the actual compute through
// the kernel table of the active compute backend (nn/backend.hpp). This
// translation unit is compiled with the baseline ISA — only the variant
// TUs carry ISA flags, and they are reached exclusively through function
// pointers after the runtime CPU probe.
#include "nn/gemm.hpp"

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "common/trace.hpp"
#include "nn/backend.hpp"

namespace safelight::nn {

namespace {

// The reduced-scale sweeps issue millions of sub-microsecond GEMMs: even
// two armed clock reads per call would eat the <2% traced-run overhead
// contract. So every call bumps the call/FLOP counters (relaxed atomics),
// but the GFLOP/s histogram meters only kernels above kMeterFlopThreshold
// (where the clock granularity yields a meaningful rate) and spans are
// emitted only above kSpanFlopThreshold (where a slice is visible in
// Perfetto rather than trace spam).
constexpr double kMeterFlopThreshold = 1 << 15;
constexpr double kSpanFlopThreshold = 1 << 20;

/// Observability wrapper around one GEMM entry point. Disarmed cost: two
/// relaxed loads.
class GemmScope {
 public:
  GemmScope(const char* name, const char* backend_name, std::size_t m,
            std::size_t k, std::size_t n)
      : name_(name),
        backend_name_(backend_name),
        m_(m),
        k_(k),
        n_(n),
        flops_(2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n)) {
    if (metrics::armed()) {
      static metrics::Counter& calls = metrics::counter("gemm.calls");
      static metrics::Counter& flops = metrics::counter("gemm.flops");
      calls.add();
      flops.add(static_cast<std::uint64_t>(flops_));
    }
    // Clock only when someone can consume the timing: the histogram above
    // kMeterFlopThreshold (metrics armed), or a span above the larger
    // kSpanFlopThreshold (trace armed). Trace-only runs skip the clock on
    // the long tail of kernels too small to emit a span.
    metered_ = (metrics::armed() && flops_ >= kMeterFlopThreshold) ||
               (trace::armed() && flops_ >= kSpanFlopThreshold);
    if (metered_) start_ns_ = trace::now_ns();
  }
  ~GemmScope() {
    if (!metered_) return;
    const std::uint64_t end_ns = trace::now_ns();
    const double seconds = static_cast<double>(end_ns - start_ns_) / 1e9;
    const double gflops = seconds > 0.0 ? flops_ / seconds / 1e9 : 0.0;
    static metrics::Histogram& rate = metrics::histogram("gemm.gflops");
    rate.record(gflops);
    if (trace::armed() && flops_ >= kSpanFlopThreshold) {
      trace::RawEvent event;
      event.name = name_;
      event.cat = "gemm";
      event.start_ns = start_ns_;
      event.dur_ns = end_ns - start_ns_;
      event.num_args.emplace_back("m", static_cast<double>(m_));
      event.num_args.emplace_back("k", static_cast<double>(k_));
      event.num_args.emplace_back("n", static_cast<double>(n_));
      event.num_args.emplace_back("gflops", gflops);
      event.str_args.emplace_back("backend", backend_name_);
      trace::record(std::move(event));
    }
  }
  GemmScope(const GemmScope&) = delete;
  GemmScope& operator=(const GemmScope&) = delete;

 private:
  const char* name_;
  const char* backend_name_;
  std::size_t m_, k_, n_;
  double flops_;
  bool metered_ = false;
  std::uint64_t start_ns_ = 0;
};

// Rows of C per parallel grain; keeps pool-submission overhead negligible
// for the small matrices that dominate reduced-scale training. A multiple
// of backend::kMr, so row blocks never straddle a chunk boundary and the
// output is independent of the chunking.
constexpr std::size_t kRowGrain = 16;
static_assert(kRowGrain % backend::kMr == 0);

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Packed-panel buffer for B, sized for ceil(n / kNr) zero-padded panels.
float* alloc_packed(ScratchArena& arena, std::size_t k, std::size_t n) {
  return arena.alloc(ceil_div(n, backend::kNr) * backend::kNr * k);
}

/// Runs one row driver of the kernel table over all of C in parallel
/// chunks.
void run_parallel(void (*run)(const backend::GemmArgs&, std::size_t,
                              std::size_t),
                  const backend::GemmArgs& args) {
  parallel_for_chunks(
      0, args.m,
      [&](std::size_t lo, std::size_t hi) { run(args, lo, hi); }, kRowGrain);
}

}  // namespace

void gemm_packed(const float* a, const float* packed, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate,
                 const float* row_bias) {
  if (m == 0 || n == 0) return;
  const backend::ComputeBackend& active = backend::active();
  const GemmScope scope("gemm", active.name(), m, k, n);
  run_parallel(active.gemm_kernels().run_rows,
               {.a = a, .packed = packed, .c = c, .m = m, .k = k, .n = n,
                .accumulate = accumulate, .row_bias = row_bias});
}

void gemm_direct(const float* a, const float* b, const std::size_t* offsets,
                 float* c, std::size_t m, std::size_t k, std::size_t n,
                 const float* row_bias) {
  if (m == 0 || n == 0) return;
  const backend::ComputeBackend& active = backend::active();
  const GemmScope scope("gemm_direct", active.name(), m, k, n);
  run_parallel(active.gemm_kernels().run_rows_direct,
               {.a = a, .packed = b, .b_offsets = offsets, .c = c, .m = m,
                .k = k, .n = n, .row_bias = row_bias});
}

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate,
          const float* row_bias) {
  if (m == 0 || n == 0) return;
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Frame frame(arena);
  float* packed = alloc_packed(arena, k, n);
  backend::active().gemm_kernels().pack_b(b, k, n, packed);
  gemm_packed(a, packed, c, m, k, n, accumulate, row_bias);
}

void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate,
             const float* col_bias) {
  if (m == 0 || n == 0) return;
  const backend::ComputeBackend& active = backend::active();
  const backend::GemmKernels& kernels = active.gemm_kernels();
  const GemmScope scope("gemm_bt", active.name(), m, k, n);
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Frame frame(arena);
  float* packed = alloc_packed(arena, k, n);
  kernels.pack_bt(b, k, n, packed);
  run_parallel(kernels.run_rows,
               {.a = a, .packed = packed, .c = c, .m = m, .k = k, .n = n,
                .accumulate = accumulate, .col_bias = col_bias});
}

void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  const backend::ComputeBackend& active = backend::active();
  const backend::GemmKernels& kernels = active.gemm_kernels();
  const GemmScope scope("gemm_at", active.name(), m, k, n);
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Frame frame(arena);
  float* packed = alloc_packed(arena, k, n);
  kernels.pack_b(b, k, n, packed);
  run_parallel(kernels.run_rows_at,
               {.a = a, .packed = packed, .c = c, .m = m, .k = k, .n = n,
                .accumulate = accumulate});
}

}  // namespace safelight::nn
