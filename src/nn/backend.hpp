// Pluggable compute-backend registry with runtime kernel dispatch.
//
// The packed GEMM kernel used to be one translation unit compiled with
// -march=native: a binary built on an AVX-512 host SIGILLed on an older
// fleet node, the exact wrong model for heterogeneous deployments (and a
// latent trap for SAFELIGHT_DIST_BIN, which lets a coordinator exec a
// worker binary built elsewhere). Instead, the kernel body now compiles
// into several variants of ONE fat binary — scalar (baseline ISA only),
// AVX2 and AVX-512, each a separate translation unit with per-source
// COMPILE_OPTIONS (src/CMakeLists.txt) — and this registry probes the CPU
// at runtime (__builtin_cpu_supports) to pick the best variant the host
// can actually execute.
//
// Selection: --backend / SAFELIGHT_BACKEND through the standard config
// precedence (CLI flag > env > default "auto"); "auto" takes the highest-
// priority supported variant. The choice is reported through [metrics]
// (counter backend.selected.<name>) and trace metadata by announce().
//
// Numerics contract: every variant reduces each output element over k in
// ascending order through a single accumulator with FP contraction off, so
// all variants — and gemm_ref — are bitwise-identical on every input.
// Backend choice can therefore never change a CSV byte; it only changes
// speed. tests/gemm_equivalence_test.cpp enforces this per compiled-in
// variant, and kernel_fingerprint() turns it into a handshake: a worker
// whose probe-GEMM fingerprint differs from the coordinator's is running
// genuinely different numerics and is rejected (dist/coordinator.cpp).
//
// ComputeBackend owns only the GEMM kernel table. Convolution reaches it
// two ways: stride-1 layers with wide output rows through run_rows_direct,
// which reads B's rows straight from a zero-padded image at per-layer
// offsets (no panels are written), and every other layer through
// gemm_packed over panels im2col_pack builds from the NCHW input. Both are
// the one micro-kernel body with a different B fetch, so conv's per-variant
// code is that fetch; other kernels (quantize, remote/GPU backends) would
// slot in beside the table without touching call sites.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace safelight::nn::backend {

// Register tile shared by the dispatcher (packed-buffer sizing) and every
// kernel variant: kMr rows x kNr columns of C accumulated in registers
// (kNr floats = 2 x 512-bit or 4 x 256-bit vectors per row). Larger tiles
// spill; smaller ones leave FLOPs on the table.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 32;

/// Argument block for one GEMM: the dispatcher (nn/gemm.cpp) owns packing
/// allocation and row parallelism; variants only compute over raw pointers.
struct GemmArgs {
  const float* a = nullptr;       // row-major [m x k], or [k x m] for *_at
  const float* packed = nullptr;  // B packed into kNr-wide panels, or the
                                  // unpacked B of run_rows_direct
  const std::size_t* b_offsets = nullptr;  // run_rows_direct: B row p
                                           // starts at packed + b_offsets[p]
  float* c = nullptr;             // row-major [m x n]
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t n = 0;
  bool accumulate = false;
  const float* row_bias = nullptr;  // added per output row (Conv2d epilogue)
  const float* col_bias = nullptr;  // added per output column (Linear)
};

/// Per-variant kernel table. Plain function pointers on purpose: the
/// variant translation units are compiled with ISA flags the host may not
/// support, so nothing in them may be reachable except through this table
/// after the runtime probe said yes (an inline symbol shared with baseline
/// code could be COMDAT-picked from the wrong TU and SIGILL).
struct GemmKernels {
  /// Packs row-major B[k x n] into kNr-wide zero-padded column panels.
  void (*pack_b)(const float* b, std::size_t k, std::size_t n, float* packed);
  /// Same panels from B^T input, where B is stored [n x k] row-major.
  void (*pack_bt)(const float* b, std::size_t k, std::size_t n, float* packed);
  /// C rows [lo, hi) from row-major A; the dispatcher parallelizes over
  /// disjoint row ranges, so results are independent of the chunking.
  void (*run_rows)(const GemmArgs& args, std::size_t lo, std::size_t hi);
  /// Same, fetching A transposed (A stored [k x m], read a[p*m + i]).
  void (*run_rows_at)(const GemmArgs& args, std::size_t lo, std::size_t hi);
  /// run_rows over an unpacked B: element (p, j) is packed[b_offsets[p] + j].
  /// Each row is read in whole kNr-wide panels, so it needs
  /// ceil(n / kNr) * kNr readable floats; lanes past n are never stored.
  void (*run_rows_direct)(const GemmArgs& args, std::size_t lo,
                          std::size_t hi);
};

/// One compute substrate the dispatcher can route kernels through.
class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;
  /// Stable lowercase identifier ("scalar", "avx2", "avx512"): the value
  /// of --backend / SAFELIGHT_BACKEND, and the tail of the
  /// backend.selected.<name> metric.
  virtual const char* name() const = 0;
  /// Auto-selection rank; "auto" picks the highest-priority supported
  /// variant.
  virtual int priority() const = 0;
  /// Runtime CPU-feature probe. Must be true before any kernel in the
  /// table is called — this is the check that fixes the SIGILL bug.
  virtual bool supported() const = 0;
  virtual const GemmKernels& gemm_kernels() const = 0;
};

/// Every variant compiled into this binary (host support varies), sorted
/// by descending priority. Always contains at least "scalar".
const std::vector<const ComputeBackend*>& registered();

/// Comma-separated names of registered() — for error messages and docs.
std::string registered_names();

/// Resolves a backend name: "" or "auto" picks the best supported variant;
/// a concrete name must be both compiled in and supported by this CPU.
/// Throws std::invalid_argument (exit 2 through the CLI) listing the
/// variants otherwise.
const ComputeBackend& resolve(const std::string& name);

/// The process-wide backend: resolve(config::backend()) on first use, then
/// cached (relaxed atomic — gemm runs on pool threads). A ScopedBackend
/// force takes precedence.
const ComputeBackend& active();

/// Drops the cached active() resolution so the next call re-reads config.
/// The CLI calls this after installing flag overrides; tests after
/// mutating SAFELIGHT_BACKEND.
void invalidate_cache();

/// RAII force for tests and the fingerprint probe: active() returns
/// `backend` until destruction, ignoring config. Nests.
class ScopedBackend {
 public:
  explicit ScopedBackend(const ComputeBackend& backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const ComputeBackend* previous_;
};

/// Digest of the kernel *numerics*: a deterministic probe problem (shapes
/// covering the unroll tail, partial row blocks and partial panels, both
/// epilogues, all four entry points) run through `backend`, output bytes
/// hashed. Identical across hosts and across conforming variants — the
/// contract above — so a mismatch means genuinely different math, which is
/// what the distributed handshake must refuse to merge.
std::string kernel_fingerprint(const ComputeBackend& backend);

/// kernel_fingerprint(active()).
std::string kernel_fingerprint();

/// Reports the active backend: backend.selected.<name> counter when
/// metrics are armed, an instant trace event with the name and kernel
/// fingerprint when tracing is armed, a log line when `verbose`. The CLI
/// calls this once per run after arming telemetry.
void announce(bool verbose);

namespace detail {
/// Per-variant kernel tables, defined one per translation unit
/// (backend_scalar.cpp / backend_avx2.cpp / backend_avx512.cpp). A variant
/// that is not compiled into this binary returns nullptr and is simply
/// absent from registered().
const GemmKernels* scalar_kernels();
const GemmKernels* avx2_kernels();
const GemmKernels* avx512_kernels();
}  // namespace detail

}  // namespace safelight::nn::backend
