// Golden-equivalence tests: the packed, register-tiled kernels in nn/gemm.hpp
// must reproduce the naive reference kernels in nn/gemm_ref.hpp bit for bit
// (same ascending-k single-accumulator reduction per output element, no FMA
// contraction), across random shapes, edge shapes and both epilogues — and
// per compute-backend variant: every variant compiled into this binary that
// the host CPU supports is forced in turn and held to the same byte-identity
// contract, so runtime dispatch can never change a result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "nn/backend.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_ref.hpp"

namespace safelight::nn {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

/// Bitwise comparison: EXPECT_EQ on floats would treat -0.0f == 0.0f and
/// NaN != NaN; the contract here is byte identity.
void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << label << ": outputs differ bitwise";
}

struct GemmCase {
  std::size_t m, k, n;
  bool accumulate;
  bool bias;
};

const GemmCase kCases[] = {
    {1, 1, 1, false, false},   {1, 1, 1, true, true},
    {1, 7, 1, false, true},    {3, 1, 5, false, false},
    {4, 32, 32, false, true},  {5, 33, 31, true, false},
    {8, 64, 64, false, false}, {13, 17, 19, true, true},
    {16, 100, 40, false, true}, {37, 5, 129, true, true},
    {64, 64, 64, false, false},
};

std::string case_label(const char* op, const GemmCase& c,
                       const std::string& variant) {
  return std::string(op) + " [" + variant + "] m=" + std::to_string(c.m) +
         " k=" + std::to_string(c.k) + " n=" + std::to_string(c.n);
}

void check_gemm_cases(const std::string& variant) {
  Rng rng(101);
  for (const auto& c : kCases) {
    const auto a = random_vec(c.m * c.k, rng);
    const auto b = random_vec(c.k * c.n, rng);
    const auto bias = random_vec(c.m, rng);
    auto got = random_vec(c.m * c.n, rng);  // accumulate needs prior content
    auto want = got;
    gemm(a.data(), b.data(), got.data(), c.m, c.k, c.n, c.accumulate,
         c.bias ? bias.data() : nullptr);
    gemm_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n, c.accumulate,
             c.bias ? bias.data() : nullptr);
    expect_bitwise_equal(got, want, case_label("gemm", c, variant));
  }
}

void check_gemm_bt_cases(const std::string& variant) {
  Rng rng(102);
  for (const auto& c : kCases) {
    const auto a = random_vec(c.m * c.k, rng);
    const auto b = random_vec(c.n * c.k, rng);
    const auto bias = random_vec(c.n, rng);
    auto got = random_vec(c.m * c.n, rng);
    auto want = got;
    gemm_bt(a.data(), b.data(), got.data(), c.m, c.k, c.n, c.accumulate,
            c.bias ? bias.data() : nullptr);
    gemm_bt_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n, c.accumulate,
                c.bias ? bias.data() : nullptr);
    expect_bitwise_equal(got, want, case_label("gemm_bt", c, variant));
  }
}

void check_gemm_at_cases(const std::string& variant) {
  Rng rng(103);
  for (const auto& c : kCases) {
    const auto a = random_vec(c.k * c.m, rng);
    const auto b = random_vec(c.k * c.n, rng);
    auto got = random_vec(c.m * c.n, rng);
    auto want = got;
    gemm_at(a.data(), b.data(), got.data(), c.m, c.k, c.n, c.accumulate);
    gemm_at_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n, c.accumulate);
    expect_bitwise_equal(got, want, case_label("gemm_at", c, variant));
  }
}

/// gemm_direct over rows of one buffer at scattered, overlapping offsets
/// (each row readable in whole panels) against gemm_ref over the same rows
/// copied out. The buffer's tail past the farthest row's n columns is random,
/// so a lane past n that reached C would show.
void check_gemm_direct_cases(const std::string& variant) {
  Rng rng(104);
  for (const auto& c : kCases) {
    const std::size_t panel_cols =
        (c.n + backend::kNr - 1) / backend::kNr * backend::kNr;
    std::vector<std::size_t> offsets(c.k);
    std::size_t farthest = 0;
    for (std::size_t p = 0; p < c.k; ++p) {
      offsets[p] = (p * 5 % c.k) * (c.n / 2 + 1);
      farthest = std::max(farthest, offsets[p]);
    }
    const auto rows = random_vec(farthest + panel_cols, rng);
    std::vector<float> b(c.k * c.n);
    for (std::size_t p = 0; p < c.k; ++p) {
      std::memcpy(b.data() + p * c.n, rows.data() + offsets[p],
                  c.n * sizeof(float));
    }
    const auto a = random_vec(c.m * c.k, rng);
    const auto bias = random_vec(c.m, rng);
    auto got = random_vec(c.m * c.n, rng);
    auto want = got;
    gemm_direct(a.data(), rows.data(), offsets.data(), got.data(), c.m, c.k,
                c.n, c.bias ? bias.data() : nullptr);
    gemm_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n,
             /*accumulate=*/false, c.bias ? bias.data() : nullptr);
    expect_bitwise_equal(got, want, case_label("gemm_direct", c, variant));
  }
}

TEST(GemmEquivalence, GemmMatchesReferenceBitwise) {
  check_gemm_cases("auto");
}

TEST(GemmEquivalence, GemmBtMatchesReferenceBitwise) {
  check_gemm_bt_cases("auto");
}

TEST(GemmEquivalence, GemmAtMatchesReferenceBitwise) {
  check_gemm_at_cases("auto");
}

TEST(GemmEquivalence, EveryCompiledVariantMatchesReferenceBitwise) {
  // The backend matrix: force each registered variant the host supports and
  // hold it to byte identity with gemm_ref across the full case table. An
  // unsupported variant (e.g. AVX-512 compiled in, run on an AVX2 host) is
  // skipped but logged — the scalar baseline is always exercised.
  std::size_t checked = 0;
  for (const backend::ComputeBackend* variant : backend::registered()) {
    if (!variant->supported()) {
      GTEST_LOG_(INFO) << "variant " << variant->name()
                       << " compiled in but not supported on this CPU";
      continue;
    }
    backend::ScopedBackend forced(*variant);
    check_gemm_cases(variant->name());
    check_gemm_bt_cases(variant->name());
    check_gemm_at_cases(variant->name());
    check_gemm_direct_cases(variant->name());
    ++checked;
  }
  EXPECT_GE(checked, 1u);  // scalar at minimum
}

TEST(GemmEquivalence, ZeroMatricesProduceZeros) {
  const std::size_t m = 6, k = 9, n = 20;
  const std::vector<float> a(m * k, 0.0f), b(k * n, 0.0f);
  std::vector<float> c(m * n, 123.0f);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (float v : c) EXPECT_EQ(v, 0.0f);
  // accumulate=true must leave prior contents intact.
  std::vector<float> acc(m * n, 0.5f);
  gemm(a.data(), b.data(), acc.data(), m, k, n, /*accumulate=*/true);
  for (float v : acc) EXPECT_EQ(v, 0.5f);
}

TEST(GemmEquivalence, EmptyDimensionsAreNoops) {
  std::vector<float> c(4, 7.0f);
  const std::vector<float> a(8, 1.0f), b(8, 1.0f);
  gemm(a.data(), b.data(), c.data(), 0, 2, 2);
  gemm_bt(a.data(), b.data(), c.data(), 2, 2, 0);
  for (float v : c) EXPECT_EQ(v, 7.0f);
}

TEST(GemmEquivalence, FusedBiasMatchesSeparateBiasPass) {
  Rng rng(104);
  const std::size_t m = 9, k = 21, n = 33;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto bias = random_vec(m, rng);
  std::vector<float> fused(m * n), separate(m * n);
  gemm(a.data(), b.data(), fused.data(), m, k, n, false, bias.data());
  gemm(a.data(), b.data(), separate.data(), m, k, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) separate[i * n + j] += bias[i];
  }
  expect_bitwise_equal(fused, separate, "fused row bias");
}

// ---------------------------------------------------------------- scratch

TEST(ScratchArena, FramesReleaseAndReuse) {
  ScratchArena arena;
  float* first = nullptr;
  {
    const ScratchArena::Frame frame(arena);
    first = arena.alloc(100);
    first[0] = 1.0f;
    first[99] = 2.0f;
  }
  const std::size_t grown = arena.capacity();
  {
    const ScratchArena::Frame frame(arena);
    float* again = arena.alloc(100);
    EXPECT_EQ(again, first);  // same storage reused after the frame closed
  }
  EXPECT_EQ(arena.capacity(), grown);  // no further growth
}

TEST(ScratchArena, PointersStayValidAcrossGrowth) {
  ScratchArena arena;
  const ScratchArena::Frame frame(arena);
  float* small = arena.alloc(16);
  small[0] = 42.0f;
  // Force new blocks: earlier allocations must remain intact.
  for (int i = 0; i < 8; ++i) {
    float* big = arena.alloc(1u << 16);
    big[0] = static_cast<float>(i);
  }
  EXPECT_EQ(small[0], 42.0f);
}

TEST(ScratchArena, ZeroedAllocationIsZero) {
  ScratchArena arena;
  {
    const ScratchArena::Frame frame(arena);
    float* dirty = arena.alloc(64);
    for (std::size_t i = 0; i < 64; ++i) dirty[i] = 9.0f;
  }
  // The same storage is re-issued dirty by alloc, zeroed by alloc_zeroed.
  const ScratchArena::Frame frame(arena);
  float* zeroed = arena.alloc_zeroed(64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(zeroed[i], 0.0f);
}

}  // namespace
}  // namespace safelight::nn
