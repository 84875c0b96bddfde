// Allocation guard for the per-scenario hot path. This binary replaces the
// global operator new with a counting one, so a passing precondition check
// or one MR-bank pass can be shown to allocate nothing beyond its results.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/tensor.hpp"
#include "photonics/constants.hpp"
#include "photonics/microring.hpp"
#include "photonics/mr_bank.hpp"
#include "photonics/wdm.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace safelight {
namespace {

/// Counts the operator-new calls made while it is alive.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  ~AllocationCounter() { g_counting.store(false); }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  std::size_t count() const { return g_allocations.load(); }
};

TEST(AllocationGuard, PassingRequireWithLiteralAllocatesNothing) {
  volatile bool ok = true;  // keeps the check from folding away
  const AllocationCounter counter;
  require(ok, "a precondition message well past the small-string buffer");
  EXPECT_EQ(counter.count(), 0u);
}

TEST(AllocationGuard, ShapeChecksAllocateOnlyTheirResults) {
  Rng rng(1);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  nn::Linear linear(16, 4, rng);
  const nn::Shape conv_in{2, 3, 8, 8};
  const nn::Shape linear_in{2, 16};
  nn::Tensor t({2, 3, 4, 4});

  std::size_t tensor_allocs = 0, reshape_allocs = 0, conv_allocs = 0,
              linear_allocs = 0;
  {
    const AllocationCounter counter;
    const nn::Tensor made(nn::Shape{2, 3, 4, 4});
    tensor_allocs = counter.count();
  }
  {
    const AllocationCounter counter;
    t.reshape_inplace({2, 48});
    reshape_allocs = counter.count();
  }
  {
    const AllocationCounter counter;
    (void)conv.output_shape(conv_in);
    conv_allocs = counter.count();
  }
  {
    const AllocationCounter counter;
    (void)linear.output_shape(linear_in);
    linear_allocs = counter.count();
  }
  EXPECT_EQ(tensor_allocs, 2u);  // the shape and the data
  EXPECT_EQ(reshape_allocs, 1u);  // the new shape
  EXPECT_EQ(conv_allocs, 1u);     // the returned shape
  EXPECT_EQ(linear_allocs, 1u);   // the returned shape
}

/// Allocations of one set_weights + per-ring set_temperature_delta +
/// effective_weights pass on a warmed bank.
std::size_t bank_pass_allocations(std::size_t rings, double q) {
  phot::MrGeometry g;
  g.q_factor = q;
  const phot::Microring reference(g, 1550.0);
  phot::MrBank bank(g, phot::WdmGrid(rings, 1550.0, reference.fsr_nm()));
  std::vector<double> weights(rings);
  for (std::size_t i = 0; i < rings; ++i) {
    weights[i] = (i % 2 == 0 ? 0.5 : -0.25) + 0.001 * static_cast<double>(i);
  }
  const auto pass = [&] {
    bank.set_weights(weights);
    for (std::size_t i = 0; i < rings; ++i) {
      bank.set_temperature_delta(i, 12.0);
    }
    return bank.effective_weights();
  };
  (void)pass();  // warm
  const AllocationCounter counter;
  const std::vector<double> effective = pass();
  return counter.count();
}

TEST(AllocationGuard, MrBankPassDoesNotGrowWithRingCount) {
  const std::size_t conv = bank_pass_allocations(20, phot::kDefaultQ);
  const std::size_t fc = bank_pass_allocations(150, phot::kHighQ);
  EXPECT_EQ(conv, fc);
  EXPECT_EQ(fc, 1u);  // the returned effective-weight vector
}

}  // namespace
}  // namespace safelight
