// Conv2d forward lowering: the direct path and the batched, column-blocked
// packed GEMM must reproduce the per-image lowering (im2col + gemm_ref +
// bias) bit for bit, for every compiled-in compute backend and with the
// images or column blocks run both across the pool and serially. The suite
// runs with SAFELIGHT_THREADS=4 (set in tests/CMakeLists.txt); the serial
// runs call forward from inside a pool chunk, where nested parallel loops
// run on the calling thread exactly as they do with SAFELIGHT_THREADS=1.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/backend.hpp"
#include "nn/conv.hpp"
#include "nn/gemm_ref.hpp"
#include "nn/im2col.hpp"

namespace safelight::nn {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kBatches[] = {1, 3, 64};

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

ConvGeom geom_of(const Conv2d& conv, const Shape& in) {
  ConvGeom g;
  g.in_c = in[1];
  g.in_h = in[2];
  g.in_w = in[3];
  g.k_h = g.k_w = conv.kernel();
  g.stride = conv.stride();
  g.pad = conv.pad();
  return g;
}

/// The per-image lowering: one im2col and one reference GEMM (bias fused
/// last, as the kernels do) per image.
Tensor reference_forward(Conv2d& conv, const Tensor& x) {
  const ConvGeom g = geom_of(conv, x.shape());
  const std::size_t batch = x.dim(0);
  const std::size_t out_c = conv.out_channels();
  const std::size_t hw = g.out_hw();
  Tensor out({batch, out_c, g.out_h(), g.out_w()});
  std::vector<float> cols(g.patch_len() * hw);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(x.data() + n * g.in_c * g.in_h * g.in_w, g, cols.data());
    gemm_ref(conv.weight().value.data(), cols.data(),
             out.data() + n * out_c * hw, out_c, g.patch_len(), hw,
             /*accumulate=*/false,
             conv.has_bias() ? conv.bias().value.data() : nullptr);
  }
  return out;
}

/// forward() called from inside a pool chunk: every parallel loop under it
/// is nested and runs serially, the single-thread schedule.
Tensor serial_forward(Conv2d& conv, const Tensor& x) {
  Tensor out;
  parallel_for(0, 2, [&](std::size_t i) {
    if (i == 0) out = conv.forward(x, /*train=*/false);
  });
  return out;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)),
            0)
      << label << ": outputs differ bitwise";
}

struct ConvCase {
  const char* what;
  std::size_t in_c, out_c, kernel, stride, pad, in_hw;
  bool bias;
};

// Output maps of 81, 64, 576, 16, 4 and 1 pixels, none a multiple of the
// 32-column panel. Stride-2 layers and output rows under 8 pixels take the
// packed path: patches of 27 to 1152 rows give column blocks from 1184 down
// to 32 columns, so at batch 3 and 64 blocks straddle images. Stride-1
// layers with rows of 8 or more take the direct path; the "direct" cases
// cover pad 0/1/2, kernels 3 and 5, output rows just below, at and above
// the threshold, per-image column counts (rows * padded width, last row
// trimmed) that leave a partial last panel, and out_c that kMr does not
// divide.
const ConvCase kConvCases[] = {
    {"stride 2 pad 1, wide rows", 3, 8, 3, 2, 1, 17, true},
    {"stride 1 pad 1, hw 64", 8, 8, 3, 1, 1, 8, true},
    {"5x5 no pad, hw 576", 1, 6, 5, 1, 0, 28, true},
    {"stride 2 pad 1, narrow rows", 16, 8, 3, 2, 1, 7, true},
    {"hw 4", 16, 8, 3, 1, 1, 2, true},
    {"hw 1, no bias", 128, 4, 3, 1, 1, 1, false},
    {"deep 64->64, no bias", 64, 64, 3, 1, 1, 4, false},
    {"direct 5x5 pad 2, out_w 12, out_c 5", 3, 5, 5, 1, 2, 12, true},
    {"packed, out_w 7 just below the threshold", 4, 6, 3, 1, 1, 7, true},
    {"direct 5x5 pad 2, out_w 8, no bias", 2, 7, 5, 1, 2, 8, false},
    {"direct no pad, out_w 9 just above", 5, 3, 3, 1, 0, 11, true},
    {"direct 16->32, 16x16", 16, 32, 3, 1, 1, 16, true},
};

TEST(Conv2d, RunsWithFourWorkers) {
  ASSERT_GE(worker_count(), kWorkers)
      << "the suite expects SAFELIGHT_THREADS=4";
}

TEST(Conv2d, ForwardMatchesPerImageReferenceBitwise) {
  std::size_t variants = 0;
  for (const backend::ComputeBackend* variant : backend::registered()) {
    if (!variant->supported()) continue;
    ++variants;
    const backend::ScopedBackend forced(*variant);
    for (const ConvCase& c : kConvCases) {
      Rng rng(7);
      Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng, c.bias);
      if (c.bias) conv.bias().value = random_tensor({c.out_c}, rng);
      for (const std::size_t batch : kBatches) {
        const Tensor x = random_tensor({batch, c.in_c, c.in_hw, c.in_hw}, rng);
        const Tensor want = reference_forward(conv, x);
        const std::string label = std::string(variant->name()) + " " +
                                  c.what + " batch " + std::to_string(batch);
        expect_bitwise_equal(conv.forward(x, /*train=*/false), want,
                             label + " (pool)");
        expect_bitwise_equal(serial_forward(conv, x), want,
                             label + " (serial)");
      }
    }
  }
  EXPECT_GE(variants, 1u);
}

/// Packs blocks of the batch's patch matrix with im2col_pack and with
/// pack_b over the same columns of im2col's output; the bytes must match.
void check_pack_matches(const ConvGeom& g) {
  constexpr std::size_t kBatch = 3;
  const std::size_t patch = g.patch_len();
  const std::size_t hw = g.out_hw();
  const std::size_t columns = kBatch * hw;
  Rng rng(11);
  const Tensor x = random_tensor({kBatch, g.in_c, g.in_h, g.in_w}, rng);

  // The batch's patch matrix [patch x kBatch*hw], image n's columns at n*hw.
  std::vector<float> matrix(patch * columns);
  std::vector<float> cols(patch * hw);
  for (std::size_t n = 0; n < kBatch; ++n) {
    im2col(x.data() + n * g.in_c * g.in_h * g.in_w, g, cols.data());
    for (std::size_t p = 0; p < patch; ++p) {
      std::memcpy(matrix.data() + p * columns + n * hw, cols.data() + p * hw,
                  hw * sizeof(float));
    }
  }

  const auto& kernels = backend::active().gemm_kernels();
  // Blocks starting mid-image (and one on an image boundary), spanning one
  // to three images, with full and partial final panels.
  const std::size_t blocks[][2] = {
      {5, 37}, {7, 32}, {hw, 5}, {1, columns - 2}};
  for (const auto& block : blocks) {
    const std::size_t col0 = block[0], width = block[1];
    std::vector<float> sub(patch * width);
    for (std::size_t p = 0; p < patch; ++p) {
      std::memcpy(sub.data() + p * width, matrix.data() + p * columns + col0,
                  width * sizeof(float));
    }
    const std::size_t packed_floats =
        (width + backend::kNr - 1) / backend::kNr * backend::kNr * patch;
    // Different fill values, so untouched bytes cannot compare equal.
    std::vector<float> want(packed_floats, 1.0f);
    std::vector<float> got(packed_floats, -1.0f);
    kernels.pack_b(sub.data(), patch, width, want.data());
    im2col_pack(x.data(), g, col0, width, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          packed_floats * sizeof(float)),
              0)
        << "out " << g.out_h() << "x" << g.out_w() << " block col0=" << col0
        << " cols=" << width;
  }
}

TEST(Conv2d, PackFromInputMatchesPackedIm2colMidImage) {
  ConvGeom g;
  g.in_c = 2;
  g.k_h = g.k_w = 3;
  g.stride = 2;
  g.pad = 1;
  g.in_h = g.in_w = 7;  // 4x4 output
  check_pack_matches(g);
  g.in_h = g.in_w = 18;  // 9x9 output
  check_pack_matches(g);
  g.stride = 1;
  g.pad = 0;
  g.in_h = g.in_w = 10;  // 8x8 output, no padding
  check_pack_matches(g);
}

}  // namespace
}  // namespace safelight::nn
