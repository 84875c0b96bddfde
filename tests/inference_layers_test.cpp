// Inference-path layer tests: the in-place, branchless forwards must give
// exactly the bytes of the branchy, out-of-place code they replace — on
// signed zeros, NaNs, ties and all-negative windows too — and a moved-in
// activation must keep its storage through the elementwise layers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/pool.hpp"
#include "nn/tensor.hpp"

namespace safelight::nn {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// ReLU as a branch: keep v when v > 0, else write +0.0.
Tensor branchy_relu(const Tensor& x) {
  Tensor out = x;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (!(out[i] > 0.0f)) out[i] = 0.0f;
  }
  return out;
}

/// Non-overlapping max pool as a branch: the window's first element, then
/// each later element that compares strictly greater.
Tensor branchy_max_pool(const Tensor& x, std::size_t window) {
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t in_h = x.dim(2), in_w = x.dim(3);
  const std::size_t out_h = in_h / window, out_w = in_w / window;
  Tensor out({x.dim(0), x.dim(1), out_h, out_w});
  std::size_t oi = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = x.data() + p * in_h * in_w;
    for (std::size_t oh = 0; oh < out_h; ++oh) {
      for (std::size_t ow = 0; ow < out_w; ++ow, ++oi) {
        float best = plane[oh * window * in_w + ow * window];
        for (std::size_t dy = 0; dy < window; ++dy) {
          for (std::size_t dx = 0; dx < window; ++dx) {
            const float v = plane[(oh * window + dy) * in_w + ow * window + dx];
            if (v > best) best = v;
          }
        }
        out[oi] = best;
      }
    }
  }
  return out;
}

TEST(InferenceLayers, ReluMatchesBranchySemanticsBitwise) {
  const Tensor x({2, 6}, {-0.0f, 0.0f, kNaN, -kNaN, -1.5f, 2.5f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(), kInf,
                          -kInf, 1e-30f, -1e30f});
  const Tensor want = branchy_relu(x);
  ReLU relu;
  EXPECT_TRUE(same_bytes(relu.forward(x, /*train=*/false), want));
  EXPECT_TRUE(same_bytes(relu.forward(x, /*train=*/true), want));
  // -0.0 and NaN both come out as +0.0.
  const Tensor out = relu.forward(x, /*train=*/false);
  EXPECT_FALSE(std::signbit(out[0]));
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_FALSE(std::signbit(out[3]));
}

TEST(InferenceLayers, MaxPoolMatchesBranchySemanticsBitwise) {
  // One 4x4 plane of 2x2 windows: -0.0 before +0.0 (the tie keeps the
  // first), NaN first (sticks), NaN later (ignored), all negative.
  const Tensor edge({1, 1, 4, 4}, {-0.0f, 0.0f, kNaN, 1.0f,    //
                                   0.0f, 0.0f, 2.0f, 3.0f,     //
                                   -3.0f, -2.0f, 5.0f, kNaN,   //
                                   -4.0f, -2.0f, 5.0f, -kInf});
  Rng rng(5);
  Tensor random({2, 3, 6, 6});
  for (std::size_t i = 0; i < random.numel(); ++i) {
    random[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  random[7] = kNaN;
  random[40] = -0.0f;
  for (const Tensor* x : std::vector<const Tensor*>{&edge, &random}) {
    for (std::size_t window : {std::size_t{2}, std::size_t{3}}) {
      if (x->dim(2) % window != 0) continue;
      const Tensor want = branchy_max_pool(*x, window);
      MaxPool2d pool(window);
      EXPECT_TRUE(same_bytes(pool.forward(*x, /*train=*/false), want))
          << "window " << window;
      EXPECT_TRUE(same_bytes(pool.forward(*x, /*train=*/true), want))
          << "window " << window;
    }
  }
  // Odd planes: the floor drops the last row and column.
  Tensor odd({2, 2, 5, 7});
  for (std::size_t i = 0; i < odd.numel(); ++i) {
    odd[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  odd[6] = 9.0f;   // last column of row 0: dropped
  odd[30] = 9.0f;  // first element of row 4: dropped
  odd[17] = kNaN;
  const Tensor odd_want = branchy_max_pool(odd, 2);
  EXPECT_TRUE(same_bytes(MaxPool2d(2).forward(odd, /*train=*/false), odd_want));
  EXPECT_TRUE(same_bytes(MaxPool2d(2).forward(odd, /*train=*/true), odd_want));
  const Tensor out = MaxPool2d(2).forward(edge, /*train=*/false);
  EXPECT_TRUE(std::signbit(out[0]));  // the first of the tied zeros
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_EQ(out[2], -2.0f);
  EXPECT_EQ(out[3], 5.0f);
}

TEST(InferenceLayers, BatchNormInPlaceMatchesOutOfPlaceBitwise) {
  constexpr std::size_t kChannels = 3;
  constexpr float kEps = 1e-5f;
  BatchNorm2d bn(kChannels, 0.1f, kEps);
  Rng rng(11);
  for (std::size_t c = 0; c < kChannels; ++c) {
    bn.mutable_running_mean()[c] = static_cast<float>(rng.uniform(-1.0, 1.0));
    bn.mutable_running_var()[c] = static_cast<float>(rng.uniform(0.1, 2.0));
    bn.params()[0]->value[c] = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.params()[1]->value[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  Tensor x({2, kChannels, 3, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-3.0, 3.0));
  }
  x[0] = -0.0f;
  x[5] = kNaN;

  Tensor want(x.shape());
  const std::size_t hw = 12;
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      const float inv_std =
          1.0f / std::sqrt(bn.running_var()[c] + kEps);
      const float mean = bn.running_mean()[c];
      const float g = bn.params()[0]->value[c];
      const float b = bn.params()[1]->value[c];
      for (std::size_t i = 0; i < hw; ++i) {
        const std::size_t at = (n * kChannels + c) * hw + i;
        want[at] = (x[at] - mean) * inv_std * g + b;
      }
    }
  }
  EXPECT_TRUE(same_bytes(bn.forward(x, /*train=*/false), want));
}

TEST(InferenceLayers, MovedInputStorageSurvivesElementwiseLayers) {
  Rng rng(3);
  Tensor x({2, 4, 3, 3});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const float* storage = x.data();

  ReLU relu;
  x = relu.forward(std::move(x), /*train=*/false);
  EXPECT_EQ(x.data(), storage) << "ReLU";

  BatchNorm2d bn(4);
  x = bn.forward(std::move(x), /*train=*/false);
  EXPECT_EQ(x.data(), storage) << "BatchNorm2d";

  Dropout dropout(0.5f, 9);
  x = dropout.forward(std::move(x), /*train=*/false);
  EXPECT_EQ(x.data(), storage) << "Dropout";

  Flatten flatten;
  x = flatten.forward(std::move(x), /*train=*/false);
  EXPECT_EQ(x.data(), storage) << "Flatten";
  EXPECT_EQ(x.shape(), (Shape{2, 36}));
}

}  // namespace
}  // namespace safelight::nn
