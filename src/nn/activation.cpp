#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace safelight::nn {

void relu_inplace(Tensor& x, std::vector<bool>* mask) {
  float* v = x.data();
  const std::size_t n = x.numel();
  if (mask == nullptr) {
    for (std::size_t i = 0; i < n; ++i) v[i] = v[i] > 0.0f ? v[i] : 0.0f;
    return;
  }
  mask->assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] > 0.0f) {
      (*mask)[i] = true;
    } else {
      v[i] = 0.0f;
    }
  }
}

Tensor ReLU::forward(Tensor x, bool train) {
  if (train) cached_shape_ = x.shape();
  relu_inplace(x, train ? &mask_ : nullptr);
  return x;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  require(!mask_.empty(), "ReLU::backward called without forward(train=true)");
  require(grad_out.shape() == cached_shape_,
          "ReLU::backward: grad shape mismatch");
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.numel(); ++i) {
    if (!mask_[i]) grad_in[i] = 0.0f;
  }
  return grad_in;
}

Tensor softmax2d(const Tensor& logits) {
  require(logits.rank() == 2, "softmax2d: expected [N,C]");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  Tensor out(logits.shape());
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    float* orow = out.data() + n * classes;
    const float mx = *std::max_element(row, row + classes);
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      orow[c] = std::exp(row[c] - mx);
      denom += orow[c];
    }
    for (std::size_t c = 0; c < classes; ++c) {
      orow[c] = static_cast<float>(orow[c] / denom);
    }
  }
  return out;
}

}  // namespace safelight::nn
