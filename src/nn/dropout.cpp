#include "nn/dropout.hpp"

#include "common/error.hpp"

namespace safelight::nn {

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  require(p >= 0.0f && p < 1.0f, "Dropout: p must be in [0,1)");
}

Tensor Dropout::forward(Tensor x, bool train) {
  if (!train || p_ == 0.0f) {
    kept_.clear();
    return x;
  }
  cached_shape_ = x.shape();
  kept_.assign(x.numel(), true);
  const float scale = 1.0f / (1.0f - p_);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (rng_.bernoulli(p_)) {
      kept_[i] = false;
      x[i] = 0.0f;
    } else {
      x[i] *= scale;
    }
  }
  return x;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (kept_.empty()) return grad_out;  // p == 0 path
  require(grad_out.shape() == cached_shape_,
          "Dropout::backward: grad shape mismatch");
  Tensor grad_in = grad_out;
  const float scale = 1.0f / (1.0f - p_);
  for (std::size_t i = 0; i < grad_in.numel(); ++i) {
    grad_in[i] = kept_[i] ? grad_in[i] * scale : 0.0f;
  }
  return grad_in;
}

std::string Dropout::name() const {
  return "Dropout(p=" + std::to_string(p_) + ")";
}

}  // namespace safelight::nn
