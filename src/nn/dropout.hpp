// Inverted dropout (train-time scaling, identity at inference).
#pragma once

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace safelight::nn {

class Dropout final : public Layer {
 public:
  /// p is the drop probability; seed makes the layer deterministic.
  Dropout(float p, std::uint64_t seed);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  float p_;
  Rng rng_;
  std::vector<bool> kept_;
  Shape cached_shape_;
};

}  // namespace safelight::nn
