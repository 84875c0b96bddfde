#include "nn/linear.hpp"

#include <utility>

#include "common/error.hpp"
#include "nn/gemm.hpp"

namespace safelight::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  require(in_ > 0 && out_ > 0, "Linear: feature counts must be positive");
  weight_ = Param("linear.weight", ParamKind::kLinearWeight,
                  Tensor({out_, in_}));
  kaiming_init(weight_.value, in_, rng);
  if (has_bias_) {
    bias_ = Param("linear.bias", ParamKind::kElectronic, Tensor({out_}));
  }
}

Shape Linear::output_shape(const Shape& in) const {
  if (in.size() != 2) {
    fail_argument("Linear: expected [N,F], got " + shape_to_string(in));
  }
  if (in[1] != in_) {
    fail_argument("Linear: expected " + std::to_string(in_) +
                  " features, got " + std::to_string(in[1]));
  }
  return {in[0], out_};
}

Tensor Linear::forward(Tensor x, bool train) {
  const Shape out_shape = output_shape(x.shape());
  const std::size_t batch = x.dim(0);
  Tensor out(out_shape);
  // out[N x out] = x[N x in] * W^T (W is [out x in]); the per-feature bias
  // (one per output column) fuses into the GEMM epilogue.
  gemm_bt(x.data(), weight_.value.data(), out.data(), batch, in_, out_,
          /*accumulate=*/false,
          /*col_bias=*/has_bias_ ? bias_.value.data() : nullptr);
  cached_input_ = train ? std::move(x) : Tensor();
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  require(!cached_input_.empty(),
          "Linear::backward called without forward(train=true)");
  const Tensor& x = cached_input_;
  const std::size_t batch = x.dim(0);
  require(grad_out.shape() == Shape({batch, out_}),
          "Linear::backward: grad shape mismatch");

  // dW[out x in] += gout^T [out x N] * x [N x in]
  gemm_at(grad_out.data(), x.data(), weight_.grad.data(), out_, batch, in_,
          /*accumulate=*/true);
  if (has_bias_) {
    float* gb = bias_.grad.data();
    for (std::size_t n = 0; n < batch; ++n) {
      const float* row = grad_out.data() + n * out_;
      for (std::size_t o = 0; o < out_; ++o) gb[o] += row[o];
    }
  }
  // dx[N x in] = gout [N x out] * W [out x in]
  Tensor grad_in({batch, in_});
  gemm(grad_out.data(), weight_.value.data(), grad_in.data(), batch, out_,
       in_);
  return grad_in;
}

std::vector<Param*> Linear::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

}  // namespace safelight::nn
