// 2-D convolution layer.
//
// Forward lowers the whole batch to one GEMM, W[out_c x patch] times the
// patch matrix [patch x N*out_hw], walked in column blocks: each block's
// panels are packed straight from the NCHW input (im2col_pack), multiplied
// by gemm_packed into a block-local C and scattered into [N, out_c, h, w].
// The blocks run in parallel. Every output element is still one
// ascending-k reduction plus bias, so results match a per-image
// im2col + gemm_ref bit for bit. Backward (training) keeps the per-image
// im2col/col2im lowering.
#pragma once

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace safelight::nn {

class Conv2d final : public Layer {
 public:
  /// Square kernels only (all paper models use square kernels).
  /// Weight shape: [out_c, in_c * k * k]; bias shape: [out_c].
  Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, Rng& rng, bool bias = true);

  Tensor forward(Tensor x, bool train) override;
  /// forward() on a borrowed input, for callers that keep `x` afterwards
  /// (BasicBlock's shortcut); forward() delegates here.
  Tensor forward_ref(const Tensor& x, bool train);
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }

 private:
  ConvGeom geom_for(const Shape& in) const;

  std::size_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  // only kept when forward(train=true)
};

}  // namespace safelight::nn
