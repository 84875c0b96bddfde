// 2-D convolution layer.
//
// Forward is W[out_c x patch] times the patch matrix, lowered one of two
// ways. Stride-1 layers with output rows of at least 8 pixels take the
// direct path: each image is copied once into a zero-padded buffer, where
// every patch row is a contiguous run at a per-layer offset, so gemm_direct
// reads B straight from it with no panels written; the columns that wrap
// past a row's end are computed and dropped in the scatter. The images run
// in parallel. Every other layer packs kNr-wide panels of the whole batch's
// patch matrix straight from the NCHW input (im2col_pack) one column block
// at a time, runs gemm_packed per block, and scatters; the blocks run in
// parallel. Either way every output element is one ascending-k reduction
// over the same products (padding taps are +0.0f in both) plus bias, so
// results match a per-image im2col + gemm_ref bit for bit. Backward
// (training) keeps the per-image im2col/col2im lowering.
#pragma once

#include <vector>

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
  void forward_direct(const Tensor& x, const ConvGeom& g, Tensor& out);
  void forward_packed(const Tensor& x, const ConvGeom& g, Tensor& out);

  std::size_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  // only kept when forward(train=true)
  // Direct-path start of each patch row in a padded image of
  // offsets_ph_ x offsets_pw_, rebuilt when the input size changes.
  std::vector<std::size_t> offsets_;
  std::size_t offsets_ph_ = 0, offsets_pw_ = 0;
};

}  // namespace safelight::nn
