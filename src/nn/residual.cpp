#include "nn/residual.hpp"

#include <utility>

#include "common/error.hpp"
#include "nn/activation.hpp"

namespace safelight::nn {

BasicBlock::BasicBlock(std::size_t in_c, std::size_t out_c, std::size_t stride,
                       Rng& rng)
    : in_c_(in_c), out_c_(out_c), stride_(stride),
      conv1_(in_c, out_c, 3, stride, 1, rng, /*bias=*/false),
      bn1_(out_c),
      conv2_(out_c, out_c, 3, 1, 1, rng, /*bias=*/false),
      bn2_(out_c) {
  require(stride == 1 || stride == 2, "BasicBlock: stride must be 1 or 2");
  require(out_c >= in_c,
          "BasicBlock: option-A shortcut requires out_c >= in_c");
}

Shape BasicBlock::output_shape(const Shape& in) const {
  return bn2_.output_shape(
      conv2_.output_shape(conv1_.output_shape(in)));
}

Tensor BasicBlock::shortcut_forward(const Tensor& x) const {
  const std::size_t batch = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const std::size_t out_h = (in_h - 1) / stride_ + 1;
  const std::size_t out_w = (in_w - 1) / stride_ + 1;
  Tensor out({batch, out_c_, out_h, out_w});  // zero-filled => channel pad
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_c_; ++c) {
      const float* src = x.data() + (n * in_c_ + c) * in_h * in_w;
      float* dst = out.data() + (n * out_c_ + c) * out_h * out_w;
      for (std::size_t h = 0; h < out_h; ++h) {
        for (std::size_t w = 0; w < out_w; ++w) {
          dst[h * out_w + w] = src[(h * stride_) * in_w + w * stride_];
        }
      }
    }
  }
  return out;
}

Tensor BasicBlock::shortcut_backward(const Tensor& grad,
                                     const Shape& in_shape) const {
  if (identity_shortcut()) return grad;
  const std::size_t batch = in_shape[0], in_h = in_shape[2],
                    in_w = in_shape[3];
  const std::size_t out_h = grad.dim(2), out_w = grad.dim(3);
  Tensor grad_in(in_shape);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < in_c_; ++c) {
      const float* src = grad.data() + (n * out_c_ + c) * out_h * out_w;
      float* dst = grad_in.data() + (n * in_c_ + c) * in_h * in_w;
      for (std::size_t h = 0; h < out_h; ++h) {
        for (std::size_t w = 0; w < out_w; ++w) {
          dst[(h * stride_) * in_w + w * stride_] = src[h * out_w + w];
        }
      }
    }
  }
  return grad_in;
}

Tensor BasicBlock::forward(Tensor x, bool train) {
  if (train) cached_in_shape_ = x.shape();
  Tensor h = conv1_.forward_ref(x, train);
  h = bn1_.forward(std::move(h), train);
  relu_inplace(h, train ? &relu1_mask_ : nullptr);
  h = conv2_.forward(std::move(h), train);
  h = bn2_.forward(std::move(h), train);
  if (identity_shortcut()) {
    h += x;
  } else {
    h += shortcut_forward(x);
  }
  relu_inplace(h, train ? &relu2_mask_ : nullptr);
  return h;
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  require(!relu2_mask_.empty(),
          "BasicBlock::backward called without forward(train=true)");
  require(grad_out.numel() == relu2_mask_.size(),
          "BasicBlock::backward: grad size mismatch");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    if (!relu2_mask_[i]) g[i] = 0.0f;
  }
  // The post-ReLU gradient splits into the residual branch and the shortcut.
  Tensor g_main = bn2_.backward(g);
  g_main = conv2_.backward(g_main);
  for (std::size_t i = 0; i < g_main.numel(); ++i) {
    if (!relu1_mask_[i]) g_main[i] = 0.0f;
  }
  g_main = bn1_.backward(g_main);
  g_main = conv1_.backward(g_main);

  Tensor g_short = shortcut_backward(g, cached_in_shape_);
  g_main += g_short;
  return g_main;
}

std::vector<Param*> BasicBlock::params() {
  std::vector<Param*> out;
  for (Layer* l : std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_,
                                                &bn2_}) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> BasicBlock::state_tensors() {
  std::vector<Tensor*> out;
  for (Layer* l : std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_,
                                                &bn2_}) {
    for (Tensor* t : l->state_tensors()) out.push_back(t);
  }
  return out;
}

std::string BasicBlock::name() const {
  return "BasicBlock(" + std::to_string(in_c_) + "->" +
         std::to_string(out_c_) + ",s" + std::to_string(stride_) + ")";
}

}  // namespace safelight::nn
