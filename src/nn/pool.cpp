#include "nn/pool.hpp"

#include "common/error.hpp"

namespace safelight::nn {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  require(window >= 1, "MaxPool2d: window must be >= 1");
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  require(in.size() == 4, "MaxPool2d: expected [N,C,H,W]");
  require(in[2] >= window_ && in[3] >= window_,
          "MaxPool2d: input smaller than window");
  return {in[0], in[1], in[2] / window_, in[3] / window_};
}

Tensor MaxPool2d::forward(Tensor x, bool train) {
  const Shape out_shape = output_shape(x.shape());
  const std::size_t batch = x.dim(0), ch = x.dim(1), in_h = x.dim(2),
                    in_w = x.dim(3);
  const std::size_t out_h = out_shape[2], out_w = out_shape[3];
  Tensor out(out_shape);
  if (train) {
    argmax_.assign(out.numel(), 0);
    cached_in_shape_ = x.shape();
  }
  if (!train && window_ == 2) {
    // Straight-line 2x2 window: the generic loop's `>` selects in its order
    // (the first tap's self-compare never changes `best`), so it vectorizes.
    float* dst = out.data();
    for (std::size_t row = 0; row < batch * ch * out_h; ++row, dst += out_w) {
      const std::size_t plane = row / out_h, oh = row % out_h;
      const float* r0 = x.data() + (plane * in_h + 2 * oh) * in_w;
      const float* r1 = r0 + in_w;
      for (std::size_t ow = 0; ow < out_w; ++ow) {
        float best = r0[2 * ow];
        best = r0[2 * ow + 1] > best ? r0[2 * ow + 1] : best;
        best = r1[2 * ow] > best ? r1[2 * ow] : best;
        dst[ow] = r1[2 * ow + 1] > best ? r1[2 * ow + 1] : best;
      }
    }
    return out;
  }
  std::size_t oi = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* plane = x.data() + (n * ch + c) * in_h * in_w;
      for (std::size_t oh = 0; oh < out_h; ++oh) {
        for (std::size_t ow = 0; ow < out_w; ++ow, ++oi) {
          const std::size_t corner = (oh * window_) * in_w + ow * window_;
          float best = plane[corner];
          if (!train) {
            // Same `>` test as the tracked path, as a branchless select.
            for (std::size_t dy = 0; dy < window_; ++dy) {
              const float* row = plane + corner + dy * in_w;
              for (std::size_t dx = 0; dx < window_; ++dx) {
                best = row[dx] > best ? row[dx] : best;
              }
            }
            out[oi] = best;
            continue;
          }
          std::size_t best_idx = corner;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t idx =
                  (oh * window_ + dy) * in_w + (ow * window_ + dx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          out[oi] = best;
          argmax_[oi] = (n * ch + c) * in_h * in_w + best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  require(!argmax_.empty(),
          "MaxPool2d::backward called without forward(train=true)");
  require(grad_out.numel() == argmax_.size(),
          "MaxPool2d::backward: grad size mismatch");
  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(window_) + ")";
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  require(in.size() == 4, "GlobalAvgPool: expected [N,C,H,W]");
  return {in[0], in[1], 1, 1};
}

Tensor GlobalAvgPool::forward(Tensor x, bool train) {
  const Shape out_shape = output_shape(x.shape());
  const std::size_t batch = x.dim(0), ch = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  Tensor out(out_shape);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* plane = x.data() + (n * ch + c) * hw;
      double acc = 0.0;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      out[n * ch + c] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  if (train) cached_in_shape_ = x.shape();
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  require(!cached_in_shape_.empty(),
          "GlobalAvgPool::backward called without forward(train=true)");
  const std::size_t batch = cached_in_shape_[0], ch = cached_in_shape_[1];
  const std::size_t hw = cached_in_shape_[2] * cached_in_shape_[3];
  require(grad_out.numel() == batch * ch,
          "GlobalAvgPool::backward: grad size mismatch");
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float g = grad_out[n * ch + c] * inv;
      float* plane = grad_in.data() + (n * ch + c) * hw;
      for (std::size_t i = 0; i < hw; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

Shape Flatten::output_shape(const Shape& in) const {
  require(!in.empty(), "Flatten: empty shape");
  std::size_t features = 1;
  for (std::size_t i = 1; i < in.size(); ++i) features *= in[i];
  return {in[0], features};
}

Tensor Flatten::forward(Tensor x, bool train) {
  if (train) cached_in_shape_ = x.shape();
  x.reshape_inplace(output_shape(x.shape()));
  return x;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  require(!cached_in_shape_.empty(),
          "Flatten::backward called without forward(train=true)");
  return grad_out.reshaped(cached_in_shape_);
}

}  // namespace safelight::nn
