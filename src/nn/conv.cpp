#include "nn/conv.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "nn/backend.hpp"
#include "nn/gemm.hpp"

namespace safelight::nn {

namespace {

// Packed floats per column block of the forward GEMM (128 KB): one block's
// panels stay cache-resident while the micro-kernel streams them once per
// block of output channels. Layers whose patch exceeds kBlockFloats / kNr
// get one-panel blocks.
constexpr std::size_t kBlockFloats = 32 * 1024;

// Stride-1 layers with output rows at least this wide take the direct path.
// Narrower maps spend too many lanes on the wrap-around columns: on the
// zoo's 4x4 maps the direct path ran 0.6-0.8x as fast as the packed one
// (32->64) or about even (32->32), and 3-24x slower on 2x2 and 1x1.
constexpr std::size_t kDirectMinOutW = 8;

}  // namespace

Conv2d::Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
               std::size_t stride, std::size_t pad, Rng& rng, bool bias)
    : in_c_(in_c), out_c_(out_c), kernel_(kernel), stride_(stride), pad_(pad),
      has_bias_(bias) {
  require(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0,
          "Conv2d: channels, kernel and stride must be positive");
  weight_ = Param("conv.weight", ParamKind::kConvWeight,
                  Tensor({out_c_, in_c_ * kernel_ * kernel_}));
  kaiming_init(weight_.value, in_c_ * kernel_ * kernel_, rng);
  if (has_bias_) {
    bias_ = Param("conv.bias", ParamKind::kElectronic, Tensor({out_c_}));
  }
}

ConvGeom Conv2d::geom_for(const Shape& in) const {
  if (in.size() != 4) {
    fail_argument("Conv2d: expected [N,C,H,W], got " + shape_to_string(in));
  }
  if (in[1] != in_c_) {
    fail_argument("Conv2d: expected " + std::to_string(in_c_) +
                  " input channels, got " + std::to_string(in[1]));
  }
  ConvGeom g;
  g.in_c = in_c_;
  g.in_h = in[2];
  g.in_w = in[3];
  g.k_h = g.k_w = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  if (!g.valid()) {
    fail_argument("Conv2d: kernel does not fit input " + shape_to_string(in));
  }
  return g;
}

Shape Conv2d::output_shape(const Shape& in) const {
  const ConvGeom g = geom_for(in);
  return {in[0], out_c_, g.out_h(), g.out_w()};
}

Tensor Conv2d::forward(Tensor x, bool train) { return forward_ref(x, train); }

Tensor Conv2d::forward_ref(const Tensor& x, bool train) {
  const ConvGeom g = geom_for(x.shape());
  Tensor out({x.dim(0), out_c_, g.out_h(), g.out_w()});
  if (stride_ == 1 && g.out_w() >= kDirectMinOutW) {
    forward_direct(x, g, out);
  } else {
    forward_packed(x, g, out);
  }
  if (train) {
    cached_input_ = x;
  } else {
    cached_input_ = Tensor();
  }
  return out;
}

void Conv2d::forward_direct(const Tensor& x, const ConvGeom& g, Tensor& out) {
  // In a zero-padded image of width pw, output pixel (oh, ow) sits at
  // q = oh * pw + ow, and patch row p = (c, kh, kw) of the GEMM's B operand
  // is the contiguous run starting at offsets_[p] + q. Columns with
  // ow >= out_w wrap into the next row; they are computed and dropped.
  const std::size_t ph = g.in_h + 2 * pad_;
  const std::size_t pw = g.in_w + 2 * pad_;
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  const std::size_t cols = (out_h - 1) * pw + out_w;
  const std::size_t panel_cols =
      (cols + backend::kNr - 1) / backend::kNr * backend::kNr;
  // The farthest patch row ends at the image's last float; the last panel
  // reads on to panel_cols, into zeroed slack.
  const std::size_t padded = in_c_ * ph * pw + panel_cols - cols;
  if (offsets_pw_ != pw || offsets_ph_ != ph) {
    offsets_.clear();
    for (std::size_t c = 0; c < in_c_; ++c) {
      for (std::size_t kh = 0; kh < kernel_; ++kh) {
        for (std::size_t kw = 0; kw < kernel_; ++kw) {
          offsets_.push_back((c * ph + kh) * pw + kw);
        }
      }
    }
    offsets_pw_ = pw;
    offsets_ph_ = ph;
  }
  const float* w = weight_.value.data();
  const float* b = has_bias_ ? bias_.value.data() : nullptr;
  parallel_for(0, x.dim(0), [&](std::size_t n) {
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    float* image = arena.alloc_zeroed(padded);
    const float* src = x.data() + n * in_c_ * g.in_h * g.in_w;
    for (std::size_t row = 0; row < in_c_ * g.in_h; ++row) {
      const std::size_t c = row / g.in_h, ih = row % g.in_h;
      std::copy_n(src + row * g.in_w, g.in_w,
                  image + (c * ph + ih + pad_) * pw + pad_);
    }
    float* c = arena.alloc(out_c_ * cols);
    gemm_direct(w, image, offsets_.data(), c, out_c_, g.patch_len(), cols, b);
    float* dst = out.data() + n * out_c_ * out_h * out_w;
    for (std::size_t row = 0; row < out_c_ * out_h; ++row, dst += out_w) {
      std::copy_n(c + row / out_h * cols + row % out_h * pw, out_w, dst);
    }
  });
}

void Conv2d::forward_packed(const Tensor& x, const ConvGeom& g, Tensor& out) {
  // One GEMM W[out_c x patch] * X[patch x batch*hw] over the whole batch,
  // walked in column blocks of whole panels; a block may straddle images.
  const std::size_t hw = g.out_hw();
  const std::size_t patch = g.patch_len();
  const std::size_t columns = x.dim(0) * hw;
  const std::size_t block_cols =
      std::max<std::size_t>(1, kBlockFloats / (patch * backend::kNr)) *
      backend::kNr;
  const std::size_t blocks = (columns + block_cols - 1) / block_cols;
  const float* w = weight_.value.data();
  const float* b = has_bias_ ? bias_.value.data() : nullptr;
  parallel_for(0, blocks, [&](std::size_t block) {
    const std::size_t col0 = block * block_cols;
    const std::size_t cols = std::min(block_cols, columns - col0);
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Frame frame(arena);
    const std::size_t panels = (cols + backend::kNr - 1) / backend::kNr;
    float* packed = arena.alloc(panels * backend::kNr * patch);
    float* c = arena.alloc(out_c_ * cols);
    im2col_pack(x.data(), g, col0, cols, packed);
    // Bias (one per output channel = per GEMM row) fuses into the kernel
    // epilogue instead of a second pass over the output.
    gemm_packed(w, packed, c, out_c_, patch, cols, /*accumulate=*/false, b);
    // Scatter C [out_c x cols] into [batch, out_c, hw], one run of a single
    // image's pixels at a time.
    for (std::size_t q = col0; q < col0 + cols;) {
      const std::size_t n = q / hw;
      const std::size_t pix = q % hw;
      const std::size_t run = std::min(hw - pix, col0 + cols - q);
      for (std::size_t o = 0; o < out_c_; ++o) {
        std::copy_n(c + o * cols + (q - col0), run,
                    out.data() + (n * out_c_ + o) * hw + pix);
      }
      q += run;
    }
  });
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  require(!cached_input_.empty(),
          "Conv2d::backward called without forward(train=true)");
  const Tensor& x = cached_input_;
  const ConvGeom g = geom_for(x.shape());
  const std::size_t batch = x.dim(0);
  const std::size_t hw = g.out_hw();
  const std::size_t patch = g.patch_len();
  require(grad_out.shape() == output_shape(x.shape()),
          "Conv2d::backward: grad shape mismatch");

  Tensor grad_in(x.shape());
  const float* w = weight_.value.data();

  // Per-part gradient accumulators avoid data races. The batch splits
  // into a *fixed* number of contiguous parts — independent of
  // worker_count() — each summed serially and merged in part order, so
  // the gradient's floating-point reduction order (and therefore every
  // trained weight) is bitwise-identical for any SAFELIGHT_THREADS. The
  // defense subsystem's detector scores amplify even 1-ULP weight
  // differences, so thread-invariant training is part of the determinism
  // contract, not a nicety.
  constexpr std::size_t kGradParts = 8;
  const std::size_t parts = std::min<std::size_t>(kGradParts, batch);
  const std::size_t per_part = (batch + parts - 1) / parts;
  std::vector<Tensor> gw_parts;
  std::vector<Tensor> gb_parts;
  for (std::size_t i = 0; i < parts; ++i) {
    gw_parts.emplace_back(weight_.value.shape());
    gb_parts.emplace_back(Shape{out_c_});
  }

  parallel_for(
      0, parts,
      [&](std::size_t part) {
        const std::size_t lo = part * per_part;
        const std::size_t hi = std::min(batch, lo + per_part);
        float* gw = gw_parts[part].data();
        float* gb = gb_parts[part].data();
        ScratchArena& arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        float* cols = arena.alloc(patch * hw);
        float* cols_grad = arena.alloc(patch * hw);
        for (std::size_t n = lo; n < hi; ++n) {
          const float* gout_n = grad_out.data() + n * out_c_ * hw;
          im2col(x.data() + n * in_c_ * g.in_h * g.in_w, g, cols);
          // dW += gout_n [outC x hw] * cols^T [hw x patch]
          gemm_bt(gout_n, cols, gw, out_c_, hw, patch,
                  /*accumulate=*/true);
          if (has_bias_) {
            for (std::size_t o = 0; o < out_c_; ++o) {
              const float* row = gout_n + o * hw;
              float acc = 0.0f;
              for (std::size_t i = 0; i < hw; ++i) acc += row[i];
              gb[o] += acc;
            }
          }
          // dcols = W^T [patch x outC] * gout_n [outC x hw]
          gemm_at(w, gout_n, cols_grad, patch, out_c_, hw);
          col2im(cols_grad, g,
                 grad_in.data() + n * in_c_ * g.in_h * g.in_w);
        }
      },
      1);

  for (std::size_t i = 0; i < parts; ++i) {
    weight_.grad += gw_parts[i];
    if (has_bias_) bias_.grad += gb_parts[i];
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
         ",k" + std::to_string(kernel_) + ",s" + std::to_string(stride_) +
         ",p" + std::to_string(pad_) + ")";
}

}  // namespace safelight::nn
