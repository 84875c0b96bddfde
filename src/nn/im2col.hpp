// Convolution lowering: the patch matrix of a 2-D convolution.
//
// Conv2d::forward's packed path (stride 2, or output rows under 8 pixels)
// is one GEMM W[out_c x patch_len] * X[patch_len x N*out_hw] over the whole
// batch, where X holds each image's im2col columns side by side.
// im2col_pack builds kNr-wide GEMM panels of X straight from the NCHW input,
// one column block at a time, so X itself is never materialized; every lane
// gathers its own bounds-checked taps. Stride-1 layers with wider rows skip
// packing altogether (Conv2d::forward_direct). im2col/col2im unroll and
// scatter one image; backward-to-input uses col2im to scatter patch
// gradients back.
#pragma once

#include <cstddef>

namespace safelight::nn {

/// Geometry of one conv lowering. All fields in elements (not bytes).
struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t k_h = 0, k_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - k_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - k_w) / stride + 1; }
  /// Rows of the patch matrix: in_c * k_h * k_w.
  std::size_t patch_len() const { return in_c * k_h * k_w; }
  /// Columns of the patch matrix: out_h * out_w.
  std::size_t out_hw() const { return out_h() * out_w(); }
  /// True when the geometry produces at least one output pixel.
  bool valid() const {
    return in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w && stride > 0 &&
           in_c > 0 && k_h > 0 && k_w > 0;
  }
};

/// Unrolls a single image [C,H,W] into columns [patch_len x out_hw].
/// Out-of-bounds (padding) taps contribute zeros.
void im2col(const float* image, const ConvGeom& g, float* columns);

/// Packs columns [col0, col0 + cols) of the batch's patch matrix — image
/// n's out_hw columns start at n * out_hw — into ceil(cols / kNr) kNr-wide
/// zero-padded panels (backend::kNr), read straight from `input`, an NCHW
/// batch. Writes exactly the bytes GemmKernels::pack_b writes for the same
/// columns of im2col's output; a block may start and end mid-image.
void im2col_pack(const float* input, const ConvGeom& g, std::size_t col0,
                 std::size_t cols, float* packed);

/// Scatters columns [patch_len x out_hw] back into an image [C,H,W],
/// accumulating overlapping contributions. `image` must be zeroed by the
/// caller beforehand.
void col2im(const float* columns, const ConvGeom& g, float* image);

}  // namespace safelight::nn
