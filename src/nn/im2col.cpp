#include "nn/im2col.hpp"

#include <algorithm>

#include "nn/backend.hpp"

namespace safelight::nn {

void im2col(const float* image, const ConvGeom& g, float* columns) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.k_h; ++kh) {
      for (std::size_t kw = 0; kw < g.k_w; ++kw, ++row) {
        float* out_row = columns + row * out_h * out_w;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          // ih/iw computed in signed space because padding can go negative.
          const long ih = static_cast<long>(oh * g.stride + kh) -
                          static_cast<long>(g.pad);
          const bool row_ok =
              ih >= 0 && ih < static_cast<long>(g.in_h);
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const long iw = static_cast<long>(ow * g.stride + kw) -
                            static_cast<long>(g.pad);
            const bool ok = row_ok && iw >= 0 && iw < static_cast<long>(g.in_w);
            out_row[oh * out_w + ow] =
                ok ? image[(c * g.in_h + static_cast<std::size_t>(ih)) * g.in_w +
                           static_cast<std::size_t>(iw)]
                   : 0.0f;
          }
        }
      }
    }
  }
}

void im2col_pack(const float* input, const ConvGeom& g, std::size_t col0,
                 std::size_t cols, float* packed) {
  constexpr std::size_t kNr = backend::kNr;
  const std::size_t out_w = g.out_w();
  const std::size_t hw = g.out_hw();
  const std::size_t plane = g.in_h * g.in_w;
  const long in_h = static_cast<long>(g.in_h);
  const long in_w = static_cast<long>(g.in_w);
  // Per lane: its image and the input coordinates of its patch's top-left
  // tap, negative inside the padding.
  const float* image[kNr];
  long ih0[kNr], iw0[kNr];
  for (std::size_t j0 = 0; j0 < cols; j0 += kNr) {
    const std::size_t width = std::min(kNr, cols - j0);
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t q = col0 + j0 + j;
      const std::size_t pix = q % hw;
      image[j] = input + q / hw * g.in_c * plane;
      ih0[j] = static_cast<long>(pix / out_w * g.stride) -
               static_cast<long>(g.pad);
      iw0[j] = static_cast<long>(pix % out_w * g.stride) -
               static_cast<long>(g.pad);
    }
    for (std::size_t c = 0; c < g.in_c; ++c) {
      for (std::size_t kh = 0; kh < g.k_h; ++kh) {
        for (std::size_t kw = 0; kw < g.k_w; ++kw) {
          for (std::size_t j = 0; j < width; ++j) {
            const long ih = ih0[j] + static_cast<long>(kh);
            const long iw = iw0[j] + static_cast<long>(kw);
            const bool ok = ih >= 0 && ih < in_h && iw >= 0 && iw < in_w;
            packed[j] = ok ? image[j][c * plane +
                                      static_cast<std::size_t>(ih * in_w + iw)]
                           : 0.0f;
          }
          std::fill(packed + width, packed + kNr, 0.0f);
          packed += kNr;
        }
      }
    }
  }
}

void col2im(const float* columns, const ConvGeom& g, float* image) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.k_h; ++kh) {
      for (std::size_t kw = 0; kw < g.k_w; ++kw, ++row) {
        const float* in_row = columns + row * out_h * out_w;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const long ih = static_cast<long>(oh * g.stride + kh) -
                          static_cast<long>(g.pad);
          if (ih < 0 || ih >= static_cast<long>(g.in_h)) continue;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const long iw = static_cast<long>(ow * g.stride + kw) -
                            static_cast<long>(g.pad);
            if (iw < 0 || iw >= static_cast<long>(g.in_w)) continue;
            image[(c * g.in_h + static_cast<std::size_t>(ih)) * g.in_w +
                  static_cast<std::size_t>(iw)] += in_row[oh * out_w + ow];
          }
        }
      }
    }
  }
}

}  // namespace safelight::nn
