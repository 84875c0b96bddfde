#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

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

namespace {

constexpr std::size_t kNr = backend::kNr;

/// im2col_pack for narrow output maps: every panel lane gathers its own
/// taps, bounds-checked per tap.
void pack_lanes(const float* input, const ConvGeom& g, std::size_t col0,
                std::size_t cols, float* packed) {
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

/// im2col_pack for wide output maps: a panel's lanes split into runs that
/// share one image and one output row, and each run copies a strided slice
/// of one input row, with the padding taps at either end zero-filled.
void pack_runs(const float* input, const ConvGeom& g, std::size_t col0,
               std::size_t cols, float* packed) {
  const std::size_t out_w = g.out_w();
  const std::size_t hw = g.out_hw();
  const std::size_t plane = g.in_h * g.in_w;
  const long in_h = static_cast<long>(g.in_h);
  const long in_w = static_cast<long>(g.in_w);
  const long stride = static_cast<long>(g.stride);
  // Per run: its image, first lane and length, and the input coordinates of
  // its first patch's top-left tap.
  struct Run {
    const float* image;
    std::size_t lane, len;
    long ih0, iw0;
  };
  Run runs[kNr];
  for (std::size_t j0 = 0; j0 < cols; j0 += kNr) {
    const std::size_t width = std::min(kNr, cols - j0);
    std::size_t run_count = 0;
    for (std::size_t j = 0; j < width;) {
      const std::size_t q = col0 + j0 + j;
      const std::size_t pix = q % hw;
      const std::size_t ow = pix % out_w;
      Run& run = runs[run_count++];
      run.image = input + q / hw * g.in_c * plane;
      run.lane = j;
      run.len = std::min(out_w - ow, width - j);
      run.ih0 = static_cast<long>(pix / out_w * g.stride) -
                static_cast<long>(g.pad);
      run.iw0 = static_cast<long>(ow * g.stride) - static_cast<long>(g.pad);
      j += run.len;
    }
    for (std::size_t c = 0; c < g.in_c; ++c) {
      for (std::size_t kh = 0; kh < g.k_h; ++kh) {
        for (std::size_t kw = 0; kw < g.k_w; ++kw) {
          for (std::size_t r = 0; r < run_count; ++r) {
            const Run& run = runs[r];
            float* dst = packed + run.lane;
            const long len = static_cast<long>(run.len);
            const long ih = run.ih0 + static_cast<long>(kh);
            const long iw = run.iw0 + static_cast<long>(kw);
            if (ih < 0 || ih >= in_h) {
              std::fill(dst, dst + len, 0.0f);
              continue;
            }
            // Taps [lo, hi) of the run land inside input row ih.
            long lo = 0;
            long hi = 0;
            if (stride == 1) {
              lo = std::min(len, std::max(0L, -iw));
              hi = std::min(len, in_w - iw);
            } else {
              lo = iw >= 0 ? 0 : std::min(len, (stride - 1 - iw) / stride);
              hi = iw >= in_w ? 0
                              : std::min(len, (in_w - iw + stride - 1) / stride);
            }
            const float* row =
                run.image + c * plane + static_cast<std::size_t>(ih * in_w);
            long t = 0;
            for (; t < lo; ++t) dst[t] = 0.0f;
            if (stride == 1 && hi > lo) {
              std::memcpy(dst + lo, row + iw + lo,
                          static_cast<std::size_t>(hi - lo) * sizeof(float));
              t = hi;
            } else {
              for (; t < hi; ++t) dst[t] = row[iw + t * stride];
            }
            for (; t < len; ++t) dst[t] = 0.0f;
          }
          std::fill(packed + width, packed + kNr, 0.0f);
          packed += kNr;
        }
      }
    }
  }
}

}  // namespace

void im2col_pack(const float* input, const ConvGeom& g, std::size_t col0,
                 std::size_t cols, float* packed) {
  // Below 8 lanes per run, per-run bookkeeping costs more than per-lane
  // gathers (measured on the model zoo's conv shapes).
  if (g.out_w() >= 8) {
    pack_runs(input, g, col0, cols, packed);
  } else {
    pack_lanes(input, g, col0, cols, packed);
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
