// Procedural synthetic datasets.
//
// The paper trains on MNIST, CIFAR10 and Imagenette. SafeLight does not
// download datasets, so it ships procedural stand-ins with the same tensor
// shapes and class counts, and every accuracy it reports is measured on
// them rather than on the paper's corpora:
//   * synth_digits   — MNIST-like:   1x28x28 grayscale rendered digit glyphs
//   * synth_shapes   — CIFAR10-like: 3x32x32 colored geometric scenes
//   * synth_textures — Imagenette-like: 3xSxS textured scenes
// All generators are deterministic given (seed, count) and produce
// class-balanced datasets whose difficulty is controlled by jitter/noise.
#pragma once

#include "nn/dataset.hpp"

namespace safelight::nn {

struct SynthConfig {
  std::size_t count = 1000;      // total samples (balanced across 10 classes)
  std::size_t image_size = 0;    // 0 = generator default
  std::uint64_t seed = 1;
  float noise = 0.08f;           // pixel Gaussian noise stddev
  float jitter = 1.0f;           // geometric jitter multiplier (0 disables)
};

/// MNIST-like handwritten-digit stand-in (10 classes, 1 channel, default 28).
Dataset synth_digits(const SynthConfig& config);

/// CIFAR10-like colored-shape stand-in (10 classes, 3 channels, default 32).
Dataset synth_shapes(const SynthConfig& config);

/// Imagenette-like texture-scene stand-in (10 classes, 3 channels, default 32).
Dataset synth_textures(const SynthConfig& config);

/// Dispatch by dataset name ("digits" | "shapes" | "textures").
Dataset make_synthetic(const std::string& family, const SynthConfig& config);

}  // namespace safelight::nn
