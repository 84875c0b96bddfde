#include "photonics/mr_bank.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace safelight::phot {

double WeightEncoding::to_transmission(double magnitude) const {
  require(magnitude >= 0.0 && magnitude <= 1.0,
          "WeightEncoding: magnitude must be in [0,1]");
  return t_min + magnitude * (t_max - t_min);
}

double WeightEncoding::to_magnitude(double transmission) const {
  return (transmission - t_min) / (t_max - t_min);
}

void WeightEncoding::validate() const {
  require(t_min >= 0.0 && t_min < t_max && t_max < 1.0,
          "WeightEncoding: need 0 <= t_min < t_max < 1");
}

MrBank::MrBank(const MrGeometry& geometry, const WdmGrid& grid,
               WeightEncoding encoding)
    : grid_(grid), encoding_(encoding) {
  encoding_.validate();
  require(encoding_.t_min >= geometry.t_min,
          "MrBank: encoding floor below the device extinction floor is not "
          "imprintable");
  rings_.reserve(grid_.channel_count());
  for (std::size_t c = 0; c < grid_.channel_count(); ++c) {
    rings_.emplace_back(geometry, grid_.wavelength(c));
  }
  nominal_.assign(rings_.size(), 0.0);
  signs_.assign(rings_.size(), 1);
  set_weights(nominal_);
}

void MrBank::set_weights(const std::vector<double>& weights) {
  if (weights.size() != rings_.size()) {
    fail_argument("MrBank::set_weights: expected " +
                  std::to_string(rings_.size()) + " weights, got " +
                  std::to_string(weights.size()));
  }
  nominal_ = weights;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const double magnitude = std::abs(weights[i]);
    require(magnitude <= 1.0, "MrBank::set_weights: |w| must be <= 1");
    signs_[i] = weights[i] < 0.0 ? -1 : 1;
    rings_[i].set_temperature_delta(0.0);
    rings_[i].imprint_weight(encoding_.to_transmission(magnitude));
  }
}

void MrBank::park_off_resonance(std::size_t i, double park_shift_nm) {
  require(i < rings_.size(), "MrBank::park_off_resonance: index out of range");
  if (park_shift_nm < 0.0) park_shift_nm = 0.5 * grid_.spacing_nm();
  rings_[i].set_detuning_nm(park_shift_nm);
}

void MrBank::set_temperature_delta(std::size_t i, double delta_kelvin) {
  require(i < rings_.size(),
          "MrBank::set_temperature_delta: index out of range");
  rings_[i].set_temperature_delta(delta_kelvin);
}

void MrBank::reset_attacks() { set_weights(nominal_); }

double MrBank::channel_transmission(std::size_t channel) const {
  require(channel < rings_.size(),
          "MrBank::channel_transmission: channel out of range");
  const double wavelength = grid_.wavelength(channel);
  double product = 1.0;
  for (const auto& ring : rings_) {
    product *= ring.transmission(wavelength);
  }
  return product;
}

std::vector<double> MrBank::effective_weights() const {
  // Ring-outer, channel-inner: each ring's resonance and linewidth are
  // computed once per call instead of once per channel. Channel c's product
  // still starts at 1 and multiplies rings 0..K-1 in order, each term being
  // Microring::transmission's exact expression, so it rounds bit for bit
  // like channel_transmission(c). The loop is bound by its two divisions,
  // which is why it has no ISA-specific variant.
  const std::vector<double>& wavelengths = grid_.wavelengths();
  std::vector<double> out(rings_.size(), 1.0);
  for (const Microring& ring : rings_) {
    const double resonance = ring.resonance_nm();
    const double half_width = 0.5 * ring.fwhm_nm();
    const double depth = 1.0 - ring.geometry().t_min;
    for (std::size_t c = 0; c < out.size(); ++c) {
      const double x = (wavelengths[c] - resonance) / half_width;
      out[c] *= 1.0 - depth / (1.0 + x * x);
    }
  }
  for (std::size_t c = 0; c < out.size(); ++c) {
    // The electronic decode subtracts the t_min offset; optical power below
    // the floor (several notches stacked on one channel) reads as zero.
    const double magnitude = std::max(0.0, encoding_.to_magnitude(out[c]));
    out[c] = static_cast<double>(signs_[c]) * magnitude;
  }
  return out;
}

double MrBank::dot_product(const std::vector<double>& activations) const {
  require(activations.size() == rings_.size(),
          "MrBank::dot_product: activation count mismatch");
  const std::vector<double> weights = effective_weights();
  double acc = 0.0;
  for (std::size_t c = 0; c < rings_.size(); ++c) {
    acc += weights[c] * activations[c];
  }
  return acc;
}

const Microring& MrBank::ring(std::size_t i) const {
  require(i < rings_.size(), "MrBank::ring: index out of range");
  return rings_[i];
}

Microring& MrBank::ring(std::size_t i) {
  require(i < rings_.size(), "MrBank::ring: index out of range");
  return rings_[i];
}

}  // namespace safelight::phot
