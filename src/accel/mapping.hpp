// Weight-stationary mapping of a CNN onto the accelerator's MR slots.
//
// All conv-layer weights (concatenated in layer order) stream into the CONV
// block's slots; FC weights stream into the FC block. A model with more
// weights than slots wraps around into additional *passes*: the same
// physical MR serves weight w, w + slots, w + 2*slots, ... over time
// (paper §IV: "All layers of the models were mapped using a
// weight-stationary approach" and large models require "multiple mappings
// for each layer onto the ONN accelerator"). A compromised MR therefore
// corrupts one weight per pass — the mechanism behind the paper's finding
// that VGG16_v degrades catastrophically.
//
// Biases and batch-norm parameters stay in the electronic domain and are
// never mapped (ParamKind::kElectronic).
#pragma once

#include <cstddef>
#include <vector>

#include "accel/slot.hpp"
#include "nn/sequential.hpp"

namespace safelight::accel {

/// Reference to one scalar weight inside a model.
struct WeightRef {
  nn::Param* param = nullptr;
  std::size_t offset = 0;  // flat index into param->value
  float scale = 1.0f;      // the tensor's scale_of() when looked up

  float read() const { return param->value[offset]; }
  void write(float v) const { param->value[offset] = v; }
};

class WeightStationaryMapping {
 public:
  /// Collects the model's MR-mapped weights. The mapping holds raw Param
  /// pointers; the model must outlive it.
  WeightStationaryMapping(nn::Sequential& model,
                          const AcceleratorConfig& config);

  const AcceleratorConfig& config() const { return config_; }

  std::size_t weight_count(BlockKind block) const;

  /// Number of temporal passes needed for a block (>= 1 when any weights
  /// exist, 0 for an unused block).
  std::size_t passes(BlockKind block) const;

  /// Slot serving mapped-weight index `w` of `block` (w < weight_count).
  SlotAddress slot_of_weight(BlockKind block, std::size_t weight_index) const;

  /// All weights served by a slot across passes (empty when the slot is
  /// beyond the last partial pass).
  std::vector<WeightRef> weights_on_slot(const SlotAddress& addr) const;

  /// All weights served by a bank, as mrs_per_bank groups in channel order:
  /// result[pass] = the bank's weight vector for that pass (entries may be
  /// missing in the final partial pass; missing slots carry param==nullptr).
  std::vector<std::vector<WeightRef>> bank_weights(
      const BankAddress& addr) const;

  /// bank_weights() flattened into a caller-owned buffer that keeps its
  /// capacity across calls: group g is out[g * mrs_per_bank, (g + 1) *
  /// mrs_per_bank). Empty when no weights live on the bank.
  void bank_weights(const BankAddress& addr, std::vector<WeightRef>& out) const;

  /// The weight reference for a mapped index.
  WeightRef weight(BlockKind block, std::size_t weight_index) const;

  /// Per-tensor normalization scale (max |w|) used when imprinting; scales
  /// are captured at construction and after each refresh(). A linear scan:
  /// hot loops read WeightRef::scale instead.
  float scale_of(const nn::Param* param) const;

  /// Re-captures normalization scales (call after retraining / reloading).
  void refresh_scales();

 private:
  struct TensorRange {
    nn::Param* param;
    std::size_t begin;  // inclusive, in block-concatenated weight space
    std::size_t end;    // exclusive
    float scale;        // max |w| captured at refresh
  };

  const std::vector<TensorRange>& ranges(BlockKind block) const;
  std::vector<TensorRange>& ranges(BlockKind block);

  AcceleratorConfig config_;
  std::vector<TensorRange> conv_ranges_;
  std::vector<TensorRange> fc_ranges_;
  std::size_t conv_count_ = 0;
  std::size_t fc_count_ = 0;
};

}  // namespace safelight::accel
