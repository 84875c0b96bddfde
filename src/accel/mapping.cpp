#include "accel/mapping.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace safelight::accel {

WeightStationaryMapping::WeightStationaryMapping(
    nn::Sequential& model, const AcceleratorConfig& config)
    : config_(config) {
  config_.validate();
  for (nn::Param* p : model.params()) {
    if (p->kind == nn::ParamKind::kConvWeight) {
      conv_ranges_.push_back(
          {p, conv_count_, conv_count_ + p->value.numel(), 0.0f});
      conv_count_ += p->value.numel();
    } else if (p->kind == nn::ParamKind::kLinearWeight) {
      fc_ranges_.push_back({p, fc_count_, fc_count_ + p->value.numel(), 0.0f});
      fc_count_ += p->value.numel();
    }
  }
  refresh_scales();
}

void WeightStationaryMapping::refresh_scales() {
  for (auto* ranges_ptr : {&conv_ranges_, &fc_ranges_}) {
    for (auto& range : *ranges_ptr) {
      range.scale = range.param->value.abs_max();
      if (range.scale == 0.0f) range.scale = 1.0f;  // all-zero tensor
    }
  }
}

const std::vector<WeightStationaryMapping::TensorRange>&
WeightStationaryMapping::ranges(BlockKind block) const {
  return block == BlockKind::kConv ? conv_ranges_ : fc_ranges_;
}

std::vector<WeightStationaryMapping::TensorRange>&
WeightStationaryMapping::ranges(BlockKind block) {
  return block == BlockKind::kConv ? conv_ranges_ : fc_ranges_;
}

std::size_t WeightStationaryMapping::weight_count(BlockKind block) const {
  return block == BlockKind::kConv ? conv_count_ : fc_count_;
}

std::size_t WeightStationaryMapping::passes(BlockKind block) const {
  const std::size_t count = weight_count(block);
  if (count == 0) return 0;
  const std::size_t slots = config_.block(block).slot_count();
  return (count + slots - 1) / slots;
}

SlotAddress WeightStationaryMapping::slot_of_weight(
    BlockKind block, std::size_t weight_index) const {
  require(weight_index < weight_count(block),
          "slot_of_weight: weight index out of range");
  const BlockDims& dims = config_.block(block);
  return slot_from_flat(dims, block, weight_index % dims.slot_count());
}

WeightRef WeightStationaryMapping::weight(BlockKind block,
                                          std::size_t weight_index) const {
  if (!(weight_index < weight_count(block))) {
    fail_argument("weight: index out of range for block " + to_string(block));
  }
  const auto& rs = ranges(block);
  // Ranges are sorted by construction; binary search the containing tensor.
  auto it = std::upper_bound(
      rs.begin(), rs.end(), weight_index,
      [](std::size_t idx, const TensorRange& r) { return idx < r.end; });
  SAFELIGHT_ASSERT(it != rs.end() && weight_index >= it->begin,
                   "weight: range lookup failed");
  return WeightRef{it->param, weight_index - it->begin, it->scale};
}

std::vector<WeightRef> WeightStationaryMapping::weights_on_slot(
    const SlotAddress& addr) const {
  const BlockDims& dims = config_.block(addr.block);
  const std::size_t flat = slot_flat_index(dims, addr);
  const std::size_t count = weight_count(addr.block);
  std::vector<WeightRef> out;
  for (std::size_t w = flat; w < count; w += dims.slot_count()) {
    out.push_back(weight(addr.block, w));
  }
  return out;
}

std::vector<std::vector<WeightRef>> WeightStationaryMapping::bank_weights(
    const BankAddress& addr) const {
  const std::size_t group = config_.block(addr.block).mrs_per_bank;
  std::vector<WeightRef> flat;
  bank_weights(addr, flat);
  std::vector<std::vector<WeightRef>> out;
  for (std::size_t g = 0; g < flat.size(); g += group) {
    out.emplace_back(flat.data() + g, flat.data() + g + group);
  }
  return out;
}

void WeightStationaryMapping::bank_weights(const BankAddress& addr,
                                           std::vector<WeightRef>& out) const {
  const BlockDims& dims = config_.block(addr.block);
  const std::size_t bank_base =
      bank_flat_index(dims, addr) * dims.mrs_per_bank;
  const std::size_t count = weight_count(addr.block);
  out.clear();
  // Weights fill passes in order, so only trailing passes can miss the bank.
  for (std::size_t first = bank_base; first < count;
       first += dims.slot_count()) {
    for (std::size_t mr = 0; mr < dims.mrs_per_bank; ++mr) {
      const std::size_t w = first + mr;
      out.push_back(w < count ? weight(addr.block, w) : WeightRef{});
    }
  }
}

float WeightStationaryMapping::scale_of(const nn::Param* param) const {
  for (const auto* ranges_ptr : {&conv_ranges_, &fc_ranges_}) {
    for (const auto& range : *ranges_ptr) {
      if (range.param == param) return range.scale;
    }
  }
  fail_argument("scale_of: parameter is not mapped onto MRs");
}

}  // namespace safelight::accel
