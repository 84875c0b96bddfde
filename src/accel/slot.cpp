#include "accel/slot.hpp"

#include "common/error.hpp"

namespace safelight::accel {

std::string SlotAddress::to_string() const {
  return safelight::accel::to_string(block) + "/u" + std::to_string(unit) +
         "/b" + std::to_string(bank) + "/m" + std::to_string(mr);
}

std::string BankAddress::to_string() const {
  return safelight::accel::to_string(block) + "/u" + std::to_string(unit) +
         "/b" + std::to_string(bank);
}

std::size_t slot_flat_index(const BlockDims& dims, const SlotAddress& addr) {
  if (!(addr.unit < dims.units && addr.bank < dims.banks_per_unit &&
        addr.mr < dims.mrs_per_bank)) {
    fail_argument("slot_flat_index: address out of range: " +
                  addr.to_string());
  }
  return (addr.unit * dims.banks_per_unit + addr.bank) * dims.mrs_per_bank +
         addr.mr;
}

SlotAddress slot_from_flat(const BlockDims& dims, BlockKind block,
                           std::size_t flat) {
  require(flat < dims.slot_count(), "slot_from_flat: index out of range");
  SlotAddress addr;
  addr.block = block;
  addr.mr = flat % dims.mrs_per_bank;
  const std::size_t bank_flat = flat / dims.mrs_per_bank;
  addr.bank = bank_flat % dims.banks_per_unit;
  addr.unit = bank_flat / dims.banks_per_unit;
  return addr;
}

std::size_t bank_flat_index(const BlockDims& dims, const BankAddress& addr) {
  if (!(addr.unit < dims.units && addr.bank < dims.banks_per_unit)) {
    fail_argument("bank_flat_index: address out of range: " +
                  addr.to_string());
  }
  return addr.unit * dims.banks_per_unit + addr.bank;
}

BankAddress bank_from_flat(const BlockDims& dims, BlockKind block,
                           std::size_t flat) {
  require(flat < dims.bank_count(), "bank_from_flat: index out of range");
  BankAddress addr;
  addr.block = block;
  addr.bank = flat % dims.banks_per_unit;
  addr.unit = flat / dims.banks_per_unit;
  return addr;
}

BankAddress bank_of_slot(const SlotAddress& addr) {
  return BankAddress{addr.block, addr.unit, addr.bank};
}

}  // namespace safelight::accel
