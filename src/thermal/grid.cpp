#include "thermal/grid.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace safelight::thermal {

void GridConfig::validate() const {
  require(rows > 0 && cols > 0, "GridConfig: grid must be non-empty");
  require(cell_pitch_um > 0.0, "GridConfig: cell pitch must be positive");
  require(ambient_k > 0.0, "GridConfig: ambient must be positive Kelvin");
}

ThermalGrid::ThermalGrid(const GridConfig& config) : config_(config) {
  config_.validate();
  power_mw_.assign(config_.cell_count(), 0.0);
  temp_k_.assign(config_.cell_count(), config_.ambient_k);
}

std::size_t ThermalGrid::index(std::size_t row, std::size_t col) const {
  if (row >= config_.rows || col >= config_.cols) {
    fail_argument("ThermalGrid: cell (" + std::to_string(row) + "," +
                  std::to_string(col) + ") out of range");
  }
  return row * config_.cols + col;
}

void ThermalGrid::add_power_mw(std::size_t row, std::size_t col,
                               double power_mw) {
  require(power_mw >= 0.0, "ThermalGrid: injected power must be >= 0");
  power_mw_[index(row, col)] += power_mw;
}

double ThermalGrid::power_mw(std::size_t row, std::size_t col) const {
  return power_mw_[index(row, col)];
}

void ThermalGrid::clear_power() {
  std::fill(power_mw_.begin(), power_mw_.end(), 0.0);
}

double ThermalGrid::total_power_mw() const {
  double total = 0.0;
  for (double p : power_mw_) total += p;
  return total;
}

double ThermalGrid::temperature_k(std::size_t row, std::size_t col) const {
  return temp_k_[index(row, col)];
}

void ThermalGrid::set_temperature_k(std::size_t row, std::size_t col,
                                    double kelvin) {
  temp_k_[index(row, col)] = kelvin;
}

double ThermalGrid::delta_t(std::size_t row, std::size_t col) const {
  return temperature_k(row, col) - config_.ambient_k;
}

double ThermalGrid::max_temperature_k() const {
  return *std::max_element(temp_k_.begin(), temp_k_.end());
}

}  // namespace safelight::thermal
