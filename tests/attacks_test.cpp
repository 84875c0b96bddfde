// Tests for HT models, attack scenarios, actuation/hotspot planning and the
// weight-corruption fast path.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attacks/corruption.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"

namespace safelight::attack {
namespace {

nn::Sequential make_model() {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(4 * 16, 6, rng);
  return model;
}

accel::AcceleratorConfig tiny_accelerator() {
  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{2, 2, 4};  // 16 slots
  config.fc = accel::BlockDims{2, 4, 10};   // 80 slots
  return config;
}

// ---------------------------------------------------------------- trojan

TEST(Trojan, FullTriggerKeepsAll) {
  Rng rng(3);
  std::vector<HardwareTrojan> population(10);
  const auto triggered =
      apply_trigger_model(population, TriggerModel{1.0}, rng);
  EXPECT_EQ(triggered.size(), 10u);
}

TEST(Trojan, ZeroTriggerKeepsNone) {
  Rng rng(3);
  std::vector<HardwareTrojan> population(10);
  const auto triggered =
      apply_trigger_model(population, TriggerModel{0.0}, rng);
  EXPECT_TRUE(triggered.empty());
}

TEST(Trojan, PartialTriggerBinomial) {
  Rng rng(3);
  std::vector<HardwareTrojan> population(2000);
  const auto triggered =
      apply_trigger_model(population, TriggerModel{0.3}, rng);
  EXPECT_NEAR(static_cast<double>(triggered.size()), 600.0, 80.0);
}

TEST(Trojan, InvalidProbabilityThrows) {
  Rng rng(3);
  EXPECT_THROW(apply_trigger_model({}, TriggerModel{1.5}, rng),
               std::invalid_argument);
}

TEST(Trojan, PayloadNames) {
  EXPECT_EQ(to_string(PayloadKind::kActuationPark), "actuation");
  EXPECT_EQ(to_string(PayloadKind::kHeaterOverdrive), "hotspot");
}

// ---------------------------------------------------------------- scenario

TEST(Scenario, GridHasFullCartesianProduct) {
  const auto grid = paper_scenario_grid(10);
  // 2 vectors x 3 targets x 3 fractions x 10 seeds.
  EXPECT_EQ(grid.size(), 180u);
  std::set<std::string> ids;
  for (const auto& s : grid) ids.insert(s.id());
  EXPECT_EQ(ids.size(), grid.size());  // all unique
}

TEST(Scenario, IdIsStable) {
  AttackScenario s;
  s.vector = AttackVector::kHotspot;
  s.target = AttackTarget::kConvBlock;
  s.fraction = 0.05;
  s.seed = 3;
  EXPECT_EQ(s.id(), "hotspot/CONV/f0.05/s3");
}

TEST(Scenario, ValidationRejectsBadFraction) {
  AttackScenario s;
  s.fraction = 1.5;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Scenario, GridNeedsSeeds) {
  EXPECT_THROW(scenario_grid({AttackVector::kActuation},
                             {AttackTarget::kConvBlock}, {0.01}, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------- actuation

TEST(Actuation, VictimCountMatchesFraction) {
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.10;
  scenario.seed = 1;
  const auto trojans = plan_actuation_attack(config, scenario);
  EXPECT_EQ(trojans.size(), 4000u);  // 10% of 40,000 CONV MRs
  for (const auto& t : trojans) {
    EXPECT_EQ(t.victim_slot.block, accel::BlockKind::kConv);
    EXPECT_EQ(t.payload, PayloadKind::kActuationPark);
  }
}

TEST(Actuation, VictimsAreDistinct) {
  const accel::AcceleratorConfig config = tiny_accelerator();
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.target = AttackTarget::kBothBlocks;
  scenario.fraction = 0.25;
  scenario.seed = 9;
  const auto trojans = plan_actuation_attack(config, scenario);
  EXPECT_EQ(trojans.size(), 24u);  // 25% of 96
  std::set<std::string> slots;
  for (const auto& t : trojans) slots.insert(t.victim_slot.to_string());
  EXPECT_EQ(slots.size(), trojans.size());
}

TEST(Actuation, DeterministicPerSeedAndDiverseAcrossSeeds) {
  const accel::AcceleratorConfig config = tiny_accelerator();
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.target = AttackTarget::kFcBlock;
  scenario.fraction = 0.2;
  scenario.seed = 4;
  const auto a = plan_actuation_attack(config, scenario);
  const auto b = plan_actuation_attack(config, scenario);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].victim_slot, b[i].victim_slot);
  }
  scenario.seed = 5;
  const auto c = plan_actuation_attack(config, scenario);
  bool any_different = a.size() != c.size();
  for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (!(a[i].victim_slot == c[i].victim_slot)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Actuation, TargetRestrictsBlocks) {
  const accel::AcceleratorConfig config = tiny_accelerator();
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.target = AttackTarget::kFcBlock;
  scenario.fraction = 0.3;
  scenario.seed = 2;
  for (const auto& t : plan_actuation_attack(config, scenario)) {
    EXPECT_EQ(t.victim_slot.block, accel::BlockKind::kFc);
  }
}

TEST(Actuation, ZeroFractionNoVictims) {
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.fraction = 0.0;
  scenario.seed = 1;
  EXPECT_TRUE(plan_actuation_attack(tiny_accelerator(), scenario).empty());
}

TEST(Actuation, RejectsWrongVector) {
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  EXPECT_THROW(plan_actuation_attack(tiny_accelerator(), scenario),
               std::invalid_argument);
}

TEST(Actuation, StuckMagnitudeNearMax) {
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  for (accel::BlockKind kind :
       {accel::BlockKind::kConv, accel::BlockKind::kFc}) {
    const double stuck = stuck_weight_magnitude(config, kind, 0.5);
    EXPECT_GT(stuck, 0.85) << to_string(kind);
    EXPECT_LT(stuck, 1.1) << to_string(kind);
    // Parked transmission approaches 1 (off-resonance pass-through).
    EXPECT_GT(parked_transmission(config, kind, 0.5), 0.85);
  }
}

// ---------------------------------------------------------------- hotspot

TEST(Hotspot, VictimBanksCoverRequestedMrFraction) {
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.10;
  scenario.seed = 1;
  const HotspotPlan plan = plan_hotspot_attack(config, scenario);
  // 10% of 40,000 MRs at 20 MRs per bank = 200 banks.
  EXPECT_EQ(plan.trojans.size(), 200u);
  ASSERT_EQ(plan.block_states.size(), 1u);
  EXPECT_EQ(plan.block_states[0].block, accel::BlockKind::kConv);
}

TEST(Hotspot, VictimBanksHeatUp) {
  const accel::AcceleratorConfig config = tiny_accelerator();
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.25;  // 4 of 16 MRs -> 1 bank
  scenario.seed = 7;
  const HotspotPlan plan = plan_hotspot_attack(config, scenario);
  ASSERT_FALSE(plan.trojans.empty());
  const auto& victim = plan.trojans.front().victim_bank;
  const double dt = plan.effective_delta_t(victim, 0.0);
  EXPECT_GT(dt, 10.0);   // heater overdrive produces a real hotspot
  EXPECT_LT(dt, 200.0);
}

TEST(Hotspot, CompensationSubtracts) {
  const accel::AcceleratorConfig config = tiny_accelerator();
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.25;
  scenario.seed = 7;
  const HotspotPlan plan = plan_hotspot_attack(config, scenario);
  const auto& victim = plan.trojans.front().victim_bank;
  const double raw = plan.effective_delta_t(victim, 0.0);
  EXPECT_NEAR(plan.effective_delta_t(victim, 3.0), raw - 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(plan.effective_delta_t(victim, 1e9), 0.0);
}

TEST(Hotspot, NeighborsReceiveLessHeat) {
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.001;  // a handful of banks
  scenario.seed = 3;
  const HotspotPlan plan = plan_hotspot_attack(config, scenario);
  ASSERT_FALSE(plan.trojans.empty());
  const auto* state = plan.state_for(accel::BlockKind::kConv);
  ASSERT_NE(state, nullptr);
  const auto& victim = plan.trojans.front().victim_bank;
  const std::size_t victim_flat =
      victim.unit * state->banks_per_unit + victim.bank;
  const double victim_dt = state->bank_delta_t[victim_flat];
  // Every non-victim bank is strictly cooler than the victim.
  std::set<std::size_t> victims;
  for (const auto& t : plan.trojans) {
    victims.insert(t.victim_bank.unit * state->banks_per_unit +
                   t.victim_bank.bank);
  }
  for (std::size_t flat = 0; flat < state->bank_delta_t.size(); ++flat) {
    if (victims.count(flat) == 0) {
      EXPECT_LT(state->bank_delta_t[flat], victim_dt);
    }
  }
}

TEST(Hotspot, BothBlocksProducesTwoThermalStates) {
  const accel::AcceleratorConfig config = tiny_accelerator();
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kBothBlocks;
  scenario.fraction = 0.25;
  scenario.seed = 11;
  const HotspotPlan plan = plan_hotspot_attack(config, scenario);
  EXPECT_EQ(plan.block_states.size(), 2u);
  EXPECT_NE(plan.state_for(accel::BlockKind::kConv), nullptr);
  EXPECT_NE(plan.state_for(accel::BlockKind::kFc), nullptr);
}

TEST(Hotspot, RejectsWrongVectorAndBadConfig) {
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  EXPECT_THROW(plan_hotspot_attack(tiny_accelerator(), scenario),
               std::invalid_argument);
  scenario.vector = AttackVector::kHotspot;
  HotspotConfig bad;
  bad.heater_overdrive_mw = 0.0;
  EXPECT_THROW(plan_hotspot_attack(tiny_accelerator(), scenario, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------- corruption

TEST(Corruption, ActuationCorruptsOneWeightPerPassPerVictim) {
  nn::Sequential model = make_model();
  accel::WeightStationaryMapping mapping(model, tiny_accelerator());
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 1.0 / 16.0;  // exactly one CONV slot
  scenario.seed = 2;
  const CorruptionStats stats = apply_attack(mapping, scenario);
  EXPECT_EQ(stats.attacked_mrs, 1u);
  // Conv: 72 weights on 16 slots -> the victim slot serves 4 or 5 passes.
  EXPECT_GE(stats.corrupted_weights, 4u);
  EXPECT_LE(stats.corrupted_weights, 5u);
}

TEST(Corruption, ActuationSetsStuckMagnitudePreservingSign) {
  nn::Sequential model = make_model();
  const auto before = nn::snapshot_state(model);
  accel::WeightStationaryMapping mapping(model, tiny_accelerator());
  AttackScenario scenario;
  scenario.vector = AttackVector::kActuation;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 1.0;  // all CONV slots -> all conv weights corrupted
  scenario.seed = 2;
  apply_attack(mapping, scenario);

  nn::Param* conv_w = model.params()[0];
  const float scale = mapping.scale_of(conv_w);
  const double stuck = stuck_weight_magnitude(
      mapping.config(), accel::BlockKind::kConv, 0.5);
  for (std::size_t i = 0; i < conv_w->value.numel(); ++i) {
    const float original = before[0][i];
    EXPECT_NEAR(std::abs(conv_w->value[i]), stuck * scale, 1e-4);
    if (original != 0.0f) {
      EXPECT_EQ(conv_w->value[i] < 0, original < 0) << i;
    }
  }
}

TEST(Corruption, ZeroFractionIsNoop) {
  nn::Sequential model = make_model();
  const auto before = nn::snapshot_state(model);
  accel::WeightStationaryMapping mapping(model, tiny_accelerator());
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.fraction = 0.0;
  const CorruptionStats stats = apply_attack(mapping, scenario);
  EXPECT_EQ(stats.corrupted_weights, 0u);
  const auto after = nn::snapshot_state(model);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(nn::max_abs_diff(before[i], after[i]), 0.0f);
  }
}

TEST(Corruption, HotspotCorruptsClusters) {
  nn::Sequential model = make_model();
  const auto before = nn::snapshot_state(model);
  accel::WeightStationaryMapping mapping(model, tiny_accelerator());
  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.25;  // one victim bank of 4 MRs
  scenario.seed = 5;
  const CorruptionStats stats = apply_attack(mapping, scenario);
  EXPECT_GE(stats.attacked_banks, 1u);
  EXPECT_GE(stats.thermally_hit_banks, stats.attacked_banks);
  // A bank serves mrs_per_bank consecutive weights per pass; the victim
  // corrupts whole clusters, far more than an equal-MR actuation attack.
  EXPECT_GT(stats.corrupted_weights, 4u);

  // Verify at least one corrupted weight moved to a *different* cluster
  // value (not just stuck-at-max): hotspot shifts neighbor magnitudes in.
  nn::Param* conv_w = model.params()[0];
  std::size_t changed = 0;
  for (std::size_t i = 0; i < conv_w->value.numel(); ++i) {
    if (std::abs(conv_w->value[i] - before[0][i]) > 1e-6f) ++changed;
  }
  EXPECT_GT(changed, 4u);
}

TEST(Corruption, HotspotMatchesBankModelSemantics) {
  // With a full-bank shift of ~1 channel, the corrupted weights must carry
  // the neighbor's magnitude — validate the fast path against MrBank.
  nn::Sequential model = make_model();
  accel::WeightStationaryMapping mapping(model, tiny_accelerator());

  // Run the fast path with an overdrive chosen to shift ~1 channel spacing.
  const accel::AcceleratorConfig& config = mapping.config();
  const phot::WdmGrid grid = config.bank_grid(accel::BlockKind::kConv);
  const phot::Microring ring(config.conv_mr, config.center_wavelength_nm);

  AttackScenario scenario;
  scenario.vector = AttackVector::kHotspot;
  scenario.target = AttackTarget::kConvBlock;
  scenario.fraction = 0.25;
  scenario.seed = 5;
  CorruptionConfig corruption;
  corruption.hotspot.tuning_compensation_k = 0.0;
  const HotspotPlan plan =
      plan_hotspot_attack(config, scenario, corruption.hotspot);
  ASSERT_FALSE(plan.trojans.empty());
  const auto& victim = plan.trojans.front().victim_bank;
  const double delta_t = plan.effective_delta_t(victim, 0.0);

  // Reference: bank model with the same weights and delta-T.
  const auto groups = mapping.bank_weights(victim);
  ASSERT_FALSE(groups.empty());
  std::vector<double> normalized(config.conv.mrs_per_bank, 0.0);
  for (std::size_t mr = 0; mr < groups[0].size(); ++mr) {
    if (groups[0][mr].param == nullptr) continue;
    normalized[mr] = groups[0][mr].read() /
                     mapping.scale_of(groups[0][mr].param);
  }
  phot::MrBank bank(config.conv_mr, grid, config.encoding);
  bank.set_weights(normalized);
  for (std::size_t mr = 0; mr < bank.size(); ++mr) {
    bank.set_temperature_delta(mr, delta_t);
  }
  const std::vector<double> expected = bank.effective_weights();

  apply_attack(mapping, scenario, corruption);
  for (std::size_t mr = 0; mr < groups[0].size(); ++mr) {
    if (groups[0][mr].param == nullptr) continue;
    const float scale = mapping.scale_of(groups[0][mr].param);
    EXPECT_NEAR(groups[0][mr].read(),
                static_cast<float>(expected[mr]) * scale, 1e-4)
        << "mr " << mr;
  }
}

TEST(Corruption, HotspotDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    nn::Sequential model = make_model();
    accel::WeightStationaryMapping mapping(model, tiny_accelerator());
    AttackScenario scenario;
    scenario.vector = AttackVector::kHotspot;
    scenario.target = AttackTarget::kBothBlocks;
    scenario.fraction = 0.2;
    scenario.seed = seed;
    apply_attack(mapping, scenario);
    return nn::snapshot_state(model);
  };
  const auto a = run(3), b = run(3), c = run(4);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(nn::max_abs_diff(a[i], b[i]), 0.0f);
  }
  float diff = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, nn::max_abs_diff(a[i], c[i]));
  }
  EXPECT_GT(diff, 0.0f);
}

TEST(Corruption, StuckAtZeroAblationViaParkFraction) {
  // Parking exactly on resonance (park fraction 0) floors the transmission:
  // the stuck weight collapses toward zero instead of max — the ablation
  // payload of the stuck-at-zero ablation.
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  const double stuck_on_resonance =
      config.encoding.to_magnitude(parked_transmission(
          config, accel::BlockKind::kConv, 1e-6));
  EXPECT_NEAR(stuck_on_resonance, 0.0, 0.02);
}

}  // namespace
}  // namespace safelight::attack
