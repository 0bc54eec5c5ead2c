// Unit tests for the memristor device model.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "device/memristor.h"

namespace cim::device {
namespace {

MemristorParams QuietParams() {
  MemristorParams p;
  p.read_noise_sigma = 0.0;
  p.write_noise_sigma = 0.0;
  p.endurance_cycles = 0;  // disable wear-out
  p.drift_nu = 0.0;        // disable drift
  return p;
}

TEST(MemristorParamsTest, DefaultsValidate) {
  EXPECT_TRUE(MemristorParams{}.Validate().ok());
}

TEST(MemristorParamsTest, RejectsInvertedConductanceRange) {
  MemristorParams p;
  p.g_on_siemens = p.g_off_siemens / 2;
  EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(MemristorParamsTest, RejectsBadCellBits) {
  MemristorParams p;
  p.cell_bits = 0;
  EXPECT_FALSE(p.Validate().ok());
  p.cell_bits = 9;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(MemristorParamsTest, RejectsNonFiniteParameters) {
  // NaN and +-inf pass every ordered range check, so Validate must reject
  // them explicitly: a NaN sigma would silently disable read noise and an
  // infinite one would build a noise tile of inf/0.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    for (double MemristorParams::*field :
         {&MemristorParams::g_on_siemens, &MemristorParams::g_off_siemens,
          &MemristorParams::read_noise_sigma,
          &MemristorParams::write_noise_sigma}) {
      MemristorParams p;
      p.*field = bad;
      EXPECT_EQ(p.Validate().code(), ErrorCode::kInvalidArgument) << bad;
    }
  }
}

TEST(MemristorParamsTest, LevelConductanceSpansRange) {
  MemristorParams p;
  p.cell_bits = 2;
  EXPECT_DOUBLE_EQ(p.LevelConductance(0), p.g_off_siemens);
  EXPECT_DOUBLE_EQ(p.LevelConductance(3), p.g_on_siemens);
  EXPECT_GT(p.LevelConductance(2), p.LevelConductance(1));
}

TEST(MemristorCellTest, ProgramReachesTargetWithoutNoise) {
  const MemristorParams p = QuietParams();
  MemristorCell cell(p);
  Rng rng(1);
  for (std::uint64_t level = 0; level < p.levels(); ++level) {
    const ProgramResult r = cell.Program(p, level, rng);
    EXPECT_TRUE(r.verified);
    EXPECT_NEAR(cell.true_conductance(), p.LevelConductance(level),
                1e-12);
  }
}

TEST(MemristorCellTest, ProgramConvergesWithNoise) {
  MemristorParams p = QuietParams();
  p.write_noise_sigma = 0.1;
  MemristorCell cell(p);
  Rng rng(2);
  int verified = 0;
  const int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const ProgramResult r = cell.Program(p, i % p.levels(), rng);
    if (r.verified) ++verified;
  }
  // Write-verify should almost always converge within the iteration budget.
  EXPECT_GT(verified, kTrials * 9 / 10);
}

TEST(MemristorCellTest, WriteIsSlowerThanRead) {
  const MemristorParams p = QuietParams();
  MemristorCell cell(p);
  Rng rng(3);
  const ProgramResult w = cell.Program(p, p.levels() - 1, rng);
  const ReadResult r = cell.Read(p, rng);
  EXPECT_GT(w.latency.ns, 5.0 * r.latency.ns);
}

TEST(MemristorCellTest, ResetSlowerThanSet) {
  // Asymmetric write latency (§VI): moving conductance down (RESET) costs
  // more than moving it up (SET).
  const MemristorParams p = QuietParams();
  Rng rng(4);
  MemristorCell up(p);
  const ProgramResult set = up.Program(p, p.levels() - 1, rng);  // from g_off up
  MemristorCell down(p);
  (void)down.Program(p, p.levels() - 1, rng);
  const ProgramResult reset = down.Program(p, 0, rng);  // from g_on down
  EXPECT_GT(reset.latency.ns, set.latency.ns);
}

TEST(MemristorCellTest, ReadNoiseIsMultiplicative) {
  MemristorParams p = QuietParams();
  p.read_noise_sigma = 0.05;
  MemristorCell cell(p);
  Rng rng(5);
  (void)cell.Program(p, p.levels() - 1, rng);
  double lo = 1e9, hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double g = cell.Read(p, rng).conductance_siemens;
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_LT(lo, cell.true_conductance());
  EXPECT_GT(hi, cell.true_conductance());
  // Spread should be roughly +-20% at sigma=0.05 (4 sigma), not wild.
  EXPECT_GT(lo, cell.true_conductance() * 0.7);
  EXPECT_LT(hi, cell.true_conductance() * 1.4);
}

TEST(MemristorCellTest, StuckFaultsPinTheReadValue) {
  const MemristorParams p = QuietParams();
  Rng rng(6);
  MemristorCell cell(p);
  (void)cell.Program(p, 1, rng);
  cell.InjectFault(CellFault::kStuckOn);
  EXPECT_DOUBLE_EQ(cell.Read(p, rng).conductance_siemens, p.g_on_siemens);
  cell.InjectFault(CellFault::kStuckOff);
  EXPECT_DOUBLE_EQ(cell.Read(p, rng).conductance_siemens, p.g_off_siemens);
}

TEST(MemristorCellTest, ProgrammingFaultedCellFailsVerification) {
  const MemristorParams p = QuietParams();
  Rng rng(7);
  MemristorCell cell(p);
  cell.InjectFault(CellFault::kStuckOff);
  const ProgramResult r = cell.Program(p, p.levels() - 1, rng);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.iterations, p.max_write_iterations);
}

TEST(MemristorCellTest, WearOutEventuallySticks) {
  MemristorParams p = QuietParams();
  p.endurance_cycles = 50;
  MemristorCell cell(p);
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    (void)cell.Program(p, i % p.levels(), rng);
    if (cell.fault() != CellFault::kNone) break;
  }
  EXPECT_NE(cell.fault(), CellFault::kNone);
  EXPECT_GT(cell.write_cycles(), 50u);
}

TEST(MemristorCellTest, DriftDecaysTowardGoff) {
  MemristorParams p = QuietParams();
  p.drift_nu = 0.05;
  MemristorCell cell(p);
  Rng rng(9);
  (void)cell.Program(p, p.levels() - 1, rng);
  const double before = cell.true_conductance();
  cell.Age(p, TimeNs::Seconds(1.0));
  const double after = cell.true_conductance();
  EXPECT_LT(after, before);
  EXPECT_GT(after, p.g_off_siemens);
  // More aging keeps decaying monotonically.
  cell.Age(p, TimeNs::Seconds(10.0));
  EXPECT_LT(cell.true_conductance(), after);
}

TEST(MemristorCellTest, ZeroAgingIsIdentity) {
  MemristorParams p = QuietParams();
  p.drift_nu = 0.05;
  MemristorCell cell(p);
  Rng rng(10);
  (void)cell.Program(p, 2, rng);
  const double before = cell.true_conductance();
  cell.Age(p, TimeNs(0.0));
  EXPECT_DOUBLE_EQ(cell.true_conductance(), before);
}

TEST(MemristorCellTest, EnergyAccountedPerOperation) {
  const MemristorParams p = QuietParams();
  MemristorCell cell(p);
  Rng rng(11);
  const ProgramResult w = cell.Program(p, p.levels() - 1, rng);
  EXPECT_GT(w.energy.pj, 0.0);
  // At g_on the read costs the full specified read energy.
  const ReadResult r = cell.Read(p, rng);
  EXPECT_DOUBLE_EQ(r.energy.pj, p.read_energy.pj);
  EXPECT_GT(w.energy.pj, r.energy.pj);
}

TEST(MemristorCellTest, ReadEnergyScalesWithConductance) {
  // Ohmic read: a cell at g_off draws ~1000x less than one at g_on.
  const MemristorParams p = QuietParams();
  Rng rng(12);
  MemristorCell on_cell(p);
  (void)on_cell.Program(p, p.levels() - 1, rng);
  MemristorCell off_cell(p);
  (void)off_cell.Program(p, 0, rng);
  EXPECT_GT(on_cell.Read(p, rng).energy.pj,
            100.0 * off_cell.Read(p, rng).energy.pj);
}

}  // namespace
}  // namespace cim::device
