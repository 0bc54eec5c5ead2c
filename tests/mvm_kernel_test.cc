// Differential tests for the SoA fast-path analog kernels.
//
// Every suite here runs the same computation through the fast
// (structure-of-arrays) kernel (KernelPolicy::kFastBitExact) and the
// reference (per-cell) kernel kept behind KernelPolicy::kReference, and
// demands *bit-identical* logical outputs: y, guard verdicts, raw column
// codes. (KernelPolicy::kFastNoise carries a statistical contract instead
// — see noise_equivalence_test.cc.) Only cycle energy
// may differ (the fast path sums read energy analytically per row), and
// only in the last ulps. The mirror-invalidation suites separately pin
// that every mutation kind (program, reprogram, single-cell program, age,
// fault) is visible to the cached conductance mirror by comparing cycles
// against IdealColumnCurrents, which is computed off the cells directly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crossbar/crossbar.h"
#include "crossbar/mvm_engine.h"

namespace cim::crossbar {
namespace {

constexpr std::uint64_t kSeed = 0xC1D4'57A6ULL;

MvmEngineParams NoisyEngineParams(device::KernelPolicy kernel, bool guard) {
  MvmEngineParams p;
  p.array.rows = 32;
  p.array.cols = 32;
  p.array.kernel = kernel;
  p.guard_column = guard;
  // Defaults keep read noise on (sigma 0.02): the differential contract is
  // about the noise stream above all else.
  return p;
}

std::vector<double> RandomWeights(std::size_t n, Rng& rng) {
  std::vector<double> w(n);
  for (double& v : w) v = rng.Uniform(-1.0, 1.0);
  return w;
}

std::vector<double> RandomInput(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  return x;
}

// A fast/reference engine pair built from identical seeds with identical
// programmed weights — everything but the kernel twin matches.
struct EnginePair {
  MvmEngine fast;
  MvmEngine reference;
};

EnginePair MakeTwins(bool guard, std::size_t in_dim, std::size_t out_dim) {
  auto fast = MvmEngine::Create(
      NoisyEngineParams(device::KernelPolicy::kFastBitExact, guard), in_dim,
      out_dim, Rng(kSeed));
  auto reference = MvmEngine::Create(
      NoisyEngineParams(device::KernelPolicy::kReference, guard), in_dim,
      out_dim, Rng(kSeed));
  EXPECT_TRUE(fast.ok() && reference.ok());
  Rng wrng(kSeed + 1);
  const std::vector<double> w = RandomWeights(in_dim * out_dim, wrng);
  EXPECT_TRUE(fast->ProgramWeights(w).ok());
  EXPECT_TRUE(reference->ProgramWeights(w).ok());
  return EnginePair{std::move(fast.value()), std::move(reference.value())};
}

void ExpectBitIdentical(const MvmResult& a, const MvmResult& b) {
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.y.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]) << "y[" << i << "] diverged";
  }
  EXPECT_EQ(a.guard_checked, b.guard_checked);
  EXPECT_EQ(a.guard_ok, b.guard_ok);
  EXPECT_EQ(a.guard_residual, b.guard_residual);
  EXPECT_EQ(a.guard_threshold, b.guard_threshold);
  EXPECT_EQ(a.cost.latency_ns, b.cost.latency_ns);
  EXPECT_EQ(a.cost.operations, b.cost.operations);
  // Energy is the one sanctioned divergence: analytic per-row sums vs
  // per-cell accumulation reorder the same additions.
  EXPECT_NEAR(a.cost.energy_pj, b.cost.energy_pj,
              1e-9 * std::abs(b.cost.energy_pj));
}

TEST(KernelDifferentialTest, ForwardBitIdentical) {
  EnginePair twins = MakeTwins(/*guard=*/false, 24, 20);
  Rng in_rng(kSeed + 2);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, ForwardBitIdenticalWithGuardColumn) {
  EnginePair twins = MakeTwins(/*guard=*/true, 24, 20);
  Rng in_rng(kSeed + 3);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    EXPECT_TRUE(fast->guard_checked);
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, ForwardBitIdenticalUnderFaultsAndAging) {
  EnginePair twins = MakeTwins(/*guard=*/true, 24, 20);
  auto corrupt = [](MvmEngine& engine) {
    engine.InjectCellFaultAllSlices(0, 3, 7, device::CellFault::kStuckOn);
    engine.InjectCellFaultAllSlices(1, 9, 2, device::CellFault::kStuckOff);
    engine.InjectCellFault(0, 0, 15, 15, device::CellFault::kStuckOn);
    engine.Age(TimeNs::Micros(50.0));
  };
  corrupt(twins.fast);
  corrupt(twins.reference);
  Rng in_rng(kSeed + 4);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.Compute(x, &fast_rng);
    auto reference = twins.reference.Compute(x, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
    // The transpose read of the same corrupted twins: the reference walk
    // strides down the columns of the row-major grid, the fast walk reads
    // the transposed mirror, and both must see the faults and the drift.
    std::vector<double> e(20);
    for (double& v : e) v = in_rng.Uniform(-1.0, 1.0);
    auto fast_t = twins.fast.ComputeTranspose(e, &fast_rng);
    auto reference_t = twins.reference.ComputeTranspose(e, &ref_rng);
    ASSERT_TRUE(fast_t.ok() && reference_t.ok());
    ExpectBitIdentical(*fast_t, *reference_t);
  }
}

TEST(KernelDifferentialTest, TransposeBitIdentical) {
  EnginePair twins = MakeTwins(/*guard=*/false, 24, 20);
  twins.fast.InjectCellFaultAllSlices(1, 5, 5, device::CellFault::kStuckOff);
  twins.reference.InjectCellFaultAllSlices(1, 5, 5,
                                           device::CellFault::kStuckOff);
  Rng in_rng(kSeed + 5);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> e(20);
    for (double& v : e) v = in_rng.Uniform(-1.0, 1.0);
    Rng fast_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    Rng ref_rng(DeriveSeed(kSeed, static_cast<std::uint64_t>(trial)));
    auto fast = twins.fast.ComputeTranspose(e, &fast_rng);
    auto reference = twins.reference.ComputeTranspose(e, &ref_rng);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
  }
}

TEST(KernelDifferentialTest, InternalNoiseStreamsStayInLockstep) {
  // With no external Rng the kernels draw from each crossbar's internal
  // stream; consecutive calls must advance the fast and reference streams
  // identically or the paths drift apart over time.
  EnginePair twins = MakeTwins(/*guard=*/false, 24, 20);
  Rng in_rng(kSeed + 6);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<double> x = RandomInput(24, in_rng);
    auto fast = twins.fast.Compute(x);
    auto reference = twins.reference.Compute(x);
    ASSERT_TRUE(fast.ok() && reference.ok());
    ExpectBitIdentical(*fast, *reference);
    std::vector<double> e(20);
    for (double& v : e) v = in_rng.Uniform(-1.0, 1.0);
    auto fast_t = twins.fast.ComputeTranspose(e);
    auto reference_t = twins.reference.ComputeTranspose(e);
    ASSERT_TRUE(fast_t.ok() && reference_t.ok());
    ExpectBitIdentical(*fast_t, *reference_t);
  }
}

// -- Raw crossbar codes -----------------------------------------------------

CrossbarParams NoisyArrayParams(device::KernelPolicy kernel) {
  CrossbarParams p;
  p.rows = 24;
  p.cols = 20;
  p.kernel = kernel;
  return p;
}

std::vector<std::uint64_t> RandomLevels(const CrossbarParams& p, Rng& rng) {
  std::vector<std::uint64_t> levels(p.rows * p.cols);
  for (auto& l : levels) {
    l = static_cast<std::uint64_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(p.cell.levels()) - 1));
  }
  return levels;
}

TEST(KernelDifferentialTest, RawCycleColumnCodesBitIdentical) {
  auto fast = Crossbar::Create(
      NoisyArrayParams(device::KernelPolicy::kFastBitExact), Rng(kSeed));
  auto reference = Crossbar::Create(
      NoisyArrayParams(device::KernelPolicy::kReference), Rng(kSeed));
  ASSERT_TRUE(fast.ok() && reference.ok());
  Rng lrng(kSeed + 7);
  const auto levels = RandomLevels(fast->params(), lrng);
  ASSERT_TRUE(fast->ProgramLevels(levels).ok());
  ASSERT_TRUE(reference->ProgramLevels(levels).ok());
  fast->InjectCellFault(2, 3, device::CellFault::kStuckOn);
  reference->InjectCellFault(2, 3, device::CellFault::kStuckOn);

  std::vector<std::uint64_t> row_codes(fast->rows(), 0);
  for (std::size_t r = 0; r < row_codes.size(); r += 2) row_codes[r] = 1;
  // Partial column gating: the noise stream still covers every column of an
  // active row, but only the sensed prefix is computed, so codes for that
  // prefix must match exactly.
  for (std::size_t active_cols : {std::size_t{0}, std::size_t{7}}) {
    Rng fast_rng(DeriveSeed(kSeed, active_cols));
    Rng ref_rng(DeriveSeed(kSeed, active_cols));
    auto f = fast->Cycle(row_codes, active_cols, &fast_rng);
    auto r = reference->Cycle(row_codes, active_cols, &ref_rng);
    ASSERT_TRUE(f.ok() && r.ok());
    EXPECT_EQ(f->column_codes, r->column_codes);
    EXPECT_EQ(f->cost.latency_ns, r->cost.latency_ns);
    EXPECT_EQ(f->cost.operations, r->cost.operations);
  }

  std::vector<std::uint64_t> col_codes(fast->cols(), 0);
  for (std::size_t c = 0; c < col_codes.size(); c += 3) col_codes[c] = 1;
  for (std::size_t active_rows : {std::size_t{0}, std::size_t{11}}) {
    Rng fast_rng(DeriveSeed(kSeed + 1, active_rows));
    Rng ref_rng(DeriveSeed(kSeed + 1, active_rows));
    auto f = fast->CycleTranspose(col_codes, active_rows, &fast_rng);
    auto r = reference->CycleTranspose(col_codes, active_rows, &ref_rng);
    ASSERT_TRUE(f.ok() && r.ok());
    EXPECT_EQ(f->column_codes, r->column_codes);
  }
}

TEST(KernelDifferentialTest, GatedCyclesKeepTheStreamAligned) {
  // The fast kernel computes factors only for the sensed prefix and skips
  // the rest of each driven line's draws. Odd line lengths in both
  // directions leave a Box-Muller partner cached across line boundaries,
  // and back-to-back cycles on one stream make any skip that lands on the
  // wrong position show up in the next cycle's codes.
  auto make = [](device::KernelPolicy kernel) {
    CrossbarParams p = NoisyArrayParams(kernel);
    p.rows = 23;
    p.cols = 21;
    p.adc.bits = 12;  // fine codes: a shifted noise draw moves a code
    return Crossbar::Create(p, Rng(kSeed));
  };
  auto fast = make(device::KernelPolicy::kFastBitExact);
  auto reference = make(device::KernelPolicy::kReference);
  ASSERT_TRUE(fast.ok() && reference.ok());
  Rng lrng(kSeed + 11);
  const auto levels = RandomLevels(fast->params(), lrng);
  ASSERT_TRUE(fast->ProgramLevels(levels).ok());
  ASSERT_TRUE(reference->ProgramLevels(levels).ok());

  const std::vector<std::size_t> widths = {1, 2, 7, 20, 0};
  Rng drive_rng(kSeed + 12);
  auto random_drive = [&drive_rng](std::size_t n) {
    std::vector<std::uint64_t> codes(n);
    for (auto& code : codes) code = drive_rng.Bernoulli(0.6) ? 1 : 0;
    return codes;
  };
  // One external stream per side, then the internal stream (null).
  Rng fast_rng(DeriveSeed(kSeed, 21));
  Rng ref_rng(DeriveSeed(kSeed, 21));
  for (const bool external : {true, false}) {
    Rng* fast_stream = external ? &fast_rng : nullptr;
    Rng* ref_stream = external ? &ref_rng : nullptr;
    for (int round = 0; round < 2; ++round) {
      for (const std::size_t width : widths) {
        const auto row_codes = random_drive(fast->rows());
        auto f = fast->Cycle(row_codes, width, fast_stream);
        auto r = reference->Cycle(row_codes, width, ref_stream);
        ASSERT_TRUE(f.ok() && r.ok());
        EXPECT_EQ(f->column_codes, r->column_codes)
            << "forward, external=" << external << " width=" << width;
        const auto col_codes = random_drive(fast->cols());
        f = fast->CycleTranspose(col_codes, width, fast_stream);
        r = reference->CycleTranspose(col_codes, width, ref_stream);
        ASSERT_TRUE(f.ok() && r.ok());
        EXPECT_EQ(f->column_codes, r->column_codes)
            << "transpose, external=" << external << " width=" << width;
      }
    }
  }
  // The external streams end at the same position...
  EXPECT_EQ(fast_rng.NextU64(), ref_rng.NextU64());
  // ...and so do the internal ones: a trailing full-width cycle on each
  // still matches code for code.
  const std::vector<std::uint64_t> all_rows(fast->rows(), 1);
  auto f = fast->Cycle(all_rows);
  auto r = reference->Cycle(all_rows);
  ASSERT_TRUE(f.ok() && r.ok());
  EXPECT_EQ(f->column_codes, r->column_codes);
}

// -- Certified codes and the replay path -------------------------------------

TEST(CertifiedCodeTest, IntervalAtAMidpointIsAmbiguous) {
  // The acceptance test on its own: an interval straddling a rounding
  // midpoint of the ADC is ambiguous; one around a code centre certifies.
  AdcParams adc;
  adc.bits = 4;  // 15 steps of full scale
  const double full_scale = 1.0;
  const double midpoint = 2.5 / 15.0;  // halfway between codes 2 and 3
  const double centre = 2.0 / 15.0;
  const double radius = 1e-12;
  EXPECT_FALSE(adc.EncodeInterval(midpoint - radius, midpoint + radius, 1.0,
                                  full_scale)
                   .has_value());
  const auto code = adc.EncodeInterval(centre - radius, centre + radius, 1.0,
                                       full_scale);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, 2u);
  // Attenuation scales the interval before encoding: the centre of code 2
  // at half attenuation is the current that encodes to code 1's centre.
  const auto attenuated = adc.EncodeInterval(
      2.0 * (1.0 / 15.0) - radius, 2.0 * (1.0 / 15.0) + radius, 0.5,
      full_scale);
  ASSERT_TRUE(attenuated.has_value());
  EXPECT_EQ(*attenuated, 1u);
  // A degenerate interval is the plain encoder.
  EXPECT_EQ(adc.EncodeInterval(midpoint, midpoint, 1.0, full_scale),
            adc.Encode(midpoint, full_scale));
}

TEST(KernelDifferentialTest, AmbiguousCodesReplayAndMatchReference) {
  // Force the replay arm: every cell stuck on (so each line conducts g_on
  // exactly), IR drop off (attenuation exactly 1), a 4-bit ADC and 30 x 30
  // arrays driven on one line — each sensed current is 1/30 of full scale,
  // i.e. exactly halfway between codes 0 and 1 (0.5 of a 15-step code).
  // Read noise at sigma = 1e-12 moves the current ~1e-12 off the midpoint,
  // far inside the certification radius, so no code can be certified and
  // the cycle must replay on the exact sampler — and still agree with
  // kReference code for code and leave the stream where it leaves it.
  auto make = [](device::KernelPolicy kernel) {
    CrossbarParams p;
    p.rows = 30;
    p.cols = 30;
    p.kernel = kernel;
    p.cell.read_noise_sigma = 1e-12;
    p.ir_drop_alpha = 0.0;
    p.adc.bits = 4;
    auto xbar = Crossbar::Create(p, Rng(kSeed));
    EXPECT_TRUE(xbar.ok());
    for (std::size_t r = 0; r < p.rows; ++r) {
      for (std::size_t c = 0; c < p.cols; ++c) {
        xbar->InjectCellFault(r, c, device::CellFault::kStuckOn);
      }
    }
    return std::move(xbar.value());
  };
  Crossbar fast = make(device::KernelPolicy::kFastBitExact);
  Crossbar reference = make(device::KernelPolicy::kReference);

  std::vector<std::uint64_t> one_line(30, 0);
  one_line[17] = 1;
  ThreadCertificationTally() = {};
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng fast_rng(DeriveSeed(kSeed + 30, trial));
    Rng ref_rng(DeriveSeed(kSeed + 30, trial));
    auto f = fast.Cycle(one_line, 0, &fast_rng);
    auto r = reference.Cycle(one_line, 0, &ref_rng);
    ASSERT_TRUE(f.ok() && r.ok());
    EXPECT_EQ(f->column_codes, r->column_codes) << "forward trial " << trial;
    EXPECT_EQ(fast_rng.NextU64(), ref_rng.NextU64())
        << "forward trial " << trial;
    // Odd sensed widths leave a cached partner mid-line; the replay must
    // reproduce that too.
    f = fast.CycleTranspose(one_line, 29, &fast_rng);
    r = reference.CycleTranspose(one_line, 29, &ref_rng);
    ASSERT_TRUE(f.ok() && r.ok());
    EXPECT_EQ(f->column_codes, r->column_codes)
        << "transpose trial " << trial;
    EXPECT_EQ(fast_rng.NextU64(), ref_rng.NextU64())
        << "transpose trial " << trial;
  }
  const CertificationTally tally = ThreadCertificationTally();
  EXPECT_EQ(tally.cycles, 8u);
  EXPECT_EQ(tally.replays, 8u);
}

TEST(KernelDifferentialTest, CertifiedPathRunsOnlyForBitExactSmallSigma) {
  // The certified path is chosen by the device, not a knob: kFastBitExact
  // with 0 < sigma <= 1. Larger sigma, quiet devices and the other policies
  // never touch it; at the serving sigma codes certify without replay.
  auto cycles_for = [](device::KernelPolicy kernel, double sigma) {
    CrossbarParams p = NoisyArrayParams(kernel);
    p.cell.read_noise_sigma = sigma;
    auto xbar = Crossbar::Create(p, Rng(kSeed));
    EXPECT_TRUE(xbar.ok());
    Rng lrng(kSeed + 31);
    EXPECT_TRUE(xbar->ProgramLevels(RandomLevels(p, lrng)).ok());
    ThreadCertificationTally() = {};
    const std::vector<std::uint64_t> all_rows(p.rows, 1);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(xbar->Cycle(all_rows).ok());
    return ThreadCertificationTally();
  };
  const CertificationTally serving =
      cycles_for(device::KernelPolicy::kFastBitExact, 0.02);
  EXPECT_EQ(serving.cycles, 4u);
  EXPECT_EQ(serving.replays, 0u);
  EXPECT_EQ(cycles_for(device::KernelPolicy::kFastBitExact, 1.0).cycles, 4u);
  EXPECT_EQ(cycles_for(device::KernelPolicy::kFastBitExact, 1.5).cycles, 0u);
  EXPECT_EQ(cycles_for(device::KernelPolicy::kFastBitExact, 0.0).cycles, 0u);
  EXPECT_EQ(cycles_for(device::KernelPolicy::kReference, 0.02).cycles, 0u);
  EXPECT_EQ(cycles_for(device::KernelPolicy::kFastNoise, 0.02).cycles, 0u);
}

TEST(KernelDifferentialTest, LargeSigmaCodesStayBitIdentical) {
  // Both sides of the sigma = 1 gate — the largest certified sigma and one
  // past it on the exact sampler — keep the codes identical to kReference.
  for (const double sigma : {1.0, 1.5}) {
    auto make = [sigma](device::KernelPolicy kernel) {
      CrossbarParams p = NoisyArrayParams(kernel);
      p.cell.read_noise_sigma = sigma;
      p.adc.bits = 12;
      return Crossbar::Create(p, Rng(kSeed));
    };
    auto fast = make(device::KernelPolicy::kFastBitExact);
    auto reference = make(device::KernelPolicy::kReference);
    ASSERT_TRUE(fast.ok() && reference.ok());
    Rng lrng(kSeed + 32);
    const auto levels = RandomLevels(fast->params(), lrng);
    ASSERT_TRUE(fast->ProgramLevels(levels).ok());
    ASSERT_TRUE(reference->ProgramLevels(levels).ok());
    Rng fast_rng(DeriveSeed(kSeed, 33));
    Rng ref_rng(DeriveSeed(kSeed, 33));
    Rng drive_rng(kSeed + 34);
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint64_t> row_codes(fast->rows());
      for (auto& code : row_codes) code = drive_rng.Bernoulli(0.5) ? 1 : 0;
      auto f = fast->Cycle(row_codes, 0, &fast_rng);
      auto r = reference->Cycle(row_codes, 0, &ref_rng);
      ASSERT_TRUE(f.ok() && r.ok());
      EXPECT_EQ(f->column_codes, r->column_codes) << "sigma=" << sigma;
      std::vector<std::uint64_t> col_codes(fast->cols());
      for (auto& code : col_codes) code = drive_rng.Bernoulli(0.5) ? 1 : 0;
      f = fast->CycleTranspose(col_codes, 0, &fast_rng);
      r = reference->CycleTranspose(col_codes, 0, &ref_rng);
      ASSERT_TRUE(f.ok() && r.ok());
      EXPECT_EQ(f->column_codes, r->column_codes) << "sigma=" << sigma;
    }
    EXPECT_EQ(fast_rng.NextU64(), ref_rng.NextU64()) << "sigma=" << sigma;
  }
}

// -- Conductance-mirror invalidation matrix ---------------------------------

CrossbarParams MirrorParams() {
  CrossbarParams p;
  p.rows = 16;
  p.cols = 16;
  p.cell.read_noise_sigma = 0.0;
  p.cell.write_noise_sigma = 0.0;
  p.cell.endurance_cycles = 0;
  p.ir_drop_alpha = 0.0;
  p.adc.bits = 12;
  return p;
}

// With noise, IR drop and write noise all off, a cycle's sensed codes are a
// pure function of the cells — so a stale mirror entry after any mutation
// produces a code mismatch against IdealColumnCurrents (which reads the
// cells directly, never the mirror).
void ExpectCyclesMatchIdeal(Crossbar& xbar,
                            std::span<const std::uint64_t> row_codes,
                            const char* context) {
  auto cycle = xbar.Cycle(row_codes);
  ASSERT_TRUE(cycle.ok()) << context;
  const std::vector<double> ideal = xbar.IdealColumnCurrents(row_codes);
  const double full_scale = xbar.FullScaleCurrent();
  for (std::size_t c = 0; c < xbar.cols(); ++c) {
    EXPECT_EQ(cycle->column_codes[c],
              xbar.params().adc.Encode(ideal[c], full_scale))
        << context << ", column " << c;
  }
}

TEST(MirrorInvalidationTest, EveryMutationKindRefreshesTheMirror) {
  auto created = Crossbar::Create(MirrorParams(), Rng(kSeed));
  ASSERT_TRUE(created.ok());
  Crossbar& xbar = created.value();
  std::vector<std::uint64_t> all_rows(xbar.rows(), 1);

  // Freshly constructed (every cell at g_off).
  ExpectCyclesMatchIdeal(xbar, all_rows, "after construction");

  // Full program.
  Rng lrng(kSeed + 8);
  auto levels = RandomLevels(xbar.params(), lrng);
  ASSERT_TRUE(xbar.ProgramLevels(levels).ok());
  ExpectCyclesMatchIdeal(xbar, all_rows, "after ProgramLevels");

  // Full reprogram to different levels.
  for (auto& l : levels) l = xbar.params().cell.levels() - 1 - l;
  ASSERT_TRUE(xbar.ProgramLevels(levels).ok());
  ExpectCyclesMatchIdeal(xbar, all_rows, "after reprogram");

  // Single-cell program.
  ASSERT_TRUE(xbar.ProgramCell(3, 5, 0).ok());
  ASSERT_TRUE(xbar.ProgramCell(3, 5, xbar.params().cell.levels() - 1).ok());
  ExpectCyclesMatchIdeal(xbar, all_rows, "after ProgramCell");

  // Aging drifts every cell.
  xbar.Age(TimeNs::Micros(100.0));
  ExpectCyclesMatchIdeal(xbar, all_rows, "after Age");

  // Fault injection and clearing.
  xbar.InjectCellFault(7, 7, device::CellFault::kStuckOn);
  xbar.InjectCellFault(1, 9, device::CellFault::kStuckOff);
  ExpectCyclesMatchIdeal(xbar, all_rows, "after InjectCellFault");
  xbar.InjectCellFault(7, 7, device::CellFault::kNone);
  ExpectCyclesMatchIdeal(xbar, all_rows, "after fault clear");
}

TEST(MirrorInvalidationTest, PartialDrivesSeeSingleCellUpdates) {
  auto created = Crossbar::Create(MirrorParams(), Rng(kSeed));
  ASSERT_TRUE(created.ok());
  Crossbar& xbar = created.value();
  Rng lrng(kSeed + 9);
  ASSERT_TRUE(xbar.ProgramLevels(RandomLevels(xbar.params(), lrng)).ok());

  std::vector<std::uint64_t> one_row(xbar.rows(), 0);
  one_row[4] = 1;
  ExpectCyclesMatchIdeal(xbar, one_row, "single driven row, pre-update");
  ASSERT_TRUE(xbar.ProgramCell(4, 0, 0).ok());
  xbar.InjectCellFault(4, 1, device::CellFault::kStuckOn);
  ExpectCyclesMatchIdeal(xbar, one_row, "single driven row, post-update");
}

// -- Concurrency contract for the transpose direction -----------------------

TEST(TransposeConcurrencyTest, ExternalRngKeepsConcurrentBackwardBitIdentical) {
  // One shared engine; every worker runs the backward pass with its own
  // derived noise stream. With an external Rng, CycleTranspose mutates no
  // crossbar state, so concurrent calls must be race-free (TSan runs this
  // suite) and bit-identical to the serial execution.
  auto created = MvmEngine::Create(
      NoisyEngineParams(device::KernelPolicy::kFastBitExact, false), 24, 20,
      Rng(kSeed));
  ASSERT_TRUE(created.ok());
  MvmEngine& engine = created.value();
  Rng wrng(kSeed + 10);
  ASSERT_TRUE(engine.ProgramWeights(RandomWeights(24 * 20, wrng)).ok());

  constexpr std::size_t kCalls = 16;
  std::vector<std::vector<double>> errors(kCalls, std::vector<double>(20));
  Rng erng(kSeed + 11);
  for (auto& e : errors) {
    for (double& v : e) v = erng.Uniform(-1.0, 1.0);
  }

  std::vector<std::vector<double>> serial(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    Rng rng(DeriveSeed(kSeed + 12, i));
    auto result = engine.ComputeTranspose(errors[i], &rng);
    ASSERT_TRUE(result.ok());
    serial[i] = result->y;
  }

  ThreadPool pool(4);
  std::vector<std::vector<double>> parallel(kCalls);
  pool.ParallelFor(kCalls, [&](std::size_t i) {
    Rng rng(DeriveSeed(kSeed + 12, i));
    auto result = engine.ComputeTranspose(errors[i], &rng);
    ASSERT_TRUE(result.ok());
    parallel[i] = result->y;
  });
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "call " << i;
  }
}

}  // namespace
}  // namespace cim::crossbar
