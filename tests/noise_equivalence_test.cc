// Statistical-equivalence differential suite for KernelPolicy::kFastNoise.
//
// The bit-exact kernels get a bit-identity differential suite
// (mvm_kernel_test.cc); the fast-noise kernel's contract is distributional,
// so this suite gates it the way the bench does:
//   1. factor level   — KS + moment tests of NoiseModel::FillFactors output
//                       against the contract LogNormal(0, sigma), drawn in
//                       row-sized chunks exactly as the crossbar draws them;
//   2. kernel level   — noisy MVM outputs stay centred on the quiet
//                       reference outputs (the noise perturbs, never
//                       biases);
//   3. network level  — end-to-end DPE top-1 agreement with the golden
//                       digital model matches the bit-exact kernel's.
// Plus pinned accuracy checks for the detail:: building blocks the noise
// tile is constructed from, and checks that the one shared tile per sigma
// is keyed correctly, keeps its pinned bits, and is race-free to construct.
// The kFastBitExact certified path's polynomial factors get their own
// checks: within kApproxRelError / 100 of libm over 10^6 stream draws and
// at the Box-Muller edge inputs, with the stream advanced exactly as the
// libm fill advances it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crossbar/mvm_engine.h"
#include "device/noise_model.h"
#include "dpe/accelerator.h"
#include "nn/network.h"
#include "stat_utils.h"

namespace cim {
namespace {

using device::KernelPolicy;
using device::NoiseModel;

constexpr double kSigma = 0.02;
constexpr std::size_t kRow = 128;  // factors per draw, as the kernels draw

std::vector<double> DrawFactors(const NoiseModel& model, std::uint64_t seed,
                                std::size_t n) {
  Rng rng(seed);
  std::vector<double> factors(n);
  for (std::size_t base = 0; base < n; base += kRow) {
    const std::size_t m = std::min(kRow, n - base);
    model.FillFactors(rng, factors.data() + base, m);
  }
  return factors;
}

// FNV-1a over the bit patterns of `values`: pins exact doubles, not
// approximate ones.
std::uint64_t Fnv1a(const std::vector<double>& values) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash;
}

TEST(NoiseEquivalence, FastNoiseFactorsPassKsAndMomentGate) {
  const NoiseModel model(kSigma, KernelPolicy::kFastNoise);
  const auto factors = DrawFactors(model, 0xE0A1, 200'000);
  const auto report = model.CheckEquivalence(factors);
  EXPECT_TRUE(report.ks_pass)
      << "KS " << report.ks_statistic << " > " << report.ks_threshold;
  EXPECT_TRUE(report.moments_pass)
      << "mean_log " << report.mean_log << " (bound " << report.mean_log_bound
      << "), var_log " << report.var_log << " vs " << kSigma * kSigma
      << " (bound " << report.var_log_bound << ")";
}

TEST(NoiseEquivalence, GateAgreesWithStatUtilsHelpers) {
  // CheckEquivalence and the reusable helpers must be the same test; gate
  // divergence here means one of them drifted.
  const NoiseModel model(kSigma, KernelPolicy::kFastNoise);
  const auto factors = DrawFactors(model, 0xE0A2, 100'000);
  const auto report = model.CheckEquivalence(factors);
  const double d = stat_utils::KsStatistic(factors, [](double x) {
    return NoiseModel::LogNormalCdf(x, 0.0, kSigma);
  });
  EXPECT_NEAR(report.ks_statistic, d, 1e-12);
  EXPECT_NEAR(report.ks_threshold, stat_utils::KsThreshold(factors.size()),
              1e-12);
  std::vector<double> logs(factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    logs[i] = std::log(factors[i]);
  }
  const auto check =
      stat_utils::CheckNormalMoments(stat_utils::Moments(logs), 0.0, kSigma);
  EXPECT_EQ(report.moments_pass, check.pass());
}

TEST(NoiseEquivalence, GateRejectsWrongSigma) {
  // The gate must have teeth: factors drawn at a 10% inflated sigma fail
  // the same check the fast-noise kernel passes.
  const NoiseModel wrong(1.1 * kSigma, KernelPolicy::kFastNoise);
  const auto factors = DrawFactors(wrong, 0xE0A3, 200'000);
  const NoiseModel contract(kSigma, KernelPolicy::kFastNoise);
  EXPECT_FALSE(contract.CheckEquivalence(factors).pass());
}

TEST(NoiseEquivalence, BitExactPoliciesReproduceReferenceStream) {
  // kReference and kFastBitExact share FillFactors' libm path: identical
  // draws from identical RNG state, the heart of the bit-identity contract.
  const NoiseModel reference(kSigma, KernelPolicy::kReference);
  const NoiseModel fast(kSigma, KernelPolicy::kFastBitExact);
  const auto a = DrawFactors(reference, 0xE0A4, 4096);
  const auto b = DrawFactors(fast, 0xE0A4, 4096);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(reference.bit_exact());
  EXPECT_TRUE(fast.bit_exact());
  EXPECT_FALSE(NoiseModel(kSigma, KernelPolicy::kFastNoise).bit_exact());
}

// The largest |approx / exact - 1| over factors filled line by line from
// twin streams, FillFactorsApprox against FillFactors, plus a check that
// both fills leave the stream at the same place after every line.
double MaxApproxRelError(double sigma, std::uint64_t seed, std::size_t lines,
                         std::size_t sensed, std::size_t line) {
  const NoiseModel model(sigma, KernelPolicy::kFastBitExact);
  Rng exact_rng(seed);
  Rng approx_rng(seed);
  std::vector<double> exact(sensed);
  std::vector<double> approx(sensed);
  double worst = 0.0;
  for (std::size_t l = 0; l < lines; ++l) {
    model.FillFactors(exact_rng, exact.data(), sensed, line);
    model.FillFactorsApprox(approx_rng, approx.data(), sensed, line);
    EXPECT_EQ(exact_rng.has_cached_gaussian(),
              approx_rng.has_cached_gaussian());
    for (std::size_t i = 0; i < sensed; ++i) {
      worst = std::max(worst, std::abs(approx[i] / exact[i] - 1.0));
    }
  }
  EXPECT_EQ(exact_rng.NextU64(), approx_rng.NextU64());
  EXPECT_EQ(exact_rng.Gaussian(), approx_rng.Gaussian());
  return worst;
}

TEST(NoiseEquivalence, ApproxFactorsTrackLibmWithinBound) {
  // The certified bit-exact path is only as sound as kApproxRelError: over
  // 10^6 stream draws at the serving sigma and at the largest sigma the
  // approximate fill accepts, every polynomial factor must sit within 1% of
  // the bound. Odd sensed prefixes of even lines, odd lines and full lines
  // cover the cached-partner hand-offs between lines.
  constexpr double kLimit = NoiseModel::kApproxRelError / 100.0;
  for (const double sigma : {kSigma, NoiseModel::kApproxMaxSigma}) {
    // 7813 lines of 128: just over 10^6 factors.
    EXPECT_LE(MaxApproxRelError(sigma, 0xA991, 7813, 128, 128), kLimit)
        << "sigma=" << sigma;
    EXPECT_LE(MaxApproxRelError(sigma, 0xA992, 4000, 11, 128), kLimit)
        << "sigma=" << sigma;
    EXPECT_LE(MaxApproxRelError(sigma, 0xA993, 4000, 23, 23), kLimit)
        << "sigma=" << sigma;
    EXPECT_LE(MaxApproxRelError(sigma, 0xA994, 100, 0, 7), 0.0)
        << "sigma=" << sigma;
  }
}

TEST(NoiseEquivalence, ApproxFactorPairHoldsAtEdgeInputs) {
  // Edges of the Box-Muller domain at sigma = 1: the smallest u1 a 53-bit
  // draw can take (largest radius, |z| ~ 8.6), u1 just below 1 (radius
  // ~1.5e-8), and u2 on and one ulp either side of every quadrant boundary
  // of the angle, where the sin/cos reduction switches quadrant.
  constexpr double kLimit = NoiseModel::kApproxRelError / 100.0;
  const double sigma = NoiseModel::kApproxMaxSigma;
  const std::vector<double> u1s = {0x1p-53, 0x1p-52, 0.5, std::sqrt(0.5),
                                   1.0 - 0x1p-53};
  std::vector<double> u2s = {0.0, 0x1p-53, 1.0 - 0x1p-53};
  for (const double boundary : {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}) {
    u2s.push_back(std::nextafter(boundary, 0.0));
    u2s.push_back(boundary);
    u2s.push_back(std::nextafter(boundary, 1.0));
  }
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      const double radius = Rng::BoxMullerRadius(u1);
      const double angle = Rng::BoxMullerAngle(u2);
      const std::array<double, 2> approx =
          device::detail::ApproxFactorPair(sigma, u1, u2);
      const double exact_cos = std::exp(sigma * (radius * std::cos(angle)));
      const double exact_sin = std::exp(sigma * (radius * std::sin(angle)));
      EXPECT_LE(std::abs(approx[0] / exact_cos - 1.0), kLimit)
          << "u1=" << u1 << " u2=" << u2;
      EXPECT_LE(std::abs(approx[1] / exact_sin - 1.0), kLimit)
          << "u1=" << u1 << " u2=" << u2;
    }
  }
}

TEST(NoiseEquivalence, TileWraparoundAndDeterminism) {
  const NoiseModel model(kSigma, KernelPolicy::kFastNoise);
  // A draw longer than the tile must wrap and stay within the lognormal
  // support.
  Rng rng(0xE0A5);
  std::vector<double> factors(NoiseModel::kTileSize + 1000);
  model.FillFactors(rng, factors.data(), factors.size());
  for (const double f : factors) {
    ASSERT_TRUE(std::isfinite(f));
    ASSERT_GT(f, 0.0);
  }
  // Same rng seed => same rotation => identical factors (determinism), and
  // the call consumes exactly one u64 of rng state.
  Rng replay(0xE0A5);
  std::vector<double> again(factors.size());
  model.FillFactors(replay, again.data(), again.size());
  EXPECT_EQ(factors, again);
  // The call consumes exactly one u64 of rng state (the rotation draw).
  Rng manual(0xE0A5);
  manual.NextU64();
  EXPECT_EQ(rng.NextU64(), manual.NextU64());
}

TEST(NoiseEquivalence, SharedTilesAreKeyedBySigma) {
  // Models at different sigmas interleaved with each other (and a copy)
  // must each serve their own sigma's tile: the same factors, for a fixed
  // rng seed, as a model built alone at that sigma, and factors that pass
  // the contract gate at that sigma.
  constexpr double kOther = 0.05;
  const NoiseModel first(kSigma, KernelPolicy::kFastNoise);
  const NoiseModel other(kOther, KernelPolicy::kFastNoise);
  const NoiseModel second(kSigma, KernelPolicy::kFastNoise);
  const NoiseModel copy = other;  // shares other's tile
  const auto alone = [](double sigma) {
    return DrawFactors(NoiseModel(sigma, KernelPolicy::kFastNoise), 0xE0AA,
                       200'000);
  };
  const auto alone_sigma = alone(kSigma);
  const auto alone_other = alone(kOther);
  EXPECT_NE(alone_sigma, alone_other);
  for (const NoiseModel* model : {&first, &other, &second, &copy}) {
    const auto factors = DrawFactors(*model, 0xE0AA, 200'000);
    EXPECT_EQ(factors, model->sigma() == kSigma ? alone_sigma : alone_other)
        << "sigma " << model->sigma();
    EXPECT_TRUE(model->CheckEquivalence(factors).pass())
        << "sigma " << model->sigma();
  }
}

TEST(NoiseEquivalence, SharedTileKeepsPinnedBits) {
  // One 4,096-factor window at a fixed seed and sigma, checksummed bit for
  // bit. The value was recorded when every model still built a private
  // tile, so it pins the shared tile to the same lattice, shuffle and
  // rotation draw.
  const NoiseModel model(0.05, KernelPolicy::kFastNoise);
  Rng rng(0xE0A9);
  std::vector<double> window(4096);
  model.FillFactors(rng, window.data(), window.size());
  EXPECT_EQ(Fnv1a(window), 0x2CD1467BF7C39583ULL);
}

TEST(NoiseEquivalence, ConcurrentConstructionMatchesSerial) {
  // Every worker of a 4-thread pool builds models for several sigmas at
  // once (sigmas no other test uses, so the first builds race each other
  // in the memo); each must draw exactly the factors a serially built model
  // draws. Under the tsan preset this also checks the memo's locking.
  const std::vector<double> sigmas = {0.031, 0.047, 0.063, 0.079};
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kDraw = 4096;
  std::vector<std::vector<double>> parallel(kTasks);
  {
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [&](std::size_t task) {
      const NoiseModel model(sigmas[task % sigmas.size()],
                             KernelPolicy::kFastNoise);
      parallel[task] = DrawFactors(model, 0xE0AB + task, kDraw);
    });
  }
  for (std::size_t task = 0; task < kTasks; ++task) {
    const NoiseModel serial(sigmas[task % sigmas.size()],
                            KernelPolicy::kFastNoise);
    EXPECT_EQ(parallel[task], DrawFactors(serial, 0xE0AB + task, kDraw))
        << "task " << task;
  }
}

TEST(NoiseEquivalence, NoisyMvmStaysCentredOnQuietReference) {
  // Kernel level: over repeated noisy MVMs the per-output mean converges on
  // the quiet output (multiplicative noise with E[factor] ~ 1), for the
  // fast-noise kernel just as for the reference kernel.
  constexpr std::size_t kDim = 64;
  crossbar::MvmEngineParams params;
  params.array.rows = kDim;
  params.array.cols = kDim;
  params.array.cell.read_noise_sigma = 0.0;

  Rng data_rng(0xE0A6);
  std::vector<double> weights(kDim * kDim);
  for (auto& w : weights) w = data_rng.Uniform(-1.0, 1.0);
  std::vector<double> input(kDim);
  for (auto& v : input) v = data_rng.Uniform(0.0, 1.0);

  const auto quiet_out = [&] {
    auto engine =
        crossbar::MvmEngine::Create(params, kDim, kDim, Rng(0xE0A7));
    EXPECT_TRUE(engine.ok());
    EXPECT_TRUE(engine->ProgramWeights(weights).ok());
    auto result = engine->Compute(input);
    EXPECT_TRUE(result.ok());
    return result->y;
  }();

  for (const KernelPolicy policy :
       {KernelPolicy::kReference, KernelPolicy::kFastNoise}) {
    auto noisy = params;
    noisy.array.cell.read_noise_sigma = kSigma;
    noisy.array.kernel = policy;
    auto engine =
        crossbar::MvmEngine::Create(noisy, kDim, kDim, Rng(0xE0A7));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->ProgramWeights(weights).ok());
    constexpr int kTrials = 64;
    std::vector<double> mean(kDim, 0.0);
    for (int t = 0; t < kTrials; ++t) {
      auto result = engine->Compute(input);
      ASSERT_TRUE(result.ok());
      for (std::size_t i = 0; i < mean.size(); ++i) {
        mean[i] += result->y[i] / kTrials;
      }
    }
    double rms_dev = 0.0, rms_ref = 0.0;
    for (std::size_t i = 0; i < mean.size(); ++i) {
      rms_dev += (mean[i] - quiet_out[i]) * (mean[i] - quiet_out[i]);
      rms_ref += quiet_out[i] * quiet_out[i];
    }
    // Averaged noisy outputs land within a few percent of quiet outputs;
    // a biased sampler would leave a persistent offset here.
    EXPECT_LT(std::sqrt(rms_dev), 0.05 * std::sqrt(rms_ref))
        << device::KernelPolicyName(policy);
  }
}

TEST(NoiseEquivalence, FastNoiseDpeKeepsTopOneAgreement) {
  // Network level, mirroring Integration.NoisyDpeKeepsTopOneAgreement: the
  // fast-noise kernel must classify like the golden model as often as the
  // bit-exact kernel does.
  Rng rng(3);
  const nn::Network net = nn::BuildMlp("cls", {24, 32, 6}, rng, 0.3);
  int agreement[2] = {0, 0};
  const KernelPolicy policies[2] = {KernelPolicy::kFastBitExact,
                                    KernelPolicy::kFastNoise};
  constexpr int kTrials = 20;
  for (int which = 0; which < 2; ++which) {
    dpe::DpeParams params = dpe::DpeParams::Isaac();
    params.array.cell.read_noise_sigma = kSigma;
    params.array.kernel = policies[which];
    auto acc = dpe::DpeAccelerator::Create(params, net, Rng(4));
    ASSERT_TRUE(acc.ok());
    Rng input_rng(0xE0A8);
    for (int t = 0; t < kTrials; ++t) {
      nn::Tensor input({24});
      for (auto& v : input.vec()) v = input_rng.Uniform(0.0, 1.0);
      auto golden = nn::Forward(net, input);
      auto analog = (*acc)->Infer(input);
      ASSERT_TRUE(golden.ok());
      ASSERT_TRUE(analog.ok());
      const auto argmax = [](const nn::Tensor& tensor) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < tensor.size(); ++i) {
          if (tensor[i] > tensor[best]) best = i;
        }
        return best;
      };
      if (argmax(*golden) == argmax(analog->output)) ++agreement[which];
    }
  }
  EXPECT_GE(agreement[1], kTrials * 3 / 4) << "fast-noise agreement too low";
  // Parity with the bit-exact kernel within a small band, not just a floor.
  EXPECT_LE(std::abs(agreement[0] - agreement[1]), kTrials / 4);
}

TEST(NoiseEquivalence, DetailBuildingBlocksArePinned) {
  // InverseNormalCdf: spot values of Phi^-1 (Acklam accuracy ~1.15e-9,
  // checked at 1e-7 to stay far from the approximation's noise floor).
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.975), 1.959964, 1e-6);
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.025), -1.959964, 1e-6);
  EXPECT_NEAR(device::detail::InverseNormalCdf(0.001), -3.090232, 1e-5);
  // FastExp against libm over its documented domain and bound.
  for (double x = -16.0; x <= 16.0; x += 0.37) {
    EXPECT_NEAR(device::detail::FastExp(x), std::exp(x),
                1e-14 * std::exp(x));
  }
  // CounterUniform: deterministic, in (0, 1), and stream-separated.
  const double u = device::detail::CounterUniform(7, 9);
  EXPECT_EQ(u, device::detail::CounterUniform(7, 9));
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_NE(u, device::detail::CounterUniform(8, 9));
}

}  // namespace
}  // namespace cim
