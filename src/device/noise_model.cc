#include "device/noise_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numbers>

#include "common/contracts.h"

namespace cim::device {
namespace {

// Acklam's inverse-normal-CDF rational approximations (central region and
// tails), relative error ~1.15e-9 — far below the resolution of any
// distributional gate this sampler feeds.
constexpr double kA0 = -3.969683028665376e+01;
constexpr double kA1 = 2.209460984245205e+02;
constexpr double kA2 = -2.759285104469687e+02;
constexpr double kA3 = 1.383577518672690e+02;
constexpr double kA4 = -3.066479806614716e+01;
constexpr double kA5 = 2.506628277459239e+00;

constexpr double kB0 = -5.447609879822406e+01;
constexpr double kB1 = 1.615858368580409e+02;
constexpr double kB2 = -1.556989798598866e+02;
constexpr double kB3 = 6.680131188771972e+01;
constexpr double kB4 = -1.328068155288572e+01;

constexpr double kC0 = -7.784894002430293e-03;
constexpr double kC1 = -3.223964580411365e-01;
constexpr double kC2 = -2.400758277161838e+00;
constexpr double kC3 = -2.549732539343734e+00;
constexpr double kC4 = 4.374664141464968e+00;
constexpr double kC5 = 2.938163982698783e+00;

constexpr double kD0 = 7.784695709041462e-03;
constexpr double kD1 = 3.224671290700398e-01;
constexpr double kD2 = 2.445134137142996e+00;
constexpr double kD3 = 3.754408661907416e+00;

// The central rational approximation is accurate for p in [kPLow, kPHigh]
// — |u - 0.5| <= 0.47575, ~95.15% of uniform draws; outside it the tail
// form takes over.
constexpr double kPLow = 0.02425;
constexpr double kPHigh = 1.0 - kPLow;

// Cody-Waite split of ln 2 so the range reduction stays accurate for the
// small multiples of ln 2 the sampler produces.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLog2E = 1.44269504088896338700e+00;

// The inverse-CDF helpers below build the noise tile (one pass per sigma);
// kFastNoise serving is a plain tile copy. The branch-free kernels after
// them are the certified bit-exact path's per-cell sampler.

// Central-region rational polynomial; accurate for |q| <= 0.5 - kPLow
// (the region InverseNormalCdfImpl routes here).
[[gnu::always_inline]] inline double CentralInverseCdf(double q) {
  const double r = q * q;
  const double num =
      (((((kA0 * r + kA1) * r + kA2) * r + kA3) * r + kA4) * r + kA5) * q;
  const double den =
      ((((kB0 * r + kB1) * r + kB2) * r + kB3) * r + kB4) * r + 1.0;
  return num / den;
}

inline double TailInverseCdf(double u) {
  // Lower tail; the upper tail is the mirror image.
  const bool upper = u > 0.5;
  const double p = upper ? 1.0 - u : u;
  const double q = std::sqrt(-2.0 * std::log(p));
  const double x =
      (((((kC0 * q + kC1) * q + kC2) * q + kC3) * q + kC4) * q + kC5) /
      ((((kD0 * q + kD1) * q + kD2) * q + kD3) * q + 1.0);
  return upper ? -x : x;
}

// ---- Branch-free transcendental kernels ----------------------------------
//
// The certified bit-exact path (FillFactorsApprox) evaluates the whole
// Box-Muller -> exp pipeline with the polynomials below instead of libm. They
// are written to vectorize on baseline x86-64 (SSE2): no libm calls
// (std::floor is one there, so rounding uses the 0x1.8p52 trick), no
// int64 -> double conversions (SSE2 has none; exponents are rebuilt through
// the bit pattern of 2^52 + e instead), bit masks rather than branches,
// and only unsigned shifts on std::bit_cast patterns. The series are
// truncated where the first omitted term stays below ~1e-15 (exp, log:
// relative; sin, cos: absolute), so a factor built from them stays within
// ~1e-14 (relative) of the libm one at sigma = 1 — five orders of
// magnitude inside NoiseModel::kApproxRelError.

// Adding then subtracting 1.5 * 2^52 rounds a double with |x| < 2^51 to the
// nearest integer (round-to-nearest mode); the sum's low mantissa bits hold
// that integer in two's complement.
constexpr double kRoundMagic = 0x1.8p52;

// exp(r) for |r| <= ln2/2 (+ a few ulp): degree-11 Taylor; the first omitted
// term is below 6.3e-15 relative.
[[gnu::always_inline]] inline double ExpPoly(double r) {
  double p = 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  return p;
}

// exp(x) for |x| <= 16 (callers guarantee the domain; a clamp here would
// split the loop body into branches the vectorizer cannot if-convert).
[[gnu::always_inline]] inline double FastExpImpl(double x) {
  // Cody-Waite reduction x = k ln2 + r, |r| <= ln2/2, then multiply
  // ExpPoly(r) by 2^k by adding k to the exponent field. The domain bounds
  // |k| by 24 and ExpPoly(r) lies in [0.707, 1.415], so the result exponent
  // stays far from overflow and subnormals. The rounded sum's low 12 bits
  // are k mod 2^12; shifted to the exponent field they add k modulo 2^64,
  // which is exactly the signed exponent change.
  const double rounded = x * kLog2E + kRoundMagic;
  const double kd = rounded - kRoundMagic;
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  const std::uint64_t k_bits = std::bit_cast<std::uint64_t>(rounded) << 52;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(ExpPoly(r)) +
                               k_bits);
}

// ln x for a positive normal x. x = 2^k m with m in [sqrt(1/2), sqrt(2)),
// so ln x = k ln2 + ln m never cancels; ln m = 2 atanh(s) with
// s = (m - 1) / (m + 1), |s| <= 0.1716, summed as the atanh series through
// s^17 (the first omitted term is below 9e-16 relative).
[[gnu::always_inline]] inline double FastLogImpl(double x) {
  // The split is pure unsigned integer work — no compare, no select, so
  // nothing stops if-conversion and SSE2 has every op it needs. Subtracting
  // sqrt(1/2)'s pattern moves the exponent boundary to sqrt(2); the 2^63
  // bias keeps the exponent field k + 2048 non-negative for every normal x.
  constexpr std::uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDULL;
  constexpr std::uint64_t kExponentField = ~((std::uint64_t{1} << 52) - 1);
  constexpr std::uint64_t kBias = std::uint64_t{1} << 63;  // 2048 << 52
  constexpr std::uint64_t kTwoPow52Bits = std::uint64_t{0x433} << 52;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t shifted = bits - kSqrtHalfBits + kBias;
  // m = x / 2^k: remove k from the exponent field (mod 2^64).
  const double m =
      std::bit_cast<double>(bits - (shifted & kExponentField) + kBias);
  // k + 2048 sits in shifted's top 12 bits; OR-ed into 2^52's pattern it
  // gives 2^52 + k + 2048 exactly, an int -> double conversion SSE2 lacks.
  const double k = std::bit_cast<double>(kTwoPow52Bits | (shifted >> 52)) -
                   (0x1p52 + 2048.0);
  const double f = m - 1.0;  // exact: m in [1/2, 2] (Sterbenz)
  const double s = f / (2.0 + f);
  const double z = s * s;
  double p = 1.0 / 17.0;
  p = p * z + 1.0 / 15.0;
  p = p * z + 1.0 / 13.0;
  p = p * z + 1.0 / 11.0;
  p = p * z + 1.0 / 9.0;
  p = p * z + 1.0 / 7.0;
  p = p * z + 1.0 / 5.0;
  p = p * z + 1.0 / 3.0;
  const double log_m = 2.0 * s + 2.0 * s * z * p;
  return k * kLn2Hi + (k * kLn2Lo + log_m);
}

// sin and cos of x in [0, 2pi] (+ a few ulp): reduce to |t| <= pi/4 around
// the nearest multiple q of pi/2 (Cody-Waite with a 33-bit head, so q * head
// is exact and the head subtraction is exact by Sterbenz), evaluate Taylor
// series through t^15 / t^14 (omitted terms below 4.6e-17 / 1.0e-15
// absolute), then rotate by the quadrant q mod 4 with bit masks.
[[gnu::always_inline]] inline void FastSinCosImpl(double x, double& sin_x,
                                                  double& cos_x) {
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPiOver2Hi = 1.57079632673412561417e+00;
  constexpr double kPiOver2Lo = 6.07710050650619224932e-11;
  const double rounded = x * kTwoOverPi + kRoundMagic;
  const double q = rounded - kRoundMagic;
  const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(rounded) & 3;
  const double t = (x - q * kPiOver2Hi) - q * kPiOver2Lo;
  const double t2 = t * t;
  double sp = -1.0 / 1307674368000.0;
  sp = sp * t2 + 1.0 / 6227020800.0;
  sp = sp * t2 - 1.0 / 39916800.0;
  sp = sp * t2 + 1.0 / 362880.0;
  sp = sp * t2 - 1.0 / 5040.0;
  sp = sp * t2 + 1.0 / 120.0;
  sp = sp * t2 - 1.0 / 6.0;
  const double sin_t = t + t * t2 * sp;
  double cp = -1.0 / 87178291200.0;
  cp = cp * t2 + 1.0 / 479001600.0;
  cp = cp * t2 - 1.0 / 3628800.0;
  cp = cp * t2 + 1.0 / 40320.0;
  cp = cp * t2 - 1.0 / 720.0;
  cp = cp * t2 + 1.0 / 24.0;
  cp = cp * t2 - 0.5;
  const double cos_t = 1.0 + t2 * cp;
  // Quadrant q: (sin, cos) = (s, c), (c, -s), (-s, -c), (-c, s). The swap
  // is a bit mask, not a select: SSE2 has no 64-bit integer compare to
  // build one from, but 0 - (q & 1) is all ones exactly in odd quadrants.
  const std::uint64_t swap = std::uint64_t{0} - (quadrant & 1);
  const auto sin_bits = std::bit_cast<std::uint64_t>(sin_t);
  const auto cos_bits = std::bit_cast<std::uint64_t>(cos_t);
  // (quadrant & 2) << 62 is the sign bit exactly when the bit is set.
  const std::uint64_t sin_sign = (quadrant & 2) << 62;
  const std::uint64_t cos_sign = ((quadrant + 1) & 2) << 62;
  sin_x = std::bit_cast<double>(
      ((cos_bits & swap) | (sin_bits & ~swap)) ^ sin_sign);
  cos_x = std::bit_cast<double>(
      ((sin_bits & swap) | (cos_bits & ~swap)) ^ cos_sign);
}

// The two LogNormal(0, sigma) factors of one Box-Muller pair, evaluated
// exactly as Rng::Gaussian + Rng::LogNormal compose them, but on the
// polynomials: exp(sigma * r cos a), exp(sigma * r sin a).
[[gnu::always_inline]] inline void ApproxFactorPairImpl(
    double sigma, double u1, double u2, double& cos_factor,
    double& sin_factor) {
  const double radius = std::sqrt(-2.0 * FastLogImpl(u1));
  double sin_a = 0.0;
  double cos_a = 0.0;
  FastSinCosImpl(Rng::BoxMullerAngle(u2), sin_a, cos_a);
  cos_factor = FastExpImpl(sigma * (radius * cos_a));
  sin_factor = FastExpImpl(sigma * (radius * sin_a));
}

[[gnu::always_inline]] inline double CounterUniformImpl(std::uint64_t stream,
                                                        std::uint64_t index) {
  // Splitmix64 finalizer over (stream, index): no serial dependency
  // between cells. The +0.5 centers the 53-bit lattice inside (0, 1) —
  // never exactly 0 or 1.
  const std::uint64_t z = DeriveSeed(stream, index);
  return (static_cast<double>(z >> 11) + 0.5) * 0x1.0p-53;
}

[[gnu::always_inline]] inline double InverseNormalCdfImpl(double u) {
  if (u < kPLow || u > kPHigh) [[unlikely]] {
    return TailInverseCdf(u);
  }
  return CentralInverseCdf(u - 0.5);
}

}  // namespace

namespace detail {

// Out-of-line wrappers so tests can pin the building blocks; the sampling
// loop uses the always-inline implementations above.

double FastExp(double x) { return FastExpImpl(std::clamp(x, -16.0, 16.0)); }

std::array<double, 2> ApproxFactorPair(double sigma, double u1, double u2) {
  std::array<double, 2> factors{};
  ApproxFactorPairImpl(sigma, u1, u2, factors[0], factors[1]);
  return factors;
}

double InverseNormalCdf(double u) {
  CIM_DCHECK(u > 0.0 && u < 1.0);
  return InverseNormalCdfImpl(u);
}

double CounterUniform(std::uint64_t stream, std::uint64_t index) {
  return CounterUniformImpl(stream, index);
}

}  // namespace detail

std::string KernelPolicyName(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kReference:
      return "reference";
    case KernelPolicy::kFastBitExact:
      return "fast-bit-exact";
    case KernelPolicy::kFastNoise:
      return "fast-noise";
  }
  return "unknown";
}

NoiseModel::NoiseModel(double sigma, KernelPolicy policy)
    : sigma_(sigma), policy_(policy) {
  if (policy_ != KernelPolicy::kFastNoise || !enabled()) return;
  CIM_DCHECK(std::isfinite(sigma_));
  // The tile is a pure function of sigma, so every model at one sigma —
  // across crossbars, accelerators and threads — shares one immutable copy.
  // The memo keeps a strong reference for the process lifetime (512 KiB per
  // distinct sigma): a DSE sweep revisits the same few sigmas from many
  // short-lived accelerators, and one tile read by all of an accelerator's
  // arrays stays L2-resident.
  static std::mutex memo_mu;
  static std::map<std::uint64_t, std::shared_ptr<const std::vector<double>>>
      memo;
  const std::lock_guard lock(memo_mu);
  auto& tile = memo[std::bit_cast<std::uint64_t>(sigma_)];
  if (tile == nullptr) {
    tile = std::make_shared<const std::vector<double>>(BuildTile(sigma_));
  }
  tile_ = tile;
}

void NoiseModel::FillFactors(Rng& rng, double* out, std::size_t n,
                             std::size_t draws) const {
  CIM_DCHECK(n <= draws);
  if (policy_ == KernelPolicy::kFastNoise) {
    CIM_DCHECK(tile_ != nullptr);
    // One serial draw per call rotates the tile to a fresh window, so
    // successive rows and cycles see decorrelated factor sequences; the
    // per-factor cost is an L2-resident copy instead of a libm pipeline.
    static_assert((kTileSize & (kTileSize - 1)) == 0,
                  "tile rotation uses a power-of-two mask");
    std::size_t offset =
        static_cast<std::size_t>(rng.NextU64()) & (kTileSize - 1);
    std::size_t written = 0;
    while (written < n) {
      const std::size_t take = std::min(n - written, kTileSize - offset);
      std::memcpy(out + written, tile_->data() + offset,
                  take * sizeof(double));
      written += take;
      offset = 0;
    }
    return;
  }
  // Bit-exact contract: reproduce the reference kernel's LogNormal stream
  // draw for draw; the unread tail only advances the stream.
  for (std::size_t i = 0; i < n; ++i) out[i] = rng.LogNormal(0.0, sigma_);
  rng.SkipGaussians(draws - n);
}

void NoiseModel::FillFactorsApprox(Rng& rng, double* out, std::size_t n,
                                   std::size_t draws) const {
  CIM_DCHECK(n <= draws && approximable());
  // When the sensed prefix ends mid-pair and the line goes on, draw the
  // pair's sin variate too: the skip below would drop the partner anyway,
  // and taking it here spares the libm evaluation NextBoxMullerUniforms
  // runs to leave an exact partner cached.
  const std::size_t lead = rng.has_cached_gaussian() ? 1 : 0;
  const std::size_t k = n > lead && (n - lead) % 2 == 1 && draws > n ? n + 1
                                                                     : n;
  thread_local std::vector<double> u1;
  thread_local std::vector<double> u2;
  if (u1.size() < (k + 1) / 2) {
    u1.resize((k + 1) / 2);
    u2.resize((k + 1) / 2);
  }
  const Rng::BoxMullerUniforms uniforms =
      rng.NextBoxMullerUniforms(k, u1.data(), u2.data());
  std::size_t i = 0;
  if (uniforms.cached) {
    out[i++] = std::exp(0.0 + sigma_ * uniforms.cached_value);
  }
  const double sigma = sigma_;
  const std::size_t whole_pairs = (n - i) / 2;
  double* __restrict pair_out = out + i;
  const double* __restrict a = u1.data();
  const double* __restrict b = u2.data();
  for (std::size_t j = 0; j < whole_pairs; ++j) {
    ApproxFactorPairImpl(sigma, a[j], b[j], pair_out[2 * j],
                         pair_out[2 * j + 1]);
  }
  if (i + 2 * whole_pairs < n) {
    double unused = 0.0;
    ApproxFactorPairImpl(sigma, a[whole_pairs], b[whole_pairs], out[n - 1],
                         unused);
  }
  rng.SkipGaussians(draws - k);
}

std::vector<double> NoiseModel::BuildTile(double sigma) {
  std::vector<double> tile(kTileSize);
  // Midpoint-quantile lattice: tile[i] = exp(sigma * Phi^-1((i+0.5)/N)).
  // Its empirical CDF tracks the contract distribution within 1/(2N) —
  // orders of magnitude below the KS gate — and unlike an iid-sampled pool
  // it carries no sampling error of its own. Built once per sigma with
  // full-accuracy libm exp; serving never touches libm again.
  for (std::size_t i = 0; i < kTileSize; ++i) {
    const double u = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(kTileSize);
    tile[i] = std::exp(sigma * InverseNormalCdfImpl(u));
  }
  // Fisher-Yates with counter-based hashes (fixed seed: the tile is a
  // deterministic function of sigma alone; all run-to-run variation comes
  // from the per-call rotation draw). After the shuffle any contiguous
  // window is a simple random sample of the lattice, so a row's factors
  // are exchangeable draws from the contract distribution.
  constexpr std::uint64_t kShuffleSeed = 0x9D5C0F2B43E18A67ULL;
  for (std::size_t i = kTileSize - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(
        DeriveSeed(kShuffleSeed, static_cast<std::uint64_t>(i)) % (i + 1));
    std::swap(tile[i], tile[j]);
  }
  return tile;
}

double NoiseModel::LogNormalCdf(double x, double mu, double sigma) {
  if (x <= 0.0) return 0.0;
  CIM_DCHECK(sigma > 0.0);
  return 0.5 * std::erfc(-(std::log(x) - mu) /
                         (sigma * std::numbers::sqrt2));
}

NoiseModel::EquivalenceReport NoiseModel::CheckEquivalence(
    const std::vector<double>& factors) const {
  EquivalenceReport report;
  report.samples = factors.size();
  if (factors.empty() || sigma_ <= 0.0) return report;
  const auto n = static_cast<double>(factors.size());

  // One-sample Kolmogorov-Smirnov against the contract distribution
  // LogNormal(0, sigma), alpha = 0.01 (c = 1.628).
  std::vector<double> sorted = factors;
  std::sort(sorted.begin(), sorted.end());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double cdf = LogNormalCdf(sorted[i], 0.0, sigma_);
    const double lo = cdf - static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n - cdf;
    d = std::max({d, lo, hi});
  }
  report.ks_statistic = d;
  report.ks_threshold = 1.628 / std::sqrt(n);
  report.ks_pass = d <= report.ks_threshold;

  // Moment tests on ln(factor) ~ Normal(0, sigma^2): the sample mean is
  // Normal(0, sigma^2/n) and the sample variance has standard error
  // ~ sigma^2 * sqrt(2/(n-1)); both bounds use z = 3.29 (two-sided 0.1%).
  constexpr double kZ = 3.29;
  double sum = 0.0;
  for (const double f : factors) sum += std::log(f);
  const double mean = sum / n;
  double ss = 0.0;
  for (const double f : factors) {
    const double dev = std::log(f) - mean;
    ss += dev * dev;
  }
  const double var = ss / (n - 1.0);
  report.mean_log = mean;
  report.mean_log_bound = kZ * sigma_ / std::sqrt(n);
  report.var_log = var;
  report.var_log_bound = kZ * sigma_ * sigma_ * std::sqrt(2.0 / (n - 1.0));
  report.moments_pass =
      std::abs(mean) <= report.mean_log_bound &&
      std::abs(var - sigma_ * sigma_) <= report.var_log_bound;
  return report;
}

}  // namespace cim::device
