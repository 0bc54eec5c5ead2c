// Read-noise sampling strategy and its equivalence contract.
//
// The crossbar kernels multiply every sensed conductance by a lognormal
// read-noise factor. How those factors are *sampled* is a kernel-policy
// decision with a correctness contract attached:
//
//   KernelPolicy::kReference    per-cell AoS kernel; scalar libm sampling.
//                               The golden model — defines the stream.
//   KernelPolicy::kFastBitExact SoA two-pass kernel; bit-identical ADC
//                               codes to kReference. For 0 < sigma <= 1
//                               the factors come from branch-free
//                               polynomials (FillFactorsApprox) within
//                               kApproxRelError of libm, the crossbar
//                               accepts a code only when its whole error
//                               interval encodes to it, and a cycle with
//                               an ambiguous code replays from an Rng
//                               snapshot on the exact sampler: scalar libm
//                               in the reference draw order, only for the
//                               sensed lines (the rest of the stream is
//                               skipped, not computed). Larger sigma runs
//                               the exact sampler directly. Contract:
//                               bit-identical codes to kReference.
//   KernelPolicy::kFastNoise    SoA kernel; factors served from a
//                               precomputed noise tile — an exact
//                               LogNormal(0, sigma) quantile lattice,
//                               shuffled once with counter-based hashes,
//                               one shared tile per sigma per process —
//                               at a fresh random rotation per row draw.
//                               Contract: *statistical* equivalence — the
//                               factors follow the same LogNormal(0,
//                               sigma) distribution (KS + moment gate) and
//                               end-to-end NN accuracy is at parity, but
//                               individual draws differ from the
//                               reference stream.
//
// NoiseModel owns both halves: FillFactors() / FillFactorsApprox() are the
// samplers the fast kernels call, and CheckEquivalence() is the gate the
// differential suite and the bench use to enforce the kFastNoise contract.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cim::device {

enum class KernelPolicy : std::uint8_t {
  kReference = 0,
  kFastBitExact,
  kFastNoise,
};

[[nodiscard]] std::string KernelPolicyName(KernelPolicy policy);

class NoiseModel {
 public:
  // One tile entry per quantile of the contract distribution; 2^16 entries
  // (512 KiB) keeps the lattice's own KS distance (~1/2^17) four orders of
  // magnitude under the gate threshold while the tile stays L2-resident.
  static constexpr std::size_t kTileSize = std::size_t{1} << 16;
  // Documented bound on |approx / exact - 1| for every factor
  // FillFactorsApprox returns, against the one FillFactors returns from the
  // same stream position. The polynomials reach ~1e-14 at sigma = 1 (the
  // differential suite sweeps 10^6 draws and the edge inputs at 1e-11);
  // the bound keeps five orders of magnitude of margin on top.
  static constexpr double kApproxRelError = 1e-9;
  // Largest sigma the approximate fill accepts: it bounds the exp argument
  // (|sigma * z| <= 8.6, since Box-Muller's |z| <= sqrt(-2 ln 2^-53)) and
  // so the error growth through exp.
  static constexpr double kApproxMaxSigma = 1.0;

  NoiseModel() = default;
  // A kFastNoise model with sigma > 0 takes the process-wide tile for its
  // sigma, built on first use; sigma must be finite.
  NoiseModel(double sigma, KernelPolicy policy);

  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] KernelPolicy policy() const { return policy_; }
  [[nodiscard]] bool enabled() const { return sigma_ > 0.0; }
  // True when the sampler reproduces the reference RNG stream draw for
  // draw (the bit-identity contract); false when the contract is
  // distributional only.
  [[nodiscard]] bool bit_exact() const {
    return policy_ != KernelPolicy::kFastNoise;
  }

  // True when FillFactorsApprox may serve this model: the kFastBitExact
  // policy with 0 < sigma <= kApproxMaxSigma — a property of the device,
  // not a knob.
  [[nodiscard]] bool approximable() const {
    return policy_ == KernelPolicy::kFastBitExact && sigma_ > 0.0 &&
           sigma_ <= kApproxMaxSigma;
  }

  // Fill out[0..n) with multiplicative read-noise factors, advancing `rng`
  // exactly as a fill of `draws` >= n factors would — the kernels compute
  // only the sensed prefix of a line while the stream still covers the
  // whole line, so the next line's factors stay where the reference puts
  // them.
  //
  //   kReference / kFastBitExact: computes n LogNormal draws from `rng`, in
  //     order, then skips the other draws - n Gaussians without libm
  //     (Rng::SkipGaussians) — bit-identical to the reference kernel's
  //     stream for the first n factors and for every later draw.
  //   kFastNoise: consumes exactly ONE u64 from `rng` (the tile rotation)
  //     whatever `draws` is, and copies n consecutive entries of the
  //     precomputed noise tile, wrapping around — per-factor cost is an L2
  //     load, not libm.
  //
  // Callers pass one call per active row; the serial draw keeps successive
  // rows (and successive cycles) on decorrelated tile windows.
  void FillFactors(Rng& rng, double* out, std::size_t n,
                   std::size_t draws) const;
  // The whole-line fill: draws == n.
  void FillFactors(Rng& rng, double* out, std::size_t n) const {
    FillFactors(rng, out, n, n);
  }

  // The certified bit-exact path's fill (approximable() models only):
  // advances `rng` exactly as FillFactors(rng, out, n, draws) does, but
  // evaluates the Box-Muller -> exp pipeline on branch-free, vectorizable
  // polynomials (log, sin+cos, exp) instead of libm, so each factor lies
  // within kApproxRelError (relative) of the one FillFactors returns. A
  // pending cached partner is served exactly; when the prefix ends
  // mid-pair at the end of the line, the partner left cached for the next
  // line is libm-exact (Rng::NextBoxMullerUniforms).
  void FillFactorsApprox(Rng& rng, double* out, std::size_t n,
                         std::size_t draws) const;

  // ---- The statistical-equivalence contract -------------------------------

  struct EquivalenceReport {
    std::size_t samples = 0;
    double ks_statistic = 0.0;   // sup-norm vs the LogNormal(0, sigma) CDF
    double ks_threshold = 0.0;   // c(alpha=0.01)/sqrt(n), c = 1.628
    double mean_log = 0.0;       // mean of ln(factor); contract: 0
    double mean_log_bound = 0.0; // z=3.29 (two-sided 0.1%) * sigma/sqrt(n)
    double var_log = 0.0;        // variance of ln(factor); contract: sigma^2
    double var_log_bound = 0.0;  // z * sigma^2 * sqrt(2/(n-1))
    bool ks_pass = false;
    bool moments_pass = false;
    [[nodiscard]] bool pass() const { return ks_pass && moments_pass; }
  };

  // Gate `factors` against this model's contract distribution
  // LogNormal(0, sigma): one-sample KS test plus first/second moment tests
  // on ln(factor). Used by the differential suite and bench_mvm_kernel.
  [[nodiscard]] EquivalenceReport CheckEquivalence(
      const std::vector<double>& factors) const;

  // CDF of LogNormal(mu, sigma) at x (0 for x <= 0). Exposed for the
  // test-side KS helpers.
  [[nodiscard]] static double LogNormalCdf(double x, double mu, double sigma);

 private:
  // Returns exp(sigma * Phi^-1((i + 0.5) / kTileSize)) — the exact
  // midpoint-quantile lattice of LogNormal(0, sigma) — Fisher-Yates
  // shuffled with counter-based hashes so any contiguous window is a simple
  // random sample of the lattice. A pure function of sigma.
  static std::vector<double> BuildTile(double sigma);

  double sigma_ = 0.0;
  KernelPolicy policy_ = KernelPolicy::kFastBitExact;
  // Shared with every model at sigma_; null unless kFastNoise with
  // sigma > 0.
  std::shared_ptr<const std::vector<double>> tile_;
};

namespace detail {
// Branch-free polynomial exp: Cody-Waite range reduction to
// [-ln2/2, ln2/2], degree-11 Taylor, exponent reassembly via bit twiddling.
// Relative error below 1e-14 over |x| <= 16; input is clamped to that
// domain. The certified bit-exact sampler's exp.
[[nodiscard]] double FastExp(double x);

// The two LogNormal(0, sigma) factors of the Box-Muller pair (u1, u2) — cos
// variate first — on the certified sampler's polynomials: FastExp of sigma
// times sqrt(-2 ln u1) * {cos, sin}(2 pi u2). Exposed so tests can sweep
// edge inputs against libm.
[[nodiscard]] std::array<double, 2> ApproxFactorPair(double sigma, double u1,
                                                     double u2);

// Acklam's rational approximation of the inverse standard-normal CDF,
// u in (0, 1); relative error ~1.15e-9. The central region
// |u - 0.5| <= 0.47575 (~95% of draws) is branchless polynomial work; the
// tails fall back to a sqrt(-2 log u) form. This is the quantile function
// the noise tile is built from.
[[nodiscard]] double InverseNormalCdf(double u);

// The counter-based uniform underlying the tile shuffle: splitmix64
// finalizer of (stream, index) mapped into (0, 1). Exposed so tests can
// pin the stream.
[[nodiscard]] double CounterUniform(std::uint64_t stream, std::uint64_t index);
}  // namespace detail

}  // namespace cim::device
