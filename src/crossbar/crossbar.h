// Analog memristor crossbar array.
//
// A rows x cols grid of MemristorCell with line DACs and shared ADCs. One
// analog cycle applies voltages on every driven line at once and senses the
// currents of the crossing lines: a full matrix-vector multiply in O(1)
// array time, which is the physical basis of the paper's CIM performance
// claims. The weights never move, so the "memory bandwidth" of the
// operation is the whole array refreshed every cycle.
//
// The array is bidirectional: a forward read drives the rows and senses the
// columns (y = W^T x, inference), a transpose read drives the columns and
// senses the rows (g = W e, in-situ backpropagation). Both are one read,
// CycleDriven(Direction, ...); the direction only picks which lines are
// driven, which are sensed and how the walk strides through the grid.
//
// Kernel structure: the cell grid is the array-of-structs source of truth
// (program/verify, wear, drift, faults all live on MemristorCell), but the
// fast read runs on a structure-of-arrays mirror: a contiguous
// fault-adjusted conductance plane per direction plus per-row/per-column
// read-energy sums, refreshed whenever a mutation (ProgramLevels /
// ProgramCell / Age / InjectCellFault) dirties it. Which walk runs, and which
// correctness contract it carries, is selected by CrossbarParams::kernel
// (see device::KernelPolicy): the per-cell reference walk, the bit-identical
// SoA fast walk, or the statistically-equivalent fast-noise walk whose
// lognormal sampling is owned by device::NoiseModel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "crossbar/adc.h"
#include "device/memristor.h"
#include "device/noise_model.h"

namespace cim::crossbar {

struct CrossbarParams {
  std::size_t rows = 128;
  std::size_t cols = 128;
  device::MemristorParams cell;
  AdcParams adc;
  DacParams dac;
  // How many columns share one ADC; conversions for those columns are
  // serialized within the cycle. ISAAC shares one ADC across a full array.
  std::size_t columns_per_adc = 128;
  // First-order IR-drop model: sensed current is attenuated by
  // (1 - alpha * active_row_fraction), capturing wire resistance loss that
  // grows with simultaneously driven rows.
  double ir_drop_alpha = 0.02;
  // Which cycle kernel runs and which correctness contract it carries:
  //   kReference    — original array-of-structs per-cell walk (golden).
  //   kFastBitExact — SoA fast path, bit-identical column codes / transpose
  //                   row codes to kReference (the kernel differential test
  //                   enforces it; only cycle energy differs in the last
  //                   ulps, since read energy folds to one analytic add per
  //                   driven line). Identical codes, not identical currents:
  //                   for 0 < read_noise_sigma <= 1 a cycle runs on
  //                   polynomial noise factors, accepts each code only when
  //                   the current's whole error interval encodes to it, and
  //                   replays on libm factors from an Rng snapshot when any
  //                   code is ambiguous (see ThreadCertificationTally).
  //   kFastNoise    — SoA fast path with device::NoiseModel's shared noise
  //                   tile: statistically equivalent noise (KS + moment
  //                   gate, NN accuracy parity), not bit-identical. The
  //                   serving configuration for noisy devices.
  // Both fast paths compute noise factors and currents only for the lines
  // the ADC senses (`active_cols` / `active_rows`); the bit-exact one still
  // advances the noise stream over every cell of a driven line, so gating
  // never shifts a later draw.
  device::KernelPolicy kernel = device::KernelPolicy::kFastBitExact;

  [[nodiscard]] Status Validate() const;
};

// Which way a cycle reads the array: kForward drives the rows and senses the
// columns, kTranspose drives the columns and senses the rows.
enum class Direction { kForward, kTranspose };

// Result of one analog MVM cycle: raw ADC codes per sensed line (columns for
// a forward read, rows for a transpose read) and the cost.
struct AnalogCycleResult {
  std::vector<std::uint64_t> column_codes;
  CostReport cost;
};

// Per-thread tally of the certified kFastBitExact cycles (noisy, sigma <= 1,
// either direction): how many ran, and how many found an ambiguous code and
// replayed on the exact sampler. Telemetry for benches and tests; kept per
// thread so the hot path writes no shared state (concurrent cycles on one
// crossbar stay race-free). Reset it by assigning {}.
struct CertificationTally {
  std::uint64_t cycles = 0;
  std::uint64_t replays = 0;
};
[[nodiscard]] CertificationTally& ThreadCertificationTally();

// Precomputed drive pattern for one analog cycle: per-line DAC voltages
// plus the count of active (nonzero-voltage) lines. The MVM engine builds
// one pattern per input bit and shares it across every (slice, plane)
// array, so code validation and voltage expansion are paid once per bit
// instead of once per array per bit.
struct DrivePattern {
  std::vector<double> voltages;
  std::size_t active = 0;
};

// Validate `codes` against `dac` (every code < 2^dac.bits) and expand them
// into per-line voltages in `out` (reusing its storage).
[[nodiscard]] Status PrepareDrive(const DacParams& dac,
                                  std::span<const std::uint64_t> codes,
                                  DrivePattern* out);

class Crossbar {
 public:
  // Factory validates parameters; the constructor itself cannot fail.
  [[nodiscard]] static Expected<Crossbar> Create(const CrossbarParams& params,
                                                 Rng rng);

  [[nodiscard]] std::size_t rows() const { return params_.rows; }
  [[nodiscard]] std::size_t cols() const { return params_.cols; }
  [[nodiscard]] const CrossbarParams& params() const { return params_; }

  // Program the whole array to the given level matrix (row-major,
  // rows*cols entries, each < 2^cell_bits). Returns aggregate write cost.
  // Programming is the slow path (asymmetric write latency, §VI).
  [[nodiscard]] Expected<CostReport> ProgramLevels(
      std::span<const std::uint64_t> levels);

  // Program a single cell (incremental weight update path): far cheaper
  // than a full reprogram when training touches few cells.
  [[nodiscard]] Expected<CostReport> ProgramCell(std::size_t row,
                                                 std::size_t col,
                                                 std::uint64_t level);

  // One analog cycle: drive every row with a DAC code (row_codes.size() ==
  // rows, each < 2^dac_bits), sense and digitize the first `active_cols`
  // columns (0 = all). Column gating lets narrow logical matrices skip ADC
  // conversions for unused columns.
  //
  // `noise_rng` selects the stream the cell read noise draws from. When
  // null the crossbar's internal stream is used (and advanced). When
  // provided, the internal stream is untouched and the call mutates no
  // crossbar state at all — concurrent Cycle calls on one crossbar are safe
  // as long as each passes its own Rng. The DPE runtime uses this to give
  // every MVM invocation a seed derived from (tile, call index), making
  // results independent of thread count and scheduling.
  [[nodiscard]] Expected<AnalogCycleResult> Cycle(
      std::span<const std::uint64_t> row_codes, std::size_t active_cols = 0,
      Rng* noise_rng = nullptr);

  // Transpose cycle: drive the columns, sense the rows (y -> W y). The
  // crossbar is bidirectional — the property the DPE lineage exploits for
  // in-situ backpropagation. Returns `active_rows` row codes. `noise_rng`
  // carries the same contract as in Cycle: with an external stream the
  // call mutates no crossbar state, so the training/backward path gets the
  // same concurrency guarantees as the forward one.
  [[nodiscard]] Expected<AnalogCycleResult> CycleTranspose(
      std::span<const std::uint64_t> col_codes, std::size_t active_rows = 0,
      Rng* noise_rng = nullptr);

  // The one cycle body behind Cycle and CycleTranspose, taking a
  // pre-validated drive pattern (see PrepareDrive) — the MVM engine's fused
  // bit-sweep entry point. `drive` has one voltage per driven line of `dir`;
  // the first `sensed` crossing lines are digitized (0 = all of them).
  [[nodiscard]] Expected<AnalogCycleResult> CycleDriven(
      Direction dir, const DrivePattern& drive, std::size_t sensed = 0,
      Rng* noise_rng = nullptr);

  // Full-scale sensed current the ADC range is calibrated to: every driven
  // line of `dir` at v_read through a g_on cell.
  [[nodiscard]] double FullScaleCurrent(
      Direction dir = Direction::kForward) const;

  // Noise-free expected column currents for a drive vector — used by tests
  // and golden models to bound quantization error. Reflects stuck-cell
  // faults (a stuck cell's expected current is its stuck conductance).
  [[nodiscard]] std::vector<double> IdealColumnCurrents(
      std::span<const std::uint64_t> row_codes) const;

  // Age every cell by `elapsed` (conductance drift).
  void Age(TimeNs elapsed);

  // Fault-injection hooks (reliability experiments).
  void InjectCellFault(std::size_t row, std::size_t col,
                       device::CellFault fault);
  [[nodiscard]] std::size_t CountFaultedCells() const;

  // Write-verify telemetry for the aging monitor (§V.D): every cell
  // program counts as one attempt; an attempt whose program-verify loop
  // exhausted its budget (ProgramResult.verified == false — faulted or
  // badly worn cells) counts as a failure.
  [[nodiscard]] std::uint64_t write_attempts() const {
    return write_attempts_;
  }
  [[nodiscard]] std::uint64_t write_verify_failures() const {
    return write_verify_failures_;
  }

 private:
  Crossbar(const CrossbarParams& params, Rng rng);

  // Fault-adjusted conductance a read of this cell sees before noise —
  // the value the SoA mirror caches per cell.
  [[nodiscard]] double EffectiveConductance(
      const device::MemristorCell& cell) const;

  // Rebuild the whole SoA mirror from cells_ (after ProgramLevels / Age),
  // or just the entries touched by cell (row, col) (after ProgramCell /
  // InjectCellFault). Mutations refresh eagerly, never lazily, so cycles
  // with external noise streams stay free of any crossbar-state writes and
  // remain safe to run concurrently.
  void RefreshMirror();
  void RefreshMirrorCell(std::size_t row, std::size_t col);

  // Lines a cycle in `dir` drives (rows forward, columns in transpose) and
  // the crossing lines it senses.
  [[nodiscard]] std::size_t DrivenLines(Direction dir) const {
    return dir == Direction::kForward ? params_.rows : params_.cols;
  }
  [[nodiscard]] std::size_t SensedLines(Direction dir) const {
    return dir == Direction::kForward ? params_.cols : params_.rows;
  }
  [[nodiscard]] Status CheckCycle(Direction dir, std::size_t driven,
                                  std::size_t sensed) const;
  // Cycle / CycleTranspose: validate and expand `codes`, then CycleDriven.
  [[nodiscard]] Expected<AnalogCycleResult> CycleCodes(
      Direction dir, std::span<const std::uint64_t> codes, std::size_t sensed,
      Rng* noise_rng);

  // The two walks behind CycleDriven, the direction resolved once per cycle
  // outside the line and cell loops: for every driven line, accumulate the
  // noisy currents of the crossing lines into `currents` and read+drive
  // energy into `energy_pj`. AccumulateReference (kReference, the golden
  // model) reads every cell through MemristorCell::Read: cell
  // i * line_stride + j * cell_stride of the row-major grid, in that order.
  // AccumulateFast serves kFastBitExact and kFastNoise (noise_ owns the
  // sampling difference) on the unit-stride mirror plane of `dir` and its
  // per-line energy sums, touching only the first `sensed` crossing lines
  // (see CrossbarParams::kernel): identical codes to kReference for
  // kFastBitExact by construction (mvm_kernel_test), statistical
  // equivalence for kFastNoise (noise_equivalence_test + bench gate).
  // A non-empty `bounds` (one zeroed entry per sensed line) selects the
  // certified path's polynomial factors (NoiseModel::FillFactorsApprox) and
  // accumulates each current's error-bound basis sum |v * g * f| into it;
  // an empty one samples exactly.
  void AccumulateReference(Direction dir, const DrivePattern& drive, Rng& rng,
                           std::span<double> currents, double& energy_pj);
  void AccumulateFast(Direction dir, const DrivePattern& drive,
                      std::size_t sensed, Rng& rng, std::span<double> currents,
                      std::span<double> bounds, double& energy_pj);
  // The calling thread's noise-factor buffer, grown to `sensed` entries;
  // null on a quiet device, which draws no factors.
  [[nodiscard]] double* FactorScratch(std::size_t sensed) const;
  // One driven line of AccumulateFast: `gains` holds the line's
  // `line_cells` mirrored conductances, of which the first `sensed` are
  // read; the noise stream still advances over the whole line. `factors`
  // is FactorScratch(sensed).
  void AccumulateLine(const double* gains, double v, std::size_t sensed,
                      std::size_t line_cells, Rng& rng, double* factors,
                      std::span<double> currents,
                      std::span<double> bounds) const;
  // Run AccumulateFast in `dir` and encode the `sensed` lines into `codes`.
  // For an approximable noise model (NoiseModel::approximable) the cycle
  // first runs on polynomial factors and certifies every code; on any
  // ambiguous code it restores the Rng snapshot and replays on the exact
  // sampler, so codes and stream always match kReference.
  void SenseFast(Direction dir, const DrivePattern& drive,
                 std::size_t sensed, Rng& rng, double attenuation,
                 double full_scale, std::span<double> currents,
                 std::span<std::uint64_t> codes, double& energy_pj);
  void EncodeLines(std::span<const double> currents, std::size_t sensed,
                   double attenuation, double full_scale,
                   std::span<std::uint64_t> codes) const;

  CrossbarParams params_;
  // Sampling strategy for the fast kernels' read-noise factors, fixed at
  // construction from (cell.read_noise_sigma, kernel policy). Under
  // kFastNoise it shares the one process-wide tile for that sigma with
  // every other array.
  device::NoiseModel noise_;
  std::vector<device::MemristorCell> cells_;
  // SoA mirror of cells_: contiguous fault-adjusted conductances (row
  // major, plus a column-major copy so the transpose direction also walks
  // unit stride) and per-row / per-column read-energy sums (a cycle's
  // ohmic read energy depends only on the stored conductances, so it folds
  // into one add per driven line instead of one multiply-add per cell).
  std::vector<double> gain_;
  std::vector<double> gain_transposed_;
  std::vector<double> row_read_energy_pj_;
  std::vector<double> col_read_energy_pj_;
  Rng rng_;
  std::uint64_t write_attempts_ = 0;
  std::uint64_t write_verify_failures_ = 0;
};

}  // namespace cim::crossbar
