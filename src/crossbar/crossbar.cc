#include "crossbar/crossbar.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/contracts.h"

namespace cim::crossbar {

CertificationTally& ThreadCertificationTally() {
  thread_local CertificationTally tally;
  return tally;
}

Status CrossbarParams::Validate() const {
  if (rows == 0 || cols == 0) {
    return InvalidArgument("crossbar dimensions must be non-zero");
  }
  if (rows > 4096 || cols > 4096) {
    return InvalidArgument("crossbar dimensions above 4096 are not modelled");
  }
  if (columns_per_adc == 0) {
    return InvalidArgument("columns_per_adc must be non-zero");
  }
  if (!std::isfinite(ir_drop_alpha) || ir_drop_alpha < 0.0 ||
      ir_drop_alpha >= 1.0) {
    return InvalidArgument("ir_drop_alpha must be in [0, 1)");
  }
  // Converter widths feed 1 << bits shifts and code/max_code divisions, so
  // anything outside [1, 16] (the DSE adc_bits range) is rejected here
  // rather than reaching UB or a 0/0.
  if (adc.bits < 1 || adc.bits > 16 || dac.bits < 1 || dac.bits > 16) {
    return InvalidArgument("adc.bits and dac.bits must be in [1, 16]");
  }
  if (adc.reference_bits < 1) {
    return InvalidArgument("adc.reference_bits must be at least 1");
  }
  if (!std::isfinite(dac.v_read) || dac.v_read <= 0.0) {
    return InvalidArgument("dac.v_read must be finite and positive");
  }
  return cell.Validate();
}

Status PrepareDrive(const DacParams& dac,
                    std::span<const std::uint64_t> codes, DrivePattern* out) {
  CIM_CHECK(out != nullptr);
  const std::uint64_t max_code = (std::uint64_t{1} << dac.bits) - 1;
  for (std::uint64_t code : codes) {
    CIM_REQUIRE(code <= max_code, OutOfRange("DAC code exceeds dac.bits"));
  }
  out->voltages.resize(codes.size());
  out->active = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const double v = dac.LevelVoltage(codes[i]);
    out->voltages[i] = v;
    if (v != 0.0) ++out->active;
  }
  return Status::Ok();
}

Expected<Crossbar> Crossbar::Create(const CrossbarParams& params, Rng rng) {
  if (Status status = params.Validate(); !status.ok()) return status;
  return Crossbar(params, rng);
}

Crossbar::Crossbar(const CrossbarParams& params, Rng rng)
    : params_(params),
      noise_(params.cell.read_noise_sigma, params.kernel),
      rng_(rng) {
  cells_.reserve(params_.rows * params_.cols);
  for (std::size_t i = 0; i < params_.rows * params_.cols; ++i) {
    cells_.emplace_back(params_.cell);
  }
  gain_.resize(params_.rows * params_.cols);
  gain_transposed_.resize(params_.rows * params_.cols);
  row_read_energy_pj_.resize(params_.rows);
  col_read_energy_pj_.resize(params_.cols);
  RefreshMirror();
}

double Crossbar::EffectiveConductance(const device::MemristorCell& cell) const {
  double g = cell.true_conductance();
  if (cell.fault() == device::CellFault::kStuckOn) g = params_.cell.g_on_siemens;
  if (cell.fault() == device::CellFault::kStuckOff) {
    g = params_.cell.g_off_siemens;
  }
  return g;
}

void Crossbar::RefreshMirror() {
  const std::size_t rows = params_.rows;
  const std::size_t cols = params_.cols;
  const double energy_per_gon =
      params_.cell.read_energy.pj / params_.cell.g_on_siemens;
  std::fill(col_read_energy_pj_.begin(), col_read_energy_pj_.end(), 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double row_energy = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const device::MemristorCell& cell = cells_[r * cols + c];
      const double g = EffectiveConductance(cell);
      gain_[r * cols + c] = g;
      gain_transposed_[c * rows + r] = g;
      // Read energy is ohmic off the stored (pre-fault-override)
      // conductance — mirrors MemristorCell::Read.
      const double e = cell.true_conductance() * energy_per_gon;
      row_energy += e;
      col_read_energy_pj_[c] += e;
    }
    row_read_energy_pj_[r] = row_energy;
  }
}

void Crossbar::RefreshMirrorCell(std::size_t row, std::size_t col) {
  const std::size_t rows = params_.rows;
  const std::size_t cols = params_.cols;
  const double energy_per_gon =
      params_.cell.read_energy.pj / params_.cell.g_on_siemens;
  const double g = EffectiveConductance(cells_[row * cols + col]);
  gain_[row * cols + col] = g;
  gain_transposed_[col * rows + row] = g;
  // Re-sum the touched row/column energies from scratch (instead of a
  // cheaper add-the-delta) so the mirror depends only on the current cell
  // state, never on the mutation history — FP deltas would drift.
  double row_energy = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    row_energy += cells_[row * cols + c].true_conductance() * energy_per_gon;
  }
  row_read_energy_pj_[row] = row_energy;
  double col_energy = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    col_energy += cells_[r * cols + col].true_conductance() * energy_per_gon;
  }
  col_read_energy_pj_[col] = col_energy;
}

Expected<CostReport> Crossbar::ProgramLevels(
    std::span<const std::uint64_t> levels) {
  CIM_REQUIRE(levels.size() == params_.rows * params_.cols,
              InvalidArgument("level matrix size mismatch"));
  const std::uint64_t max_level = params_.cell.levels() - 1;
  for (std::uint64_t level : levels) {
    CIM_REQUIRE(level <= max_level,
                OutOfRange("cell level exceeds cell_bits"));
  }

  CostReport total;
  for (std::size_t r = 0; r < params_.rows; ++r) {
    double row_latency = 0.0;
    for (std::size_t c = 0; c < params_.cols; ++c) {
      const device::ProgramResult pr =
          cells_[r * params_.cols + c].Program(params_.cell,
                                               levels[r * params_.cols + c],
                                               rng_);
      ++write_attempts_;
      if (!pr.verified) ++write_verify_failures_;
      total.energy_pj += pr.energy.pj;
      // A row's cells program in parallel (write verify is per-row).
      row_latency = std::max(row_latency, pr.latency.ns);
      ++total.operations;
    }
    total.latency_ns += row_latency;  // rows are written serially
  }
  // The level matrix itself had to reach the array from outside.
  total.bytes_moved += static_cast<double>(levels.size()) *
                       static_cast<double>(params_.cell.cell_bits) / 8.0;
  RefreshMirror();
  return total;
}

Expected<CostReport> Crossbar::ProgramCell(std::size_t row, std::size_t col,
                                           std::uint64_t level) {
  CIM_REQUIRE(row < params_.rows && col < params_.cols,
              OutOfRange("cell coordinate"));
  CIM_REQUIRE(level <= params_.cell.levels() - 1,
              OutOfRange("cell level exceeds cell_bits"));
  const device::ProgramResult pr =
      cells_[row * params_.cols + col].Program(params_.cell, level, rng_);
  ++write_attempts_;
  if (!pr.verified) ++write_verify_failures_;
  RefreshMirrorCell(row, col);
  CostReport cost;
  cost.latency_ns = pr.latency.ns;
  cost.energy_pj = pr.energy.pj;
  cost.operations = 1;
  cost.bytes_moved = params_.cell.cell_bits / 8.0;
  return cost;
}

double Crossbar::FullScaleCurrent(Direction dir) const {
  return static_cast<double>(DrivenLines(dir)) * params_.dac.v_read *
         params_.cell.g_on_siemens;
}

std::vector<double> Crossbar::IdealColumnCurrents(
    std::span<const std::uint64_t> row_codes) const {
  CIM_CHECK(row_codes.size() == params_.rows);
  // Deliberately computed off cells_ (the source of truth), not the SoA
  // mirror: the mirror-invalidation tests compare cycles against this.
  std::vector<double> currents(params_.cols, 0.0);
  for (std::size_t r = 0; r < params_.rows; ++r) {
    const double v = params_.dac.LevelVoltage(row_codes[r]);
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < params_.cols; ++c) {
      currents[c] += v * EffectiveConductance(cells_[r * params_.cols + c]);
    }
  }
  return currents;
}

void Crossbar::AccumulateReference(Direction dir, const DrivePattern& drive,
                                   Rng& rng, std::span<double> currents,
                                   double& energy_pj) {
  const bool forward = dir == Direction::kForward;
  const std::size_t line_stride = forward ? params_.cols : 1;
  const std::size_t cell_stride = forward ? 1 : params_.cols;
  const std::size_t line_cells = SensedLines(dir);
  for (std::size_t i = 0; i < drive.voltages.size(); ++i) {
    const double v = drive.voltages[i];
    if (v == 0.0) continue;
    for (std::size_t j = 0; j < line_cells; ++j) {
      const device::ReadResult rr =
          cells_[i * line_stride + j * cell_stride].Read(params_.cell, rng);
      currents[j] += v * rr.conductance_siemens;
      energy_pj += rr.energy.pj;
    }
    energy_pj += params_.dac.drive_energy.pj;
  }
}

void Crossbar::AccumulateFast(Direction dir, const DrivePattern& drive,
                              std::size_t sensed, Rng& rng,
                              std::span<double> currents,
                              std::span<double> bounds, double& energy_pj) {
  const bool forward = dir == Direction::kForward;
  const double* plane = forward ? gain_.data() : gain_transposed_.data();
  const double* line_energy_pj =
      forward ? row_read_energy_pj_.data() : col_read_energy_pj_.data();
  const std::size_t line_cells = SensedLines(dir);
  // Per driven line: draw the sensed prefix's noise factors into a scratch
  // buffer — under the bit-exact policies in the same order the reference
  // walk consumes the stream (line by line, every cell of an active line,
  // the unsensed tail skipped rather than computed), under kFastNoise from
  // the NoiseModel's tile — then run a dense accumulate over the line's
  // contiguous conductances. Only the first `sensed` currents are computed:
  // no ADC reads the rest. The two loops split the sampling from the
  // arithmetic, so the second loop auto-vectorizes; each sensed line owns
  // an independent accumulator chain, so vectorizing cannot reorder any FP
  // sum.
  double* factors = FactorScratch(sensed);
  for (std::size_t i = 0; i < drive.voltages.size(); ++i) {
    const double v = drive.voltages[i];
    if (v == 0.0) continue;
    AccumulateLine(plane + i * line_cells, v, sensed, line_cells, rng,
                   factors, currents, bounds);
    energy_pj += line_energy_pj[i];
    energy_pj += params_.dac.drive_energy.pj;
  }
}

double* Crossbar::FactorScratch(std::size_t sensed) const {
  if (!noise_.enabled()) return nullptr;
  thread_local std::vector<double> factors;
  if (factors.size() < sensed) factors.resize(sensed);
  return factors.data();
}

void Crossbar::AccumulateLine(const double* gains, double v,
                              std::size_t sensed, std::size_t line_cells,
                              Rng& rng, double* factors,
                              std::span<double> currents,
                              std::span<double> bounds) const {
  const double ceiling = params_.cell.g_on_siemens * 1.5;
  // __restrict: the mirror, the scratch buffer and the accumulators never
  // alias, and saying so is what lets the dense loops below vectorize
  // without runtime overlap checks.
  const double* __restrict g = gains;
  double* __restrict cur = currents.data();
  if (!noise_.enabled()) {
    for (std::size_t i = 0; i < sensed; ++i) {
      cur[i] += v * std::clamp(g[i], 0.0, ceiling);
    }
    return;
  }
  double* __restrict f = factors;
  if (bounds.empty()) {
    noise_.FillFactors(rng, f, sensed, line_cells);
    for (std::size_t i = 0; i < sensed; ++i) {
      cur[i] += v * std::clamp(g[i] * f[i], 0.0, ceiling);
    }
    return;
  }
  // Certified path: approximate factors, plus each line's share of the
  // error-bound basis sum |v * g * f~| (unclamped — an upper bound on the
  // exact and the approximate term alike).
  noise_.FillFactorsApprox(rng, f, sensed, line_cells);
  double* __restrict b = bounds.data();
  for (std::size_t i = 0; i < sensed; ++i) {
    const double gf = g[i] * f[i];
    cur[i] += v * std::clamp(gf, 0.0, ceiling);
    b[i] += v * std::abs(gf);
  }
}

void Crossbar::SenseFast(Direction dir, const DrivePattern& drive,
                         std::size_t sensed, Rng& rng, double attenuation,
                         double full_scale, std::span<double> currents,
                         std::span<std::uint64_t> codes, double& energy_pj) {
  if (noise_.approximable()) {
    // Certify every sensed code from the polynomial factors. Against the
    // exact kernel, each term v * clamp(g * f) moves by at most
    // (eps + 4u) * |v g f~| (eps = kApproxRelError, u = 2^-53: the factor
    // error plus the two roundings on each side), and each n-term sum
    // carries at most (n - 1) u * sum|term| of rounding, so the exact
    // current lies within (eps + (2n + 2) u) * B of the approximate one,
    // B = sum |v g f~| over the n driven lines. The radius doubles that:
    // the slack absorbs the roundings of B, of the radius and of I -+ E.
    CertificationTally& tally = ThreadCertificationTally();
    ++tally.cycles;
    const Rng snapshot = rng;
    const double energy_before = energy_pj;
    thread_local std::vector<double> bounds;
    bounds.assign(sensed, 0.0);
    AccumulateFast(dir, drive, sensed, rng, currents, bounds, energy_pj);
    const double radius_per_basis =
        2.0 * (device::NoiseModel::kApproxRelError +
               static_cast<double>(drive.active + 2) * 0x1p-53);
    bool certified = true;
    for (std::size_t i = 0; i < sensed && certified; ++i) {
      const double radius = radius_per_basis * bounds[i];
      const std::optional<std::uint64_t> code = params_.adc.EncodeInterval(
          currents[i] - radius, currents[i] + radius, attenuation,
          full_scale);
      certified = code.has_value();
      if (certified) codes[i] = *code;
    }
    if (certified) return;
    // An ambiguous code: replay the whole cycle on the exact sampler from
    // the snapshot, so the stream and every code match kReference.
    ++tally.replays;
    rng = snapshot;
    std::fill(currents.begin(), currents.end(), 0.0);
    energy_pj = energy_before;
  }
  AccumulateFast(dir, drive, sensed, rng, currents, {}, energy_pj);
  EncodeLines(currents, sensed, attenuation, full_scale, codes);
}

void Crossbar::EncodeLines(std::span<const double> currents,
                           std::size_t sensed, double attenuation,
                           double full_scale,
                           std::span<std::uint64_t> codes) const {
  for (std::size_t i = 0; i < sensed; ++i) {
    codes[i] = params_.adc.Encode(currents[i] * attenuation, full_scale);
  }
}

Status Crossbar::CheckCycle(Direction dir, std::size_t driven,
                           std::size_t sensed) const {
  const bool forward = dir == Direction::kForward;
  CIM_REQUIRE(driven == DrivenLines(dir),
              InvalidArgument(forward ? "row drive size mismatch"
                                      : "column drive size mismatch"));
  // 0 means "sense every line"; more than exist is a caller bug, so it is
  // rejected rather than clamped.
  CIM_REQUIRE(sensed <= SensedLines(dir),
              InvalidArgument(forward ? "active_cols exceeds crossbar width"
                                      : "active_rows exceeds crossbar height"));
  return Status::Ok();
}

Expected<AnalogCycleResult> Crossbar::Cycle(
    std::span<const std::uint64_t> row_codes, std::size_t active_cols,
    Rng* noise_rng) {
  return CycleCodes(Direction::kForward, row_codes, active_cols, noise_rng);
}

Expected<AnalogCycleResult> Crossbar::CycleTranspose(
    std::span<const std::uint64_t> col_codes, std::size_t active_rows,
    Rng* noise_rng) {
  return CycleCodes(Direction::kTranspose, col_codes, active_rows, noise_rng);
}

Expected<AnalogCycleResult> Crossbar::CycleCodes(
    Direction dir, std::span<const std::uint64_t> codes, std::size_t sensed,
    Rng* noise_rng) {
  CIM_RETURN_IF_ERROR(CheckCycle(dir, codes.size(), sensed));
  thread_local DrivePattern drive;
  CIM_RETURN_IF_ERROR(PrepareDrive(params_.dac, codes, &drive));
  return CycleDriven(dir, drive, sensed, noise_rng);
}

Expected<AnalogCycleResult> Crossbar::CycleDriven(Direction dir,
                                                  const DrivePattern& drive,
                                                  std::size_t sensed,
                                                  Rng* noise_rng) {
  CIM_RETURN_IF_ERROR(CheckCycle(dir, drive.voltages.size(), sensed));
  Rng& rng = noise_rng != nullptr ? *noise_rng : rng_;
  const std::size_t lines = SensedLines(dir);
  if (sensed == 0) sensed = lines;

  AnalogCycleResult result;
  result.column_codes.assign(lines, 0);

  // Accumulate the noisy sensed currents and digitize the gated ones.
  // Every cell on a driven line draws (conductance-proportional) read
  // energy. First-order IR drop attenuates with the fraction of
  // simultaneously driven lines.
  const double attenuation =
      1.0 - params_.ir_drop_alpha * static_cast<double>(drive.active) /
                static_cast<double>(DrivenLines(dir));
  const double full_scale = FullScaleCurrent(dir);
  std::vector<double> currents(lines, 0.0);
  double energy_pj = 0.0;
  if (params_.kernel == device::KernelPolicy::kReference) {
    AccumulateReference(dir, drive, rng, currents, energy_pj);
    EncodeLines(currents, sensed, attenuation, full_scale,
                result.column_codes);
  } else {
    SenseFast(dir, drive, sensed, rng, attenuation, full_scale, currents,
              result.column_codes, energy_pj);
  }
  result.cost.energy_pj = energy_pj;
  for (std::size_t i = 0; i < sensed; ++i) {
    result.cost.energy_pj += params_.adc.conversion_energy().pj;
  }

  // Latency: one DAC settle + cell read pulse happens for all driven lines
  // in parallel; ADC conversions serialize within each ADC group. Every
  // ADC converts its share serially while all ADCs run in parallel, so the
  // critical path is the share of one ADC.
  const double serial_conversions =
      std::min(static_cast<double>(params_.columns_per_adc),
               static_cast<double>(sensed));
  result.cost.latency_ns = params_.dac.settle_latency.ns +
                           params_.cell.read_latency.ns +
                           serial_conversions *
                               params_.adc.conversion_latency().ns;
  result.cost.bytes_moved = 0.0;  // nothing crossed a package boundary
  result.cost.operations =
      static_cast<std::uint64_t>(drive.active) * sensed * 2;  // MAC=2ops
  return result;
}

void Crossbar::Age(TimeNs elapsed) {
  for (auto& cell : cells_) cell.Age(params_.cell, elapsed);
  RefreshMirror();
}

void Crossbar::InjectCellFault(std::size_t row, std::size_t col,
                               device::CellFault fault) {
  CIM_CHECK(row < params_.rows && col < params_.cols);
  cells_[row * params_.cols + col].InjectFault(fault);
  RefreshMirrorCell(row, col);
}

std::size_t Crossbar::CountFaultedCells() const {
  std::size_t n = 0;
  for (const auto& cell : cells_) {
    if (cell.fault() != device::CellFault::kNone) ++n;
  }
  return n;
}

}  // namespace cim::crossbar
