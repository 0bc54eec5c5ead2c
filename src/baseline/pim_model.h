// Near-memory PIM baseline (§I/§II.E: the paper distinguishes its CIM
// vision from two decades of processing-in-memory / near-memory designs —
// "most of that work was focused on stationary data with some processing
// collocated").
//
// Model: digital MAC units placed at the DRAM banks (HMC/Chameleon-class).
// Weights never cross the off-package interface — the internal bank
// bandwidth is an order of magnitude above the external bus — but the
// compute itself is still digital logic in a DRAM process: modest rate and
// energy per op well above a logic-process core. This is the middle point
// between the CPU and the CIM crossbars, and the §VI benches show exactly
// that ordering.
#pragma once

#include "baseline/compute_engine.h"

namespace cim::baseline {

struct PimParams {
  std::string name = "pim-near-memory";
  // Aggregate internal (bank-level) bandwidth.
  double internal_bandwidth_gbps = 480.0;
  // Digital MACs in DRAM process, all vaults together.
  double peak_gflops = 1000.0;
  double compute_efficiency = 0.6;  // streaming GEMV suits PIM well
  // Energy: DRAM-process logic ~2x logic-process energy/op, but bank-local
  // access is far cheaper than crossing the interface.
  double energy_per_flop_pj = 25.0;
  double internal_energy_per_byte_pj = 4.0;
  double static_power_w = 8.0;
  double layer_overhead_ns = 3000.0;  // command packets to the vaults

  [[nodiscard]] Status Validate() const {
    if (peak_gflops <= 0.0 || internal_bandwidth_gbps <= 0.0) {
      return InvalidArgument("PIM rates must be positive");
    }
    return Status::Ok();
  }
};

class PimModel final : public ComputeEngine {
 public:
  explicit PimModel(PimParams params = PimParams()) : params_(params) {}

  [[nodiscard]] std::string name() const override { return params_.name; }
  [[nodiscard]] Expected<CostReport> EstimateInference(
      const nn::Network& net) const override;

  [[nodiscard]] const PimParams& params() const { return params_; }

 private:
  PimParams params_;
};

}  // namespace cim::baseline
