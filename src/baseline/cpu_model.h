// Von Neumann CPU baseline: an in-order multicore with a three-level cache
// hierarchy evaluated with a roofline model. This is the substitution for
// the paper's measured CPU testbed — the constants are server-class
// (Xeon-era, matching the paper's 2018 context) and the model captures the
// effect the paper's Fig 2 describes: performance on batch-1 inference is
// bounded by the memory system whenever the weights exceed the caches.
#pragma once

#include <memory>

#include "baseline/compute_engine.h"

namespace cim::baseline {

struct CpuParams {
  std::string name = "cpu-xeon";
  double peak_gflops = 500.0;       // fp32, all cores, FMA
  double dram_bandwidth_gbps = 60.0;
  double l3_bytes = 32.0 * 1024 * 1024;
  double l2_bytes = 256.0 * 1024;
  // Achievable fraction of peak on GEMV-class kernels.
  double compute_efficiency = 0.4;
  // Energy.
  double energy_per_flop_pj = 60.0;   // core + cache pipeline energy
  double dram_energy_per_byte_pj = 20.0;
  double static_power_w = 45.0;       // package busy-idle floor
  // Per-layer software overhead: framework op dispatch, im2col, memory
  // management. 2018-era batch-1 inference stacks (TensorFlow/Caffe) spent
  // tens of microseconds per op; the paper's CPU comparison includes that
  // software reality.
  double layer_overhead_ns = 20000.0;

  [[nodiscard]] Status Validate() const {
    if (peak_gflops <= 0 || dram_bandwidth_gbps <= 0) {
      return InvalidArgument("CPU rates must be positive");
    }
    return Status::Ok();
  }
};

class CpuModel final : public ComputeEngine {
 public:
  explicit CpuModel(CpuParams params = CpuParams()) : params_(params) {}

  [[nodiscard]] std::string name() const override { return params_.name; }
  [[nodiscard]] Expected<CostReport> EstimateInference(
      const nn::Network& net) const override;

  [[nodiscard]] const CpuParams& params() const { return params_; }

 private:
  CpuParams params_;
};

}  // namespace cim::baseline
