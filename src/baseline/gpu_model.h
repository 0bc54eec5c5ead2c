// GPU baseline: SIMT accelerator with HBM, evaluated with a roofline model
// plus kernel-launch overhead. Batch-1 inference under-utilizes a GPU badly
// (the effect behind the paper's "10-10^2 better latency than GPUs" claim):
// utilization is modelled as the fraction of the machine the layer's
// parallelism can fill.
#pragma once

#include "baseline/compute_engine.h"

namespace cim::baseline {

struct GpuParams {
  std::string name = "gpu-pascal";
  double peak_gflops = 10000.0;       // fp32
  double hbm_bandwidth_gbps = 700.0;
  double l2_bytes = 4.0 * 1024 * 1024;
  double kernel_launch_ns = 10000.0;  // per layer (driver + launch, batch-1)
  // Lanes that must be busy for full throughput; batch-1 layers smaller
  // than this run at proportional utilization.
  double full_utilization_macs = 2.0e6;
  double min_utilization = 0.02;
  // Energy.
  double energy_per_flop_pj = 15.0;
  double hbm_energy_per_byte_pj = 7.0;
  double static_power_w = 50.0;

  [[nodiscard]] Status Validate() const {
    if (peak_gflops <= 0 || hbm_bandwidth_gbps <= 0) {
      return InvalidArgument("GPU rates must be positive");
    }
    return Status::Ok();
  }
};

class GpuModel final : public ComputeEngine {
 public:
  explicit GpuModel(GpuParams params = GpuParams()) : params_(params) {}

  [[nodiscard]] std::string name() const override { return params_.name; }
  [[nodiscard]] Expected<CostReport> EstimateInference(
      const nn::Network& net) const override;

  [[nodiscard]] const GpuParams& params() const { return params_; }

 private:
  GpuParams params_;
};

}  // namespace cim::baseline
