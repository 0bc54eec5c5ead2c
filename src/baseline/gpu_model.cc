#include "baseline/gpu_model.h"

#include <algorithm>

namespace cim::baseline {

Expected<CostReport> GpuModel::EstimateInference(
    const nn::Network& net) const {
  if (Status s = params_.Validate(); !s.ok()) return s;
  auto profiles = nn::ProfileNetwork(net);
  if (!profiles.ok()) return profiles.status();

  const double total_weight_bytes =
      static_cast<double>(net.TotalWeights()) * 4.0;
  const bool weights_resident = total_weight_bytes <= params_.l2_bytes;

  CostReport cost;
  for (const nn::LayerProfile& p : *profiles) {
    const double flops = 2.0 * static_cast<double>(p.macs);
    const double weight_bytes = static_cast<double>(p.weight_count) * 4.0;
    const double activation_bytes =
        static_cast<double>(p.in_elements + p.out_elements) * 4.0;

    // Batch-1 utilization: a layer with fewer MACs than the machine's
    // fill point runs proportionally slower per flop.
    const double utilization = std::clamp(
        static_cast<double>(p.macs) / params_.full_utilization_macs,
        params_.min_utilization, 1.0);
    const double effective_flops_per_ns = params_.peak_gflops * utilization;

    // GPU weights live in HBM; "resident" only means the small L2 shields
    // re-reads within one inference.
    const double dram_bytes =
        (weights_resident ? 0.0 : weight_bytes) + activation_bytes;

    const double compute_ns =
        flops > 0.0 ? flops / effective_flops_per_ns : 0.0;
    const double memory_ns = dram_bytes / params_.hbm_bandwidth_gbps;
    cost.latency_ns +=
        std::max(compute_ns, memory_ns) + params_.kernel_launch_ns;
    cost.bytes_moved += dram_bytes;
    cost.operations += p.macs;
    cost.energy_pj += flops * params_.energy_per_flop_pj +
                      dram_bytes * params_.hbm_energy_per_byte_pj;
  }
  cost.energy_pj += params_.static_power_w * cost.latency_ns * 1e3;
  return cost;
}

}  // namespace cim::baseline
