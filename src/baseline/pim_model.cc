#include "baseline/pim_model.h"

#include <algorithm>

namespace cim::baseline {

Expected<CostReport> PimModel::EstimateInference(
    const nn::Network& net) const {
  if (Status s = params_.Validate(); !s.ok()) return s;
  auto profiles = nn::ProfileNetwork(net);
  if (!profiles.ok()) return profiles.status();

  CostReport cost;
  const double effective_flops_per_ns =
      params_.peak_gflops * params_.compute_efficiency;  // GFLOP/s == flop/ns

  for (const nn::LayerProfile& p : *profiles) {
    const double flops = 2.0 * static_cast<double>(p.macs);
    // Weights stream bank-locally every inference (no cache hierarchy);
    // activations ride along.
    const double internal_bytes =
        static_cast<double>(p.weight_count) * 4.0 +
        static_cast<double>(p.in_elements + p.out_elements) * 4.0;

    const double compute_ns =
        flops > 0.0 ? flops / effective_flops_per_ns : 0.0;
    const double memory_ns =
        internal_bytes / params_.internal_bandwidth_gbps;
    cost.latency_ns +=
        std::max(compute_ns, memory_ns) + params_.layer_overhead_ns;
    // Bank-internal traffic never crosses the package: bytes_moved counts
    // only what leaves the stack (inputs in, outputs out).
    cost.bytes_moved +=
        static_cast<double>(p.in_elements + p.out_elements) * 1.0;
    cost.operations += p.macs;
    cost.energy_pj += flops * params_.energy_per_flop_pj +
                      internal_bytes * params_.internal_energy_per_byte_pj;
  }
  cost.energy_pj += params_.static_power_w * cost.latency_ns * 1e3;
  return cost;
}

}  // namespace cim::baseline
