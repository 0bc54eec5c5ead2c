#include "dpe/engine_adapter.h"

namespace cim::dpe {

Expected<CostReport> DpeEngine::EstimateInference(
    const nn::Network& net) const {
  auto estimate = model_.EstimateInference(net);
  if (!estimate.ok()) return estimate.status();

  CostReport cost;
  cost.latency_ns = estimate->latency_ns;
  cost.energy_pj = estimate->energy_pj;
  cost.operations = estimate->macs;

  // Only the network input and final output cross the memory interface —
  // weights are resident after programming and every intermediate
  // activation stays in the on-chip eDRAM buffers.
  auto profile = nn::ProfileNetwork(net);
  if (!profile.ok()) return profile.status();
  if (!profile->empty()) {
    cost.bytes_moved = static_cast<double>(profile->front().in_elements +
                                          profile->back().out_elements);
  }
  return cost;
}

}  // namespace cim::dpe
