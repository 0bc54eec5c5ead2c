// Common interface for the §VI comparison: the DPE and the von Neumann
// baselines all estimate the cost of one batch-1 network inference in the
// same currency, CostReport: latency, energy, bytes_moved (the bytes that
// cross the off-chip memory interface) and operations (the MACs).
#pragma once

#include <string>

#include "common/stats.h"
#include "common/status.h"
#include "nn/network.h"

namespace cim::baseline {

class ComputeEngine {
 public:
  virtual ~ComputeEngine() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Expected<CostReport> EstimateInference(
      const nn::Network& net) const = 0;
};

}  // namespace cim::baseline
