// baseline::ComputeEngine adapter for the DPE.
//
// The §VI comparison benches iterate one polymorphic list of engines (CPU,
// GPU, PIM, DPE) instead of special-casing the DPE's richer
// InferenceEstimate. The adapter folds the estimate into the common
// CostReport currency; the DPE-only fields (arrays used, programming cost)
// stay available through model() for callers that want them.
#pragma once

#include <string>

#include "baseline/compute_engine.h"
#include "dpe/analytical.h"

namespace cim::dpe {

class DpeEngine final : public baseline::ComputeEngine {
 public:
  explicit DpeEngine(DpeParams params = DpeParams::Isaac())
      : model_(std::move(params)) {}

  [[nodiscard]] std::string name() const override { return "dpe"; }

  // Latency and energy map directly; operations are the MACs. bytes_moved
  // is the input and output activations only (1 byte each at 8-bit
  // precision): weights are resident in the arrays after programming and
  // never cross the off-chip memory interface — the CIM premise the
  // comparison exists to show.
  [[nodiscard]] Expected<CostReport> EstimateInference(
      const nn::Network& net) const override;

  [[nodiscard]] const AnalyticalDpeModel& model() const { return model_; }

 private:
  AnalyticalDpeModel model_;
};

}  // namespace cim::dpe
