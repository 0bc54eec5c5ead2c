// SEC6-LAT — §VI latency claim: "we achieved latency between 10 and 10^4
// times better than CPUs and between 10 and 10^2 better than GPUs".
//
// Sweeps the benchmark network suite (tiny MLP to cache-busting MLP to
// CNNs) and prints batch-1 inference latency for every ComputeEngine in one
// polymorphic list — CPU, GPU, near-memory PIM and the DPE all speak the
// same CostReport currency — plus ratios against the DPE. The paper's range
// emerges from the size sweep: small models give ~single-digit wins, large
// ones give 1e2..1e4.
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/compute_engine.h"
#include "baseline/cpu_model.h"
#include "baseline/gpu_model.h"
#include "baseline/pim_model.h"
#include "common/rng.h"
#include "dpe/engine_adapter.h"

int main() {
  cim::Rng rng(42);
  std::vector<cim::nn::Network> suite = cim::nn::BuildBenchmarkSuite(rng);
  // Add the cache-busting end of the sweep.
  suite.push_back(
      cim::nn::BuildMlp("mlp-huge", {4096, 8192, 4096, 1024}, rng));

  // One engine list; the DPE rides along via its adapter instead of being
  // special-cased with a different estimate type. Last entry is the
  // reference the ratios are taken against.
  std::vector<std::unique_ptr<cim::baseline::ComputeEngine>> engines;
  engines.push_back(std::make_unique<cim::baseline::CpuModel>());
  engines.push_back(std::make_unique<cim::baseline::GpuModel>());
  engines.push_back(std::make_unique<cim::baseline::PimModel>());
  engines.push_back(std::make_unique<cim::dpe::DpeEngine>());
  const std::size_t dpe_index = engines.size() - 1;

  std::printf("== Section VI: batch-1 inference latency (ns) ==\n");
  std::printf("%-12s %10s", "network", "MMACs");
  for (const auto& engine : engines) {
    std::printf(" %18s", (engine->name() + "_ns").c_str());
  }
  std::printf(" %10s %10s\n", "cpu/dpe", "gpu/dpe");

  double min_cpu_ratio = 1e300, max_cpu_ratio = 0.0;
  for (const cim::nn::Network& net : suite) {
    std::vector<double> latency(engines.size(), 0.0);
    bool ok = true;
    for (std::size_t e = 0; e < engines.size(); ++e) {
      auto cost = engines[e]->EstimateInference(net);
      if (!cost.ok()) { ok = false; break; }
      latency[e] = cost->latency_ns;
    }
    if (!ok) continue;
    const double cpu_ratio = latency[0] / latency[dpe_index];
    const double gpu_ratio = latency[1] / latency[dpe_index];
    min_cpu_ratio = std::min(min_cpu_ratio, cpu_ratio);
    max_cpu_ratio = std::max(max_cpu_ratio, cpu_ratio);
    std::printf("%-12s %10.2f", net.name.c_str(),
                static_cast<double>(net.TotalMacs()) / 1e6);
    for (const double l : latency) std::printf(" %18.3g", l);
    std::printf(" %10.1f %10.1f\n", cpu_ratio, gpu_ratio);
  }
  std::printf("\ncpu/dpe latency ratio across the sweep: %.1fx .. %.0fx "
              "(paper: 10 .. 1e4); the near-memory PIM column sits between "
              "the CPU and the CIM crossbars — the gap the paper's CIM-vs-"
              "PIM distinction is about\n",
              min_cpu_ratio, max_cpu_ratio);
  return 0;
}
