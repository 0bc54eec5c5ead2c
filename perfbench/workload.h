// The workload interface the perfbench binary runs, and the layer replays
// the traced run uses to time layers hidden behind a top-level call.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "device/noise_model.h"
#include "dpe/params.h"
#include "nn/network.h"
#include "nn/tensor.h"

namespace perfbench {

// Pearson correlation between analog outputs and the float golden model's,
// over every output element of the modeled window.
struct OutputCorrelation {
  double n = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;

  void Add(const std::vector<double>& analog,
           const std::vector<double>& golden) {
    for (std::size_t i = 0; i < analog.size() && i < golden.size(); ++i) {
      const double x = analog[i];
      const double y = golden[i];
      n += 1.0;
      sx += x;
      sy += y;
      sxx += x * x;
      syy += y * y;
      sxy += x * y;
    }
  }
  [[nodiscard]] double value() const {
    const double cov = n * sxy - sx * sy;
    const double var = (n * sxx - sx * sx) * (n * syy - sy * sy);
    return var > 0.0 ? cov / std::sqrt(var) : 0.0;
  }
};

// What one timed phase produced. Host numbers cover every round of the
// phase; modeled numbers cover only the first MinRounds() rounds, a fixed
// window, so they are identical at a given seed however fast the host is.
struct PhaseStats {
  double wall_s = 0.0;
  std::size_t rounds = 0;
  std::vector<double> call_ms;  // host time of each timed public call
  std::uint64_t inferences = 0;  // simulated inferences completed
  // Simulated inferences per host second of each round.
  std::vector<double> round_rates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> round_digests;
  std::vector<double> virtual_us;
  double energy_nj = 0.0;
  std::uint64_t energy_samples = 0;
  std::uint64_t top1_agree = 0;
  std::uint64_t top1_samples = 0;
  OutputCorrelation correlation;  // serve-exact and fabric-pipeline
  std::uint64_t points = 0;  // design points scored (dse-sweep)
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::size_t threads = 4;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The library Create calls of the system under test; the benchmark times
  // this as set-up.
  [[nodiscard]] virtual cim::Status Setup() = 0;
  // Destroys the system under test and joins its threads.
  virtual void Teardown() = 0;
  // Rounds in the modeled window; a phase runs at least this many.
  [[nodiscard]] virtual std::size_t MinRounds() const = 0;
  // One deterministic unit of work. Round k of a fresh Setup does the same
  // work and produces the same outputs in every phase and run at a seed.
  [[nodiscard]] virtual cim::Status RunRound(Tracer& tracer, bool in_window,
                                             PhaseStats& stats) = 0;
  // Invariants of the phase just run (conservation, counts); called before
  // Teardown.
  [[nodiscard]] virtual cim::Status CheckPhase(const PhaseStats& stats) = 0;
  // Per-layer metrics of the traced phase: counters it collected plus
  // replays of the layers its calls hid. Called after that phase's
  // Teardown, so replays never share the host with the system under test.
  [[nodiscard]] virtual cim::Status Replay(Tracer& tracer,
                                           Metrics& layer) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> MakeServeExact(
    const WorkloadConfig& config);
[[nodiscard]] std::unique_ptr<Workload> MakeDseSweep(
    const WorkloadConfig& config);
[[nodiscard]] std::unique_ptr<Workload> MakeFabricPipeline(
    const WorkloadConfig& config);

// --- layer replays ---------------------------------------------------------

// Timed replay passes whose fastest is kept. Self times subtract one replay
// from another taken moments apart, and host contention only ever slows a
// pass, so the minimum is the steadier estimate.
inline constexpr int kReplayPasses = 3;

// Re-drives the crossbar layer under a DpeAccelerator: builds the engine
// tiles Create maps `net` onto (same shapes and weights), programs them,
// and runs every tile MVM the float activations of `inputs` cause.
struct TileReplay {
  std::size_t tiles = 0;
  double program_ms = 0.0;  // MvmEngine::Create + ProgramWeights, all tiles
  std::uint64_t write_attempts = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t mvm_calls = 0;
  double mvm_serial_us = 0.0;  // sum of per-call Compute times, one thread
  // Wall time of all the MVMs with each `batch` of elements spread over
  // `pool` the way InferBatch spreads them (serially without a pool): the
  // fastest of kReplayPasses passes, since host contention only slows one.
  double mvm_batched_us = 0.0;
  std::size_t mvms_per_inference = 0;

  TileReplay& operator+=(const TileReplay& o) {
    tiles += o.tiles;
    program_ms += o.program_ms;
    write_attempts += o.write_attempts;
    verify_failures += o.verify_failures;
    mvm_calls += o.mvm_calls;
    mvm_serial_us += o.mvm_serial_us;
    mvm_batched_us += o.mvm_batched_us;
    mvms_per_inference += o.mvms_per_inference;
    return *this;
  }
};

[[nodiscard]] cim::Expected<TileReplay> ReplayTiles(
    const cim::dpe::DpeParams& params, const cim::nn::Network& net,
    std::span<const cim::nn::Tensor> inputs, std::uint64_t seed,
    cim::ThreadPool* pool, std::size_t batch);

// Re-drives the device layer's read-noise sampling for one array row.
struct NoiseReplay {
  double fill_ns_per_factor = 0.0;  // NoiseModel::FillFactors
  double tile_build_ms = 0.0;       // kFastNoise tile build; 0 if unused
};

[[nodiscard]] NoiseReplay ReplayNoise(double sigma,
                                      cim::device::KernelPolicy policy,
                                      std::size_t row_length,
                                      std::uint64_t seed);

// Float activations entering each dense layer of `net` for `input`.
[[nodiscard]] cim::Expected<std::vector<std::vector<double>>> LayerInputs(
    const cim::nn::Network& net, const cim::nn::Tensor& input);

[[nodiscard]] std::size_t ArgMax(const std::vector<double>& v);

// Records the tile and noise replays as crossbar.* and device.* metrics.
void SetCrossbarMetrics(const TileReplay& tiles, Metrics& layer);
void SetNoiseMetrics(const NoiseReplay& noise, std::uint64_t tiles_built,
                     Metrics& layer);

}  // namespace perfbench
