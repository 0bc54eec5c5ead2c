#include <algorithm>
#include <variant>

#include "common/rng.h"
#include "crossbar/mvm_engine.h"
#include "workload.h"

namespace perfbench {

using cim::DeriveSeed;
using cim::Expected;
using cim::Rng;

std::size_t ArgMax(const std::vector<double>& v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

Expected<std::vector<std::vector<double>>> LayerInputs(
    const cim::nn::Network& net, const cim::nn::Tensor& input) {
  std::vector<std::vector<double>> per_layer;
  cim::nn::Network prefix;
  prefix.name = net.name;
  prefix.input_shape = net.input_shape;
  per_layer.push_back(input.vec());
  for (std::size_t i = 0; i + 1 < net.layers.size(); ++i) {
    prefix.layers.push_back(net.layers[i]);
    auto out = cim::nn::Forward(prefix, input);
    if (!out.ok()) return out.status();
    per_layer.push_back(out->vec());
  }
  return per_layer;
}

namespace {

// Mirrors DpeAccelerator's engine configuration and tiling: row chunks of
// array.rows, column chunks of array.cols (one fewer with a guard column).
cim::crossbar::MvmEngineParams EngineParams(const cim::dpe::DpeParams& p) {
  cim::crossbar::MvmEngineParams e;
  e.array = p.array;
  e.weight_bits = p.weight_bits;
  e.input_bits = p.input_bits;
  if (p.fault_tolerance.enabled && p.fault_tolerance.guard_column) {
    e.guard_column = true;
    e.guard_margin = p.fault_tolerance.guard_margin;
  }
  return e;
}

struct ReplayTile {
  cim::crossbar::MvmEngine engine;
  std::size_t layer = 0;
  std::size_t row_offset = 0;
  std::size_t rows = 0;
};

}  // namespace

Expected<TileReplay> ReplayTiles(const cim::dpe::DpeParams& params,
                                 const cim::nn::Network& net,
                                 std::span<const cim::nn::Tensor> inputs,
                                 std::uint64_t seed, cim::ThreadPool* pool,
                                 std::size_t batch) {
  const cim::crossbar::MvmEngineParams engine_params = EngineParams(params);
  const std::size_t rows = params.array.rows;
  const std::size_t cols = engine_params.guard_column ? params.array.cols - 1
                                                      : params.array.cols;
  TileReplay replay;
  std::vector<ReplayTile> tiles;
  Rng program_rng(DeriveSeed(seed, 1));
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    const auto* dense = std::get_if<cim::nn::DenseLayer>(&net.layers[l]);
    if (dense == nullptr) {
      return cim::InvalidArgument("tile replay supports dense layers only");
    }
    for (std::size_t r0 = 0; r0 < dense->in_features; r0 += rows) {
      const std::size_t r_len = std::min(rows, dense->in_features - r0);
      for (std::size_t c0 = 0; c0 < dense->out_features; c0 += cols) {
        const std::size_t c_len = std::min(cols, dense->out_features - c0);
        std::vector<double> sub(r_len * c_len);
        for (std::size_t r = 0; r < r_len; ++r) {
          for (std::size_t c = 0; c < c_len; ++c) {
            sub[r * c_len + c] =
                dense->weights[(r0 + r) * dense->out_features + c0 + c];
          }
        }
        const auto t0 = Clock::now();
        auto engine = cim::crossbar::MvmEngine::Create(
            engine_params, r_len, c_len, program_rng.Fork());
        if (!engine.ok()) return engine.status();
        auto cost = engine->ProgramWeights(sub);
        if (!cost.ok()) return cost.status();
        replay.program_ms += 1e3 * SecondsSince(t0);
        const cim::crossbar::EngineWriteStats writes = engine->write_stats();
        replay.write_attempts += writes.attempts;
        replay.verify_failures += writes.verify_failures;
        tiles.push_back({std::move(engine).value(), l, r0, r_len});
      }
    }
  }
  replay.tiles = tiles.size();
  replay.mvms_per_inference = tiles.size();

  std::vector<std::vector<std::vector<double>>> activations;
  activations.reserve(inputs.size());
  for (const cim::nn::Tensor& input : inputs) {
    auto acts = LayerInputs(net, input);
    if (!acts.ok()) return acts.status();
    activations.push_back(std::move(acts).value());
  }

  // Every element's tile MVMs on the calling thread; returns the summed
  // per-call time when `timed`.
  std::vector<cim::Status> statuses(inputs.size(), cim::Status::Ok());
  const auto run_element = [&](std::size_t e, bool timed) {
    double us = 0.0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      ReplayTile& tile = tiles[t];
      const std::vector<double>& act = activations[e][tile.layer];
      const std::span<const double> x(act.data() + tile.row_offset,
                                      tile.rows);
      Rng noise(DeriveSeed(DeriveSeed(seed, 2 + t), e));
      const auto t0 = Clock::now();
      auto y = tile.engine.Compute(x, &noise);
      if (timed) us += 1e6 * SecondsSince(t0);
      if (!y.ok()) statuses[e] = y.status();
    }
    return us;
  };

  // One untimed pass first: the first touch of the engines' planes and of
  // the kernels' work buffers costs more than any later call.
  for (std::size_t e = 0; e < inputs.size(); ++e) {
    static_cast<void>(run_element(e, false));
  }
  for (std::size_t e = 0; e < inputs.size(); ++e) {
    replay.mvm_serial_us += run_element(e, true);
    replay.mvm_calls += tiles.size();
  }
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const auto t0 = Clock::now();
    for (std::size_t begin = 0; begin < inputs.size(); begin += batch) {
      const std::size_t n = std::min(batch, inputs.size() - begin);
      const auto body = [&](std::size_t i) {
        static_cast<void>(run_element(begin + i, false));
      };
      if (pool != nullptr) {
        pool->ParallelFor(n, body);
      } else {
        for (std::size_t i = 0; i < n; ++i) body(i);
      }
    }
    const double us = 1e6 * SecondsSince(t0);
    if (pass == 0 || us < replay.mvm_batched_us) replay.mvm_batched_us = us;
  }
  for (const cim::Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return replay;
}

NoiseReplay ReplayNoise(double sigma, cim::device::KernelPolicy policy,
                        std::size_t row_length, std::uint64_t seed) {
  NoiseReplay replay;
  const cim::device::NoiseModel model(sigma, policy);
  std::vector<double> row(row_length);
  Rng rng(DeriveSeed(seed, 3));
  // At least 2^18 factors and 50 ms, so the per-factor figure is not
  // dominated by the clock's own cost.
  std::uint64_t factors = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (factors < (1U << 18) || elapsed < 0.05) {
    for (int i = 0; i < 64; ++i) {
      model.FillFactors(rng, row.data(), row.size());
      factors += row.size();
    }
    elapsed = SecondsSince(t0);
  }
  replay.fill_ns_per_factor = 1e9 * elapsed / static_cast<double>(factors);

  if (policy == cim::device::KernelPolicy::kFastNoise && sigma > 0.0) {
    constexpr int kBuilds = 5;
    std::vector<double> ms;
    for (int i = 0; i < kBuilds; ++i) {
      const auto b0 = Clock::now();
      const cim::device::NoiseModel built(sigma, policy);
      ms.push_back(1e3 * SecondsSince(b0));
    }
    replay.tile_build_ms = Median(ms);
  }
  return replay;
}

void SetCrossbarMetrics(const TileReplay& tiles, Metrics& layer) {
  layer.Set("crossbar.tile_mvm_us",
            tiles.mvm_calls > 0
                ? tiles.mvm_serial_us / static_cast<double>(tiles.mvm_calls)
                : 0.0,
            "us");
  layer.Set("crossbar.tile_mvms_per_inference",
            static_cast<double>(tiles.mvms_per_inference), "count");
  layer.Set("crossbar.program_ms_per_tile",
            tiles.tiles > 0
                ? tiles.program_ms / static_cast<double>(tiles.tiles)
                : 0.0,
            "ms");
  layer.Set("crossbar.verify_success_ratio",
            tiles.write_attempts > 0
                ? 1.0 - static_cast<double>(tiles.verify_failures) /
                            static_cast<double>(tiles.write_attempts)
                : 0.0,
            "fraction");
}

void SetNoiseMetrics(const NoiseReplay& noise, std::uint64_t tiles_built,
                     Metrics& layer) {
  layer.Set("device.noise_fill_ns_per_factor", noise.fill_ns_per_factor, "ns");
  layer.Set("device.noise_tile_build_ms", noise.tile_build_ms, "ms");
  layer.Set("device.noise_tiles_built", static_cast<double>(tiles_built),
            "count");
}

}  // namespace perfbench
