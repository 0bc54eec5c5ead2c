// fabric-pipeline: the only workload where the fabric and noc layers work.
// Repeated fabric::FabricCoSim::InferBatch calls of one fixed batch on a
// 4x2 tile grid (four pipeline stages, two column splits each) under the
// kFastNoise kernel; activations cross the mesh NoC between stages.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "dpe/accelerator.h"
#include "fabric/cosim.h"
#include "noc/mesh.h"
#include "workload.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::Status;

constexpr std::size_t kInputDim = 128;
constexpr std::size_t kBatch = 32;
// The modeled window holds 32 calls, 1024 elements, enough for a p99.
constexpr std::size_t kWindowRounds = 32;
// Batches the traced run pushes through the NoC replay.
constexpr std::size_t kNocReplayBatches = 4;

// The model is part of the workload, fixed across seeds; the seed drives
// the batch contents and the tiles' programming and noise streams.
constexpr std::uint64_t kModelSeed = 0xFAB51C;

enum Stream : std::uint64_t { kInputStream = 1, kFabricStream };

cim::fabric::FabricParams Params(std::uint64_t seed, std::size_t threads) {
  cim::fabric::FabricParams p;
  p.partition.grid_width = 4;
  p.partition.grid_height = 2;
  p.partition.column_splits = 2;
  p.dpe.array.kernel = cim::device::KernelPolicy::kFastNoise;
  p.dpe.array.cell.read_noise_sigma = 0.02;
  p.worker_threads = threads;
  p.seed = DeriveSeed(seed, kFabricStream);
  return p;
}

// Counts what reaches the tile nodes of the NoC replay.
class CountingSink final : public cim::noc::DeliverySink {
 public:
  void OnDelivery(cim::noc::Delivery&&) override { ++delivered; }
  void OnDrop(const cim::noc::Packet&, cim::noc::DropReason) override {
    ++dropped;
  }
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

class FabricPipeline final : public Workload {
 public:
  explicit FabricPipeline(const WorkloadConfig& config)
      : config_(config), params_(Params(config.seed, config.threads)) {
    // Weight scale 0.2 keeps the activation spread roughly constant from
    // layer to layer, inside the crossbars' [0, 1] input range.
    Rng net_rng(kModelSeed);
    net_ = cim::nn::BuildMlp("fabric-pipeline",
                             {kInputDim, 128, 128, 128, 32}, net_rng, 0.2);
    Rng input_rng(DeriveSeed(config.seed, kInputStream));
    for (std::size_t b = 0; b < kBatch; ++b) {
      cim::nn::Tensor t({kInputDim});
      for (double& v : t.vec()) v = input_rng.Uniform(0.0, 1.0);
      auto golden = cim::nn::Forward(net_, t);
      golden_.push_back(golden.ok() ? golden->vec() : std::vector<double>{});
      batch_.push_back(std::move(t));
    }
  }

  Status Setup() override {
    auto fabric = cim::fabric::FabricCoSim::Create(params_, net_);
    if (!fabric.ok()) return fabric.status();
    fabric_ = std::move(fabric).value();
    call_spans_.clear();
    epochs_ = 0;
    noc_latency_ns_ = 0.0;
    latency_ns_ = 0.0;
    compute_ns_per_stage_ = 0.0;
    return Status::Ok();
  }

  void Teardown() override { fabric_.reset(); }

  std::size_t MinRounds() const override { return kWindowRounds; }

  Status RunRound(Tracer& tracer, bool in_window, PhaseStats& stats) override {
    const std::uint64_t epochs_before = fabric_->epochs_run();
    const auto t0 = Clock::now();
    const int span = tracer.Begin("fabric.InferBatch", stats.rounds);
    auto results = fabric_->InferBatch(batch_);
    tracer.End(span);
    stats.call_ms.push_back(1e3 * SecondsSince(t0));
    if (!results.ok()) return results.status();
    const std::uint64_t epochs = fabric_->epochs_run() - epochs_before;
    const std::size_t stages = fabric_->plan().stage_count;
    if (results->size() != kBatch || epochs != kBatch + stages - 1) {
      return cim::DataCorruption("fabric batch ran " + std::to_string(epochs) +
                                 " epochs for " +
                                 std::to_string(results->size()) +
                                 " elements");
    }
    if (tracer.enabled()) {
      call_spans_.push_back(span);
      epochs_ += epochs;
    }

    Digest digest;
    for (std::size_t b = 0; b < results->size(); ++b) {
      const cim::dpe::InferResult& r = (*results)[b];
      digest.Add(r.output.vec());
      digest.Add(r.cost.latency_ns);
      digest.Add(r.cost.energy_pj);
      digest.Add(r.noc_cost.latency_ns);
      digest.Add(r.noc_cost.energy_pj);
      ++stats.attempted;
      ++stats.inferences;
      if (r.fault_report.degraded > 0) ++stats.failed;
      if (!in_window) continue;
      stats.virtual_us.push_back(1e-3 * r.cost.latency_ns);
      stats.energy_nj += 1e-3 * r.cost.energy_pj;
      ++stats.energy_samples;
      ++stats.top1_samples;
      if (ArgMax(r.output.vec()) == ArgMax(golden_[b])) ++stats.top1_agree;
      stats.correlation.Add(r.output.vec(), golden_[b]);
      noc_latency_ns_ += r.noc_cost.latency_ns;
      latency_ns_ += r.cost.latency_ns;
      compute_ns_per_stage_ = (r.cost.latency_ns - r.noc_cost.latency_ns) /
                              static_cast<double>(stages);
    }
    stats.round_digests.push_back(digest.value());
    return Status::Ok();
  }

  Status CheckPhase(const PhaseStats& stats) override {
    const cim::noc::NocTelemetry& t = fabric_->noc_telemetry();
    const std::size_t k = fabric_->plan().splits_per_stage;
    const std::uint64_t expected =
        stats.rounds * kBatch * (fabric_->plan().stage_count - 1) * k * k;
    if (t.injected != t.delivered + t.dropped || t.injected != expected) {
      return cim::DataCorruption(
          "noc conservation violated: injected " + std::to_string(t.injected) +
          ", delivered " + std::to_string(t.delivered) + ", dropped " +
          std::to_string(t.dropped) + ", expected " + std::to_string(expected));
    }
    telemetry_ = t;
    plan_ = fabric_->plan();
    return Status::Ok();
  }

  Status Replay(Tracer& tracer, Metrics& layer) override {
    double call_us = 0.0;
    std::vector<double> call_span_us;
    for (int id : call_spans_) {
      const Span& s = tracer.spans()[static_cast<std::size_t>(id)];
      call_span_us.push_back(s.end_us - s.start_us);
      call_us += call_span_us.back();
    }
    const double call_us_p50 = Median(call_span_us);
    const int parent = call_spans_.empty() ? -1 : call_spans_.front();
    layer.Set("fabric.epochs", static_cast<double>(epochs_), "count");
    layer.Set("fabric.epoch_us",
              epochs_ > 0 ? call_us / static_cast<double>(epochs_) : 0.0, "us");
    layer.Set("noc.injected", static_cast<double>(telemetry_.injected),
              "count");
    layer.Set("noc.delivered", static_cast<double>(telemetry_.delivered),
              "count");
    layer.Set("noc.dropped", static_cast<double>(telemetry_.dropped), "count");
    layer.Set("noc.latency_share",
              latency_ns_ > 0.0 ? noc_latency_ns_ / latency_ns_ : 0.0,
              "fraction");

    // dpe under fabric: twins of the tile accelerators (same parameters
    // and seeds as FabricCoSim::Create) run one batch serially.
    cim::dpe::DpeParams tile_params = params_.dpe;
    tile_params.worker_threads = 1;
    std::vector<std::unique_ptr<cim::dpe::DpeAccelerator>> tiles;
    std::vector<double> create_ms;
    std::size_t arrays = 0;
    for (std::size_t i = 0; i < plan_.tiles.size(); ++i) {
      const auto t0 = Clock::now();
      auto accel = cim::dpe::DpeAccelerator::Create(
          tile_params, plan_.tiles[i].subnet, Rng(DeriveSeed(params_.seed, i)));
      create_ms.push_back(1e3 * SecondsSince(t0));
      if (!accel.ok()) return accel.status();
      arrays += (*accel)->arrays_used();
      tiles.push_back(std::move(accel).value());
    }
    layer.Set("dpe.create_ms", Median(create_ms), "ms");
    layer.Set("dpe.arrays_used", static_cast<double>(arrays), "count");

    // Float activations entering each stage stand in for the analog ones.
    std::vector<std::vector<std::vector<double>>> acts;
    for (const cim::nn::Tensor& input : batch_) {
      auto a = LayerInputs(net_, input);
      if (!a.ok()) return a.status();
      acts.push_back(std::move(a).value());
    }
    // The batch's tile inferences, serially; the fastest pass is kept.
    double tile_infer_us = 0.0;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
      double pass_us = 0.0;
      for (std::size_t b = 0; b < batch_.size(); ++b) {
        for (std::size_t i = 0; i < plan_.tiles.size(); ++i) {
          const cim::fabric::TileSpec& spec = plan_.tiles[i];
          const cim::nn::Tensor in(plan_.stage_input_shape[spec.stage],
                                   acts[b][spec.stage]);
          const auto t0 = Clock::now();
          auto out = tiles[i]->Infer(in);
          const auto t1 = Clock::now();
          if (!out.ok()) return out.status();
          tracer.Record("dpe.DpeAccelerator.Infer", t0, t1, parent, b);
          pass_us += 1e6 * SecondsBetween(t0, t1);
        }
      }
      if (pass == 0 || pass_us < tile_infer_us) tile_infer_us = pass_us;
    }
    tiles.clear();
    const double elements = static_cast<double>(batch_.size());
    layer.Set("dpe.infer_us_per_element", tile_infer_us / elements, "us");
    layer.Set("fabric.parallel_efficiency",
              call_us_p50 > 0.0
                  ? tile_infer_us /
                        (call_us_p50 * static_cast<double>(config_.threads))
                  : 0.0,
              "fraction");

    // crossbar under each tile accelerator.
    TileReplay total;
    for (std::size_t i = 0; i < plan_.tiles.size(); ++i) {
      const cim::fabric::TileSpec& spec = plan_.tiles[i];
      std::vector<cim::nn::Tensor> inputs;
      for (std::size_t b = 0; b < batch_.size(); ++b) {
        inputs.emplace_back(plan_.stage_input_shape[spec.stage],
                            acts[b][spec.stage]);
      }
      auto r = ReplayTiles(tile_params, spec.subnet, inputs,
                           DeriveSeed(params_.seed, i), nullptr, 1);
      if (!r.ok()) return r.status();
      total += *r;
    }
    layer.Set("dpe.merge_self_us_per_element",
              (tile_infer_us - total.mvm_batched_us) / elements, "us");
    SetCrossbarMetrics(total, layer);
    SetNoiseMetrics(ReplayNoise(tile_params.array.cell.read_noise_sigma,
                                tile_params.array.kernel,
                                tile_params.array.rows, config_.seed),
                    arrays, layer);

    // noc under fabric: the run's packet pattern, epoch by epoch.
    return ReplayNoc(tracer, parent, layer);
  }

 private:
  // Re-injects the activation packets of kNocReplayBatches batches into a
  // fresh mesh of the same shape, in the fabric's epoch order and sizes.
  Status ReplayNoc(Tracer& tracer, int parent, Metrics& layer) const {
    cim::EventQueue queue;
    cim::noc::MeshParams mesh_params = params_.mesh;
    mesh_params.width = params_.partition.grid_width;
    mesh_params.height = params_.partition.grid_height;
    auto mesh = cim::noc::MeshNoc::Create(mesh_params, &queue);
    if (!mesh.ok()) return mesh.status();
    CountingSink sink;
    for (std::uint16_t x = 0; x < mesh_params.width; ++x) {
      for (std::uint16_t y = 0; y < mesh_params.height; ++y) {
        mesh->SetDeliverySink({x, y}, &sink);
      }
    }
    const std::size_t stages = plan_.stage_count;
    const std::size_t k = plan_.splits_per_stage;
    double inject_us = 0.0;
    std::uint64_t packets_sent = 0;
    for (std::size_t batch = 0; batch < kNocReplayBatches; ++batch) {
      const auto b0 = Clock::now();
      for (std::size_t e = 0; e < kBatch + stages - 1; ++e) {
        std::vector<cim::noc::Packet> packets;
        for (std::size_t s = 0; s + 1 < stages && s <= e; ++s) {
          const std::size_t b = e - s;
          if (b >= kBatch) continue;
          for (std::size_t src = 0; src < k; ++src) {
            const cim::fabric::TileSpec& from = plan_.tile(s, src);
            for (std::size_t dst = 0; dst < k; ++dst) {
              cim::noc::Packet p;
              p.id = ((b * stages + s) * k + src) * k + dst;
              p.stream_id = b;
              p.source = from.node;
              p.destination = plan_.tile(s + 1, dst).node;
              p.qos = params_.activation_qos;
              p.payload_bytes = static_cast<std::uint32_t>(
                  from.out_count * params_.bytes_per_activation);
              p.inline_payload.assign(from.out_count * sizeof(double), 0);
              packets.push_back(std::move(p));
            }
          }
        }
        queue.RunUntil(queue.now() + cim::TimeNs(compute_ns_per_stage_));
        if (packets.empty()) continue;
        packets_sent += packets.size();
        const auto t0 = Clock::now();
        Status s = mesh->InjectBurst(std::move(packets));
        static_cast<void>(queue.Run());
        inject_us += 1e6 * SecondsSince(t0);
        if (!s.ok()) return s;
      }
      tracer.Record("noc.MeshNoc.InjectBurst", b0, Clock::now(), parent, batch);
    }
    if (sink.delivered + sink.dropped != packets_sent) {
      return cim::DataCorruption("noc replay lost packets");
    }
    layer.Set("noc.ns_per_packet",
              packets_sent > 0
                  ? 1e3 * inject_us / static_cast<double>(packets_sent)
                  : 0.0,
              "ns");
    return Status::Ok();
  }

  WorkloadConfig config_;
  cim::fabric::FabricParams params_;
  cim::nn::Network net_;
  std::vector<cim::nn::Tensor> batch_;
  std::vector<std::vector<double>> golden_;  // float outputs per input
  std::unique_ptr<cim::fabric::FabricCoSim> fabric_;

  // Traced-phase records for the per-layer metrics.
  std::vector<int> call_spans_;
  std::uint64_t epochs_ = 0;
  double noc_latency_ns_ = 0.0;
  double latency_ns_ = 0.0;
  double compute_ns_per_stage_ = 0.0;
  cim::noc::NocTelemetry telemetry_;
  cim::fabric::FabricPlan plan_;
};

}  // namespace

std::unique_ptr<Workload> MakeFabricPipeline(const WorkloadConfig& config) {
  return std::make_unique<FabricPipeline>(config);
}

}  // namespace perfbench
