// serve-exact: the read-heavy serving path. An open-loop two-tenant request
// stream through serve::DpeService over one fault-tolerant DpeAccelerator
// under the default bit-exact noise kernel, with two seeded early faults.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dpe/accelerator.h"
#include "reliability/fault_injector.h"
#include "serve/service.h"
#include "workload.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::Status;

constexpr std::size_t kInputDim = 128;
constexpr std::size_t kInputPool = 512;
// One pump submits one full batch of arrivals: mean gap 12.5 us puts eight
// arrivals inside the 200 us batching window, so batches form full.
constexpr std::size_t kMaxBatch = 8;
constexpr double kMeanGapNs = 12.5e3;
constexpr double kDeadlineNs = 50e6;
// The modeled window holds 1000 requests, enough for a p99.
constexpr std::size_t kWindowRounds = 125;
// Pumps whose batches the traced run replays through a twin accelerator:
// the first kWarmupPumps untimed, so that both faults have fired and the
// spare remaps are done, then kReplayPumps timed in steady state.
constexpr std::size_t kWarmupPumps = 4;
constexpr std::size_t kReplayPumps = 4;

// The served model is part of the workload, fixed across seeds; the seed
// drives the traffic (inputs, arrivals), the programming stream and faults.
constexpr std::uint64_t kModelSeed = 0x5E12F3;

enum Stream : std::uint64_t {
  kProgramStream = 1,
  kInputStream,
  kArrivalStream,
  kFaultStream,
  kServiceStream,
  kReplayStream,
};

cim::dpe::DpeParams AcceleratorParams(std::size_t threads) {
  cim::dpe::DpeParams p = cim::dpe::DpeParams::Isaac();
  p.array.cell.read_noise_sigma = 0.02;
  p.worker_threads = threads;
  p.fault_tolerance.enabled = true;
  p.fault_tolerance.spare_tiles = 4;
  return p;
}

// A stuck-on cluster in layer 0 and a dead layer-1 tile, both early, so the
// detect -> retry -> remap path runs and the rest of the run is recovered.
cim::reliability::FaultScenario Faults(std::uint64_t seed) {
  using cim::reliability::FaultKind;
  cim::reliability::FaultScenario scenario;
  scenario.seed = DeriveSeed(seed, kFaultStream);
  cim::reliability::FaultSpec cluster;
  cluster.kind = FaultKind::kStuckOnCell;
  cluster.target = "dpe.layer0";
  cluster.at_step = 6;
  cluster.tile = 0;
  cluster.cells = 48;
  cluster.row = 2;
  cluster.col = 3;
  scenario.specs.push_back(cluster);
  cim::reliability::FaultSpec death;
  death.kind = FaultKind::kTileDeath;
  death.target = "dpe.layer1";
  death.at_step = 20;
  death.tile = 0;
  scenario.specs.push_back(death);
  return scenario;
}

cim::serve::ServeParams ServiceParams(std::uint64_t seed) {
  cim::serve::ServeParams params;
  params.seed = DeriveSeed(seed, kServiceStream);
  params.expected_input_elements = kInputDim;
  params.batching.max_batch = kMaxBatch;
  params.batching.window_ns = 200e3;
  params.admission.watermark = 256;
  params.admission.max_watermark = 256;
  params.retry.max_retries = 3;
  params.sla.enabled = true;
  params.sla.target_latency_ns = 5e6;
  return params;
}

std::uint64_t Rejected(const cim::serve::ServiceStats& s) {
  return s.rejected_watermark + s.rejected_capacity + s.rejected_permission +
         s.rejected_quarantine + s.rejected_invalid;
}

// An accelerator with the workload's fault scenario armed. The injector is
// declared first so it outlives the accelerator holding its hooks.
struct FaultyAccelerator {
  std::unique_ptr<cim::reliability::FaultInjector> injector;
  std::unique_ptr<cim::dpe::DpeAccelerator> accelerator;

  static cim::Expected<FaultyAccelerator> Create(const cim::nn::Network& net,
                                                 std::uint64_t seed,
                                                 std::size_t threads) {
    FaultyAccelerator out;
    out.injector =
        std::make_unique<cim::reliability::FaultInjector>(Faults(seed));
    auto accel = cim::dpe::DpeAccelerator::Create(
        AcceleratorParams(threads), net, Rng(DeriveSeed(seed, kProgramStream)));
    if (!accel.ok()) return accel.status();
    out.accelerator = std::move(accel).value();
    if (Status s = out.accelerator->AttachFaultInjector(out.injector.get());
        !s.ok()) {
      return s;
    }
    if (Status s = out.injector->Arm(); !s.ok()) return s;
    return out;
  }

  // Destroys the accelerator before the injector its hooks point into.
  void Reset() {
    accelerator.reset();
    injector.reset();
  }
};

class ServeExact final : public Workload {
 public:
  explicit ServeExact(const WorkloadConfig& config) : config_(config) {
    Rng net_rng(kModelSeed);
    net_ = cim::nn::BuildMlp("serve-exact", {kInputDim, 128, 10}, net_rng,
                             0.3);
    Rng input_rng(DeriveSeed(config.seed, kInputStream));
    for (std::size_t i = 0; i < kInputPool; ++i) {
      cim::nn::Tensor t({kInputDim});
      for (double& v : t.vec()) v = input_rng.Uniform(0.0, 1.0);
      auto golden = cim::nn::Forward(net_, t);
      golden_.push_back(golden.ok() ? golden->vec() : std::vector<double>{});
      inputs_.push_back(std::move(t));
    }
  }

  Status Setup() override {
    auto accel = FaultyAccelerator::Create(net_, config_.seed, config_.threads);
    if (!accel.ok()) return accel.status();
    accel_ = std::move(accel).value();
    auto service = cim::serve::DpeService::Create(
        ServiceParams(config_.seed), accel_.accelerator.get(), nullptr);
    if (!service.ok()) return service.status();
    service_ = std::move(service).value();
    if (Status s = service_->AddTenant(
            {.id = 1, .name = "gold", .weight = 2.0, .queue_capacity = 1024});
        !s.ok()) {
      return s;
    }
    if (Status s = service_->AddTenant(
            {.id = 2, .name = "bronze", .weight = 1.0, .queue_capacity = 1024});
        !s.ok()) {
      return s;
    }
    if (Status s = service_->SetResponseHandler(
            [this](const cim::serve::Response& r) { responses_.push_back(r); });
        !s.ok()) {
      return s;
    }
    arrival_rng_ = Rng(DeriveSeed(config_.seed, kArrivalStream));
    arrival_ns_ = 0.0;
    submitted_ = 0;
    pool_of_request_.assign(1, 0);
    pumps_.clear();
    queue_wait_us_.clear();
    busy_ns_at_start_ = PoolBusyNs();
    return Status::Ok();
  }

  void Teardown() override {
    service_.reset();
    accel_.Reset();
  }

  std::size_t MinRounds() const override { return kWindowRounds; }

  Status RunRound(Tracer& tracer, bool in_window, PhaseStats& stats) override {
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      arrival_ns_ += arrival_rng_.Uniform(0.5, 1.5) * kMeanGapNs;
      const std::size_t pool_index = static_cast<std::size_t>(
          arrival_rng_.NextBounded(kInputPool));
      cim::serve::SubmitArgs args;
      args.tenant = submitted_ % 2 == 0 ? 1 : 2;
      args.input = inputs_[pool_index];
      args.arrival_ns = arrival_ns_;
      args.deadline_ns = kDeadlineNs;
      ++submitted_;
      ++stats.attempted;
      ScopedSpan span(tracer, "serve.Submit", submitted_);
      auto id = service_->Submit(args);
      if (!id.ok()) {
        ++stats.failed;  // refused at admission
        continue;
      }
      if (*id >= pool_of_request_.size()) pool_of_request_.resize(*id + 1);
      pool_of_request_[*id] = pool_index;
    }

    const cim::serve::ServiceStats before = service_->stats();
    const auto t0 = Clock::now();
    int pump_span = -1;
    {
      ScopedSpan span(tracer, "serve.RunUntilIdle", stats.rounds);
      pump_span = span.id();
      static_cast<void>(service_->RunUntilIdle());
    }
    stats.call_ms.push_back(1e3 * SecondsSince(t0));
    const cim::serve::ServiceStats after = service_->stats();
    if (tracer.enabled()) {
      pumps_.push_back({pump_span, after.batches - before.batches,
                        after.batched_elements - before.batched_elements});
    }

    Digest digest;
    for (const cim::serve::Response& r : responses_) {
      digest.Add(r.id);
      digest.Add(static_cast<std::uint64_t>(r.outcome));
      digest.Add(r.output.vec());
      digest.Add(r.cost.latency_ns);
      digest.Add(r.cost.energy_pj);
      digest.Add(r.completion_ns);
      if (r.outcome != cim::serve::Outcome::kOk) ++stats.failed;
      if (!r.served()) continue;
      ++stats.inferences;
      if (!in_window) continue;
      stats.virtual_us.push_back(1e-3 * r.latency_ns());
      stats.energy_nj += 1e-3 * r.cost.energy_pj;
      ++stats.energy_samples;
      ++stats.top1_samples;
      const std::vector<double>& golden = golden_[pool_of_request_[r.id]];
      if (ArgMax(r.output.vec()) == ArgMax(golden)) ++stats.top1_agree;
      stats.correlation.Add(r.output.vec(), golden);
      if (tracer.enabled()) {
        queue_wait_us_.push_back(1e-3 * (r.dispatch_ns - r.arrival_ns));
      }
    }
    responses_.clear();
    stats.round_digests.push_back(digest.value());
    return Status::Ok();
  }

  Status CheckPhase(const PhaseStats& stats) override {
    const cim::serve::ServiceStats s = service_->stats();
    const std::uint64_t accounted = s.completed_clean + s.completed_degraded +
                                    Rejected(s) + s.shed_deadline + s.failed;
    if (s.submitted != accounted || s.submitted != stats.attempted) {
      return cim::DataCorruption(
          "request conservation violated: submitted " +
          std::to_string(s.submitted) + ", accounted " +
          std::to_string(accounted) + ", attempted " +
          std::to_string(stats.attempted));
    }
    if (!service_->Idle()) {
      return cim::DataCorruption("service not idle after the last pump");
    }
    end_stats_ = s;
    recovery_ = accel_.accelerator->recovery_stats();
    recovery_energy_nj_ = 1e-3 * accel_.accelerator->recovery_cost().energy_pj;
    arrays_used_ = accel_.accelerator->arrays_used();
    const cim::ThreadPool* pool = accel_.accelerator->thread_pool();
    const std::size_t workers = pool == nullptr ? 0 : pool->worker_count();
    pool_busy_fraction_ =
        workers == 0 || stats.wall_s <= 0.0
            ? 0.0
            : 1e-9 * (PoolBusyNs() - busy_ns_at_start_) /
                  (stats.wall_s * static_cast<double>(workers));
    return Status::Ok();
  }

  Status Replay(Tracer& tracer, Metrics& layer) override {
    const cim::serve::ServiceStats& s = end_stats_;
    layer.Set("serve.batch_fill",
              s.batches > 0 ? static_cast<double>(s.batched_elements) /
                                  static_cast<double>(s.batches)
                            : 0.0,
              "elements/batch");
    layer.Set("serve.queue_wait_us_p50", Percentile(queue_wait_us_, 0.50),
              "us");
    layer.Set("serve.queue_wait_us_p99", Percentile(queue_wait_us_, 0.99),
              "us");
    layer.Set("serve.retries", static_cast<double>(s.retries), "count");
    layer.Set("serve.rejected", static_cast<double>(Rejected(s)), "count");
    layer.Set("serve.shed", static_cast<double>(s.shed_deadline), "count");
    layer.Set("reliability.detected", static_cast<double>(recovery_.detected),
              "count");
    layer.Set("reliability.retried", static_cast<double>(recovery_.retried),
              "count");
    layer.Set("reliability.remapped", static_cast<double>(recovery_.remapped),
              "count");
    layer.Set("reliability.degraded", static_cast<double>(recovery_.degraded),
              "count");
    layer.Set("reliability.recovery_energy_nj", recovery_energy_nj_, "nJ");
    layer.Set("dpe.arrays_used", static_cast<double>(arrays_used_), "count");
    layer.Set("dpe.pool_busy_fraction", pool_busy_fraction_, "fraction");

    // dpe under serve: the traced pumps' batches, replayed through a twin
    // accelerator built from the same seed with the same faults armed; a
    // fresh twin per pass, so every pass runs the same recovery.
    const std::size_t pumps =
        std::min(kWarmupPumps + kReplayPumps, pumps_.size());
    double pump_us = 0.0;
    for (std::size_t p = kWarmupPumps; p < pumps; ++p) {
      const Span& span =
          tracer.spans()[static_cast<std::size_t>(pumps_[p].span)];
      pump_us += span.end_us - span.start_us;
    }
    std::vector<double> create_ms;
    std::vector<cim::nn::Tensor> replayed;
    // The fastest of kReplayPasses replays of those batches.
    double dpe_us = 0.0;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
      const auto c0 = Clock::now();
      auto twin =
          FaultyAccelerator::Create(net_, config_.seed, config_.threads);
      create_ms.push_back(1e3 * SecondsSince(c0));
      if (!twin.ok()) return twin.status();
      Rng pick(DeriveSeed(config_.seed, kReplayStream));
      double pass_us = 0.0;
      for (std::size_t p = 0; p < pumps; ++p) {
        const PumpRecord& pump = pumps_[p];
        const bool timed = p >= kWarmupPumps;
        for (std::uint64_t b = 0; b < pump.batches; ++b) {
          // The pump's elements split over its batches as evenly as
          // possible.
          const std::uint64_t size =
              pump.elements / pump.batches +
              (b < pump.elements % pump.batches ? 1 : 0);
          std::vector<cim::nn::Tensor> batch;
          for (std::uint64_t e = 0; e < size; ++e) {
            batch.push_back(inputs_[pick.NextBounded(kInputPool)]);
          }
          const auto t0 = Clock::now();
          auto results = twin->accelerator->InferBatch(batch);
          const auto t1 = Clock::now();
          if (!results.ok()) return results.status();
          if (!timed) continue;
          tracer.Record("dpe.InferBatch", t0, t1, pump.span, p);
          pass_us += 1e6 * SecondsBetween(t0, t1);
          if (pass == 0) {
            for (cim::nn::Tensor& t : batch) replayed.push_back(std::move(t));
          }
        }
      }
      twin->Reset();
      if (pass == 0 || pass_us < dpe_us) dpe_us = pass_us;
    }
    layer.Set("dpe.create_ms", Median(create_ms), "ms");
    const double elements = static_cast<double>(std::max<std::size_t>(
        replayed.size(), 1));
    const std::size_t timed_pumps =
        pumps > kWarmupPumps ? pumps - kWarmupPumps : 0;
    layer.Set("serve.pump_self_ms",
              timed_pumps > 0 ? 1e-3 * (pump_us - dpe_us) /
                                    static_cast<double>(timed_pumps)
                              : 0.0,
              "ms");
    layer.Set("dpe.infer_us_per_element", dpe_us / elements, "us");

    // crossbar under dpe: the same elements' tile MVMs, batched and spread
    // over the same number of threads as InferBatch.
    cim::ThreadPool pool(config_.threads - 1);
    const auto t0 = Clock::now();
    auto tiles = ReplayTiles(AcceleratorParams(config_.threads), net_,
                             replayed, DeriveSeed(config_.seed, kReplayStream),
                             &pool, kMaxBatch);
    tracer.Record("crossbar.MvmEngine.Compute", t0, Clock::now(), -1, 0);
    if (!tiles.ok()) return tiles.status();
    layer.Set("dpe.merge_self_us_per_element",
              (dpe_us - tiles->mvm_batched_us) / elements, "us");
    SetCrossbarMetrics(*tiles, layer);

    // device under crossbar: the bit-exact noise draw; this policy builds
    // no noise tile.
    const cim::dpe::DpeParams params = AcceleratorParams(config_.threads);
    SetNoiseMetrics(ReplayNoise(params.array.cell.read_noise_sigma,
                                params.array.kernel, params.array.rows,
                                config_.seed),
                    0, layer);
    return Status::Ok();
  }

 private:
  struct PumpRecord {
    int span = -1;
    std::uint64_t batches = 0;
    std::uint64_t elements = 0;
  };

  [[nodiscard]] double PoolBusyNs() const {
    const cim::ThreadPool* pool =
        accel_.accelerator ? accel_.accelerator->thread_pool() : nullptr;
    double busy = 0.0;
    for (std::size_t w = 0; pool != nullptr && w < pool->worker_count(); ++w) {
      busy += pool->StatsOf(w).busy_ns;
    }
    return busy;
  }

  WorkloadConfig config_;
  cim::nn::Network net_;
  std::vector<cim::nn::Tensor> inputs_;
  std::vector<std::vector<double>> golden_;  // float outputs per input

  FaultyAccelerator accel_;
  std::unique_ptr<cim::serve::DpeService> service_;
  std::vector<cim::serve::Response> responses_;
  Rng arrival_rng_;
  double arrival_ns_ = 0.0;
  std::uint64_t submitted_ = 0;
  std::vector<std::size_t> pool_of_request_;  // indexed by RequestId

  // Traced-phase records for the per-layer metrics.
  std::vector<PumpRecord> pumps_;
  std::vector<double> queue_wait_us_;
  double busy_ns_at_start_ = 0.0;
  cim::serve::ServiceStats end_stats_;
  cim::dpe::FaultReport recovery_;
  double recovery_energy_nj_ = 0.0;
  std::size_t arrays_used_ = 0;
  double pool_busy_fraction_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeExact(const WorkloadConfig& config) {
  return std::make_unique<ServeExact>(config);
}

}  // namespace perfbench
