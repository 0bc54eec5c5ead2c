// dse-sweep: the write- and set-up-heavy path. Every round scores the full
// design-space grid (dse::SweepSpec::Full(), 180 points) with
// dse::SweepDriver::Run, which builds and programs two short-lived
// accelerators per point and runs 30 inferences on each.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dpe/accelerator.h"
#include "dse/driver.h"
#include "dse/pareto.h"
#include "dse/spec.h"
#include "workload.h"

namespace perfbench {
namespace {

using cim::DeriveSeed;
using cim::Rng;
using cim::Status;

// Stuck-on cells per point, as in bench_dse_sweep: they make the
// spare-tiles axis trade area for accuracy.
constexpr std::size_t kFaultCells = 6;
// Grid indices replayed one point at a time in the traced run: every 15th,
// four per crossbar size.
constexpr std::size_t kReplayStride = 15;

enum Stream : std::uint64_t { kSweepStream = 1, kReplayStream };

class DseSweep final : public Workload {
 public:
  explicit DseSweep(const WorkloadConfig& config)
      : config_(config), spec_(cim::dse::SweepSpec::Full()) {}

  Status Setup() override {
    cim::dse::DriverParams params;
    params.seed = DeriveSeed(config_.seed, kSweepStream);
    params.fault_cells = kFaultCells;
    params.worker_threads = config_.threads;
    auto driver = cim::dse::SweepDriver::Create(params);
    if (!driver.ok()) return driver.status();
    driver_ = std::move(driver).value();
    return Status::Ok();
  }

  // SweepDriver owns no threads (Run makes its own pool), so it stays alive
  // for the replays.
  void Teardown() override {}

  std::size_t MinRounds() const override { return 1; }

  Status RunRound(Tracer& tracer, bool in_window, PhaseStats& stats) override {
    const auto t0 = Clock::now();
    const int span = tracer.Begin("dse.SweepDriver.Run", stats.rounds);
    auto results = driver_->Run(spec_);
    tracer.End(span);
    stats.call_ms.push_back(1e3 * SecondsSince(t0));
    if (!results.ok()) return results.status();
    if (results->size() != spec_.PointCount()) {
      return cim::DataCorruption("sweep scored " +
                                 std::to_string(results->size()) +
                                 " points, grid has " +
                                 std::to_string(spec_.PointCount()));
    }

    const std::size_t samples = driver_->workload().inputs.size();
    Digest digest;
    for (const cim::dse::PointResult& r : *results) {
      digest.Add(static_cast<std::uint64_t>(r.point.index));
      digest.Add(r.objectives.accuracy);
      digest.Add(r.objectives.latency_ns);
      digest.Add(r.objectives.energy_pj);
      digest.Add(r.objectives.area_mm2);
      digest.Add(r.noise_self_agreement);
      digest.Add(r.faults_detected);
      digest.Add(r.faults_degraded);
    }
    stats.round_digests.push_back(digest.value());
    stats.points += results->size();
    // Every point is scored or Run fails as a whole, so no operation fails
    // here; a point whose injected faults were not fully recovered is a
    // modeled outcome, counted in dse.faults_degraded.
    stats.attempted += results->size();
    // Each point runs its accelerator and a noise-free twin on every
    // evaluation sample.
    stats.inferences += 2 * samples * results->size();
    if (in_window) {
      for (const cim::dse::PointResult& r : *results) {
        stats.virtual_us.push_back(1e-3 * r.objectives.latency_ns);
        stats.energy_nj += 1e-3 * r.objectives.energy_pj;
        ++stats.energy_samples;
        stats.top1_agree += static_cast<std::uint64_t>(
            std::lround(r.objectives.accuracy * static_cast<double>(samples)));
        stats.top1_samples += samples;
      }
      last_ = std::move(results).value();
    }
    return Status::Ok();
  }

  Status CheckPhase(const PhaseStats& stats) override {
    // The sweep is a pure function of (spec, seed): every round must
    // reproduce the first bit for bit.
    for (std::uint64_t d : stats.round_digests) {
      if (d != stats.round_digests.front()) {
        return cim::DataCorruption("sweep rounds disagree");
      }
    }
    return Status::Ok();
  }

  Status Replay(Tracer& tracer, Metrics& layer) override {
    layer.Set("dse.points", static_cast<double>(last_.size()), "count");
    const std::vector<cim::dse::Objectives> objectives =
        cim::dse::ObjectivesOf(last_);
    layer.Set("dse.frontier_size",
              static_cast<double>(
                  cim::dse::ParetoFrontIndices(objectives).size()),
              "count");
    std::uint64_t detected = 0;
    std::uint64_t degraded = 0;
    for (const cim::dse::PointResult& r : last_) {
      detected += r.faults_detected;
      degraded += r.faults_degraded;
    }
    layer.Set("dse.faults_degraded", static_cast<double>(degraded), "count");
    layer.Set("reliability.detected", static_cast<double>(detected), "count");
    layer.Set("reliability.degraded", static_cast<double>(degraded), "count");

    auto points = cim::dse::ExpandGrid(spec_, driver_->params().base);
    if (!points.ok()) return points.status();
    const cim::dse::SweepWorkload& workload = driver_->workload();

    // One-point sweeps, then the same points' accelerator and tiles.
    std::vector<double> point_ms;
    std::vector<double> create_ms;
    double infer_us = 0.0;
    std::size_t inferences = 0;
    TileReplay tiles_total;
    for (std::size_t i = kReplayStride / 2; i < points->size();
         i += kReplayStride) {
      const cim::dse::DesignPoint& p = (*points)[i];
      cim::dse::SweepSpec one;
      one.crossbar_sizes = {p.crossbar_size};
      one.adc_bits = {p.adc_bits};
      one.cell_bits = {p.cell_bits};
      one.spare_tiles = {p.spare_tiles};
      one.noise_sigmas = {p.noise_sigma};
      one.kernels = {p.kernel};
      const auto t0 = Clock::now();
      auto scored = driver_->Run(one);
      const auto t1 = Clock::now();
      if (!scored.ok()) return scored.status();
      const int point_span =
          tracer.Record("dse.SweepDriver.Run", t0, t1, -1, i);
      point_ms.push_back(1e3 * SecondsBetween(t0, t1));

      const cim::dpe::DpeParams params = p.ToDpeParams(driver_->params().base);
      const auto c0 = Clock::now();
      auto accel = cim::dpe::DpeAccelerator::Create(
          params, workload.net, Rng(DeriveSeed(config_.seed, kReplayStream)));
      const auto c1 = Clock::now();
      if (!accel.ok()) return accel.status();
      tracer.Record("dpe.DpeAccelerator.Create", c0, c1, point_span, i);
      create_ms.push_back(1e3 * SecondsBetween(c0, c1));
      double point_infer_us = 0.0;
      for (int pass = 0; pass < kReplayPasses; ++pass) {
        double pass_us = 0.0;
        for (const cim::nn::Tensor& input : workload.inputs) {
          const auto i0 = Clock::now();
          auto out = (*accel)->Infer(input);
          const auto i1 = Clock::now();
          if (!out.ok()) return out.status();
          tracer.Record("dpe.DpeAccelerator.Infer", i0, i1, point_span, i);
          pass_us += 1e6 * SecondsBetween(i0, i1);
        }
        if (pass == 0 || pass_us < point_infer_us) point_infer_us = pass_us;
      }
      infer_us += point_infer_us;
      inferences += workload.inputs.size();
      auto tiles = ReplayTiles(params, workload.net, workload.inputs,
                               DeriveSeed(config_.seed, kReplayStream),
                               nullptr, 1);
      if (!tiles.ok()) return tiles.status();
      tiles_total += *tiles;
    }
    const double replayed = static_cast<double>(point_ms.size());
    layer.Set("dse.point_ms", Median(point_ms), "ms");
    layer.Set("dpe.create_ms", Median(create_ms), "ms");
    const double per = static_cast<double>(inferences > 0 ? inferences : 1);
    layer.Set("dpe.infer_us_per_element", infer_us / per, "us");
    layer.Set("dpe.merge_self_us_per_element",
              (infer_us - tiles_total.mvm_batched_us) / per, "us");
    std::size_t arrays = 0;
    for (const cim::dse::PointResult& r : last_) arrays += r.arrays_used;
    layer.Set("dpe.arrays_used",
              static_cast<double>(arrays) /
                  static_cast<double>(std::max<std::size_t>(last_.size(), 1)),
              "count");
    // Mean over the replayed points: tiles per inference of one point.
    tiles_total.mvms_per_inference = static_cast<std::size_t>(std::lround(
        static_cast<double>(tiles_total.mvms_per_inference) / replayed));
    SetCrossbarMetrics(tiles_total, layer);

    // Every array of a point's noisy accelerator builds a kFastNoise tile
    // (its noise-free twin builds none); spares are provisioned, not built.
    std::uint64_t noise_tiles = 0;
    for (const cim::dse::PointResult& r : last_) {
      if (r.point.kernel != cim::device::KernelPolicy::kFastNoise ||
          r.point.noise_sigma <= 0.0) {
        continue;
      }
      const cim::dpe::DpeParams params =
          r.point.ToDpeParams(driver_->params().base);
      const std::size_t spare_arrays =
          r.point.spare_tiles * 2 * static_cast<std::size_t>(params.slices());
      noise_tiles += r.arrays_used - spare_arrays;
    }
    const cim::dpe::DpeParams noisy =
        (*points)[points->size() - 1].ToDpeParams(driver_->params().base);
    SetNoiseMetrics(ReplayNoise(noisy.array.cell.read_noise_sigma,
                                noisy.array.kernel, noisy.array.rows,
                                config_.seed),
                    noise_tiles, layer);
    return Status::Ok();
  }

 private:
  WorkloadConfig config_;
  cim::dse::SweepSpec spec_;
  std::unique_ptr<cim::dse::SweepDriver> driver_;
  std::vector<cim::dse::PointResult> last_;
};

}  // namespace

std::unique_ptr<Workload> MakeDseSweep(const WorkloadConfig& config) {
  return std::make_unique<DseSweep>(config);
}

}  // namespace perfbench
