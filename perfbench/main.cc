// perfbench — the repository benchmark.
//
//   perfbench --workload <serve-exact|dse-sweep|fabric-pipeline> --seed <n>
//             --seconds <s> --trace <0|1> [--threads <n>]
//             [--trace-dir <dir>] [--source <id>]
//
// --trace 0 sets the system up at least five times and for at least a
// second (set-up time is the median), runs the timed phase for --seconds
// (and at least the workload's modeled window), checks the outputs, and
// prints every end-to-end metric; the JSON carries the gated ones.
// --trace 1 runs the phase twice from a fresh set-up, untraced and then
// with spans around every call into the library, checks that both phases
// produced identical outputs, replays the layers those calls hid, and
// prints every per-layer metric. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error (including asking for more threads than the host has).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::size_t threads = 4;
  std::string trace_dir = ".";
  std::string source = "unknown";
};

// Per-layer metrics, in output order. A layer a workload bypasses reports 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"serve.pump_self_ms", "ms"},
    {"serve.batch_fill", "elements/batch"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.retries", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"dpe.create_ms", "ms"},
    {"dpe.arrays_used", "count"},
    {"dpe.infer_us_per_element", "us"},
    {"dpe.merge_self_us_per_element", "us"},
    {"dpe.pool_busy_fraction", "fraction"},
    {"reliability.detected", "count"},
    {"reliability.retried", "count"},
    {"reliability.remapped", "count"},
    {"reliability.degraded", "count"},
    {"reliability.recovery_energy_nj", "nJ"},
    {"crossbar.tile_mvm_us", "us"},
    {"crossbar.tile_mvms_per_inference", "count"},
    {"crossbar.program_ms_per_tile", "ms"},
    {"crossbar.verify_success_ratio", "fraction"},
    {"device.noise_fill_ns_per_factor", "ns"},
    {"device.noise_tile_build_ms", "ms"},
    {"device.noise_tiles_built", "count"},
    {"fabric.epoch_us", "us"},
    {"fabric.epochs", "count"},
    {"fabric.parallel_efficiency", "fraction"},
    {"noc.ns_per_packet", "ns"},
    {"noc.injected", "count"},
    {"noc.delivered", "count"},
    {"noc.dropped", "count"},
    {"noc.latency_share", "fraction"},
    {"dse.point_ms", "ms"},
    {"dse.points", "count"},
    {"dse.frontier_size", "count"},
    {"dse.faults_degraded", "count"},
    {"trace.overhead_fraction", "fraction"},
    {"host_call_ms_tail", "ms"},
    {"virtual_p50_us", "us"},
    {"virtual_p99_us", "us"},
    {"points_per_host_s", "1/s"},
    {"top1_agreement", "fraction"},
    {"failed_fraction", "fraction"},
};

// Output checks against the float golden model. The workloads' models are
// random, untrained MLPs whose decision margins are small, so top-1
// agreement swings with the inputs (0.09-0.67 across fabric-pipeline
// seeds). Where the outputs are visible the check is their Pearson
// correlation with the golden outputs instead (0.65-0.80 measured); a
// broken datapath reads near 0. dse-sweep exposes only per-point accuracy:
// its floor sits above chance for 6 classes (0.17).
constexpr double kMinOutputCorrelation = 0.5;
constexpr double kMinDseTop1 = 0.2;

// Set-up runs at least kMinSetups times and until kMinSetupSeconds have
// been spent in it, so that cheap set-ups still give a steady median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 1000;
constexpr double kMinSetupSeconds = 1.0;
// A phase that has not finished its modeled window by then fails, so the
// process still exits well inside its time limit.
constexpr double kPhaseCapSeconds = 70.0;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-exact|dse-sweep|fabric-pipeline> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] "
               "[--trace-dir <dir>] [--source <id>]\n",
               message);
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--threads") {
      o->threads = std::strtoull(value, &end, 10);
    } else if (flag == "--trace-dir") {
      o->trace_dir = value;
    } else if (flag == "--source") {
      o->source = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1;
}

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  const WorkloadConfig config{o.seed, o.threads};
  if (o.workload == "serve-exact") return MakeServeExact(config);
  if (o.workload == "dse-sweep") return MakeDseSweep(config);
  if (o.workload == "fabric-pipeline") return MakeFabricPipeline(config);
  return nullptr;
}

// Runs rounds until `seconds` have passed and the modeled window is full.
cim::Status RunPhase(Workload& workload, double seconds, Tracer& tracer,
                     PhaseStats* stats) {
  const auto start = Clock::now();
  while (true) {
    const bool in_window = stats->rounds < workload.MinRounds();
    const std::uint64_t inferences = stats->inferences;
    const auto round_start = Clock::now();
    if (cim::Status s = workload.RunRound(tracer, in_window, *stats); !s.ok()) {
      return s;
    }
    stats->round_rates.push_back(
        static_cast<double>(stats->inferences - inferences) /
        SecondsSince(round_start));
    ++stats->rounds;
    const double elapsed = SecondsSince(start);
    if (stats->rounds >= workload.MinRounds() && elapsed >= seconds) break;
    if (elapsed >= kPhaseCapSeconds) {
      return cim::Unavailable("modeled window incomplete after " +
                              std::to_string(elapsed) + " s");
    }
  }
  stats->wall_s = SecondsSince(start);
  return workload.CheckPhase(*stats);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
  }
};

void PrintResult(const Outcome& outcome, const PhaseStats& stats,
                 const Metrics& metrics) {
  for (const std::string& f : outcome.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.failed));
  const std::vector<Metric>& all = metrics.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double v = std::isfinite(all[i].value) ? all[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", all[i].name.c_str(), v,
                all[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintMetric(const char* name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("  %-26s %14.6g %-9s %s\n", name, value, unit, note.c_str());
}

// The end-to-end figures that are printed but not gated.
void ReportUngated(const Options& o, const PhaseStats& stats) {
  const Tail tail = TailOf(stats.call_ms);
  char note[64];
  std::snprintf(note, sizeof note, "p%.1f of %zu calls%s", tail.percentile,
                tail.samples, tail.samples < 21 ? " (too few for a tail)" : "");
  PrintMetric("host_call_ms_tail", tail.value, "ms", note);
  if (o.workload != "dse-sweep") {
    PrintMetric("virtual_p50_us", Percentile(stats.virtual_us, 0.50), "us",
                "modeled, " + std::to_string(stats.virtual_us.size()) +
                    " requests");
    PrintMetric("virtual_p99_us", Percentile(stats.virtual_us, 0.99), "us",
                "modeled");
  } else {
    PrintMetric("points_per_host_s", Ratio(stats.points, stats.wall_s), "1/s");
  }
  PrintMetric("top1_agreement",
              Ratio(stats.top1_agree, stats.top1_samples), "fraction",
              "vs float golden model");
  if (o.workload != "dse-sweep") {
    PrintMetric("output_correlation", stats.correlation.value(), "pearson",
                "vs float golden model");
  }
  PrintMetric("failed_fraction", Ratio(stats.failed, stats.attempted),
              "fraction",
              std::to_string(stats.failed) + " of " +
                  std::to_string(stats.attempted));
}

int Run(const Options& o) {
  std::unique_ptr<Workload> workload = MakeWorkload(o);
  if (!workload) return Usage("unknown workload");
  std::printf("env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %zu, \"threads\": %zu, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"source\": \"%s\"}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace, cim::HardwareConcurrency(), o.threads,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, o.source.c_str());
  std::fflush(stdout);

  Outcome outcome;
  const auto check = [&](const cim::Status& s, const char* what) {
    if (!s.ok()) outcome.Fail(std::string(what) + ": " + s.ToString());
    return s.ok();
  };
  const auto check_outputs = [&](const PhaseStats& stats) {
    if (o.workload == "dse-sweep") {
      const double top1 = Ratio(stats.top1_agree, stats.top1_samples);
      if (top1 < kMinDseTop1) {
        outcome.Fail("mean top-1 agreement " + std::to_string(top1) +
                     " below " + std::to_string(kMinDseTop1));
      }
    } else if (stats.correlation.value() < kMinOutputCorrelation) {
      outcome.Fail("output correlation with the golden model " +
                   std::to_string(stats.correlation.value()) + " below " +
                   std::to_string(kMinOutputCorrelation));
    }
  };

  if (o.trace == 0) {
    std::vector<double> setup_s;
    double setup_total = 0.0;
    bool ok = true;
    for (int i = 0; ok && i < kMaxSetups &&
                    (i < kMinSetups || setup_total < kMinSetupSeconds);
         ++i) {
      if (i > 0) workload->Teardown();
      const auto t0 = Clock::now();
      ok = check(workload->Setup(), "setup");
      setup_s.push_back(SecondsSince(t0));
      setup_total += setup_s.back();
    }
    PhaseStats stats;
    Tracer off(false);
    if (ok) check(RunPhase(*workload, o.seconds, off, &stats), "timed phase");
    workload->Teardown();
    check_outputs(stats);

    Metrics metrics;
    metrics.Set("setup_s", Median(setup_s), "s");
    // The median round, not the phase mean: a burst of host contention
    // then moves the figure only if it covers half the phase.
    metrics.Set("inferences_per_host_s", Median(stats.round_rates), "1/s");
    metrics.Set("host_call_ms_p50", Median(stats.call_ms), "ms");
    metrics.Set("peak_rss_mib", PeakRssMib(), "MiB");
    metrics.Set("energy_per_inference_nj",
                Ratio(stats.energy_nj, stats.energy_samples), "nJ");

    std::printf("%s seed %llu: %zu rounds in %.3f s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), stats.rounds,
                stats.wall_s);
    for (const Metric& m : metrics.all()) {
      std::string note;
      if (m.name == "setup_s") {
        note = "median of " + std::to_string(setup_s.size());
      } else if (m.name == "inferences_per_host_s") {
        note = "median of " + std::to_string(stats.round_rates.size()) +
               " rounds";
      } else if (m.name == "host_call_ms_p50") {
        note = std::to_string(stats.call_ms.size()) + " calls";
      }
      PrintMetric(m.name.c_str(), m.value, m.unit.c_str(), note);
    }
    ReportUngated(o, stats);
    Digest window;
    for (std::size_t r = 0;
         r < workload->MinRounds() && r < stats.round_digests.size(); ++r) {
      window.Add(stats.round_digests[r]);
    }
    std::printf("output digest %016llx over the %zu modeled-window rounds\n",
                static_cast<unsigned long long>(window.value()),
                workload->MinRounds());
    PrintResult(outcome, stats, metrics);
    return outcome.correct ? 0 : 1;
  }

  // Traced run: the same phase untraced, then traced, from fresh set-ups.
  const double half = o.seconds / 2.0;
  PhaseStats untraced;
  PhaseStats traced;
  Tracer off(false);
  Tracer tracer(true);
  if (check(workload->Setup(), "setup")) {
    check(RunPhase(*workload, half, off, &untraced), "untraced phase");
  }
  workload->Teardown();
  if (check(workload->Setup(), "setup")) {
    check(RunPhase(*workload, half, tracer, &traced), "traced phase");
  }
  workload->Teardown();
  check_outputs(untraced);

  const std::size_t common =
      std::min(untraced.round_digests.size(), traced.round_digests.size());
  if (common < workload->MinRounds()) {
    outcome.Fail("fewer rounds than the modeled window");
  }
  for (std::size_t r = 0; r < common; ++r) {
    if (untraced.round_digests[r] != traced.round_digests[r]) {
      outcome.Fail("output digest of round " + std::to_string(r) +
                   " differs between the untraced and traced phases");
      break;
    }
  }

  Metrics layer;
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    layer.Set(spec.name, 0.0, spec.unit);
  }
  if (outcome.correct) check(workload->Replay(tracer, layer), "replay");
  if (layer.all().size() != std::size(kLayerMetrics)) {
    outcome.Fail("a workload reported a per-layer metric outside the table");
  }
  layer.Set("trace.overhead_fraction",
            Ratio(Ratio(traced.wall_s, traced.inferences),
                  Ratio(untraced.wall_s, untraced.inferences)) -
                1.0,
            "fraction");
  layer.Set("host_call_ms_tail", TailOf(untraced.call_ms).value, "ms");
  if (o.workload != "dse-sweep") {
    layer.Set("virtual_p50_us", Percentile(untraced.virtual_us, 0.50), "us");
    layer.Set("virtual_p99_us", Percentile(untraced.virtual_us, 0.99), "us");
  }
  layer.Set("points_per_host_s", Ratio(untraced.points, untraced.wall_s),
            "1/s");
  layer.Set("top1_agreement",
            Ratio(untraced.top1_agree, untraced.top1_samples), "fraction");
  layer.Set("failed_fraction", Ratio(untraced.failed, untraced.attempted),
            "fraction");

  const std::string trace_path = o.trace_dir + "/" + o.workload + "-seed" +
                                 std::to_string(o.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(trace_path)) {
    outcome.Fail("cannot write " + trace_path);
  }
  std::printf("%s seed %llu: %zu untraced and %zu traced rounds, %zu spans "
              "in %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              untraced.rounds, traced.rounds, tracer.spans().size(),
              trace_path.c_str());
  for (const Metric& m : layer.all()) {
    PrintMetric(m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(outcome, untraced, layer);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::ParseOptions(argc, argv, &o)) {
    return perfbench::Usage("bad arguments");
  }
  if (o.workload.empty() || o.seconds <= 0.0 ||
      (o.trace != 0 && o.trace != 1)) {
    return perfbench::Usage("--workload, --seed, --seconds and --trace are "
                            "required");
  }
  if (o.threads == 0 || o.threads > cim::HardwareConcurrency()) {
    // Refused, never narrowed: a parallel measurement taken on fewer
    // threads than asked would read as a different configuration.
    std::fprintf(stderr, "perfbench: %zu threads requested, host has %zu\n",
                 o.threads, cim::HardwareConcurrency());
    return 2;
  }
  return perfbench::Run(o);
}
