// Shared helpers of the perfbench binary: host timing, percentiles, output
// digests, peak memory, and the span tracer of the traced run.
//
// Host time (steady_clock) is used only to time calls; every seed the
// benchmark hands the library comes from the --seed argument.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsBetween(Clock::time_point from,
                                           Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

[[nodiscard]] inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The tail the sample supports: the highest percentile that still has at
// least ten samples beyond it. Below 21 samples that percentile would not
// reach the median, so the median is reported and the tail is unsupported.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};

[[nodiscard]] inline Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  const std::size_t n = values.size();
  if (n < 21) {
    tail.value = Median(std::move(values));
    return tail;
  }
  std::sort(values.begin(), values.end());
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

// Peak resident set of this process so far.
[[nodiscard]] inline double PeakRssMib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// FNV-1a over the exact bytes of outputs and modeled costs: two runs agree
// on a digest only if every bit of what they hashed agrees.
class Digest {
 public:
  void Add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(&v, sizeof v); }
  void Add(std::uint64_t v) { Add(&v, sizeof v); }
  void Add(const std::vector<double>& v) {
    Add(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) Add(v.data(), v.size() * sizeof(double));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// One recorded span: a timed call into a layer (or a replay of one).
// `parent` indexes the span that caused it (-1 for a root); spans of one
// request share `request`.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

// In-memory span recorder of the traced run; spans are written out once,
// after the run. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Opens a span whose parent is the innermost open span.
  int Begin(const std::string& name, std::uint64_t request) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowUs(), 0.0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    if (!enabled_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  // Records a finished span with an explicit parent — how replays of a
  // hidden lower layer attach to the call they stand in for.
  int Record(const std::string& name, Clock::time_point start,
             Clock::time_point end, int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, UsSinceOrigin(start), UsSinceOrigin(end), parent,
                      request});
    return static_cast<int>(spans_.size()) - 1;
  }

  // One JSON object per line.
  [[nodiscard]] bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"request\": %llu}\n",
                   i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(out) == 0;
  }

 private:
  [[nodiscard]] double UsSinceOrigin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  [[nodiscard]] double NowUs() const { return UsSinceOrigin(Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// Metrics in the order they are printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
