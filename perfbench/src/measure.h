// Measurement primitives of the benchmark: wall clocks, sample sets with
// interpolated quantiles, an in-memory span log recorded around calls
// into the program's layers, output digests, and the result line.

#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/pipeline/synthesizer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

/// A set of measured values with linearly interpolated quantiles (the
/// numpy default, so p50 of an even count is the mean of the middle two).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// `q` in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The values added after the first `from`.
  Samples Tail(size_t from) const;

 private:
  std::vector<double> values_;
};

/// One completed span: a call into a layer, timed from the benchmark.
struct Span {
  const char* name = nullptr;  ///< static string, e.g. "pipeline.extract"
  uint64_t start_ns = 0;       ///< since the log was created
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Spans of a single-threaded replay, kept in memory and written out as
/// Chrome trace-event JSON when the run ends. Per-layer totals and
/// quantiles are derived from the spans themselves.
class SpanLog {
 public:
  SpanLog();
  /// Opens a span; returns its index for End.
  size_t Begin(const char* name);
  void End(size_t index);

  /// Durations (ns) of every span named `name`.
  Samples DurationsNs(const std::string& name) const;
  /// Sum of durations (ms) of every span named `name`.
  double TotalMs(const std::string& name) const;

  /// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  std::string ToChromeJson() const;

 private:
  uint64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< stack of open span indices
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto InSpan(SpanLog* log, const char* name, Fn&& fn) {
  ScopedSpan span(log, name);
  return fn();
}

/// Order-sensitive 64-bit digest of synthesized products: category, key,
/// fused spec and source offers of every product, in output order.
uint64_t DigestProducts(const std::vector<prodsyn::SynthesizedProduct>& p);

/// Digest of scored correspondences (tuple + exact score bits).
uint64_t DigestCorrespondences(
    const std::vector<prodsyn::AttributeCorrespondence>& corrs);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The result line: pass/fail accounting plus named metrics with units.
class Result {
 public:
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed output check (counts as a failed operation).
  void Fail(const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// One JSON object on one line.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<Entry> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
