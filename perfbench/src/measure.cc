#include "perfbench/src/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Samples Samples::Tail(size_t from) const {
  Samples out;
  for (size_t i = from; i < values_.size(); ++i) out.Add(values_[i]);
  return out;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

uint64_t SpanLog::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

size_t SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Samples SpanLog::DurationsNs(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) out.Add(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double SpanLog::TotalMs(const std::string& name) const {
  return DurationsNs(name).Sum() / 1e6;
}

std::string SpanLog::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

namespace {

// FNV-1a over length-prefixed fields, so field boundaries are unambiguous.
class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace

uint64_t DigestProducts(const std::vector<prodsyn::SynthesizedProduct>& p) {
  Fnv h;
  h.U64(p.size());
  for (const auto& product : p) {
    h.U64(static_cast<uint64_t>(product.category));
    h.Str(product.key);
    h.U64(product.spec.size());
    for (const auto& av : product.spec) {
      h.Str(av.name);
      h.Str(av.value);
    }
    h.U64(product.source_offers.size());
    for (auto id : product.source_offers) h.U64(static_cast<uint64_t>(id));
  }
  return h.value();
}

uint64_t DigestCorrespondences(
    const std::vector<prodsyn::AttributeCorrespondence>& corrs) {
  Fnv h;
  h.U64(corrs.size());
  for (const auto& c : corrs) {
    h.Str(c.tuple.catalog_attribute);
    h.Str(c.tuple.offer_attribute);
    h.U64(static_cast<uint64_t>(c.tuple.merchant));
    h.U64(static_cast<uint64_t>(c.tuple.category));
    uint64_t bits = 0;
    std::memcpy(&bits, &c.score, sizeof(bits));
    h.U64(bits);
  }
  return h.value();
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
