#pragma once

// Metrics registry: counters, gauges and histograms, snapshot-exportable
// as Prometheus text exposition format and as JSON. The runner publishes
// the end-of-run summary, engine stats and the control-event counters
// (from the stats each subsystem keeps) once the run is over; only the
// equalizer-iteration histogram and the alert instruments are fed live.
//
// Thread-safety: instruments are lock-free atomics with relaxed ordering —
// safe to increment from worker threads during parallel batches. The
// registry itself (registration, export) must only be used from a serial
// context. Histogram bucket bounds are explicit and fixed at
// registration, so exported output is deterministic.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace heteroplace::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d);
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  /// `bounds` are strictly increasing bucket upper bounds; an implicit +Inf
  /// bucket is appended. Throws std::invalid_argument on bad bounds.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size = bounds().size() + 1.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Registry of named metric families. A family has one type and help text
/// and one sample per label set ("" = unlabeled, else pre-rendered
/// Prometheus label text such as `domain="dc0"`). Re-registering the same
/// (name, labels) returns the existing instrument; registering a name with
/// a different type throws util-style std::invalid_argument.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help, const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const std::string& labels = "");

  /// Prometheus text exposition format (# HELP / # TYPE + samples), families
  /// and label sets in lexicographic order — deterministic output.
  [[nodiscard]] std::string prometheus_text() const;
  /// The same snapshot as a JSON object keyed by family name.
  [[nodiscard]] std::string json() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Family {
    Type type{Type::kCounter};
    std::string help;
    std::map<std::string, std::unique_ptr<Counter>> counters;      // by label text
    std::map<std::string, std::unique_ptr<Gauge>> gauges;          // by label text
    std::map<std::string, std::unique_ptr<Histogram>> histograms;  // by label text
  };
  Family& family(const std::string& name, Type type, const std::string& help);

  std::map<std::string, Family> families_;
};

/// Render one `key="value"` Prometheus label pair, escaping the value per
/// the text exposition spec (`\` -> `\\`, `"` -> `\"`, newline -> `\n`).
/// Use this wherever label text is built from runtime strings (domain and
/// app names); join multiple pairs with ",".
[[nodiscard]] std::string prometheus_label(const std::string& key, const std::string& value);

/// Parse Prometheus text exposition format back into sample name (with
/// label text, exactly as written) -> value. Ignores # comment lines.
/// Throws std::invalid_argument on malformed sample lines. Used by the
/// round-trip test and the trace_check tool.
[[nodiscard]] std::map<std::string, double> parse_prometheus_text(const std::string& text);

}  // namespace heteroplace::obs
