// Run outcome and the one-line JSON result the benchmark prints last.
//
// Every workload fills one Report: the metrics it measured (name, value,
// unit), the ops it attempted, and every correctness gate that failed. A
// failed gate counts as a failed op and makes the run incorrect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records a failed correctness gate (one failed op) and logs it.
  void fail(const std::string& what);
  /// Checks `ok`; on false records `what` as a failed gate.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  void add_attempted(size_t n) { attempted_ += n; }
  size_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Monotonic wall clock, seconds.
double now_s();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Element-wise minimum of equally long samples: for each unit of work,
/// its fastest time over the repetitions.
std::vector<double> elementwise_min(const std::vector<std::vector<double>>& runs);

/// Smallest value; 0 for an empty sample.
double minimum(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
