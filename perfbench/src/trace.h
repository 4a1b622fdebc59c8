// Outside-in span recorder for the traced run.
//
// The benchmark wraps every call it makes into a library layer in a Span
// named "<layer>.<call>" (compiler.insert, tcam.apply, frozen.diff, ...).
// Spans nest: the innermost open span is the parent of a new one, and all
// spans opened under one begin_request() share its request id. Spans stay
// in memory; the per-layer figures are computed when the run ends. A
// layer's self time is its spans' duration minus the part covered by their
// child spans.
//
// The timed (end-to-end) run passes a null Tracer*, so a Span costs one
// branch there.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  /// Starts a new request: spans opened until the next call share its id.
  void begin_request() { ++request_; }

  /// Aggregates every closed span. Call once, after the run.
  void finish();

  /// Median duration of one `n` span, µs (0 when it never ran).
  double p50_us(const std::string& n) const;
  /// Summed duration of every `n` span, s.
  double total_s(const std::string& n) const;
  /// Summed self time of every span whose layer (name prefix) is `layer`, s.
  double self_s(const std::string& layer) const;
  /// Summed duration of spans without a parent, s.
  double root_s() const { return root_s_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Record {
    const char* name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  size_t open(const char* name);
  void close(size_t index);
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  const std::vector<double>& durations_us(const std::string& n) const;

  std::vector<Record> spans_;
  std::vector<size_t> stack_;
  uint64_t request_ = 0;
  std::unordered_map<std::string, std::vector<double>> durations_us_;  // by name
  std::unordered_map<std::string, double> layer_self_s_;
  double root_s_ = 0.0;
};

}  // namespace perfbench
