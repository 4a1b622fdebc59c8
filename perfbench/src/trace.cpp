#include "trace.h"

#include "report.h"

namespace perfbench {

size_t Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
  r.request = request_;
  r.start_ns = now_ns();
  spans_.push_back(r);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(size_t index) {
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::finish() {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const int64_t dur = r.end_ns - r.start_ns;
    durations_us_[r.name].push_back(static_cast<double>(dur) * 1e-3);
    const std::string n = r.name;
    layer_self_s_[n.substr(0, n.find('.'))] +=
        static_cast<double>(dur - child_ns[i]) * 1e-9;
    if (r.parent < 0) root_s_ += static_cast<double>(dur) * 1e-9;
  }
  spans_.clear();
  spans_.shrink_to_fit();
}

const std::vector<double>& Tracer::durations_us(const std::string& n) const {
  static const std::vector<double> kNone;
  const auto it = durations_us_.find(n);
  return it == durations_us_.end() ? kNone : it->second;
}

double Tracer::p50_us(const std::string& n) const { return median(durations_us(n)); }

double Tracer::total_s(const std::string& n) const {
  double sum = 0.0;
  for (const double us : durations_us(n)) sum += us;
  return sum * 1e-6;
}

double Tracer::self_s(const std::string& layer) const {
  const auto it = layer_self_s_.find(layer);
  return it == layer_self_s_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
