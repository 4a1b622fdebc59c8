// The three workloads. Each fills `values` with the metrics it measured:
// with args.trace false the end-to-end metrics of its timed run, with
// args.trace true the per-layer metrics of its traced run. Correctness
// gates and op counts go to `report`.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "report.h"

namespace perfbench {

using Values = std::map<std::string, double>;

void run_wide_policy_churn(const Args& args, Report& report, Values& values);
void run_fleet_churn(const Args& args, Report& report, Values& values);
void run_traffic_cacheflow(const Args& args, Report& report, Values& values);

/// Every run sets up and times the same work kRepeats times, each time on a
/// fresh instance. setup_s is the median set-up; speeds come from the
/// fastest repetition, because on a shared box another tenant's bursts of
/// memory traffic slow a stretch of seconds by 10-50 %, and the fastest of
/// several identical repetitions is the steadiest estimate of the
/// program's own speed.
inline constexpr size_t kRepeats = 5;

/// Timed work per repetition, fixed by --seconds rather than by the clock:
/// `per_second` units per second of budget, split over the repetitions
/// (sized so the timed phases of a run add up to about --seconds on a
/// 4-vCPU Xeon). Two commits then time exactly the same work, and the
/// traced run repeats it unit for unit.
inline size_t timed_units(const Args& args, double per_second) {
  const double units = args.seconds * per_second / static_cast<double>(kRepeats);
  return units < 1.0 ? 1 : static_cast<size_t>(units + 0.5);
}

}  // namespace perfbench
