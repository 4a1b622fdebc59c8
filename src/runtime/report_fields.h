// The one field visitor over the runtime's reports.
//
// Session counters (RULETRIS_SESSION_COUNTERS), session histograms
// (RULETRIS_SESSION_HISTOGRAMS) and FleetReport fields
// (RULETRIS_FLEET_FIELDS) are each named in exactly one list. visit_fields
// walks those lists and hands every field to a callback as (name, value):
//   * counters and scalars under their declared names, as doubles (a flag
//     reads 1 or 0);
//   * virtual-time histograms as <name>_p50_ms and <name>_p99_ms, reading 0
//     when empty;
//   * fingerprints as 16 lowercase hex digits (std::string);
//   * the derived rates (updates_per_s, wall_rule_ops_per_s, ...).
// Every JSON report row and text summary of the runtime prints from here,
// so a new counter is a one-line change in its list.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/controller.h"
#include "runtime/session.h"
#include "runtime/sharded_controller.h"
#include "util/stats.h"
#include "util/strfmt.h"

namespace ruletris::runtime {

/// The `q`-th percentile of `h`, or 0 when `h` is empty
/// (Histogram::percentile throws there; clean runs leave the recovery
/// histograms empty).
inline double percentile_or0(const util::Histogram& h, double q) {
  return h.empty() ? 0.0 : h.percentile(q);
}

/// A fingerprint as every report spells it: 16 lowercase hex digits.
inline std::string hex_digest(uint64_t v) {
  return util::strfmt("%016llx", static_cast<unsigned long long>(v));
}

/// Every session histogram as f(name, clock, histogram), in list order,
/// wall-clock ones included (text summaries print whole distributions).
template <class F>
void visit_histograms(const SessionTotals& t, F&& f) {
#define RULETRIS_VISIT_HISTOGRAM(name, clock) f(#name, Clock::clock, t.name##_ms);
  RULETRIS_SESSION_HISTOGRAMS(RULETRIS_VISIT_HISTOGRAM)
#undef RULETRIS_VISIT_HISTOGRAM
}

/// A virtual-time histogram as its two report fields.
template <class F>
void visit_percentiles(const std::string& name, const util::Histogram& h, F& f) {
  f(name + "_p50_ms", percentile_or0(h, 50.0));
  f(name + "_p99_ms", percentile_or0(h, 99.0));
}

/// Every counter, then every virtual-time histogram. Wall-clock histograms
/// depend on the host, so no report row carries them.
template <class F>
void visit_fields(const SessionTotals& t, F&& f) {
#define RULETRIS_VISIT_COUNTER(name) f(#name, static_cast<double>(t.name));
  RULETRIS_SESSION_COUNTERS(RULETRIS_VISIT_COUNTER)
#undef RULETRIS_VISIT_COUNTER
  visit_histograms(t, [&f](const char* name, Clock clock, const util::Histogram& h) {
    if (clock == Clock::kVirtual) visit_percentiles(name, h, f);
  });
}

/// A merged runtime report: its own scalars and rates, then the totals.
template <class F>
void visit_fields(const RuntimeReport& r, F&& f) {
  f("switches", static_cast<double>(r.sessions.size()));
  f("epochs", static_cast<double>(r.epochs));
  f("makespan_ms", r.makespan_ms);
  f("updates_per_s", r.updates_per_s());
  f("entry_writes_per_epoch", r.entry_writes_per_epoch());
  f("converged", r.all_converged ? 1.0 : 0.0);
  f("completed", r.all_completed ? 1.0 : 0.0);
  visit_fields(static_cast<const SessionTotals&>(r), f);
}

// Per-kind expansions of RULETRIS_FLEET_FIELDS for visit_fields(FleetReport).
#define RULETRIS_VISIT_FLEET_count(name) f(#name, static_cast<double>(r.name));
#define RULETRIS_VISIT_FLEET_real(name) f(#name, r.name);
#define RULETRIS_VISIT_FLEET_flag(name) f(#name, r.name ? 1.0 : 0.0);
#define RULETRIS_VISIT_FLEET_digest(name) f(#name, hex_digest(r.name));
#define RULETRIS_VISIT_FLEET_hist(name) visit_percentiles(#name, r.name##_ms, f);

/// A compiled fleet: every declared fleet field and the two rates, then the
/// merged runtime's verdicts and totals (its makespan and rates are the
/// fleet's own above, so they are not repeated).
template <class F>
void visit_fields(const FleetReport& r, F&& f) {
#define RULETRIS_VISIT_FLEET(kind, name) RULETRIS_VISIT_FLEET_##kind(name)
  RULETRIS_FLEET_FIELDS(RULETRIS_VISIT_FLEET)
#undef RULETRIS_VISIT_FLEET
  f("updates_per_s", r.updates_per_s());
  f("wall_rule_ops_per_s", r.wall_rule_ops_per_s());
  f("converged", r.runtime.all_converged ? 1.0 : 0.0);
  f("completed", r.runtime.all_completed ? 1.0 : 0.0);
  visit_fields(static_cast<const SessionTotals&>(r.runtime), f);
}

}  // namespace ruletris::runtime
