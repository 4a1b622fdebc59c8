// The runtime report declarations against every function generated from
// them. Each test sets every declared session counter, session histogram
// and FleetReport field to a distinct value through the lists themselves,
// so leaving one entry out of operator+=, same_virtual, visit_fields or
// fingerprints() fails here.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "runtime/report_fields.h"

namespace ruletris {
namespace {

using runtime::Clock;
using runtime::FleetReport;
using runtime::RuntimeReport;
using runtime::SessionStats;
using runtime::SessionTotals;
using Value = std::variant<double, std::string>;
using Fields = std::map<std::string, Value>;

/// Every (name, value) visit_fields yields; a repeated name fails.
template <class Report>
Fields collect(const Report& report) {
  Fields out;
  runtime::visit_fields(report, [&out](const std::string& key, const auto& value) {
    EXPECT_TRUE(out.emplace(key, Value(value)).second) << "yielded twice: " << key;
  });
  return out;
}

/// Every counter and histogram distinct: counter values and single
/// histogram samples count up from `base` in list order.
SessionTotals distinct_totals(size_t base) {
  SessionTotals t;
  size_t v = base;
#define SET_COUNTER(name) t.name = ++v;
  RULETRIS_SESSION_COUNTERS(SET_COUNTER)
#undef SET_COUNTER
#define SET_HISTOGRAM(name, clock) t.name##_ms.add(static_cast<double>(++v));
  RULETRIS_SESSION_HISTOGRAMS(SET_HISTOGRAM)
#undef SET_HISTOGRAM
  return t;
}

/// What visit_fields(SessionTotals) must yield, spelled from the lists: a
/// one-sample histogram has that sample as every percentile.
Fields want_totals(const SessionTotals& t) {
  Fields want;
#define WANT_COUNTER(name) want[#name] = static_cast<double>(t.name);
  RULETRIS_SESSION_COUNTERS(WANT_COUNTER)
#undef WANT_COUNTER
#define WANT_HISTOGRAM(name, clock)              \
  if (Clock::clock == Clock::kVirtual) {         \
    want[#name "_p50_ms"] = t.name##_ms.max();   \
    want[#name "_p99_ms"] = t.name##_ms.max();   \
  }
  RULETRIS_SESSION_HISTOGRAMS(WANT_HISTOGRAM)
#undef WANT_HISTOGRAM
  return want;
}

/// A fleet report with distinct totals and every declared field distinct
/// (flags all false, the non-default value).
FleetReport distinct_fleet() {
  FleetReport r;
  static_cast<SessionTotals&>(r.runtime) = distinct_totals(0);
  size_t v = 500;
#define SET_FLEET_count(name) r.name = ++v;
#define SET_FLEET_real(name) r.name = 0.5 + static_cast<double>(++v);
#define SET_FLEET_flag(name) r.name = false;
#define SET_FLEET_digest(name) r.name = 0xf00d000000000000ull + ++v;
#define SET_FLEET_hist(name) r.name##_ms.add(static_cast<double>(++v));
#define SET_FLEET(kind, name) SET_FLEET_##kind(name)
  RULETRIS_FLEET_FIELDS(SET_FLEET)
  return r;
}

std::string hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(ReportFields, TotalsVisitorYieldsEveryVirtualFieldOnce) {
  const SessionTotals t = distinct_totals(0);
  EXPECT_EQ(collect(t), want_totals(t));
  // Empty histograms read 0 instead of throwing.
  const Fields empty = collect(SessionTotals{});
  EXPECT_EQ(empty.at("rejoin_p99_ms"), Value(0.0));
  EXPECT_EQ(empty.count("firmware_p50_ms"), 0u);  // wall clock: no row field
}

TEST(ReportFields, HistogramVisitorYieldsEveryHistogramWithItsClock) {
  const SessionTotals t = distinct_totals(0);
  std::map<std::string, std::pair<Clock, double>> got;
  runtime::visit_histograms(t, [&got](const char* name, Clock clock,
                                      const util::Histogram& h) {
    EXPECT_TRUE(got.emplace(name, std::make_pair(clock, h.max())).second) << name;
  });
  std::map<std::string, std::pair<Clock, double>> want;
#define WANT_HISTOGRAM(name, clock) \
  want[#name] = std::make_pair(Clock::clock, t.name##_ms.max());
  RULETRIS_SESSION_HISTOGRAMS(WANT_HISTOGRAM)
#undef WANT_HISTOGRAM
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.at("firmware").first, Clock::kWall);
}

TEST(ReportFields, PlusEqualsSumsEveryCounterAndMergesEveryHistogram) {
  const SessionTotals a = distinct_totals(0);
  const SessionTotals b = distinct_totals(1000);
  SessionTotals sum = a;
  sum += b;
#define CHECK_COUNTER(name) EXPECT_EQ(sum.name, a.name + b.name) << #name;
  RULETRIS_SESSION_COUNTERS(CHECK_COUNTER)
#undef CHECK_COUNTER
#define CHECK_HISTOGRAM(name, clock)                               \
  EXPECT_EQ(sum.name##_ms.count(), 2u) << #name;                   \
  EXPECT_EQ(sum.name##_ms.min(), a.name##_ms.min()) << #name;      \
  EXPECT_EQ(sum.name##_ms.max(), b.name##_ms.max()) << #name;
  RULETRIS_SESSION_HISTOGRAMS(CHECK_HISTOGRAM)
#undef CHECK_HISTOGRAM
}

TEST(ReportFields, SameVirtualCatchesEachVirtualFieldAndIgnoresWallClock) {
  const SessionTotals t = distinct_totals(0);
  EXPECT_TRUE(t.same_virtual(t));
#define PERTURB_COUNTER(name)                      \
  {                                                \
    SessionTotals u = t;                           \
    ++u.name;                                      \
    EXPECT_FALSE(t.same_virtual(u)) << #name;      \
  }
  RULETRIS_SESSION_COUNTERS(PERTURB_COUNTER)
#undef PERTURB_COUNTER
#define PERTURB_HISTOGRAM(name, clock)                                   \
  {                                                                      \
    SessionTotals u = t;                                                 \
    u.name##_ms.add(0.5);                                                \
    EXPECT_EQ(t.same_virtual(u), Clock::clock == Clock::kWall) << #name; \
  }
  RULETRIS_SESSION_HISTOGRAMS(PERTURB_HISTOGRAM)
#undef PERTURB_HISTOGRAM
}

TEST(ReportFields, RuntimeVisitorYieldsScalarsRatesAndTotals) {
  RuntimeReport r;
  static_cast<SessionTotals&>(r) = distinct_totals(0);
  r.sessions.resize(3);
  for (SessionStats& s : r.sessions) s.epochs = 5;
  r.epochs = 5;
  r.makespan_ms = 250.0;
  r.all_completed = false;
  Fields want = want_totals(r);
  want["switches"] = 3.0;
  want["epochs"] = 5.0;
  want["makespan_ms"] = 250.0;
  want["updates_per_s"] = 15 / 0.25;
  want["entry_writes_per_epoch"] = static_cast<double>(r.entry_writes) / 15;
  want["converged"] = 1.0;
  want["completed"] = 0.0;
  EXPECT_EQ(collect(r), want);
}

TEST(ReportFields, FleetVisitorYieldsEveryDeclaredFieldOnce) {
  const FleetReport r = distinct_fleet();
  Fields want = want_totals(r.runtime);
#define WANT_FLEET_count(name) want[#name] = static_cast<double>(r.name);
#define WANT_FLEET_real(name) want[#name] = r.name;
#define WANT_FLEET_flag(name) want[#name] = 0.0;
#define WANT_FLEET_digest(name) want[#name] = hex(r.name);
#define WANT_FLEET_hist(name) \
  want[#name "_p50_ms"] = want[#name "_p99_ms"] = r.name##_ms.max();
#define WANT_FLEET(kind, name) WANT_FLEET_##kind(name)
  RULETRIS_FLEET_FIELDS(WANT_FLEET)
  want["updates_per_s"] = r.updates_per_s();
  want["wall_rule_ops_per_s"] = r.wall_rule_ops_per_s();
  want["converged"] = 1.0;
  want["completed"] = 1.0;
  EXPECT_EQ(collect(r), want);
  EXPECT_EQ(std::get<std::string>(want.at("layout_fingerprint")).size(), 16u);
}

TEST(ReportFields, FingerprintsAreEveryDigestInDeclarationOrder) {
  const FleetReport r = distinct_fleet();
  std::vector<uint64_t> want;
#define WANT_DIGEST_count(name)
#define WANT_DIGEST_real(name)
#define WANT_DIGEST_flag(name)
#define WANT_DIGEST_digest(name) want.push_back(r.name);
#define WANT_DIGEST_hist(name)
#define WANT_DIGEST(kind, name) WANT_DIGEST_##kind(name)
  RULETRIS_FLEET_FIELDS(WANT_DIGEST)
  EXPECT_EQ(r.fingerprints(), want);
  EXPECT_EQ(want.size(), 3u);
}

TEST(ReportFields, SelfChecksFailOnEachViolatedVerdict) {
  EXPECT_TRUE(FleetReport{}.self_checks_ok());
  const auto fails = [](auto&& spoil) {
    FleetReport r;
    spoil(r);
    return !r.self_checks_ok();
  };
  EXPECT_TRUE(fails([](FleetReport& r) { r.runtime.all_converged = false; }));
  EXPECT_TRUE(fails([](FleetReport& r) { r.replay_ok = false; }));
  EXPECT_TRUE(fails([](FleetReport& r) { r.failover_ok = false; }));
  EXPECT_TRUE(fails([](FleetReport& r) { r.runtime.readmit_failures = 1; }));
  EXPECT_TRUE(fails([](FleetReport& r) { r.runtime.rejoin_audit_violations = 1; }));
  EXPECT_TRUE(fails([](FleetReport& r) { r.runtime.quarantines = 1; }));
}

}  // namespace
}  // namespace ruletris
