// perfbench: end-to-end and per-layer benchmark of the RuleTris library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Drives the library from outside, through public functions only. With
// --trace 0 it prints the end-to-end metrics of an untraced timed run; with
// --trace 1 the per-layer metrics of a separate traced run. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every correctness gate passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>

#include "report.h"
#include "util/logging.h"
#include "workloads.h"

using perfbench::Args;
using perfbench::Report;
using perfbench::Values;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every run prints every metric of its list;
// NOTES.md says which layer each belongs to and what it should move.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"classbench.generate_s", "s"},
    {"compiler.initial_compile_s", "s"},
    {"compiler.insert_us_p50", "us"},
    {"compiler.remove_us_p50", "us"},
    {"compiler.busy_share", "share"},
    {"compiler.visible_delta_per_update", "count"},
    {"frozen.capture_us_p50", "us"},
    {"frozen.diff_us_p50", "us"},
    {"frozen.encode_delta_us_p50", "us"},
    {"frozen.delta_bytes_per_epoch", "bytes"},
    {"frozen.busy_share", "share"},
    {"proto.encode_us_p50", "us"},
    {"proto.decode_us_p50", "us"},
    {"proto.bytes_per_update", "bytes"},
    {"switchsim.to_messages_us_p50", "us"},
    {"switchsim.lookup_epoch_ms_p50", "ms"},
    {"tcam.initial_install_s", "s"},
    {"tcam.apply_us_p50", "us"},
    {"tcam.entry_writes_per_update", "count"},
    {"tcam.moves_per_update", "count"},
    {"tcam.cacheflow_init_s", "s"},
    {"tcam.tcam_lookup_ns", "ns"},
    {"tcam.soft_lookup_ns", "ns"},
    {"tcam.soft_probes_per_lookup", "count"},
    {"tcam.classify_ns", "ns"},
    {"tcam.rebalance_ms_p50", "ms"},
    {"tcam.rebalance_writes_per_epoch", "count"},
    {"tcam.swaps_per_epoch", "count"},
    {"tcam.hit_rate", "share"},
    {"dag.build_min_dag_s", "s"},
    {"runtime.self_share", "share"},
    {"runtime.shard_steps", "count"},
    {"runtime.steals", "count"},
    {"runtime.starved_pumps", "count"},
    {"runtime.retransmits", "count"},
    {"runtime.frames_sent", "count"},
    {"runtime.speedup_2t", "x"},
    {"runtime.model_updates_per_s", "1/s"},
    {"bench.op_p99_us", "us"},
    {"trace.ops_per_s_untraced", "1/s"},
    {"trace.ops_per_s_traced", "1/s"},
    {"trace.overhead_share", "share"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "wide_policy_churn|fleet_churn|traffic_cacheflow --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) usage("--trace takes 0 or 1");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  ruletris::util::set_log_level(ruletris::util::LogLevel::kOff);

  Report report;
  Values values;
  if (args.workload == "wide_policy_churn") {
    perfbench::run_wide_policy_churn(args, report, values);
  } else if (args.workload == "fleet_churn") {
    perfbench::run_fleet_churn(args, report, values);
  } else if (args.workload == "traffic_cacheflow") {
    perfbench::run_traffic_cacheflow(args, report, values);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  if (!args.trace) values["peak_rss_mb"] = perfbench::peak_rss_mb();
  // Layers a workload never calls read 0 in the traced run; every
  // end-to-end metric must have been measured.
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : defs) {
    const auto it = values.find(m.name);
    if (it == values.end() && !args.trace) {
      report.fail(std::string("end-to-end metric not measured: ") + m.name);
    }
    report.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "  %-36s %.6g\n", name.c_str(), value);
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
