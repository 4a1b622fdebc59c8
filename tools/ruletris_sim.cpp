// ruletris_sim — command-line driver for the whole pipeline.
//
// Composes named member tables (ClassBench files or synthetic generators)
// under a policy expression, replays a rule-update stream through a chosen
// compiler and switch firmware, and reports the paper's latency metrics.
//
//   ruletris_sim --policy "monitor + router"
//                --table monitor=gen:monitor:100 --table router=gen:router:1000
//                --churn monitor --updates 500 --compiler ruletris
//
//   ruletris_sim --policy "acl" --table acl=file:acl1_1k.rules --updates 100
//
// Table sources:  gen:router:N | gen:monitor:N | gen:firewall:N |
//                 gen:nat:N (requires a router table named "router") |
//                 file:PATH (ClassBench format)
// Compilers:      ruletris (DAG firmware) | covisor | baseline (priority fw)
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fstream>

#include "bench/bench_util.h"
#include "classbench/format.h"
#include "classbench/generator.h"
#include "classbench/trace.h"
#include "dag/builder.h"
#include "compiler/baseline.h"
#include "compiler/covisor.h"
#include "compiler/policy_parser.h"
#include "compiler/ruletris_compiler.h"
#include "frozen/frozen.h"
#include "netplan/auditor.h"
#include "netplan/materialize.h"
#include "netplan/planner.h"
#include "netplan/policy.h"
#include "netplan/topology.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/report_fields.h"
#include "runtime/warm_boot.h"
#include "runtime/workload.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "switchsim/traffic_engine.h"
#include "tcam/cacheflow.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace ruletris;
using compiler::PolicySpec;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;

struct Options {
  std::string policy;
  std::vector<std::pair<std::string, std::string>> tables;  // name -> source
  std::string churn;                // leaf receiving the update stream
  std::string compiler = "ruletris";
  size_t updates = 200;
  uint64_t seed = 1;
  std::string trace_in;    // replay this trace instead of random churn
  std::string trace_out;   // record the generated stream here
  std::optional<size_t> capacity;   // default: sized from the composed table
  size_t dag_threads = 0;  // 0 = serial minimum-DAG extraction
  std::string json_out;    // machine-readable report path
  std::string freeze_out;  // --freeze: write the final frozen artifact here
  std::string thaw_in;     // --thaw: warm boot from this artifact, no compile
  bool verbose = false;

  // Data-plane traffic mode (--traffic): instead of a rule-update stream,
  // drive a Zipf flow workload through a CacheFlow'd TCAM + tuple-space
  // slow path over the composed table and report hit rate / pkts per sec.
  bool traffic = false;
  size_t flows = 1 << 20;             // --flows
  double zipf_alpha = 1.0;            // --zipf-alpha
  std::optional<double> flow_churn;   // --flow-churn (or numeric --churn)
  size_t packets = 50000;             // --packets (per epoch)
  size_t epochs = 4;                  // --epochs
  size_t threads = 1;                 // --threads (lookup shards)

  // Network-wide update mode (--netplan): project the composed policy onto
  // a topology, plan a consistent update to a mutated version of it, drive
  // the rounds through the fleet-gated runtime and audit per-packet
  // consistency between every round.
  bool netplan = false;
  std::string topology = "random:8:4:3";  // --topology
  std::string planner = "auto";           // --planner

  // Asynchronous runtime mode (--runtime): replicate the compiled epoch log
  // to N concurrent switch sessions instead of one synchronous switch.
  bool runtime = false;
  size_t switches = 8;                    // --switches
  size_t window = 4;                      // --window (in-flight epochs)
  std::optional<uint64_t> fault_seed;     // --fault-seed: enables chaos mix
  std::optional<double> crash_p;          // --crash-p: firmware crash per journaled op
  std::optional<double> corrupt_p;        // --corrupt-p: per-frame bit flip

  // Sharded fleet mode (--fleet): K compile shards churn N switches'
  // policies and publish sealed epochs lock-free to M dispatch threads.
  // Needs no --policy/--table: the fleet builds its own per-switch
  // mon ∥ rtr workload from --seed.
  bool fleet = false;
  size_t shards = 2;                      // --shards (compile shards)
  // Fleet chaos: --chaos arms the default schedule (shard kills + agent
  // blackouts on brownout wires); --shard-kill-ms adds one shard kill per
  // occurrence (shard 1, 2, ... at the given virtual compile time);
  // --quarantine-after overrides the silent-round escalation bound.
  bool chaos = false;
  std::vector<double> shard_kill_ms;      // --shard-kill-ms (repeatable)
  std::optional<size_t> quarantine_after; // --quarantine-after
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --policy EXPR --table NAME=SOURCE [--table ...]\n"
               "          [--churn NAME] [--updates N] [--seed S]\n"
               "          [--compiler ruletris|covisor|baseline]\n"
               "          [--tcam-capacity N] [--dag-threads N] [--verbose]\n"
               "          [--trace FILE | --emit-trace FILE] [--json FILE]\n"
               "          [--freeze FILE] [--thaw FILE]\n"
               "          [--runtime] [--switches N] [--window W] [--fault-seed S]\n"
               "          [--crash-p P] [--corrupt-p P]\n"
               "          [--traffic] [--flows N] [--zipf-alpha A]\n"
               "          [--flow-churn R] [--packets N] [--epochs N]\n"
               "          [--threads N]\n"
               "          [--netplan] [--topology SPEC]\n"
               "          [--planner rounds|two-phase|auto|oneshot]\n"
               "          [--fleet] [--switches N] [--shards K] [--threads T]\n"
               "          [--chaos] [--shard-kill-ms T ...] [--quarantine-after N]\n"
               "  SOURCE: gen:router:N | gen:monitor:N | gen:firewall:N |\n"
               "          gen:nat:N | file:PATH\n"
               "  --dag-threads runs every bulk minimum-DAG build of a\n"
               "  compile (leaf tables and each composed node's visible\n"
               "  table) on N threads; the output does not depend on N.\n"
               "  --runtime replicates the compiled update stream to N\n"
               "  concurrent switch sessions over a simulated wire; with\n"
               "  --fault-seed the wire drops/duplicates/delays frames and\n"
               "  restarts agents (deterministically, from the seed).\n"
               "  --crash-p makes agent firmware crash mid-transaction with\n"
               "  probability P per journaled op (journal recovery rolls the\n"
               "  torn TCAM back or forward before resync); --corrupt-p flips\n"
               "  a wire bit per frame with probability P (CRC-caught,\n"
               "  NACK-retransmitted). Both imply faults even without\n"
               "  --fault-seed.\n"
               "  --freeze writes the post-churn compiled state + TCAM\n"
               "  layout as a frozen artifact (ruletris compiler only);\n"
               "  --thaw skips compilation entirely: it maps a frozen\n"
               "  artifact and warm-boots a DAG scheduler from it (no\n"
               "  --policy/--table needed).\n"
               "  --netplan projects the composed policy onto a topology\n"
               "  (SPEC: chain:N | diamond | random:N:EXTRA:SEED), plans a\n"
               "  consistent network-wide update to a seeded mutation of it,\n"
               "  drives the barrier-fenced rounds through the fleet runtime\n"
               "  (--fault-seed/--crash-p/--corrupt-p apply) and audits\n"
               "  per-packet consistency between every round; exits non-zero\n"
               "  on any mixed-version observation. --planner picks the\n"
               "  discipline; oneshot is the inconsistent baseline the\n"
               "  auditor is expected to catch.\n"
               "  --fleet runs the sharded compile pipeline: K compile\n"
               "  shards churn N switches' policies (bursty locality-heavy\n"
               "  updates, --updates per switch) and publish sealed epochs\n"
               "  lock-free to T dispatch threads pumping the sessions. No\n"
               "  --policy/--table needed. The run repeats single-threaded\n"
               "  and exits non-zero if any fingerprint differs (cross-\n"
               "  thread determinism violation), a session fails to\n"
               "  converge, or an RTDZ delta replay audit fails. --chaos\n"
               "  arms the fleet fault schedule: shard kills (each\n"
               "  --shard-kill-ms T kills the next shard, starting at shard\n"
               "  1, when its virtual compile clock reaches T; default one\n"
               "  kill at 0.5 ms), agent blackout windows, brownout wires\n"
               "  and quarantine after N silent retry rounds\n"
               "  (--quarantine-after, default 3). Survivors adopt orphaned\n"
               "  switches from the published delta blobs; quarantined\n"
               "  switches re-admit via warm-boot catch-up. Exits non-zero\n"
               "  on any determinism, failover, re-admission or rejoin\n"
               "  audit violation.\n"
               "  --traffic replaces the update stream with a Zipf-skewed\n"
               "  flow workload (N concurrent flows, skew A, flow expiry\n"
               "  rate R per packet) against a CacheFlow'd TCAM backed by\n"
               "  the tuple-space slow path; reports cache hit rate and\n"
               "  packets/s. In traffic mode a numeric --churn value is\n"
               "  read as the flow churn rate.\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--policy") {
      opt.policy = need_value(i);
    } else if (arg == "--table") {
      const std::string spec = need_value(i);
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      opt.tables.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--churn") {
      opt.churn = need_value(i);
    } else if (arg == "--updates") {
      opt.updates = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(need_value(i));
    } else if (arg == "--compiler") {
      opt.compiler = need_value(i);
    } else if (arg == "--tcam-capacity") {
      opt.capacity = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--dag-threads") {
      opt.dag_threads = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--json") {
      opt.json_out = need_value(i);
    } else if (arg == "--freeze") {
      opt.freeze_out = need_value(i);
    } else if (arg == "--thaw") {
      opt.thaw_in = need_value(i);
    } else if (arg == "--trace") {
      opt.trace_in = need_value(i);
    } else if (arg == "--emit-trace") {
      opt.trace_out = need_value(i);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--runtime") {
      opt.runtime = true;
    } else if (arg == "--switches") {
      opt.switches = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--window") {
      opt.window = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--fault-seed") {
      opt.fault_seed = std::stoull(need_value(i));
    } else if (arg == "--crash-p") {
      opt.crash_p = std::stod(need_value(i));
    } else if (arg == "--corrupt-p") {
      opt.corrupt_p = std::stod(need_value(i));
    } else if (arg == "--fleet") {
      opt.fleet = true;
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--shard-kill-ms") {
      opt.chaos = true;
      opt.shard_kill_ms.push_back(std::stod(need_value(i)));
    } else if (arg == "--quarantine-after") {
      opt.chaos = true;
      opt.quarantine_after = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--shards") {
      opt.shards = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--netplan") {
      opt.netplan = true;
    } else if (arg == "--topology") {
      opt.topology = need_value(i);
    } else if (arg == "--planner") {
      opt.planner = need_value(i);
    } else if (arg == "--traffic") {
      opt.traffic = true;
    } else if (arg == "--flows") {
      opt.flows = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--zipf-alpha") {
      opt.zipf_alpha = std::stod(need_value(i));
    } else if (arg == "--flow-churn") {
      opt.flow_churn = std::stod(need_value(i));
    } else if (arg == "--packets") {
      opt.packets = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--epochs") {
      opt.epochs = static_cast<size_t>(std::stoul(need_value(i)));
    } else if (arg == "--threads") {
      opt.threads = static_cast<size_t>(std::stoul(need_value(i)));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (opt.thaw_in.empty() && !opt.fleet &&
      (opt.policy.empty() || opt.tables.empty())) {
    usage(argv[0]);
  }
  return opt;
}

std::vector<Rule> make_table(const std::string& source,
                             const std::map<std::string, std::vector<Rule>>& built,
                             util::Rng& rng) {
  if (source.rfind("file:", 0) == 0) {
    auto parsed = classbench::load_classbench_file(source.substr(5));
    std::printf("  loaded %zu filters -> %zu TCAM rules (+%zu range expansion)\n",
                parsed.filters, parsed.rules.size(), parsed.expansion_overhead);
    return std::move(parsed.rules);
  }
  if (source.rfind("gen:", 0) != 0) {
    throw std::runtime_error("bad table source: " + source);
  }
  const size_t second = source.find(':', 4);
  if (second == std::string::npos) throw std::runtime_error("bad gen spec: " + source);
  const std::string kind = source.substr(4, second - 4);
  const size_t n = static_cast<size_t>(std::stoul(source.substr(second + 1)));
  if (kind == "router") return classbench::generate_router(n, rng);
  if (kind == "monitor") return classbench::generate_monitor(n, rng);
  if (kind == "firewall") return classbench::generate_firewall(n, rng);
  if (kind == "nat") {
    auto it = built.find("router");
    if (it == built.end()) {
      throw std::runtime_error("gen:nat needs a table named 'router' defined first");
    }
    return classbench::generate_nat(n, it->second, rng);
  }
  throw std::runtime_error("unknown generator: " + kind);
}

Rule make_replacement(const std::string& source,
                      const std::map<std::string, std::vector<Rule>>& built,
                      util::Rng& rng) {
  if (source.rfind("gen:nat", 0) == 0) {
    return classbench::random_nat_rule(built.at("router"), 100, rng);
  }
  // Monitor-style replacement works for every other profile.
  return classbench::random_monitor_rule(100, rng);
}

/// The text summary of a runtime report: every field visit_fields yields
/// (runtime/report_fields.h), three to a line, then the distribution of
/// each non-empty session histogram in `totals`.
template <class Report>
void print_report(const Report& report, const runtime::SessionTotals& totals) {
  size_t n = 0;
  runtime::visit_fields(report, [&n](const std::string& key, const auto& value) {
    std::string text;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, std::string>) {
      text = value;
    } else {
      text = util::strfmt("%.6g", value);
    }
    const bool last = ++n % 3 == 0;
    std::printf(last ? "  %-24s %s\n" : "  %-24s %-16s", key.c_str(), text.c_str());
  });
  if (n % 3 != 0) std::printf("\n");
  runtime::visit_histograms(totals, [](const char* name, runtime::Clock clock,
                                       const util::Histogram& h) {
    if (h.empty()) return;
    std::printf("  %-8s %s ms%s\n", name, h.summary("").c_str(),
                clock == runtime::Clock::kWall ? " (wall clock, this host)" : "");
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  util::set_log_level(opt.verbose ? util::LogLevel::kInfo : util::LogLevel::kError);
  // Thread count for every bulk minimum-DAG build a compile performs (leaf
  // bootstrap and each composed node's visible table). 0 keeps it serial.
  dag::set_default_build_threads(opt.dag_threads);
  bench::init_json(argc, argv, "ruletris_sim");

  try {
    if (!opt.thaw_in.empty()) {
      // Warm boot: map the artifact, size a TCAM from its frozen layout,
      // and restore a scheduler straight from the blob sections.
      util::Stopwatch map_watch;
      runtime::ThawedController thawed(opt.thaw_in);
      const double map_ms = map_watch.elapsed_ms();

      size_t capacity = opt.capacity.value_or(0);
      if (capacity == 0) {
        for (const auto& l : thawed.image().tables.at(0).layout) {
          capacity = std::max(capacity, static_cast<size_t>(l.addr) + 1);
        }
        capacity += capacity / 8 + 128;  // slack for post-boot inserts
      }
      tcam::Tcam tcam(capacity);
      tcam::DagScheduler sched(tcam);
      util::Stopwatch warm_watch;
      const size_t restored = thawed.restore_scheduler(0, sched);
      const double warm_ms = warm_watch.elapsed_ms();

      std::printf("thawed %s: epoch %llu, %zu entries into a %zu-slot TCAM\n",
                  opt.thaw_in.c_str(),
                  static_cast<unsigned long long>(thawed.epoch()), restored,
                  capacity);
      std::printf("  map+validate %.3f ms | warm boot %.3f ms | layout %s\n",
                  map_ms, warm_ms, sched.layout_valid() ? "valid" : "INVALID");
      if (auto* j = bench::json()) {
        j->meta("mode", "thaw");
        j->begin_row();
        j->field("map_ms", map_ms);
        j->field("warm_boot_ms", warm_ms);
        j->field("restored_entries", static_cast<double>(restored));
        j->field("tcam_capacity", static_cast<double>(capacity));
        bench::write_json();
      }
      return sched.layout_valid() ? 0 : 1;
    }

    if (opt.fleet) {
      // Sharded fleet: self-contained workload, so no --policy/--table.
      // Run at the requested thread count, then repeat single-threaded and
      // require bit-identical fingerprints — the CLI doubles as the
      // determinism gate CI can call directly.
      runtime::FleetSpec fspec;
      fspec.n_switches = opt.switches;
      fspec.n_shards = opt.shards;
      fspec.n_threads = opt.threads;
      fspec.updates_per_switch = opt.updates;
      fspec.seed = opt.seed;
      fspec.knobs.window = opt.window;
      if (opt.fault_seed) {
        fspec.knobs.faults = runtime::FaultSpec::chaos();
        fspec.fault_seed = *opt.fault_seed;
      }
      if (opt.crash_p) fspec.knobs.faults.crash_p = *opt.crash_p;
      if (opt.corrupt_p) fspec.knobs.faults.corrupt_p = *opt.corrupt_p;
      if (opt.capacity) fspec.tcam_capacity = *opt.capacity;
      if (opt.chaos) {
        // Default chaos: brownout wires, quarantine after 3 silent rounds,
        // one shard kill at 0.5 ms (override with --shard-kill-ms, one
        // kill per occurrence on shards 1, 2, ...) and an agent blackout
        // on the last switch.
        fspec.knobs.faults = runtime::FaultSpec::brownout();
        if (opt.crash_p) fspec.knobs.faults.crash_p = *opt.crash_p;
        if (opt.corrupt_p) fspec.knobs.faults.corrupt_p = *opt.corrupt_p;
        fspec.knobs.retry.quarantine_after =
            opt.quarantine_after.value_or(3);
        std::vector<double> kills = opt.shard_kill_ms;
        if (kills.empty()) kills.push_back(0.5);
        for (size_t k = 0; k < kills.size(); ++k) {
          fspec.chaos.shard_kills.push_back({k + 1, kills[k]});
        }
        fspec.chaos.blackouts.push_back(
            {fspec.n_switches - 1, {30.0, 300.0}});
      }

      std::printf("fleet: %zu switches / %zu shards / %zu threads, "
                  "%zu bursty updates per switch%s\n",
                  fspec.n_switches, fspec.n_shards, fspec.n_threads,
                  opt.updates, opt.chaos ? " [chaos]" : "");
      const runtime::FleetReport report =
          runtime::Controller(fspec).run_compiled(fspec);

      bool deterministic = true;
      if (fspec.n_threads > 1) {
        runtime::FleetSpec serial = fspec;
        serial.n_threads = 1;
        deterministic = runtime::Controller(serial).run_compiled(serial)
                            .fingerprints() == report.fingerprints();
      }
      const bool ok = report.self_checks_ok() && deterministic;
      print_report(report, report.runtime);
      std::printf("  self-checks %s, cross-thread determinism %s\n",
                  report.self_checks_ok() ? "ok" : "FAILED",
                  deterministic ? "ok" : "VIOLATED");
      if (auto* j = bench::json()) {
        j->meta("mode", "fleet");
        j->begin_row();
        j->fields(report);
        j->field("deterministic", deterministic ? 1.0 : 0.0);
        bench::write_json();
      }
      return ok ? 0 : 1;
    }

    const PolicySpec spec = compiler::parse_policy(opt.policy);
    std::printf("policy: %s\n", compiler::policy_to_string(spec).c_str());

    // Build member tables.
    util::Rng rng(opt.seed);
    std::map<std::string, std::vector<Rule>> built;
    std::map<std::string, std::string> sources;
    for (const auto& [name, source] : opt.tables) {
      std::printf("table %s <- %s\n", name.c_str(), source.c_str());
      built[name] = make_table(source, built, rng);
      sources[name] = source;
      std::printf("  %zu rules\n", built[name].size());
    }
    for (const std::string& leaf : spec.leaf_names()) {
      if (!built.count(leaf)) {
        std::fprintf(stderr, "error: policy references undefined table '%s'\n",
                     leaf.c_str());
        return 2;
      }
    }

    auto tables_for = [&] {
      std::map<std::string, FlowTable> t;
      for (const auto& [name, rules] : built) t.emplace(name, FlowTable{rules});
      return t;
    };

    if (opt.traffic) {
      // A numeric --churn is the flow churn rate in this mode.
      double churn_rate = opt.flow_churn.value_or(0.0);
      if (!opt.flow_churn && !opt.churn.empty()) {
        try {
          size_t used = 0;
          const double v = std::stod(opt.churn, &used);
          if (used == opt.churn.size()) churn_rate = v;
        } catch (const std::exception&) {
          // a table name; traffic mode ignores it
        }
      }

      compiler::RuleTrisCompiler frontend(spec, tables_for());
      const std::vector<Rule> composed = frontend.root().visible_rules_in_order();
      const FlowTable composed_table{composed};
      // A cache only makes sense when it is smaller than the table.
      const size_t capacity =
          opt.capacity.value_or(std::max<size_t>(64, composed.size() / 4));
      tcam::CacheFlowManager mgr(composed_table.rules(),
                                 frontend.root().visible_graph(),
                                 tcam::CacheFlowManager::Mode::kDagFirmware,
                                 capacity);

      switchsim::TrafficConfig cfg;
      cfg.flows = opt.flows;
      cfg.zipf_alpha = opt.zipf_alpha;
      cfg.churn_rate = churn_rate;
      cfg.packets_per_epoch = opt.packets;
      cfg.epochs = opt.epochs;
      cfg.seed = opt.seed;
      cfg.n_threads = std::max<size_t>(1, opt.threads);
      switchsim::TrafficEngine engine(mgr, composed_table.rules(), cfg);
      const switchsim::TrafficReport report = engine.run();

      std::printf("\ntraffic: %zu flows (alpha %.2f, churn %.3f), "
                  "%zu epochs x %zu packets, %zu lookup threads\n",
                  opt.flows, opt.zipf_alpha, churn_rate, opt.epochs,
                  opt.packets, cfg.n_threads);
      std::printf("  composed table : %zu rules; TCAM capacity %zu "
                  "(%zu cached, %zu covers)\n",
                  composed.size(), capacity, mgr.cached_count(),
                  mgr.cover_count());
      std::printf("  cache hit rate : %.4f  (tuples: TCAM %zu, slow path %zu)\n",
                  report.hit_rate(), mgr.tcam().tuple_count(),
                  mgr.soft_table().tuple_count());
      std::printf("  lookup rate    : %.0f pkts/s\n", report.pkts_per_s());
      std::printf("  cache update   : %zu swaps, %zu entry writes, "
                  "%.1f ms total TCAM time\n",
                  report.swaps, report.entry_writes, report.update_ms);
      std::printf("  flow churn     : %zu remaps\n", report.churn_events);
      std::printf("  fallbacks      : %zu failed swaps, %zu early stops, "
                  "%zu failed restores\n",
                  report.failed_swaps, report.rebalance_early_stops,
                  report.restore_failures);
      std::printf("  consistency    : %zu violations (must be 0)\n",
                  report.consistency_violations);

      if (auto* j = bench::json()) {
        j->meta("policy", compiler::policy_to_string(spec));
        j->meta("mode", "traffic");
        j->meta("seed", static_cast<double>(opt.seed));
        j->begin_row();
        j->field("flows", static_cast<double>(opt.flows));
        j->field("zipf_alpha", opt.zipf_alpha);
        j->field("flow_churn", churn_rate);
        j->field("packets", static_cast<double>(report.packets));
        j->field("threads", static_cast<double>(cfg.n_threads));
        j->field("tcam_capacity", static_cast<double>(capacity));
        j->field("hit_rate", report.hit_rate());
        j->field("pkts_per_s", report.pkts_per_s());
        j->field("swaps", static_cast<double>(report.swaps));
        j->field("entry_writes", static_cast<double>(report.entry_writes));
        j->field("update_ms", report.update_ms);
        j->field("churn_events", static_cast<double>(report.churn_events));
        j->field("failed_swaps", static_cast<double>(report.failed_swaps));
        j->field("rebalance_early_stops",
                 static_cast<double>(report.rebalance_early_stops));
        j->field("restore_failures", static_cast<double>(report.restore_failures));
        j->field("consistency_violations",
                 static_cast<double>(report.consistency_violations));
        bench::write_json();
      }
      return report.consistency_violations == 0 ? 0 : 1;
    }

    if (opt.netplan) {
      if (opt.compiler != "ruletris") {
        std::fprintf(stderr,
                     "error: --netplan requires the ruletris compiler\n");
        return 2;
      }
      const netplan::Topology topo = netplan::Topology::parse(opt.topology);
      const netplan::Strategy strategy = netplan::parse_strategy(opt.planner);

      compiler::RuleTrisCompiler frontend(spec, tables_for());
      const netplan::NetworkPolicy old_policy = netplan::policy_from_rules(
          topo, frontend.root().visible_rules_in_order(), opt.seed);

      // The "new" policy: a seeded mutation of the projected one — a
      // fraction rerouted, a few flows dropped, a couple added.
      netplan::MutationSpec mut;
      mut.reroute_fraction = 0.4;
      mut.drop_flows = old_policy.flows.size() / 10;
      mut.seed = opt.seed ^ 0x9e77;
      {
        util::Rng add_rng(opt.seed ^ 0xadd5);
        mut.add_matches.push_back(
            classbench::random_monitor_rule(100, add_rng).match);
        mut.add_matches.push_back(
            classbench::random_monitor_rule(100, add_rng).match);
      }
      const netplan::NetworkPolicy new_policy =
          netplan::mutate_policy(topo, old_policy, mut);

      netplan::PlannerConfig pcfg;
      pcfg.strategy = strategy;
      pcfg.tcam_capacity = opt.capacity.value_or(0);
      const netplan::UpdatePlan plan =
          netplan::plan_update(topo, old_policy, new_policy, pcfg);

      netplan::AuditConfig acfg;
      acfg.seed = opt.seed ^ 0xa0d17;
      const auto old_tables = netplan::tables_from(plan.initial);
      const auto new_tables = netplan::tables_from(plan.final_tables);
      const netplan::ConsistencyAuditor auditor(topo, old_policy, new_policy,
                                                old_tables, new_tables, acfg);

      // Planner-side audit: simulated tables at every round boundary.
      size_t sim_audits = 0, sim_mixed = 0;
      {
        auto mid = netplan::tables_from(plan.initial);
        const auto check = [&] {
          const auto rep = auditor.audit(netplan::tables_lookup(mid));
          ++sim_audits;
          sim_mixed += rep.mixed;
          for (const auto& v : rep.violations) {
            util::log_info("sim audit: " + v);
          }
        };
        check();
        for (const auto& round : plan.rounds) {
          netplan::apply_round(round, mid);
          check();
        }
      }

      // Runtime: lower the plan to per-switch epoch logs and drive the
      // fleet-gated sessions, auditing the live TCAMs at every barrier.
      runtime::RuntimeConfig rcfg;
      rcfg.knobs.window = opt.window;
      if (opt.fault_seed) {
        rcfg.knobs.faults = runtime::FaultSpec::chaos();
        rcfg.fault_seed = *opt.fault_seed;
      }
      if (opt.crash_p || opt.corrupt_p) {
        if (!opt.fault_seed) rcfg.fault_seed = opt.seed;
        if (opt.crash_p) rcfg.knobs.faults.crash_p = *opt.crash_p;
        if (opt.corrupt_p) rcfg.knobs.faults.corrupt_p = *opt.corrupt_p;
      }
      rcfg.n_threads = std::max<size_t>(1, opt.threads);
      rcfg.tcam_capacity = opt.capacity.value_or(plan.peak_switch_rules + 32);

      size_t live_audits = 0, live_mixed = 0;
      const runtime::RuntimeReport freport =
          runtime::Controller(rcfg).run_rounds(
              netplan::to_workloads(netplan::materialize(topo, plan)),
              [&](size_t, double, auto agents) {
                const auto rep = auditor.audit(netplan::live_lookup(agents));
                ++live_audits;
                live_mixed += rep.mixed;
                for (const auto& v : rep.violations) {
                  util::log_info("fleet audit: " + v);
                }
              });

      std::printf("\nnetplan: %s (%zu switches), planner %s\n",
                  opt.topology.c_str(), topo.switch_count(),
                  netplan::strategy_name(strategy));
      std::printf("  policy    : %zu -> %zu flows (%zu changed: "
                  "%zu two-phase / %zu rounds, %zu forced)\n",
                  old_policy.flows.size(), new_policy.flows.size(),
                  plan.flows_changed, plan.flows_two_phase, plan.flows_rounds,
                  plan.flows_forced_two_phase);
      std::printf("  plan      : %zu rounds; rules %zu -> %zu "
                  "(peak %zu, overhead %.1f%%)\n",
                  plan.rounds.size(), plan.initial_rules, plan.final_rules,
                  plan.peak_rules, plan.overhead_pct());
      std::printf("  sim audit : %zu probes x %zu boundaries, %zu mixed\n",
                  auditor.probe_count(), sim_audits, sim_mixed);
      std::printf("  fleet     :\n");
      print_report(freport, freport);
      std::printf("  live audit: %zu boundaries, %zu mixed\n", live_audits,
                  live_mixed);
      const bool consistent = sim_mixed == 0 && live_mixed == 0;
      std::printf("  consistency: %s\n",
                  consistent ? "clean" : "VIOLATED (mixed-version traces)");

      if (auto* j = bench::json()) {
        j->meta("policy", compiler::policy_to_string(spec));
        j->meta("mode", "netplan");
        j->meta("topology", opt.topology);
        j->meta("seed", static_cast<double>(opt.seed));
        j->begin_row();
        j->field("planner", netplan::strategy_name(strategy));
        j->field("flows_old", static_cast<double>(old_policy.flows.size()));
        j->field("flows_new", static_cast<double>(new_policy.flows.size()));
        j->field("flows_changed", static_cast<double>(plan.flows_changed));
        j->field("flows_two_phase", static_cast<double>(plan.flows_two_phase));
        j->field("rounds", static_cast<double>(plan.rounds.size()));
        j->field("initial_rules", static_cast<double>(plan.initial_rules));
        j->field("final_rules", static_cast<double>(plan.final_rules));
        j->field("peak_rules", static_cast<double>(plan.peak_rules));
        j->field("overhead_pct", plan.overhead_pct());
        j->field("sim_audits", static_cast<double>(sim_audits));
        j->field("sim_violations", static_cast<double>(sim_mixed));
        j->field("live_audits", static_cast<double>(live_audits));
        j->field("live_violations", static_cast<double>(live_mixed));
        j->fields(freport);
        bench::write_json();
      }
      return (consistent && freport.all_completed && freport.all_converged)
                 ? 0
                 : 1;
    }

    if (!opt.freeze_out.empty() && opt.compiler != "ruletris") {
      std::fprintf(stderr,
                   "error: --freeze requires the ruletris compiler\n");
      return 2;
    }
    const std::string churn =
        opt.churn.empty() ? spec.leaf_names().front() : opt.churn;
    if (!built.count(churn)) {
      std::fprintf(stderr, "error: churn table '%s' undefined\n", churn.c_str());
      return 2;
    }

    if (opt.runtime) {
      if (opt.compiler != "ruletris") {
        std::fprintf(stderr,
                     "error: --runtime requires the ruletris compiler "
                     "(DAG firmware)\n");
        return 2;
      }
      runtime::ChurnSpec churn_spec;
      churn_spec.leaf = churn;
      churn_spec.updates = opt.updates;
      churn_spec.seed = opt.seed ^ 0x5eed;
      const std::string churn_source = sources.at(churn);
      churn_spec.make_rule = [&](util::Rng& r) {
        return make_replacement(churn_source, built, r);
      };

      util::Stopwatch compile_watch;
      const runtime::CompiledWorkload workload =
          runtime::compile_churn_workload(spec, tables_for(), churn_spec);
      const double compile_wall_ms = compile_watch.elapsed_ms();

      runtime::RuntimeConfig cfg;
      cfg.n_switches = opt.switches;
      cfg.knobs.window = opt.window;
      if (opt.fault_seed) {
        cfg.knobs.faults = runtime::FaultSpec::chaos();
        cfg.fault_seed = *opt.fault_seed;
      }
      if (opt.crash_p || opt.corrupt_p) {
        // Crash/corruption layer on top of whatever wire mix is active
        // (a clean wire unless --fault-seed picked the chaos mix).
        if (!opt.fault_seed) cfg.fault_seed = opt.seed;
        if (opt.crash_p) cfg.knobs.faults.crash_p = *opt.crash_p;
        if (opt.corrupt_p) cfg.knobs.faults.corrupt_p = *opt.corrupt_p;
      }
      cfg.n_threads = std::min<size_t>(
          opt.switches, std::max(1u, std::thread::hardware_concurrency()));
      cfg.tcam_capacity = opt.capacity.value_or(workload.suggested_capacity());

      runtime::Controller controller(cfg);
      util::Stopwatch wall;
      const runtime::RuntimeReport report =
          controller.run(workload.epochs, workload.final_rules);
      const double wall_ms = wall.elapsed_ms();

      size_t converged = 0, dropped = 0;
      for (const auto& s : report.sessions) {
        if (s.converged) ++converged;
        dropped += s.wire.dropped;
      }
      std::string wire_desc =
          opt.fault_seed
              ? "chaos faults (seed " + std::to_string(*opt.fault_seed) + ")"
              : "fault-free wire";
      if (opt.crash_p) {
        wire_desc += ", crash_p " + std::to_string(*opt.crash_p);
      }
      if (opt.corrupt_p) {
        wire_desc += ", corrupt_p " + std::to_string(*opt.corrupt_p);
      }
      std::printf("\nruntime: %zu switches, window %zu, %zu epochs, %s\n",
                  report.sessions.size(), cfg.knobs.window, report.epochs,
                  wire_desc.c_str());
      std::printf("  compiled %zu epochs in %.1f ms; replicated in %.1f ms wall\n",
                  report.epochs, compile_wall_ms, wall_ms);
      print_report(report, report);
      std::printf("  wire drops %zu; converged: %s (%zu/%zu)\n", dropped,
                  report.all_converged ? "yes" : "NO", converged,
                  report.sessions.size());

      if (auto* j = bench::json()) {
        j->meta("policy", compiler::policy_to_string(spec));
        j->meta("mode", "runtime");
        j->meta("churn", churn);
        j->meta("seed", static_cast<double>(opt.seed));
        j->begin_row();
        j->field("window", static_cast<double>(cfg.knobs.window));
        j->field("fault_seed",
                 opt.fault_seed ? static_cast<double>(*opt.fault_seed) : -1.0);
        j->fields(report);
        bench::write_json();
      }
      return report.all_converged ? 0 : 1;
    }

    // Build the chosen compiler and its switch.
    util::Samples compile_ms, firmware_ms, tcam_ms, channel_ms;
    // Set-up, timed apart: the churn trace, the initial compile and the
    // whole-table install on an empty switch.
    double trace_ms = 0.0, initial_compile_ms = 0.0, initial_install_ms = 0.0;
    util::Stopwatch setup_watch;

    // The churn stream: either replayed from a trace file, or synthesized
    // (and optionally recorded for later replay).
    classbench::UpdateTrace trace;
    if (!opt.trace_in.empty()) {
      std::ifstream in(opt.trace_in);
      if (!in) throw std::runtime_error("cannot open trace " + opt.trace_in);
      trace = classbench::parse_trace(in);
      std::printf("replaying %zu trace steps from %s\n", trace.steps.size(),
                  opt.trace_in.c_str());
    } else {
      const std::string churn_source = sources.at(churn);
      trace = classbench::synthesize_churn_trace(
          built.at(churn).size(), opt.updates, opt.seed ^ 0x5eed,
          [&](util::Rng& r) { return make_replacement(churn_source, built, r); });
      if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        classbench::write_trace(out, trace);
        std::printf("recorded churn trace to %s\n", opt.trace_out.c_str());
      }
    }
    trace_ms = setup_watch.elapsed_ms();

    auto run_stream = [&](auto& frontend, auto deliver, size_t composed_size) {
      std::printf("composed table: %zu rules\n", composed_size);
      std::printf("  trace            %.1f ms\n", trace_ms);
      std::printf("  initial compile  %.1f ms\n", initial_compile_ms);
      std::printf("  initial install  %.1f ms\n", initial_install_ms);
      std::vector<RuleId> by_add_index;  // 1-based trace add references
      size_t pending_compile_updates = 0;
      double pending_compile_ms = 0.0;
      for (const auto& step : trace.steps) {
        util::Stopwatch watch;
        if (step.kind == classbench::TraceStep::Kind::kDelete) {
          const RuleId victim =
              step.ref < 0
                  ? built.at(churn)[static_cast<size_t>(-step.ref - 1)].id
                  : by_add_index[static_cast<size_t>(step.ref - 1)];
          auto upd = frontend.remove(churn, victim);
          pending_compile_ms += watch.elapsed_ms();
          ++pending_compile_updates;
          deliver(upd);
        } else {
          for (const Rule& r : step.rules) {
            by_add_index.push_back(r.id);
            auto upd = frontend.insert(churn, r);
            pending_compile_ms += watch.elapsed_ms();
            deliver(upd);
            watch.restart();
          }
        }
        // One logical update = one delete + one insert.
        if (pending_compile_updates == 1 &&
            step.kind == classbench::TraceStep::Kind::kAdd) {
          compile_ms.add(pending_compile_ms);
          pending_compile_ms = 0.0;
          pending_compile_updates = 0;
        }
      }
      (void)composed_size;
    };

    // Conservative min-DAG edges (bulk build + incremental); ruletris only.
    std::optional<size_t> cover_overflows;
    if (opt.compiler == "ruletris") {
      setup_watch.restart();
      compiler::RuleTrisCompiler frontend(spec, tables_for());
      initial_compile_ms = setup_watch.elapsed_ms();
      const size_t composed = frontend.root().visible_size();
      switchsim::SimulatedSwitch sw(
          switchsim::FirmwareMode::kDag,
          opt.capacity.value_or(composed + composed / 8 + 128));
      setup_watch.restart();
      sw.deliver(switchsim::to_messages(compiler::full_install(frontend.root())));
      initial_install_ms = setup_watch.elapsed_ms();
      run_stream(frontend,
                 [&](const auto& upd) {
                   const auto m = sw.deliver(switchsim::to_messages(upd));
                   firmware_ms.add(m.firmware_ms);
                   tcam_ms.add(m.tcam_ms);
                   channel_ms.add(m.channel_ms);
                 },
                 composed);
      cover_overflows = frontend.root().cover_overflows();
      if (!opt.freeze_out.empty()) {
        // Final compiled state + the switch's converged TCAM layout, as a
        // warm-boot artifact for a later --thaw run.
        util::Stopwatch freeze_watch;
        frozen::PolicyImage image =
            frozen::capture_policy(frontend, 1 + trace.steps.size());
        frozen::capture_layout(image.tables[0], sw.tcam());
        const frozen::Bytes blob = frozen::freeze(image);
        frozen::write_blob_file(opt.freeze_out, blob);
        std::printf("froze epoch %zu to %s (%.1f KiB, %.2f ms)\n",
                    1 + trace.steps.size(), opt.freeze_out.c_str(),
                    blob.size() / 1024.0, freeze_watch.elapsed_ms());
      }
    } else if (opt.compiler == "covisor" || opt.compiler == "baseline") {
      auto run_prioritized = [&](auto& frontend) {
        const size_t composed = frontend.compiled().size();
        switchsim::SimulatedSwitch sw(
            switchsim::FirmwareMode::kPriority,
            opt.capacity.value_or(composed + composed / 8 + 128));
        setup_watch.restart();
        compiler::PrioritizedUpdate initial;
        for (const Rule& r : frontend.compiled()) {
          initial.push_back(compiler::PrioritizedOp::add(r));
        }
        sw.deliver(switchsim::to_messages(initial));
        initial_install_ms = setup_watch.elapsed_ms();
        run_stream(frontend,
                   [&](const auto& upd) {
                     const auto m = sw.deliver(switchsim::to_messages(upd));
                     firmware_ms.add(m.firmware_ms);
                     tcam_ms.add(m.tcam_ms);
                     channel_ms.add(m.channel_ms);
                   },
                   composed);
      };
      setup_watch.restart();
      if (opt.compiler == "covisor") {
        compiler::CovisorCompiler frontend(spec, tables_for());
        initial_compile_ms = setup_watch.elapsed_ms();
        run_prioritized(frontend);
      } else {
        compiler::BaselineCompiler frontend(spec, tables_for());
        initial_compile_ms = setup_watch.elapsed_ms();
        run_prioritized(frontend);
      }
    } else {
      std::fprintf(stderr, "error: unknown compiler '%s'\n", opt.compiler.c_str());
      return 2;
    }

    std::printf("\n%zu trace steps through '%s' churning '%s':\n",
                trace.steps.size(), opt.compiler.c_str(), churn.c_str());
    std::printf("  compile  : %s ms\n", compile_ms.summary("").c_str());
    std::printf("  firmware : %s ms\n", firmware_ms.summary("").c_str());
    std::printf("  tcam     : %s ms\n", tcam_ms.summary("").c_str());
    std::printf("  channel  : %s ms (from encoded bytes)\n",
                channel_ms.summary("").c_str());
    std::printf("  total med: %.3f ms/update\n",
                compile_ms.median() + firmware_ms.median() + tcam_ms.median());
    if (cover_overflows) {
      std::printf("  cover-test overflows %zu (conservative DAG edges kept)\n",
                  *cover_overflows);
    }

    if (auto* j = bench::json()) {
      j->meta("policy", compiler::policy_to_string(spec));
      j->meta("compiler", opt.compiler);
      j->meta("churn", churn);
      j->meta("dag_threads", static_cast<double>(opt.dag_threads));
      j->meta("seed", static_cast<double>(opt.seed));
      j->begin_row();
      j->field("updates", static_cast<double>(trace.steps.size()));
      j->field("trace_ms", trace_ms);
      j->field("initial_compile_ms", initial_compile_ms);
      j->field("initial_install_ms", initial_install_ms);
      j->field("compile_med_ms", compile_ms.median());
      j->field("compile_p10_ms", compile_ms.p10());
      j->field("compile_p90_ms", compile_ms.p90());
      j->field("firmware_med_ms", firmware_ms.median());
      j->field("firmware_p10_ms", firmware_ms.p10());
      j->field("firmware_p90_ms", firmware_ms.p90());
      j->field("tcam_med_ms", tcam_ms.median());
      j->field("tcam_p10_ms", tcam_ms.p10());
      j->field("tcam_p90_ms", tcam_ms.p90());
      j->field("channel_med_ms", channel_ms.median());
      j->field("channel_p90_ms", channel_ms.p90());
      j->field("total_med_ms",
               compile_ms.median() + firmware_ms.median() + tcam_ms.median());
      if (cover_overflows) {
        j->field("cover_overflows", static_cast<double>(*cover_overflows));
      }
      bench::write_json();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
