// traffic_cacheflow: a 100 k-rule router FIB (min DAG by dag::build_min_dag)
// behind a 1024-entry CacheFlow TCAM with flow-driven (FDRC) admission.
// Traffic is Zipf(1.1) over 2^20 flows with 0.01 flow remaps per packet,
// classified by 2 lookup threads. An op is one classified packet; the timed
// phase covers lookups plus the rebalance (TCAM swaps) after every epoch.
// No compiler work happens here.
//
// One epoch: TrafficEngine::run_lookup_epoch -> CacheFlowManager::rebalance
// -> lookup_consistent on 32 fresh packets -> age_hits, the same sequence
// TrafficEngine::run() uses, driven epoch by epoch so the run can be timed.
#include <memory>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "switchsim/traffic_engine.h"
#include "tcam/cacheflow.h"
#include "tcam/soft_table.h"
#include "trace.h"
#include "util/hash.h"
#include "workloads.h"

namespace perfbench {

using namespace ruletris;
using Span = Tracer::Span;
using Policy = tcam::CacheFlowManager::AdmissionPolicy;

namespace {

constexpr size_t kFibRules = 100000;
constexpr size_t kTcamEntries = 1024;
constexpr size_t kSwapsPerEpoch = 64;
constexpr size_t kConsistencySamples = 32;
constexpr uint64_t kWarmupEpochs = 3;  // epoch 0 is cold: hit rate ~0.005
constexpr double kEpochsPerSecond = 5.5;  // timed work, see timed_units()
constexpr size_t kProbePackets = 512;  // per epoch, traced run only
constexpr flowspace::RuleId kFibIdBase = flowspace::RuleId{1} << 40;

switchsim::TrafficConfig traffic_config(uint64_t seed) {
  switchsim::TrafficConfig c;
  c.flows = size_t{1} << 20;
  c.zipf_alpha = 1.1;
  c.churn_rate = 0.01;
  c.packets_per_epoch = 50000;
  c.seed = util::hash_pair(seed, 0x7aff1c);
  c.n_threads = 2;
  c.policy = Policy::kFlowDriven;
  c.rebalance_swaps = kSwapsPerEpoch;
  c.consistency_samples = kConsistencySamples;
  return c;
}

struct Rig {
  std::unique_ptr<flowspace::FlowTable> fib;  // the engine keeps a reference
  std::unique_ptr<tcam::CacheFlowManager> manager;
  std::unique_ptr<switchsim::TrafficEngine> engine;
  uint64_t next_epoch = 0;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double dag_s = 0.0;
  double cacheflow_s = 0.0;
};

Rig set_up(uint64_t seed) {
  Rig rig;
  const switchsim::TrafficConfig config = traffic_config(seed);
  const double t0 = now_s();
  {
    // Fixed ids, so hit checksums compare across rigs.
    flowspace::RuleId ids = kFibIdBase;
    flowspace::ScopedRuleIdNamespace ns(&ids);
    util::Rng rng(util::hash_pair(seed, 0xf1b));
    rig.fib = std::make_unique<flowspace::FlowTable>(
        classbench::generate_router(kFibRules, rng));
  }
  const double t1 = now_s();
  dag::DependencyGraph graph = dag::build_min_dag(*rig.fib);
  const double t2 = now_s();
  rig.manager = std::make_unique<tcam::CacheFlowManager>(
      rig.fib->rules(), std::move(graph), tcam::CacheFlowManager::Mode::kDagFirmware,
      kTcamEntries);
  rig.manager->warm(config.policy, static_cast<size_t>(config.warm_fill *
                                                       static_cast<double>(kTcamEntries)));
  rig.engine =
      std::make_unique<switchsim::TrafficEngine>(*rig.manager, rig.fib->rules(), config);
  const double t3 = now_s();
  rig.generate_s = t1 - t0;
  rig.dag_s = t2 - t1;
  rig.cacheflow_s = t3 - t2;
  rig.setup_s = t3 - t0;
  return rig;
}

struct Tally {
  uint64_t epochs = 0;
  uint64_t packets = 0;
  uint64_t fast_hits = 0;
  size_t swaps = 0;
  size_t writes = 0;
  size_t moves = 0;
  size_t violations = 0;
  std::vector<double> op_us;  // per epoch: epoch wall / packets
  double wall_s = 0.0;        // summed epoch walls
};

void epoch_once(Rig& rig, Tracer* t, Tally& tally, Report& report) {
  if (t != nullptr) t->begin_request();
  tcam::CacheFlowManager& mgr = *rig.manager;
  const uint64_t e = rig.next_epoch++;
  const double start = now_s();
  uint64_t packets = 0;
  {
    Span root(t, "bench.epoch");
    switchsim::EpochStats stats;
    {
      Span s(t, "switchsim.lookup_epoch");
      stats = rig.engine->run_lookup_epoch(e);
    }
    const tcam::Tcam::Stats before = mgr.tcam().stats();
    {
      Span s(t, "tcam.rebalance");
      tally.swaps += mgr.rebalance(Policy::kFlowDriven, kSwapsPerEpoch);
    }
    tally.writes += mgr.tcam().stats().entry_writes - before.entry_writes;
    tally.moves += mgr.tcam().stats().moves - before.moves;
    {
      Span s(t, "tcam.consistency");
      for (size_t i = 0; i < kConsistencySamples; ++i) {
        const auto ev = rig.engine->stream().at(e ^ 0x5a5a5a5aULL, i);
        if (!mgr.lookup_consistent(rig.engine->packet_for(ev.flow_id))) ++tally.violations;
      }
    }
    {
      Span s(t, "tcam.age_hits");
      mgr.age_hits();
    }
    packets = stats.packets;
    tally.fast_hits += stats.fast_hits;
  }
  const double wall = now_s() - start;
  tally.packets += packets;
  tally.wall_s += wall;
  tally.op_us.push_back(wall * 1e6 / static_cast<double>(packets));
  ++tally.epochs;
  report.add_attempted(packets + kConsistencySamples);
}

/// Per-rule hit counts folded in rule order, and the TCAM layout folded by
/// address with covers canonicalized to their targets (cover ids come from
/// the process-wide counter). Equal for equal epoch sequences.
std::pair<uint64_t, uint64_t> checksums(const Rig& rig) {
  const tcam::CacheFlowManager& mgr = *rig.manager;
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const flowspace::Rule& r : rig.fib->rules()) {
    h = util::hash_pair(h, util::hash_pair(r.id, mgr.hits(r.id)));
  }
  uint64_t l = 0x2545f4914f6cdd1dULL;
  const tcam::Tcam& tc = mgr.tcam();
  for (size_t addr = 0; addr < tc.capacity(); ++addr) {
    uint64_t canonical = 0, is_cover = 0;
    if (const auto id = tc.at(addr)) {
      const flowspace::RuleId target = mgr.cover_target(*id);
      is_cover = target != flowspace::kInvalidRuleId;
      canonical = is_cover ? target : *id;
    }
    l = util::hash_pair(l, util::hash_pair(addr, canonical ^ (is_cover << 63)));
  }
  return {h, l};
}

/// Set-up plus the untimed warm-up epochs; every rig must reach the same
/// state after them.
Rig warm_rig(const Args& args, Report& report, std::pair<uint64_t, uint64_t>& expect,
             bool first) {
  Rig rig = set_up(args.seed);
  Tally warm;
  while (rig.next_epoch < kWarmupEpochs) epoch_once(rig, nullptr, warm, report);
  report.check(warm.violations == 0, "traffic_cacheflow: lookup_consistent violated");
  const auto sums = checksums(rig);
  if (first) expect = sums;
  report.check(sums == expect, "traffic_cacheflow: warm-up checksums differ between rigs");
  return rig;
}

}  // namespace

void run_traffic_cacheflow(const Args& args, Report& report, Values& values) {
  const size_t epochs = timed_units(args, kEpochsPerSecond);
  const auto run_epochs = [&](Rig& r, Tracer* t) {
    Tally tally;
    while (tally.epochs < epochs) epoch_once(r, t, tally, report);
    report.check(tally.violations == 0, "traffic_cacheflow: lookup_consistent violated");
    return tally;
  };

  std::vector<double> setup_s, generate_s, dag_s, cacheflow_s, wall_s;
  std::vector<std::vector<double>> op_us;
  std::pair<uint64_t, uint64_t> warm_sums, timed_sums;
  Tally first;
  for (size_t r = 0; r < kRepeats; ++r) {
    Rig rig = warm_rig(args, report, warm_sums, r == 0);
    setup_s.push_back(rig.setup_s);
    generate_s.push_back(rig.generate_s);
    dag_s.push_back(rig.dag_s);
    cacheflow_s.push_back(rig.cacheflow_s);
    Tally timed = run_epochs(rig, nullptr);
    const auto sums = checksums(rig);
    if (r == 0) {
      first = timed;
      timed_sums = sums;
    }
    report.check(sums == timed_sums && timed.fast_hits == first.fast_hits,
                 "traffic_cacheflow: repetitions reached different states");
    wall_s.push_back(timed.wall_s);
    op_us.push_back(std::move(timed.op_us));
  }
  const double packets = static_cast<double>(first.packets);

  if (!args.trace) {
    values["setup_s"] = median(setup_s);
    values["ops_per_s"] = packets / minimum(wall_s);
    values["op_p50_us"] = median(elementwise_min(op_us));
    return;
  }

  // A fresh rig traces exactly the timed epochs once more; its checksums
  // must match the untraced runs'.
  Rig rig = warm_rig(args, report, warm_sums, false);
  tcam::SoftTable counted(rig.fib->rules());  // a private copy counts probes
  Tracer tracer;
  Tally traced;
  double classify_ns = 0.0, tcam_ns = 0.0, soft_ns = 0.0;
  size_t probed = 0;
  while (traced.epochs < epochs) {
    epoch_once(rig, &tracer, traced, report);
    // Per-lookup cost of each stage, on a sample of this epoch's packets,
    // timed outside the epoch spans.
    std::vector<flowspace::Packet> pkts;
    for (size_t i = 0; i < kProbePackets; ++i) {
      pkts.push_back(rig.engine->packet_for(
          rig.engine->stream().at(rig.next_epoch - 1, i).flow_id));
    }
    const tcam::CacheFlowManager& mgr = *rig.manager;
    size_t sink = 0;
    double t0 = now_s();
    for (const auto& p : pkts) sink += mgr.classify(p).fast_path;
    double t1 = now_s();
    for (const auto& p : pkts) sink += mgr.tcam().lookup(p) != nullptr;
    double t2 = now_s();
    for (const auto& p : pkts) sink += mgr.soft_table().lookup(p) != nullptr;
    double t3 = now_s();
    for (const auto& p : pkts) sink += counted.lookup_counted(p) != nullptr;
    report.check(sink > 0, "traffic_cacheflow: probe packets matched nothing");
    classify_ns += (t1 - t0) * 1e9;
    tcam_ns += (t2 - t1) * 1e9;
    soft_ns += (t3 - t2) * 1e9;
    probed += pkts.size();
  }
  report.check(traced.violations == 0, "traffic_cacheflow: lookup_consistent violated");
  report.check(checksums(rig) == timed_sums,
               "traffic_cacheflow: traced run checksums differ from the untraced run");
  tracer.finish();

  const double plain_ops = packets / median(wall_s);
  const double traced_ops = packets / traced.wall_s;
  values["classbench.generate_s"] = median(generate_s);
  values["dag.build_min_dag_s"] = median(dag_s);
  values["tcam.cacheflow_init_s"] = median(cacheflow_s);
  values["switchsim.lookup_epoch_ms_p50"] = tracer.p50_us("switchsim.lookup_epoch") * 1e-3;
  values["tcam.classify_ns"] = classify_ns / static_cast<double>(probed);
  values["tcam.tcam_lookup_ns"] = tcam_ns / static_cast<double>(probed);
  values["tcam.soft_lookup_ns"] = soft_ns / static_cast<double>(probed);
  values["tcam.soft_probes_per_lookup"] = counted.stats().probes_per_lookup();
  values["tcam.rebalance_ms_p50"] = tracer.p50_us("tcam.rebalance") * 1e-3;
  const double n_epochs = static_cast<double>(epochs);
  values["tcam.rebalance_writes_per_epoch"] = static_cast<double>(traced.writes) / n_epochs;
  values["tcam.moves_per_update"] =
      static_cast<double>(traced.moves) / static_cast<double>(traced.swaps);
  values["tcam.swaps_per_epoch"] = static_cast<double>(traced.swaps) / n_epochs;
  values["tcam.hit_rate"] = static_cast<double>(first.fast_hits) / packets;
  values["trace.ops_per_s_untraced"] = plain_ops;
  values["trace.ops_per_s_traced"] = traced_ops;
  values["trace.overhead_share"] = 1.0 - traced_ops / plain_ops;
}

}  // namespace perfbench
