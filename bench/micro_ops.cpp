// Microbenchmarks (google-benchmark) for the primitive operations every
// figure rests on: flow-space algebra, incremental minimum-DAG maintenance,
// Algorithm-1 scheduling, and the wire codec.
#include <benchmark/benchmark.h>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "dag/min_dag_maintainer.h"
#include "proto/codec.h"
#include "switchsim/adapters.h"
#include "tcam/dag_scheduler.h"
#include "util/rng.h"

namespace {

using namespace ruletris;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::TernaryMatch;

std::vector<Rule> router_rules(size_t n) {
  util::Rng rng(42);
  return classbench::generate_router(n, rng);
}

void BM_TernaryOverlap(benchmark::State& state) {
  const auto rules = router_rules(256);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto& a = rules[rng.next_below(rules.size())];
    const auto& b = rules[rng.next_below(rules.size())];
    benchmark::DoNotOptimize(a.match.overlaps(b.match));
  }
}
BENCHMARK(BM_TernaryOverlap);

void BM_TernaryIntersect(benchmark::State& state) {
  const auto rules = router_rules(256);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto& a = rules[rng.next_below(rules.size())];
    const auto& b = rules[rng.next_below(rules.size())];
    benchmark::DoNotOptimize(a.match.intersect(b.match));
  }
}
BENCHMARK(BM_TernaryIntersect);

void BM_TernarySubtract(benchmark::State& state) {
  const auto rules = router_rules(256);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto& a = rules[rng.next_below(rules.size())];
    const auto& b = rules[rng.next_below(rules.size())];
    benchmark::DoNotOptimize(a.match.subtract(b.match));
  }
}
BENCHMARK(BM_TernarySubtract);

void BM_MinDagBulkLoad(benchmark::State& state) {
  const auto rules = router_rules(static_cast<size_t>(state.range(0)));
  const FlowTable table{rules};
  std::vector<std::pair<flowspace::RuleId, TernaryMatch>> ordered;
  for (const Rule& r : table.rules()) ordered.emplace_back(r.id, r.match);
  for (auto _ : state) {
    dag::MinDagMaintainer dag;
    dag.bulk_load(ordered);
    benchmark::DoNotOptimize(dag.graph().edge_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinDagBulkLoad)->Range(64, 2048)->Complexity();

void BM_MinDagIncrementalInsert(benchmark::State& state) {
  const auto rules = router_rules(static_cast<size_t>(state.range(0)));
  const FlowTable table{rules};
  std::vector<std::pair<flowspace::RuleId, TernaryMatch>> ordered;
  for (const Rule& r : table.rules()) ordered.emplace_back(r.id, r.match);
  dag::MinDagMaintainer dag;
  dag.bulk_load(ordered);
  util::Rng rng(7);
  for (auto _ : state) {
    // Insert a fresh nested prefix, then remove it again.
    TernaryMatch m;
    m.set_prefix(flowspace::FieldId::kDstIp, rng.next_u32(), 24);
    const auto id = flowspace::next_rule_id();
    dag.insert(id, m, [](flowspace::RuleId) { return true; });
    dag.remove(id);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinDagIncrementalInsert)->Range(64, 2048)->Complexity();

void BM_SchedulerInsert(benchmark::State& state) {
  const auto rules = router_rules(230);
  const FlowTable table{rules};
  const auto graph = dag::build_min_dag(table);
  tcam::Tcam tcam(256);
  tcam::DagScheduler scheduler(tcam);
  scheduler.load(graph);
  for (flowspace::RuleId id : graph.topo_order_high_to_low()) {
    scheduler.insert(table.rule(id));
  }
  util::Rng rng(3);
  for (auto _ : state) {
    const Rule& victim = table.rules()[rng.next_below(table.size())];
    if (!tcam.contains(victim.id)) continue;
    // Evict keeps the vertex and its edges; re-insert through Algorithm 1.
    scheduler.evict(victim.id);
    scheduler.insert(victim);
  }
}
BENCHMARK(BM_SchedulerInsert);

void BM_CodecRoundTrip(benchmark::State& state) {
  const auto rules = router_rules(64);
  compiler::PrioritizedUpdate update;
  for (const Rule& r : rules) update.push_back(compiler::PrioritizedOp::add(r));
  const auto batch = switchsim::to_messages(update);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_batch(proto::encode_batch(batch)));
  }
}
BENCHMARK(BM_CodecRoundTrip);

}  // namespace

BENCHMARK_MAIN();
