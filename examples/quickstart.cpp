// Quickstart: the paper's Figure 2, end to end.
//
// Five ternary rules sit in a six-slot TCAM with one free slot at the
// bottom. Rule 6 ("0*0") must be inserted between Rule 1 and Rule 2.
//  * Priority-based firmware preserves every relative position implied by
//    the integer priorities and moves FOUR entries.
//  * The RuleTris DAG scheduler knows Rule 6 is independent of Rules 3 and 4
//    and moves only TWO.
#include <cstdio>
#include <map>

#include "dag/builder.h"
#include "flowspace/rule.h"
#include "tcam/dag_scheduler.h"
#include "tcam/priority_firmware.h"

using namespace ruletris;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::TernaryMatch;

namespace {

// Three-bit patterns from Fig. 2, embedded in the top bits of dst_ip.
Rule pattern_rule(const char* bits, int priority) {
  TernaryMatch m;
  uint32_t value = 0, mask = 0;
  for (int i = 0; i < 3; ++i) {
    if (bits[i] != '*') {
      mask |= 1u << (2 - i);
      if (bits[i] == '1') value |= 1u << (2 - i);
    }
  }
  m.set_ternary(FieldId::kDstIp, value << 29, mask << 29);
  return Rule::make(m, ActionList{Action::forward(static_cast<uint32_t>(priority))},
                    priority);
}

void dump(const char* title, const tcam::Tcam& tcam,
          const std::map<flowspace::RuleId, const char*>& names) {
  std::printf("%s\n", title);
  for (size_t a = tcam.capacity(); a-- > 0;) {
    if (auto id = tcam.at(a)) {
      std::printf("  [%zu] rule %-3s prio=%d\n", a, names.at(*id),
                  tcam.rule(*id).priority);
    } else {
      std::printf("  [%zu] (free)\n", a);
    }
  }
}

}  // namespace

int main() {
  // The member table of Fig. 2(a), priorities included.
  Rule r1 = pattern_rule("00*", 20);
  Rule r2 = pattern_rule("**0", 15);
  Rule r3 = pattern_rule("0*1", 15);
  Rule r4 = pattern_rule("**1", 10);
  Rule r5 = pattern_rule("***", 5);
  Rule r6 = pattern_rule("0*0", 17);  // to be inserted between 1 and 2

  std::map<flowspace::RuleId, const char*> names{
      {r1.id, "1"}, {r2.id, "2"}, {r3.id, "3"}, {r4.id, "4"}, {r5.id, "5"}, {r6.id, "6"},
  };

  std::printf("== RuleTris quickstart: the Fig. 2 insert ==\n\n");

  // --- Priority-based firmware: four moves (Fig. 2(b)).
  {
    // The paper's starting layout: rules 1..5 from the top, the only free
    // slot at the very bottom.
    tcam::Tcam tcam(6);
    tcam.write(5, r1);
    tcam.write(4, r2);
    tcam.write(3, r3);
    tcam.write(2, r4);
    tcam.write(1, r5);
    tcam::PriorityFirmware firmware(tcam);
    dump("priority firmware, before insert:", tcam, names);
    const auto before = tcam.stats();
    firmware.insert(r6);
    std::printf("priority firmware inserted rule 6 with %zu entry moves (Fig. 2(b))\n\n",
                tcam.stats().moves - before.moves);
    dump("priority firmware, after insert:", tcam, names);
  }

  // --- DAG scheduler: two moves.
  {
    // Build the minimum DAG of the final six-rule table, then install the
    // first five rules and replay the insert.
    FlowTable table{std::vector<Rule>{r1, r2, r3, r4, r5, r6}};
    const auto graph = dag::build_min_dag(table);

    tcam::Tcam tcam(6);
    tcam::DagScheduler scheduler(tcam);
    // Same initial layout as the hardware: 1..5 from the top.
    tcam.write(5, r1);
    tcam.write(4, r2);
    tcam.write(3, r3);
    tcam.write(2, r4);
    tcam.write(1, r5);
    scheduler.load(graph);

    std::printf("\nminimum DAG of the six rules:\n");
    for (const auto& [u, v] : graph.edges()) {
      std::printf("  %s -> %s   (%s must be matched first)\n", names.at(u),
                  names.at(v), names.at(v));
    }

    dump("\nDAG scheduler, before insert:", tcam, names);
    scheduler.insert(r6);
    std::printf("DAG scheduler inserted rule 6 with %zu entry moves (Fig. 2(c))\n\n",
                scheduler.last_chain_moves());
    dump("DAG scheduler, after insert:", tcam, names);
  }

  std::printf(
      "\nSame semantics, half the TCAM writes. That asymmetry is the paper's\n"
      "whole point, and it grows to ~20x on real tables and update streams\n"
      "(see bench/fig9_parallel and bench/fig10_sequential).\n");
  return 0;
}
