// Crash-recovery soak (registered as the `recovery_soak_smoke` ctest):
//
// Part A drives a firmware crash at EVERY injection point of a randomized
// churn workload, one full replay per point. After each torn transaction the
// journal recovery must leave the device auditor-clean, and the finished
// replay must land on a TCAM bit-identical to the never-crashed reference —
// rollback followed by a deterministic re-apply and roll-forward both
// converge to the same layout, so packet-level semantics are preserved
// through any crash.
//
// Part B runs the full asynchronous fleet under crash + corruption chaos
// (FaultSpec::crashy-style) and requires convergence plus a bit-identical
// report across runs and thread counts — crash scheduling, NACK
// retransmits and recovery timing are all deterministic virtual time.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "compiler/policy_spec.h"
#include "flowspace/rule.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/workload.h"
#include "switchsim/switch.h"
#include "tcam/apply_journal.h"
#include "tcam/auditor.h"
#include "test_util.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using runtime::ChurnSpec;
using runtime::CompiledWorkload;
using runtime::compile_churn_workload;
using runtime::Controller;
using runtime::FaultSpec;
using runtime::RuntimeConfig;
using runtime::RuntimeReport;
using testutil::expect_reports_identical;
using switchsim::FirmwareMode;
using switchsim::SimulatedSwitch;
using tcam::ApplyJournal;
using tcam::AuditReport;
using tcam::audit_state;
using tcam::CrashError;
using tcam::DagScheduler;
using util::Rng;

CompiledWorkload small_churn(uint64_t seed, size_t updates) {
  Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(12, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(10, rng)});
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = updates;
  churn.seed = seed * 1000 + 17;
  return compile_churn_workload(spec, tables, churn);
}

TEST(RecoverySoak, CrashAtEveryInjectionPointRecoversBitIdentical) {
  const CompiledWorkload wl = small_churn(29, 15);
  const size_t capacity = wl.suggested_capacity();

  // Reference run: journal attached, hook counts every injection point but
  // never fires. The layout it produces is the crash-free ground truth.
  SimulatedSwitch ref(FirmwareMode::kDag, capacity);
  ApplyJournal ref_journal;
  ref.dag_firmware().set_journal(&ref_journal);
  size_t total_points = 0;
  ref.dag_firmware().set_crash_hook([&total_points] {
    ++total_points;
    return false;
  });
  for (const proto::MessageBatch& batch : wl.epochs) {
    ASSERT_TRUE(ref.apply(batch).ok);
  }
  const std::string ref_layout = ref.tcam().to_string();
  ASSERT_GT(total_points, wl.epochs.size());  // at least one op per epoch

  std::vector<Packet> probes;
  Rng packet_rng(91);
  for (int i = 0; i < 64; ++i) probes.push_back(testutil::random_packet(packet_rng));

  size_t rollbacks = 0;
  size_t roll_forwards = 0;
  for (size_t k = 1; k <= total_points; ++k) {
    SimulatedSwitch sw(FirmwareMode::kDag, capacity);
    ApplyJournal journal;
    DagScheduler& dag = sw.dag_firmware();
    dag.set_journal(&journal);
    size_t calls = 0;
    dag.set_crash_hook([&calls, k] { return ++calls == k; });

    size_t crashes = 0;
    for (size_t e = 0; e < wl.epochs.size();) {
      try {
        ASSERT_TRUE(sw.apply(wl.epochs[e]).ok) << "point " << k << " epoch " << e;
      } catch (const CrashError&) {
        ++crashes;
        const DagScheduler::RecoveryResult r = dag.recover();
        const AuditReport audit = audit_state(sw.tcam(), dag.graph());
        ASSERT_TRUE(audit.clean())
            << "point " << k << " epoch " << e << "\n" << audit.to_string();
        ASSERT_TRUE(dag.layout_valid()) << "point " << k;
        ASSERT_TRUE(testutil::caps_exact(dag, sw.tcam())) << "point " << k;
        if (r.outcome == DagScheduler::RecoveryResult::Outcome::kRolledForward) {
          ++roll_forwards;
          ++e;  // the sealed transaction committed: the epoch is applied
        } else {
          ++rollbacks;  // pre-epoch state restored: re-apply the same epoch
        }
        continue;
      }
      ++e;
    }
    ASSERT_EQ(crashes, 1u) << "point " << k;  // the hook fires exactly once

    // The recovered-and-replayed device is bit-identical to the reference,
    // so every packet classifies identically.
    ASSERT_EQ(sw.tcam().to_string(), ref_layout) << "point " << k;
    const AuditReport final_audit =
        audit_state(sw.tcam(), dag.graph(), wl.final_rules);
    ASSERT_TRUE(final_audit.clean()) << "point " << k << "\n"
                                     << final_audit.to_string();
    for (const Packet& p : probes) {
      const Rule* a = ref.tcam().lookup(p);
      const Rule* b = sw.tcam().lookup(p);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(a->id, b->id);
      }
    }
  }
  // Both recovery modes were actually exercised: torn chains rolled back,
  // seal->commit gaps rolled forward (one gap per epoch).
  EXPECT_GT(rollbacks, 0u);
  EXPECT_EQ(roll_forwards, wl.epochs.size());
}

RuntimeReport run_crashy(const CompiledWorkload& wl, uint64_t fault_seed,
                         size_t threads) {
  RuntimeConfig cfg;
  cfg.n_switches = 6;
  cfg.knobs.window = 4;
  cfg.n_threads = threads;
  cfg.knobs.faults = FaultSpec::crashy();
  cfg.fault_seed = fault_seed;
  Controller controller(cfg);
  return controller.run(wl.epochs, wl.final_rules);
}

TEST(RecoverySoak, CrashyFleetConvergesAndIsBitIdenticalAcrossThreads) {
  const CompiledWorkload wl = small_churn(31, 40);
  const RuntimeReport serial = run_crashy(wl, 11, 1);

  EXPECT_TRUE(serial.all_converged);
  EXPECT_EQ(serial.apply_failures, 0u);
  // The crash and corruption machinery actually fired somewhere in the
  // fleet, and convergence survived it.
  EXPECT_GT(serial.crashes, 0u);
  EXPECT_GT(serial.nacks, 0u);
  EXPECT_GT(serial.nack_retransmits, 0u);
  EXPECT_GT(serial.recovered_writes + serial.roll_forwards, 0u);

  for (size_t threads : {2ul, 6ul}) {
    expect_reports_identical(serial, run_crashy(wl, 11, threads));
  }
  expect_reports_identical(serial, run_crashy(wl, 11, 6));  // fresh run, same threads
}

}  // namespace
}  // namespace ruletris
