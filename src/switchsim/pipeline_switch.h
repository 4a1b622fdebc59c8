// Multi-table pipeline switch — the paper's Sec. VIII extension.
//
// "If we have two TCAM tables in a pipeline, the dependencies between the
// two modules in a sequential composition can be decoupled by placing the
// first one in the first TCAM and the second module in the second TCAM."
//
// Each stage is an independent TCAM driven by its own DAG scheduler; a
// packet traverses the stages left to right, each stage's winning rule
// rewriting the header before the next stage matches (exactly the
// sequential-composition semantics of Sec. IV-A). A member-table update
// then touches only its own stage: no cross-product recompilation, no
// cross-module dependencies, member-sized flow tables.
#pragma once

#include <memory>
#include <vector>

#include "flowspace/action.h"
#include "proto/channel.h"
#include "proto/messages.h"
#include "switchsim/switch.h"
#include "tcam/dag_scheduler.h"
#include "tcam/tcam.h"
#include "util/thread_pool.h"

namespace ruletris::switchsim {

class MultiTableSwitch {
 public:
  /// One capacity per pipeline stage (matching the composition's members,
  /// left to right).
  explicit MultiTableSwitch(std::vector<size_t> stage_capacities,
                            proto::ChannelModel channel = {});

  tcam::Tcam& tcam(size_t stage) { return *stages_.at(stage).tcam; }
  const tcam::Tcam& tcam(size_t stage) const { return *stages_.at(stage).tcam; }
  tcam::DagScheduler& firmware(size_t stage) { return *stages_.at(stage).scheduler; }

  /// Applies a barrier-fenced update batch to one stage.
  UpdateMetrics deliver(size_t stage, const proto::MessageBatch& batch);

  /// Per-pipeline update report from deliver_all: metrics index-aligned
  /// with the stages, plus their deterministic stage-order sum and the
  /// modelled critical path (stages update concurrently in hardware, so the
  /// pipeline-wide latency is the slowest stage, not the sum).
  struct PipelineUpdateMetrics {
    std::vector<UpdateMetrics> stages;
    UpdateMetrics total;
    double critical_path_ms = 0.0;  // max over stages of channel_ms + tcam_ms
    bool ok = true;                 // every stage applied cleanly
  };

  /// Applies one update batch per stage (index-aligned; `batches` may be
  /// shorter than the stage count — missing stages are skipped). Stages are
  /// independent — each owns its TCAM and scheduler — so when
  /// set_apply_threads(n > 1) was called the per-stage applies run on a
  /// ThreadPool; results land in per-stage slots and are merged in stage
  /// order, so everything except the wall-clock firmware_ms diagnostic is
  /// bit-identical across thread counts.
  PipelineUpdateMetrics deliver_all(const std::vector<proto::MessageBatch>& batches);

  /// Worker count for deliver_all (1 = serial, the default). By default the
  /// count is clamped to the machine's core count (util::effective_workers):
  /// stage applies are CPU-bound, so oversubscription can only lose, and on
  /// a single-core host the pool path degenerates to the serial loop.
  /// Determinism tests pass clamp_to_hardware = false to force the pool and
  /// its interleavings regardless of the hardware.
  void set_apply_threads(size_t n, bool clamp_to_hardware = true);

  /// End-to-end pipeline decision: the packet flows through every stage,
  /// each stage's winner rewriting the header for the next; the returned
  /// action list merges the stages with sequential semantics. A stage miss
  /// contributes nothing (identity).
  flowspace::ActionList process(const flowspace::Packet& packet) const;

 private:
  struct Stage {
    std::unique_ptr<tcam::Tcam> tcam;
    std::unique_ptr<tcam::DagScheduler> scheduler;
  };

  UpdateMetrics apply_to_stage(Stage& stage, const proto::MessageBatch& batch);

  proto::ChannelModel channel_;
  std::vector<Stage> stages_;
  size_t apply_threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace ruletris::switchsim
