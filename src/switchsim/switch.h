// Simulated hardware switch: control channel + firmware + TCAM.
//
// Substitutes for the paper's ONetSwitch prototype (Sec. VI). A switch runs
// one of two firmwares: the RuleTris DAG back-end (DagScheduler) or the
// stock priority-based firmware (PriorityFirmware). Updates arrive as
// encoded protocol batches; the switch decodes and applies them, reporting
// the same latency decomposition the paper measures — channel time, firmware
// computation time (wall clock), and TCAM update time (entry writes x
// 0.6 ms).
#pragma once

#include <memory>
#include <optional>

#include "proto/channel.h"
#include "proto/codec.h"
#include "proto/messages.h"
#include "tcam/dag_scheduler.h"
#include "tcam/priority_firmware.h"
#include "tcam/tcam.h"

namespace ruletris::switchsim {

enum class FirmwareMode { kDag, kPriority };

struct UpdateMetrics {
  bool ok = true;  // status == kOk; kept for the many boolean call sites
  /// Structured firmware outcome: kTableFull is a capacity rejection that
  /// executed nothing; kRolledBack a malformed (cyclic) request, undone.
  tcam::ApplyStatus status = tcam::ApplyStatus::kOk;
  double channel_ms = 0.0;   // modelled transfer latency (actual encoded bytes)
  double firmware_ms = 0.0;  // measured schedule computation time
  double tcam_ms = 0.0;      // modelled: entry writes x 0.6 ms
  size_t entry_writes = 0;
  size_t moves = 0;
  size_t wire_bytes = 0;     // size of the encoded wire image (0 via apply())

  double total_ms() const { return channel_ms + firmware_ms + tcam_ms; }
};

class SimulatedSwitch {
 public:
  SimulatedSwitch(FirmwareMode mode, size_t tcam_capacity,
                  proto::ChannelModel channel = {});

  /// Encodes, "transfers", decodes and applies a batch; one barrier-fenced
  /// update transaction. Channel latency is charged from the actual encoded
  /// byte count of the batch.
  UpdateMetrics deliver(const proto::MessageBatch& batch);

  /// Applies an already-decoded batch to the firmware without charging any
  /// channel latency. The asynchronous runtime uses this: it owns the wire
  /// (encoding, faults, delivery timing) and hands the switch the decoded
  /// batch at delivery time.
  UpdateMetrics apply(const proto::MessageBatch& batch);

  FirmwareMode mode() const { return mode_; }
  tcam::Tcam& tcam() { return *tcam_; }
  const tcam::Tcam& tcam() const { return *tcam_; }

  tcam::DagScheduler& dag_firmware();
  const tcam::DagScheduler& dag_firmware() const;
  tcam::PriorityFirmware& priority_firmware();

 private:
  FirmwareMode mode_;
  proto::ChannelModel channel_;
  std::unique_ptr<tcam::Tcam> tcam_;
  std::unique_ptr<tcam::DagScheduler> dag_;
  std::unique_ptr<tcam::PriorityFirmware> priority_;
};

}  // namespace ruletris::switchsim
