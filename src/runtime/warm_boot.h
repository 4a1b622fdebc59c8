// Controller warm-boot lifecycle: freeze() after compile, thaw() on
// restart, delta apply per epoch.
//
// Two halves, designed to sit on opposite sides of a restart (or of a
// controller/standby pair):
//
//  * EpochFreezer runs next to the live compiler (hooked into
//    ChurnSpec::observer). The first epoch it sees becomes the full frozen
//    base snapshot and starts the root's churn recording; every later
//    epoch is sealed from what the compiler recorded (frozen::seal_recorded,
//    the same delta source the sharded fleet uses) and shipped as a binary
//    patch wrapped in a proto::SnapshotPatch message inside a CRC32-framed
//    codec batch — the same framing every other control message uses, so
//    patches ride the existing channel.
//
//  * ThawedController is the restarted side: it maps (or adopts) the base
//    blob, restores a DagScheduler straight from the frozen sections —
//    update-ready without recompiling — and replays patch frames to roll
//    its image forward one epoch at a time. After replay,
//    image().tables[t].snapshot() must equal a fresh compile's snapshot;
//    the frozen tests and bench/warm_boot assert exactly that.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "frozen/delta.h"
#include "frozen/frozen.h"
#include "proto/codec.h"

namespace ruletris::runtime {

/// Captures a frozen base snapshot plus one encoded patch frame per
/// subsequent epoch. Deterministic: the same epoch stream produces
/// bit-identical blobs and frames.
class EpochFreezer {
 public:
  /// Observe the live front-end after `epoch` was compiled. Epochs must be
  /// observed in increasing order, always on the same front-end. Matches
  /// ChurnSpec::observer's signature.
  void observe(uint64_t epoch, compiler::RuleTrisCompiler& frontend);

  bool has_base() const { return !base_blob_.empty(); }
  /// Full frozen snapshot of the first observed epoch.
  const frozen::Bytes& base_blob() const { return base_blob_; }
  /// One CRC32-framed codec batch per epoch after the base, in order; each
  /// carries a single proto::SnapshotPatch.
  const std::vector<proto::Bytes>& patch_frames() const { return patch_frames_; }

 private:
  uint64_t last_epoch_ = 0;
  frozen::Bytes base_blob_;
  std::vector<proto::Bytes> patch_frames_;
};

/// The restart side: thaws a base snapshot and replays patch frames.
class ThawedController {
 public:
  /// Adopts an in-memory base blob.
  explicit ThawedController(frozen::Bytes base_blob);
  /// Maps a blob file (the ruletris_sim --freeze artifact).
  explicit ThawedController(const std::string& path);

  uint64_t epoch() const { return image_ ? image_->epoch : frozen_.epoch(); }
  size_t n_tables() const { return frozen_.n_tables(); }

  /// Restores `scheduler` (fresh, empty TCAM) to the *base* snapshot's
  /// frozen layout of table `t`: DAG loaded, entries written at their
  /// frozen addresses, caches rebuilt. Returns entries written. This is the
  /// warm-boot critical path — it reads the blob sections zero-copy and
  /// never materializes the value-typed image.
  size_t restore_scheduler(size_t t, tcam::DagScheduler& scheduler) const;

  /// Decodes one CRC32-framed patch batch and rolls the image forward.
  /// Throws on corruption, on a frame without a SnapshotPatch, or on an
  /// epoch-chain mismatch. Returns the new epoch.
  uint64_t apply_patch_frame(const proto::Bytes& frame);

  /// Materialized image at the current epoch (lazy: first call pays the
  /// materialization; apply_patch_frame forces it too).
  const frozen::PolicyImage& image() const;

 private:
  frozen::PolicyImage& mutable_image();

  frozen::Bytes owned_;                       // one of owned_/mapped_ holds the blob
  std::optional<frozen::MappedBlob> mapped_;
  frozen::FrozenPolicy frozen_;
  mutable std::optional<frozen::PolicyImage> image_;
};

}  // namespace ruletris::runtime
