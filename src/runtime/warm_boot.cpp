#include "runtime/warm_boot.h"

#include <stdexcept>
#include <utility>

namespace ruletris::runtime {

void EpochFreezer::observe(uint64_t epoch, compiler::RuleTrisCompiler& frontend) {
  if (!has_base()) {
    base_blob_ = frozen::freeze(frozen::capture_policy(frontend, epoch));
    frozen::start_recording(frontend);
  } else {
    proto::SnapshotPatch patch;
    patch.epoch = epoch;
    patch.blob =
        frozen::encode_delta(frozen::seal_recorded(frontend, last_epoch_, epoch));
    proto::MessageBatch batch;
    batch.push_back(std::move(patch));
    patch_frames_.push_back(proto::encode_batch(batch));
  }
  last_epoch_ = epoch;
}

ThawedController::ThawedController(frozen::Bytes base_blob)
    : owned_(std::move(base_blob)), frozen_(owned_.data(), owned_.size()) {}

ThawedController::ThawedController(const std::string& path)
    : mapped_(std::in_place, path),
      frozen_(mapped_->data(), mapped_->size()) {}

size_t ThawedController::restore_scheduler(size_t t,
                                           tcam::DagScheduler& scheduler) const {
  return frozen_.restore(t, scheduler);
}

const frozen::PolicyImage& ThawedController::image() const {
  if (!image_) {
    frozen::PolicyImage image;
    image.epoch = frozen_.epoch();
    image.tables.reserve(frozen_.n_tables());
    for (size_t t = 0; t < frozen_.n_tables(); ++t) {
      image.tables.push_back(frozen_.materialize(t));
    }
    flowspace::ensure_rule_id_floor(frozen_.id_floor());
    image_ = std::move(image);
  }
  return *image_;
}

frozen::PolicyImage& ThawedController::mutable_image() {
  image();  // force materialization
  return *image_;
}

uint64_t ThawedController::apply_patch_frame(const proto::Bytes& frame) {
  const proto::MessageBatch batch = proto::decode_batch(frame);
  const proto::SnapshotPatch* patch = nullptr;
  for (const proto::Message& msg : batch) {
    if (const auto* p = std::get_if<proto::SnapshotPatch>(&msg)) {
      if (patch != nullptr) {
        throw std::runtime_error("warm boot: frame carries multiple patches");
      }
      patch = p;
    }
  }
  if (patch == nullptr) {
    throw std::runtime_error("warm boot: frame carries no snapshot patch");
  }
  const frozen::PolicyDelta delta = frozen::decode_delta(patch->blob);
  if (delta.to_epoch != patch->epoch) {
    throw std::runtime_error("warm boot: patch epoch disagrees with its blob");
  }
  frozen::apply_delta(mutable_image(), delta);
  return image_->epoch;
}

}  // namespace ruletris::runtime
