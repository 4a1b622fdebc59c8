// Frozen-artifact properties: freeze -> thaw is lossless, corrupt blobs
// never parse, epoch deltas replay to the live compiler's exact state, and
// the zero-copy restore path reproduces a cold install slot-for-slot.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/ruletris_compiler.h"
#include "frozen/delta.h"
#include "frozen/frozen.h"
#include "proto/codec.h"
#include "runtime/warm_boot.h"
#include "runtime/workload.h"
#include "tcam/dag_scheduler.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using frozen::Bytes;
using frozen::PolicyImage;
using tcam::DagScheduler;
using tcam::Tcam;
using util::Rng;

std::map<std::string, FlowTable> tables_for(const std::vector<Rule>& left,
                                            const std::vector<Rule>& right) {
  std::map<std::string, FlowTable> t;
  t.emplace("left", FlowTable{left});
  t.emplace("right", FlowTable{right});
  return t;
}

struct Compiled {
  std::vector<Rule> left;
  std::vector<Rule> right;
  PolicySpec spec = PolicySpec::leaf("left");
  compiler::RuleTrisCompiler frontend;

  Compiled(size_t n_left, size_t n_right, Rng& rng)
      : left(classbench::generate_monitor(n_left, rng)),
        right(classbench::generate_router(n_right, rng)),
        spec(PolicySpec::parallel(PolicySpec::leaf("left"),
                                  PolicySpec::leaf("right"))),
        frontend(spec, tables_for(left, right)) {}

  const compiler::ComposedNode& node() const {
    return dynamic_cast<const compiler::ComposedNode&>(frontend.root());
  }
};

/// Freezing a compiled policy and thawing the blob must reproduce the image
/// exactly (value equality) and its id-independent snapshot must equal a
/// from-scratch recompile of the same member tables — across random policy
/// sizes and seeds.
TEST(FrozenRoundtrip, FreezeThawIsLosslessAcrossRandomPolicies) {
  const struct {
    size_t left, right;
  } shapes[] = {{8, 4}, {40, 16}, {120, 32}};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& shape : shapes) {
      Rng rng(seed * 7919);
      Compiled c(shape.left, shape.right, rng);

      PolicyImage image = frozen::capture_policy(c.frontend, /*epoch=*/seed);
      const Bytes blob = frozen::freeze(image);
      const PolicyImage thawed = frozen::thaw(blob);

      EXPECT_EQ(thawed, image) << "seed " << seed << " left " << shape.left;
      EXPECT_EQ(thawed.epoch, seed);

      compiler::RuleTrisCompiler recompiled(c.spec,
                                            tables_for(c.left, c.right));
      const auto& renode =
          dynamic_cast<const compiler::ComposedNode&>(recompiled.root());
      EXPECT_TRUE(thawed.tables[0].snapshot() == renode.snapshot())
          << "seed " << seed << " left " << shape.left;

      // Deterministic serialization: re-freezing the thawed image is
      // bit-identical.
      EXPECT_EQ(frozen::freeze(thawed), blob);
    }
  }
}

/// The zero-copy restore path must reproduce a cold DAG-scheduled install
/// slot-for-slot and leave the scheduler with a constraint-valid layout.
TEST(FrozenRoundtrip, RestoreMatchesColdInstallSlotForSlot) {
  Rng rng(0xf0);
  Compiled c(80, 24, rng);
  const auto& node = c.node();

  const size_t capacity = node.visible_size() + node.visible_size() / 8 + 32;
  Tcam cold_tcam(capacity);
  DagScheduler cold(cold_tcam);
  ASSERT_TRUE(cold.apply(compiler::full_install<tcam::BackendUpdate>(node)));

  PolicyImage image = frozen::capture_policy(c.frontend, 1);
  frozen::capture_layout(image.tables[0], cold_tcam);
  const Bytes blob = frozen::freeze(image);

  Tcam warm_tcam(capacity);
  DagScheduler warm(warm_tcam);
  const frozen::FrozenPolicy fp(blob.data(), blob.size());
  EXPECT_EQ(fp.restore(0, warm), cold_tcam.occupied());
  EXPECT_TRUE(warm.layout_valid());

  for (size_t addr = 0; addr < capacity; ++addr) {
    ASSERT_EQ(cold_tcam.at(addr), warm_tcam.at(addr)) << "addr " << addr;
    if (const auto id = cold_tcam.at(addr)) {
      EXPECT_EQ(cold_tcam.rule(*id).match, warm_tcam.rule(*id).match);
      EXPECT_EQ(cold_tcam.rule(*id).priority, warm_tcam.rule(*id).priority);
    }
  }

  // The restored scheduler is update-ready: a follow-up insert through the
  // cached search must succeed and keep the layout valid.
  Rule extra = classbench::generate_monitor(1, rng).front();
  tcam::BackendUpdate update;
  update.added.push_back(extra);
  update.dag.added_vertices.push_back(extra.id);
  EXPECT_TRUE(warm.apply(update));
  EXPECT_TRUE(warm.layout_valid());
}

/// Corruption fuzz: every truncation of a frozen blob must throw, and any
/// single-bit flip must throw (the arena CRC32 detects all single-bit
/// errors, so the bit sweep is exhaustive over sampled bytes).
TEST(FrozenRoundtrip, TruncatedAndBitFlippedBlobsAlwaysThrow) {
  Rng rng(0xbad);
  Compiled c(30, 8, rng);
  PolicyImage image = frozen::capture_policy(c.frontend, 1);
  const Bytes blob = frozen::freeze(image);
  ASSERT_GT(blob.size(), 64u);

  for (size_t len = 0; len < blob.size(); ++len) {
    Bytes cut(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW(frozen::thaw(cut), std::runtime_error) << "len " << len;
  }

  // Every bit of a sampled byte stride; stride 1 near the header (magic,
  // version, section table) where a silent misparse would hurt the most.
  for (size_t i = 0; i < blob.size(); i += (i < 128 ? 1 : 17)) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes damaged = blob;
      damaged[i] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_THROW(frozen::thaw(damaged), std::runtime_error)
          << "byte " << i << " bit " << bit;
    }
  }
}

/// Delta blobs get the same treatment: truncations and bit flips throw.
TEST(FrozenRoundtrip, CorruptDeltaBlobsAlwaysThrow) {
  Rng rng(0xdead);
  Compiled c(30, 8, rng);
  runtime::EpochFreezer freezer;
  freezer.observe(1, c.frontend);
  const Rule fresh = classbench::generate_monitor(1, rng).front();
  c.frontend.remove("left", c.left.front().id);
  c.frontend.insert("left", fresh);
  freezer.observe(2, c.frontend);
  ASSERT_EQ(freezer.patch_frames().size(), 1u);

  const proto::MessageBatch batch =
      proto::decode_batch(freezer.patch_frames().front());
  const auto* patch = std::get_if<proto::SnapshotPatch>(&batch.front());
  ASSERT_NE(patch, nullptr);
  const Bytes& delta_blob = patch->blob;

  for (size_t len = 0; len < delta_blob.size(); ++len) {
    Bytes cut(delta_blob.begin(), delta_blob.begin() + static_cast<long>(len));
    EXPECT_THROW(frozen::decode_delta(cut), std::runtime_error) << "len " << len;
  }
  for (size_t i = 0; i < delta_blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes damaged = delta_blob;
      damaged[i] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_THROW(frozen::decode_delta(damaged), std::runtime_error)
          << "byte " << i << " bit " << bit;
    }
  }
}

/// Epoch-delta property, across random churn streams: diff(from, to)
/// encodes/decodes bit-identically, applies back to exactly `to`, and a
/// full replay from the base lands on the live compiler's final snapshot.
TEST(FrozenRoundtrip, DeltasReplayToTheLiveCompilerState) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    Rng rng(seed);
    Compiled c(50, 12, rng);

    runtime::EpochFreezer freezer;
    freezer.observe(1, c.frontend);
    PolicyImage rolling = frozen::thaw(freezer.base_blob());

    std::vector<RuleId> live;
    for (const Rule& r : c.left) live.push_back(r.id);
    for (uint64_t epoch = 2; epoch <= 5; ++epoch) {
      for (int k = 0; k < 6; ++k) {
        const size_t victim = static_cast<size_t>(rng.next_below(live.size()));
        c.frontend.remove("left", live[victim]);
        const Rule fresh = classbench::generate_monitor(1, rng).front();
        live[victim] = fresh.id;
        c.frontend.insert("left", fresh);
      }
      freezer.observe(epoch, c.frontend);

      // The freshest patch frame: decode, verify bit-identity, apply to the
      // rolling image; it must equal a direct capture of the live state.
      const proto::Bytes& frame = freezer.patch_frames().back();
      const proto::MessageBatch batch = proto::decode_batch(frame);
      ASSERT_EQ(proto::encode_batch(batch), frame);
      const auto* patch = std::get_if<proto::SnapshotPatch>(&batch.front());
      ASSERT_NE(patch, nullptr);
      const frozen::PolicyDelta delta = frozen::decode_delta(patch->blob);
      ASSERT_EQ(frozen::encode_delta(delta), patch->blob);

      frozen::apply_delta(rolling, delta);
      PolicyImage direct = frozen::capture_policy(c.frontend, epoch);
      // apply_delta clears stale layouts; direct captures carry none either.
      EXPECT_EQ(rolling, direct) << "seed " << seed << " epoch " << epoch;
    }

    runtime::ThawedController thawed(freezer.base_blob());
    for (const proto::Bytes& frame : freezer.patch_frames()) {
      thawed.apply_patch_frame(frame);
    }
    EXPECT_EQ(thawed.epoch(), 5u);
    EXPECT_TRUE(thawed.image().tables[0].snapshot() == c.node().snapshot())
        << "seed " << seed;
  }
}

/// End-to-end runtime integration: EpochFreezer hangs off
/// ChurnSpec::observer, a ThawedController replays every frame, and the
/// final image snapshot equals the live front-end after the whole stream.
TEST(FrozenRoundtrip, ObserverDrivenFreezerSurvivesChurnWorkload) {
  Rng rng(0x0b5);
  const std::vector<Rule> left = classbench::generate_monitor(40, rng);
  const std::vector<Rule> right = classbench::generate_router(12, rng);
  const PolicySpec spec =
      PolicySpec::parallel(PolicySpec::leaf("left"), PolicySpec::leaf("right"));

  runtime::EpochFreezer freezer;
  compiler::CompileSnapshot final_snapshot;
  runtime::ChurnSpec churn;
  churn.leaf = "left";
  churn.updates = 30;
  churn.seed = 0x0b5;
  churn.observer = [&](size_t epoch, compiler::RuleTrisCompiler& fe) {
    freezer.observe(epoch, fe);
    final_snapshot =
        dynamic_cast<const compiler::ComposedNode&>(fe.root()).snapshot();
  };
  runtime::compile_churn_workload(spec, tables_for(left, right), churn);

  ASSERT_TRUE(freezer.has_base());
  ASSERT_FALSE(freezer.patch_frames().empty());

  runtime::ThawedController thawed(freezer.base_blob());
  for (const proto::Bytes& frame : freezer.patch_frames()) {
    thawed.apply_patch_frame(frame);
  }
  EXPECT_TRUE(thawed.image().tables[0].snapshot() == final_snapshot);
}

}  // namespace
}  // namespace ruletris
