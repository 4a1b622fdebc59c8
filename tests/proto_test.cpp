// Wire codec round-trips and channel latency model.
#include <gtest/gtest.h>

#include "proto/channel.h"
#include "proto/codec.h"
#include "test_util.h"

namespace ruletris {
namespace {

using proto::Barrier;
using proto::DagUpdate;
using proto::decode_batch;
using proto::encode_batch;
using proto::FlowModAdd;
using proto::FlowModDelete;
using proto::FlowModModify;
using proto::Message;
using proto::MessageBatch;
using util::Rng;

TEST(Codec, EmptyBatch) {
  const MessageBatch batch;
  const auto decoded = decode_batch(encode_batch(batch));
  EXPECT_TRUE(decoded.empty());
}

TEST(Codec, RoundTripAllMessageTypes) {
  Rng rng(1);
  MessageBatch batch;
  batch.push_back(FlowModAdd{testutil::random_rule(rng, 42)});
  batch.push_back(FlowModDelete{777});
  batch.push_back(FlowModModify{testutil::random_rule(rng, -7)});
  dag::DagDelta delta;
  delta.removed_vertices = {1, 2};
  delta.removed_edges = {{3, 4}};
  delta.added_vertices = {5};
  delta.added_edges = {{5, 6}, {5, 7}};
  batch.push_back(DagUpdate{delta});
  batch.push_back(Barrier{});

  const auto decoded = decode_batch(encode_batch(batch));
  ASSERT_EQ(decoded.size(), batch.size());

  const auto& add = std::get<FlowModAdd>(decoded[0]);
  const auto& orig_add = std::get<FlowModAdd>(batch[0]);
  EXPECT_EQ(add.rule.id, orig_add.rule.id);
  EXPECT_EQ(add.rule.priority, orig_add.rule.priority);
  EXPECT_EQ(add.rule.match, orig_add.rule.match);
  EXPECT_EQ(add.rule.actions, orig_add.rule.actions);

  EXPECT_EQ(std::get<FlowModDelete>(decoded[1]).id, 777u);

  const auto& mod = std::get<FlowModModify>(decoded[2]);
  EXPECT_EQ(mod.rule.priority, -7);

  const auto& dag_update = std::get<DagUpdate>(decoded[3]);
  EXPECT_EQ(dag_update.delta.removed_vertices, delta.removed_vertices);
  EXPECT_EQ(dag_update.delta.removed_edges, delta.removed_edges);
  EXPECT_EQ(dag_update.delta.added_vertices, delta.added_vertices);
  EXPECT_EQ(dag_update.delta.added_edges, delta.added_edges);

  EXPECT_TRUE(std::holds_alternative<Barrier>(decoded[4]));
}

TEST(Codec, RandomRuleFuzzRoundTrip) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    MessageBatch batch;
    const int n = static_cast<int>(rng.next_below(6));
    for (int i = 0; i < n; ++i) {
      batch.push_back(FlowModAdd{testutil::random_rule(
          rng, static_cast<int32_t>(rng.next_below(1000)))});
    }
    const auto decoded = decode_batch(encode_batch(batch));
    ASSERT_EQ(decoded.size(), batch.size());
    for (int i = 0; i < n; ++i) {
      const auto& a = std::get<FlowModAdd>(batch[static_cast<size_t>(i)]).rule;
      const auto& b = std::get<FlowModAdd>(decoded[static_cast<size_t>(i)]).rule;
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.match, b.match);
      EXPECT_EQ(a.actions, b.actions);
      EXPECT_EQ(a.priority, b.priority);
    }
  }
}

TEST(Codec, VerifiedDecodeParsesWhatDecodeBatchParses) {
  // decode_verified_batch skips only the CRC pass: on a screened frame it
  // returns decode_batch's batch; a flipped bit is for checksum_ok (and
  // decode_batch) to catch, never for it.
  Rng rng(4);
  MessageBatch batch{FlowModAdd{testutil::random_rule(rng, 5)}, FlowModDelete{9},
                     Barrier{}};
  proto::Bytes bytes = encode_batch(batch);
  ASSERT_TRUE(proto::checksum_ok(bytes));
  const MessageBatch checked = decode_batch(bytes);
  const MessageBatch verified = proto::decode_verified_batch(bytes);
  ASSERT_EQ(verified.size(), checked.size());
  EXPECT_EQ(std::get<FlowModAdd>(verified[0]).rule.match,
            std::get<FlowModAdd>(checked[0]).rule.match);
  EXPECT_EQ(std::get<FlowModDelete>(verified[1]).id, 9u);
  EXPECT_TRUE(std::holds_alternative<Barrier>(verified[2]));
  bytes[bytes.size() / 2] ^= 0x10;
  EXPECT_FALSE(proto::checksum_ok(bytes));
  EXPECT_THROW(decode_batch(bytes), std::runtime_error);
  EXPECT_THROW(proto::decode_verified_batch(proto::Bytes{1, 2}), std::runtime_error);
}

TEST(Codec, TruncatedInputThrows) {
  Rng rng(3);
  MessageBatch batch{FlowModAdd{testutil::random_rule(rng, 1)}};
  auto bytes = encode_batch(batch);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_batch(bytes), std::runtime_error);
}

TEST(Codec, TrailingGarbageThrows) {
  auto bytes = encode_batch({});
  bytes.push_back(0xab);
  EXPECT_THROW(decode_batch(bytes), std::runtime_error);
}

TEST(Codec, UnknownTypeThrows) {
  proto::Bytes bytes = {1, 0, 0, 0, 0x7f};  // count=1, bogus type
  EXPECT_THROW(decode_batch(bytes), std::runtime_error);
}

TEST(ChannelModel, LatencyScalesWithSize) {
  proto::ChannelModel model;
  const double small = model.batch_latency_ms(1, 100);
  const double large = model.batch_latency_ms(100, 100000);
  EXPECT_GT(large, small);
  EXPECT_GE(small, model.per_batch_ms);
}

}  // namespace
}  // namespace ruletris
