#include "proto/codec.h"

#include <cstring>
#include <stdexcept>

#include "util/crc32.h"

namespace ruletris::proto {

using dag::DagDelta;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::ActionType;
using flowspace::FieldId;
using flowspace::kAllFields;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;

namespace {

enum class MsgType : uint8_t {
  kAdd = 1,
  kDelete = 2,
  kModify = 3,
  kDagUpdate = 4,
  kBarrier = 5,
  kSnapshotPatch = 6,
};

class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v) { raw(&v, 2); }
  void u32(uint32_t v) { raw(&v, 4); }
  void u64(uint64_t v) { raw(&v, 8); }
  void i32(int32_t v) { raw(&v, 4); }

  void match(const TernaryMatch& m) {
    for (FieldId f : kAllFields) {
      u32(m.field(f).value);
      u32(m.field(f).mask);
    }
  }

  void actions(const ActionList& list) {
    u16(static_cast<uint16_t>(list.size()));
    for (const Action& a : list.actions()) {
      u8(static_cast<uint8_t>(a.type));
      u8(static_cast<uint8_t>(a.field));
      u32(a.arg);
    }
  }

  void rule(const Rule& r) {
    u64(r.id);
    i32(r.priority);
    match(r.match);
    actions(r.actions);
  }

  /// Length-prefixed opaque byte string (frozen-layer blobs).
  void bytes(const Bytes& b) {
    u32(static_cast<uint32_t>(b.size()));
    if (!b.empty()) raw(b.data(), b.size());
  }

  void delta(const DagDelta& d) {
    u32(static_cast<uint32_t>(d.removed_vertices.size()));
    for (RuleId v : d.removed_vertices) u64(v);
    u32(static_cast<uint32_t>(d.removed_edges.size()));
    for (const auto& [a, b] : d.removed_edges) {
      u64(a);
      u64(b);
    }
    u32(static_cast<uint32_t>(d.added_vertices.size()));
    for (RuleId v : d.added_vertices) u64(v);
    u32(static_cast<uint32_t>(d.added_edges.size()));
    for (const auto& [a, b] : d.added_edges) {
      u64(a);
      u64(b);
    }
  }

 private:
  void raw(const void* p, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(p);
    out_.insert(out_.end(), bytes, bytes + n);  // host is little-endian
  }

  Bytes& out_;
};

class Reader {
 public:
  /// Parses `in[0, limit)`; the bytes past `limit` are the CRC trailer.
  Reader(const Bytes& in, size_t limit) : in_(in), limit_(limit) {}

  bool done() const { return pos_ == limit_; }

  uint8_t u8() { return in_.at(require(1)); }
  uint16_t u16() { return read<uint16_t>(); }
  uint32_t u32() { return read<uint32_t>(); }
  uint64_t u64() { return read<uint64_t>(); }
  int32_t i32() { return read<int32_t>(); }

  TernaryMatch match() {
    TernaryMatch m;
    for (FieldId f : kAllFields) {
      const uint32_t value = u32();
      const uint32_t mask = u32();
      m.set_ternary(f, value, mask);
    }
    return m;
  }

  ActionList actions() {
    const uint16_t n = u16();
    // Lists are short: decode into a stack buffer, into a heap one only
    // when the list would not fit inline in the ActionList either.
    Action inline_buf[ActionList::kInline];
    std::vector<Action> heap_buf(n > ActionList::kInline ? n : 0);
    Action* list = n > ActionList::kInline ? heap_buf.data() : inline_buf;
    for (uint16_t i = 0; i < n; ++i) {
      list[i].type = static_cast<ActionType>(u8());
      list[i].field = static_cast<FieldId>(u8());
      list[i].arg = u32();
    }
    return ActionList(std::span<const Action>(list, n));
  }

  Rule rule() {
    Rule r;
    r.id = u64();
    r.priority = i32();
    r.match = match();
    r.actions = actions();
    return r;
  }

  Bytes bytes() {
    const uint32_t n = u32();
    const size_t at = require(n);
    return Bytes(in_.begin() + static_cast<ptrdiff_t>(at),
                 in_.begin() + static_cast<ptrdiff_t>(at + n));
  }

  DagDelta delta() {
    DagDelta d;
    for (uint32_t i = 0, n = u32(); i < n; ++i) d.removed_vertices.push_back(u64());
    for (uint32_t i = 0, n = u32(); i < n; ++i) {
      const RuleId a = u64();
      const RuleId b = u64();
      d.removed_edges.emplace_back(a, b);
    }
    for (uint32_t i = 0, n = u32(); i < n; ++i) d.added_vertices.push_back(u64());
    for (uint32_t i = 0, n = u32(); i < n; ++i) {
      const RuleId a = u64();
      const RuleId b = u64();
      d.added_edges.emplace_back(a, b);
    }
    return d;
  }

 private:
  template <typename T>
  T read() {
    T v;
    std::memcpy(&v, in_.data() + require(sizeof(T)), sizeof(T));
    return v;
  }

  size_t require(size_t n) {
    if (pos_ + n > limit_) throw std::runtime_error("codec: truncated message");
    const size_t at = pos_;
    pos_ += n;
    return at;
  }

  const Bytes& in_;
  size_t limit_;
  size_t pos_ = 0;
};

}  // namespace

uint32_t crc32(const uint8_t* data, size_t len) {
  // Shared sliced-table implementation (util/crc32.h) — same polynomial and
  // values as the byte-at-a-time loop this codec originally carried, but
  // fast enough for the multi-MB frozen snapshots that reuse this framing.
  return util::crc32(data, len);
}

bool checksum_ok(const Bytes& bytes) {
  if (bytes.size() < 4) return false;
  const size_t body = bytes.size() - 4;
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + body, 4);
  return stored == crc32(bytes.data(), body);
}

Bytes encode_batch(const MessageBatch& batch) {
  Bytes out;
  Writer w(out);
  w.u32(static_cast<uint32_t>(batch.size()));
  for (const Message& msg : batch) {
    std::visit(
        [&w](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, FlowModAdd>) {
            w.u8(static_cast<uint8_t>(MsgType::kAdd));
            w.rule(m.rule);
          } else if constexpr (std::is_same_v<T, FlowModDelete>) {
            w.u8(static_cast<uint8_t>(MsgType::kDelete));
            w.u64(m.id);
          } else if constexpr (std::is_same_v<T, FlowModModify>) {
            w.u8(static_cast<uint8_t>(MsgType::kModify));
            w.rule(m.rule);
          } else if constexpr (std::is_same_v<T, DagUpdate>) {
            w.u8(static_cast<uint8_t>(MsgType::kDagUpdate));
            w.delta(m.delta);
          } else if constexpr (std::is_same_v<T, SnapshotPatch>) {
            w.u8(static_cast<uint8_t>(MsgType::kSnapshotPatch));
            w.u64(m.epoch);
            w.bytes(m.blob);
          } else {
            w.u8(static_cast<uint8_t>(MsgType::kBarrier));
          }
        },
        msg);
  }
  const uint32_t crc = crc32(out.data(), out.size());
  Writer(out).u32(crc);
  return out;
}

MessageBatch decode_batch(const Bytes& bytes) {
  // Verify the frame before parsing a single field: a flipped bit anywhere
  // (body or trailer) fails here instead of reaching the message decoders.
  if (!checksum_ok(bytes)) throw std::runtime_error("codec: checksum mismatch");
  return decode_verified_batch(bytes);
}

MessageBatch decode_verified_batch(const Bytes& bytes) {
  if (bytes.size() < 4) throw std::runtime_error("codec: truncated frame");
  Reader r(bytes, bytes.size() - 4);
  MessageBatch batch;
  const uint32_t count = r.u32();
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    switch (static_cast<MsgType>(r.u8())) {
      case MsgType::kAdd:
        batch.push_back(FlowModAdd{r.rule()});
        break;
      case MsgType::kDelete:
        batch.push_back(FlowModDelete{r.u64()});
        break;
      case MsgType::kModify:
        batch.push_back(FlowModModify{r.rule()});
        break;
      case MsgType::kDagUpdate:
        batch.push_back(DagUpdate{r.delta()});
        break;
      case MsgType::kBarrier:
        batch.push_back(Barrier{});
        break;
      case MsgType::kSnapshotPatch: {
        SnapshotPatch p;
        p.epoch = r.u64();
        p.blob = r.bytes();
        batch.push_back(std::move(p));
        break;
      }
      default:
        throw std::runtime_error("codec: unknown message type");
    }
  }
  if (!r.done()) throw std::runtime_error("codec: trailing bytes");
  return batch;
}

}  // namespace ruletris::proto
