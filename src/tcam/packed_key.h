// The 128-bit packed header key of the tuple-space index (tcam/tuple_space),
// which serves both the TCAM model's lookup and the software slow path.
//
// The 7 header fields are exactly 128 bits wide, so a packet or a ternary
// match packs into two 64-bit words: word 0 holds src_ip:dst_ip, word 1
// in_port:eth_type:ip_proto:src_port:dst_port. Masking every field to its
// width while packing makes a packet's junk bits above a width invisible, as
// in TernaryMatch::matches. A match packs to a (value, mask) pair; a tuple
// is a packed mask with packed masked values under it.
#pragma once

#include <array>
#include <cstdint>

#include "flowspace/ternary.h"

namespace ruletris::tcam {

using PackedKey = std::array<uint64_t, 2>;

inline PackedKey pack_fields(const std::array<uint32_t, flowspace::kNumFields>& f) {
  using flowspace::FieldId;
  auto w = [&f](FieldId id) -> uint64_t {
    return f[flowspace::field_index(id)] & flowspace::field_full_mask(id);
  };
  return {(w(FieldId::kSrcIp) << 32) | w(FieldId::kDstIp),
          (w(FieldId::kInPort) << 56) | (w(FieldId::kEthType) << 40) |
              (w(FieldId::kIpProto) << 32) | (w(FieldId::kSrcPort) << 16) |
              w(FieldId::kDstPort)};
}

/// A packed ternary match. Canonical TernaryMatch fields keep value bits
/// inside the mask, so `value & mask == value`.
struct PackedMatch {
  PackedKey value{};
  PackedKey mask{};
};

inline PackedMatch pack_match(const flowspace::TernaryMatch& m) {
  std::array<uint32_t, flowspace::kNumFields> values{}, masks{};
  for (flowspace::FieldId f : flowspace::kAllFields) {
    values[flowspace::field_index(f)] = m.field(f).value;
    masks[flowspace::field_index(f)] = m.field(f).mask;
  }
  return PackedMatch{pack_fields(values), pack_fields(masks)};
}

}  // namespace ruletris::tcam
