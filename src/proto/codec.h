// Binary wire codec for control messages.
//
// Little-endian, length-prefixed encoding so channel latency can be modeled
// from real byte counts and so the protocol layer is actually exercised
// end-to-end (serialize -> byte stream -> parse) rather than passed by
// reference. Format (all integers little-endian):
//   batch   := u32 count, count * message
//   message := u8 type, payload
//   rule    := u64 id, i32 priority, match, actions
//   match   := 7 * (u32 value, u32 mask)
//   actions := u16 count, count * (u8 type, u8 field, u32 arg)
//   delta   := 4 length-prefixed sections (vertices/edges removed/added)
//   patch   := u64 epoch, u32 len, len opaque bytes (frozen epoch delta)
//
// Every encoded batch carries a trailing u32 CRC32 over the body, verified
// before any parsing: a corrupted frame (CRC32 detects all single-bit and
// single-byte errors) fails fast with "codec: checksum mismatch" instead of
// being decoded into garbage rules.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/messages.h"

namespace ruletris::proto {

using Bytes = std::vector<uint8_t>;

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
uint32_t crc32(const uint8_t* data, size_t len);

/// Whether `bytes` ends in a valid CRC32 trailer for its body. Cheap
/// pre-parse validation for receivers that want to NACK corrupted frames
/// without paying for (or throwing from) a full decode.
bool checksum_ok(const Bytes& bytes);

Bytes encode_batch(const MessageBatch& batch);

/// Throws std::runtime_error on malformed input; the CRC trailer is
/// verified before the body is parsed.
MessageBatch decode_batch(const Bytes& bytes);

/// decode_batch for a frame whose trailer already passed checksum_ok (a
/// receiver that screened it on arrival): parses the body without a second
/// CRC pass. Still throws std::runtime_error on a malformed body.
MessageBatch decode_verified_batch(const Bytes& bytes);

}  // namespace ruletris::proto
