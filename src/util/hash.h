// Hash mixing for composite hash-map keys.
//
// Hot maps that key on a *pair* of 64-bit rule ids (the update builder's
// edge ledger) need a pair hash. The obvious `h(a)*C + h(b)` combiner
// collides badly on the structured id grids these maps actually see —
// consecutive id blocks from
// the monotonic rule-id source make (a, b) and (a+1, b-C') land in the same
// slot family. The mixers here finalize each half through splitmix64 and
// fold a full 128-bit product, so grid structure in either coordinate is
// destroyed before the table reduces the hash modulo its bucket count.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ruletris::util {

/// splitmix64 finalizer: bijective avalanche over 64 bits.
inline uint64_t mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-sensitive pair hash: mixes both halves, then folds their 128-bit
/// product so every output bit depends on every input bit of both ids.
/// (`| 1` keeps the multiplier odd and in particular non-zero, so no value
/// of `b` can collapse the product.)
inline size_t hash_pair(uint64_t a, uint64_t b) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(mix64(a) ^ 0x9e3779b97f4a7c15ULL) *
      static_cast<unsigned __int128>(mix64(b) | 1);
  return static_cast<size_t>(static_cast<uint64_t>(product) ^
                             static_cast<uint64_t>(product >> 64));
}

}  // namespace ruletris::util
