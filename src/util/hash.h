// Hash mixing for values derived from a *pair* of 64-bit inputs: per-switch
// and per-epoch RNG seeds, flow-stream draws, blob-chain folds. The obvious
// `h(a)*C + h(b)` combiner keeps the structure of grid-shaped inputs
// (consecutive switch indices, consecutive id blocks), so (a, b) and
// (a+1, b-C') come out related. The mixers here finalize each half through
// splitmix64 and fold a full 128-bit product, so grid structure in either
// coordinate is destroyed.
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
