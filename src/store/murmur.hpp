// MurmurHash3 x64_128 — the hash behind Cassandra's default Murmur3
// partitioner, reimplemented from Austin Appleby's public-domain
// reference. Used for token assignment and bloom filters.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

namespace dcdb::store {

/// MurmurHash3's 64-bit finalizer: mixes every input bit into every
/// output bit.
inline std::uint64_t fmix64(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

/// 128-bit MurmurHash3 (x64 variant); returns (h1, h2).
std::pair<std::uint64_t, std::uint64_t> murmur3_x64_128(
    std::span<const std::uint8_t> data, std::uint32_t seed = 0);

/// Convenience 64-bit token (first half of the 128-bit hash), matching how
/// Cassandra derives Murmur3Partitioner tokens.
inline std::uint64_t murmur3_token(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) {
    return murmur3_x64_128(data, seed).first;
}

}  // namespace dcdb::store
