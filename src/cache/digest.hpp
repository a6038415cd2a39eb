// Content-addressing primitives shared by device and cloud: FNV-1a over
// byte strings and the boost-style 64-bit fold for structured values. One
// definition instead of per-module copies — the movement digest must derive
// identically on both sides of the wire, or every suffix-upload prefix
// claim would be refused.
#pragma once

#include <cstdint>
#include <string_view>

namespace pmware::cache {

/// FNV offset basis: the seed of every digest, distinguishable from
/// "never folded anything" by construction.
inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ull;

/// FNV-1a over `s`, continuing from `h` (chain calls to digest multiple
/// fragments without concatenating).
inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = kDigestBasis) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Order-dependent accumulate of one 64-bit value into a running digest
/// (the classic hash_combine shape).
inline void fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

}  // namespace pmware::cache
