#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace billcap::util {

/// 64-bit FNV-1a, the one hash behind every checksum and digest in the
/// repository: journal checksums, checkpoint and serve config digests, the
/// fleet CSV's lambda hash and the bench month digests. Cheap and stable;
/// an integrity check, not authentication.
///
/// Values are folded a byte at a time: mix_bytes in string order, mix_u64
/// least significant byte first. Doubles mix as their bit pattern and bools
/// as the u64 0 or 1, so a digest is a pure function of the exact values.
/// Changing any of this changes the on-disk journal checksums and every
/// pinned digest.
struct Fnv1a {
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t hash = kOffsetBasis;

  constexpr Fnv1a() noexcept = default;
  /// Continues from an earlier digest instead of the offset basis.
  explicit constexpr Fnv1a(std::uint64_t seed) noexcept : hash(seed) {}

  constexpr void mix_bytes(std::string_view data) noexcept {
    for (const char c : data) {
      hash ^= static_cast<unsigned char>(c);
      hash *= kPrime;
    }
  }
  constexpr void mix_u64(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= kPrime;
    }
  }
  constexpr void mix_double(double value) noexcept {
    mix_u64(std::bit_cast<std::uint64_t>(value));
  }
  constexpr void mix_bool(bool value) noexcept { mix_u64(value ? 1 : 0); }
};

}  // namespace billcap::util
