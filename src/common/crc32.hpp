// crc32.hpp — CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used to frame every checkpoint file (header + payload + CRC trailer) so
// torn writes, truncation, and bit rot are *detected* at recovery time
// instead of surfacing as garbage state or deserialization UB. The tables are
// computed at compile time; the function is pure and identical across ranks
// and restarts, which the recovery protocol requires (every survivor must
// agree on which files are valid). The update is slice-by-8; the
// bytewise update it replaced is kept as its reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ftmr {

namespace detail {

/// Slice-by-8 tables: kCrc32Tables[0] is the classic bytewise table, and
/// kCrc32Tables[k][i] is the CRC state after byte i followed by k zero
/// bytes, so eight table lookups advance the state by eight bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> make_crc32_tables() noexcept {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

/// Little-endian 32-bit word at `p` (a byte-order-independent load).
constexpr uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// The bytewise update, one table lookup per byte: the reference the
/// slice-by-8 update must match bit for bit, and its tail loop.
[[nodiscard]] constexpr uint32_t crc32_update_bytewise(
    uint32_t state, std::span<const std::byte> data) noexcept {
  for (std::byte b : data) {
    state = kCrc32Tables[0][(state ^ static_cast<uint8_t>(b)) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace detail

/// Incremental update: feed `crc32_update(seed, chunk)` chunk by chunk with
/// seed = previous return value (start from crc32_init()).
[[nodiscard]] constexpr uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

/// Slice-by-8: eight bytes per step through the eight tables, then the
/// bytewise update for the tail.
[[nodiscard]] constexpr uint32_t crc32_update(uint32_t state,
                                              std::span<const std::byte> data) noexcept {
  const auto& t = detail::kCrc32Tables;
  const std::byte* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ detail::load_le32(p);
    const uint32_t hi = detail::load_le32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  return detail::crc32_update_bytewise(state, std::span<const std::byte>(p, n));
}

[[nodiscard]] constexpr uint32_t crc32_final(uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte span.
[[nodiscard]] constexpr uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data));
}

[[nodiscard]] inline uint32_t crc32(std::string_view s) noexcept {
  return crc32(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size()));
}

}  // namespace ftmr
