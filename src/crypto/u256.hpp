// 256-bit unsigned integer arithmetic.
//
// Fixed-width big integer used throughout the cryptographic substrate:
// field elements, curve coordinates, hash digests interpreted as integers,
// and proof-of-work targets. Little-endian limb order (limb[0] is least
// significant).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>

namespace zendoo::crypto {

/// Fixed-width 256-bit unsigned integer with wrap-around semantics.
///
/// All arithmetic is modulo 2^256 unless the wide variants are used.
/// Comparison, shifting, bit access and hex (de)serialization are provided;
/// higher layers (Fp, Scalar) build modular arithmetic on top.
struct u256 {
  std::array<std::uint64_t, 4> limb{0, 0, 0, 0};

  constexpr u256() = default;
  constexpr explicit u256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr u256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                 std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  [[nodiscard]] constexpr bool is_zero() const {
    return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
  }

  [[nodiscard]] constexpr bool bit(unsigned i) const {
    return (limb[i / 64] >> (i % 64)) & 1;
  }

  /// Index of the highest set bit, or -1 for zero.
  [[nodiscard]] int highest_bit() const;

  /// Addition modulo 2^256; returns the carry out.
  static bool add_with_carry(const u256& a, const u256& b, u256& out) {
    unsigned __int128 carry = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      carry += static_cast<unsigned __int128>(a.limb[i]) + b.limb[i];
      out.limb[i] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    return carry != 0;
  }
  /// Subtraction modulo 2^256; returns true if a borrow occurred (a < b).
  static bool sub_with_borrow(const u256& a, const u256& b, u256& out) {
    std::uint64_t borrow = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 d =
          static_cast<unsigned __int128>(a.limb[i]) - b.limb[i] - borrow;
      out.limb[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
    return borrow != 0;
  }

  /// Full 256x256 -> 512-bit product, returned as {high, low}.
  static std::pair<u256, u256> mul_wide(const u256& a, const u256& b) {
    std::uint64_t prod[8] = {};
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      std::uint64_t carry = 0;
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        unsigned __int128 cur =
            static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
            prod[i + j] + carry;
        prod[i + j] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      prod[i + 4] = carry;
    }
    return {u256{prod[4], prod[5], prod[6], prod[7]},
            u256{prod[0], prod[1], prod[2], prod[3]}};
  }

  friend constexpr bool operator==(const u256&, const u256&) = default;
  [[nodiscard]] std::strong_ordering operator<=>(const u256& o) const {
    for (int i = 3; i >= 0; --i) {
      if (limb[i] != o.limb[i]) return limb[i] <=> o.limb[i];
    }
    return std::strong_ordering::equal;
  }

  u256 operator+(const u256& o) const {
    u256 r;
    add_with_carry(*this, o, r);
    return r;
  }
  u256 operator-(const u256& o) const {
    u256 r;
    sub_with_borrow(*this, o, r);
    return r;
  }

  [[nodiscard]] u256 operator<<(unsigned n) const;
  [[nodiscard]] u256 operator>>(unsigned n) const;
  [[nodiscard]] u256 operator&(const u256& o) const {
    return {limb[0] & o.limb[0], limb[1] & o.limb[1], limb[2] & o.limb[2],
            limb[3] & o.limb[3]};
  }
  [[nodiscard]] u256 operator|(const u256& o) const {
    return {limb[0] | o.limb[0], limb[1] | o.limb[1], limb[2] | o.limb[2],
            limb[3] | o.limb[3]};
  }
  [[nodiscard]] u256 operator^(const u256& o) const {
    return {limb[0] ^ o.limb[0], limb[1] ^ o.limb[1], limb[2] ^ o.limb[2],
            limb[3] ^ o.limb[3]};
  }

  /// Remainder of division by a non-zero modulus.
  [[nodiscard]] u256 mod(const u256& m) const {
    return mod_wide(u256{}, *this, m);
  }

  /// Reduce a 512-bit value {hi, lo} modulo m (m != 0) by word-level long
  /// division (Knuth's Algorithm D), keeping only the remainder.
  static u256 mod_wide(const u256& hi, const u256& lo, const u256& m);

  /// (a * b) mod m via the wide product.
  static u256 mulmod(const u256& a, const u256& b, const u256& m) {
    auto [hi, lo] = mul_wide(a, b);
    return mod_wide(hi, lo, m);
  }
  /// (a + b) mod m; requires a, b < m.
  static u256 addmod(const u256& a, const u256& b, const u256& m) {
    u256 r;
    bool carry = add_with_carry(a, b, r);
    if (carry || !(r < m)) sub_with_borrow(r, m, r);
    return r;
  }
  /// (a - b) mod m; requires a, b < m.
  static u256 submod(const u256& a, const u256& b, const u256& m) {
    u256 r;
    if (sub_with_borrow(a, b, r)) add_with_carry(r, m, r);
    return r;
  }

  /// Parse a big-endian hex string (with or without 0x prefix).
  static u256 from_hex(std::string_view hex);
  /// 64-character big-endian lowercase hex rendering.
  [[nodiscard]] std::string to_hex() const;

  /// Big-endian 32-byte serialization.
  [[nodiscard]] std::array<std::uint8_t, 32> to_bytes_be() const;
  static u256 from_bytes_be(const std::uint8_t* data);
};

}  // namespace zendoo::crypto
