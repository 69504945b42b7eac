#include "crypto/u256.hpp"

#include <bit>
#include <stdexcept>

namespace zendoo::crypto {

int u256::highest_bit() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0) return i * 64 + (63 - std::countl_zero(limb[i]));
  }
  return -1;
}

u256 u256::operator<<(unsigned n) const {
  if (n >= 256) return {};
  u256 r;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 3; i >= 0; --i) {
    std::uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = limb[src] << bit_shift;
      if (bit_shift != 0 && src - 1 >= 0) {
        v |= limb[src - 1] >> (64 - bit_shift);
      }
    }
    r.limb[i] = v;
  }
  return r;
}

u256 u256::operator>>(unsigned n) const {
  if (n >= 256) return {};
  u256 r;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    unsigned src = i + limb_shift;
    if (src < 4) {
      v = limb[src] >> bit_shift;
      if (bit_shift != 0 && src + 1 < 4) {
        v |= limb[src + 1] << (64 - bit_shift);
      }
    }
    r.limb[i] = v;
  }
  return r;
}

u256 u256::mod_wide(const u256& hi, const u256& lo, const u256& m) {
  if (m.is_zero()) throw std::invalid_argument("u256::mod_wide by zero");
  using u128 = unsigned __int128;
  const std::uint64_t num[8] = {lo.limb[0], lo.limb[1], lo.limb[2],
                                lo.limb[3], hi.limb[0], hi.limb[1],
                                hi.limb[2], hi.limb[3]};
  int n = 4;  // significant limbs of the divisor
  while (m.limb[n - 1] == 0) --n;
  int len = 8;  // significant limbs of the dividend
  while (len > 0 && num[len - 1] == 0) --len;
  if (len < n) return lo;  // dividend < 2^(64(n-1)) <= m

  // Normalize so the divisor's top bit is set; the quotient digit estimate
  // from the top two dividend words is then at most two too large.
  const int s = std::countl_zero(m.limb[n - 1]);
  auto shl = [s](std::uint64_t cur, std::uint64_t below) {
    return s == 0 ? cur : (cur << s) | (below >> (64 - s));
  };
  std::uint64_t v[4];
  for (int i = n - 1; i > 0; --i) v[i] = shl(m.limb[i], m.limb[i - 1]);
  v[0] = m.limb[0] << s;
  std::uint64_t u[9];
  u[len] = shl(0, num[len - 1]);
  for (int i = len - 1; i > 0; --i) u[i] = shl(num[i], num[i - 1]);
  u[0] = num[0] << s;

  for (int j = len - n; j >= 0; --j) {
    const u128 top = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = top / v[n - 1];
    u128 rhat = top - qhat * v[n - 1];
    while ((qhat >> 64) != 0 ||
           (n > 1 && qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2]))) {
      --qhat;
      rhat += v[n - 1];
      if ((rhat >> 64) != 0) break;
    }
    // u[j..j+n] -= qhat * v
    const auto q = static_cast<std::uint64_t>(qhat);
    std::uint64_t mul_carry = 0, borrow = 0;
    for (int i = 0; i < n; ++i) {
      const u128 p = static_cast<u128>(q) * v[i] + mul_carry;
      mul_carry = static_cast<std::uint64_t>(p >> 64);
      const u128 d = static_cast<u128>(u[i + j]) -
                     static_cast<std::uint64_t>(p) - borrow;
      u[i + j] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
    const u128 d = static_cast<u128>(u[j + n]) - mul_carry - borrow;
    u[j + n] = static_cast<std::uint64_t>(d);
    if (((d >> 64) & 1) != 0) {
      // qhat was one too large: add the divisor back once.
      std::uint64_t carry = 0;
      for (int i = 0; i < n; ++i) {
        const u128 t = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<std::uint64_t>(t);
        carry = static_cast<std::uint64_t>(t >> 64);
      }
      u[j + n] += carry;
    }
  }

  // The remainder sits in u[0..n-1], still shifted left by s.
  u256 r;
  for (int i = 0; i < n; ++i) {
    r.limb[i] = s == 0 ? u[i] : (u[i] >> s) | (u[i + 1] << (64 - s));
  }
  return r;
}

namespace {
int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("u256::from_hex: bad hex digit");
}
}  // namespace

u256 u256::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty() || hex.size() > 64) {
    throw std::invalid_argument("u256::from_hex: bad length");
  }
  u256 r;
  for (char c : hex) {
    r = r << 4;
    r.limb[0] |= static_cast<std::uint64_t>(hex_digit(c));
  }
  return r;
}

std::string u256::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s(64, '0');
  for (int i = 0; i < 64; ++i) {
    unsigned nibble_index = static_cast<unsigned>(63 - i) * 4;
    std::uint64_t nib = (limb[nibble_index / 64] >> (nibble_index % 64)) & 0xF;
    s[static_cast<std::size_t>(i)] = digits[nib];
  }
  return s;
}

std::array<std::uint8_t, 32> u256::to_bytes_be() const {
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 32; ++i) {
    unsigned bit_index = static_cast<unsigned>(31 - i) * 8;
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(limb[bit_index / 64] >> (bit_index % 64));
  }
  return out;
}

u256 u256::from_bytes_be(const std::uint8_t* data) {
  u256 r;
  for (int i = 0; i < 32; ++i) {
    unsigned bit_index = static_cast<unsigned>(31 - i) * 8;
    r.limb[bit_index / 64] |= static_cast<std::uint64_t>(data[i])
                              << (bit_index % 64);
  }
  return r;
}

}  // namespace zendoo::crypto
