// Slow, straightforward reference implementations of the secp256k1
// arithmetic: schoolbook 256x256 products, bit-serial 512-step modular
// reduction, a two-fold Fp multiplication that re-multiplies the high half
// with a full 256x256 product, Fermat inversion by square-and-multiply over
// the bits of p-2, MSB-first double-and-add scalar multiplication, and the
// Schnorr keygen/sign/verify built on them. They depend only on u256's
// bit/shift/compare primitives and on the hasher, so the differential tests
// can hold the fast library routines against an independent oracle.
// Test-only; nothing in src/ uses them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "crypto/ecc.hpp"
#include "crypto/hash.hpp"
#include "crypto/u256.hpp"

namespace zendoo::crypto::ref {

inline bool add_with_carry(const u256& a, const u256& b, u256& out) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 s =
        static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  return carry != 0;
}

inline bool sub_with_borrow(const u256& a, const u256& b, u256& out) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 d =
        static_cast<unsigned __int128>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  return borrow != 0;
}

inline u256 add(const u256& a, const u256& b) {
  u256 r;
  add_with_carry(a, b, r);
  return r;
}

inline u256 sub(const u256& a, const u256& b) {
  u256 r;
  sub_with_borrow(a, b, r);
  return r;
}

/// Full 256x256 -> 512-bit product, returned as {high, low}.
inline std::pair<u256, u256> mul_wide(const u256& a, const u256& b) {
  std::uint64_t prod[8] = {};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
          prod[i + j] + carry;
      prod[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    prod[i + 4] = static_cast<std::uint64_t>(carry);
  }
  return {u256{prod[4], prod[5], prod[6], prod[7]},
          u256{prod[0], prod[1], prod[2], prod[3]}};
}

/// {hi, lo} mod m, one bit at a time: 512 shift + conditional-subtract steps.
inline u256 mod_wide(const u256& hi, const u256& lo, const u256& m) {
  if (m.is_zero()) throw std::invalid_argument("ref::mod_wide by zero");
  u256 rem;
  auto feed = [&](const u256& word) {
    for (int i = 255; i >= 0; --i) {
      bool top = rem.bit(255);
      rem = rem << 1;
      if (word.bit(static_cast<unsigned>(i))) rem.limb[0] |= 1;
      if (top || !(rem < m)) rem = sub(rem, m);
    }
  };
  feed(hi);
  feed(lo);
  return rem;
}

inline u256 mod(const u256& a, const u256& m) {
  return mod_wide(u256{}, a, m);
}

inline u256 mulmod(const u256& a, const u256& b, const u256& m) {
  auto [hi, lo] = mul_wide(a, b);
  return mod_wide(hi, lo, m);
}

/// (a + b) mod m; requires a, b < m.
inline u256 addmod(const u256& a, const u256& b, const u256& m) {
  u256 r;
  bool carry = add_with_carry(a, b, r);
  if (carry || !(r < m)) r = sub(r, m);
  return r;
}

/// (a - b) mod m; requires a, b < m.
inline u256 submod(const u256& a, const u256& b, const u256& m) {
  u256 r;
  if (sub_with_borrow(a, b, r)) r = add(r, m);
  return r;
}

/// a^e mod m by right-to-left square-and-multiply.
inline u256 powmod(const u256& a, const u256& e, const u256& m) {
  u256 result{1};
  u256 base = mod(a, m);
  int top = e.highest_bit();
  for (int i = 0; i <= top; ++i) {
    if (e.bit(static_cast<unsigned>(i))) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
  }
  return result;
}

// ---- GF(p) -----------------------------------------------------------------

inline const u256& P() { return secp256k1::kP; }
inline const u256& N() { return secp256k1::kN; }

inline u256 fadd(const u256& a, const u256& b) { return addmod(a, b, P()); }
inline u256 fsub(const u256& a, const u256& b) { return submod(a, b, P()); }

/// Field product with the special-form reduction: fold the high half by
/// 2^256 ≡ 2^32 + 977 using a full 256x256 product per round.
inline u256 fmul(const u256& a, const u256& b) {
  const u256 c{0x1000003D1ULL};
  auto [hi, lo] = mul_wide(a, b);
  while (!hi.is_zero()) {
    auto [h2, l2] = mul_wide(hi, c);
    u256 sum;
    bool carry = add_with_carry(lo, l2, sum);
    lo = sum;
    hi = h2;
    if (carry) hi = add(hi, u256{1});
  }
  while (!(lo < P())) lo = sub(lo, P());
  return lo;
}

/// a^(p-2) by square-and-multiply over every bit of p-2.
inline u256 finv(const u256& a) {
  if (a.is_zero()) throw std::invalid_argument("ref::finv of zero");
  u256 e = sub(P(), u256{2});
  u256 result{1};
  u256 base = a;
  int top = e.highest_bit();
  for (int i = 0; i <= top; ++i) {
    if (e.bit(static_cast<unsigned>(i))) result = fmul(result, base);
    base = fmul(base, base);
  }
  return result;
}

// ---- Jacobian points -------------------------------------------------------

struct Point {
  u256 X, Y, Z;  // Z == 0 is infinity; all coordinates reduced mod p
  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }
};

inline Point infinity() { return {u256{}, u256{1}, u256{}}; }

inline Point from_affine(const u256& x, const u256& y) {
  return {mod(x, P()), mod(y, P()), u256{1}};
}

inline Point generator() {
  return from_affine(secp256k1::kGx, secp256k1::kGy);
}

inline Point dbl(const Point& p) {
  if (p.is_infinity() || p.Y.is_zero()) return infinity();
  u256 a = fmul(p.X, p.X);
  u256 b = fmul(p.Y, p.Y);
  u256 c = fmul(b, b);
  u256 xb = fadd(p.X, b);
  u256 d = fsub(fsub(fmul(xb, xb), a), c);
  d = fadd(d, d);
  u256 e = fadd(fadd(a, a), a);
  u256 f = fmul(e, e);
  u256 x3 = fsub(f, fadd(d, d));
  u256 c8 = fadd(c, c);
  c8 = fadd(c8, c8);
  c8 = fadd(c8, c8);
  u256 y3 = fsub(fmul(e, fsub(d, x3)), c8);
  u256 z3 = fmul(p.Y, p.Z);
  z3 = fadd(z3, z3);
  return {x3, y3, z3};
}

inline Point add(const Point& p, const Point& o) {
  if (p.is_infinity()) return o;
  if (o.is_infinity()) return p;
  u256 z1z1 = fmul(p.Z, p.Z);
  u256 z2z2 = fmul(o.Z, o.Z);
  u256 u1 = fmul(p.X, z2z2);
  u256 u2 = fmul(o.X, z1z1);
  u256 s1 = fmul(fmul(p.Y, z2z2), o.Z);
  u256 s2 = fmul(fmul(o.Y, z1z1), p.Z);
  if (u1 == u2) {
    if (s1 == s2) return dbl(p);
    return infinity();
  }
  u256 h = fsub(u2, u1);
  u256 h2 = fadd(h, h);
  u256 i = fmul(h2, h2);
  u256 j = fmul(h, i);
  u256 r = fsub(s2, s1);
  r = fadd(r, r);
  u256 v = fmul(u1, i);
  u256 x3 = fsub(fsub(fmul(r, r), j), fadd(v, v));
  u256 s1j = fmul(s1, j);
  u256 y3 = fsub(fmul(r, fsub(v, x3)), fadd(s1j, s1j));
  u256 z3 = fmul(fmul(p.Z, o.Z), h);
  z3 = fadd(z3, z3);
  return {x3, y3, z3};
}

/// Double-and-add, MSB first, after reducing the scalar mod n.
inline Point mul(const Point& p, const u256& scalar) {
  u256 k = mod(scalar, N());
  Point result = infinity();
  for (int i = k.highest_bit(); i >= 0; --i) {
    result = dbl(result);
    if (k.bit(static_cast<unsigned>(i))) result = add(result, p);
  }
  return result;
}

inline std::pair<u256, u256> to_affine(const Point& p) {
  if (p.is_infinity()) throw std::invalid_argument("ref::to_affine");
  u256 zinv = finv(p.Z);
  u256 zinv2 = fmul(zinv, zinv);
  return {fmul(p.X, zinv2), fmul(fmul(p.Y, zinv2), zinv)};
}

/// y^2 == x^3 + 7 on the affine form, always inverting Z.
inline bool on_curve(const Point& p) {
  if (p.is_infinity()) return true;
  auto [x, y] = to_affine(p);
  return fmul(y, y) == fadd(fmul(fmul(x, x), x), u256{7});
}

inline bool equals(const Point& a, const Point& b) {
  if (a.is_infinity() || b.is_infinity()) {
    return a.is_infinity() == b.is_infinity();
  }
  u256 z1z1 = fmul(a.Z, a.Z);
  u256 z2z2 = fmul(b.Z, b.Z);
  if (!(fmul(a.X, z2z2) == fmul(b.X, z1z1))) return false;
  return fmul(fmul(a.Y, z2z2), b.Z) == fmul(fmul(b.Y, z1z1), a.Z);
}

// ---- Schnorr ---------------------------------------------------------------

inline u256 digest_to_scalar(const Digest& d) {
  u256 v = mod(d.as_u256(), N());
  if (v.is_zero()) v = u256{1};
  return v;
}

inline u256 challenge(const u256& rx, const u256& ry,
                      const std::pair<u256, u256>& pk, const Digest& msg) {
  return digest_to_scalar(Hasher(Domain::kSignature)
                              .write(rx)
                              .write(ry)
                              .write(pk.first)
                              .write(pk.second)
                              .write(msg)
                              .finalize());
}

struct Keys {
  u256 sk;
  std::pair<u256, u256> pk;
};

inline Keys keys_from_seed(const Digest& seed) {
  Keys k;
  k.sk = digest_to_scalar(
      Hasher(Domain::kSignatureNonce).write(seed).finalize());
  k.pk = to_affine(mul(generator(), k.sk));
  return k;
}

inline Signature sign(const Keys& keys, const Digest& msg) {
  u256 k = digest_to_scalar(
      Hasher(Domain::kSignatureNonce).write(keys.sk).write(msg).finalize());
  auto [rx, ry] = to_affine(mul(generator(), k));
  u256 e = challenge(rx, ry, keys.pk, msg);
  u256 s = addmod(k, mulmod(e, keys.sk, N()), N());
  return Signature{rx, ry, s};
}

/// s*G == R + e*P with every point built by from_affine and checked by the
/// inverting on_curve.
inline bool verify(const std::pair<u256, u256>& public_key, const Digest& msg,
                   const Signature& sig) {
  if (sig.s.is_zero() || !(sig.s < N())) return false;
  Point r = from_affine(sig.rx, sig.ry);
  Point p = from_affine(public_key.first, public_key.second);
  if (!on_curve(r) || !on_curve(p)) return false;
  u256 e = challenge(sig.rx, sig.ry, public_key, msg);
  return equals(mul(generator(), sig.s), add(r, mul(p, e)));
}

}  // namespace zendoo::crypto::ref
