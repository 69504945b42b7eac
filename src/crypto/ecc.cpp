#include "crypto/ecc.hpp"

#include <array>
#include <stdexcept>

namespace zendoo::crypto {

namespace {
// p = 2^256 - kC, so 2^256 ≡ kC (mod p).
constexpr std::uint64_t kC = 0x1000003D1ULL;
using u128 = unsigned __int128;
}  // namespace

Fp Fp::add(const Fp& o) const {
  return Fp{u256::addmod(v, o.v, secp256k1::kP)};
}

Fp Fp::sub(const Fp& o) const {
  return Fp{u256::submod(v, o.v, secp256k1::kP)};
}

Fp Fp::neg() const {
  if (v.is_zero()) return *this;
  return Fp{secp256k1::kP - v};
}

Fp Fp::reduce(const u256& hi, const u256& lo) {
  // x = hi*2^256 + lo ≡ hi*kC + lo (mod p). The first fold leaves a fifth
  // word below 2^34; folding that in again leaves at most one carry out of
  // 2^256, worth one more kC, and then the value is below 2p.
  u256 r;
  u128 acc = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<u128>(hi.limb[i]) * kC + lo.limb[i];
    r.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  acc *= kC;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    acc += r.limb[i];
    r.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  if (acc != 0) u256::add_with_carry(r, u256{kC}, r);
  if (!(r < secp256k1::kP)) r = r - secp256k1::kP;
  return Fp{r};
}

Fp Fp::mul(const Fp& o) const {
  auto [hi, lo] = u256::mul_wide(v, o.v);
  return reduce(hi, lo);
}

Fp Fp::inv() const {
  if (is_zero()) throw std::invalid_argument("Fp::inv of zero");
  // From the top, p - 2 has runs of 1-bits of lengths 223, 22, 1, 2, 1. Build
  // x_k = v^(2^k - 1) for the run lengths, then splice the runs together.
  auto sqr_n = [](Fp a, int n) {
    for (int i = 0; i < n; ++i) a = a.sqr();
    return a;
  };
  const Fp& a = *this;
  Fp x2 = a.sqr().mul(a);
  Fp x3 = x2.sqr().mul(a);
  Fp x6 = sqr_n(x3, 3).mul(x3);
  Fp x9 = sqr_n(x6, 3).mul(x3);
  Fp x11 = sqr_n(x9, 2).mul(x2);
  Fp x22 = sqr_n(x11, 11).mul(x11);
  Fp x44 = sqr_n(x22, 22).mul(x22);
  Fp x88 = sqr_n(x44, 44).mul(x44);
  Fp x176 = sqr_n(x88, 88).mul(x88);
  Fp x220 = sqr_n(x176, 44).mul(x44);
  Fp x223 = sqr_n(x220, 3).mul(x3);
  Fp t = sqr_n(x223, 23).mul(x22);
  t = sqr_n(t, 5).mul(a);
  t = sqr_n(t, 3).mul(x2);
  return sqr_n(t, 2).mul(a);
}

ECPoint ECPoint::generator() {
  return from_affine(secp256k1::kGx, secp256k1::kGy);
}

ECPoint ECPoint::from_affine(const u256& x, const u256& y) {
  return {Fp::from(x), Fp::from(y), Fp::one()};
}

ECPoint ECPoint::dbl() const {
  if (is_infinity() || Y.is_zero()) return infinity();
  // Standard Jacobian doubling for a = 0 curves (secp256k1: y^2 = x^3 + 7).
  Fp a = X.sqr();                       // X^2
  Fp b = Y.sqr();                       // Y^2
  Fp c = b.sqr();                       // Y^4
  Fp d = X.add(b).sqr().sub(a).sub(c);  // 2*((X+B)^2 - A - C)
  d = d.add(d);
  Fp e = a.add(a).add(a);  // 3*X^2
  Fp f = e.sqr();          // E^2
  Fp x3 = f.sub(d.add(d));
  Fp c8 = c.add(c);
  c8 = c8.add(c8);
  c8 = c8.add(c8);
  Fp y3 = e.mul(d.sub(x3)).sub(c8);
  Fp z3 = Y.mul(Z);
  z3 = z3.add(z3);
  return {x3, y3, z3};
}

ECPoint ECPoint::add(const ECPoint& o) const {
  if (is_infinity()) return o;
  if (o.is_infinity()) return *this;
  // Jacobian addition.
  Fp z1z1 = Z.sqr();
  Fp z2z2 = o.Z.sqr();
  Fp u1 = X.mul(z2z2);
  Fp u2 = o.X.mul(z1z1);
  Fp s1 = Y.mul(z2z2).mul(o.Z);
  Fp s2 = o.Y.mul(z1z1).mul(Z);
  if (u1 == u2) {
    if (s1 == s2) return dbl();
    return infinity();
  }
  Fp h = u2.sub(u1);
  Fp i = h.add(h).sqr();
  Fp j = h.mul(i);
  Fp r = s2.sub(s1);
  r = r.add(r);
  Fp v = u1.mul(i);
  Fp x3 = r.sqr().sub(j).sub(v.add(v));
  Fp s1j = s1.mul(j);
  Fp y3 = r.mul(v.sub(x3)).sub(s1j.add(s1j));
  Fp z3 = Z.mul(o.Z).mul(h);
  z3 = z3.add(z3);
  return {x3, y3, z3};
}

ECPoint ECPoint::add_affine(const Fp& x, const Fp& y) const {
  if (is_infinity()) return {x, y, Fp::one()};
  // add() with Z2 = 1: U1 = X, S1 = Y.
  Fp z1z1 = Z.sqr();
  Fp u2 = x.mul(z1z1);
  Fp s2 = y.mul(z1z1).mul(Z);
  if (X == u2) {
    if (Y == s2) return dbl();
    return infinity();
  }
  Fp h = u2.sub(X);
  Fp i = h.add(h).sqr();
  Fp j = h.mul(i);
  Fp r = s2.sub(Y);
  r = r.add(r);
  Fp v = X.mul(i);
  Fp x3 = r.sqr().sub(j).sub(v.add(v));
  Fp s1j = Y.mul(j);
  Fp y3 = r.mul(v.sub(x3)).sub(s1j.add(s1j));
  Fp z3 = Z.mul(h);
  z3 = z3.add(z3);
  return {x3, y3, z3};
}

namespace {

constexpr int kDigits = 64;  // 4-bit digits of a 256-bit scalar

unsigned digit(const u256& k, int i) {
  return static_cast<unsigned>(k.limb[i / 16] >> (4 * (i % 16))) & 0xF;
}

/// entry[i][d - 1] = d * 16^i * G in affine form, for digits d in 1..15.
struct GeneratorTable {
  struct Affine {
    Fp x, y;
  };
  std::array<std::array<Affine, 15>, kDigits> entry;

  GeneratorTable() {
    ECPoint base = ECPoint::generator();  // 16^i * G for row i
    for (auto& row : entry) {
      // Normalize the row with one inversion (Montgomery's trick).
      std::array<ECPoint, 15> jac;
      std::array<Fp, 15> prefix;  // product of the Z's before each entry
      Fp acc = Fp::one();
      ECPoint m = base;
      for (std::size_t d = 0; d < 15; ++d) {
        jac[d] = m;
        prefix[d] = acc;
        acc = acc.mul(m.Z);
        m = m.add(base);
      }
      base = m;
      Fp inv = acc.inv();
      for (std::size_t d = 15; d-- > 0;) {
        Fp zinv = inv.mul(prefix[d]);
        inv = inv.mul(jac[d].Z);
        Fp zinv2 = zinv.sqr();
        row[d] = {jac[d].X.mul(zinv2), jac[d].Y.mul(zinv2).mul(zinv)};
      }
    }
  }
};

const GeneratorTable& generator_table() {
  static const GeneratorTable table;
  return table;
}

}  // namespace

ECPoint ECPoint::base_mul(const u256& scalar) {
  u256 k = scalar.mod(secp256k1::kN);
  const GeneratorTable& table = generator_table();
  ECPoint result = infinity();
  for (int i = 0; i < kDigits; ++i) {
    unsigned d = digit(k, i);
    if (d != 0) {
      const auto& e = table.entry[i][d - 1];
      result = result.add_affine(e.x, e.y);
    }
  }
  return result;
}

ECPoint ECPoint::mul(const u256& scalar) const {
  u256 k = scalar.mod(secp256k1::kN);
  std::array<ECPoint, 16> multiple;  // multiple[d] = d * this
  multiple[0] = infinity();
  for (int d = 1; d < 16; ++d) multiple[d] = multiple[d - 1].add(*this);
  ECPoint result = infinity();
  for (int i = kDigits - 1; i >= 0; --i) {
    result = result.dbl().dbl().dbl().dbl();
    unsigned d = digit(k, i);
    if (d != 0) result = result.add(multiple[d]);
  }
  return result;
}

std::pair<u256, u256> ECPoint::to_affine() const {
  if (is_infinity()) {
    throw std::invalid_argument("ECPoint::to_affine of infinity");
  }
  Fp zinv = Z.inv();
  Fp zinv2 = zinv.sqr();
  Fp x = X.mul(zinv2);
  Fp y = Y.mul(zinv2).mul(zinv);
  return {x.v, y.v};
}

bool ECPoint::on_curve() const {
  if (is_infinity()) return true;
  Fp x = X, y = Y;
  if (!(Z == Fp::one())) {
    auto [ax, ay] = to_affine();
    x = Fp{ax};
    y = Fp{ay};
  }
  return y.sqr() == x.sqr().mul(x).add(Fp{u256{7}});
}

bool ECPoint::equals(const ECPoint& o) const {
  if (is_infinity() || o.is_infinity()) {
    return is_infinity() == o.is_infinity();
  }
  // Cross-multiplied comparison avoids inversions:
  // X1/Z1^2 == X2/Z2^2 and Y1/Z1^3 == Y2/Z2^3.
  Fp z1z1 = Z.sqr();
  Fp z2z2 = o.Z.sqr();
  if (!(X.mul(z2z2) == o.X.mul(z1z1))) return false;
  return Y.mul(z2z2).mul(o.Z) == o.Y.mul(z1z1).mul(Z);
}

namespace {

u256 digest_to_scalar(const Digest& d) {
  u256 v = d.as_u256().mod(secp256k1::kN);
  if (v.is_zero()) v = u256{1};
  return v;
}

u256 challenge(const u256& rx, const u256& ry,
               const std::pair<u256, u256>& pk, const Digest& msg) {
  Digest e = Hasher(Domain::kSignature)
                 .write(rx)
                 .write(ry)
                 .write(pk.first)
                 .write(pk.second)
                 .write(msg)
                 .finalize();
  return digest_to_scalar(e);
}

}  // namespace

KeyPair KeyPair::from_seed(const Digest& seed) {
  KeyPair kp;
  Digest skd = Hasher(Domain::kSignatureNonce).write(seed).finalize();
  kp.sk_ = digest_to_scalar(skd);
  kp.pk_ = ECPoint::base_mul(kp.sk_).to_affine();
  return kp;
}

Digest KeyPair::address() const { return address_of(pk_); }

Digest address_of(const std::pair<u256, u256>& public_key) {
  return Hasher(Domain::kAddress)
      .write(public_key.first)
      .write(public_key.second)
      .finalize();
}

Signature KeyPair::sign(const Digest& msg) const {
  // Deterministic nonce: k = H(sk || msg), reduced into [1, n).
  Digest kd =
      Hasher(Domain::kSignatureNonce).write(sk_).write(msg).finalize();
  u256 k = digest_to_scalar(kd);
  auto [rx, ry] = ECPoint::base_mul(k).to_affine();
  u256 e = challenge(rx, ry, pk_, msg);
  u256 s = u256::addmod(k, u256::mulmod(e, sk_, secp256k1::kN),
                        secp256k1::kN);
  return Signature{rx, ry, s};
}

bool verify_signature(const std::pair<u256, u256>& public_key,
                      const Digest& msg, const Signature& sig) {
  if (sig.s.is_zero() || !(sig.s < secp256k1::kN)) return false;
  ECPoint r = ECPoint::from_affine(sig.rx, sig.ry);
  ECPoint p = ECPoint::from_affine(public_key.first, public_key.second);
  if (!r.on_curve() || !p.on_curve()) return false;
  u256 e = challenge(sig.rx, sig.ry, public_key, msg);
  // s*G == R + e*P, compared without inverting either side.
  ECPoint lhs = ECPoint::base_mul(sig.s);
  ECPoint rhs = r.add(p.mul(e));
  return lhs.equals(rhs);
}

}  // namespace zendoo::crypto
