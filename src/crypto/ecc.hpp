// Elliptic-curve group and Schnorr signatures over secp256k1 parameters.
//
// Implemented from scratch on top of u256: prime-field arithmetic with the
// fast reduction enabled by p = 2^256 - 2^32 - 977, Jacobian-coordinate
// point arithmetic, and a deterministic-nonce Schnorr signature scheme used
// to authorize UTXO spends in both the mainchain and the Latus sidechain.
// The techniques follow libsecp256k1 (github.com/bitcoin-core/secp256k1):
// word-level field reduction, an addition-chain inverse, windowed
// variable-base and table-driven fixed-base scalar multiplication.
#pragma once

#include <optional>

#include "crypto/hash.hpp"
#include "crypto/u256.hpp"

namespace zendoo::crypto {

namespace secp256k1 {
/// Field prime p = 2^256 - 2^32 - 977.
inline constexpr u256 kP{0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL};
/// Group order n.
inline constexpr u256 kN{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                         0xFFFFFFFFFFFFFFFEULL, ~0ULL};
/// Generator affine coordinates.
inline constexpr u256 kGx{0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                          0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL};
inline constexpr u256 kGy{0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                          0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL};
}  // namespace secp256k1

/// Arithmetic in GF(p) for the secp256k1 field prime.
///
/// Multiplication reduces the 512-bit product with the special form of p:
/// 2^256 ≡ 2^32 + 977, folded in with one 64-bit multiply per limb.
struct Fp {
  u256 v;

  /// Reduce any 256-bit value into the field (all are below 2p).
  static Fp from(const u256& x) {
    return Fp{x < secp256k1::kP ? x : x - secp256k1::kP};
  }
  /// Reduce any 512-bit value hi*2^256 + lo into the field.
  static Fp reduce(const u256& hi, const u256& lo);
  static Fp zero() { return Fp{u256{}}; }
  static Fp one() { return Fp{u256{1}}; }

  [[nodiscard]] bool is_zero() const { return v.is_zero(); }

  friend bool operator==(const Fp&, const Fp&) = default;

  [[nodiscard]] Fp add(const Fp& o) const;
  [[nodiscard]] Fp sub(const Fp& o) const;
  [[nodiscard]] Fp mul(const Fp& o) const;
  [[nodiscard]] Fp sqr() const { return mul(*this); }
  /// Multiplicative inverse via Fermat's little theorem: v^(p-2) along a
  /// fixed addition chain (255 squarings, 15 multiplications).
  [[nodiscard]] Fp inv() const;
  [[nodiscard]] Fp neg() const;
};

/// A point on secp256k1 in Jacobian coordinates (X/Z^2, Y/Z^3).
/// Z == 0 encodes the point at infinity.
struct ECPoint {
  Fp X, Y, Z;

  static ECPoint infinity() { return {Fp::zero(), Fp::one(), Fp::zero()}; }
  static ECPoint generator();
  /// Build from affine coordinates; does not check curve membership.
  static ECPoint from_affine(const u256& x, const u256& y);
  /// scalar * G from a precomputed table of affine multiples of G (built
  /// once, on first use, thread-safely): one mixed addition per non-zero
  /// 4-bit digit of the scalar and no doublings.
  static ECPoint base_mul(const u256& scalar);

  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }

  [[nodiscard]] ECPoint dbl() const;
  [[nodiscard]] ECPoint add(const ECPoint& o) const;
  /// Mixed addition of an affine point (x, y), i.e. one with Z == 1.
  [[nodiscard]] ECPoint add_affine(const Fp& x, const Fp& y) const;
  /// Scalar multiplication with a fixed 4-bit window: a table of the first
  /// 15 multiples, then four doublings and at most one addition per digit.
  [[nodiscard]] ECPoint mul(const u256& scalar) const;

  /// Convert to affine (x, y). Must not be infinity.
  [[nodiscard]] std::pair<u256, u256> to_affine() const;

  /// Check y^2 = x^3 + 7 for the affine form (infinity counts as on-curve).
  /// Points with Z == 1, as from_affine builds them, need no inversion.
  [[nodiscard]] bool on_curve() const;

  /// Equality as group elements (compares affine forms).
  [[nodiscard]] bool equals(const ECPoint& o) const;
};

/// Schnorr signature (R, s): R = k*G, s = k + e*x mod n,
/// e = H(R || P || m) mod n.
struct Signature {
  u256 rx, ry;  ///< affine coordinates of the nonce point R
  u256 s;       ///< response scalar

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// A keypair for the Schnorr scheme.
class KeyPair {
 public:
  /// Derive a keypair deterministically from a seed digest.
  static KeyPair from_seed(const Digest& seed);

  [[nodiscard]] const u256& secret() const { return sk_; }
  [[nodiscard]] const std::pair<u256, u256>& public_key() const { return pk_; }

  /// Address = domain-separated hash of the public key; used as the
  /// receiver identity in UTXOs on both chains.
  [[nodiscard]] Digest address() const;

  /// Sign a message digest with a deterministic (RFC6979-style) nonce.
  [[nodiscard]] Signature sign(const Digest& msg) const;

 private:
  u256 sk_;
  std::pair<u256, u256> pk_;
};

/// Verify a Schnorr signature against a public key and message digest.
[[nodiscard]] bool verify_signature(const std::pair<u256, u256>& public_key,
                                    const Digest& msg, const Signature& sig);

/// Address corresponding to a raw public key.
[[nodiscard]] Digest address_of(const std::pair<u256, u256>& public_key);

}  // namespace zendoo::crypto
