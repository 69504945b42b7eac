// Differential tests: the fast secp256k1 arithmetic in src/crypto against the
// slow reference routines in ecc_reference.hpp. Every comparison is exact —
// field elements, affine points, signatures and verdicts must be
// byte-identical, since signatures feed block hashes and state fingerprints.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "crypto/ecc.hpp"
#include "crypto/rng.hpp"
#include "ecc_reference.hpp"

namespace zendoo::crypto {
namespace {

using secp256k1::kN;
using secp256k1::kP;

const u256 kAllOnes{~0ULL, ~0ULL, ~0ULL, ~0ULL};

/// Interesting 64-bit limbs: carries, borrows and normalization shifts all
/// hinge on words at these extremes.
std::uint64_t palette_limb(Rng& rng) {
  static constexpr std::uint64_t kPalette[] = {
      0, 1, 2, 0x7FFFFFFFFFFFFFFFULL, 0x8000000000000000ULL,
      0x8000000000000001ULL, 0xFFFFFFFFFFFFFFFEULL, ~0ULL};
  if (rng.chance(1, 3)) return rng.next_u64();
  return kPalette[rng.next_below(8)];
}

u256 palette_u256(Rng& rng) {
  return {palette_limb(rng), palette_limb(rng), palette_limb(rng),
          palette_limb(rng)};
}

/// Field elements at the edges of [0, p): the fold's carries happen on
/// products of values near p and near 2^256.
std::vector<u256> field_edges() {
  return {u256{},
          u256{1},
          u256{2},
          u256{0x1000003D1ULL},
          kP - u256{1},
          kP - u256{2},
          kP - u256{0x1000003D1ULL},
          u256{0, 0, 0, 0x8000000000000000ULL},
          u256{~0ULL, ~0ULL, ~0ULL, 0x7FFFFFFFFFFFFFFFULL},
          u256{0xFFFFFFFEFFFFFC2EULL, ~0ULL, ~0ULL, ~0ULL},
          u256{~0ULL, ~0ULL, ~0ULL, 0}};
}

/// Scalars at the edges of the group order and of the 4-bit digit split.
std::vector<u256> scalar_edges() {
  return {u256{},
          u256{1},
          u256{2},
          u256{15},
          u256{16},
          u256{17},
          kN - u256{1},
          kN,
          kN + u256{1},
          kN + u256{15},
          kAllOnes,
          u256{0x1111111111111111ULL, 0x1111111111111111ULL,
               0x1111111111111111ULL, 0x1111111111111111ULL},
          u256{0, 0, 0, 0xF000000000000000ULL},
          u256{0xFFFFFFFFFFFFFFFFULL, 0, 0, 0},
          u256{0x8000000000000000ULL, 0x8000000000000000ULL,
               0x8000000000000000ULL, 0x8000000000000000ULL}};
}

/// Same group element, compared on the canonical affine form.
void expect_same_point(const ECPoint& got, const ref::Point& want) {
  ASSERT_EQ(got.is_infinity(), want.is_infinity());
  if (want.is_infinity()) return;
  EXPECT_EQ(got.to_affine(), ref::to_affine(want));
}

ref::Point to_ref(const ECPoint& p) { return {p.X.v, p.Y.v, p.Z.v}; }

TEST(CryptoDifferential, CurveConstantsMatchTheirHexSpelling) {
  EXPECT_EQ(kP, u256::from_hex("fffffffffffffffffffffffffffffffffffffffffffff"
                               "ffffffffffefffffc2f"));
  EXPECT_EQ(kN, u256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a"
                               "03bbfd25e8cd0364141"));
  EXPECT_EQ(secp256k1::kGx,
            u256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d9"
                           "59f2815b16f81798"));
  EXPECT_EQ(secp256k1::kGy,
            u256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a6855419"
                           "9c47d08ffb10d4b8"));
}

TEST(CryptoDifferential, ModWideMatchesBitSerialOnPaletteInputs) {
  // Limbs from the palette reach Algorithm D's rare branches: a quotient
  // estimate of 2^64, estimate corrections and the final add-back.
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    u256 hi = palette_u256(rng), lo = palette_u256(rng);
    u256 m = palette_u256(rng);
    for (int top = 3; top > static_cast<int>(rng.next_below(4)); --top) {
      m.limb[static_cast<std::size_t>(top)] = 0;
    }
    if (m.is_zero()) m = u256{3};
    ASSERT_EQ(u256::mod_wide(hi, lo, m), ref::mod_wide(hi, lo, m))
        << "hi=" << hi.to_hex() << " lo=" << lo.to_hex()
        << " m=" << m.to_hex();
  }
}

TEST(CryptoDifferential, ModWideAddBackCase) {
  // The 64-bit-digit form of the Hacker's Delight vector whose first
  // quotient digit overshoots by one after the two-word correction.
  u256 lo{0, 0, 0x8000000000000000ULL, 0x7FFFFFFFFFFFFFFFULL};
  u256 m{1, 0, 0x8000000000000000ULL, 0};
  EXPECT_EQ(u256::mod_wide(u256{}, lo, m), ref::mod_wide(u256{}, lo, m));
  EXPECT_THROW((void)u256::mod_wide(u256{1}, u256{1}, u256{}),
               std::invalid_argument);
}

TEST(CryptoDifferential, MulmodMatchesReference) {
  Rng rng(102);
  std::vector<u256> moduli = {kP, kN, u256{1}, u256{2}, u256{0, 1, 0, 0},
                              kAllOnes};
  for (int i = 0; i < 24; ++i) {
    u256 m = rng.next_u256();
    m.limb[0] |= 1;  // random odd modulus
    for (int top = 3; top > i % 4; --top) {
      m.limb[static_cast<std::size_t>(top)] = 0;
    }
    moduli.push_back(m);
  }
  for (const u256& m : moduli) {
    std::vector<u256> values = {u256{}, u256{1}, m - u256{1}, kAllOnes};
    for (int i = 0; i < 40; ++i) values.push_back(rng.next_u256());
    for (std::size_t i = 0; i < values.size(); ++i) {
      const u256& a = values[i];
      const u256& b = values[(i * 7 + 3) % values.size()];
      ASSERT_EQ(u256::mulmod(a, b, m), ref::mulmod(a, b, m))
          << "a=" << a.to_hex() << " b=" << b.to_hex() << " m=" << m.to_hex();
      ASSERT_EQ(a.mod(m), ref::mod(a, m));
    }
  }
}

TEST(CryptoDifferential, ScalarReductionEdges) {
  for (const u256& a : scalar_edges()) {
    EXPECT_EQ(a.mod(kN), ref::mod(a, kN)) << a.to_hex();
    for (const u256& b : scalar_edges()) {
      EXPECT_EQ(u256::mulmod(a, b, kN), ref::mulmod(a, b, kN))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST(CryptoDifferential, FieldMulMatchesTwoFoldReference) {
  Rng rng(103);
  std::vector<u256> values = field_edges();
  for (int i = 0; i < 500; ++i) values.push_back(Fp::from(rng.next_u256()).v);
  for (const u256& a : values) {
    for (int j = 0; j < 8; ++j) {
      const u256& b = values[rng.next_below(values.size())];
      ASSERT_EQ(Fp{a}.mul(Fp{b}).v, ref::fmul(a, b))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
  for (const u256& a : field_edges()) {
    for (const u256& b : field_edges()) {
      EXPECT_EQ(Fp{a}.mul(Fp{b}).v, ref::fmul(a, b));
      EXPECT_EQ(Fp{a}.add(Fp{b}).v, ref::fadd(a, b));
      EXPECT_EQ(Fp{a}.sub(Fp{b}).v, ref::fsub(a, b));
    }
  }
}

TEST(CryptoDifferential, FieldReduceFoldCarries) {
  // hi = 2^256 - 1, lo = kC - 1: the first fold leaves the fifth word
  // kC - 1 above a low half of 2^256 - 1, so the second fold carries out
  // of 2^256 and needs the extra kC.
  const u256 c{0x1000003D1ULL};
  std::vector<std::pair<u256, u256>> wide = {
      {kAllOnes, c - u256{1}},
      {kAllOnes, kAllOnes},
      {kAllOnes, u256{}},
      {u256{}, kAllOnes},
      {u256{}, kP},
      {u256{}, kP - u256{1}},
      {u256{1}, u256{}},
      {kP - u256{1}, kP - u256{1}}};
  Rng rng(104);
  for (int i = 0; i < 2000; ++i) {
    wide.emplace_back(palette_u256(rng), palette_u256(rng));
  }
  for (const auto& [hi, lo] : wide) {
    ASSERT_EQ(Fp::reduce(hi, lo).v, ref::mod_wide(hi, lo, kP))
        << hi.to_hex() << ":" << lo.to_hex();
  }
  auto [hi, lo] = ref::mul_wide(kP - u256{1}, kP - u256{1});
  EXPECT_EQ(Fp::reduce(hi, lo), Fp::one());  // (-1)^2
}

TEST(CryptoDifferential, FieldInverseMatchesFermat) {
  Rng rng(105);
  std::vector<u256> values = field_edges();
  for (int i = 0; i < 40; ++i) values.push_back(Fp::from(rng.next_u256()).v);
  const u256 p_minus_2 = kP - u256{2};
  for (const u256& a : values) {
    if (a.is_zero()) {
      EXPECT_THROW((void)Fp{a}.inv(), std::invalid_argument);
      continue;
    }
    u256 want = ref::finv(a);
    ASSERT_EQ(Fp{a}.inv().v, want) << a.to_hex();
    EXPECT_EQ(ref::powmod(a, p_minus_2, kP), want);
  }
}

TEST(CryptoDifferential, PowmodFermat) {
  // 2^(p-1) = 1 mod p for prime p.
  u256 p{1000003};
  EXPECT_EQ(ref::powmod(u256{2}, p - u256{1}, p), u256{1});
  EXPECT_EQ(ref::powmod(u256{0}, u256{5}, p), u256{0});
  EXPECT_EQ(ref::powmod(u256{5}, u256{0}, p), u256{1});
}

TEST(CryptoDifferential, BaseMulMatchesDoubleAndAdd) {
  Rng rng(106);
  std::vector<u256> scalars = scalar_edges();
  for (int i = 0; i < 12; ++i) scalars.push_back(rng.next_u256());
  for (const u256& k : scalars) {
    SCOPED_TRACE(k.to_hex());
    expect_same_point(ECPoint::base_mul(k), ref::mul(ref::generator(), k));
    expect_same_point(ECPoint::generator().mul(k),
                      ref::mul(ref::generator(), k));
  }
}

TEST(CryptoDifferential, VariableBaseMulMatchesDoubleAndAdd) {
  Rng rng(107);
  std::vector<ECPoint> bases = {ECPoint::generator(),
                                ECPoint::generator().dbl(),
                                ECPoint::base_mul(kN - u256{1})};
  for (int i = 0; i < 4; ++i) {
    bases.push_back(ECPoint::base_mul(rng.next_u256()));
  }
  std::vector<u256> scalars = scalar_edges();
  for (int i = 0; i < 4; ++i) scalars.push_back(rng.next_u256());
  for (const ECPoint& base : bases) {
    // Jacobian (Z != 1) bases as well as their affine form.
    auto [x, y] = base.to_affine();
    for (const ECPoint& b : {base, ECPoint::from_affine(x, y)}) {
      for (const u256& k : scalars) {
        SCOPED_TRACE(k.to_hex());
        expect_same_point(b.mul(k), ref::mul(to_ref(b), k));
      }
    }
  }
  for (const u256& k : scalars) {
    EXPECT_TRUE(ECPoint::infinity().mul(k).is_infinity());
  }
}

TEST(CryptoDifferential, MixedAdditionCoversDoublingAndInverse) {
  Rng rng(108);
  for (int i = 0; i < 8; ++i) {
    ECPoint a = ECPoint::base_mul(rng.next_u256());
    ECPoint b = ECPoint::base_mul(rng.next_u256());
    auto [bx, by] = b.to_affine();
    auto [ax, ay] = a.to_affine();
    Fp fbx{bx}, fby{by}, fax{ax}, fay{ay};
    expect_same_point(a.add_affine(fbx, fby), ref::add(to_ref(a), to_ref(b)));
    // a + a (doubling branch), a + (-a) (inverse branch), inf + b.
    expect_same_point(a.add_affine(fax, fay), ref::dbl(to_ref(a)));
    EXPECT_TRUE(a.add_affine(fax, fay.neg()).is_infinity());
    expect_same_point(ECPoint::infinity().add_affine(fbx, fby), to_ref(b));
  }
}

TEST(CryptoDifferential, OnCurveMatchesInvertingReference) {
  Rng rng(109);
  for (int i = 0; i < 16; ++i) {
    ECPoint jac = ECPoint::base_mul(rng.next_u256());
    auto [x, y] = jac.to_affine();
    u256 y_off = u256::addmod(y, u256{1}, kP);
    std::vector<ECPoint> points = {
        jac, ECPoint::from_affine(x, y), ECPoint::from_affine(x, y_off),
        ECPoint::from_affine(y, x), ECPoint::from_affine(x, u256{})};
    if (x < kAllOnes - kP) points.push_back(ECPoint::from_affine(x + kP, y));
    for (const ECPoint& p : points) {
      EXPECT_EQ(p.on_curve(), ref::on_curve(to_ref(p)));
    }
  }
  EXPECT_TRUE(ECPoint::infinity().on_curve());
}

class SchnorrDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrDifferential, KeysAndSignaturesAreByteIdentical) {
  Rng rng(GetParam());
  Digest seed = rng.next_digest();
  KeyPair kp = KeyPair::from_seed(seed);
  ref::Keys want = ref::keys_from_seed(seed);
  ASSERT_EQ(kp.secret(), want.sk);
  ASSERT_EQ(kp.public_key(), want.pk);
  for (int i = 0; i < 3; ++i) {
    Digest msg = rng.next_digest();
    EXPECT_EQ(kp.sign(msg), ref::sign(want, msg));
  }
}

TEST_P(SchnorrDifferential, VerifyVerdictsMatchReference) {
  Rng rng(GetParam() ^ 0x5eed);
  KeyPair kp = KeyPair::from_seed(rng.next_digest());
  KeyPair other = KeyPair::from_seed(rng.next_digest());
  Digest msg = rng.next_digest();
  Signature sig = kp.sign(msg);
  const auto& pk = kp.public_key();

  auto check = [&](const std::pair<u256, u256>& key, const Digest& m,
                   const Signature& s, const char* what) {
    EXPECT_EQ(verify_signature(key, m, s), ref::verify(key, m, s)) << what;
  };
  auto with = [&](auto edit) {
    Signature s = sig;
    edit(s);
    return s;
  };

  check(pk, msg, sig, "valid");
  EXPECT_TRUE(verify_signature(pk, msg, sig));
  check(pk, rng.next_digest(), sig, "wrong message");
  check(other.public_key(), msg, sig, "wrong key");
  check(pk, msg,
        with([](Signature& s) { s.s = u256::addmod(s.s, u256{1}, kN); }),
        "s + 1");
  check(pk, msg, with([](Signature& s) { s.s = u256{}; }), "s = 0");
  check(pk, msg, with([](Signature& s) { s.s = kN; }), "s = n");
  check(pk, msg, with([](Signature& s) { s.s = kN + u256{5}; }), "s > n");
  check(pk, msg, with([](Signature& s) { s.s = kAllOnes; }), "s all-ones");
  check(pk, msg, with([](Signature& s) { s.s = u256{1}; }), "s = 1");
  check(pk, msg, with([](Signature& s) { s.rx = s.rx ^ u256{1}; }),
        "rx bit flip (off curve)");
  check(pk, msg,
        with([](Signature& s) { s.ry = u256::addmod(s.ry, u256{1}, kP); }),
        "ry + 1 (off curve)");
  check(pk, msg, with([](Signature& s) { s.ry = kP - s.ry; }), "R negated");
  // Coordinates >= p alias a valid point after reduction but hash
  // differently; verdicts must agree either way.
  if (sig.ry < kAllOnes - kP) {
    check(pk, msg, with([](Signature& s) { s.ry = s.ry + kP; }), "ry + p");
  }
  if (sig.rx < kAllOnes - kP) {
    check(pk, msg, with([](Signature& s) { s.rx = s.rx + kP; }), "rx + p");
  }
  auto [px, py] = pk;
  check({px, u256::addmod(py, u256{1}, kP)}, msg, sig, "P off curve");
  check({px, kP - py}, msg, sig, "P negated");
  if (py < kAllOnes - kP) check({px, py + kP}, msg, sig, "P.y + p");
  check({kP, u256{}}, msg, sig, "P = (p, 0)");
  check({u256{}, u256{}}, msg, sig, "P = (0, 0)");

  // Degenerate geometry around s*G = R + e*P: R equal to P or to -P puts
  // the right-hand side through add()'s doubling or inverse-adjacent
  // cases, and R = G or R = s*G pin the left side to the generator.
  auto g = ECPoint::generator().to_affine();
  check(pk, msg, with([&](Signature& s) { std::tie(s.rx, s.ry) = pk; }),
        "R = P");
  check(pk, msg, with([&](Signature& s) { s.rx = px; s.ry = kP - py; }),
        "R = -P");
  check(pk, msg, with([&](Signature& s) { std::tie(s.rx, s.ry) = g; }),
        "R = G");
  check(pk, msg, with([&](Signature& s) {
          s.s = u256{1};
          std::tie(s.rx, s.ry) = g;
        }),
        "R = G, s = 1");
  check(g, msg, with([&](Signature& s) { std::tie(s.rx, s.ry) = g; }),
        "P = R = G");
  check(g, msg, with([&](Signature& s) {
          s.rx = g.first;
          s.ry = kP - g.second;
        }),
        "P = G, R = -G");
}

TEST(CryptoDifferential, VerifyWithSmallAndNegatedSecretKeys) {
  // P = G, 2G, -G: the key's multiples line up with the generator table.
  Rng rng(110);
  for (const u256& sk : {u256{1}, u256{2}, kN - u256{1}}) {
    ref::Keys keys{sk, ref::to_affine(ref::mul(ref::generator(), sk))};
    Digest msg = rng.next_digest();
    Signature sig = ref::sign(keys, msg);
    EXPECT_TRUE(verify_signature(keys.pk, msg, sig));
    Signature bad = sig;
    bad.s = u256::submod(bad.s, u256{1}, kN);
    EXPECT_EQ(verify_signature(keys.pk, msg, bad),
              ref::verify(keys.pk, msg, bad));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace zendoo::crypto
