// Per-primitive cost of the crypto layer: field multiply and inverse,
// scalar mulmod mod n, fixed-base G*k and variable-base P*k, the three
// Schnorr operations the chain runs (keygen, sign, verify), one SHA-256
// compression on each routine, and one block-header hash (a PoW attempt).
// Every benchmark cycles through 64 seeded inputs so no result is hoisted
// out of the loop. The committed results are BENCH_crypto.json.
#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/ecc.hpp"
#include "crypto/hash.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256_compress.hpp"

namespace {

using namespace zendoo::crypto;

constexpr std::size_t kInputs = 64;

std::vector<u256> random_below(const u256& bound, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<u256> out;
  for (std::size_t i = 0; i < kInputs; ++i) {
    out.push_back(rng.next_u256().mod(bound));
  }
  return out;
}

struct SignedMessages {
  std::vector<KeyPair> keys;
  std::vector<Digest> msgs;
  std::vector<Signature> sigs;

  SignedMessages() {
    Rng rng(7);
    for (std::size_t i = 0; i < kInputs; ++i) {
      keys.push_back(KeyPair::from_seed(rng.next_digest()));
      msgs.push_back(rng.next_digest());
      sigs.push_back(keys.back().sign(msgs.back()));
    }
  }
};

void BM_FpMul(benchmark::State& state) {
  auto v = random_below(secp256k1::kP, 1);
  Fp acc{v[0]};
  std::size_t i = 0;
  for (auto _ : state) {
    acc = acc.mul(Fp{v[i++ % kInputs]});
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpInv(benchmark::State& state) {
  auto v = random_below(secp256k1::kP, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    Fp r = Fp{v[i++ % kInputs]}.inv();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FpInv);

void BM_ScalarMulmod(benchmark::State& state) {
  auto a = random_below(secp256k1::kN, 3);
  auto b = random_below(secp256k1::kN, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    u256 r = u256::mulmod(a[i % kInputs], b[(i + 1) % kInputs],
                          secp256k1::kN);
    ++i;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ScalarMulmod);

void BM_BaseMul(benchmark::State& state) {
  auto k = random_below(secp256k1::kN, 5);
  (void)ECPoint::base_mul(k[0]);  // build the generator table untimed
  std::size_t i = 0;
  for (auto _ : state) {
    ECPoint r = ECPoint::base_mul(k[i++ % kInputs]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BaseMul);

void BM_PointMul(benchmark::State& state) {
  auto k = random_below(secp256k1::kN, 6);
  std::vector<ECPoint> points;
  for (const u256& s : random_below(secp256k1::kN, 7)) {
    auto [x, y] = ECPoint::base_mul(s).to_affine();
    points.push_back(ECPoint::from_affine(x, y));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    ECPoint r = points[i % kInputs].mul(k[(i + 1) % kInputs]);
    ++i;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PointMul);

void BM_SchnorrKeygen(benchmark::State& state) {
  Rng rng(8);
  std::vector<Digest> seeds;
  for (std::size_t i = 0; i < kInputs; ++i) seeds.push_back(rng.next_digest());
  std::size_t i = 0;
  for (auto _ : state) {
    KeyPair kp = KeyPair::from_seed(seeds[i++ % kInputs]);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_SchnorrKeygen);

void BM_SchnorrSign(benchmark::State& state) {
  SignedMessages s;
  std::size_t i = 0;
  for (auto _ : state) {
    Signature sig = s.keys[i % kInputs].sign(s.msgs[(i + 1) % kInputs]);
    ++i;
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  SignedMessages s;
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t j = i++ % kInputs;
    bool ok = verify_signature(s.keys[j].public_key(), s.msgs[j], s.sigs[j]);
    if (!ok) state.SkipWithError("valid signature rejected");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SchnorrVerify);

// Arg 0: the portable routine; 1: the one Sha256 runs on this host
// (the SHA extensions where the CPU has them).
void BM_Sha256Compress(benchmark::State& state) {
  namespace detail = zendoo::crypto::sha256_detail;
  const detail::CompressFn compress =
      state.range(0) == 0 ? detail::compress_portable : detail::compress();
  Rng rng(9);
  std::vector<std::uint8_t> blocks(64 * kInputs);
  for (std::uint8_t& b : blocks) b = static_cast<std::uint8_t>(rng.next_u64());
  std::array<std::uint32_t, 8> h{};
  for (std::uint32_t& w : h) w = static_cast<std::uint32_t>(rng.next_u64());
  std::size_t i = 0;
  for (auto _ : state) {
    compress(h, blocks.data() + 64 * (i++ % kInputs), 1);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_Sha256Compress)->Arg(0)->Arg(1);

// The 113-byte input of BlockHeader::hash (domain tag, previous hash,
// height, tx root, SCTxsCommitment, nonce): one attempt of the PoW search.
void BM_Sha256HeaderHash(benchmark::State& state) {
  Rng rng(10);
  std::vector<Digest> digests;
  for (std::size_t i = 0; i < kInputs; ++i) digests.push_back(rng.next_digest());
  const std::uint64_t height = rng.next_below(1'000'000);
  std::uint64_t nonce = rng.next_u64();
  std::size_t i = 0;
  for (auto _ : state) {
    Digest d = Hasher(Domain::kBlockHeader)
                   .write(digests[i % kInputs])
                   .write_u64(height)
                   .write(digests[(i + 1) % kInputs])
                   .write(digests[(i + 2) % kInputs])
                   .write_u64(nonce++)
                   .finalize();
    ++i;
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Sha256HeaderHash);

}  // namespace
