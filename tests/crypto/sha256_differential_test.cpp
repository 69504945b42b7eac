// Differential tests: the library's SHA-256 against the reference hasher in
// sha256_reference.hpp, and the two compression routines against each other.
// Every comparison is exact, since digests feed block hashes, Merkle roots
// and state fingerprints. Cases that need the SHA extensions skip, naming
// the missing feature, on a CPU without them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "sha256_reference.hpp"

namespace zendoo::crypto {
namespace {

using sha256_detail::CompressFn;
using State = std::array<std::uint32_t, 8>;

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

State random_state(Rng& rng) {
  State s;
  for (std::uint32_t& w : s) w = static_cast<std::uint32_t>(rng.next_u64());
  return s;
}

/// Why the SHA-extensions routine cannot run on this host; empty if it can.
std::string shani_missing() {
#if defined(__x86_64__)
  if (sha256_detail::shani_available()) return {};
  return "CPU lacks the SHA extensions (CPUID leaf 7 EBX bit 29 SHA, with "
         "leaf 1 ECX bit 9 SSSE3 and bit 19 SSE4.1)";
#else
  return "not an x86-64 build: there is no SHA-extensions routine";
#endif
}

#if defined(__x86_64__)
constexpr CompressFn kShani = sha256_detail::compress_shani;
#else
constexpr CompressFn kShani = nullptr;
#endif

/// A whole message through one compression routine, padded here rather than
/// by Sha256, and handed over as one multi-block call.
std::array<std::uint8_t, 32> digest_with(CompressFn compress,
                                         std::string_view msg) {
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  std::array<std::uint8_t, 32> out;
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::string hex(const std::array<std::uint8_t, 32>& d) {
  Digest dd;
  dd.bytes = d;
  return dd.to_hex();
}

/// FIPS 180-4 / NIST example messages with their digests.
void expect_fips_vectors(CompressFn compress) {
  const std::pair<std::string, std::string> kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [msg, want] : kVectors) {
    EXPECT_EQ(hex(digest_with(compress, msg)), want)
        << "message of " << msg.size() << " bytes";
  }
}

TEST(Sha256Differential, EveryLengthWholeAndSplitMatchesReference) {
  Rng rng(18);
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, len);
    const auto want = ref::Sha256::digest(msg);
    ASSERT_EQ(Sha256::digest(msg), want) << "whole, len=" << len;

    // Three feeds at random split points; pieces may be empty.
    for (int trial = 0; trial < 3; ++trial) {
      Sha256 h;
      std::size_t at = 0;
      std::string cuts;
      while (at < len) {
        const std::size_t piece = rng.next_below(len - at + 1);
        h.update(std::span<const std::uint8_t>(msg).subspan(at, piece));
        at += piece;
        cuts += std::to_string(piece) + ",";
      }
      ASSERT_EQ(h.finalize(), want) << "len=" << len << " pieces=" << cuts;
    }
  }
}

TEST(Sha256Differential, PortableMatchesReferenceCompression) {
  Rng rng(180);
  for (int i = 0; i < 500; ++i) {
    State want = random_state(rng);
    State got = want;
    const std::vector<std::uint8_t> block = random_bytes(rng, 64);
    ref::Sha256::compress(want, block.data());
    sha256_detail::compress_portable(got, block.data(), 1);
    ASSERT_EQ(got, want) << "pair " << i;
  }
}

TEST(Sha256Differential, ShaniMatchesPortableOnRandomBlocks) {
  if (const std::string why = shani_missing(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  Rng rng(181);
  for (int i = 0; i < 2000; ++i) {
    // One to four blocks per call: the multi-block loop carries the state
    // between blocks in registers.
    const std::size_t count = 1 + rng.next_below(4);
    State want = random_state(rng);
    State got = want;
    const std::vector<std::uint8_t> blocks = random_bytes(rng, 64 * count);
    sha256_detail::compress_portable(want, blocks.data(), count);
    kShani(got, blocks.data(), count);
    ASSERT_EQ(got, want) << "pair " << i << ", " << count << " blocks";
  }
}

TEST(Sha256Differential, DispatchPicksShaniWhereAvailable) {
  const CompressFn want = shani_missing().empty()
                              ? kShani
                              : sha256_detail::compress_portable;
  EXPECT_EQ(sha256_detail::compress(), want);
}

TEST(Sha256Differential, FipsVectorsThroughPortable) {
  expect_fips_vectors(sha256_detail::compress_portable);
}

TEST(Sha256Differential, FipsVectorsThroughShani) {
  if (const std::string why = shani_missing(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  expect_fips_vectors(kShani);
}

}  // namespace
}  // namespace zendoo::crypto
