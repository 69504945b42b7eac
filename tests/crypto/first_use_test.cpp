// First use of lazily initialised crypto state, raced by several threads.
// The validation pool's workers hash and verify concurrently, so several
// threads can be a process's first caller at once. Each test releases a
// group of threads into their first call together and checks every result
// against a reference implementation that touches none of that state:
//
// - Sha256FirstUse: the SHA-256 compression routine, chosen from CPUID on
//   the first hash;
// - GeneratorTableFirstUse: the fixed-base table for G, built on the first
//   base_mul.
//
// ctest also runs these tests alone in a fresh process
// (crypto_first_use_tests) so that the racing calls really are the first.
// Sha256FirstUse is defined first because it runs first there: the
// generator-table test hashes while it prepares its inputs. Inside the full
// crypto suite the state may already exist and the tests still check
// agreement.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "crypto/ecc.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "ecc_reference.hpp"
#include "sha256_reference.hpp"

namespace zendoo::crypto {
namespace {

TEST(Sha256FirstUse, ConcurrentFirstHashesMatchReference) {
  constexpr int kThreads = 8;
  // Distinct messages of different lengths, one to four blocks.
  Rng rng(18);
  std::vector<std::vector<std::uint8_t>> msgs(kThreads);
  std::vector<std::array<std::uint8_t, 32>> want(kThreads), got(kThreads);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].resize(17 + 29 * i);
    for (std::uint8_t& b : msgs[i]) b = static_cast<std::uint8_t>(rng.next_u64());
    want[i] = ref::Sha256::digest(msgs[i]);
  }

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < msgs.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = Sha256::digest(msgs[t]);
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "message " << i;
    EXPECT_EQ(Sha256::digest(msgs[i]), want[i]) << "message " << i;
  }
}

struct Job {
  Digest seed, msg;
  ref::Keys want_keys;
  Signature want_sig;
  // Filled by the racing thread.
  bool verified = false;
  std::pair<u256, u256> pk;
  Signature sig;
};

TEST(GeneratorTableFirstUse, ConcurrentFirstCallsMatchReference) {
  constexpr int kThreads = 8;
  Rng rng(4242);
  std::vector<Job> jobs(kThreads);
  for (Job& j : jobs) {
    j.seed = rng.next_digest();
    j.msg = rng.next_digest();
    j.want_keys = ref::keys_from_seed(j.seed);
    j.want_sig = ref::sign(j.want_keys, j.msg);
  }

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Job& j = jobs[static_cast<std::size_t>(t)];
      start.arrive_and_wait();
      // Half the threads enter through verify, half through key derivation.
      if (t % 2 == 0) {
        j.verified = verify_signature(j.want_keys.pk, j.msg, j.want_sig);
      }
      KeyPair kp = KeyPair::from_seed(j.seed);
      j.pk = kp.public_key();
      j.sig = kp.sign(j.msg);
      if (t % 2 != 0) j.verified = verify_signature(j.pk, j.msg, j.sig);
    });
  }
  for (std::thread& th : threads) th.join();

  for (const Job& j : jobs) {
    EXPECT_TRUE(j.verified);
    EXPECT_EQ(j.pk, j.want_keys.pk);
    EXPECT_EQ(j.sig, j.want_sig);
    // And the same calls made single-threaded, after the race.
    KeyPair kp = KeyPair::from_seed(j.seed);
    EXPECT_EQ(kp.public_key(), j.pk);
    EXPECT_EQ(kp.sign(j.msg), j.sig);
    EXPECT_TRUE(verify_signature(j.pk, j.msg, j.sig));
  }
}

}  // namespace
}  // namespace zendoo::crypto
