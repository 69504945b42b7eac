// The fixed-base table for G is built lazily on the first base_mul. The
// validation pool's workers verify signatures concurrently, so several
// threads can be the first caller at once. This test releases a group of
// threads into their first verify/sign together and checks every result
// against the reference implementation, which never touches the table.
//
// ctest also runs this test alone in a fresh process (crypto_first_use_tests)
// so that the racing calls really are the first; inside the full crypto
// suite the table may already exist and the test still checks agreement.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "crypto/ecc.hpp"
#include "crypto/rng.hpp"
#include "ecc_reference.hpp"

namespace zendoo::crypto {
namespace {

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
